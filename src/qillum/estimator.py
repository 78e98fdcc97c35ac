"""Optimal local estimator of the reflectivity and its outcome statistics.

The locally optimal observable is the symmetric logarithmic derivative of
the received state at zero reflectivity, divided by the Fisher
information.  It lives on a concrete (idler x returned-mode) space where
the idler dimension equals the Schmidt rank.  The normalization is fixed
so that the expectation of the observable grows with unit slope in the
reflectivity, which makes the detection threshold scale well defined.

Received states are computed without materializing the tripartite
(idler, signal, bath) density matrix: the bath is expanded over its Fock
levels and each pure component is pushed through the beamsplitter, which
keeps memory at O((rank * bath_dim)^2).

The spectral work runs on sectors of exact zeros (see :mod:`qillum.fock`):
the beamsplitter acts per excitation sector, the received state is formed
one block of rows sharing nonzero columns at a time, and each outcome
probability is evaluated on its eigenvector's block only.  Fock-diagonal
transmitters (tmsv, cat:inf, maxfock) split into the sectors
q = a - n_b of Schmidt index a and returned-mode level n_b; a state
whose matrices have no exact zeros is one sector.

The observable and the received states are plain dense complex128
arrays of side rank * bath_dim; a received state comes wrapped in a
:class:`~qillum.fock.DensityOperator` that carries its trace deficit.
The SLD is the only observable built here: the quadrature and ab + a'b'
forms it reduces to for coherent and tmsv transmitters are test oracles.

Desk-scale note: because those matrices are dense, full received-state
construction is intended for modest bath occupation (a few photons), with
the bath cutoff chosen so the thermal tail is negligible.  Bright-bath
statements are validated through the closed-form information quantities
instead; a bright thermal tail makes explicit density matrices infeasible
at desk scale.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import (DensityOperator, TruncationError, annihilation,
                   beamsplitter_unitary, eig_hermitian, sectors, thermal_weights)
from .qfi import qfi_schmidt, signal_lowering_matrix
from .states import SchmidtState


@dataclass
class ObservableSpectrum:
    """Spectral form of the optimal observable built by :func:`sld_observable`."""

    eigenvalues: np.ndarray      # real, descending
    basis: np.ndarray            # orthonormal eigenvector columns
    matrix: np.ndarray           # the observable itself, kept for moment work

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class OutcomeDistribution:
    """Projective-measurement outcome values and probabilities."""

    values: np.ndarray
    probabilities: np.ndarray
    eta: float
    deficit: float

    def mean(self) -> float:
        return float(np.dot(self.probabilities, self.values))

    def variance(self) -> float:
        mu = self.mean()
        return float(np.dot(self.probabilities, (self.values - mu) ** 2))


@dataclass
class MomentBoundReport:
    """Even-moment growth of the estimator observable against the
    factorial bound that controls its moment generating function."""

    k_values: list
    even_moments: list           # F_{2k} = Tr(rho_0 O^{2k})
    bounds: list                 # (C / (H^2 N_B))^k (2k)!
    odd_moments: list            # F_1, F_3, ... (vanish at eta = 0)
    antinormal_moments: list     # <s^k s'^k> of the signal marginal
    c_fitted: float
    h: float
    passed: list

    def all_passed(self) -> bool:
        return all(self.passed)


def eta_derivative(state: SchmidtState, n_bath: float, dim_bath: int) -> np.ndarray:
    """Analytic reflectivity derivative of the received state at eta = 0,
    on the (rank x bath) space of :func:`received_state`."""
    rho_w = thermal_weights(n_bath, dim_bath)
    rho_b = np.diag(rho_w)
    b = annihilation(dim_bath)
    comm_b = b @ rho_b - rho_b @ b
    comm_bd = b.conj().T @ rho_b - rho_b @ b.conj().T
    m = signal_lowering_matrix(state)
    sp = np.sqrt(state.probs)
    outer = sp[:, None] * sp[None, :]
    return np.kron(outer * np.conj(m), comm_b) - np.kron(outer * m.T, comm_bd)


def sld_observable(state: SchmidtState, n_bath: float, dim_bath: int) -> ObservableSpectrum:
    """Optimal unbiased-estimator observable on (Schmidt rank x returned mode).

    Closed form: with c[a, a'] = sqrt(p_a p_a') <w_a|s|w_a'>
    / (p_a + p_a' N_B/(1+N_B)), the observable is
    -2/(H (1+N_B)) * sum_{a a'} |v_a><v_a'| (x) (conj(c[a,a']) b + c[a',a] b').
    The overall sign makes the mean response slope +1 in the reflectivity.
    """
    rep = qfi_schmidt(state, n_bath)
    if rep.h <= 0:
        raise ValueError("state carries no reflectivity information, no estimator exists")
    p = state.probs
    q = n_bath / (1.0 + n_bath)
    m = signal_lowering_matrix(state)  # m[i, j] = <w_i|s|w_j>
    c = np.sqrt(np.outer(p, p)) * m / (p[:, None] + p[None, :] * q)
    b = annihilation(dim_bath)
    obs = np.kron(np.conj(c), b) + np.kron(c.T, b.conj().T)
    obs *= -2.0 / (rep.h * (1.0 + n_bath))
    obs = 0.5 * (obs + obs.conj().T)
    lam, vec = eig_hermitian(obs)
    return ObservableSpectrum(lam, vec, obs)


def _blocks(m: np.ndarray) -> list:
    """(rows, cols) pairs whose blocks hold every nonzero entry of ``m``:
    the sectors of its row-column incidence pattern.  Rows in different
    blocks share no nonzero column."""
    r = m.shape[0]
    link = np.zeros((r + m.shape[1],) * 2, dtype=bool)
    link[:r, r:] = m != 0
    return [(s[s < r], s[s >= r] - r) for s in sectors(link)]


def received_state(state: SchmidtState, n_bath: float, eta: float, dim_bath: int,
                   deficit_tol: float | None = None) -> DensityOperator:
    """Received (idler x returned mode) state after reflection ``eta``.

    For each bath Fock level the pure component is propagated through the
    beamsplitter on the (signal, bath) factors and the signal is traced
    out on the fly.  U acts per sector of its nonzero pattern, and the
    state is formed one block of rows sharing nonzero columns at a time,
    so entries between blocks are exact zeros.  The total trace deficit
    combines the transmitter's truncation with the thermal tail.
    """
    d_s = state.d_signal
    r = state.rank
    rho_w = thermal_weights(n_bath, dim_bath)
    u = beamsplitter_unitary(eta, d_s, dim_bath)
    w = state.vectors * np.sqrt(state.probs)[None, :]
    # column (a, n) of x is w~_a (x) |n>
    x = np.zeros((d_s * dim_bath, r * dim_bath), dtype=np.complex128)
    for n in range(dim_bath):
        x[n::dim_bath, n::dim_bath] = w * np.sqrt(rho_w[n])
    y = np.zeros_like(x)
    for idx in sectors(u):
        y[idx] = u[np.ix_(idx, idx)] @ x[idx]
    y = y.reshape(d_s, dim_bath, r, dim_bath)
    z = y.transpose(2, 1, 0, 3).reshape(r * dim_bath, d_s * dim_bath)
    rho = np.zeros((r * dim_bath, r * dim_bath), dtype=np.complex128)
    for rows, cols in _blocks(z):
        zb = z[np.ix_(rows, cols)]
        block = zb @ zb.conj().T
        rho[np.ix_(rows, rows)] = 0.5 * (block + block.conj().T)
    deficit = max(0.0, 1.0 - float(np.real(np.trace(rho))))
    if deficit_tol is not None and deficit > deficit_tol:
        raise TruncationError(
            f"received-state deficit {deficit:.3e} exceeds tolerance {deficit_tol:.3e}")
    return DensityOperator(rho, deficit)


def unbiasedness_check(state: SchmidtState, n_bath: float, dim_bath: int,
                       eta_grid=(0.0, 1e-3, 5e-3, 1e-2)) -> dict:
    """Quadratic fit of eta -> Tr(rho_eta O) for the optimal observable.

    Returns the fitted intercept, slope, and curvature.  An unbiased
    estimator has intercept 0 and slope 1; the curvature quantifies the
    quadratic response error away from zero reflectivity.
    """
    obs = sld_observable(state, n_bath, dim_bath)
    etas = np.asarray(sorted(eta_grid), dtype=float)
    means = []
    for eta in etas:
        rho = received_state(state, n_bath, eta, dim_bath)
        means.append(float(np.real(np.trace(rho.data @ obs.matrix))))
    design = np.vander(etas, 3, increasing=True)  # columns 1, eta, eta^2
    coef, *_ = np.linalg.lstsq(design, np.asarray(means), rcond=None)
    return {"intercept": float(coef[0]), "slope": float(coef[1]),
            "curvature": float(coef[2]), "etas": etas, "means": np.asarray(means)}


def outcome_distribution(rho: DensityOperator, obs: ObservableSpectrum,
                         eta: float = 0.0) -> OutcomeDistribution:
    """Projective outcome distribution p_i = <o_i| rho |o_i>.

    ``eta`` is carried along as a label of the reflectivity the state was
    prepared at; it does not enter the computation.
    """
    if rho.data.shape[0] != obs.dim:
        raise ValueError("state and observable dimensions differ")
    probs = np.empty(obs.dim)
    for rows, cols in _blocks(obs.basis):
        basis = obs.basis[np.ix_(rows, cols)]
        tmp = rho.data[np.ix_(rows, rows)] @ basis
        probs[cols] = np.real(np.einsum("ij,ij->j", basis.conj(), tmp))
    if probs.min() < -1e-10:
        raise ValueError(f"negative outcome probability {probs.min():.3e}")
    return OutcomeDistribution(obs.eigenvalues.copy(), probs, eta, rho.trace_deficit)


def signal_antinormal_moments(state: SchmidtState, k_max: int) -> list:
    """<s^k s'^k> of the signal marginal for k = 1..k_max.

    The vectors are raised by slicing, (s' w)[n] = sqrt(n) w[n-1], on a
    space one level longer per raise, so no raised component is clipped.
    """
    moments = []
    cur = state.vectors
    for _ in range(k_max):
        up = np.zeros((cur.shape[0] + 1, state.rank), dtype=np.complex128)
        up[1:] = np.sqrt(np.arange(1, cur.shape[0] + 1))[:, None] * cur
        cur = up
        moments.append(float(np.sum(state.probs * np.sum(np.abs(cur) ** 2, axis=0))))
    return moments


def moment_bound_check(state: SchmidtState, n_bath: float, k_max: int,
                       dim_bath: int) -> MomentBoundReport:
    """Check F_{2k} = Tr(rho_0 O^{2k}) against (C/(H^2 N_B))^k (2k)!.

    C is fitted as the smallest constant with <s^k s'^k> <= k! C^k over
    the computed range.  Odd moments are reported too; they vanish at
    zero reflectivity because the observable only connects neighboring
    returned-mode levels.
    """
    if k_max > 5:
        raise ValueError("k_max above 5 is past the intended dimension budget")
    rep = qfi_schmidt(state, n_bath)
    obs = sld_observable(state, n_bath, dim_bath)
    rho0 = received_state(state, n_bath, 0.0, dim_bath)
    f = []
    power = np.eye(obs.dim, dtype=np.complex128)
    for _ in range(2 * k_max):
        power = power @ obs.matrix
        f.append(float(np.real(np.trace(rho0.data @ power))))
    anti = signal_antinormal_moments(state, k_max)
    c = max((anti[k - 1] / math.factorial(k)) ** (1.0 / k) for k in range(1, k_max + 1))
    ks = list(range(1, k_max + 1))
    even = [f[2 * k - 1] for k in ks]
    odd = [f[2 * k - 2] for k in ks]
    bounds = [(c / (rep.h ** 2 * n_bath)) ** k * math.factorial(2 * k) for k in ks]
    passed = [ev <= bd for ev, bd in zip(even, bounds)]
    return MomentBoundReport(ks, even, bounds, odd, anti, c, rep.h, passed)


def mgf_radius(h: float, n_bath: float, c: float) -> float:
    """Upper end of the guaranteed-finite interval for the outcome MGF."""
    return math.sqrt(h * h * n_bath / c)


def mgf_empirical(dist: OutcomeDistribution, t_grid, t_max: float | None = None) -> np.ndarray:
    """Centered moment generating function sum_i p_i e^{t (o_i - mean)}.

    Finite spectra make this computable for any t; values beyond the
    guaranteed interval (pass ``t_max``) only trigger a warning.
    """
    ts = np.asarray(t_grid, dtype=float)
    if t_max is not None and np.any(ts >= t_max):
        warnings.warn("MGF evaluated outside the guaranteed-finite interval",
                      RuntimeWarning, stacklevel=2)
    centered = dist.values - dist.mean()
    return np.exp(np.outer(ts, centered)) @ dist.probabilities
