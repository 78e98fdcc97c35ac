"""Optimal local estimator of the reflectivity and its outcome statistics.

The locally optimal observable is the symmetric logarithmic derivative of
the received state at zero reflectivity, divided by the Fisher
information.  It lives on a concrete (idler x returned-mode) space where
the idler dimension equals the Schmidt rank.  The normalization is fixed
so that the expectation of the observable grows with unit slope in the
reflectivity, which makes the detection threshold scale well defined.

Received states are computed without materializing the tripartite
(idler, signal, bath) density matrix: the bath is expanded over its Fock
levels and each pure component is pushed through the beamsplitter.

The observable and the received states are block lists (see
:mod:`qillum.fock`) over sectors fixed by conserved quantities.  For a
level state, whose Schmidt vector a is the Fock level L_a, the SLD and
the received state conserve q = L_a - n_b of idler term a and
returned-mode level n_b, so each is built, diagonalized and measured one
sector q at a time.  A state with general vectors (coherent, cat:<d>) is
one sector.  A received state comes wrapped in a
:class:`~qillum.fock.DensityOperator` that carries its trace deficit.
The SLD is the only observable built here: the quadrature and ab + a'b'
forms it reduces to for coherent and tmsv transmitters are test oracles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fock import (DensityOperator, TruncationError, annihilation,
                   beamsplitter_unitary, eig_hermitian, group_indices,
                   thermal_weights)
from .qfi import qfi_schmidt, signal_lowering_matrix
from .states import SchmidtState


@dataclass
class ObservableSpectrum:
    """Spectral form of the optimal observable built by :func:`sld_observable`."""

    eigenvalues: np.ndarray      # real, descending
    eigenvectors: list           # (rows, columns, positions) per block, see eig_hermitian
    blocks: list                 # the observable itself as (rows, block) pairs

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


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
    scale = -2.0 / (rep.h * (1.0 + n_bath))
    blocks = []
    for rows, _ in _sectors(state, dim_bath):
        a, n = np.divmod(rows, dim_bath)
        ia, jn = np.ix_(a, a), np.ix_(n, n)
        # rows (a, n) x (a', n') of the two Kronecker products
        x = np.conj(c)[ia] * b[jn] + c.T[ia] * b.conj().T[jn]
        x *= scale
        blocks.append((rows, 0.5 * (x + x.conj().T)))
    return ObservableSpectrum(*eig_hermitian(blocks), blocks)


def _sectors(state: SchmidtState, dim_bath: int) -> list:
    """(rows, cols) of each sector q: rows a * dim_bath + n of the
    (rank x returned mode) space with q = L_a - n, and columns
    j * dim_bath + k of the (signal x bath) space with q = j - k.  A state
    with general vectors is one sector."""
    if state.levels is None:
        return [(np.arange(state.rank * dim_bath), np.arange(state.d_signal * dim_bath))]
    n = np.arange(dim_bath)
    rows = group_indices(np.subtract.outer(state.levels, n))
    cols = group_indices(np.subtract.outer(np.arange(state.d_signal), n))
    return [(rows[q], cols[q]) for q in rows]


def received_state(state: SchmidtState, n_bath: float, eta: float, dim_bath: int,
                   deficit_tol: float | None = None) -> DensityOperator:
    """Received (idler x returned mode) state after reflection ``eta``.

    For each bath Fock level the pure component is propagated through the
    beamsplitter on the (signal, bath) factors and the signal is traced
    out on the fly.  U acts per excitation sector and the state is formed
    as one block per sector q (see :func:`_sectors`).  The total trace
    deficit combines the transmitter's truncation with the thermal tail.
    """
    d_s = state.d_signal
    r = state.rank
    rho_w = thermal_weights(n_bath, dim_bath)
    w = state.vectors * np.sqrt(state.probs)[None, :]
    # column (a, n) of x is w~_a (x) |n>
    x = np.zeros((d_s * dim_bath, r * dim_bath), dtype=np.complex128)
    for n in range(dim_bath):
        x[n::dim_bath, n::dim_bath] = w * np.sqrt(rho_w[n])
    for idx, u in beamsplitter_unitary(eta, d_s, dim_bath):
        x[idx] = u @ x[idx]   # in place: the sectors are disjoint
    z = x.reshape(d_s, dim_bath, r, dim_bath).transpose(2, 1, 0, 3)
    z = z.reshape(r * dim_bath, d_s * dim_bath)
    blocks = []
    for rows, cols in _sectors(state, dim_bath):
        zb = z[np.ix_(rows, cols)]
        block = zb @ zb.conj().T
        blocks.append((rows, 0.5 * (block + block.conj().T)))
    deficit = max(0.0, 1.0 - sum(float(np.real(np.trace(b))) for _, b in blocks))
    if deficit_tol is not None and deficit > deficit_tol:
        raise TruncationError(
            f"received-state deficit {deficit:.3e} exceeds tolerance {deficit_tol:.3e}")
    return DensityOperator(blocks, deficit)


def unbiasedness_check(state: SchmidtState, n_bath: float, dim_bath: int,
                       eta_grid=(0.0, 1e-3, 5e-3, 1e-2)) -> dict:
    """Quadratic fit of eta -> Tr(rho_eta O) for the optimal observable.

    Returns the fitted intercept, slope, and curvature.  An unbiased
    estimator has intercept 0 and slope 1; the curvature quantifies the
    quadratic response error away from zero reflectivity.
    """
    obs = sld_observable(state, n_bath, dim_bath)
    etas = np.asarray(sorted(eta_grid), dtype=float)
    means = [trace_moments(received_state(state, n_bath, eta, dim_bath).blocks, obs, 1)[0]
             for eta in etas]
    design = np.vander(etas, 3, increasing=True)  # columns 1, eta, eta^2
    coef, *_ = np.linalg.lstsq(design, np.asarray(means), rcond=None)
    return {"intercept": float(coef[0]), "slope": float(coef[1]),
            "curvature": float(coef[2]), "etas": etas, "means": np.asarray(means)}


def _matched(blocks, obs: ObservableSpectrum):
    """A block list zipped with the observable's blocks on the same rows."""
    if len(blocks) != len(obs.blocks) or not all(
            np.array_equal(rows, own) for (rows, _), (own, _) in zip(blocks, obs.blocks)):
        raise ValueError("operator blocks do not match the observable's")
    return zip(blocks, obs.blocks, obs.eigenvectors)


def trace_moments(blocks, obs: ObservableSpectrum, k_max: int) -> list:
    """Tr(X O^k), k = 1..k_max, of a block list X, summed block by block."""
    f = np.zeros(k_max)
    for (_, x), (_, o), _ in _matched(blocks, obs):
        power = np.eye(len(o), dtype=np.complex128)
        for k in range(k_max):
            power = power @ o
            f[k] += np.real(np.trace(x @ power))
    return f.tolist()


def outcome_distribution(rho: DensityOperator, obs: ObservableSpectrum,
                         eta: float = 0.0) -> OutcomeDistribution:
    """Projective outcome distribution p_i = <o_i| rho |o_i>.

    ``eta`` is carried along as a label of the reflectivity the state was
    prepared at; it does not enter the computation.
    """
    probs = np.empty(obs.dim)
    for (_, r), _, (_, vec, pos) in _matched(rho.blocks, obs):
        probs[pos] = np.real(np.einsum("ij,ij->j", vec.conj(), r @ vec))
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
    f = trace_moments(rho0.blocks, obs, 2 * k_max)
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
