"""Optimal local estimator of the reflectivity and its outcome statistics.

The locally optimal observable is the symmetric logarithmic derivative of
the received state at zero reflectivity, divided by the Fisher
information.  It lives on a concrete (idler x returned-mode) space where
the idler dimension equals the Schmidt rank.  The normalization is fixed
so that the expectation of the observable grows with unit slope in the
reflectivity, which makes the detection threshold scale well defined.

Received states are gathered block by block without any joint buffer:
U conserves the excitation number, so each entry of the factor z with
rho = z z' is one element of the beamsplitter array u[N, j - lo, i - lo]
times one transmitter amplitude.

The observable and the received states are block lists (see
:mod:`qillum.fock`) over sectors fixed by conserved quantities, read from
where the Schmidt vectors are nonzero.  If every level of vector a is
r_a (mod g), the SLD and the received state conserve q = r_a - n_b
(mod g) of idler term a and returned-mode level n_b, so each is built,
diagonalized and measured one sector q at a time.  A level state (tmsv,
cat:inf, maxfock), whose vector a is the Fock level L_a, has g = 0 and
one sector per q = L_a - n_b; cat:<d> has g = d and d sectors; coherent
has g = 1 and is one sector.  A received state comes wrapped in a
:class:`~qillum.fock.DensityOperator` that carries its trace deficit.
The SLD is the only observable built here: the quadrature and ab + a'b'
forms it reduces to for coherent and tmsv transmitters are test oracles.
The reflectivity derivative of the received state is a block list on the
same sectors, from the same ladder builder as the SLD.  Every trace
against the observable (outcome probabilities, moments Tr(X O^k)) is read
from one diagonal <o_i|X|o_i> in its eigenbasis.  Outcomes are listed in
block order, each block's eigenvalues ascending; no consumer relies on a
global order (sampling sorts the values itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import (DensityOperator, TruncationError, beamsplitter_unitary,
                   eig_hermitian, group_indices, thermal_weights)
from .qfi import qfi_schmidt, signal_lowering_matrix
from .states import SchmidtState

# reflectivities of the quadratic fit in unbiasedness_check, ascending
UNBIASED_ETAS = (0.0, 1e-3, 5e-3, 1e-2)


@dataclass
class ObservableSpectrum:
    """Spectral form of the optimal observable built by :func:`sld_observable`."""

    spectra: list                # (rows, eigenvalues, eigenvectors) per block, see eig_hermitian
    blocks: list                 # the observable itself as (rows, block) pairs
    eigenvalues: np.ndarray = field(init=False)   # the spectra's, in block order

    def __post_init__(self):
        self.eigenvalues = np.concatenate([lam for _, lam, _ in self.spectra])


@dataclass
class OutcomeDistribution:
    """Projective-measurement outcome values and probabilities."""

    values: np.ndarray
    probabilities: np.ndarray
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


def eta_derivative(state: SchmidtState, n_bath: float, dim_bath: int) -> list:
    """Analytic reflectivity derivative of the received state at eta = 0,
    as a block list on the sectors of :func:`received_state`.

    It is x + x' with x = sqrt(p_a p_a') conj(<w_a|s|w_a'>) |v_a><v_a'|
    (x) [b, rho_B], and [b, rho_B] = (rho_{n+1} - rho_n) sqrt(n+1) |n><n+1|.
    """
    rho_w = thermal_weights(n_bath, dim_bath)
    sp = np.sqrt(state.probs)
    pair = sp[:, None] * sp[None, :] * np.conj(signal_lowering_matrix(state))
    return _ladder_blocks(state, dim_bath, pair, np.append(np.diff(rho_w), 0.0))


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
    scale = -2.0 / (rep.h * (1.0 + n_bath))
    blocks = [(rows, x * scale)
              for rows, x in _ladder_blocks(state, dim_bath, np.conj(c), np.ones(dim_bath))]
    return ObservableSpectrum(eig_hermitian(blocks), blocks)


def _sectors(state: SchmidtState, dim_bath: int) -> list:
    """(rows, cols) of each sector q, read from where the Schmidt vectors
    are nonzero.  With r_a the lowest level of vector a and g the gcd of
    the level gaps inside the vectors, every level of w_a is r_a (mod g).
    Rows a * dim_bath + n of the (rank x returned mode) space have q =
    r_a - n and columns j * dim_bath + k of the (signal x bath) space have
    q = j - k, both mod g, and g = 0 means no modulus: a level state
    (vector a is the Fock level L_a) has one sector per q = L_a - n, in
    ascending q, coherent (g = 1) one sector and cat:<d> (g = d) d sectors.

    U conserves n_s + n_b, so z[(a, n), (j, k)] needs i = j + n - k in the
    support of w_a, which makes j - k = r_a - n (mod g); the SLD couples
    (a, n) to (a', n + 1) only where <w_a|s|w_a'> is nonzero, which makes
    r_a' = r_a + 1 (mod g).  Entries that are exactly zero stay out of
    every sector, so the blocks are exact for the stored vectors.
    """
    levels, terms = state.support()
    low = np.full(state.rank, state.d_signal)
    np.minimum.at(low, terms, levels)
    # without a modulus the shift by dim_bath - 1 keeps every key in [0, period)
    period = int(np.gcd.reduce(levels - low[terms])) or state.d_signal + dim_bath
    n = np.arange(dim_bath) - dim_bath + 1
    rows = group_indices(np.subtract.outer(low, n) % period)
    cols = group_indices(np.subtract.outer(np.arange(state.d_signal), n) % period)
    return [(rows[q], cols[q]) for q in rows]


def _ladder_blocks(state: SchmidtState, dim_bath: int, pair: np.ndarray,
                   weight: np.ndarray) -> list:
    """x + x' on each sector of :func:`_sectors`, with x[(a, n), (a', n')] =
    pair[a, a'] weight[n] sqrt(n + 1) where n' = n + 1 and zero elsewhere:
    the one place <n|b|n'> is built.  x and x' have disjoint supports, so
    the sum rounds nothing."""
    blocks = []
    for rows, _ in _sectors(state, dim_bath):
        a, n = np.divmod(rows, dim_bath)
        ladder = np.where(n[None, :] == n[:, None] + 1,
                          (weight[n] * np.sqrt(n + 1))[:, None], 0.0)
        x = pair[np.ix_(a, a)] * ladder
        blocks.append((rows, x + x.conj().T))
    return blocks


def received_state(state: SchmidtState, n_bath: float, eta: float, dim_bath: int,
                   deficit_tol: float | None = None) -> DensityOperator:
    """Received (idler x returned mode) state after reflection ``eta``.

    The state is z z', with z the (rank x returned mode) x (signal x bath)
    factor of the bath-level components pushed through the beamsplitter U.
    U conserves n_s + n_b, so z[(a, n), (j, k)] = sqrt(p_a) w_a[i]
    sqrt(rho_k) <j, n|U|i, k> with i = j + n - k (zero outside the signal
    cutoff).  Each sector q (see :func:`_sectors`) gathers its z_q from
    U's array u[j + n, j - lo, i - lo], where lo = max(0, j + n - dim_bath
    + 1) makes j - lo = min(j, dim_bath - 1 - n) and i - lo = min(i,
    dim_bath - 1 - k).  The total trace deficit combines the
    transmitter's truncation with the thermal tail.
    """
    d_s = state.d_signal
    width = min(d_s, dim_bath)
    sqrt_rho = np.sqrt(thermal_weights(n_bath, dim_bath))
    w = state.vectors * np.sqrt(state.probs)[None, :]
    u = beamsplitter_unitary(eta, d_s, dim_bath).ravel()
    blocks = []
    for rows, cols in _sectors(state, dim_bath):
        a, n = np.divmod(rows[:, None], dim_bath)
        j, k = np.divmod(cols[None, :], dim_bath)
        i = j + n - k   # the input signal level, wrapped in range and zeroed out of it
        iw = i % d_s
        # one flat index into u[j + n, j - lo, iw - lo] reads faster than
        # three; both offsets lie in [0, width), so a wrapped iw stays in
        # sector j + n
        flat = ((j + n) * width + np.minimum(j, dim_bath - 1 - n)) * width
        zb = w[iw, a] * sqrt_rho[k] * u[flat + np.minimum(iw, dim_bath - 1 - k)]
        zb[iw != i] = 0.0
        block = zb @ zb.conj().T
        blocks.append((rows, 0.5 * (block + block.conj().T)))
    deficit = max(0.0, 1.0 - sum(float(np.real(np.trace(b))) for _, b in blocks))
    if deficit_tol is not None and deficit > deficit_tol:
        raise TruncationError(
            f"received-state deficit {deficit:.3e} exceeds tolerance {deficit_tol:.3e}")
    return DensityOperator(blocks, deficit)


def unbiasedness_check(state: SchmidtState, n_bath: float, dim_bath: int) -> dict:
    """Quadratic fit of eta -> Tr(rho_eta O) over ``UNBIASED_ETAS`` for the
    optimal observable.

    Returns the fitted intercept, slope, and curvature.  An unbiased
    estimator has intercept 0 and slope 1; the curvature quantifies the
    quadratic response error away from zero reflectivity.
    """
    obs = sld_observable(state, n_bath, dim_bath)
    etas = np.asarray(UNBIASED_ETAS)
    means = [trace_moments(received_state(state, n_bath, eta, dim_bath).blocks, obs, 1)[0]
             for eta in etas]
    design = np.vander(etas, 3, increasing=True)  # columns 1, eta, eta^2
    coef, *_ = np.linalg.lstsq(design, np.asarray(means), rcond=None)
    return {"intercept": float(coef[0]), "slope": float(coef[1]),
            "curvature": float(coef[2]), "etas": etas, "means": np.asarray(means)}


def _eigen_diagonal(blocks, obs: ObservableSpectrum) -> np.ndarray:
    """<o_i|X|o_i> of a block list X on the observable's rows, in the
    order of ``obs.eigenvalues``."""
    if len(blocks) != len(obs.spectra) or not all(
            np.array_equal(rows, own) for (rows, _), (own, _, _) in zip(blocks, obs.spectra)):
        raise ValueError("operator blocks do not match the observable's")
    return np.concatenate([np.real(np.einsum("ij,ij->j", vec.conj(), x @ vec))
                           for (_, x), (_, _, vec) in zip(blocks, obs.spectra)])


def trace_moments(blocks, obs: ObservableSpectrum, k_max: int) -> list:
    """Tr(X O^k) = sum_i o_i^k <o_i|X|o_i>, k = 1..k_max, of a block list X."""
    diag = _eigen_diagonal(blocks, obs)
    return [float(np.dot(obs.eigenvalues ** k, diag)) for k in range(1, k_max + 1)]


def outcome_distribution(rho: DensityOperator, obs: ObservableSpectrum) -> OutcomeDistribution:
    """Projective outcome distribution p_i = <o_i| rho |o_i>, with the
    outcomes in the order of ``obs.eigenvalues``."""
    probs = _eigen_diagonal(rho.blocks, obs)
    if probs.min() < -1e-10:
        raise ValueError(f"negative outcome probability {probs.min():.3e}")
    return OutcomeDistribution(obs.eigenvalues.copy(), probs, rho.trace_deficit)


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


def mgf_empirical(dist: OutcomeDistribution, t_grid) -> np.ndarray:
    """Centered moment generating function sum_i p_i e^{t (o_i - mean)}.

    Finite spectra make this computable for any t; :func:`mgf_radius`
    gives the interval where the untruncated MGF is guaranteed finite.
    """
    ts = np.asarray(t_grid, dtype=float)
    centered = dist.values - dist.mean()
    return np.exp(np.outer(ts, centered)) @ dist.probabilities
