"""Optimal local estimator of the reflectivity and its outcome statistics.

The locally optimal observable is the symmetric logarithmic derivative of
the received state at zero reflectivity, divided by the Fisher
information.  It lives on a concrete (idler x returned-mode) space where
the idler dimension equals the Schmidt rank.  The normalization is fixed
so that the expectation of the observable grows with unit slope in the
reflectivity, which makes the detection threshold scale well defined.

Received states pass the transmitter's signal through the thermal-loss
channel of the returned mode, a pure loss followed by a quantum-limited
amplifier, whose Kraus operators are real and closed form: no
(signal x bath) space is built, and the only truncation is the
amplifier's tail at the returned-mode cutoff.

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
Every block is real when the transmitter's amplitudes are (every built-in
family, coherent at phase 0), and complex otherwise, and the SLD spectrum
and the outcome diagonal keep that dtype.
The SLD is the only observable built here: the quadrature and ab + a'b'
forms it reduces to for coherent and tmsv transmitters are test oracles.
The SLD, the reflectivity derivative and the received state are bands
of entries that :func:`_hermitian_blocks` scatters into the sectors, the
first two from the transmitter's lowering pairs, so no dense operator is
built.  Every trace
against the observable (outcome probabilities, moments Tr(X O^k)) is read
from one diagonal <o_i|X|o_i> in its eigenbasis.  Outcomes are listed in
block order, each block's eigenvalues ascending; no consumer relies on a
global order (sampling sorts the values itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock import (DensityOperator, TruncationError, eig_hermitian, group_indices,
                   thermal_weights)
# unused here: the benchmark's span recorder (perfbench/spans.py) wraps this
# name, and tests/test_perfbench_spans.py requires it; both go together
from .fock import beamsplitter_unitary  # noqa: F401
from .qfi import qfi_schmidt
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
    rows, cols, m = state.lowering_pairs()
    sp = np.sqrt(state.probs)
    return _ladder_blocks(state, dim_bath, (rows, cols, sp[rows] * sp[cols] * np.conj(m)),
                          np.append(np.diff(thermal_weights(n_bath, dim_bath)), 0.0))


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
    rows, cols, m = state.lowering_pairs()   # m = <w_rows|s|w_cols>
    c = np.sqrt(p[rows] * p[cols]) * m / (p[rows] + p[cols] * q)
    # scaled after assembly, so the zeros between the entries are -0.0 as well
    scale = -2.0 / (rep.h * (1.0 + n_bath))
    blocks = [(sector, x * scale) for sector, x in
              _ladder_blocks(state, dim_bath, (rows, cols, np.conj(c)), np.ones(dim_bath))]
    return ObservableSpectrum(eig_hermitian(blocks), blocks)


def _sectors(state: SchmidtState, dim_bath: int) -> list:
    """Rows of each sector q, read from where the Schmidt vectors are
    nonzero.  With r_a the lowest level of vector a and g the gcd of the
    level gaps inside the vectors, every level of w_a is r_a (mod g).  Row
    a * dim_bath + n of the (rank x returned mode) space has q = r_a - n
    (mod g), and g = 0 means no modulus: a level state (vector a is the
    Fock level L_a) has one sector per q = L_a - n, in ascending q,
    coherent (g = 1) one sector and cat:<d> (g = d) d sectors.

    The channel moves both Fock indices of an entry alike, so rho couples
    (a, n) to (a', n') only where n - n' = i - i' for levels i of w_a and
    i' of w_a', which makes r_a - n = r_a' - n' (mod g); the SLD couples
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
    return list(group_indices(np.subtract.outer(low, n) % period).values())


def _ladder_blocks(state: SchmidtState, dim_bath: int, pairs: tuple,
                   weight: np.ndarray) -> list:
    """x + x' on the sectors of :func:`_sectors`, x[(a, n), (a', n + 1)] =
    pair[k] (weight[n] sqrt(n + 1)) at (a, a') = (rows[k], cols[k]) of
    ``pairs`` = (rows, cols, pair): the one place <n|b|n + 1> is built.  x'
    is the band delta = 1 of (a', a) with conjugated values, which leaves
    weight[dim_bath - 1] unread."""
    rows, cols, pair = pairs
    ladder = weight * np.sqrt(np.arange(1, dim_bath + 1))
    return _hermitian_blocks(_sectors(state, dim_bath), dim_bath, np.ones_like(rows),
                             cols, rows, np.conj(pair[:, None] * ladder))


def _log_factorial(n: np.ndarray) -> np.ndarray:
    # log space: the factorials in the Kraus coefficients overflow at large cutoffs
    return np.array([math.lgamma(k + 1) for k in np.asarray(n).tolist()], dtype=float)


def _xlog(x, y: float):
    """x log(y) for x >= 0, with 0 log 0 = 0."""
    return x * math.log(y) if y > 0 else np.where(x > 0, -np.inf, 0.0)


def _channel_kernel(n_bath: float, eta: float, d_s: int, dim_bath: int) -> np.ndarray:
    """T[delta, n', i'] with rho[n' + delta, n'] = sum_i' T[delta, n', i']
    X[i' + delta, i'] for the channel of :func:`received_state`, on
    delta < min(d_s, dim_bath), n' + delta < dim_bath and i' + delta < d_s,
    and zero elsewhere.

    T = M K, the amplifier after the loss, and both keep delta.  The loss
    takes (i' + delta, i') to (m' + delta, m'), losing k = i' - m' photons,
    with K[m', i'] = A_k[m' + delta, i' + delta] A_k[m', i'], and the
    amplifier takes (m' + delta, m') to (n' + delta, n'), adding j = n' - m',
    with M[n', m'] = B_j[n' + delta, m' + delta] B_j[n', m'].  Every entry
    of K has the sign s^delta, so T sums terms of one sign.
    """
    gain = 1.0 + (1.0 - eta * eta) * n_bath
    keep, added = eta * eta / gain, (1.0 - eta * eta) * n_bath / gain   # tau', 1 - 1/g
    width = min(d_s, dim_bath)
    log_fact = _log_factorial(np.arange(d_s + dim_bath))
    delta, m = np.arange(width)[:, None], np.arange(width)

    def half(x):   # [delta, x]: log sqrt(x! (x + delta)!)
        return 0.5 * (log_fact[x] + log_fact[x + delta])

    def shifts(top, rate, log_weight):
        """[delta, x, m']: sqrt(x! (x + delta)! / (m'! (m' + delta)!)) rate^s / s!
        e^log_weight[delta, m'] at s = x - m' >= 0 and x + delta < top, else 0."""
        x = np.arange(top)
        s = x[:, None] - m
        step = np.maximum(s, 0)
        log = (np.where(x + delta < top, half(x), -np.inf)[:, :, None]
               + (log_weight - half(m))[:, None, :]
               + np.where(s >= 0, _xlog(step, rate) - log_fact[step], -np.inf))
        return np.exp(log)

    loss = shifts(d_s, 1.0 - keep, _xlog(m + 0.5 * delta, keep))       # K^T: [delta, i', m']
    loss *= (-1.0 if eta >= 0 else 1.0) ** delta[:, :, None]
    amplifier = shifts(dim_bath, added, -(m + 1.0 + 0.5 * delta) * math.log(gain))
    return amplifier @ loss.transpose(0, 2, 1)


def _hermitian_blocks(sectors: list, dim_bath: int, delta: np.ndarray, a: np.ndarray,
                      a2: np.ndarray, band: np.ndarray) -> list:
    """Block list on ``sectors`` with band[p, n] at the joint entry (x, y) =
    ((a[p], n + delta[p]), (a2[p], n)) for each n + delta[p] < dim_bath, and
    its conjugate at (y, x), zero elsewhere; each (x, y) lies in one sector.
    The blocks are views of one flat buffer, in which entry (x, y) sits at
    rowbase[x] + local[y].  Every sector block is written here."""
    n = np.arange(dim_bath)
    inside = n < dim_bath - delta[:, None]
    x = ((a * dim_bath + delta)[:, None] + n)[inside]
    y = ((a2 * dim_bath)[:, None] + n)[inside]
    values = band[inside]
    size = np.array([len(rows) for rows in sectors])
    start = np.cumsum(size ** 2) - size ** 2
    joint = np.concatenate(sectors)
    local, rowbase = np.empty_like(joint), np.empty_like(joint)
    local[joint] = np.arange(len(joint)) - np.repeat(np.cumsum(size) - size, size)
    rowbase[joint] = np.repeat(start, size) + local[joint] * np.repeat(size, size)
    buf = np.zeros(int(np.sum(size ** 2)), dtype=values.dtype)
    buf[rowbase[x] + local[y]] = values
    buf[rowbase[y] + local[x]] = values.conj()
    return [(rows, buf[s:s + w * w].reshape(w, w)) for rows, s, w in zip(sectors, start, size)]


def received_state(state: SchmidtState, n_bath: float, eta: float, dim_bath: int,
                   deficit_tol: float | None = None) -> DensityOperator:
    """Received (idler x returned mode) state after reflection ``eta``.

    The returned mode sees the thermal-loss channel of transmissivity
    eta^2 and bath N_B: a pure loss tau' followed by a quantum-limited
    amplifier of gain g = 1 + (1 - eta^2) N_B, with tau' = eta^2 / g
    (Caruso, Giovannetti & Holevo, NJP 8, 310 (2006)).  Both have real,
    closed-form Kraus operators (Ivan, Sabapathy & Simon, PRA 84, 042311
    (2011)),

        A_k|i> = s^(i-k) sqrt(C(i, k) tau'^(i-k) (1 - tau')^k) |i - k>,
        B_j|m> = sqrt(C(m + j, j) g^-(m+1) (1 - 1/g)^j) |m + j>,

    with s = -sign(eta), the sign of the beamsplitter exp[asin(eta) (s'b
    - sb')] that the channel dilates.  Idler pair (a, a') carries X =
    u_a u_a'^+, u_a = sqrt(p_a) w_a, and both steps shift both Fock
    indices alike, so rho_aa' keeps only the band offsets delta = n - n'
    that are offsets i - i' of levels in the support of w_a and w_a' (a
    level state has one per pair).  Each offset is one product of the
    kernel of :func:`_channel_kernel` with the columns X[i' + delta, i'] of
    its pairs, and the entries land in the sectors of :func:`_sectors`;
    delta < 0 is the conjugate transpose.  The loss is exact on the
    transmitter's levels, so the only truncation is the amplifier's tail
    at ``dim_bath``, and the trace deficit is exactly the mass lost there
    and by the transmitter.  The blocks are real when the amplitudes are.
    """
    if abs(eta) > 1.0:
        raise ValueError(f"amplitude reflectivity must satisfy |eta| <= 1, got {eta}")
    d_s, r = state.d_signal, state.rank
    width = min(d_s, dim_bath)
    u = state.vectors * np.sqrt(state.probs)[None, :]

    # (delta, a, a') of every offset and ordered pair, delta >= 0 and a >= a'
    # at delta = 0, in ascending delta; slot numbers the pairs of one delta
    levels, terms = state.support()
    delta = np.subtract.outer(levels, levels)
    a, a2 = np.broadcast_arrays(terms[:, None], terms[None, :])
    kept = (delta < width) & ((delta > 0) | ((delta == 0) & (a >= a2)))
    key = np.sort((delta[kept] * r + a[kept]) * r + a2[kept])
    # np.unique would import numpy.ma, 30 ms in a fresh process
    delta, pair = np.divmod(key[np.append(True, np.diff(key) != 0)], r * r)
    a, a2 = np.divmod(pair, r)
    first = np.flatnonzero(np.append(True, np.diff(delta) != 0))
    count = np.diff(np.append(first, len(delta)))
    slot = np.arange(len(delta)) - np.repeat(first, count)

    # cols[delta, i', slot] = X[i' + delta, i'] of that slot's pair, zero past d_s
    shifted = np.vstack([u, np.zeros((width, r), dtype=u.dtype)])
    cols = np.zeros((width, d_s, count.max()), dtype=u.dtype)
    cols[delta, :, slot] = (shifted[np.arange(d_s) + delta[:, None], a[:, None]]
                            * u[:, a2].T.conj())
    band = (_channel_kernel(n_bath, eta, d_s, dim_bath) @ cols)[delta, :, slot]

    # band[p, n'] is rho[(a, n' + delta), (a', n')] of pair p, for n' + delta < dim_bath
    blocks = _hermitian_blocks(_sectors(state, dim_bath), dim_bath, delta, a, a2, band)
    deficit = max(0.0, 1.0 - math.fsum(band[(delta == 0) & (a == a2)].real.ravel().tolist()))
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
        up = np.zeros((cur.shape[0] + 1, state.rank), dtype=cur.dtype)
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
