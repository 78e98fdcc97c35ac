"""Built-in verification suite behind ``qillum validate``.

The fast suite covers the closed-form identities, bound saturation, and
the estimator and moment identities (criteria 1-7); the full suite is the
fast suite plus the estimator identities in the bright bath N_B = 50 and
the Monte Carlo exponent and threshold checks (criteria 8-9).  Every
check runs at one strength in both suites.  Each reports a measured
quantity against its expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import (eta_derivative, mgf_empirical, mgf_radius,
                        moment_bound_check, outcome_distribution, received_state,
                        sld_observable, trace_moments, unbiasedness_check)
from .qfi import (BATH_TAIL, converge_cutoff, default_cutoff, qfi_bounds, qfi_cat_direct,
                  qfi_gaussian_closed, qfi_schmidt, thermal_cutoff)
from .sim import Z_95, ProtocolConfig, gaussian_rate_fit, simulate
from .states import (cat_state, cat_state_infinite_d, coherent,
                     max_entangled_fock, state_from_family, tmsv)

NS_GRID = (0.01, 0.1, 0.5, 1.0, 2.0)
NB_GRID = (0.1, 1.0, 10.0, 50.0, 100.0)
# returned-mode cutoff of the estimator checks: at N_B = 1 its thermal tail
# is 2^-40, below every identity tolerance
DIM_BATH = 40


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str
    expected: str


def _tmsv_tail(n_signal: float, rank: int) -> float:
    """Relative information lost by truncating the geometric Schmidt series."""
    if n_signal == 0:
        return 0.0
    q = n_signal / (1.0 + n_signal)
    tail = q ** rank * (rank * (1 - q) + q) / (1 - q) ** 2 / (1.0 + n_signal)
    return tail / n_signal


def check_closed_form_oracle() -> CheckResult:
    worst = 0.0
    for ns in NS_GRID:
        state = tmsv(ns, 60)
        for nb in NB_GRID:
            h = qfi_schmidt(state, nb).h
            ref = qfi_gaussian_closed(ns, nb)
            worst = max(worst, abs(h - ref) / ref)
    return CheckResult("closed_form_oracle_ns_le_2", worst < 1e-8,
                       f"max rel err {worst:.3e}", "< 1e-8")


def check_truncation_floor() -> CheckResult:
    # At n_signal = 5 the rank-60 truncation floors the deviation; the
    # measured error must match the audited geometric tail, not zero.
    ns = 5.0
    state = tmsv(ns, 60)
    predicted = _tmsv_tail(ns, 60)
    worst = 0.0
    for nb in NB_GRID:
        h = qfi_schmidt(state, nb).h
        ref = qfi_gaussian_closed(ns, nb)
        rel = (ref - h) / ref
        worst = max(worst, abs(rel - predicted) / predicted)
    return CheckResult("truncation_floor_ns_5", worst < 1e-6,
                       f"tail mismatch {worst:.3e} (tail {predicted:.3e})",
                       "measured deviation equals the analytic tail to 1e-6")


def check_maxfock_degeneracy() -> CheckResult:
    worst = 0.0
    for d in range(1, 21):
        state = max_entangled_fock(d)
        ns = (d - 1) / 2.0
        for nb in NB_GRID:
            h = qfi_schmidt(state, nb).h
            worst = max(worst, abs(h - 4.0 * ns / (1.0 + 2.0 * nb)))
    return CheckResult("maxfock_equals_classical", worst < 1e-10,
                       f"max abs err {worst:.3e}", "< 1e-10")


def check_gain_cap() -> CheckResult:
    states = [max_entangled_fock(d) for d in (2, 5, 11, 20)]
    for ns in NS_GRID + (5.0,):
        states += [tmsv(ns, 60), coherent(ns, 0.0, 60), cat_state(ns, 2, 50),
                   cat_state_infinite_d(ns, 60), cat_state_infinite_d(ns, 70)]
    reports = [qfi_schmidt(state, nb) for nb in NB_GRID for state in states]
    worst = max(rep.h / rep.h_c for rep in reports if rep.h_c > 0)
    edge = qfi_schmidt(tmsv(1e-4, 12), 50.0)
    edge_gain = edge.h / edge.h_c
    ok = worst <= 2.0 + 1e-9 and abs(edge_gain - 101.0 / 51.0) < 1e-3
    return CheckResult("gain_cap_and_left_edge", ok,
                       f"max gain {worst:.9f}, edge {edge_gain:.6f}",
                       "<= 2 + 1e-9 and edge 101/51 +- 1e-3")


def check_cat_limits() -> CheckResult:
    nb = 50.0
    target = 4.0e-3 / 51.0
    ok = True
    notes = []
    for d in (2, 3, 4):
        val, _ = converge_cutoff(
            lambda dim, d=d: qfi_cat_direct(1e-3, d, nb, dim),
            rel_tol=1e-7, start=64)
        rel = abs(val - target) / target
        ok &= rel < 0.01
        notes.append(f"d={d}:{rel:.2e}")
    for ns in (0.5, 1.0):
        direct, _ = converge_cutoff(
            lambda dim, ns=ns: qfi_cat_direct(ns, 2, nb, dim),
            rel_tol=1e-9, start=256)
        schmidt = qfi_schmidt(cat_state(ns, 2, 40), nb).h
        ok &= abs(direct - schmidt) < 1e-6
        notes.append(f"eq@{ns}:{abs(direct - schmidt):.2e}")
    vals = [qfi_cat_direct(1.0, 2, nb, dim) for dim in (32, 64, 128, 256, 512, 1024)]
    mono = all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    ok &= mono
    return CheckResult("cat_limits", bool(ok), "; ".join(notes),
                       "low-photon limit 1%, route equality 1e-6, monotone cutoff")


def check_gain_ordering() -> CheckResult:
    nb = 50.0
    ok = True
    notes = []
    for ns in (0.1, 0.5, 1.0, 2.0, 5.0):
        g_cat2 = qfi_schmidt(cat_state(ns, 2, 50), nb).gain
        g_catinf = qfi_schmidt(cat_state_infinite_d(ns, 70), nb).gain
        g_tmsv = qfi_gaussian_closed(ns, nb) / qfi_bounds(ns, nb)[2]
        ordered = (g_cat2 <= g_catinf + 1e-9 and g_catinf <= g_tmsv + 1e-9
                   and g_tmsv <= 2.0 + 1e-9)
        ok &= ordered
        notes.append(f"ns={ns}: {g_cat2:.4f}<={g_catinf:.4f}<={g_tmsv:.4f}")
    return CheckResult("gain_ordering_nb50", bool(ok), "; ".join(notes),
                       "cat:2 <= cat:inf <= tmsv <= 2")


def check_sld_identities() -> CheckResult:
    nb = 1.0
    states = [tmsv(0.3, 30), coherent(0.3, 0.0, 30), cat_state(0.3, 2, 30)]
    ok = True
    notes = []
    for state in states:
        rep = qfi_schmidt(state, nb)
        obs = sld_observable(state, nb, DIM_BATH)
        rho0 = received_state(state, nb, 0.0, DIM_BATH)
        t0 = abs(rep.h * trace_moments(rho0.blocks, obs, 1)[0])
        t1 = abs(rep.h * trace_moments(eta_derivative(state, nb, DIM_BATH), obs, 1)[0]
                 - rep.h)
        var = outcome_distribution(rho0, obs).variance()
        fit = unbiasedness_check(state, nb, DIM_BATH)
        fam = state.meta["family"]
        checks = (t0 < 1e-9, t1 < 1e-8, abs(var - 1.0 / rep.h) < 1e-6,
                  abs(fit["slope"] - 1.0) < 1e-3, abs(fit["intercept"]) < 1e-9)
        ok &= all(checks)
        notes.append(f"{fam}: Tr(rL)={t0:.1e}, Tr(Ld)={t1:.1e}, "
                     f"var-1/H={abs(var - 1.0 / rep.h):.1e}, slope={fit['slope']:.5f}, "
                     f"intercept={fit['intercept']:.1e}")
    return CheckResult("sld_identities", bool(ok), "; ".join(notes),
                       "Tr(r0 L)=0@1e-9, Tr(L dr)=H@1e-8, var=1/H@1e-6, slope=1@1e-3, "
                       "intercept=0@1e-9")


def check_bright_bath_identities() -> CheckResult:
    """The estimator at N_B = 50 (N_S = 0.5, automatic cutoffs, d_b = 933),
    where no dense oracle fits: Tr(rho_0 O) = 0, unit slope and
    Var_0 H = 1.  Slope and variance may miss by the thermal tail cut at
    d_b, whose n-weighted mass relative to N_B is delta (d_b + N_B) / N_B
    for the geometric law, delta the received state's deficit, and each is
    held to twice that."""
    nb = 50.0
    d_b = thermal_cutoff(nb, BATH_TAIL)
    ok = True
    notes = []
    for family in ("tmsv", "coherent", "cat:2"):
        state = state_from_family(family, 0.5, default_cutoff(family, 0.5))
        obs = sld_observable(state, nb, d_b)
        rho0 = received_state(state, nb, 0.0, d_b)
        tol = 2.0 * rho0.trace_deficit * (d_b + nb) / nb
        devs = (abs(trace_moments(rho0.blocks, obs, 1)[0]),
                abs(unbiasedness_check(state, nb, d_b)["slope"] - 1.0),
                abs(outcome_distribution(rho0, obs).variance() * qfi_schmidt(state, nb).h - 1.0))
        ok &= all(dev <= tol for dev in devs)
        notes.append(f"{family}: Tr(r0 O)={devs[0]:.1e}, slope-1={devs[1]:.1e}, "
                     f"var H-1={devs[2]:.1e}, tol {tol:.1e}")
    return CheckResult("bright_bath_identities", bool(ok), "; ".join(notes),
                       "Tr(r0 O)=0, slope=1 and var H=1 to 2 delta (d_b + N_B) / N_B")


def check_moment_machinery() -> CheckResult:
    state = tmsv(0.3, 30)
    nb = 1.0
    report = moment_bound_check(state, nb, 2, DIM_BATH)
    odd_ok = all(abs(v) < 1e-10 for v in report.odd_moments)
    c_ok = abs(report.c_fitted - 1.3) < 1e-6
    bounds_ok = report.all_passed()
    obs = sld_observable(state, nb, DIM_BATH)
    rho0 = received_state(state, nb, 0.0, DIM_BATH)
    dist = outcome_distribution(rho0, obs)
    t = 0.1 * mgf_radius(report.h, nb, report.c_fitted)
    ratio = float(np.log(mgf_empirical(dist, [t])[0]) / (t * t / (2.0 * report.h)))
    mgf_ok = abs(ratio - 1.0) < 0.02
    ok = odd_ok and c_ok and bounds_ok and mgf_ok
    return CheckResult("moment_mgf_machinery", bool(ok),
                       f"odd {max(abs(v) for v in report.odd_moments):.1e}, "
                       f"C {report.c_fitted:.8f}, mgf ratio {ratio:.4f}",
                       "odd=0@1e-10, C=1.3@1e-6, bounds hold, mgf ratio 1+-0.02")


def check_mc_exponents() -> CheckResult:
    ms = (200, 500, 1000, 2000)
    rates = {}
    enough = True
    for family in ("coherent", "tmsv"):
        cfg = ProtocolConfig(family=family, n_signal=0.5, n_bath=1.0, eta=0.1,
                             xi=0.5, trials=100_000, seed=7, m=ms)
        ps, errs = [], []
        for rep in simulate(cfg):
            enough &= rep.trials >= 100_000
            ps.append(rep.p_type1)
            errs.append(0.5 * (rep.p_type1_ci[1] - rep.p_type1_ci[0]) / Z_95)
        rates[family] = gaussian_rate_fit(ms, ps, errs)
    h_c = qfi_bounds(0.5, 1.0)[2]
    predicted = 0.1 ** 2 * h_c / 8.0
    rel = abs(rates["coherent"][0] - predicted) / predicted
    ratio = rates["tmsv"][0] / rates["coherent"][0]
    ratio_err = ratio * math.sqrt((rates["tmsv"][1] / rates["tmsv"][0]) ** 2
                                  + (rates["coherent"][1] / rates["coherent"][0]) ** 2)
    ok = enough and rel < 0.15 and abs(ratio - 9.0 / 7.0) / (9.0 / 7.0) < 0.20 and \
        ratio - Z_95 * ratio_err > 1.0
    return CheckResult("mc_exponents", bool(ok),
                       f"coherent rate off by {rel:.3f}, ratio {ratio:.4f}+-{ratio_err:.4f}",
                       ">= 100000 trials per point, rate within 15%, "
                       "ratio within 20% of 9/7 and > 1 at 95%")


def check_xi_optimality() -> CheckResult:
    cfg = ProtocolConfig(family="coherent", n_signal=0.5, n_bath=1.0, eta=0.1,
                         xi=[round(0.1 * k, 1) for k in range(1, 10)], trials=100_000,
                         seed=11, m=1000)
    reports = simulate(cfg)
    floors = {}
    for rep in reports:
        lo = min(rep.rate_type1 - rep.rate_type1_err,
                 rep.rate_type2 - rep.rate_type2_err)
        floors[rep.xi] = (min(rep.rate_type1, rep.rate_type2), lo)
    best = max(floors, key=lambda s: floors[s][0])
    # CI-aware: the 0.5 floor must not sit below any competitor's lower bound
    ok = best == 0.5 and all(floors[0.5][0] >= floors[xi][1] for xi in floors)
    return CheckResult("xi_optimality", bool(ok),
                       f"argmax {best}, floor {floors[0.5][0]:.3e}",
                       "min(rate_I, rate_II) maximized at xi = 0.5")


def run_suite(suite: str) -> list:
    if suite not in ("fast", "full"):
        raise ValueError("suite must be 'fast' or 'full'")
    checks = [check_closed_form_oracle, check_truncation_floor, check_maxfock_degeneracy,
              check_gain_cap, check_cat_limits, check_gain_ordering,
              check_sld_identities, check_moment_machinery]
    if suite == "full":
        checks += [check_bright_bath_identities, check_mc_exponents, check_xi_optimality]
    return [check() for check in checks]
