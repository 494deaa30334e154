"""Acceptance suite: one test per criterion, timed against its budget.

Each test records a one-line verdict through conftest.record, so the
pytest terminal summary ends with the full criterion scoreboard.
"""

import math
import time

import numpy as np
import pytest

from conftest import record
from qtl import (
    CaseTag,
    LagrangianProblem,
    SimConfig,
    classify_case,
    classify_regime,
    constant_policy,
    discrete_function,
    evaluate,
    exact_metrics,
    lower_convex_envelope,
    pi_at,
    policy_from_pieces,
    power_function,
    qlength_upper_bound,
    recurrent_window,
    simulate,
    stationary,
    sweep,
    trace_tradeoff,
)
from qtl.policy_families import (
    lambda_mu_policy,
    mc1_policy,
    mc21_policy,
    mc22_policy,
    mc23_policy,
)
from qtl.scaling import audit_lower_bound
import oracles

S = [0, 0.2, 0.4, 0.5, 0.6, 0.8, 1]
CDISC = discrete_function([(s, s * s) for s in S])
ENV = lower_convex_envelope(CDISC)
CSQ = power_function(2.0)
USQRT = power_function(0.5, role="utility")
IDENT = power_function(1.0, role="utility")

ENV_AT = {0.39: 0.154, 0.40: 0.160, 0.41: 0.169}

# frozen trace configuration: 40 log-spaced multipliers. The upper end
# stays below the point where the truncated chain starts parking at the
# state cap (roughly cap/0.129), which would push the achieved cost
# under the envelope floor.
BETA1_GRID = [float(b) for b in np.logspace(1.0, math.log10(1.2e4), 40)]
STATE_CAP = 2000

DYADIC = [2.0 ** -k for k in range(4, 15)]


@pytest.fixture(scope="module")
def traces():
    out = {}
    t0 = time.monotonic()
    for lam in (0.39, 0.40, 0.41):
        base = LagrangianProblem(0.0, 0.0, S, [lam], CDISC, None,
                                 state_cap=STATE_CAP)
        points, failures = trace_tradeoff(base, BETA1_GRID, [0.0])
        out[lam] = (points, failures)
    out["elapsed"] = time.monotonic() - t0
    return out


def _family_entry(build, cost, util, c_ref, tag, grid=DYADIC):
    samples, failures = sweep(build, grid, cost, c_ref, util)
    return {"samples": samples, "failures": failures,
            "policies": [build(u) for u in grid],
            "cost": cost, "util": util, "c_ref": c_ref, "tag": tag}


@pytest.fixture(scope="module")
def families():
    t0 = time.monotonic()
    out = {
        "mc22": _family_entry(
            lambda u: mc22_policy(0.39, 0.2, 0.4, u),
            ENV, USQRT, 0.154, classify_case(ENV, 0.39)),
        "mc23": _family_entry(
            lambda u: mc23_policy(0.40, 0.1, u, next_corner=0.5),
            ENV, USQRT, 0.160, classify_case(ENV, 0.40)),
        "mc1": _family_entry(
            lambda u: mc1_policy(0.5, u, K=0.5),
            CSQ, USQRT, 0.25, classify_case(CSQ, 0.5)),
        "mc21": _family_entry(
            lambda u: mc21_policy(0.1, 0.2, 1.0, U=u),
            ENV, USQRT, 0.02, classify_case(ENV, 0.1)),
        "lmu": _family_entry(
            lambda u: lambda_mu_policy(0.4, u, eps=0.05, K=10),
            CSQ, IDENT, 0.16, CaseTag("LMU", None, "log", 0.4)),
    }
    out["elapsed"] = time.monotonic() - t0
    return out


def test_criterion_1_envelope_exactness():
    t0 = time.monotonic()
    errs = {lam: abs(evaluate(ENV, lam) - ref) for lam, ref in ENV_AT.items()}
    elapsed = time.monotonic() - t0
    ok = max(errs.values()) < 1e-9 and elapsed < 1.0
    record(1, "envelope exactness at 0.39/0.40/0.41", ok,
           "max err %.2e, %.3fs" % (max(errs.values()), elapsed))
    assert ok


def test_criterion_2_tradeoff_curve_regimes(traces):
    detail = []
    ok = traces["elapsed"] < 600.0
    for lam in (0.39, 0.40, 0.41):
        points, failures = traces[lam]
        ok = ok and not failures and len(points) == len(BETA1_GRID)
        pts = sorted(points, key=lambda p: p.c_c)
        for a, b in zip(pts, pts[1:]):
            ok = ok and b.q_star <= a.q_star + 1e-9
        min_v = pts[0].c_c - ENV_AT[lam]
        ok = ok and 0 < min_v <= 0.02
        third = pts[:len(pts) // 3]
        v = [p.c_c - ENV_AT[lam] for p in third]
        q = [p.q_star for p in third]
        if lam == 0.40:
            r2 = oracles.r_squared([1.0 / x for x in v], q)
            shape = "1/V"
        else:
            r2 = oracles.r_squared([math.log(1.0 / x) for x in v], q)
            shape = "log(1/V)"
        ok = ok and r2 > 0.98
        detail.append("lam=%.2f min V %.2e, R2[%s]=%.5f" % (lam, min_v, shape, r2))
    detail.append("%.1fs" % traces["elapsed"])
    record(2, "tradeoff curves match the regime shapes", ok, "; ".join(detail))
    assert ok


def test_criterion_3_closed_form_oracle():
    t0 = time.monotonic()
    m = exact_metrics(constant_policy(0.4, 1.0), CSQ)
    ref = oracles.mm1_stats(0.4, 1.0, lambda r: r * r, None)
    errs = (abs(m.qbar - float(ref["qbar"])),
            abs(m.dbar - float(ref["dbar"])),
            abs(m.cbar - float(ref["cbar"])))
    elapsed = time.monotonic() - t0
    ok = max(errs) < 1e-10 and elapsed < 1.0
    record(3, "M/M/1 closed forms to 1e-10", ok,
           "Qbar/Dbar/Cbar err %.1e/%.1e/%.1e" % errs)
    assert ok


def _random_admissible(rng, transient, finite):
    h = int(rng.integers(2, 30))
    mu_levels = np.sort(rng.uniform(0.1, 1.0, size=3))
    lam_levels = np.sort(rng.uniform(0.05, 0.95, size=2))[::-1]
    cut1, cut2 = sorted(rng.integers(1, h + 1, size=2))
    mu = [0.0]
    for q in range(1, h + 1):
        mu.append(mu_levels[0] if q <= cut1 else mu_levels[1])
    lam = [lam_levels[0] if q <= cut2 else lam_levels[1] for q in range(h + 1)]
    mu_tail = float(mu_levels[2])
    lam_tail = float(min(lam_levels[1], mu_tail * 0.8))
    lam = [max(x, lam_tail) for x in lam]
    if transient:
        for q in range(1, min(int(rng.integers(1, 4)) + 1, h)):
            mu[q] = 0.0
    if finite:
        stop = int(rng.integers(max(2, h - 3), h + 1))
        lam = [x if q < stop else 0.0 for q, x in enumerate(lam)]
        lam_tail = 0.0
    return policy_from_pieces(oracles.pieces_of(lam, lam_tail)["pieces"], lam_tail,
                              oracles.pieces_of(mu, mu_tail)["pieces"], mu_tail)


def test_criterion_4_stationary_oracle_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(7000 + seed)
        p = _random_admissible(rng, seed % 3 == 0, seed % 4 == 0)
        sr = stationary(p)
        n = 450 if math.isinf(recurrent_window(p)[1]) else p.horizon + 1
        dense = oracles.dense_stationary(p.arrival, p.service, n)
        for q in range(min(n, 200)):
            worst = max(worst, abs(pi_at(sr, q) - dense[q]))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 60.0
    record(4, "recursion vs dense solve on 50 random policies", ok,
           "worst disagreement %.2e, %.1fs" % (worst, elapsed))
    assert ok


def test_criterion_5_scaling_verdicts(families):
    detail = []
    ok = families["elapsed"] < 300.0
    for name in ("mc22", "mc23", "mc1", "mc21", "lmu"):
        ok = ok and not families[name]["failures"]

    fit = classify_regime(families["mc22"]["samples"], families["mc22"]["tag"])
    ok = ok and fit.model == "log-inv" and fit.verdict == "matches"
    detail.append("mc22 %s" % fit.model)

    s23 = families["mc23"]["samples"]
    fit = classify_regime(s23, families["mc23"]["tag"])
    qv = [s.qbar * s.V for s in s23[len(s23) // 2:]]
    ratio = max(qv) / min(qv)
    ok = ok and fit.model == "inv" and fit.verdict == "matches" and ratio <= 10.0
    detail.append("mc23 %s, QV ratio %.3f" % (fit.model, ratio))

    s1 = families["mc1"]["samples"]
    upper = [s.qbar * math.sqrt(s.V) / math.log(1.0 / s.V) for s in s1]
    lower = [s.qbar * math.sqrt(s.V) for s in s1]
    ok = ok and max(upper) <= 1.0 and min(lower) >= 0.5
    detail.append("mc1 Q sqrt(V)/log in [%.3f, %.3f]" % (min(upper), max(upper)))

    s21 = families["mc21"]["samples"]
    gaps = [1.0 - s.qbar for s in s21]
    ok = ok and all(g > 0 for g in gaps)
    ok = ok and all(b < a for a, b in zip(gaps, gaps[1:]))
    ratios = [g / (s.V * math.log(1.0 / s.V)) for g, s in zip(gaps, s21)]
    ok = ok and max(ratios) <= 20.0
    detail.append("mc21 gap ratio <= %.2f" % max(ratios))

    slmu = families["lmu"]["samples"]
    growth = [s.qbar / math.log(1.0 / s.V) for s in slmu]
    ok = ok and max(growth) <= 10.0
    ok = ok and all(s.ubar >= 0.4 for s in slmu)
    detail.append("lmu Q/log <= %.2f, min Ubar %.8f" % (
        max(growth), min(s.ubar for s in slmu)))

    detail.append("%.1fs" % families["elapsed"])
    record(5, "family scaling orders over dyadic U", ok, "; ".join(detail))
    assert ok


def test_criterion_6_lower_bound_audits(traces, families):
    t0 = time.monotonic()
    jobs = []
    for lam in (0.39, 0.40, 0.41):
        tag = classify_case(ENV, lam)
        for pt in traces[lam][0]:
            jobs.append((pt.policy, tag, ENV, USQRT, ENV_AT[lam]))
    for name in ("mc22", "mc23", "mc1", "mc21", "lmu"):
        f = families[name]
        for p in f["policies"]:
            jobs.append((p, f["tag"], f["cost"], f["util"], f["c_ref"]))

    audited = 0
    worst = math.inf
    ok = True
    for p, tag, c, u, c_ref in jobs:
        for check in audit_lower_bound(p, tag, c, u, c_ref):
            if not check.applicable:
                continue
            audited += 1
            worst = min(worst, check.margin)
            ok = ok and check.passed and check.margin > 0
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0 and len(jobs) == 175
    record(6, "lower-bound inequalities on every produced policy", ok,
           "%d policies, %d checks, worst margin %+.2e, %.1fs" % (
               len(jobs), audited, worst, elapsed))
    assert ok


def test_criterion_7_drift_bound_dominates(families):
    worst = math.inf
    ok = True
    count = 0
    for name in ("mc22", "mc23", "mc1", "mc21", "lmu"):
        f = families[name]
        for p in f["policies"]:
            count += 1
            slack = qlength_upper_bound(p) - exact_metrics(p, f["cost"]).qbar
            worst = min(worst, slack)
            ok = ok and slack >= 0
    record(7, "drift upper bound dominates exact Qbar", ok,
           "%d policies, smallest slack %+.3f" % (count, worst))
    assert ok


def _sim_pairs():
    pairs = []
    for lam, mu in ((0.4, 1.0), (0.25, 1.0), (0.5, 0.8), (0.3, 0.9)):
        pairs.append((constant_policy(lam, mu), CSQ, IDENT))
    pairs.append((policy_from_pieces([], 0.4, [[1, 2, 0.5]], 1.0), CSQ, USQRT))
    pairs.append((policy_from_pieces([[0, 3, 0.6]], 0.3, [[1, 5, 0.5]], 0.9),
                  CSQ, None))
    for k in range(4, 12):
        pairs.append((mc22_policy(0.39, 0.2, 0.4, 2.0 ** -k), ENV, USQRT))
    for k in range(4, 7):
        pairs.append((mc23_policy(0.40, 0.1, 2.0 ** -k, next_corner=0.5),
                      ENV, USQRT))
    for k in range(4, 12):
        pairs.append((mc1_policy(0.5, 2.0 ** -k, K=0.5), CSQ, USQRT))
    for q_k in range(1, 7):
        pairs.append((mc21_policy(0.1, 0.2, 1.0, q_k), ENV, USQRT))
    for k in range(4, 13):
        pairs.append((lambda_mu_policy(0.4, 2.0 ** -k, eps=0.05, K=10),
                      CSQ, IDENT))
    return pairs


def test_criterion_8_simulation_concordance():
    t0 = time.monotonic()
    pairs = _sim_pairs()
    assert len(pairs) == 40
    passed = 0
    misses = []
    for i, (p, c, u) in enumerate(pairs):
        m = exact_metrics(p, c, u)
        est = simulate(p, SimConfig(10000.0, 10, 1000 + i, 0.1), c, u)
        hit = (abs(est.qbar - m.qbar) <= 3 * est.qbar_halfwidth
               and abs(est.cbar - m.cbar) <= 3 * est.cbar_halfwidth)
        if hit:
            passed += 1
        else:
            misses.append(i)
    elapsed = time.monotonic() - t0
    ok = passed >= 38 and elapsed < 300.0
    record(8, "simulation within 3x CI on 40 policy/seed pairs", ok,
           "%d/40 passed%s, %.1fs" % (
               passed, (", missed %s" % misses) if misses else "", elapsed))
    assert ok
