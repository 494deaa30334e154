import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtl import (
    CaseTag,
    LagrangianProblem,
    ScalingSample,
    audit_lower_bound,
    classify_case,
    classify_regime,
    constant_policy,
    discrete_function,
    lower_convex_envelope,
    piecewise_function,
    policy_from_pieces,
    power_function,
    support_line,
    sweep,
    trace_tradeoff,
    uniform_actions,
)
from qtl.policy_families import (
    lambda_mu_policy,
    lc_mirror_policy,
    mc1_policy,
    mc21_policy,
    mc22_policy,
    mc23_policy,
)
from qtl.rate_functions import evaluate
from qtl.scaling import SweepFailure
import oracles
from oracles import GROWTH_MODELS, MpChain, synthetic_growth

S = [0, 0.2, 0.4, 0.5, 0.6, 0.8, 1]
CDISC = discrete_function([(s, s * s) for s in S])
ENV = lower_convex_envelope(CDISC)
CSQ = power_function(2.0)
IDENT = power_function(1.0, role="utility")
USQRT = power_function(0.5, role="utility")

DYADIC = [2.0 ** -k for k in range(4, 12)]


def test_sweep_collects_samples():
    samples, failures = sweep(
        lambda u: mc22_policy(0.39, 0.2, 0.4, u), DYADIC, ENV, 0.1521)
    assert not failures and len(samples) == len(DYADIC)
    for s, u in zip(samples, DYADIC):
        assert s.U == u and s.V > 0
        assert abs(s.cbar - (s.V + 0.1521)) < 1e-15
    # shrinking U tightens the cost gap and pushes the queue up
    assert samples[-1].V < samples[0].V
    assert samples[-1].qbar > samples[0].qbar


def test_sweep_records_construction_failures():
    # joint family rates fall between the discrete samples, every point fails
    samples, failures = sweep(
        lambda u: lambda_mu_policy(0.4, u, eps=0.05, K=10),
        DYADIC[:5], CDISC, 0.16)
    assert not samples and len(failures) == 5
    assert "not a sample" in failures[0].error


def test_sweep_records_nonpositive_gap():
    samples, failures = sweep(
        lambda u: constant_policy(0.4, 1.0), [0.5, 0.25], CSQ, 0.9)
    assert not samples and len(failures) == 2
    assert "non-positive cost gap" in failures[0].error


def test_sweep_empty_grid():
    with pytest.raises(ValueError):
        sweep(lambda u: constant_policy(0.4, 1.0), [], CSQ, 0.1)


# the paper's regimes b)-d) over 37 dyadic scales, down to windows of 2^40
# states; each family with the cost, utility and c_ref of criterion 5
DEEP = [2.0 ** -k for k in range(4, 41)]
DEEP_FAMILIES = {
    "mc22": (lambda u: mc22_policy(0.39, 0.2, 0.4, u), ENV, 0.154, 0.39),
    "mc23": (lambda u: mc23_policy(0.40, 0.1, u, next_corner=0.5), ENV, 0.160, 0.40),
    "mc1": (lambda u: mc1_policy(0.5, u, K=0.5), CSQ, 0.25, 0.5),
}


@pytest.mark.parametrize("name", sorted(DEEP_FAMILIES))
def test_sweep_to_two_to_the_minus_forty(name):
    build, cost, c_ref, lam = DEEP_FAMILIES[name]
    samples, failures = sweep(build, DEEP, cost, c_ref, USQRT)
    assert failures == [] and len(samples) == 37
    assert classify_regime(samples, classify_case(cost, lam)).verdict == "matches"


@pytest.mark.parametrize("name,rtol", [("mc22", 1e-2), ("mc23", 1e-9), ("mc1", 1e-9)])
def test_deep_cost_gap_matches_mpmath(name, rtol):
    # at U = 2^-38..2^-40, V is below 1e-11 against Cbar ~ 0.2; a per-segment
    # sum keeps its digits, except that mc22's two segment terms still cancel
    build, cost, c_ref, _ = DEEP_FAMILIES[name]
    samples, _ = sweep(build, DEEP[-3:], cost, c_ref, USQRT)
    assert len(samples) == 3
    for s in samples:
        p = build(s.U)
        runs = [(end - first, lam, mu) for first, end, lam, mu in p.joint_runs()][:-1]
        ref = MpChain(runs, p.lam_tail, p.mu_tail).cost_gap(
            lambda r: evaluate(cost, float(r)), c_ref)
        assert s.V == pytest.approx(ref, rel=rtol, abs=0), s.U


# The paper's second problem: arrivals controlled for utility at a constant
# service rate mu, so c = r^2 over the service set [mu] and beta1 = 0.  One
# beta2 trace per regime of the abstract, d) LC1, c) LC2-2 and b) LC2-1: its
# verdict from classify_case and classify_regime as they are, with
# V = u_env(mu) - ubar.  A discrete sqrt utility's concave envelope is the
# piecewise function through its samples, which are concave already.  The
# three traces take about 0.9 s, some 2 % of the tier-1 run (43 s on a
# shared 2-vCPU host).
ROOTS = [(s, s ** 0.5) for s in S]
# case: (utility, its envelope, arrival rates, mu, state cap, log10 beta2
# grid, case family, fitted model)
UTILITY_REGIMES = {
    "d": (USQRT, USQRT, uniform_actions(1.0, 201), 0.6, 2000, (1, 4.5, 15),
          "LC1", "inv-sqrt"),
    "c": (discrete_function(ROOTS, role="utility"), piecewise_function(ROOTS, role="utility"),
          S, 0.40, 4000, (1, 5.5, 30), "LC2-2", "inv"),
    "b": (discrete_function(ROOTS, role="utility"), piecewise_function(ROOTS, role="utility"),
          S, 0.39, 4000, (1, 7.5, 30), "LC2-1", "log-inv"),
}


@pytest.mark.parametrize("case", sorted(UTILITY_REGIMES))
def test_utility_regimes_from_the_optimizer(case):
    u, u_env, arrivals, mu, cap, (lo, hi, n), family, model = UTILITY_REGIMES[case]
    base = LagrangianProblem(0.0, 0.0, [mu], arrivals, CSQ, u, state_cap=cap)
    points, failures = trace_tradeoff(base, [0.0], np.logspace(lo, hi, n).tolist())
    assert failures == [] and len(points) == n
    target = evaluate(u_env, mu)
    samples = [ScalingSample(1.0 / p.beta2, target - p.u_c, p.q_star, p.u_c, p.c_c)
               for p in points]
    assert all(s.V > 0 for s in samples)
    tag = classify_case(u_env, mu)
    fit = classify_regime(samples, tag)
    assert (tag.family, fit.model, fit.verdict) == (family, model, "matches")
    if family == "LC2-1":
        # the log regime shows only once q* is well past the drift scale
        # 1/ln(b/mu) of the segment's upper end b, about 40 states here
        assert max(p.q_star for p in points) > 4.0 / math.log(tag.window[1] / mu)


def growth_samples(model):
    vs = [10.0 ** -e for e in (1, 1.5, 2, 2.5, 3, 3.5, 4)]
    return [ScalingSample(v, v, q, 0.0, 0.0)
            for v, q in synthetic_growth(model, vs)]


@pytest.mark.parametrize("model", sorted(GROWTH_MODELS))
def test_classify_recovers_synthetic_growth(model):
    fit = classify_regime(growth_samples(model))
    assert fit.model == model
    assert fit.residual < 1e-10


def test_classify_needs_samples_and_span():
    s = [ScalingSample(v, v, 1.0, 0.0, 0.0) for v in (0.1, 0.01, 0.001)]
    with pytest.raises(ValueError):
        classify_regime(s)
    s = [ScalingSample(v, v, 1.0, 0.0, 0.0)
         for v in (0.1, 0.09, 0.08, 0.07, 0.06)]
    with pytest.raises(ValueError):
        classify_regime(s)


def sample_table(row=None, V=None, qbar=None):
    # five samples with V = 1 .. 1e-4; the given row, or every row, takes
    # the given V and qbar
    rows = [[1.0, 10.0 ** -k, k + 1.0, 0.0, 0.0] for k in range(5)]
    for i in range(5) if row is None else [row]:
        rows[i][1] = rows[i][1] if V is None else V
        rows[i][2] = rows[i][2] if qbar is None else qbar
    return [ScalingSample(*r) for r in rows]


@pytest.mark.parametrize("samples,message", [
    (sample_table(0, qbar=1e400), "sample 0 has qbar = inf; need a finite qbar"),
    (sample_table(2, qbar=math.nan), "sample 2 has qbar = nan; need a finite qbar"),
    (sample_table(qbar=1e200),
     "sample 0 has qbar = 1e+200; the fit's residual scale overflows"),
    (sample_table(3, V=0.0), "sample 3 has V = 0; need a finite V > 0 with a finite 1/V"),
    (sample_table(3, V=-1.0), "sample 3 has V = -1; need a finite V > 0"),
    (sample_table(1, V=1e-320), "sample 1 has V = 9.99989e-321; need a finite V > 0"),
    (sample_table(4, V=math.inf), "sample 4 has V = inf; need a finite V > 0"),
    (sample_table(0, V=math.nan), "sample 0 has V = nan; need a finite V > 0"),
], ids=["qbar-inf", "qbar-nan", "qbar-huge", "V-0", "V-negative", "V-subnormal", "V-inf",
        "V-nan"])
def test_classify_refuses_samples_it_cannot_fit(samples, message):
    with pytest.raises(ValueError) as err:
        classify_regime(samples)
    assert str(err.value).startswith(message)


def test_classify_fits_extreme_but_finite_samples():
    # V from 1e300 down to 1e-300 spans an infinite factor, and qbar near
    # 1e150 squares to 1e300: both still fit
    samples = [ScalingSample(1.0, 10.0 ** (300 - 150 * k), 1e150 * k, 0.0, 0.0)
               for k in range(5)]
    fit = classify_regime(samples)
    assert fit.model == "log-inv" and fit.residual < 1e-12


def test_classify_verdicts():
    samples = growth_samples("log-inv")
    log_tag = CaseTag("MC2-2", (0.2, 0.4), "log", 0.39)
    inv_tag = CaseTag("MC2-3", (0.3, 0.5), "inv", 0.40)
    assert classify_regime(samples, tag=log_tag).verdict == "matches"
    assert classify_regime(samples, tag=inv_tag).verdict == "contradicts"


def test_classify_sqrt_log_counts_as_sqrt_match():
    tag = CaseTag("MC1", (0.0, 1.0), "inv-sqrt", 0.5)
    fit = classify_regime(growth_samples("inv-sqrt-log"), tag=tag)
    assert fit.model == "inv-sqrt-log"
    assert fit.verdict == "matches"


def test_audit_rejects_nonpositive_gap():
    with pytest.raises(ValueError):
        audit_lower_bound(
            constant_policy(0.4, 1.0), classify_case(CSQ, 0.5), CSQ, None, 0.4)


def check_map(checks):
    return {c.name: c for c in checks}


def test_audit_curved_anchor_passes():
    tag = classify_case(CSQ, 0.5)
    p = mc1_policy(0.5, 0.01, K=0.5)
    got = check_map(audit_lower_bound(p, tag, CSQ, USQRT, 0.25))
    assert set(got) == {"rate-mass", "boundary-mass", "pi-zero"}
    for c in got.values():
        assert c.applicable and c.passed and c.margin >= 0


def test_audit_boundary_mass_needs_constant_arrivals():
    p = policy_from_pieces([[0, 5, 0.5]], 0.4, [[1, 10, 0.7]], 0.9,
                           ra_max=0.5, r_max=0.9)
    got = check_map(audit_lower_bound(p, classify_case(CSQ, 0.5), CSQ, None, 0.25))
    assert got["rate-mass"].applicable
    assert not got["boundary-mass"].applicable
    assert "constant arrivals" in got["boundary-mass"].note


def test_audit_boundary_mass_wide_eps_skipped():
    # a fat cost gap pushes eps_V past the anchor rate
    p = constant_policy(0.5, 1.0)
    got = check_map(audit_lower_bound(p, classify_case(CSQ, 0.5), CSQ, None, 0.25))
    assert got["rate-mass"].passed
    assert not got["boundary-mass"].applicable


def test_audit_boundary_mass_skipped_when_no_state_serves_near_the_anchor():
    # eps_V = 0.2 < anchor 0.5, but the policy serves at 0.2 < 0.5 - eps_V
    # in every state, so the boundary state q* does not exist
    p = constant_policy(0.1, 0.2)
    got = check_map(audit_lower_bound(p, classify_case(CSQ, 0.5), CSQ, None, 0.01))
    assert got["rate-mass"].applicable
    check = got["boundary-mass"]
    assert not check.applicable and check.passed is None
    assert check.note == "no state serves within eps_V of the anchor"


def test_audit_segment_anchor():
    tag = classify_case(ENV, 0.1)
    assert tag.family == "MC2-1"
    p = mc21_policy(0.1, 0.2, 1.0, 8)
    got = check_map(audit_lower_bound(p, tag, ENV, USQRT, 0.01))
    assert got["rate-mass"].applicable and got["rate-mass"].passed
    assert got["pi-zero"].passed


def test_audit_segment_without_slope_gap_skips_rate_mass():
    # a one-segment cost has no adjacent slope, so the rate-mass check has no m_a
    line = piecewise_function([(0.0, 0.0), (1.0, 1.0)])
    for tag in (CaseTag("MC2-1", (0.0, 1.0), "finite", 0.4),
                CaseTag("MC2-2", (0.0, 1.0), "log", None)):
        got = check_map(audit_lower_bound(constant_policy(0.4, 1.0), tag, line, None, 0.1))
        assert got["rate-mass"] == (
            "rate-mass", False, None, None, None, None, "no adjacent segment slope gap")


# (policy, cost, c_ref, case tag, interval, eps from V, k from eps): the
# paper's constants per regime, with a1 = 1 for c = r^2 and the slope gaps
# of ENV, whose segment slopes are 0.2, 0.6, 0.9, 1.1, 1.4, 1.8
RATE_MASS_CASES = {
    "MC1": (mc1_policy(0.5, 0.01, K=0.5), CSQ, 0.25, classify_case(CSQ, 0.5),
            (0.5, 0.5), lambda v: 2.0 * math.sqrt(v), lambda eps: eps),
    "MC2-1": (mc21_policy(0.1, 0.2, 1.0, 8), ENV, 0.01, classify_case(ENV, 0.1),
              (0.0, 0.2), lambda v: 0.05, lambda eps: 0.4),
    "MC2-2": (mc22_policy(0.39, 0.2, 0.4, 0.01), ENV, 0.154, classify_case(ENV, 0.39),
              (0.2, 0.4), lambda v: 0.05, lambda eps: 0.3),
    "MC2-3": (mc23_policy(0.40, 0.1, 0.02, next_corner=0.5), ENV, 0.16,
              classify_case(ENV, 0.40), (0.4, 0.4), lambda v: 4.0 / 0.15 * v,
              lambda eps: 0.15),
}


@pytest.mark.parametrize("family", sorted(RATE_MASS_CASES))
def test_audit_rate_mass_matches_its_inequality(family):
    # mass outside [lo - eps, hi + eps] <= V/(k eps), each side recomputed from
    # a state-by-state stationary vector and a 50-digit cost gap
    p, c, c_ref, tag, (lo, hi), eps_of, k_of = RATE_MASS_CASES[family]
    assert tag.family == family
    runs = [(end - first, lam, mu) for first, end, lam, mu in p.joint_runs()][:-1]
    v = MpChain(runs, p.lam_tail, p.mu_tail).cost_gap(
        lambda r: evaluate(c, float(r)), c_ref)
    eps = eps_of(v)
    mass = oracles.loop_service_mass_outside(p, oracles.loop_stationary(p),
                                             lo - eps, hi + eps)
    got = check_map(audit_lower_bound(p, tag, c, None, c_ref))["rate-mass"]
    assert got.lhs == pytest.approx(mass, rel=1e-9, abs=1e-15)
    assert got.rhs == pytest.approx(v / (k_of(eps) * eps), rel=1e-9, abs=0)
    assert got.passed and got.margin > 0


def test_audit_corner_anchor():
    tag = classify_case(ENV, 0.40)
    assert tag.family == "MC2-3"
    p = mc23_policy(0.40, 0.1, 0.02, next_corner=0.5)
    got = check_map(audit_lower_bound(p, tag, ENV, USQRT, 0.16))
    assert got["rate-mass"].applicable and got["rate-mass"].passed


def test_audit_joint_family():
    tag = CaseTag("LMU", None, "log", 0.4)
    p = lambda_mu_policy(0.4, 0.01, eps=0.05, K=10)
    got = check_map(audit_lower_bound(p, tag, CSQ, IDENT, 0.16))
    assert set(got) == {"low-rate-mass", "boundary-state", "pi-zero"}
    for c in got.values():
        assert c.applicable and c.passed


def test_audit_joint_family_needs_margin_meta():
    from qtl import policy_from_json, policy_to_json
    tag = CaseTag("LMU", None, "log", 0.4)
    p = lambda_mu_policy(0.4, 0.01, eps=0.05, K=10)
    stripped = policy_from_json(dict(policy_to_json(p), meta={"family": "lmu"}))
    assert stripped == p and (stripped.ra_max, stripped.r_max) == (p.ra_max, p.r_max)
    got = check_map(audit_lower_bound(stripped, tag, CSQ, IDENT, 0.16))
    assert not got["low-rate-mass"].applicable
    assert "eps" in got["low-rate-mass"].note


def test_audit_pi_zero_skips():
    p = constant_policy(0.2, 0.9)
    got = check_map(audit_lower_bound(p, None, CSQ, None, 0.01))
    assert not got["pi-zero"].applicable
    narrow = power_function(0.5, domain=(0.0, 0.5), role="utility")
    got = check_map(audit_lower_bound(p, None, CSQ, narrow, 0.01))
    assert not got["pi-zero"].applicable
    assert "domain" in got["pi-zero"].note


@pytest.mark.parametrize("over,applicable", [(5e-13, True), (5e-10, False), (5e-9, False)])
def test_audit_pi_zero_uses_the_evaluate_domain(over, applicable):
    # a top service rate just above the utility's domain is checked where
    # evaluate takes it (1e-12) and skipped beyond, never refused
    c = power_function(2.0, domain=(0.0, 2.0))
    p = constant_policy(0.4, 1.0 + over)
    got = check_map(audit_lower_bound(p, None, c, IDENT, 0.1))["pi-zero"]
    assert got.applicable is applicable
    if not applicable:
        assert "outside the utility domain" in got.note


def test_audit_pi_zero_piecewise_utility():
    u = piecewise_function([(0.0, 0.0), (0.3, 0.3), (1.0, 0.65)],
                           role="utility")
    p = constant_policy(0.2, 0.5)
    got = check_map(audit_lower_bound(p, None, CSQ, u, 0.01))
    c = got["pi-zero"]
    assert c.applicable and c.passed
    # pi(0) = 0.6; Ubar = u(0.2) = 0.2, so rhs = (0.4 - 0.2)/(0.5 * 0.5)
    assert abs(c.lhs - 0.6) < 1e-12
    assert abs(c.rhs - 0.8) < 1e-12


def test_audit_geometric_tail_gives_python_types():
    # the tail rate lam + K lies outside the rate-mass interval, so the
    # check adds the analytic tail mass
    p = mc1_policy(0.5, 0.001, K=0.5)
    got = check_map(audit_lower_bound(p, classify_case(CSQ, 0.5), CSQ, USQRT, 0.25))
    for c in got.values():
        assert type(c.passed) is bool and type(c.lhs) is float and c.passed


def test_audit_joint_family_names_missing_anchor():
    p = lambda_mu_policy(0.4, 0.01, eps=0.05, K=10)
    with pytest.raises(ValueError, match="'anchor'"):
        audit_lower_bound(p, CaseTag("LMU", None, "log", None), CSQ, IDENT, 0.16)


@pytest.mark.parametrize("tag,p,c", [
    (CaseTag("MC1", (0.0, 1.0), "inv-sqrt", 1e-300), mc1_policy(0.5, 0.01, K=0.5), CSQ),
    (CaseTag("LMU", None, "log", 1e-300), lambda_mu_policy(0.4, 0.01, eps=0.05, K=10),
     CSQ),
])
def test_audit_anchor_near_zero_has_exact_curvature(tag, p, c):
    # c = r^2 has a1 = 1 at every anchor, 1e-300 included
    assert support_line(c, CaseTag("MC1", (0.0, 1.0), "inv-sqrt", 1e-300)).a1 == 1.0
    checks = [ch for ch in audit_lower_bound(p, tag, c, None, 0.01) if ch.applicable]
    assert checks
    assert all(math.isfinite(x) for ch in checks for x in (ch.lhs, ch.rhs, ch.margin))


def test_audit_joint_family_piecewise_cost_has_no_curvature():
    # the envelope is linear between its corners, so the corner 0.4 has no
    # curvature either
    p = lambda_mu_policy(0.4, 0.01, eps=0.05, K=10)
    got = check_map(audit_lower_bound(p, CaseTag("LMU", None, "log", 0.4), ENV, IDENT, 0.154))
    assert not got["low-rate-mass"].applicable
    assert got["low-rate-mass"].note == "no curvature at the anchor"
    assert "boundary-state" not in got and got["pi-zero"].applicable


FUZZ_EXPONENTS = [0.5, 0.99, 1.0, 1.01, 1.5, 2.0, 3.0]
FUZZ_RATES = [0.0, -0.0, 5e-324, 1e-300, 1e-4, 0.5, 1.0, 1e308, math.inf, -math.inf, math.nan]
FUZZ_POLICIES = {"MC1": mc1_policy(0.5, 0.01, K=0.5),
                 "LMU": lambda_mu_policy(0.4, 0.01, eps=0.05, K=10)}


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(FUZZ_EXPONENTS), r=st.sampled_from(FUZZ_RATES),
       hi=st.sampled_from([1.0, math.inf]), fam=st.sampled_from(sorted(FUZZ_POLICIES)))
def test_curvature_contract_fuzz(p, r, hi, fam):
    # classify_case, the MC1/LC1 tangent and the MC1/LMU audits refuse with
    # a ValueError or return; any other exception fails the test
    cost = p >= 1.0
    try:
        f = power_function(p, (0.0, hi), "cost" if cost else "utility")
    except ValueError:
        # a domain that is not finite is refused when the function is built
        assert hi == math.inf
        return
    calls = [lambda: classify_case(f, r),
             lambda: support_line(f, CaseTag("MC1" if cost else "LC1", (0.0, hi), "inv-sqrt", r))]
    if cost:
        calls.append(lambda: audit_lower_bound(
            FUZZ_POLICIES[fam], CaseTag(fam, (0.0, hi), "inv-sqrt", r), f, None, 0.0))
    for call in calls:
        try:
            call()
        except ValueError:
            pass


MIRROR_TAGS = {
    "LC1": CaseTag("LC1", (0.0, 1.0), "inv-sqrt", 0.5),
    "LC2-1": CaseTag("LC2-1", (0.3, 0.6), "log", 0.5),
    "LC2-2": CaseTag("LC2-2", (0.3, 0.7), "inv", 0.5),
}
# every family, as criterion 5 and the CLI build them, with a cost and c_ref
FUZZ_FAMILIES = dict(DEEP_FAMILIES, **{
    "mc21": (lambda u: mc21_policy(0.39, 0.4, 1.0, max(1, round(-math.log2(u)))),
             ENV, 0.154, 0.39),
    "lmu": (lambda u: lambda_mu_policy(0.4, u), CSQ, 0.16, 0.4),
}, **{"lc " + fam: (lambda u, tag=tag: lc_mirror_policy(0.5, tag, u), CSQ, 0.25, 0.5)
      for fam, tag in MIRROR_TAGS.items()})
# U log-uniform on [2^-1074, 1]: subnormal scales down to 5e-324 included
SCALES = st.floats(-1074.0, 0.0).map(lambda e: 2.0 ** e)


@pytest.mark.parametrize("name", sorted(FUZZ_FAMILIES))
@settings(max_examples=40, deadline=None)
@given(grid=st.lists(st.one_of(SCALES, st.sampled_from([5e-324, 1e-300, 2.0 ** -996])),
                     min_size=1, max_size=4))
def test_sweep_fuzz(name, grid):
    # any scale ends in a sample or a failure record, never another exception
    build, cost, c_ref, _ = FUZZ_FAMILIES[name]
    samples, failures = sweep(build, grid, cost, c_ref, USQRT)
    assert len(samples) + len(failures) == len(grid)
    assert all(isinstance(f, SweepFailure) and f.error for f in failures)
    assert all(s.V > 0 and math.isfinite(s.qbar) for s in samples)
