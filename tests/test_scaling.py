import math

import pytest
from hypothesis import given, settings, strategies as st

from qtl import (
    CaseTag,
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
    sweep,
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


def test_audit_segment_anchor():
    tag = classify_case(ENV, 0.1)
    assert tag.family == "MC2-1"
    p = mc21_policy(0.1, 0.2, 1.0, 8)
    got = check_map(audit_lower_bound(p, tag, ENV, USQRT, 0.01))
    assert got["rate-mass"].applicable and got["rate-mass"].passed
    assert got["pi-zero"].passed


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
