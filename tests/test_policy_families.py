import math

import pytest
from hypothesis import given, strategies as st

from qtl import (
    CaseTag,
    exact_metrics,
    is_admissible,
    is_stable,
    policy_families,
    power_function,
)
from qtl.birth_death import policy_to_json
from qtl.policy_families import (
    lambda_mu_policy,
    lc_mirror_policy,
    mc1_policy,
    mc21_policy,
    mc22_policy,
    mc23_policy,
)
from oracles import q1_joint, q1_low_rate, q1_three_level

CSQ = power_function(2.0)
IDENT = power_function(1.0, role="utility")


def test_mc1_thresholds_match_oracle():
    p = mc1_policy(0.5, 0.01, K=0.4)
    assert p.meta["q1"] == q1_three_level(0.5, 0.01) == 13
    assert abs(p.meta["eps_U"] - 0.1) < 1e-15
    assert abs(p.meta["eps_pU"] - 0.125) < 1e-15
    assert mc1_policy(0.5, 0.04, K=0.4).meta["q1"] == q1_three_level(0.5, 0.04) == 4


def test_mc1_levels():
    p = mc1_policy(0.5, 0.01, K=0.4)
    assert p.service(1) == pytest.approx(0.4)
    assert p.service(13) == pytest.approx(0.4)
    assert p.service(14) == pytest.approx(0.625)
    assert p.service(26) == pytest.approx(0.625)
    assert p.service(27) == pytest.approx(0.9)
    assert p.arrival(5) == 0.5


def test_mc1_errors():
    with pytest.raises(ValueError):
        mc1_policy(0.5, 0.25, K=0.4)      # sqrt(U) reaches lam
    with pytest.raises(ValueError):
        mc1_policy(0.5, 0.01, K=0.6)      # lam + K over r_max
    with pytest.raises(ValueError):
        mc1_policy(0.5, 0.04, K=0.3)      # middle level overshoots K
    with pytest.raises(ValueError):
        mc1_policy(0.5, -1.0)


@pytest.mark.parametrize("lam,message", [
    # lam / (lam - sqrt(U)) rounded to 1 and blamed U
    (1e308, "lam=1e+308 must stay below r_max=1"),
    # the default K = (r_max - lam) / 2 was 0 or negative
    (1.0, "lam=1 must stay below r_max=1"),
    (2.0, "lam=2 must stay below r_max=1"),
])
def test_mc1_refuses_lam_at_or_above_r_max(lam, message):
    with pytest.raises(ValueError) as err:
        mc1_policy(lam, 0.01)
    assert str(err.value) == message


@pytest.mark.parametrize("build,message", [
    # mc22 built with "U": True in its meta; a string failed a comparison
    (lambda: mc22_policy(0.39, 0.2, 0.4, True), "U must be a positive finite number, got True"),
    (lambda: mc1_policy(0.5, "0.01"), "U must be a positive finite number, got '0.01'"),
    (lambda: mc23_policy(0.4, 0.1, 0.01, next_corner="0.5"),
     "next_corner must be a positive finite number, got '0.5'"),
])
def test_constructors_refuse_a_bool_or_a_string(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_mc1_default_k_is_half_the_headroom():
    p = mc1_policy(0.4, 2.0 ** -10)
    assert p.meta["K"] == 0.5 * (1.0 - 0.4)
    assert p.mu_tail == 0.4 + 0.5 * (1.0 - 0.4) and p.r_max == 1.0


# (d, builds): a 1e-12 slack decides each edge, so a rate d = 5e-13 over
# its bound builds and one 2e-12 over is refused
BOUND_EDGES = [(-2e-12, True), (-5e-13, True), (5e-13, True), (2e-12, False)]


@pytest.mark.parametrize("d,builds", BOUND_EDGES)
def test_mc1_tail_at_r_max_edges(d, builds):
    lam, K = 0.5, 0.5 + d    # the tail lam + K sits d above r_max = 1
    if builds:
        p = mc1_policy(lam, 2.0 ** -10, K=K)
        assert p.mu_tail == lam + K and p.r_max == 1.0
    else:
        with pytest.raises(ValueError):
            mc1_policy(lam, 2.0 ** -10, K=K)


@pytest.mark.parametrize("d,builds", BOUND_EDGES)
@pytest.mark.parametrize("side", ["r_max", "ra_max"])
def test_lambda_mu_top_rates_at_bound_edges(side, d, builds):
    # mu2 = anchor + U and lam1 = anchor + eps are the largest rates of
    # their sides; the bound sits d below the one under test
    anchor, U, eps = 0.5, 2.0 ** -10, 0.05
    top = anchor + U if side == "r_max" else anchor + eps
    kw = {"ra_max": 1.0, "r_max": 1.0, side: top - d}
    if builds:
        p = lambda_mu_policy(anchor, U, eps=eps, K=20, **kw)
        assert (p.ra_max, p.r_max) == (kw["ra_max"], kw["r_max"])
    else:
        with pytest.raises(ValueError):
            lambda_mu_policy(anchor, U, eps=eps, K=20, **kw)


def test_mc1_cost_gap_scales_with_u():
    # V = Cbar - c(lam) stays within two decades of U itself
    for k in range(4, 11):
        u = 2.0 ** -k
        m = exact_metrics(mc1_policy(0.5, u, K=0.5), CSQ)
        v = m.cbar - 0.25
        assert 0.01 <= v / u <= 100.0


def test_mc1_refuses_a_scale_without_a_threshold():
    # at U = 0.2 the threshold formula gives q1 = 0: no state serves below r_max
    with pytest.raises(ValueError, match=r"^U=0.2 too large, threshold q1 < 1$"):
        mc1_policy(0.5, 0.2)


def test_mc21_shape_and_errors():
    p = mc21_policy(0.1, 0.2, 1.0, 3)
    assert p.service(3) == 0.2 and p.service(4) == 1.0
    with pytest.raises(ValueError):
        mc21_policy(0.3, 0.2, 1.0, 3)
    with pytest.raises(ValueError):
        mc21_policy(0.1, 0.2, 1.0, 0)


@given(st.floats(min_value=-40.0, max_value=0.0))
def test_mc21_scale_sets_the_threshold(log2_u):
    U = 2.0 ** log2_u
    assert policy_to_json(mc21_policy(0.1, 0.2, 1.0, U=U)) == policy_to_json(
        mc21_policy(0.1, 0.2, 1.0, max(1, round(-math.log2(U)))))


def test_mc21_needs_q_k_or_the_scale():
    with pytest.raises(ValueError, match="needs q_k or the scale U"):
        mc21_policy(0.1, 0.2, 1.0)
    assert mc21_policy(0.1, 0.2, 1.0, 3, U=2.0 ** -10).meta["q_k"] == 3


@pytest.mark.parametrize("U", [0.0, -0.5, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("build", [
    lambda U: mc1_policy(0.5, U, K=0.5),
    lambda U: mc21_policy(0.1, 0.2, 1.0, U=U),
    lambda U: mc22_policy(0.39, 0.2, 0.4, U),
    lambda U: mc23_policy(0.40, 0.1, U, next_corner=0.5),
    lambda U: lambda_mu_policy(0.4, U, eps=0.05, K=10),
    lambda U: lc_mirror_policy(0.5, CaseTag("LC2-1", (0.4, 0.6), None, None), U),
], ids=["mc1", "mc21", "mc22", "mc23", "lmu", "lc"])
def test_scale_must_be_positive_finite(build, U):
    with pytest.raises(ValueError, match="U must be a positive finite number"):
        build(U)


def test_mc21_queue_stays_finite():
    # pushing the switch point out converges to the two-rate limit lam/(b-lam)
    prev = -1.0
    for q_k in (2, 4, 8, 16, 32, 64):
        m = exact_metrics(mc21_policy(0.1, 0.2, 1.0, q_k), CSQ)
        assert m.qbar > prev
        prev = m.qbar
    assert abs(prev - 1.0) < 1e-9


def test_mc22_threshold_matches_oracle():
    p = mc22_policy(0.39, 0.2, 0.4, 0.01)
    assert p.meta["q1"] == q1_low_rate(0.39, 0.2, 0.01) == 6
    assert p.service(6) == 0.2 and p.service(7) == 0.4
    assert mc22_policy(0.39, 0.2, 0.4, 10.0).meta["q1"] == 1


def test_mc22_errors():
    with pytest.raises(ValueError):
        mc22_policy(0.39, 0.4, 0.2, 0.01)
    with pytest.raises(ValueError):
        mc22_policy(0.39, 0.2, 0.4, 0.0)


def test_mc23_plateau():
    p = mc23_policy(0.40, 0.1, 0.01, next_corner=0.5)
    assert p.meta["q1"] == 100
    assert p.service(100) == 0.40 and p.service(101) == pytest.approx(0.5)
    assert mc23_policy(0.40, 0.1, 1.0, next_corner=0.5).meta["q1"] == 1


@pytest.mark.parametrize("K", [0.0, -0.1])
def test_mc23_k_must_be_positive(K):
    with pytest.raises(ValueError, match="^K must be positive$"):
        mc23_policy(0.4, K, 0.01)


def test_mc23_errors():
    with pytest.raises(ValueError):
        mc23_policy(0.40, 0.2, 0.01, next_corner=0.5)
    with pytest.raises(ValueError):
        mc23_policy(0.40, 0.1, 0.0)


def test_lambda_mu_levels_match_oracle():
    p = lambda_mu_policy(0.4, 0.01, eps=0.05, K=9)
    assert p.meta["q1"] == q1_joint(0.4, 0.05, 0.01) == 19
    assert p.meta["mu1"] == pytest.approx(0.39)
    assert p.meta["mu2"] == pytest.approx(0.41)
    assert p.meta["lam1"] == pytest.approx(0.45)
    assert p.meta["lam2"] == pytest.approx(0.35)
    assert p.arrival(18) == pytest.approx(0.45)
    assert p.arrival(19) == pytest.approx(0.40)
    assert p.arrival(28) == pytest.approx(0.40)
    assert p.arrival(29) == pytest.approx(0.35)


def test_lambda_mu_errors():
    with pytest.raises(ValueError):
        lambda_mu_policy(0.4, 0.01, eps=0.05, K=8)   # plateau too short
    with pytest.raises(ValueError):
        lambda_mu_policy(0.4, 0.01, eps=0.0, K=10)
    with pytest.raises(ValueError):
        lambda_mu_policy(0.4, 0.5, eps=0.05, K=10)   # U at the anchor
    with pytest.raises(ValueError):
        lambda_mu_policy(0.98, 0.05, eps=0.01, K=500, ra_max=1.0)  # mu2 over r_max
    with pytest.raises(ValueError):
        lambda_mu_policy(0.96, 0.01, eps=0.05, K=500, ra_max=1.0)  # lam1 over cap


def test_lambda_mu_eps_above_the_anchor():
    with pytest.raises(ValueError, match="^eps=0.05 exceeds the anchor rate 0.04$"):
        lambda_mu_policy(0.04, 0.01, eps=0.05, K=10)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_counts_must_be_finite(bad):
    # int() would raise OverflowError, or a ValueError that names nothing
    with pytest.raises(ValueError, match="^q_k must be a finite number, got"):
        mc21_policy(0.3, 0.4, 1.0, q_k=bad)
    with pytest.raises(ValueError, match="^K must be a finite number, got"):
        lambda_mu_policy(0.4, 0.01, K=bad)


def test_lambda_mu_clears_utility_floor():
    for k in range(4, 10):
        p = lambda_mu_policy(0.4, 2.0 ** -k, eps=0.05, K=10)
        m = exact_metrics(p, CSQ, IDENT)
        assert m.ubar >= 0.4


MIRROR_TAGS = {
    "LC1": CaseTag("LC1", (0.0, 1.0), "inv-sqrt", 0.5),
    "LC2-1": CaseTag("LC2-1", (0.3, 0.6), "log", 0.5),
    "LC2-2": CaseTag("LC2-2", (0.3, 0.7), "inv", 0.5),
}


@pytest.mark.parametrize("fam", sorted(MIRROR_TAGS))
def test_lc_mirror_utility_approaches_floor(fam):
    gaps = []
    for k in (4, 6, 8):
        p = lc_mirror_policy(0.5, MIRROR_TAGS[fam], 2.0 ** -k)
        assert "heuristic" in p.meta["note"]
        m = exact_metrics(p, CSQ, IDENT)
        gaps.append(0.5 - m.ubar)
    assert all(g > 0 for g in gaps)
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 0.01


def test_lc_mirror_window_refusals():
    lc1 = CaseTag("LC1", (0.0, 1.0), "inv-sqrt", 0.95)
    with pytest.raises(ValueError, match="^mu \\+ sqrt\\(U\\) leaves the utility domain$"):
        lc_mirror_policy(0.95, lc1, 0.01)
    corner = CaseTag("LC2-2", (0.6, 0.8), "inv", None)
    with pytest.raises(ValueError, match="^corner window does not bracket mu$"):
        lc_mirror_policy(0.5, corner, 0.01)


def test_lc_mirror_rejects_service_tags():
    with pytest.raises(ValueError):
        lc_mirror_policy(0.5, CaseTag("MC1", (0.0, 1.0), "inv-sqrt", 0.5), 0.01)
    with pytest.raises(ValueError):
        lc_mirror_policy(0.5, CaseTag("LC2-1", (0.6, 0.9), "log", 0.5), 0.01)


@given(st.integers(min_value=4, max_value=12))
def test_mc1_always_admissible_stable(k):
    p = mc1_policy(0.5, 2.0 ** -k, K=0.5)
    assert is_admissible(p) and is_stable(p)


@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=40))
def test_mc21_always_admissible_stable(k, q_k):
    p = mc21_policy(0.1, 0.2, 1.0, q_k)
    assert is_admissible(p) and is_stable(p)


@given(st.integers(min_value=1, max_value=14))
def test_mc22_always_admissible_stable(k):
    p = mc22_policy(0.39, 0.2, 0.4, 2.0 ** -k)
    assert is_admissible(p) and is_stable(p)


@given(st.integers(min_value=1, max_value=10))
def test_mc23_always_admissible_stable(k):
    p = mc23_policy(0.40, 0.1, 2.0 ** -k, next_corner=0.5)
    assert is_admissible(p) and is_stable(p)


@given(st.integers(min_value=4, max_value=12))
def test_lambda_mu_always_admissible_stable(k):
    p = lambda_mu_policy(0.4, 2.0 ** -k, eps=0.05, K=10)
    assert is_admissible(p) and is_stable(p)


def test_lc_mirror_names_missing_window():
    with pytest.raises(ValueError, match="'window'"):
        lc_mirror_policy(0.5, CaseTag("LC2-1", None, "log", 0.5), 0.01)


# every build path at U = 2^-6, with the (r_a_max, r_max) bounds its
# parameters give: the largest rates the policy uses, except the r_max of
# mc1 and both bounds of lmu, which are arguments and may exceed them
BUILDS = {
    "mc1": (lambda: mc1_policy(0.5, 2.0 ** -6, K=0.3, r_max=1.2), (0.5, 1.2)),
    "mc21": (lambda: mc21_policy(0.1, 0.2, 1.0, 3), (0.1, 1.0)),
    "mc22": (lambda: mc22_policy(0.39, 0.2, 0.4, 2.0 ** -6), (0.39, 0.4)),
    "mc23": (lambda: mc23_policy(0.4, 0.1, 2.0 ** -6), (0.4, 0.4 + 0.1)),
    "lmu": (lambda: lambda_mu_policy(0.4, 2.0 ** -6, eps=0.05, K=10, ra_max=0.9,
                                     r_max=0.8), (0.9, 0.8)),
    "LC1": (lambda: lc_mirror_policy(0.5, MIRROR_TAGS["LC1"], 2.0 ** -6),
            (0.5 + 0.125, 0.5)),
    "LC2-1": (lambda: lc_mirror_policy(0.5, MIRROR_TAGS["LC2-1"], 2.0 ** -6), (0.6, 0.5)),
    "LC2-2": (lambda: lc_mirror_policy(0.5, MIRROR_TAGS["LC2-2"], 2.0 ** -6), (0.5, 0.5)),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_bounds_come_from_the_parameters(name):
    build, (ra_max, r_max) = BUILDS[name]
    assert policy_to_json(build())["bounds"] == {
        "r_a_min": 0.0, "r_a_max": ra_max, "r_min": 0.0, "r_max": r_max}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_every_build_path_checks_stability(name, monkeypatch):
    monkeypatch.setattr(policy_families, "is_stable", lambda p: False)
    with pytest.raises(ValueError, match="^constructed policy is unstable$"):
        BUILDS[name][0]()


LC1_TAG = CaseTag("LC1", (0, 1), "inv-sqrt", 0.5)


@pytest.mark.parametrize("build,message", [
    # each of these blamed U, named nothing, divided by zero or built
    (lambda: mc1_policy(math.nan, 0.01), "lam must be a positive finite number, got nan"),
    (lambda: mc1_policy(math.inf, 0.01), "lam must be a positive finite number, got inf"),
    (lambda: lambda_mu_policy(math.nan, 0.01),
     "u_inv_uc must be a positive finite number, got nan"),
    (lambda: lambda_mu_policy(0.4, 0.01, eps=math.nan),
     "eps must be a positive finite number, got nan"),
    (lambda: lambda_mu_policy(math.inf, 0.01),
     "u_inv_uc must be a positive finite number, got inf"),
    (lambda: lc_mirror_policy(math.nan, LC1_TAG, 0.01),
     "mu must be a positive finite number, got nan"),
    (lambda: lc_mirror_policy(0.0, CaseTag("LC2-1", (-1.0, 0.1), "log", 0.5), 0.01),
     "mu must be a positive finite number, got 0"),
    (lambda: lc_mirror_policy(0.5, CaseTag("LC1", (0, math.nan), "inv-sqrt", 0.5), 0.01),
     "window_hi must be a positive finite number, got nan"),
    (lambda: mc23_policy(0.4, 0.1, 0.01, next_corner=math.nan),
     "next_corner must be a positive finite number, got nan"),
    (lambda: mc22_policy(0.39, 0.2, math.inf, 0.01), "need 0 < a_lam < lam < b_lam, all finite"),
    (lambda: mc21_policy(0.1, 0.2, math.inf, q_k=3), "need 0 < lam < b_lam < r_max, all finite"),
    # the plateau bound overflowed: an OverflowError from ** or from int()
    (lambda: lambda_mu_policy(1e200, 0.01, eps=0.1),
     "the plateau bound 2 (1 + u_inv_uc^2 / eps) is not finite at u_inv_uc=1e+200, eps=0.1"),
    (lambda: lambda_mu_policy(0.4, 0.01, eps=5e-324),
     "the plateau bound 2 (1 + u_inv_uc^2 / eps) is not finite at u_inv_uc=0.4, eps=4.94066e-324"),
])
def test_constructors_name_a_param_that_is_not_finite(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message
