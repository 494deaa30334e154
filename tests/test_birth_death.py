import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from qtl import (
    Policy,
    SimConfig,
    check_admissible,
    constant_policy,
    discrete_function,
    evaluate,
    exact_metrics,
    feasibility,
    is_admissible,
    is_stable,
    mass_below,
    mc1_policy,
    metrics,
    pi_at,
    policy_from_json,
    policy_from_pieces,
    policy_to_json,
    power_function,
    qlength_upper_bound,
    recurrent_window,
    simulate,
    stationary,
    sweep,
)

CSQ = power_function(2.0)
IDENT = power_function(1.0, role="utility")


def two_level():
    # lam 0.4 everywhere; mu 0.5 on {1,2}, 1.0 from 3 on
    return policy_from_pieces([], 0.4, [(1, 2, 0.5)], 1.0)


def dense_policy(lam, mu, lam_tail, mu_tail):
    """Policy with per-state rates lam, mu over 0..len-1, built from their runs."""
    return policy_from_pieces(oracles.pieces_of(lam, lam_tail)["pieces"], lam_tail,
                              oracles.pieces_of(mu, mu_tail)["pieces"], mu_tail)


def random_rules(rng, transient=False, finite=False):
    """Per-state (lam, mu, lam_tail, mu_tail) of an admissible, stable policy
    with random level structure."""
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
        dead = int(rng.integers(1, 4))
        for q in range(1, min(dead + 1, h)):
            mu[q] = 0.0
    if finite:
        stop = int(rng.integers(max(2, h - 3), h + 1))
        lam = [x if q < stop else 0.0 for q, x in enumerate(lam)]
        lam_tail = 0.0
    return lam, mu, lam_tail, mu_tail


def random_policy(rng, transient=False, finite=False):
    return dense_policy(*random_rules(rng, transient, finite))


def test_constant_policy_shape():
    p = constant_policy(0.4, 1.0)
    assert p.horizon == 0
    assert p.arrival(0) == 0.4 and p.arrival(7) == 0.4
    assert p.service(0) == 0.0 and p.service(1) == 1.0


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy([(0, 0.4)], [(0, 0.5)], 0.4, 1.0, 0)  # mu(0) nonzero
    with pytest.raises(ValueError):
        Policy([(0, 0.4), (2, 0.3)], [(0, 0.0)], 0.4, 1.0, 1)  # run past the horizon
    with pytest.raises(ValueError):
        Policy([(1, 0.4)], [(0, 0.0)], 0.4, 1.0, 1)  # no run at q=0
    with pytest.raises(ValueError):
        Policy([], [(0, 0.0)], 0.4, 1.0, 1)  # empty rule
    with pytest.raises(ValueError):
        Policy([(0, 0.4), (2, 0.3), (1, 0.2)], [(0, 0.0)], 0.4, 1.0, 3)  # unsorted
    with pytest.raises(ValueError):
        Policy([(0, 0.4), (1, 0.3), (1, 0.2)], [(0, 0.0)], 0.4, 1.0, 3)  # repeated start
    with pytest.raises(ValueError):
        Policy([(0, -0.1)], [(0, 0.0)], 0.4, 1.0, 0)
    with pytest.raises(ValueError):
        Policy([(0, 0.4)], [(0, 0.0)], 0.4, -1.0, 0)  # negative tail
    with pytest.raises(ValueError):
        policy_from_pieces([(0, 2, 0.4), (2, 3, 0.3)], 0.0, [], 1.0)  # overlap
    with pytest.raises(ValueError):
        policy_from_pieces([(3, 2, 0.4)], 0.0, [], 1.0)  # bad range


def test_admissibility_flags():
    assert is_admissible(constant_policy(0.4, 1.0))
    assert is_admissible(two_level())
    bumpy = dense_policy([0.4, 0.4, 0.4], [0.0, 0.8, 0.5], 0.4, 1.0)
    assert not is_admissible(bumpy)
    with pytest.raises(ValueError):
        check_admissible(bumpy)


def test_policy_json_round_trip():
    p = two_level()
    q = policy_from_json(policy_to_json(p))
    assert q == p
    rng = np.random.default_rng(7)
    for k in range(10):
        p = random_policy(rng, transient=k % 2 == 0, finite=k % 3 == 0)
        assert policy_from_json(policy_to_json(p)) == p


def test_recurrent_window_cases():
    assert recurrent_window(constant_policy(0.4, 1.0)) == (0, math.inf)
    p = policy_from_pieces([], 0.4, [(1, 2, 0.0)], 1.0)
    assert recurrent_window(p) == (2, math.inf)
    p = policy_from_pieces([(0, 9, 0.4)], 0.0, [], 1.0)
    assert recurrent_window(p) == (0, 10)


def test_stability():
    assert is_stable(constant_policy(0.4, 1.0))
    assert not is_stable(constant_policy(0.5, 0.5))
    # finite window is always stable
    assert is_stable(policy_from_pieces([(0, 4, 0.9)], 0.0, [], 0.2))


def test_near_critical_tail_refused_everywhere():
    # lambda one ulp below mu: stationary's relative margin refuses it, and
    # is_stable and simulate follow the same rule
    lam = math.nextafter(0.4, 0)
    p = constant_policy(lam, 0.4)
    assert not is_stable(p)
    with pytest.raises(ValueError) as exc:
        stationary(p)
    assert str(exc.value) == "unstable tail: lambda=%r >= mu=0.4" % lam
    with pytest.raises(ValueError, match="unstable policy"):
        simulate(p, SimConfig(100.0, 2), CSQ)


def test_stationary_geometric():
    sr = stationary(constant_policy(0.4, 1.0))
    for q in range(50):
        assert abs(pi_at(sr, q) - 0.6 * 0.4 ** q) < 1e-12
    # the tail starts past the horizon q_h = 0 and holds all but pi(0)
    assert sr.q_max == 0 and abs(sr.tail_mass - 0.4) < 1e-12


def test_stationary_two_level_hand_values():
    s = oracles.exact_chain_stats(
        [Fraction(2, 5)] * 3, [0, Fraction(1, 2), Fraction(1, 2)],
        Fraction(2, 5), Fraction(1))
    sr = stationary(two_level())
    assert abs(pi_at(sr, 0) - float(s["pi"][0])) < 1e-10
    assert abs(float(s["pi"][0]) - 0.3488372093) < 1e-9
    pi3 = float(s["pi"][2]) * 0.4  # one detailed-balance step past q=2
    assert abs(pi_at(sr, 3) - 0.0893023256) < 1e-9
    assert abs(pi_at(sr, 3) - pi3) < 1e-12


def test_stationary_errors():
    with pytest.raises(ValueError, match="unstable tail"):
        stationary(constant_policy(0.5, 0.5))
    with pytest.raises(ValueError, match="never serves"):
        stationary(policy_from_pieces([], 0.4, [], 0.0))
    with pytest.raises(ValueError, match="absorbing"):
        stationary(policy_from_pieces([(2, 3, 0.0)], 0.4, [(1, 4, 0.0)], 1.0))


def _assert_matches_loop(p, sr):
    """pi at rtol 1e-10 and the metrics at rtol 1e-12 against the loop oracle,
    whose sums run state by state."""
    ref = oracles.loop_stationary(p)
    pi, q_lo, q_max, tail_mass, rho = ref
    assert (sr.q_lo, sr.tail_ratio) == (q_lo, rho)
    got = [pi_at(sr, q) for q in range(q_lo, q_max + 1)]
    # subnormal values carry fewer than 16 digits, so atol is the smallest
    # normal float
    np.testing.assert_allclose(got, pi, rtol=1e-10, atol=np.finfo(float).tiny)
    # the oracle truncates its window further out; the mass past our q_max
    # is its states beyond that plus its own tail
    assert sr.tail_mass == pytest.approx(
        math.fsum(pi[sr.q_max + 1 - q_lo:]) + tail_mass, rel=1e-10, abs=0.0)
    for u in (None, IDENT):
        got = metrics(p, sr, CSQ, u)
        want = oracles.loop_metrics(
            p, ref, functools.partial(evaluate, CSQ),
            None if u is None else functools.partial(evaluate, u))
        np.testing.assert_allclose(tuple(got), want, rtol=1e-12, atol=0.0)


def test_near_unit_tail_ratio():
    # rho = 1 - 2e-9: the geometric tail is summed in closed form however
    # slowly it decays, and 1 - rho is exact here
    p = constant_policy(0.499999999, 0.5)
    rho = 0.499999999 / 0.5
    sr = stationary(p)
    assert sr.tail_ratio == rho
    assert abs(pi_at(sr, 0) - (1.0 - rho)) <= 1e-12 * (1.0 - rho)
    m = exact_metrics(p, CSQ)
    assert m.qbar == pytest.approx(rho / (1.0 - rho), rel=1e-12)


def test_long_head_matches_loop():
    # mc1 at U = 2^-20 has a head of 7,800 states; its sweep point is a
    # sample, not a failure
    build = functools.partial(mc1_policy, 0.5, K=0.5)
    p = build(2.0 ** -20)
    assert p.horizon == 2 * p.meta["q1"] > 7000
    _assert_matches_loop(p, stationary(p))
    samples, failures = sweep(build, [2.0 ** -20], CSQ, 0.25)
    assert failures == [] and len(samples) == 1
    assert samples[0].qbar == exact_metrics(p, CSQ).qbar


def test_finite_window_matches_loop():
    # arrivals stop at q=4999: a finite window of 5,000 states
    p = policy_from_pieces([[0, 4998, 0.5]], 0.0, [], 0.6)
    assert recurrent_window(p) == (0, 4999)
    sr = stationary(p)
    assert (sr.q_max, sr.tail_mass) == (4999, 0.0)
    _assert_matches_loop(p, sr)


def _loop_cases():
    """(kind, policy) pairs covering each way the stationary window ends."""
    rng = np.random.default_rng(20)
    cases = []
    for transient in (False, True):
        for _ in range(3):
            cases.append(("finite", random_policy(rng, transient, finite=True)))
            cases.append(("geometric", random_policy(rng, transient)))
    # arrivals never vanish in the rules but the tail is 0: the window
    # ends at horizon + 1, where mu_tail enters the recursion
    cases.append(("horizon+1", dense_policy([0.6, 0.5, 0.5, 0.3], [0.0, 0.4, 0.2, 0.7],
                                            0.0, 0.9)))
    cases.append(("horizon+1", dense_policy([0.3, 0.8, 0.8, 0.8, 0.2],
                                            [0.0, 0.0, 0.0, 0.5, 0.6], 0.0, 0.35)))
    cases.append(("geometric", policy_from_pieces([(0, 400, 0.45)], 0.3,
                                                  [(1, 400, 0.5)], 0.9)))
    return cases


LOOP_CASES = _loop_cases()


@pytest.mark.parametrize("kind,p", LOOP_CASES,
                         ids=["%s-%d" % (k, i) for i, (k, _) in enumerate(LOOP_CASES)])
def test_stationary_metrics_match_loop(kind, p):
    sr = stationary(p)
    if kind == "finite":
        assert sr.q_max <= p.horizon
    elif kind == "horizon+1":
        assert sr.q_max == p.horizon + 1 and sr.tail_mass == 0.0
    else:
        assert sr.q_max == p.horizon and sr.tail_mass > 0.0
    _assert_matches_loop(p, sr)


def test_mm1_metrics_closed_forms():
    m = exact_metrics(constant_policy(0.4, 1.0), CSQ, IDENT)
    assert abs(m.qbar - 2.0 / 3.0) < 1e-10
    assert abs(m.cbar - 0.4) < 1e-10
    assert abs(m.ubar - 0.4) < 1e-10
    assert abs(m.dbar - 5.0 / 3.0) < 1e-10


def test_two_level_metrics_hand_values():
    m = exact_metrics(two_level(), CSQ)
    assert abs(m.qbar - float(Fraction(164, 129))) < 1e-10
    assert abs(m.cbar - float(Fraction(59, 215))) < 1e-10


def test_transient_offset():
    # dead states 1..3 shift the recurrent window up by three
    p = policy_from_pieces([], 0.4, [(1, 3, 0.0)], 1.0)
    m = exact_metrics(p, CSQ)
    base = exact_metrics(constant_policy(0.4, 1.0), CSQ)
    assert abs(m.qbar - (3.0 + base.qbar)) < 1e-10
    assert abs(m.cbar - base.cbar) < 1e-10


def test_degenerate_single_state():
    # arrivals stop at q>=1: recurrent window is {0, 1}
    p = policy_from_pieces([(1, 1, 0.0)], 0.4, [], 1.0)
    sr = stationary(p)
    z = 1.0 + 0.4
    assert abs(pi_at(sr, 0) - 1.0 / z) < 1e-12
    assert abs(pi_at(sr, 1) - 0.4 / z) < 1e-12
    m = exact_metrics(p, CSQ)
    assert abs(m.qbar - 0.4 / z) < 1e-12


def test_metrics_rate_domain_error():
    narrow = power_function(2.0, domain=(0.0, 0.5))
    with pytest.raises(ValueError):
        exact_metrics(constant_policy(0.4, 1.0), narrow)


@pytest.mark.parametrize("seed", range(10))
def test_dense_solve_agreement(seed):
    rng = np.random.default_rng(100 + seed)
    p = random_policy(rng, transient=seed % 3 == 0, finite=seed % 4 == 0)
    sr = stationary(p)
    n = 450 if math.isinf(recurrent_window(p)[1]) else p.horizon + 1
    dense = oracles.dense_stationary(p.arrival, p.service, n)
    for q in range(min(n, 200)):
        assert abs(pi_at(sr, q) - dense[q]) < 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_stationary_invariants(seed):
    rng = np.random.default_rng(40 + seed)
    p = random_policy(rng, transient=seed % 2 == 0, finite=seed % 3 == 0)
    sr = stationary(p)
    lo, hi = sr.window
    assert mass_below(sr, sr.q_max + 1) + sr.tail_mass == pytest.approx(1.0, abs=1e-12)
    # detailed balance on the stored window
    for q in range(lo, sr.q_max):
        lhs = pi_at(sr, q) * p.arrival(q)
        rhs = pi_at(sr, q + 1) * p.service(q + 1)
        if pi_at(sr, q) > 0:
            assert abs(lhs - rhs) / max(pi_at(sr, q), 1e-300) < 1e-10
    # log-concavity: successive ratios non-increasing for admissible policies
    if is_admissible(p):
        prev = math.inf
        for q in range(lo, sr.q_max):
            if pi_at(sr, q) > 1e-250:
                ratio = pi_at(sr, q + 1) / pi_at(sr, q)
                assert ratio <= prev + 1e-12
                prev = ratio


@pytest.mark.parametrize("seed", range(8))
def test_metrics_invariants(seed):
    rng = np.random.default_rng(70 + seed)
    p = random_policy(rng, finite=seed % 3 == 0)
    m = exact_metrics(p, CSQ, IDENT)
    assert abs(m.mean_arrival - m.mean_service) < 1e-8
    assert m.dbar * m.mean_arrival == pytest.approx(m.qbar, rel=1e-12)
    # Jensen both ways
    assert m.cbar >= evaluate(CSQ, m.mean_service) - 1e-10
    assert m.ubar <= evaluate(IDENT, m.mean_arrival) + 1e-10


def test_feasibility_verdicts():
    assert feasibility(CSQ, IDENT, 0.15, 0.4) == "infeasible"
    assert feasibility(CSQ, IDENT, 0.16, 0.4) == "boundary"
    assert feasibility(CSQ, IDENT, 0.2, 0.4) == "feasible"


def test_qlength_upper_bound_mm1():
    p = constant_policy(0.4, 1.0)
    b = qlength_upper_bound(p)
    assert abs(b - float(Fraction(17, 6))) < 1e-12
    assert b >= exact_metrics(p, CSQ).qbar


def test_qlength_upper_bound_two_level():
    p = two_level()
    b = qlength_upper_bound(p)
    assert b >= exact_metrics(p, CSQ).qbar
    assert b < math.inf


def test_qlength_upper_bound_error():
    with pytest.raises(ValueError):
        qlength_upper_bound(constant_policy(0.5, 0.5))


@given(seed=st.integers(0, 10 ** 6))
def test_upper_bound_dominates(seed):
    rng = np.random.default_rng(seed)
    p = random_policy(rng)
    assert qlength_upper_bound(p) >= exact_metrics(p, CSQ).qbar - 1e-9


def runs_policy(runs, lam_tail, mu_tail):
    """Policy of consecutive (length, lam, mu) runs from state 0 on."""
    lam, mu, q = [], [], 0
    for n, a, b in runs:
        lam.append([q, q + n - 1, a])
        mu.append([q, q + n - 1, b])
        q += n
    return policy_from_pieces(lam, lam_tail, mu, mu_tail)


# (id, runs, lam_tail, mu_tail): segments with rho > 1, rho < 1, rho = 1
# and |log rho| near 1e-9 (where the mean's closed form takes its series,
# at the switch n |log rho| = 1e-2 and past it), transient states, finite
# windows and heads far beyond any per-state array
NEAR = 0.4 * (1.0 + 1e-9)
MP_CHAINS = [
    ("up-down", [(1, 0.6, 0.0), (20, 0.6, 0.4), (30, 0.45, 0.9)], 0.3, 0.9),
    ("plateau", [(1, 0.4, 0.0), (1000, 0.4, 0.4)], 0.4, 0.5),
    ("near-unit", [(1, 0.4, 0.0), (50, 0.4, NEAR), (50, NEAR, 0.4)], 0.4, 0.6),
    ("series-edge", [(1, 0.4, 0.0), (10, 0.4, 0.40036), (7, 0.40036, 0.4),
                     (100, 0.4000004, 0.4)], 0.4, 0.6),
    ("near-unit-switch", [(1, 0.4, 0.0), (10 ** 7, NEAR, 0.4), (10 ** 7, 0.4, NEAR)],
     0.4, 0.6),
    ("near-unit-long", [(1, 0.4, 0.0), (10 ** 8, 0.4, NEAR)], 0.4, 0.6),
    ("transient", [(4, 0.5, 0.0), (10, 0.5, 0.8)], 0.5, 0.9),
    ("finite", [(1, 0.7, 0.0), (10, 0.7, 0.5), (5, 0.0, 0.9)], 0.0, 0.9),
    ("finite-transient-plateau", [(3, 0.5, 0.0), (100, 0.5, 0.5), (1, 0.0, 0.5)],
     0.0, 0.5),
    ("billion", [(1, 0.4, 0.0), (10 ** 9, 0.4, 0.5)], 0.4, 0.5),
    ("mc23-2^-40", [(1, 0.4, 0.0), (2 ** 40, 0.4, 0.4)], 0.4, 0.5),
]


@pytest.mark.parametrize("runs,lam_tail,mu_tail", [c[1:] for c in MP_CHAINS],
                         ids=[c[0] for c in MP_CHAINS])
def test_segments_match_mpmath(runs, lam_tail, mu_tail):
    p = runs_policy(runs, lam_tail, mu_tail)
    sr = stationary(p)
    ref = oracles.MpChain(runs, lam_tail, mu_tail, dps=50)
    states, q = {0, 1}, 0
    for n, _, _ in runs:
        states |= {q, q + 1, q + n // 3, q + n - 2, q + n - 1, q + n}
        q += n
    states |= {q + 1, q + 7, q + 40}
    tiny = np.finfo(float).tiny
    for s in sorted(x for x in states if x >= 0):
        assert pi_at(sr, s) == pytest.approx(ref.pi(s), rel=1e-12, abs=tiny), s
        assert mass_below(sr, s) == pytest.approx(ref.mass_below(s), rel=1e-12, abs=tiny), s
    for u, mp_u in ((None, None), (IDENT, lambda r: r)):
        got = metrics(p, sr, CSQ, u)
        np.testing.assert_allclose(tuple(got), ref.metrics(lambda r: r * r, mp_u),
                                   rtol=1e-12, atol=0.0)
