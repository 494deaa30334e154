import math

import numpy as np
import pytest

from qtl import (
    LagrangianProblem,
    SimConfig,
    constant_policy,
    discrete_function,
    evaluate,
    exact_metrics,
    lower_convex_envelope,
    policy_from_pieces,
    power_function,
    sim,
    simulate,
    solve,
    uniform_actions,
)
from qtl.policy_families import (
    lambda_mu_policy,
    mc1_policy,
    mc21_policy,
    mc22_policy,
    mc23_policy,
)
import oracles

CSQ = power_function(2.0)
IDENT = power_function(1.0, role="utility")
USQRT = power_function(0.5, role="utility")
ENV = lower_convex_envelope(
    discrete_function([(s, s * s) for s in (0, 0.2, 0.4, 0.5, 0.6, 0.8, 1)]))
BLOCKS = (1, 7, sim.BLOCK)

# (policy, cost, utility, horizon, warmup fraction).  The first ten end
# inside the first default block, the next two span two or three.  The
# last three test the per-state P(up) list: walks that climb far above
# their start, so the list grows over many blocks, one of them past state
# 255, where a block's states no longer fit in bytes; and a trap run 3..5
# with service above it, which the list walk steps through at P(up) = 1
# and falls back onto from above, so a block must end at its first trap.
CLIMB = policy_from_pieces([[0, 299, 0.9]], 0.3, [[1, 299, 0.5]], 1.0)
ORACLE_CASES = [
    (constant_policy(0.25, 1.0), CSQ, None, 4.0, 0.0),
    (constant_policy(0.4, 1.0), CSQ, IDENT, 300.0, 0.1),
    (policy_from_pieces([], 0.4, [[1, 2, 0.5]], 1.0), CSQ, USQRT, 500.0, 0.0),
    (policy_from_pieces([[0, 3, 0.6]], 0.3, [[1, 5, 0.5]], 0.9), CSQ, None, 500.0, 0.1),
    (mc22_policy(0.39, 0.2, 0.4, 2.0 ** -6), ENV, USQRT, 2000.0, 0.1),
    (mc22_policy(0.39, 0.2, 0.4, 2.0 ** -8), ENV, None, 1500.0, 0.0),
    (mc23_policy(0.40, 0.1, 2.0 ** -5, next_corner=0.5), ENV, USQRT, 2000.0, 0.0),
    (mc1_policy(0.5, 2.0 ** -6, K=0.5), CSQ, USQRT, 2000.0, 0.1),
    (mc21_policy(0.1, 0.2, 1.0, 3), ENV, None, 1000.0, 0.1),
    (lambda_mu_policy(0.4, 2.0 ** -6, eps=0.05, K=10), CSQ, IDENT, 1000.0, 0.1),
    (mc1_policy(0.5, 2.0 ** -6, K=0.5), CSQ, USQRT, 10000.0, 0.0),
    (constant_policy(0.4, 1.0), CSQ, IDENT, 12000.0, 0.1),
    (constant_policy(0.95, 1.0), CSQ, IDENT, 6000.0, 0.1),
    (CLIMB, CSQ, IDENT, 2000.0, 0.1),
    (policy_from_pieces([[3, 5, 0.0]], 0.9, [[3, 5, 0.0]], 1.0), CSQ, USQRT, 800.0, 0.0),
]


def test_same_seed_same_numbers():
    p = constant_policy(0.4, 1.0)
    cfg = SimConfig(500.0, 4, 7, 0.1)
    a = simulate(p, cfg, CSQ, IDENT)
    b = simulate(p, cfg, CSQ, IDENT)
    assert a == b


def test_different_seeds_differ():
    p = constant_policy(0.4, 1.0)
    a = simulate(p, SimConfig(500.0, 4, 1, 0.1), CSQ)
    b = simulate(p, SimConfig(500.0, 4, 2, 0.1), CSQ)
    assert a.qbar != b.qbar


def test_counts_follow_the_count_rule():
    # 2.5 or NaN replications and a 0.5 seed ended in a TypeError, and True
    # ran one replication
    p = constant_policy(0.4, 1.0)
    assert (simulate(p, SimConfig(50.0, 2.0, 3.0, 0.1), CSQ)
            == simulate(p, SimConfig(50.0, 2, 3, 0.1), CSQ))
    for reps, seed, message in [(2.5, 1, "replications must be an integer, got 2.5"),
                                (math.nan, 1, "replications must be a finite number, got nan"),
                                (True, 1, "replications must be an integer, got True"),
                                (2, 0.5, "seed must be an integer, got 0.5"),
                                (2, "1", "seed must be an integer, got '1'")]:
        with pytest.raises(ValueError) as err:
            simulate(p, SimConfig(50.0, reps, seed, 0.1), CSQ)
        assert str(err.value) == message


def test_matches_exact_analytics():
    p = constant_policy(0.4, 1.0)
    m = exact_metrics(p, CSQ, IDENT)
    est = simulate(p, SimConfig(20000.0, 10, 11, 0.1), CSQ, IDENT)
    assert abs(est.qbar - m.qbar) <= 3 * est.qbar_halfwidth
    assert abs(est.cbar - m.cbar) <= 3 * est.cbar_halfwidth
    assert abs(est.ubar - m.ubar) <= 3 * est.ubar_halfwidth


def test_two_level_matches_exact_analytics():
    p = policy_from_pieces([], 0.4, [[1, 2, 0.5]], 1.0)
    m = exact_metrics(p, CSQ)
    est = simulate(p, SimConfig(20000.0, 10, 3, 0.1), CSQ)
    assert abs(est.qbar - m.qbar) <= 3 * est.qbar_halfwidth
    assert abs(est.cbar - m.cbar) <= 3 * est.cbar_halfwidth


def test_single_replication_infinite_halfwidth():
    est = simulate(constant_policy(0.4, 1.0),
                   SimConfig(200.0, 1, 0, 0.1), CSQ)
    assert math.isinf(est.qbar_halfwidth)
    assert math.isinf(est.cbar_halfwidth)
    assert est.replications == 1


def test_unstable_policy_refused():
    # lambda >= mu at the tail: the queue drifts off and has no averages
    for lam, mu in ((0.6, 0.5), (0.5, 0.5)):
        with pytest.raises(ValueError, match="unstable"):
            simulate(constant_policy(lam, mu), SimConfig(100.0, 2, 0, 0.1), CSQ)
    never_serves = policy_from_pieces([], 0.4, [], 0.0)
    with pytest.raises(ValueError, match="unstable"):
        simulate(never_serves, SimConfig(100.0, 2, 0, 0.1), CSQ)


def test_horizon_past_the_resolution_of_doubles_refused():
    # 1e308 ended in an OverflowError: at horizon * max(lambda + mu) >= 2**52 a
    # mean holding time is below the spacing of doubles near the horizon
    p = constant_policy(0.4, 1.0)
    bound = 2.0 ** 52 / 1.4
    for horizon in (1e308, bound):
        with pytest.raises(ValueError) as err:
            simulate(p, SimConfig(horizon, 2, 0, 0.1), CSQ)
        assert str(err.value) == ("horizon must be below 2**52 / max(lambda + mu) = %r, got %r"
                                  % (bound, horizon))


def test_config_validation():
    p = constant_policy(0.4, 1.0)
    with pytest.raises(ValueError):
        simulate(p, SimConfig(0.0, 2, 0, 0.1), CSQ)
    with pytest.raises(ValueError):
        simulate(p, SimConfig(100.0, 0, 0, 0.1), CSQ)
    with pytest.raises(ValueError):
        simulate(p, SimConfig(100.0, 2, 0, 1.0), CSQ)
    # a plain tuple ended in "AttributeError: 'tuple' object has no attribute
    # 'horizon'"
    with pytest.raises(ValueError) as err:
        simulate(p, (10000.0, 10, 0, 0.1), CSQ)
    assert str(err.value) == "cfg must be a SimConfig, got (10000.0, 10, 0, 0.1)"


def test_interval_shrinks_with_replications():
    p = constant_policy(0.4, 1.0)
    small = simulate(p, SimConfig(2000.0, 4, 5, 0.1), CSQ)
    large = simulate(p, SimConfig(2000.0, 32, 5, 0.1), CSQ)
    assert large.qbar_halfwidth < small.qbar_halfwidth


def _plain(fn):
    return None if fn is None else (lambda r: evaluate(fn, r))


@pytest.mark.parametrize("block", BLOCKS)
def test_block_kernel_matches_event_loop(monkeypatch, block):
    monkeypatch.setattr(sim, "BLOCK", block)
    for i, (p, c, u, horizon, warmup) in enumerate(ORACLE_CASES):
        got = sim._replicate(sim._runs(p, c, u), SimConfig(horizon, 1, 0, warmup),
                             np.random.SeedSequence(i))
        want = oracles.loop_replicate(p, horizon, warmup, np.random.SeedSequence(i),
                                      _plain(c), _plain(u))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


# stable policies whose recurrent class is one state with no arrivals and no
# service: state 0 (arrivals 0 there, mu(0) = 0), and q = 3 reached mid-path,
# before the warmup ends (seed 1) and after it (seed 2)
ONE_STATE_CASES = [
    (policy_from_pieces([[0, 0, 0.0]], 0.4, [], 1.0, ra_max=0.4), 100.0, 0.1),
    (policy_from_pieces([[3, 3, 0.0]], 0.4, [[3, 3, 0.0]], 1.0), 1000.0, 0.1),
    (policy_from_pieces([[3, 3, 0.0]], 0.4, [[3, 3, 0.0]], 1.0), 50.0, 0.5),
]


@pytest.mark.parametrize("block", BLOCKS)
def test_one_state_class_matches_event_loop(monkeypatch, block):
    # the walk stays in the trapping state until the horizon, as in the oracle
    monkeypatch.setattr(sim, "BLOCK", block)
    for i, (p, horizon, warmup) in enumerate(ONE_STATE_CASES):
        got = sim._replicate(sim._runs(p, CSQ, USQRT), SimConfig(horizon, 1, 0, warmup),
                             np.random.SeedSequence(i))
        want = oracles.loop_replicate(p, horizon, warmup, np.random.SeedSequence(i),
                                      _plain(CSQ), _plain(USQRT))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert simulate(ONE_STATE_CASES[1][0], SimConfig(1000.0, 2, 0, 0.1), CSQ).qbar > 2.9


def test_policy_that_admits_nothing_simulates_to_zero():
    # solve's policy at beta1 = 1000, beta2 = 10^0.5 admits nothing, so the
    # queue stays empty: every average and half-width is 0, as exact_metrics says
    acts = uniform_actions(1.0, 21)
    lp = LagrangianProblem(1000.0, 10 ** 0.5, acts, acts, CSQ, USQRT, state_cap=60)
    p = solve(lp).policy
    assert p.runs("lam") == ([0, 61], [0.0, 0.0])
    est = simulate(p, SimConfig(200.0, 3, 0, 0.1), CSQ, USQRT)
    m = exact_metrics(p, CSQ, USQRT)
    assert (m.qbar, m.cbar, m.ubar) == (0.0, 0.0, 0.0)
    assert est == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3)


# criterion-8 pairs (constant, mc22, mc1 with its geometric tail) at the
# benchmark's seed-0 configs, a trap reached mid-path and a walk past state
# 255, as the run-by-run walk estimated them: a faster walk must draw and
# sum exactly the same.  OpenBLAS sums a dot product in another order on
# AVX-512, AVX2 and older x86-64 cores, which moves the last bits of some
# half-widths, so a case lists one estimate for each order that differs.
PINNED = [
    (constant_policy(0.4, 1.0), CSQ, IDENT, SimConfig(10000.0, 10, 1000, 0.1), [
        (0.6832105118466428, 0.01379604007841163, 0.4044747962637942,
         0.005311654204173411, 0.3999999999999999, 1.0697312354203919e-16, 10)]),
    (mc22_policy(0.39, 0.2, 0.4, 2.0 ** -6), ENV, USQRT, SimConfig(10000.0, 10, 1008, 0.1), [
        (40.281224701562444, hw, 0.15249499712193104,
         0.0036903374974501728, 0.6244997998398396, 1.8492759632212005e-16, 10)
        for hw in (15.960452623785677, 15.960452623785683, 15.96045262378568)]),
    (mc1_policy(0.5, 2.0 ** -6, K=0.5), CSQ, USQRT, SimConfig(10000.0, 10, 1019, 0.1), [
        (9.153079477822144, 0.16871848688945523, 0.2760569078643817,
         0.007011763563066035, 0.7071067811865477, 1.5214979960476141e-16, 10)]),
    (ONE_STATE_CASES[1][0], CSQ, USQRT, SimConfig(40.0, 4, 3, 0.5), [
        (2.3567556029199768, 1.215952662897369, 0.08829396015561043,
         0.14574593075780745, 0.1616933875435416, 0.2972209652658324, 4)]),
    (CLIMB, CSQ, IDENT, SimConfig(2000.0, 3, 11, 0.1), [
        (262.67615017795544, hw, 0.44496298914570237,
         0.031954492560820905, 0.744029608683438, 0.02556359404865662, 3)
        for hw in (11.357445999070826, 11.357445999070812)]),
]


@pytest.mark.parametrize("case", range(len(PINNED)))
def test_estimates_pinned_bit_for_bit(case):
    p, c, u, cfg, want = PINNED[case]
    assert tuple(simulate(p, cfg, c, u)) in want
