import math

import pytest

from qtl import (
    SimConfig,
    constant_policy,
    exact_metrics,
    policy_from_pieces,
    power_function,
    simulate,
)

CSQ = power_function(2.0)
IDENT = power_function(1.0, role="utility")


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


def test_absorbing_state_rejected():
    # zero arrivals at 0 and zero service everywhere traps the chain
    p = policy_from_pieces([[0, 0, 0.0]], 0.4, [], 1.0, ra_max=0.4)
    with pytest.raises(ValueError):
        simulate(p, SimConfig(100.0, 2, 0, 0.1), CSQ)


def test_unstable_policy_refused():
    # lambda >= mu at the tail: the queue drifts off and has no averages
    for lam, mu in ((0.6, 0.5), (0.5, 0.5)):
        with pytest.raises(ValueError, match="unstable"):
            simulate(constant_policy(lam, mu), SimConfig(100.0, 2, 0, 0.1), CSQ)
    never_serves = policy_from_pieces([], 0.4, [], 0.0)
    with pytest.raises(ValueError, match="unstable"):
        simulate(never_serves, SimConfig(100.0, 2, 0, 0.1), CSQ)


def test_config_validation():
    p = constant_policy(0.4, 1.0)
    with pytest.raises(ValueError):
        simulate(p, SimConfig(0.0, 2, 0, 0.1), CSQ)
    with pytest.raises(ValueError):
        simulate(p, SimConfig(100.0, 0, 0, 0.1), CSQ)
    with pytest.raises(ValueError):
        simulate(p, SimConfig(100.0, 2, 0, 1.0), CSQ)


def test_interval_shrinks_with_replications():
    p = constant_policy(0.4, 1.0)
    small = simulate(p, SimConfig(2000.0, 4, 5, 0.1), CSQ)
    large = simulate(p, SimConfig(2000.0, 32, 5, 0.1), CSQ)
    assert large.qbar_halfwidth < small.qbar_halfwidth
