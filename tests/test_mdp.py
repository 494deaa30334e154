import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import spsolve

import oracles
import qtl.mdp as mdp
from qtl import (
    LagrangianProblem,
    Policy,
    constant_policy,
    discrete_function,
    exact_metrics,
    inverse,
    is_admissible,
    power_function,
    solve,
    trace_tradeoff,
    uniform_actions,
)
from qtl.birth_death import rate_value

S = [0, 0.2, 0.4, 0.5, 0.6, 0.8, 1]
CDISC = discrete_function([(s, s * s) for s in S])
CSQ = power_function(2.0)
IDENT = power_function(1.0, role="utility")
USQRT = power_function(0.5, role="utility")


def problem(beta1, cap=500):
    return LagrangianProblem(beta1, 0.0, S, [0.4], CDISC, None, state_cap=cap)


def random_chain(rng, window):
    """Rates on 0..n-1 with one recurrent class [q_rl, q_ru].

    Service is zero at q_rl and at random states below it, arrivals are
    zero at q_ru and at random states above it; rate scales differ so
    some stretches have lambda > mu.  ``window`` picks the class: "wide",
    a single absorbing interior state ("point", a zero diagonal) or the
    last state ("last", which then has zero service).
    """
    n = int(rng.integers(12, 300))
    if window == "wide":
        q_rl = int(rng.integers(0, n // 3))
        q_ru = int(rng.integers(max(q_rl, 2 * n // 3), n))
    else:
        q_rl = q_ru = n - 1 if window == "last" else int(rng.integers(1, n - 1))
    lam = rng.uniform(0.05, 1.0, n) * rng.choice([0.3, 1.0, 3.0], n)
    mu = rng.uniform(0.05, 1.0, n) * rng.choice([0.3, 1.0, 3.0], n)
    mu[:q_rl + 1] *= rng.random(q_rl + 1) < 0.5
    mu[0] = mu[q_rl] = 0.0
    lam[q_ru:] *= rng.random(n - q_ru) < 0.5
    lam[q_ru] = lam[-1] = 0.0
    stage = rng.uniform(0.0, 5.0, n)
    return lam, mu, stage, float(lam.max() + mu.max())


def assert_exact(lam, mu, stage, r_u):
    # _evaluate_policy equals spsolve on the per-state COO build, bit for bit
    h, g = mdp._evaluate_policy(lam, mu, stage, r_u)
    x = spsolve(oracles.coo_poisson_matrix(lam, mu, r_u), np.append(stage, 0.0))
    assert np.array_equal(h, x[:-1]) and g == x[-1]


@pytest.mark.parametrize("window", ["wide", "point", "last"])
@pytest.mark.parametrize("seed", range(4))
def test_poisson_matrix_matches_coo_build(seed, window):
    rng = np.random.default_rng(seed)
    lam, mu, stage, r_u = random_chain(rng, window)
    assert np.any(lam > mu) and np.any(lam < mu)
    want = oracles.coo_poisson_matrix(lam, mu, r_u)
    got = mdp._poisson_matrix(lam, mu, r_u)
    assert got.format == "csc"
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert got.indices.dtype == want.indices.dtype
    # the factor memo: a second stage vector on the same chain reuses the
    # factor; the same chain at another r_u, and another chain, replace it;
    # every result is the fresh oracle solve's
    assert_exact(lam, mu, stage, r_u)
    factor = mdp._factor[1]
    assert_exact(lam, mu, rng.uniform(0.0, 5.0, len(stage)), r_u)
    assert mdp._factor[1] is factor
    assert_exact(lam, mu, stage, 1.5 * r_u)
    assert mdp._factor[1] is not factor
    assert_exact(*random_chain(rng, "wide"))
    assert_exact(lam, mu, stage, r_u)


def singular_chain():
    # one recurrent class, {31, 32}: leaving states 0-25 takes about 5^26
    # steps, and SuperLU finds the Poisson matrix exactly singular
    lam = np.append(np.full(32, 0.05), 0.0)
    mu = np.full(33, 0.25)
    mu[0] = 0.0
    mu[26:32] = 0.0
    return lam, mu, np.ones(33), 1.0


def test_evaluate_policy_refusals():
    lam = np.array([0.5, 0.5, 0.0, 0.5, 0.0])
    mu = np.array([0.0, 0.5, 0.5, 0.0, 0.5])
    # lam(2) = 0 and mu(3) = 0 split the chain into two closed classes,
    # refused before SuperLU sees the matrix
    with pytest.raises(ValueError, match="singular: the first zero-arrival state q=2 "
                                         "lies below the last zero-service state q=3"):
        mdp._evaluate_policy(lam, mu, np.ones(5), 1.0)
    with pytest.raises(ValueError, match="single-class chain is numerically singular"):
        mdp._evaluate_policy(*singular_chain())
    lam[-1] = 0.5
    with pytest.raises(ValueError):
        mdp._evaluate_policy(lam, mu, np.ones(5), 1.0)


@pytest.mark.parametrize("bad", [
    (np.array([0.5, 0.5, 0.0, 0.5, 0.0]), np.array([0.0, 0.5, 0.5, 0.0, 0.5]),
     np.ones(5), 1.0),
    singular_chain(),
])
def test_evaluation_after_a_failed_one_is_exact(bad):
    # a refused or singular evaluation leaves no factor behind, and the
    # next evaluation, of the chain factored before it, is exact
    lam, mu, stage, r_u = random_chain(np.random.default_rng(11), "wide")
    assert_exact(lam, mu, stage, r_u)
    with pytest.raises(ValueError, match="singular"):
        mdp._evaluate_policy(*bad)
    assert mdp._factor is None
    assert_exact(lam, mu, 2.0 * stage, r_u)


def test_trace_factors_each_policy_once(monkeypatch):
    # a one-beta2 trace chains its solves: each warm solve first evaluates
    # the policy the previous solve ended on, and reuses its factor, so
    # SuperLU runs once per policy evaluated
    base = LagrangianProblem(0.0, 0.0, S, [0.4], CDISC, None, state_cap=300)
    keys, factored = [], []
    evaluate, splu = mdp._evaluate_policy, scipy.sparse.linalg.splu

    def recording_evaluate(lam, mu, stage, r_u):
        keys.append((lam.tobytes(), mu.tobytes()))
        return evaluate(lam, mu, stage, r_u)

    def counting_splu(a):
        # the last factor is released before the next one is built
        assert mdp._factor is None
        factored.append(a)
        return splu(a)

    monkeypatch.setattr(mdp, "_factor", None)
    monkeypatch.setattr(mdp, "_evaluate_policy", recording_evaluate)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    pts, fails = trace_tradeoff(base, np.geomspace(10.0, 1.2e4, 12).tolist(), [0.0])
    assert not fails and len(pts) == 12
    # and each of the 11 warm solves starts with a reused factor
    assert len(factored) == len(set(keys)) <= len(keys) - 11


def test_problem_validation():
    with pytest.raises(ValueError):
        LagrangianProblem(-1.0, 0.0, S, [0.4], CDISC, None)
    with pytest.raises(ValueError):
        LagrangianProblem(0.0, 0.0, [], [0.4], CDISC, None)
    with pytest.raises(ValueError):
        LagrangianProblem(0.0, 0.0, S, [-0.4], CDISC, None)
    with pytest.raises(ValueError):
        LagrangianProblem(0.0, 0.0, S, [0.4], CDISC, None, state_cap=5)
    with pytest.raises(ValueError):
        LagrangianProblem(0.0, 1.0, S, [0.4], CDISC, None)


def test_unpriced_action_refused():
    # a rate the cost or the utility cannot price is refused when the
    # problem is built, not at each solve, and the error names it
    with pytest.raises(ValueError, match="rate 0.3 is not a sample"):
        LagrangianProblem(0.0, 0.0, [0.0, 0.3, 1.0], [0.4], CDISC, None)
    with pytest.raises(ValueError, match="rate 2 outside domain"):
        LagrangianProblem(0.0, 1.0, S, [0.4, 2.0], CDISC, IDENT)


def test_with_multipliers(monkeypatch):
    lp = LagrangianProblem(0.0, 0.0, S, [0.4], CDISC, IDENT)
    no_utility = problem(0.0)

    def refuse(actions, name):
        raise AssertionError("the %s actions were checked again" % name)

    # a derived problem shares the base's checked action sets and sides
    monkeypatch.setattr(mdp, "_rates", refuse)
    lp2 = lp.with_multipliers(3.0, 2.0)
    assert (lp2.beta1, lp2.beta2) == (3.0, 2.0) and (lp.beta1, lp.beta2) == (0.0, 0.0)
    assert lp2.service_actions == lp.service_actions
    assert lp2.state_cap == lp.state_cap
    assert lp2._service is lp._service and lp2._arrival is lp._arrival
    with pytest.raises(ValueError, match="beta1"):
        lp.with_multipliers(math.nan, 0.0)
    with pytest.raises(ValueError, match="beta2"):
        lp.with_multipliers(0.0, -1.0)
    with pytest.raises(ValueError, match="utility"):
        no_utility.with_multipliers(1.0, 1.0)


def test_uniform_actions():
    a = uniform_actions(1.0)
    assert len(a) == 201 and a[0] == 0.0 and a[-1] == 1.0
    assert uniform_actions(0.5, n=6) == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    with pytest.raises(ValueError):
        uniform_actions(1.0, n=1)


def test_zero_cost_weight_serves_at_max():
    r = solve(problem(0.0))
    assert r.monotone
    states = range(1, r.policy.horizon + 1)
    assert all(r.policy.service(q) == 1.0 for q in states)
    m = exact_metrics(r.policy, CDISC)
    assert abs(m.qbar - 2.0 / 3.0) < 1e-9


def test_large_cost_weight_near_envelope():
    r = solve(problem(50.0))
    m = exact_metrics(r.policy, CDISC)
    assert 0.160 <= m.cbar <= 0.210
    recomb = m.qbar + 50.0 * m.cbar
    assert abs(r.gain * problem(50.0).r_u - recomb) < 1e-6


def test_single_action_matches_exact_metrics():
    lp = LagrangianProblem(0.0, 0.0, [1.0], [0.3], CSQ, None, state_cap=500)
    r = solve(lp)
    m = exact_metrics(r.policy, CSQ)
    ref = exact_metrics(constant_policy(0.3, 1.0), CSQ)
    assert abs(m.qbar - ref.qbar) < 1e-8
    assert abs(m.cbar - ref.cbar) < 1e-8


def test_gain_history_monotone():
    r = solve(problem(50.0))
    hist = r.gain_history
    assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))


def test_solve_deterministic():
    a = solve(problem(7.0))
    b = solve(problem(7.0))
    assert a.policy == b.policy
    assert oracles.per_state_rules(a.policy) == oracles.per_state_rules(b.policy)
    assert a.gain == b.gain


def test_utility_side():
    lp = LagrangianProblem(0.0, 5.0, [1.0], [0.3, 0.45], CSQ, IDENT,
                           state_cap=200)
    r = solve(lp)
    m = exact_metrics(r.policy, CSQ, IDENT)
    recomb = m.qbar + 0.0 * m.cbar - 5.0 * m.ubar
    assert abs(r.gain * lp.r_u - recomb) < 1e-6
    # reported point satisfies the feasibility inequality
    assert inverse(IDENT, m.ubar) <= inverse(CSQ, m.cbar) + 1e-9


def test_cap_state_keeps_positive_service():
    # a huge cost weight parks the chain near the cap; the cap state must
    # still serve, or the evaluation chain would have two recurrent classes
    lp = problem(1e6, cap=50)
    r = solve(lp)
    assert r.policy.service(r.policy.horizon) > 0.0
    assert math.isfinite(r.gain)


def test_all_zero_service_rejected():
    lp = LagrangianProblem(1.0, 0.0, [0.0], [0.3], CDISC, None, state_cap=50)
    with pytest.raises(ValueError):
        solve(lp)


def test_iteration_cap(monkeypatch):
    monkeypatch.setattr(mdp, "MAX_ITERATIONS", 0)
    with pytest.raises(ValueError):
        solve(problem(1.0))


def test_trace_single_point():
    pts, fails = trace_tradeoff(problem(0.0, cap=300), [0.0], [0.0])
    assert not fails and len(pts) == 1
    assert abs(pts[0].c_c - 0.4) < 1e-9
    assert abs(pts[0].q_star - 2.0 / 3.0) < 1e-9
    assert not pts[0].dominated


def test_trace_empty_grid():
    with pytest.raises(ValueError):
        trace_tradeoff(problem(0.0), [], [0.0])


def test_trace_sweep_monotone():
    grid = [0.0, 2.0, 10.0, 50.0]
    pts, fails = trace_tradeoff(problem(0.0, cap=300), grid, [0.0])
    assert not fails
    by_beta = sorted(pts, key=lambda p: p.beta1)
    for a, b in zip(by_beta, by_beta[1:]):
        assert b.c_c <= a.c_c + 1e-12
        assert b.q_star >= a.q_star - 1e-12
    # sorted output is by achieved cost
    ccs = [p.c_c for p in pts]
    assert ccs == sorted(ccs)


def test_trace_records_failures(monkeypatch):
    monkeypatch.setattr(mdp, "MAX_ITERATIONS", 0)
    pts, fails = trace_tradeoff(problem(0.0, cap=200), [0.0, 1.0], [0.0])
    assert not pts
    assert len(fails) == 2
    assert "converge" in fails[0].error


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_bad_multipliers_refused(bad):
    with pytest.raises(ValueError, match="beta1"):
        LagrangianProblem(bad, 0.0, S, [0.4], CDISC)
    with pytest.raises(ValueError, match="beta2"):
        LagrangianProblem(0.0, bad, S, [0.4], CDISC, IDENT)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bad_action_rates_refused(bad):
    # before, a NaN rate reached policy evaluation and read as a singular chain
    with pytest.raises(ValueError, match="service actions"):
        LagrangianProblem(1.0, 0.0, [bad, 0.5, 1.0], [0.4], CDISC)
    with pytest.raises(ValueError, match="arrival actions"):
        LagrangianProblem(1.0, 0.0, S, [0.4, bad], CDISC)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1e-9])
def test_bad_tol_refused(tol):
    # tol = inf stopped after one improvement step with a non-optimal policy
    # marked converged
    with pytest.raises(ValueError, match="tol"):
        solve(problem(1000.0, cap=50), tol)
    with pytest.raises(ValueError, match="tol"):
        trace_tradeoff(problem(0.0, cap=50), [0.0, 1000.0], [0.0], tol)


def test_duplicate_rates_dropped():
    lp = LagrangianProblem(50.0, 0.0, S + S[::-1], [0.4, 0.4], CDISC, state_cap=100)
    assert lp.service_actions == S and lp.arrival_actions == [0.4]
    a, b = solve(lp), solve(problem(50.0, cap=100))
    assert a.policy == b.policy and a.gain_history == b.gain_history


def test_trace_nan_point_is_a_failure():
    pts, fails = trace_tradeoff(problem(0.0, cap=200), [0.0, math.nan], [0.0])
    assert [p.beta1 for p in pts] == [0.0]
    assert len(fails) == 1 and math.isnan(fails[0].beta1)
    assert "beta1" in fails[0].error
    # a NaN ahead of a negative multiplier does not hide it from the grid check
    with pytest.raises(ValueError, match="non-negative"):
        trace_tradeoff(problem(0.0, cap=200), [math.nan, -1.0], [0.0])


def test_trace_huge_state_cap_is_a_failure():
    # 10^12 states fail to allocate at once; each point records it, naming
    # the option, and the grid goes on
    pts, fails = trace_tradeoff(problem(0.0, cap=10 ** 12), [0.0, 5.0], [0.0])
    assert pts == [] and [f.beta1 for f in fails] == [0.0, 5.0]
    assert all("state_cap" in f.error for f in fails)


def test_cap_doubling_insensitive():
    m1 = exact_metrics(solve(problem(50.0, cap=500)).policy, CDISC)
    m2 = exact_metrics(solve(problem(50.0, cap=1000)).policy, CDISC)
    assert abs(m1.qbar - m2.qbar) < 1e-6
    assert abs(m1.cbar - m2.cbar) < 1e-6


def test_solved_policies_admissible_or_flagged():
    for beta1 in (0.0, 5.0, 200.0):
        r = solve(problem(beta1))
        assert r.monotone == is_admissible(r.policy)
        assert r.monotone


def _random_problem(rng):
    grid = [0.1 * i for i in range(11)]
    srv = rng.choice(grid, size=int(rng.integers(2, 6)), replace=False).tolist()
    arr = rng.choice(grid[:9], size=int(rng.integers(1, 4)), replace=False).tolist()
    if max(srv) == 0.0:
        srv.append(1.0)
    beta2 = 0.0 if rng.random() < 0.3 else 10 ** rng.uniform(-1, 1.5)
    return LagrangianProblem(10 ** rng.uniform(-1, 2.5), beta2, srv, arr, CSQ,
                             [IDENT, power_function(0.5, role="utility")][rng.integers(2)],
                             state_cap=int(rng.integers(10, 15)))


def _random_wide_problem(rng):
    # 17-25 rates on each side under a strictly convex cost and a strictly
    # concave utility, so both improvement rules take the window
    grid = [0.02 * i for i in range(51)]
    srv = rng.choice(grid, size=int(rng.integers(17, 26)), replace=False).tolist()
    arr = rng.choice(grid[:46], size=int(rng.integers(17, 26)), replace=False).tolist()
    beta2 = 0.0 if rng.random() < 0.3 else 10 ** rng.uniform(-1, 1.5)
    return LagrangianProblem(10 ** rng.uniform(-1, 2.5), beta2, srv, arr,
                             [CSQ, power_function(3.0)][rng.integers(2)],
                             [USQRT, power_function(0.75, role="utility")][rng.integers(2)],
                             state_cap=int(rng.integers(10, 15)))


def _check_exact_policy_iteration(rng, make_problem, count):
    # on problems whose every improvement row has a best action ahead of the
    # runner-up by more than 1e-9, rounding cannot pick another action: solve
    # must take the exact-rational oracle's path under the same rules; returns
    # the problems checked
    checked = []
    while len(checked) < count:
        lp = make_problem(rng)
        srv_cost = [lp.beta1 * rate_value(lp.cost_fn, a) for a in lp.service_actions]
        arr_cost = [-lp.beta2 * rate_value(lp.utility_fn, a) for a in lp.arrival_actions]
        try:
            lam, mu, g, iterations, gap = oracles.exact_policy_iteration(
                lp.service_actions, srv_cost, lp.arrival_actions, arr_cost,
                lp.state_cap + 1, 1e-9)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                solve(lp)
            continue
        if gap is not None and gap <= 1e-9:
            continue
        res = solve(lp)
        assert oracles.per_state_rules(res.policy) == (lam, mu)
        assert res.gain == pytest.approx(float(g), rel=1e-12, abs=0)
        assert res.iterations == iterations
        # a warm start from another multiplier's policy ends at the same one
        other = solve(lp.with_multipliers(2 * lp.beta1, lp.beta2)).policy
        warm = solve(lp, start=other)
        assert oracles.per_state_rules(warm.policy) == (lam, mu)
        assert warm.gain == pytest.approx(float(g), rel=1e-12, abs=0)
        checked.append(lp)
    return checked


def test_solve_matches_exact_policy_iteration():
    _check_exact_policy_iteration(np.random.default_rng(2024), _random_problem, 20)


def test_windowed_solve_matches_exact_policy_iteration():
    for lp in _check_exact_policy_iteration(np.random.default_rng(11), _random_wide_problem, 12):
        assert lp._service.wide and lp._arrival.wide


def _wide_menu(data, role, kind):
    # 17-201 rates with 0: a uniform grid or random ones, and the function
    # over them: strictly convex (concave for a utility) or linear, whose
    # columns all tie at one slope; or, on a uniform grid, a discrete set
    # whose first kink bends the wrong way
    k = data.draw(st.integers(17, 201))
    if kind == "discrete" or data.draw(st.booleans()):
        rates = uniform_actions(data.draw(st.sampled_from([0.5, 1.0, 3.0])), k)
    else:
        rates = [0.0] + data.draw(st.lists(st.floats(1e-3, 2.0), min_size=k - 1,
                                           max_size=k - 1, unique=True))
    top = max(rates)
    if kind == "discrete":
        steps = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=k - 3, max_size=k - 3))
        kink = [1.0, 1e-3] if role == "cost" else [1e-3, 1.0]
        return rates, discrete_function(zip(rates, np.cumsum([0.0] + kink + steps)), role)
    p = data.draw(st.sampled_from([1.5, 2.0, 3.0])) if kind == "convex" else 1.0
    return rates, power_function(p if role == "cost" else 1 / p, (0.0, top), role)


def test_convex():
    x = np.array([0.0, 0.25, 0.5, 1.0, 3.0])
    assert mdp._convex(x, 2.0 * x + 1.0)      # exact: the points are collinear
    c = np.array([0.0, 1.0, 5.0, 9.0, 16.0])  # c[2] on the chord of its neighbours
    x = np.arange(5.0)
    assert mdp._convex(x, c)
    up, down = c.copy(), c.copy()
    up[2], down[2] = np.nextafter(5.0, np.inf), np.nextafter(5.0, -np.inf)
    assert not mdp._convex(x, up)      # one ulp above its chord
    assert mdp._convex(x, down)        # one ulp below
    assert not mdp._convex(x, np.append(c[:-1], np.inf))


def test_window_matches_full_table():
    # on a convex side the windowed row minimizer returns the full table's
    # argmin and minimum bit for bit, on any slope, and evaluates in full the
    # rows whose guard columns fail (on a linear menu, the rows at its one
    # slope); linear menus are windowed, non-convex discrete ones are not
    full_rows, windowed = [], []

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def check(data):
        kinds = [data.draw(st.sampled_from(["convex", "collinear"])) for _ in range(2)]
        service, cost = _wide_menu(data, "cost", kinds[0])
        arrival, utility = _wide_menu(data, "utility", kinds[1])
        lp = LagrangianProblem(1.0, 1.0, service, arrival, cost, utility, state_cap=10)
        for side, kind in zip((lp._service, lp._arrival), kinds):
            assert side.wide or kind == "convex"
            if not side.wide:
                continue
            beta = data.draw(st.sampled_from([0.0, 0.01, 1.0, 30.0, 1e4]))
            rule = mdp._Rule(side, beta, 0)
            kinks = rule.slopes[data.draw(st.lists(st.integers(0, len(rule.slopes) - 1),
                                                   max_size=10))]
            d = np.concatenate([
                kinks, np.nextafter(kinks, np.inf), np.nextafter(kinks, -np.inf),
                [0.0, -0.0, 1e12, -1e12],
                data.draw(st.lists(st.floats(-1e4, 1e4), max_size=20))])
            table = np.multiply.outer(d, side.w) + rule.cost[:-1]
            want = np.argmin(table, axis=1)
            pick, low, full = rule.window(d)
            assert pick.tolist() == want.tolist()
            assert low.tobytes() == table[np.arange(len(d)), want].tobytes()
            full_rows.append(len(full))
            windowed.append(kind)
        service, cost = _wide_menu(data, "cost", "discrete")
        arrival, utility = _wide_menu(data, "utility", "discrete")
        lp = LagrangianProblem(1.0, 1.0, service, arrival, cost, utility, state_cap=10)
        assert not (lp._service.wide or lp._arrival.wide)

    check()
    assert sum(full_rows) > 0 and "convex" in windowed


def test_best_tie_rule():
    # exact float ties go to the first column: the smallest service rate,
    # and in the arrival columns' descending layout the largest arrival rate
    lp = LagrangianProblem(1.0, 1.0, [0.0, 0.5, 1.0], [0.2, 0.4, 0.6], CSQ, USQRT,
                           state_cap=10)
    srv, arr = lp._service.rates, lp._arrival.rates
    assert srv.tolist() == [0.0, 0.5, 1.0, 0.0] and arr.tolist() == [0.6, 0.4, 0.2, 0.0]
    service = np.array([[0.3, -0.1, -0.1],
                        [-0.2, -0.2, 0.4],
                        [np.inf, 0.7, 0.7]])   # the cap row, zero rate at +inf
    pick, low = mdp._best(service)
    assert srv[pick].tolist() == [0.5, 0.0, 0.5]
    assert low.tolist() == [-0.1, -0.2, 0.7]
    arrival = np.array([[0.25, 0.25, 0.25], [0.9, -0.5, -0.5], [0.1, 0.3, 0.1]])
    pick, low = mdp._best(arrival)
    assert arr[pick].tolist() == [0.6, 0.4, 0.6]
    assert low.tolist() == [0.25, -0.5, 0.1]
    # +inf is never picked, however large the finite entries
    pick, _ = mdp._best(np.array([[np.inf, 1e308, 1e308], [np.inf, np.inf, -0.0]]))
    assert pick.tolist() == [1, 2]


class _ServedAtZero(Policy):
    # reads mu(0) = 0.5, which Policy itself refuses to build
    def runs(self, rule):
        starts, rates = super().runs(rule)
        return (starts, [0.5] + rates[1:]) if rule == "mu" else (starts, rates)


def test_bad_start_refused():
    lp = problem(5.0, cap=40)
    good = solve(lp).policy
    assert solve(lp, start=good).policy == good
    lam_runs = list(zip(*good.runs("lam")))[:-1]
    mu_runs = list(zip(*good.runs("mu")))[:-1]
    bad = [
        solve(problem(5.0, cap=41)).policy,                         # another state_cap
        Policy([(0, 0.4), (40, 0.0)], [(0, 0.0), (1, 0.45)], 0.0, 0.45, 40),
        Policy([(0, 0.3), (40, 0.0)], [(0, 0.0), (1, 1.0)], 0.0, 1.0, 40),
        Policy([(0, 0.4)], [(0, 0.0), (1, 1.0)], 0.4, 1.0, 40),     # lambda(cap) = 0.4
        _ServedAtZero(lam_runs, mu_runs, 0.0, 1.0, 40),
        "not a policy",
    ]
    for start in bad:
        with pytest.raises(ValueError, match="start"):
            solve(lp, start=start)


def test_failed_start_runs_again_cold():
    # from the beta2 = 100 policy, policy iteration at beta2 = 1 reaches a
    # policy with two closed classes; solve then runs from the largest rates
    lp = LagrangianProblem(100.0, 1.0, [0.0, 0.3, 0.75], [0.0, 0.05, 0.25], CSQ, IDENT,
                           state_cap=33)
    start = solve(lp.with_multipliers(100.0, 100.0)).policy
    cold = solve(lp)
    warm = solve(lp, start=start)
    assert warm.policy == cold.policy and warm.gain_history == cold.gain_history
    # the abandoned warm run took one improvement step before its second
    # evaluation met the two closed classes; iterations counts it too
    assert cold.iterations == 3 and warm.iterations == 4


def test_single_class_numerically_singular():
    # the second policy admits at 0.05 below the cap and stops service on
    # states 26-31: its one recurrent class is {31, 32}, and leaving states
    # 0-25 takes about 5^26 steps, so SuperLU finds the Poisson system
    # singular; solve says so, and does not blame recurrent classes
    lp = LagrangianProblem(100.0, 10.0, [0.0, 0.25], [0.05, 0.3, 0.5, 0.75], CSQ, IDENT,
                           state_cap=32)
    with pytest.raises(ValueError, match="numerically singular") as info:
        solve(lp)
    assert "recurrent class" not in str(info.value)


def test_trace_warm_starts_change_nothing(monkeypatch):
    # along each beta1 row a point starts from the previous point's policy;
    # every point must equal a cold solve's, policy included
    acts = uniform_actions(1.0, 21)
    base = LagrangianProblem(0.0, 0.0, acts, acts, CSQ, USQRT, state_cap=80)
    b1, b2 = [0.5, 5.0, 40.0], [0.0, 0.7, 3.0, 12.0]
    warm, solved = [], {}

    def recording_solve(lp, tol, start=None):
        warm.append(start is not None)
        res = solved[lp.beta1, lp.beta2] = solve(lp, tol, start=start)
        return res

    monkeypatch.setattr(mdp, "solve", recording_solve)
    pts, fails = trace_tradeoff(base, b1, b2)
    monkeypatch.undo()
    assert warm == [False, True, True, True] * len(b1)
    assert not fails and len(pts) == len(b1) * len(b2)
    for p in pts:
        cold = solve(base.with_multipliers(p.beta1, p.beta2))
        m = exact_metrics(cold.policy, CSQ, USQRT)
        assert (p.c_c, p.u_c, p.q_star) == (m.cbar, m.ubar, m.qbar)
        if p.policy.runs("lam")[1] == [0.0, 0.0]:
            # admitting nothing is optimal (at beta2 = 0 and 0.7): no state
            # above 0 is reachable, and a span stop leaves their service to
            # the start -- at (5, 0.7) it differs from the cold solve's
            assert cold.policy.runs("lam") == p.policy.runs("lam")
        else:
            assert p.policy == cold.policy
        if p.policy == cold.policy:
            # a reused factor gives the float a fresh one gives
            assert solved[p.beta1, p.beta2].gain == cold.gain


@pytest.mark.parametrize("b2", [[0.0], [0.0, 1.0]])
def test_trace_chains_beta1_with_one_beta2(monkeypatch, b2):
    # the criterion-2 menu at lambda = 0.4: with one beta2 each beta1 point
    # starts from the previous one's policy, with several each beta1 row
    # starts cold; either way every point equals a cold solve's (the
    # utility only lets beta2 be positive: one arrival rate leaves no choice)
    base = LagrangianProblem(0.0, 0.0, S, [0.4], CDISC, IDENT, state_cap=300)
    b1 = np.geomspace(10.0, 1.2e4, 8).tolist()
    starts, solved = [], {}

    def recording_solve(lp, tol, start=None):
        starts.append(start)
        res = solved[lp.beta1, lp.beta2] = solve(lp, tol, start=start)
        return res

    monkeypatch.setattr(mdp, "solve", recording_solve)
    pts, fails = trace_tradeoff(base, b1, b2)
    monkeypatch.undo()
    row = [True] + [False] * (len(b2) - 1)
    want = ([True] + [False] * (len(b1) - 1)) if len(b2) == 1 else row * len(b1)
    assert [s is None for s in starts] == want
    assert not fails and len(pts) == len(b1) * len(b2)
    for p in pts:
        cold = solve(base.with_multipliers(p.beta1, p.beta2))
        m = exact_metrics(cold.policy, CDISC, IDENT)
        assert p.policy == cold.policy
        # a reused factor gives the float a fresh one gives
        assert solved[p.beta1, p.beta2].gain == cold.gain
        assert (p.c_c, p.u_c, p.q_star) == (m.cbar, m.ubar, m.qbar)


ACTION_RATES = st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.3, 0.5, 0.6, 0.75, 1.0]),
                        min_size=1, max_size=4)
MULTIPLIERS = st.sampled_from([0.5, 1.0, 3.0, 10.0, 100.0])


@settings(max_examples=200, deadline=None)
@given(service=ACTION_RATES, arrival=ACTION_RATES, cap=st.integers(10, 40),
       b1=st.lists(MULTIPLIERS, max_size=4), b2=st.lists(MULTIPLIERS, max_size=2),
       utility=st.sampled_from([IDENT, USQRT]))
def test_trace_fuzz(service, arrival, cap, b1, b2, utility):
    # any grid ends in points and failure records, never another exception;
    # a point fails only where a cold solve fails too, and each point's
    # Lagrangian value is a cold solve's (a tie may pick another optimal
    # policy, so policies are not compared)
    base = LagrangianProblem(0.0, 0.0, service, arrival, CSQ, utility, state_cap=cap)
    b1, b2 = [0.0] + b1, [0.0] + b2
    pts, fails = trace_tradeoff(base, b1, b2)
    assert len(pts) + len(fails) == len(b1) * len(b2)
    for f in fails:
        assert isinstance(f, mdp.TraceFailure)
        with pytest.raises(ValueError):
            solve(base.with_multipliers(f.beta1, f.beta2))
    for p in pts:
        try:
            cold = solve(base.with_multipliers(p.beta1, p.beta2))
        except ValueError:
            # the warm start got past a multi-class policy or a cycle that
            # the cold start runs into; there is no cold value to compare
            continue
        m = exact_metrics(cold.policy, CSQ, utility)
        want = m.qbar + p.beta1 * m.cbar - p.beta2 * m.ubar
        got = p.q_star + p.beta1 * p.c_c - p.beta2 * p.u_c
        assert got == pytest.approx(want, rel=1e-9, abs=0)
