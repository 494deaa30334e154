"""Run-based policy readers against the dense per-state references.

A policy stores each rate rule as runs of constant rate.  Every reader of
those runs must return exactly what the library's earlier per-state scans
(kept in ``oracles``) return, compared with ``==``, except stationary
masses, which are summed per segment and agree to rtol 1e-12: on random
policies with and without transient states and finite windows, on every
policy family at several scales, and on policies produced by policy
iteration.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qtl import (
    CaseTag,
    LagrangianProblem,
    Policy,
    check_admissible,
    discrete_function,
    exact_metrics,
    lambda_mu_policy,
    lc_mirror_policy,
    mass_below,
    mc1_policy,
    mc21_policy,
    mc22_policy,
    mc23_policy,
    policy_from_json,
    policy_from_pieces,
    policy_to_json,
    power_function,
    qlength_upper_bound,
    recurrent_window,
    solve,
    stationary,
    uniform_actions,
)
from qtl.scaling import _first_service_at_least, _service_mass_outside
from test_birth_death import dense_policy, random_policy, random_rules

S = [0, 0.2, 0.4, 0.5, 0.6, 0.8, 1]
CDISC = discrete_function([(s, s * s) for s in S])
CSQ = power_function(2.0)
USQRT = power_function(0.5, role="utility")


def _random_cases():
    rng = np.random.default_rng(31)
    return [("random-%s-%s-%d" % (t, f, i), random_policy(rng, t, f))
            for t in (False, True) for f in (False, True) for i in range(4)]


def _family_cases():
    ks = (4, 8, 12)
    cases = [("mc1-%d" % k, mc1_policy(0.5, 2.0 ** -k, K=0.5)) for k in ks]
    cases += [("mc21-%d" % q, mc21_policy(0.1, 0.2, 1.0, q)) for q in (1, 3, 6)]
    cases += [("mc22-%d" % k, mc22_policy(0.39, 0.2, 0.4, 2.0 ** -k)) for k in (4, 10, 20)]
    cases += [("mc23-%d" % k, mc23_policy(0.40, 0.1, 2.0 ** -k, next_corner=0.5))
              for k in ks]
    cases += [("lmu-%d" % k, lambda_mu_policy(0.4, 2.0 ** -k, eps=0.05, K=10))
              for k in (4, 10, 20)]
    for fam, window in (("LC1", (0.0, 1.0)), ("LC2-1", (0.3, 0.6)), ("LC2-2", (0.3, 0.7))):
        tag = CaseTag(fam, window, None, 0.5)
        cases += [("%s-%d" % (fam, k), lc_mirror_policy(0.5, tag, 2.0 ** -k))
                  for k in (4, 8)]
    return cases


def _solve_cases():
    acts = uniform_actions(1.0, 11)
    problems = [
        ("menu-50", LagrangianProblem(50.0, 0.0, S, [0.4], CDISC, None, state_cap=300)),
        ("menu-1e4", LagrangianProblem(1e4, 0.0, S, [0.4], CDISC, None, state_cap=300)),
        ("admission", LagrangianProblem(30.0, 30.0, acts, acts, CSQ, USQRT, state_cap=200)),
        ("admission-cap", LagrangianProblem(3.0, 100.0, acts, acts, CSQ, USQRT,
                                            state_cap=200)),
        ("admission-hi", LagrangianProblem(1000.0, 100.0, acts, acts, CSQ, USQRT,
                                           state_cap=200)),
    ]
    return [("solve-" + name, solve(lp).policy) for name, lp in problems]


def _rough_cases():
    # inadmissible but stable: admissibility errors must name the same
    # first state, with a service decrease reported before an arrival
    # increase at the same state, including at the step into the tails
    return [
        ("rough-lam-first", dense_policy([0.3, 0.5, 0.5, 0.2], [0.0, 0.8, 0.5, 0.9],
                                         0.2, 1.0)),
        ("rough-same-q", dense_policy([0.5, 0.3, 0.6], [0.0, 0.9, 0.4], 0.3, 1.0)),
        ("rough-tail", dense_policy([0.2, 0.2], [0.0, 0.9], 0.3, 0.5)),
    ]


# a declared bound below the largest rate of its side is refused when the
# policy is built, so no policy with broken bounds reaches the readers
@pytest.mark.parametrize("build,message", [
    (lambda: policy_from_pieces([], 0.3, [[1, 4, 0.5]], 0.9, ra_max=0.2),
     "arrival rate 0.3 exceeds the declared bound ra_max=0.2"),
    (lambda: policy_from_pieces([], 0.3, [[1, 4, 0.5]], 0.9, r_max=0.8),
     "service rate 0.9 exceeds the declared bound r_max=0.8"),
    (lambda: Policy([(0, 0.3)], [(0, 0.0), (1, 0.5)], 0.3, 0.9, 4, r_max=0.5),
     "service rate 0.9 exceeds the declared bound r_max=0.5"),
], ids=["pieces-ra-max", "pieces-r-max", "direct-r-max"])
def test_rates_above_declared_bounds_are_refused(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_horizon_must_be_finite(horizon):
    with pytest.raises(ValueError, match="^horizon must be a finite number, got"):
        Policy([(0, 0.3)], [(0, 0.0)], 0.3, 0.9, horizon)


@pytest.mark.parametrize("start", [math.inf, math.nan])
def test_run_start_must_be_finite(start):
    # int() would raise OverflowError, or a ValueError that names nothing
    with pytest.raises(ValueError, match="^run start must be a finite number, got"):
        Policy([(0, 0.3), (start, 0.2)], [(0, 0.0)], 0.2, 1.0, 5)


# counts drawn by the contract fuzz: integral ints and floats, and values
# that a bare int() would truncate or convert
COUNTS = [2.7, True, "5", 20.7, math.nan, math.inf, 1e400, -1, 5, 5.0]

# one builder per callable that takes counts, with one argument per count
COUNT_BUILDERS = {
    "Policy": lambda horizon, start: Policy([(0, 0.3), (start, 0.2)], [(0, 0.0)],
                                            0.2, 1.0, horizon),
    "LagrangianProblem": lambda cap: LagrangianProblem(0.0, 0.0, S, [0.4], CDISC, None,
                                                       state_cap=cap),
    "mc21_policy": lambda q_k: mc21_policy(0.1, 0.2, 1.0, q_k),
    "lambda_mu_policy": lambda K: lambda_mu_policy(0.4, 0.01, eps=0.3, K=K),
}


def _integral(x):
    return ((isinstance(x, int) and not isinstance(x, bool))
            or (isinstance(x, float) and math.isfinite(x) and x.is_integer()))


@settings(max_examples=200)
@given(name=st.sampled_from(sorted(COUNT_BUILDERS)),
       counts=st.lists(st.sampled_from(COUNTS), min_size=2, max_size=2))
def test_counts_build_or_are_refused(name, counts):
    # every count either builds or is a ValueError, never another exception;
    # a count that is not an integral int or float never builds
    build = COUNT_BUILDERS[name]
    counts = counts[:build.__code__.co_argcount]
    try:
        build(*counts)
    except ValueError:
        return
    assert all(map(_integral, counts)), "%s built from %r" % (name, counts)


def test_integral_float_counts_build_unchanged():
    p = Policy([(0, 0.3), (2.0, 0.2)], [(0, 0.0)], 0.2, 1.0, 5.0)
    assert p == Policy([(0, 0.3), (2, 0.2)], [(0, 0.0)], 0.2, 1.0, 5)
    assert type(p.horizon) is int and p.runs("lam")[0] == [0, 2, 6]
    lp = LagrangianProblem(0.0, 0.0, S, [0.4], CDISC, None, state_cap=20.0)
    assert lp.state_cap == 20 and type(lp.state_cap) is int
    assert mc21_policy(0.1, 0.2, 1.0, 5.0) == mc21_policy(0.1, 0.2, 1.0, 5)
    assert (lambda_mu_policy(0.4, 0.01, eps=0.05, K=10.0)
            == lambda_mu_policy(0.4, 0.01, eps=0.05, K=10))


@pytest.mark.parametrize("build,message", [
    # int() would put the run at 2, or at 1, or read the string
    (lambda: Policy([(0, 0.3), (2.7, 0.2)], [(0, 0.0)], 0.2, 1.0, 5),
     "run start must be an integer, got 2.7"),
    (lambda: Policy([(0, 0.3), (True, 0.2)], [(0, 0.0)], 0.2, 1.0, 5),
     "run start must be an integer, got True"),
    (lambda: Policy([(0, 0.3)], [(0, 0.0)], 0.2, 1.0, "5"), "horizon must be an integer, got '5'"),
    (lambda: LagrangianProblem(0.0, 0.0, S, [0.4], CDISC, None, state_cap=20.7),
     "state_cap must be an integer, got 20.7"),
    (lambda: LagrangianProblem(0.0, 0.0, S, [0.4], CDISC, None, state_cap="20"),
     "state_cap must be an integer, got '20'"),
    (lambda: mc21_policy(0.1, 0.2, 1.0, 5.5), "q_k must be an integer, got 5.5"),
    (lambda: lambda_mu_policy(0.4, 0.01, eps=0.05, K=10.9), "K must be an integer, got 10.9"),
])
def test_non_integral_counts_refused_by_name(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_piece_bounds_follow_the_count_rule():
    # piece bounds read counts as run starts do: 2.0 was refused here while
    # Policy took it as a run start
    assert (policy_from_pieces([], 0.4, [[1, 2.0, 1.0]], 1.0)
            == policy_from_pieces([], 0.4, [[1, 2, 1.0]], 1.0))
    for bad in (2.5, True, "2", math.nan, math.inf):
        with pytest.raises(ValueError, match="^piece bounds must be integers, got"):
            policy_from_pieces([], 0.4, [[1, bad, 1.0]], 1.0)


def test_declared_bounds_keep_their_slack():
    # 1e-12 above a bound still builds, and the policy keeps the bound
    p = policy_from_pieces([], 0.3 + 1e-12, [[1, 4, 0.5]], 0.9, ra_max=0.3)
    assert (p.ra_max, p.r_max) == (0.3, 0.9)
    with pytest.raises(ValueError, match="exceeds the declared bound ra_max"):
        policy_from_pieces([], 0.3 + 2e-12, [[1, 4, 0.5]], 0.9, ra_max=0.3)


CASES = _random_cases() + _family_cases() + _solve_cases() + _rough_cases()


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("name,p", CASES, ids=[n for n, _ in CASES])
def test_policy_readers_match_dense(name, p):
    lam, mu = oracles.per_state_rules(p)
    d = policy_to_json(p)
    assert d["lambda"] == oracles.pieces_of(lam, p.lam_tail)
    assert d["mu"] == oracles.pieces_of(mu, p.mu_tail)
    assert oracles.dense_rules(d["lambda"]["pieces"], p.lam_tail,
                               d["mu"]["pieces"], p.mu_tail) == (lam, mu)
    assert policy_from_json(d) == p
    assert list(p.joint_runs()) == oracles.loop_joint_runs(p)
    assert recurrent_window(p) == oracles.loop_recurrent_window(p)
    assert _outcome(check_admissible, p) == _outcome(oracles.loop_check_admissible, p)
    assert (_outcome(qlength_upper_bound, p)
            == _outcome(oracles.loop_qlength_upper_bound, p))


@pytest.mark.parametrize("name,p", CASES, ids=[n for n, _ in CASES])
def test_scaling_helpers_match_dense(name, p):
    # stationary masses are summed per segment, the oracles add states one
    # by one, so they agree to rounding (rtol 1e-12), not bit for bit
    sr = stationary(p)
    window = oracles.loop_stationary(p)
    rates = sorted(set(oracles.per_state_rules(p)[1] + [p.mu_tail]))
    for r in rates:
        for low, high in ((r, r), (r - 1e-3, r + 1e-3), (0.0, r), (r, 2.0),
                          (-1.0, r - 1e-6)):
            assert (_service_mass_outside(sr, low, high) == pytest.approx(
                oracles.loop_service_mass_outside(p, window, low, high), rel=1e-12, abs=0))
        for thr in (r - 1e-9, r, r + 1e-9):
            for strict in (False, True):
                assert (_first_service_at_least(p, thr, strict)
                        == oracles.loop_first_service_at_least(p, thr, strict))
    assert _first_service_at_least(p, rates[-1] + 1.0) is None
    mid = (sr.q_lo + sr.q_max) // 2
    for q_star in (0, sr.q_lo - 1, sr.q_lo, sr.q_lo + 1, mid, sr.q_max, sr.q_max + 1,
                   sr.q_max + 10, window[2] + 1):
        assert mass_below(sr, q_star) == pytest.approx(
            oracles.loop_mass_below(window, q_star), rel=1e-12, abs=0)


def test_random_rules_round_trip():
    rng = np.random.default_rng(5)
    for k in range(40):
        rules = random_rules(rng, transient=k % 2 == 0, finite=k % 3 == 0)
        p = policy_from_pieces(oracles.pieces_of(rules[0], rules[2])["pieces"], rules[2],
                               oracles.pieces_of(rules[1], rules[3])["pieces"], rules[3])
        assert oracles.per_state_rules(p) == (rules[0], rules[1])
        assert p.horizon == len(rules[0]) - 1


def _random_pieces(rng, top, zero_at_0):
    """Shuffled non-overlapping pieces over 0..top with gaps and repeated rates."""
    pieces = []
    q = int(rng.integers(0, 3))
    while q <= top:
        end = min(top, q + int(rng.integers(0, 6)))
        rate = float(rng.choice([0.0, 0.2, 0.5, 0.5, 0.9]))
        if q == 0 and zero_at_0:
            rate = 0.0
        pieces.append([q, end, rate])
        q = end + 1 + int(rng.integers(0, 3))
    rng.shuffle(pieces)
    return pieces


@pytest.mark.parametrize("seed", range(40))
def test_pieces_match_dense_expander(seed):
    rng = np.random.default_rng(900 + seed)
    top = int(rng.integers(0, 25))
    lam_tail, mu_tail = (float(x) for x in rng.choice([0.0, 0.2, 0.5, 0.9], 2))
    lam_pieces = _random_pieces(rng, top, False)
    mu_pieces = _random_pieces(rng, top, True)
    if seed % 5 == 0 and lam_pieces:
        lam_pieces.append(list(lam_pieces[0]))         # overlaps itself
    build = functools.partial(policy_from_pieces, lam_pieces, lam_tail, mu_pieces, mu_tail)
    want = _outcome(oracles.dense_rules, lam_pieces, lam_tail, mu_pieces, mu_tail)
    got = _outcome(build)
    assert got[0] == want[0]
    if want[0] == "error":
        return
    lam, mu = want[1]
    p = got[1]
    assert p.horizon == len(lam) - 1
    assert oracles.per_state_rules(p) == (lam, mu)
    assert policy_to_json(p)["lambda"] == oracles.pieces_of(lam, lam_tail)
    assert policy_to_json(p)["mu"] == oracles.pieces_of(mu, mu_tail)


@pytest.mark.parametrize("piece", [
    ["a", 2, 0.3], [0, 2.7, 0.3], [True, 2, 0.3], [0, False, 0.3], [0, 2],
    [0, 2, 0.3, 1], "abc", 7, [0, 2, None], [0, 2, [0.3]], [-1, 2, 0.3], [3, 2, 0.3],
    [0, 2, "nan"], [0, 2, "0.3"], [0, 2, True], [0, 2, math.nan], [0, 2, math.inf]])
def test_piece_contract(piece):
    with pytest.raises(ValueError):
        policy_from_pieces([piece], 0.4, [], 1.0)
    with pytest.raises(ValueError):
        policy_from_pieces([], 0.4, [piece], 1.0)


@pytest.mark.parametrize("value", ["nan", "0.4", True, math.nan, math.inf])
@pytest.mark.parametrize("field", ["lam_tail", "mu_tail", "ra_max", "r_max"])
def test_tail_and_bound_contract(field, value):
    kw = dict({"lam_tail": 0.4, "mu_tail": 1.0}, **{field: value})
    with pytest.raises(ValueError, match="finite number"):
        policy_from_pieces([], kw.pop("lam_tail"), [], kw.pop("mu_tail"), **kw)


def test_huge_piece_stores_runs_only():
    # a billion-state piece builds at once, and its stationary law is three
    # segments: M/M/1 with rho = 0.8 split at the horizon
    p = policy_from_pieces([[0, 10 ** 9, 0.4]], 0.4, [[1, 10 ** 9, 0.5]], 0.5)
    assert p.horizon == 10 ** 9
    assert p.runs("mu") == ([0, 1, 10 ** 9 + 1], [0.0, 0.5, 0.5])
    assert recurrent_window(p) == (0, float("inf"))
    sr = stationary(p)
    assert len(sr.segments) == 3 and sr.q_max == 10 ** 9
    assert exact_metrics(p, CSQ).qbar == pytest.approx(4.0, rel=1e-12)
