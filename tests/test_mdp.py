import copy
import math
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

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


def built(lam, mu, r_u):
    # a new Poisson matrix of the chain, as an _Evaluator builds and fills one
    pattern = mdp._pattern(lam, mu)
    a, at = mdp._build(pattern)
    mdp._fill(a.data, at, pattern, lam, mu, r_u)
    return a


def assert_exact(evaluator, lam, mu, stage):
    # the evaluator's solve equals spsolve on the per-state COO build at
    # its r_u, bit for bit
    h, g = evaluator.evaluate(lam, mu, stage)
    x = spsolve(oracles.coo_poisson_matrix(lam, mu, evaluator.r_u), np.append(stage, 0.0))
    assert np.array_equal(h, x[:-1]) and g == x[-1]


@pytest.mark.parametrize("window", ["wide", "point", "last"])
@pytest.mark.parametrize("seed", range(4))
def test_poisson_matrix_matches_coo_build(seed, window):
    rng = np.random.default_rng(seed)
    lam, mu, stage, r_u = random_chain(rng, window)
    assert np.any(lam > mu) and np.any(lam < mu)
    want = oracles.coo_poisson_matrix(lam, mu, r_u)
    got = built(lam, mu, r_u)
    assert got.format == "csc"
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert got.indices.dtype == want.indices.dtype
    # the factor memo: a second stage vector on the same chain reuses the
    # factor; another chain replaces it; every result is the fresh oracle
    # solve's
    evaluator = mdp._Evaluator(r_u)
    assert_exact(evaluator, lam, mu, stage)
    factor = evaluator.factor
    assert_exact(evaluator, lam, mu, rng.uniform(0.0, 5.0, len(stage)))
    assert evaluator.factor is factor
    assert_exact(evaluator, *random_chain(rng, "wide")[:3])
    assert evaluator.factor is not factor
    assert_exact(evaluator, lam, mu, stage)


def singular_chain():
    # one recurrent class, {31, 32}: leaving states 0-25 takes about 5^26
    # steps, and SuperLU finds the Poisson matrix exactly singular
    lam = np.append(np.full(32, 0.05), 0.0)
    mu = np.full(33, 0.25)
    mu[0] = 0.0
    mu[26:32] = 0.0
    return lam, mu, np.ones(33)


# lam(2) = 0 and mu(3) = 0 split the chain into two closed classes
TWO_CLASSES = (np.array([0.5, 0.5, 0.0, 0.5, 0.0]), np.array([0.0, 0.5, 0.5, 0.0, 0.5]),
               np.ones(5))


def test_evaluate_policy_refusals():
    # the two-class chain is refused before SuperLU sees the matrix
    with pytest.raises(ValueError, match="singular: the first zero-arrival state q=2 "
                                         "lies below the last zero-service state q=3"):
        mdp._Evaluator(1.0).evaluate(*TWO_CLASSES)
    with pytest.raises(ValueError, match="single-class chain is numerically singular"):
        mdp._Evaluator(1.0).evaluate(*singular_chain())


@pytest.mark.parametrize("bad", [TWO_CLASSES, singular_chain()])
def test_evaluation_after_a_failed_one_is_exact(bad):
    # a refused or singular evaluation leaves no factor behind, and the
    # next evaluation, of the chain factored before it, is exact
    lam, mu, stage, r_u = random_chain(np.random.default_rng(11), "wide")
    evaluator = mdp._Evaluator(r_u)
    assert_exact(evaluator, lam, mu, stage)
    with pytest.raises(ValueError, match="singular"):
        evaluator.evaluate(*bad)
    assert evaluator.factor is None
    assert_exact(evaluator, lam, mu, 2.0 * stage)


def test_trace_factors_each_policy_once(monkeypatch):
    # a one-beta2 trace chains its solves: each warm solve first evaluates
    # the policy the previous solve ended on, and reuses its factor, so
    # SuperLU runs once per policy evaluated
    base = LagrangianProblem(0.0, 0.0, S, [0.4], CDISC, None, state_cap=300)
    keys, factored = [], []
    evaluate, splu = mdp._Evaluator.evaluate, scipy.sparse.linalg.splu

    class Factor:
        # SuperLU's factor, in an object a weak reference can watch
        def __init__(self, lu):
            self.solve, self.perm_c = lu.solve, lu.perm_c

    def recording_evaluate(self, lam, mu, stage):
        keys.append((lam.tobytes(), mu.tobytes()))
        return evaluate(self, lam, mu, stage)

    def counting_splu(a, permc_spec):
        # the last factor is released before the next one is built
        assert all(f() is None for f in factored)
        lu = Factor(splu(a, permc_spec=permc_spec))
        factored.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(mdp._Evaluator, "evaluate", recording_evaluate)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    pts, fails = trace_tradeoff(base, np.geomspace(10.0, 1.2e4, 12).tolist(), [0.0])
    assert not fails and len(pts) == 12
    # and each of the 11 warm solves starts with a reused factor
    assert len(factored) == len(set(keys)) <= len(keys) - 11


def same_pattern(rng, lam, mu, r_u):
    # other rates and stage costs on the zero pattern of (lam, mu), each
    # rate at most r_u / 2, so that r_u uniformizes the chain
    lam = np.where(lam > 0.0, rng.uniform(0.025, 0.5, len(lam)) * r_u, 0.0)
    mu = np.where(mu > 0.0, rng.uniform(0.025, 0.5, len(mu)) * r_u, 0.0)
    return lam, mu, rng.uniform(0.0, 5.0, len(lam))


def assert_built_bytes(a, lam, mu, r_u):
    # a holds what _build and _fill make of the chain, byte for byte
    want = built(lam, mu, r_u)
    for attr in ("data", "indices", "indptr"):
        assert getattr(a, attr).tobytes() == getattr(want, attr).tobytes()


@pytest.mark.parametrize("window", ["wide", "point", "last"])
@pytest.mark.parametrize("seed", range(3))
def test_refill_across_one_pattern_is_exact(seed, window):
    # chains of one zero pattern at other rates: each factorization after
    # the first refills the first matrix, and each solve is the oracle's
    # bit for bit
    rng = np.random.default_rng(seed)
    lam, mu, stage, r_u = random_chain(rng, window)
    evaluator = mdp._Evaluator(r_u)
    assert_exact(evaluator, lam, mu, stage)
    a = evaluator.matrix
    for _ in range(4):
        chain = same_pattern(rng, lam, mu, r_u)
        assert_exact(evaluator, *chain)
        assert evaluator.matrix is a
        assert_built_bytes(a, chain[0], chain[1], r_u)


@pytest.mark.parametrize("bad,kept", [(TWO_CLASSES, "previous"), (singular_chain(), "failed")])
def test_refill_after_a_failed_evaluation_is_exact(bad, kept):
    # a refused chain never reaches the evaluator's matrix, a singular one
    # leaves its own matrix there; either way the next chain of the kept
    # pattern refills it and is solved exactly
    rng = np.random.default_rng(5)
    lam, mu, stage, r_u = random_chain(rng, "wide")
    evaluator = mdp._Evaluator(r_u)
    assert_exact(evaluator, lam, mu, stage)
    with pytest.raises(ValueError, match="singular"):
        evaluator.evaluate(*bad)
    a = evaluator.matrix
    if kept == "failed":
        lam, mu, _ = bad
    assert_built_bytes(a, lam, mu, r_u)
    chain = same_pattern(rng, lam, mu, r_u)
    assert_exact(evaluator, *chain)
    assert evaluator.matrix is a


def test_a_chain_after_a_singular_one_of_its_pattern_is_factored_afresh():
    # A, then the singular B of A's zero pattern, then A again: B leaves its
    # matrix in the evaluator with no key and no factor, so the second A is
    # not solved with A's old factor but factored again into B's matrix
    lam_b, mu_b, stage = singular_chain()
    lam_a = np.where(lam_b > 0.0, 0.2, 0.0)
    evaluator = mdp._Evaluator(1.0)
    assert_exact(evaluator, lam_a, mu_b, stage)
    with pytest.raises(ValueError, match="numerically singular"):
        evaluator.evaluate(lam_b, mu_b, stage)
    a = evaluator.matrix
    assert evaluator.key is None and evaluator.factor is None
    assert_built_bytes(a, lam_b, mu_b, 1.0)
    assert_exact(evaluator, lam_a, mu_b, np.linspace(0.0, 4.0, len(stage)))
    assert evaluator.matrix is a and evaluator.factor is not None
    assert_built_bytes(a, lam_a, mu_b, 1.0)


def test_splu_leaves_the_refilled_matrix_untouched(monkeypatch):
    # SuperLU reads the matrix it is given and keeps no part of it
    splu, seen = scipy.sparse.linalg.splu, []

    def checking_splu(a, permc_spec):
        before = [getattr(a, attr).copy() for attr in ("data", "indices", "indptr")]
        lu = splu(a, permc_spec=permc_spec)
        assert all(np.array_equal(getattr(a, attr), b)
                   for attr, b in zip(("data", "indices", "indptr"), before))
        seen.append(a)
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", checking_splu)
    rng = np.random.default_rng(2)
    lam, mu, stage, r_u = random_chain(rng, "wide")
    evaluator = mdp._Evaluator(r_u)
    for chain in [(lam, mu, stage)] + [same_pattern(rng, lam, mu, r_u) for _ in range(3)]:
        assert_exact(evaluator, *chain)
    assert len(seen) == 4 and all(a is seen[0] for a in seen)


def test_a_pattern_change_rebuilds_the_matrix():
    # a new pattern, or a new n, gets a new matrix, and the old one is
    # left as it was
    rng = np.random.default_rng(8)
    lam, mu, stage, r_u = random_chain(rng, "wide")
    evaluator = mdp._Evaluator(r_u)
    assert_exact(evaluator, lam, mu, stage)
    first = evaluator.matrix
    flipped = mu.copy()
    flipped[1] = 0.0 if mu[1] > 0.0 else 0.7
    assert_exact(evaluator, lam, flipped, stage)
    second = evaluator.matrix
    assert second is not first
    assert_built_bytes(first, lam, mu, r_u)
    longer = np.append(lam[:-1], [0.3, 0.0]), np.append(mu, 0.4), np.append(stage, 1.0)
    assert_exact(evaluator, *longer)
    assert evaluator.matrix not in (first, second)
    assert_built_bytes(second, lam, flipped, r_u)


def test_poisson_matrix_returns_a_new_matrix():
    # a matrix _build returned is the caller's: a later build or refill
    # does not change it
    rng = np.random.default_rng(4)
    lam, mu, stage, r_u = random_chain(rng, "wide")
    a, b = built(lam, mu, r_u), built(lam, mu, r_u)
    assert a is not b
    for attr in ("data", "indices", "indptr"):
        assert not np.shares_memory(getattr(a, attr), getattr(b, attr))
    kept = a.data.copy()
    evaluator = mdp._Evaluator(r_u)
    assert_exact(evaluator, lam, mu, stage)
    assert_exact(evaluator, *same_pattern(rng, lam, mu, r_u))
    assert evaluator.matrix is not a and np.array_equal(a.data, kept)


def test_trace_refills_most_matrices(monkeypatch):
    # policy iteration mostly keeps the zero pattern, so most
    # factorizations of a trace refill the matrix instead of building one
    base = LagrangianProblem(0.0, 0.0, S, [0.4], CDISC, None, state_cap=300)
    built, factored = [], []
    build, splu = mdp._build, scipy.sparse.linalg.splu
    monkeypatch.setattr(mdp, "_build", lambda *a: built.append(1) or build(*a))
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda a, permc_spec: factored.append(1) or splu(a, permc_spec=permc_spec))
    pts, fails = trace_tradeoff(base, np.geomspace(10.0, 1.2e4, 12).tolist(), [0.0])
    assert not fails and len(pts) == 12
    assert 0 < 2 * len(built) < len(factored)


def test_a_finished_trace_empties_the_slots(monkeypatch):
    # the factor and the matrix that the trace's evaluator kept for the
    # next solve are let go once the trace is done
    build, splu, kept = mdp._build, scipy.sparse.linalg.splu, []

    class Factor:
        # SuperLU's factor, in an object a weak reference can watch
        def __init__(self, lu):
            self.solve, self.perm_c = lu.solve, lu.perm_c

    def watched_build(*args):
        a, at = build(*args)
        kept.append(weakref.ref(a))
        return a, at

    def watched_splu(a, permc_spec):
        lu = Factor(splu(a, permc_spec=permc_spec))
        kept.append(weakref.ref(lu))
        return lu

    monkeypatch.setattr(mdp, "_build", watched_build)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", watched_splu)
    pts, fails = trace_tradeoff(problem(0.0, cap=50), [1.0, 10.0], [0.0])
    assert len(pts) == 2 and not fails
    assert len(kept) > 2 and all(ref() is None for ref in kept)


# The column order of a factorization.  From state_cap 100 (n = 101) up,
# SuperLU's COLAMD orders a chain with every rate positive as the identity,
# so these tests draw chains of at least that size: below it, no
# factorization takes the natural order.


def spy_splu(monkeypatch):
    # the permc_spec of each factorization, in order
    splu, specs = scipy.sparse.linalg.splu, []

    def spying_splu(a, permc_spec):
        specs.append(permc_spec)
        return splu(a, permc_spec=permc_spec)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spying_splu)
    return specs


def positive_chain(rng, n):
    # rates on 0..n-1, all positive but lam(n-1) and mu(0)
    lam = rng.uniform(0.05, 1.0, n) * rng.choice([0.3, 1.0, 3.0], n)
    mu = rng.uniform(0.05, 1.0, n) * rng.choice([0.3, 1.0, 3.0], n)
    lam[-1] = mu[0] = 0.0
    return lam, mu, rng.uniform(0.0, 5.0, n), float(lam.max() + mu.max())


def is_identity(perm):
    return np.array_equal(perm, np.arange(len(perm)))


@pytest.mark.parametrize("seed", range(3))
def test_refills_of_an_identity_ordered_pattern_take_the_natural_order(monkeypatch, seed):
    # the first factorization of a pattern orders by COLAMD and learns
    # that the order is the identity; each refill then skips COLAMD, and
    # each solve is still the oracle's, which orders by COLAMD, bit for bit
    specs = spy_splu(monkeypatch)
    rng = np.random.default_rng(seed)
    lam, mu, stage, r_u = positive_chain(rng, int(rng.integers(101, 400)))
    evaluator = mdp._Evaluator(r_u)
    assert_exact(evaluator, lam, mu, stage)
    assert specs == ["COLAMD"] and evaluator.natural is True
    a = evaluator.matrix
    for _ in range(3):
        assert_exact(evaluator, *same_pattern(rng, lam, mu, r_u))
    assert specs == ["COLAMD"] + ["NATURAL"] * 3 and evaluator.matrix is a
    # a new pattern starts again from COLAMD
    flipped = mu.copy()
    flipped[1] = 0.0
    assert_exact(evaluator, lam, flipped, stage)
    assert specs[-1] == "COLAMD" and evaluator.matrix is not a


def test_a_pattern_not_ordered_as_the_identity_keeps_colamd(monkeypatch):
    # with arrivals off above K, COLAMD reorders the chain, and every
    # refill of its pattern orders by COLAMD again
    specs = spy_splu(monkeypatch)
    rng = np.random.default_rng(9)
    lam, mu, stage, r_u = positive_chain(rng, 300)
    lam[200:] = 0.0
    evaluator = mdp._Evaluator(r_u)
    assert_exact(evaluator, lam, mu, stage)
    assert evaluator.natural is False
    for _ in range(3):
        assert_exact(evaluator, *same_pattern(rng, lam, mu, r_u))
    assert specs == ["COLAMD"] * 4


def test_a_singular_first_factorization_learns_no_order(monkeypatch):
    # a chain whose Poisson matrix SuperLU finds exactly singular, on a
    # pattern that orders as the identity: nothing is learned from it, so
    # the next chain of its pattern orders by COLAMD, and learns the order
    specs = spy_splu(monkeypatch)
    n = 125
    lam = np.append(np.full(n - 1, 0.05), 0.0)
    mu = np.full(n, 0.25)
    mu[0] = 0.0
    mu[n - 13:n - 1] = 1e-100
    evaluator = mdp._Evaluator(0.3)
    with pytest.raises(ValueError, match="numerically singular"):
        evaluator.evaluate(lam, mu, np.ones(n))
    assert evaluator.factor is None and evaluator.natural is None and specs == ["COLAMD"]
    a = evaluator.matrix
    stage = np.linspace(0.0, 4.0, n)
    assert_exact(evaluator, np.where(lam > 0.0, 0.1, 0.0), np.where(mu > 0.0, 0.15, 0.0), stage)
    assert specs == ["COLAMD"] * 2 and evaluator.natural is True
    assert_exact(evaluator, np.where(lam > 0.0, 0.12, 0.0), np.where(mu > 0.0, 0.18, 0.0), stage)
    assert specs[-1] == "NATURAL" and evaluator.matrix is a


def test_natural_and_colamd_factors_are_equal_where_colamd_orders_as_the_identity():
    # the argument that the two orders give one factor leaves out
    # SymmetricMode, which scipy sets with NATURAL and which changes how
    # SuperLU post-orders the elimination tree; this pins that L, U and
    # the row order still agree, on random patterns with zero-service
    # states low in the chain and zero-arrival states high in it, each
    # at three sets of rates
    rng = np.random.default_rng(17)
    identity = 0
    for _ in range(60):
        lam, mu, _, r_u = positive_chain(rng, int(rng.integers(101, 400)))
        n = len(lam)
        mu[:n // 3] *= rng.random(n // 3) < rng.choice([0.0, 0.9, 1.0])
        lam[2 * n // 3:] *= rng.random(n - 2 * n // 3) < rng.choice([0.9, 1.0])
        try:
            mdp._pattern(lam, mu)
        except ValueError:
            continue
        for chain in [same_pattern(rng, lam, mu, r_u) for _ in range(3)]:
            a = built(chain[0], chain[1], r_u)
            colamd = scipy.sparse.linalg.splu(a)
            if not is_identity(colamd.perm_c):
                break
            identity += 1
            natural = scipy.sparse.linalg.splu(a, permc_spec="NATURAL")
            assert is_identity(natural.perm_c)
            assert np.array_equal(colamd.perm_r, natural.perm_r)
            for m in ("L", "U"):
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(getattr(colamd, m), attr),
                                          getattr(getattr(natural, m), attr))
    assert identity >= 60


def test_a_trace_factors_a_new_pattern_by_colamd_and_mostly_refills_in_natural_order(
        monkeypatch):
    # each factorization after a build orders by COLAMD, and most of a
    # cap-300 trace's factorizations refill an identity-ordered pattern
    base = LagrangianProblem(0.0, 0.0, S, [0.4], CDISC, None, state_cap=300)
    specs = spy_splu(monkeypatch)
    build = mdp._build
    monkeypatch.setattr(mdp, "_build", lambda *a: specs.append("build") or build(*a))
    pts, fails = trace_tradeoff(base, np.geomspace(10.0, 1.2e4, 12).tolist(), [0.0])
    assert not fails and len(pts) == 12
    assert all(spec == "COLAMD" for last, spec in zip(specs, specs[1:]) if last == "build")
    assert 2 * specs.count("NATURAL") > len(specs)


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


@pytest.mark.parametrize("cap", [math.inf, math.nan])
def test_state_cap_must_be_finite(cap):
    # int() would raise OverflowError, or a ValueError that names nothing
    with pytest.raises(ValueError, match="^state_cap must be a finite number, got"):
        LagrangianProblem(0.0, 0.0, S, [0.4], CDISC, None, state_cap=cap)


@pytest.mark.parametrize("cap", [10 ** 20, 10 ** 400], ids=["1e20", "401-digits"])
def test_a_state_cap_numpy_cannot_index_is_named(cap):
    # numpy's "Maximum allowed dimension exceeded" named no argument; a
    # trace records the refusal at each point
    lp = problem(5.0, cap=cap)
    message = "state_cap %d is too large: its arrays do not fit in memory" % cap
    with pytest.raises(ValueError) as err:
        solve(lp)
    assert str(err.value) == message
    assert trace_tradeoff(lp, [1.0, 10.0], [0.0]) == (
        [], [mdp.TraceFailure(1.0, 0.0, message), mdp.TraceFailure(10.0, 0.0, message)])


def test_trace_without_utility_refuses_beta2_once():
    # refused before any point, not once per point; a grid of zeros still runs
    with pytest.raises(ValueError, match="^beta2 > 0 needs a utility function$"):
        trace_tradeoff(problem(0.0, cap=50), [1.0, 2.0, 3.0], [0.0, 1.0])
    pts, fails = trace_tradeoff(problem(0.0, cap=50), [1.0], [0.0])
    assert len(pts) == 1 and not fails


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


REFUSED = "need n >= 2 and an r_max > 0 with a finite r_max * (n - 1), got n=3, r_max=%s"


@pytest.mark.parametrize("r_max,n,message", [
    # range() raised a TypeError on these counts
    (1.0, 2.5, "n must be an integer, got 2.5"),
    (1.0, math.nan, "n must be a finite number, got nan"),
    (1.0, True, "n must be an integer, got True"),
    # an infinite r_max gave [nan, inf, inf], and 1e308 * i overflows
    (math.inf, 3, REFUSED % "inf"),
    (1e308, 3, REFUSED % "1e+308"),
    (math.nan, 3, REFUSED % "nan"),
])
def test_uniform_actions_refusals_name_the_argument(r_max, n, message):
    with pytest.raises(ValueError) as err:
        uniform_actions(r_max, n)
    assert str(err.value) == message


@pytest.mark.parametrize("r_max,n", [
    # [0.0, 0.0, 0.0, 5e-324, 5e-324]: r_max / (n - 1) is below the smallest double
    (5e-324, 5),
    # [0.0, 5e-324, 1e-323, 1e-323, 1.5e-323]: two quotients round to one double
    (1.5e-323, 5),
])
def test_uniform_actions_refuses_an_underflowing_spacing(r_max, n):
    with pytest.raises(ValueError) as err:
        uniform_actions(r_max, n)
    assert "n=%d" % n in str(err.value) and "r_max=%r" % r_max in str(err.value)


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
    # the problem refuses it when built, before any solve
    with pytest.raises(ValueError, match="^service actions must include a positive rate$"):
        LagrangianProblem(1.0, 0.0, [0.0], [0.3], CDISC, None, state_cap=50)


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


def test_mark_dominated():
    # b beats a in all three coordinates; c trades a lower cost for a
    # longer queue, and d ties c, so neither of them is dominated
    point = mdp.TradeoffPoint(0.0, 0.0, 0.3, 0.5, 2.0, None, None)
    a, b = point, point._replace(c_c=0.2, u_c=0.6, q_star=1.0)
    c = point._replace(c_c=0.1, q_star=5.0)
    d = c._replace(beta1=1.0)
    assert [p.dominated for p in mdp._mark_dominated([a, b, c, d])] == [
        True, False, False, False]


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


def test_positional_tol_refused():
    # the tolerance is mdp.TOL, and start is keyword-only, so an old
    # positional tol is not read as a start policy
    with pytest.raises(TypeError):
        solve(problem(1000.0, cap=50), 1e-9)


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


@pytest.mark.parametrize("grid", [["1"], [0.0, True]])
def test_trace_refuses_a_multiplier_that_is_not_a_number(grid):
    # "1" and True were traced as beta1 = 1.0
    with pytest.raises(ValueError, match="^multipliers must be numbers$"):
        trace_tradeoff(problem(0.0, cap=200), grid, [0.0])


@pytest.mark.parametrize("beta1_grid,beta2_grid,name", [
    (None, [0.0], "beta1_grid"),
    (1.0, [0.0], "beta1_grid"),
    ([1.0], 0.0, "beta2_grid"),
    ([1.0], None, "beta2_grid"),
])
def test_trace_refuses_a_grid_that_is_no_list(monkeypatch, beta1_grid, beta2_grid, name):
    # each ended in "TypeError: ... object is not iterable"
    monkeypatch.setattr(mdp, "solve", None)      # and no point is solved
    with pytest.raises(ValueError) as err:
        trace_tradeoff(problem(0.0, cap=200), beta1_grid, beta2_grid)
    bad = beta1_grid if name == "beta1_grid" else beta2_grid
    assert str(err.value) == "%s must be a list of multipliers, got %r" % (name, bad)


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
            kinks = beta * side.slopes[data.draw(st.lists(
                st.integers(0, len(side.slopes) - 1), max_size=10))]
            d = np.concatenate([
                kinks, np.nextafter(kinks, np.inf), np.nextafter(kinks, -np.inf),
                [0.0, -0.0, 1e12, -1e12],
                data.draw(st.lists(st.floats(-1e4, 1e4), max_size=20))])
            table = np.multiply.outer(d, side.w) + beta * side.c
            want = np.argmin(table, axis=1)
            pick, low, full = side.window(d, beta)
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
    # and in the arrival columns' descending layout the largest arrival rate;
    # each table's columns are passed one at a time, as the sides sweep them
    lp = LagrangianProblem(1.0, 1.0, [0.0, 0.5, 1.0], [0.2, 0.4, 0.6], CSQ, USQRT,
                           state_cap=10)
    srv, arr = lp._service.rates, lp._arrival.rates
    assert srv.tolist() == [0.0, 0.5, 1.0, 0.0] and arr.tolist() == [0.6, 0.4, 0.2, 0.0]
    service = np.array([[0.3, -0.1, -0.1],
                        [-0.2, -0.2, 0.4],
                        [np.inf, 0.7, 0.7]])   # the cap row, zero rate at +inf
    pick, low = mdp._best(list(service.T))
    assert srv[pick].tolist() == [0.5, 0.0, 0.5]
    assert low.tolist() == [-0.1, -0.2, 0.7]
    arrival = np.array([[0.25, 0.25, 0.25], [0.9, -0.5, -0.5], [0.1, 0.3, 0.1]])
    pick, low = mdp._best(list(arrival.T))
    assert arr[pick].tolist() == [0.6, 0.4, 0.6]
    assert low.tolist() == [0.25, -0.5, 0.1]
    # +inf is never picked, however large the finite entries
    pick, _ = mdp._best(list(np.array([[np.inf, 1e308, 1e308], [np.inf, np.inf, -0.0]]).T))
    assert pick.tolist() == [1, 2]
    # 0.0 and -0.0 tie: the first is picked, and its own zero returned
    pick, low = mdp._best([np.array([0.0, -0.0]), np.array([-0.0, 0.0])])
    assert pick.tolist() == [0, 0] and np.signbit(low).tolist() == [False, True]
    # and the columns are left as they were
    assert service[:, 0].tolist() == [0.3, -0.2, np.inf]


def _narrow_menu(data, role):
    # 1-7 rates, 0 among them or not, under a power function or a discrete
    # one with random increments, convex or not
    rates = sorted(data.draw(st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 3.0]),
                                      min_size=1, max_size=7, unique=True)))
    if rates[-1] == 0.0:
        rates.append(1.0)
    if len(rates) == 1 or data.draw(st.booleans()):
        return rates, power_function(2.0 if role == "cost" else 0.5, (0.0, 3.0), role)
    steps = data.draw(st.lists(st.sampled_from([0.125, 0.5, 1.0, 3.0]),
                               min_size=len(rates), max_size=len(rates)))
    values = np.cumsum(steps) - (steps[0] if rates[0] == 0.0 else 0.0)   # 0 at rate 0
    return rates, discrete_function(zip(rates, values.tolist()), role)


def test_sweeps_equal_the_table_pick():
    # every side, narrow or wide, picks as np.argmin over the (n, k) table
    # does, and returns the picked entry byte for byte: on rows at the
    # columns' tie slopes and one ulp either side, at +-0.0, +-inf and
    # +-1e308 (whose products overflow), and at random slopes
    seen = {"tie": 0, "window": 0, "narrow": 0}

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def check(data):
        menus = []
        for role in ("cost", "utility"):
            kind = data.draw(st.sampled_from(["narrow", "convex", "collinear", "discrete"]))
            menus.append(_narrow_menu(data, role) if kind == "narrow"
                         else _wide_menu(data, role, kind))
        (service, cost), (arrival, utility) = menus
        lp = LagrangianProblem(1.0, 1.0, service, arrival, cost, utility, state_cap=10)
        for side in (lp._service, lp._arrival):
            beta = data.draw(st.sampled_from([0.0, 0.01, 1.0, 30.0, 1e4]))
            w, bc = side.w, beta * side.c
            i, j = np.triu_indices(len(w), 1)
            ties = (bc[j] - bc[i]) / (w[i] - w[j])
            ties = ties[data.draw(st.lists(st.integers(0, max(len(ties) - 1, 0)),
                                           max_size=10 if len(ties) else 0))]
            d = np.concatenate([
                ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
                [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308],
                data.draw(st.lists(st.floats(-1e4, 1e4), max_size=20))])
            if 0.0 in w:
                # inf * 0 is NaN, on which argmin and the sweep differ;
                # solve refuses an infinite d before any pick
                d = d[np.isfinite(d)]
            with np.errstate(all="ignore"):
                want = oracles.table_pick(d, w, side.c, beta)
                cap = oracles.table_pick(d, w[1:], side.c[1:], beta) if len(w) > 1 else None
                got = [side.full(d, beta), side.best(d, beta)]
                if side.wide:
                    got.append(side.window(d, beta)[:2])
                if cap is not None:
                    pick, low = side.full(d, beta, 1)
                    assert pick.tolist() == (cap[0] + 1).tolist()
                    assert low.tobytes() == cap[1].tobytes()
                table = np.multiply.outer(d, w) + bc
            for pick, low in got:
                assert pick.tolist() == want[0].tolist()
                assert low.tobytes() == want[1].tobytes()
            seen["tie"] += int(np.sum(np.sum(table == want[1][:, None], axis=1) > 1))
            seen["window" if side.wide else "narrow"] += 1

    check()
    assert all(seen.values()), seen


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


def test_a_stage_cost_overflow_is_named():
    # q / r_u overflows at r_u = 1.5e-323: solve names the overflow, warns
    # nothing, and does not call the chain singular
    lp = LagrangianProblem(1.0, 0.0, [0, 5e-324, 1e-323], [4e-324], power_function(1.0),
                           None, state_cap=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="stage cost overflows") as info:
            solve(lp)
    assert "singular" not in str(info.value)


@pytest.mark.parametrize("beta1, beta2, where", [
    (1e300, 0.0, r"cost beta1 c\(mu\) overflows: .* at mu=10000000000\.0"),
    (1.0, 1e305, r"utility beta2 u\(lambda\) overflows: .* at lambda=10000000000\.0")])
def test_a_priced_column_that_overflows_is_named(beta1, beta2, where):
    # a column whose weighted cost overflows is refused before any pick,
    # so that no sweep meets inf - inf
    lp = LagrangianProblem(beta1, beta2, [0.0, 1.0, 1e10], [0.5, 1e10],
                           power_function(2.0, (0.0, 1e10)),
                           power_function(0.5, (0.0, 1e10), "utility"), state_cap=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=where):
            solve(lp)


def test_a_relative_value_step_that_overflows_is_named(monkeypatch):
    # finite relative values whose differences overflow leave no row slope
    # for the improvement step to price
    def evaluate(self, lam, mu, stage):
        return np.where(np.arange(len(stage)) % 2, 1e308, -1e308), 1.0

    monkeypatch.setattr(mdp._Evaluator, "evaluate", evaluate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"h\(q\+1\) - h\(q\) overflows: .* at q=0"):
            solve(problem(5.0, cap=20))


def test_trace_warm_starts_change_nothing(monkeypatch):
    # along each beta1 row a point starts from the previous point's policy;
    # every point must equal a cold solve's, policy included
    acts = uniform_actions(1.0, 21)
    base = LagrangianProblem(0.0, 0.0, acts, acts, CSQ, USQRT, state_cap=80)
    b1, b2 = [0.5, 5.0, 40.0], [0.0, 0.7, 3.0, 12.0]
    warm, solved = [], {}

    def recording_solve(lp, start=None, **kwargs):
        warm.append(start is not None)
        res = solved[lp.beta1, lp.beta2] = solve(lp, start=start, **kwargs)
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


@pytest.mark.parametrize("grid", ["one beta2", "one beta2, a point failing", "two-dimensional"])
def test_trace_hands_over_the_last_policy_as_action_indices(monkeypatch, grid):
    # at each warm point the evaluator holds the start policy and its action
    # indices, as _start_indices would rebuild them, so no start is rebuilt;
    # a failed point leaves no handover, and the trace goes on cold
    if grid == "two-dimensional":
        base, b1, b2 = admission_problem(), [1.0, 10.0, 100.0], [3.0, 10.0, 30.0]
    else:
        base, b1, b2 = menu_problem(300), np.geomspace(10.0, 1.2e4, 12).tolist(), [0.0]
    failing = b1[4] if grid == "one beta2, a point failing" else None
    start_indices, rebuilt, handed = mdp._start_indices, [], []

    def recording_solve(lp, start=None, **kwargs):
        if lp.beta1 == failing:
            # a start _start_indices refuses: the solve raises
            return solve(lp, start="not a policy", **kwargs)
        if start is not None:
            policy, at = kwargs["_evaluator"].handover
            assert policy is start
            want = start_indices(lp, start)
            assert all(map(np.array_equal, at, want))
            handed.append(start)
        return solve(lp, start=start, **kwargs)

    def counting_start_indices(lp, start):
        rebuilt.append(start)
        return start_indices(lp, start)

    monkeypatch.setattr(mdp, "solve", recording_solve)
    monkeypatch.setattr(mdp, "_start_indices", counting_start_indices)
    pts, fails = trace_tradeoff(base, b1, b2)
    if failing is None:
        assert not fails and len(pts) == len(b1) * len(b2) and not rebuilt
        warm = len(b1) - 1 if len(b2) == 1 else len(b1) * (len(b2) - 1)
    else:
        assert [f.beta1 for f in fails] == [failing] and len(pts) == len(b1) - 1
        assert rebuilt == ["not a policy"]
        warm = len(b1) - 3          # the first point, the failed one and the next are cold
    assert len(handed) == warm


def test_only_the_handed_over_policy_itself_skips_start_indices(monkeypatch):
    # an equal policy that is another object, and any start after a solve
    # that raised, is checked and rebuilt by _start_indices; either way a
    # solve returns what it returns with an evaluator of its own
    lp = problem(5.0, cap=40)
    start_indices, rebuilt = mdp._start_indices, []

    def counting_start_indices(lp, start):
        rebuilt.append(start)
        return start_indices(lp, start)

    monkeypatch.setattr(mdp, "_start_indices", counting_start_indices)
    evaluator = mdp._Evaluator(lp.r_u)

    def shared(beta1, start):
        res = solve(lp.with_multipliers(beta1, 0.0), start=start, _evaluator=evaluator)
        alone = solve(lp.with_multipliers(beta1, 0.0), start=start)
        assert (res.policy, res.gain, res.iterations, res.gain_history) == (
            alone.policy, alone.gain, alone.iterations, alone.gain_history)
        assert evaluator.handover[0] is res.policy
        return res.policy

    first = shared(5.0, None)
    second = shared(6.0, first)
    assert rebuilt == [first]               # the solve without the evaluator only
    twin = copy.copy(second)
    assert twin == second and twin is not second
    third = shared(4.0, twin)
    assert rebuilt[1:] == [twin, twin]
    with pytest.raises(ValueError, match="start"):
        solve(lp, start="not a policy", _evaluator=evaluator)
    assert evaluator.handover is None
    shared(5.0, third)
    assert rebuilt[3:] == ["not a policy", third, third]


@pytest.mark.parametrize("b2", [[0.0], [0.0, 1.0]])
def test_trace_chains_beta1_with_one_beta2(monkeypatch, b2):
    # the criterion-2 menu at lambda = 0.4: with one beta2 each beta1 point
    # starts from the previous one's policy, with several each beta1 row
    # starts cold; either way every point equals a cold solve's (the
    # utility only lets beta2 be positive: one arrival rate leaves no choice)
    base = LagrangianProblem(0.0, 0.0, S, [0.4], CDISC, IDENT, state_cap=300)
    b1 = np.geomspace(10.0, 1.2e4, 8).tolist()
    starts, solved = [], {}

    def recording_solve(lp, start=None, **kwargs):
        starts.append(start)
        res = solved[lp.beta1, lp.beta2] = solve(lp, start=start, **kwargs)
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


def menu_problem(cap=60):
    # the criterion-2 menu, c(r) = r^2 over 7 service rates, lambda = 0.4
    return LagrangianProblem(0.0, 0.0, S, [0.4], CSQ, None, state_cap=cap)


def admission_problem(cap=60):
    # joint admission and service control over 41 x 41 actions
    acts = uniform_actions(1.0, 41)
    return LagrangianProblem(0.0, 0.0, acts, acts, CSQ, USQRT, state_cap=cap)


def solved(lp):
    # what a cold solve returns, or the message of the ValueError it raises
    try:
        res = solve(lp)
    except ValueError as exc:
        return str(exc)
    return res.policy, res.gain, res.iterations, res.gain_history


def in_two_threads(first, second):
    # each list of calls run in order, the two lists at once in two threads
    with ThreadPoolExecutor(2) as pool:
        done = [pool.submit(lambda calls=calls: [call() for call in calls])
                for calls in (first, second)]
        return [d.result(timeout=120) for d in done]


def test_solves_in_two_threads_equal_sequential_ones():
    # each solve evaluates with an evaluator of its own, so a solve in another
    # thread can neither drop its factor nor leave it another chain's
    menu, admission = menu_problem(), admission_problem()
    jobs = ([menu.with_multipliers(b, 0.0) for b in np.geomspace(10.0, 1.2e4, 100).tolist()],
            [admission.with_multipliers(b1, b2) for b1 in np.geomspace(1.0, 1e3, 10).tolist()
             for b2 in np.geomspace(10 ** 0.5, 10 ** 2.5, 10).tolist()])
    want = [[solved(lp) for lp in lps] for lps in jobs]
    assert all(isinstance(r, tuple) for r in want[0] + want[1])
    assert in_two_threads(*([lambda lp=lp: solved(lp) for lp in lps] for lps in jobs)) == want


def test_traces_in_two_threads_equal_sequential_ones():
    # each trace chains its solves through an evaluator of its own
    grids = ((menu_problem(), np.geomspace(10.0, 1.2e4, 12).tolist(), [0.0]),
             (admission_problem(), [1.0, 10.0, 100.0], [3.0, 30.0]))
    want = [trace_tradeoff(*grid) for grid in grids]
    assert all(len(pts) == len(b1) * len(b2) and not fails
               for (pts, fails), (_, b1, b2) in zip(want, grids))
    got = in_two_threads(*([lambda grid=grid: trace_tradeoff(*grid)] * 6 for grid in grids))
    assert got == [[w] * 6 for w in want]


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
    if max(service) == 0.0:
        with pytest.raises(ValueError, match="positive rate"):
            LagrangianProblem(0.0, 0.0, service, arrival, CSQ, utility, state_cap=cap)
        return
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
