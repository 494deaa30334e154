"""Contract fuzz of the library's builders: any input ends in a built
object or a ValueError, never in another exception.

Numeric arguments are drawn from signed zeros, the smallest subnormal,
+-1e308, +-inf, NaN and a few ordinary values; point lists hold 0 to 3
points.  Counts are drawn from small values, a non-integral float, NaN,
inf and a bool only: a large count is costly input, not malformed input.
``RateFunction`` draws each kind's data for every kind, ``power_function``
a domain of any shape, and ``function_from_spec`` spec objects of any of
its four fields.
The rate-function builders, ``uniform_actions``, ``LagrangianProblem``,
``policy_from_pieces`` and ``simulate`` also draw True and "2" where a
number goes, and must refuse either one, never convert it.  The family
constructors draw numbers only; a table checks that a string or a bool
among their ordered params is refused by name, and another that a case
tag whose window or anchor has another shape is refused by field.
``trace_tradeoff`` draws each grid from None, numbers, strings and lists
of values, and ``solve`` its ``start`` from those and from Policies of
any horizon and rates, both on problems at state_cap 10-12.  Where a list
goes (``LagrangianProblem``'s two action sets, ``Policy``'s lam and mu
runs, ``sweep``'s U grid and ``classify_regime``'s samples), junk is
drawn too: None, numbers, strings, dicts and lists of these; ``sweep``
also draws its build from junk, and ``classify_regime`` samples whose V
and qbar are junk.  A table checks that each list rule's refusal names
the argument.

The numeric callables (``evaluate``, ``inverse``, ``classify_case``,
``pi_at``, ``mass_below``, ``sweep`` and ``audit_lower_bound`` at their
c_ref, and each family constructor but mc21 at its scale U, which mc21
does not always need) draw one argument from all of the above and None,
and may return only where it is a number (an integer for ``pi_at`` and
``mass_below``), as may ``feasibility`` at each of its two levels.  Every
use of a case tag refuses one that is no CaseTag, and every use of a cost
and a utility refuses one that is missing or in the other role.

One table, ``API``, holds a valid call of each exported function and of
each exported class that takes input, with every public parameter by
name; each argument in turn is replaced by None, a string, ``object()``,
+-10**400, ``Fraction(10**400)``, [1], {} and [10**400], and the call
must return or raise ValueError.  A meta-test fails when an exported
function, class or parameter has no row, unless the class is listed as a
result namedtuple.
"""

import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qtl
from qtl import (
    CaseTag,
    LagrangianProblem,
    Policy,
    RateFunction,
    ScalingSample,
    SimConfig,
    audit_lower_bound,
    classify_case,
    classify_regime,
    constant_policy,
    discrete_function,
    evaluate,
    exact_metrics,
    feasibility,
    function_from_spec,
    inverse,
    is_admissible,
    is_stable,
    lambda_mu_policy,
    lc_mirror_policy,
    lower_convex_envelope,
    mass_below,
    mc1_policy,
    mc21_policy,
    mc22_policy,
    mc23_policy,
    metrics,
    pi_at,
    piecewise_function,
    policy_from_pieces,
    power_function,
    simulate,
    solve,
    stationary,
    support_line,
    sweep,
    trace_tradeoff,
    uniform_actions,
)

NUMBER = st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf,
                          math.nan, 0.1, 0.4, 0.5, 2.0])
COUNT = st.sampled_from([-1, 0, 1, 2, 2.5, 3, math.nan, math.inf, True])
# a bool and a numeric string, which are not numbers
NOT_NUMBER = [True, "2"]
VALUE = NUMBER | st.sampled_from(NOT_NUMBER)
POINTS = st.lists(st.tuples(VALUE, VALUE), max_size=3)
ROLE = st.sampled_from(["cost", "utility"])
KIND = st.sampled_from(["power", "piecewise", "discrete"])
# a domain: a pair, or None, a number or a list of another length
DOMAIN = st.tuples(VALUE, VALUE) | st.none() | VALUE | st.lists(VALUE, max_size=3)
# a function spec: any of its four fields, each of either kind's shape
SPEC = st.dictionaries(st.sampled_from(["kind", "domain", "exponent", "points"]),
                       KIND | st.none() | VALUE | st.lists(VALUE, max_size=3) | POINTS)
TAG = st.builds(CaseTag, st.sampled_from(["LC1", "LC2-1", "LC2-2"]),
                st.tuples(NUMBER, NUMBER), st.none(), st.none())
CSQ = power_function(2.0)
USQRT = power_function(0.5, role="utility")
# a piece is [q_lo, q_hi, rate]: its bounds are counts, 2.0 among them
BOUND = COUNT | st.sampled_from([2.0, "2"])
PIECES = st.lists(st.tuples(BOUND, BOUND, VALUE), max_size=2)
# junk where a list goes: None, numbers, strings, dicts with string keys,
# and lists of these
ATOM = (st.none() | VALUE | st.sampled_from(["", "ab"])
        | st.dictionaries(st.sampled_from(["V", "qbar"]), VALUE, max_size=2))
JUNK = ATOM | st.lists(ATOM | st.lists(ATOM, max_size=3), max_size=3)
# a rule's runs: junk, (start, rate) pairs, or one run from state 0
RUNS = (JUNK | st.lists(st.tuples(st.sampled_from([0, 1, 2.0]), VALUE), min_size=1, max_size=3)
        | st.builds(lambda rate: [(0, rate)], NUMBER))
# simulate's horizon stays small: a large one is costly input
SIM_CONFIG = st.builds(SimConfig, st.sampled_from([0.5, 1, 10]), COUNT | st.just("2"),
                       COUNT | st.just("2"), st.just(0.1))


def _simulate(cfg):
    return simulate(constant_policy(0.4, 1.0), cfg, CSQ)


def _rate_function(kind, role, domain, exponent, points):
    return RateFunction(kind, role, domain=domain, exponent=exponent, points=points)


# each builder with a strategy for its positional arguments; an optional
# argument may also be None, its default
BUILDERS = {
    "power_function": (power_function, st.tuples(VALUE, DOMAIN, ROLE)),
    "RateFunction": (_rate_function, st.tuples(
        KIND, ROLE, st.none() | DOMAIN, st.none() | VALUE, st.none() | POINTS)),
    "function_from_spec": (function_from_spec, st.tuples(SPEC, ROLE)),
    "piecewise_function": (piecewise_function, st.tuples(POINTS, ROLE)),
    "discrete_function": (discrete_function, st.tuples(POINTS, ROLE)),
    "uniform_actions": (uniform_actions, st.tuples(VALUE, COUNT)),
    "LagrangianProblem": (LagrangianProblem, st.tuples(
        VALUE, VALUE, st.lists(VALUE, max_size=3) | JUNK, st.lists(VALUE, max_size=3) | JUNK,
        st.just(CSQ), st.none() | st.just(USQRT))),
    "Policy": (Policy, st.tuples(RUNS, st.just([(0, 0.0)]) | RUNS, st.just(0.3) | NUMBER,
                                 st.just(1.0) | NUMBER, st.sampled_from([2, 3]))),
    "policy_from_pieces": (policy_from_pieces, st.tuples(PIECES, VALUE, PIECES, VALUE)),
    "simulate": (_simulate, st.tuples(SIM_CONFIG)),
    "mc1_policy": (mc1_policy, st.tuples(NUMBER, NUMBER, st.none() | NUMBER, NUMBER)),
    "mc21_policy": (mc21_policy, st.tuples(NUMBER, NUMBER, NUMBER, st.none() | COUNT,
                                           st.none() | NUMBER)),
    "mc22_policy": (mc22_policy, st.tuples(NUMBER, NUMBER, NUMBER, NUMBER)),
    "mc23_policy": (mc23_policy, st.tuples(NUMBER, NUMBER, NUMBER, st.none() | NUMBER)),
    "lambda_mu_policy": (lambda_mu_policy, st.tuples(
        NUMBER, NUMBER, st.none() | NUMBER, st.none() | COUNT, NUMBER, NUMBER)),
    "lc_mirror_policy": (lc_mirror_policy, st.tuples(NUMBER, TAG, NUMBER)),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
@settings(max_examples=300)
@given(data=st.data())
def test_builders_build_or_raise_value_error(name, data):
    build, args = BUILDERS[name]
    drawn = data.draw(args)
    try:
        build(*drawn)
    except ValueError:
        return
    assert not _holds_a_non_number(drawn), "built from %r" % (drawn,)


# a multiplier grid: None, a scalar, a string or a list of values, or, as
# often as those together, a list of non-negative numbers, whose inf and
# NaN are failed points, not refusals
GRID = st.booleans().flatmap(lambda listed: st.lists(
    st.sampled_from([0.0, -0.0, 5e-324, 0.5, 2.0, 1e308, math.inf, math.nan]),
    min_size=1, max_size=3) if listed else st.none() | VALUE | st.sampled_from(["", "0.5"])
    | st.lists(VALUE, max_size=3))
# a problem of 3 service and 2 arrival rates at a small state_cap; its
# utility is None or USQRT, so a beta2 > 0 is sometimes refused
PROBLEM = st.builds(lambda cap, utility: LagrangianProblem(
    0.0, 0.0, [0, 0.5, 1], [0, 0.3], CSQ, utility, state_cap=cap),
    st.integers(10, 12), st.none() | st.just(USQRT))


def _start(lam, k, mu, horizon):
    # a Policy on states 0..horizon, with arrivals at lam below k and none
    # from k on, and service mu above state 0
    return Policy([(0, lam), (k, 0.0)], [(0, 0.0), (1, mu)], 0.0, mu, horizon)


@settings(max_examples=200, deadline=None)
@given(lp=PROBLEM, b1=GRID, b2=GRID)
def test_trace_traces_or_raises_value_error(lp, b1, b2):
    # trace_tradeoff returns only on two lists of numbers
    try:
        trace_tradeoff(lp, b1, b2)
    except ValueError:
        return
    for grid in (b1, b2):
        assert isinstance(grid, list) and not _holds_a_non_number(grid), \
            "traced %r x %r" % (b1, b2)


@settings(max_examples=200, deadline=None)
@given(lp=PROBLEM, beta1=st.sampled_from([0.0, 0.5, 50.0, 1e308]),
       beta2=st.sampled_from([0.0, 0.5]), data=st.data())
def test_solve_solves_or_raises_value_error(lp, beta1, beta2, data):
    # solve's start is None, no policy at all, or, as often as those
    # together, a Policy on states 0..horizon whose rates may lie outside
    # the action sets; solve returns only on None or a Policy on states
    # 0..state_cap
    cap = lp.state_cap
    try:
        lp = lp.with_multipliers(beta1, beta2)
        if data.draw(st.booleans()):
            start = data.draw(st.none() | GRID)
        else:
            start = _start(*data.draw(st.tuples(
                st.sampled_from([0.0, 0.3]) | NUMBER, st.sampled_from([1, 5, cap]),
                st.sampled_from([0.5, 1.0]) | NUMBER,
                st.sampled_from([cap - 1, cap, cap, cap + 1]))))
    except ValueError:
        return
    try:
        solve(lp, start=start)
    except ValueError:
        return
    assert start is None or isinstance(start, Policy) and start.horizon == cap, \
        "solved from %r" % (start,)


def test_numpy_scalars_are_numbers():
    # an action set, a run and a tail of numpy scalars read as their floats,
    # with no warning (the suite turns warnings into errors)
    lp = LagrangianProblem(0.0, 0.0, np.array([0, 0.5, 1], dtype=np.float32),
                           np.float16([0.25]), CSQ, state_cap=20)
    assert lp.service_actions == [0.0, 0.5, 1.0] and lp.arrival_actions == [0.25]
    p = Policy([(np.int64(0), np.float32(0.25))], [(0, 0.0)], np.float32(0.25), 1.0, 0)
    assert p == constant_policy(0.25, 1.0)


@pytest.mark.parametrize("build,message", [
    (lambda: mc21_policy("0.1", 0.2, 1.0, 3), "lam must be a number, got '0.1'"),
    (lambda: mc21_policy(0.1, 0.2, "1.0", 3), "r_max must be a number, got '1.0'"),
    (lambda: mc22_policy("0.39", 0.2, 0.4, 0.01), "lam must be a number, got '0.39'"),
    (lambda: mc22_policy(0.39, True, 0.4, 0.01), "a_lam must be a number, got True"),
    (lambda: mc23_policy(0.4, "0.1", 0.01), "K must be a number, got '0.1'"),
    (lambda: lc_mirror_policy(0.5, CaseTag("LC2-1", ("0.1", 0.9), "log", 0.5), 0.01),
     "window_lo must be a number, got '0.1'"),
])
def test_families_name_a_param_that_is_not_a_number(build, message):
    # each of these compared the string, or the bool, before any number
    # check read it, and ended in a TypeError from < or <=
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def _holds_a_non_number(x):
    # True or "2" anywhere in the arguments; a role or tag family is no number
    if isinstance(x, dict):
        return _holds_a_non_number(list(x.values()))
    if isinstance(x, (tuple, list)):
        return any(map(_holds_a_non_number, x))
    return x is True or x == "2"


MENU = discrete_function([(s, s * s) for s in (0, 0.2, 0.4, 0.6, 1)])
ENV = lower_convex_envelope(MENU)
MC22 = CaseTag("MC2-2", (0.2, 0.4), "log", 0.39)
MC22_POLICY = mc22_policy(0.39, 0.2, 0.4, 0.01)
LC21 = CaseTag("LC2-1", (0.4, 0.6), "log", 0.5)
# five samples whose qbar grows like log(1/V) over four decades of V
LOG_SAMPLES = [ScalingSample(0.0, v, math.log(1.0 / v), 0.0, 0.0)
               for v in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)]
# each use of a case tag, with a tag it accepts
TAG_USES = {
    "lc_mirror_policy": (LC21, lambda tag: lc_mirror_policy(0.5, tag, 0.01)),
    "support_line": (MC22, lambda tag: support_line(ENV, tag)),
    "audit_lower_bound": (MC22, lambda tag: audit_lower_bound(
        MC22_POLICY, tag, ENV, None, 0.154)),
    "classify_regime": (MC22, lambda tag: classify_regime(LOG_SAMPLES, tag)),
}


@pytest.mark.parametrize("field,value,message", [
    ("window", 0.5, "window must be a pair of numbers, got 0.5"),
    ("window", (0.4,), "window must be a pair of numbers, got (0.4,)"),
    ("window", (0.4, 0.6, 0.7), "window must be a pair of numbers, got (0.4, 0.6, 0.7)"),
    ("window", ("0.2", 0.4), "window_lo must be a number, got '0.2'"),
    ("anchor", "0.5", "anchor must be a number, got '0.5'"),
])
@pytest.mark.parametrize("use", sorted(TAG_USES))
def test_a_tag_of_another_shape_is_refused_by_field(use, field, value, message):
    # each of these ended in a TypeError or an IndexError where the tag's
    # window was unpacked or its anchor compared
    tag, call = TAG_USES[use]
    call(tag)
    with pytest.raises(ValueError, match=re.escape(message)):
        call(tag._replace(**{field: value}))


# None means "no tag" to an audit and a fit
@pytest.mark.parametrize("use,bad", [("lc_mirror_policy", None)] + [
    (use, bad) for use in ("audit_lower_bound", "classify_regime", "lc_mirror_policy")
    for bad in (("MC2-2", (0.2, 0.4), "log", 0.39), "MC2-2")])
def test_a_tag_that_is_no_case_tag_is_refused(use, bad):
    # each of these read a field of the tag first, and ended in an
    # AttributeError
    with pytest.raises(ValueError) as err:
        TAG_USES[use][1](bad)
    assert str(err.value) == "%s needs a CaseTag, got %s" % (use, type(bad).__name__)


@pytest.mark.parametrize("call,message", [
    # a misspelt family ran the pi-zero check alone, and exited 0
    (lambda: audit_lower_bound(MC22_POLICY, MC22._replace(family="MC22"), ENV, None, 0.154),
     "no audit for case family 'MC22'"),
    (lambda: audit_lower_bound(MC22_POLICY, MC22._replace(family=""), ENV, None, 0.154),
     "no audit for case family ''"),
    # an unknown regime, or none, read as a verdict of "contradicts"
    (lambda: classify_regime(LOG_SAMPLES, CaseTag("X", None, "bogus", None)),
     "no growth model for regime 'bogus'"),
    (lambda: classify_regime(LOG_SAMPLES, MC22._replace(regime=None)),
     "no growth model for regime None"),
])
def test_a_tag_that_names_no_case_is_refused(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# a builder that sweep draws: a family constructor, or junk
BUILD = st.just(lambda U: mc22_policy(0.39, 0.2, 0.4, U)) | JUNK


@settings(max_examples=200)
@given(build=BUILD, grid=JUNK | st.lists(NUMBER, min_size=1, max_size=3))
def test_sweep_sweeps_or_raises_value_error(build, grid):
    # sweep returns only with a callable build, and a grid point that is no
    # positive number is a failure record, not a sample
    try:
        samples, _ = sweep(build, grid, ENV, 0.154)
    except ValueError:
        return
    assert callable(build) and all(_positive(s.U) for s in samples), \
        "swept %r over %r" % (build, grid)


# a sample whose V and qbar are junk
SAMPLE = st.builds(ScalingSample, st.just(1.0), ATOM, ATOM, st.just(0.0), st.just(0.0))


@settings(max_examples=200)
@given(samples=JUNK | st.lists(SAMPLE | ATOM, min_size=5, max_size=6)
       | st.just(LOG_SAMPLES))
def test_classify_fits_or_raises_value_error(samples):
    # classify_regime returns only on samples whose V and qbar are numbers
    try:
        classify_regime(samples)
    except ValueError:
        return
    assert all(_number(s.V) and _number(s.qbar) for s in samples), \
        "fitted %r" % (samples,)


@pytest.mark.parametrize("call,message", [
    (lambda: LagrangianProblem(1, 0, None, [0.4], CSQ),
     "service actions must be a list of rates, got None"),
    (lambda: LagrangianProblem(1, 0, [0, 1], 0.4, CSQ),
     "arrival actions must be a list of rates, got 0.4"),
    (lambda: sweep(lambda U: MC22_POLICY, None, ENV, 0.154),
     "U grid must be a list of scales, got None"),
    (lambda: classify_regime(None), "samples must be a list of ScalingSamples, got None"),
    (lambda: Policy(None, [(0, 0.0)], 0.1, 1.0, 0),
     "lam must be a list of (start, rate) runs, got None"),
    (lambda: Policy([(0, 0.1)], 5, 0.1, 1.0, 0), "mu must be a list of (start, rate) runs, got 5"),
    (lambda: Policy([(0, 0.1, 3)], [(0, 0.0)], 0.1, 1.0, 0),
     "a lam run is a (start, rate) pair, got (0, 0.1, 3)"),
    (lambda: Policy([(0, 0.1)], [0], 0.1, 1.0, 0), "a mu run is a (start, rate) pair, got 0"),
])
def test_a_list_rule_refusal_names_the_argument(call, message):
    # each ended in a TypeError ("... is not iterable", "... has no len()")
    # or in Policy's unnamed "too many values to unpack"
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def _number(x):
    return not isinstance(x, bool) and isinstance(x, (int, float))


def _integer(x):
    return _number(x) and float(x).is_integer()


def _finite_number(x):
    return _number(x) and math.isfinite(x)


def _positive(x):
    return _number(x) and 0 < x < math.inf


SR = stationary(constant_policy(0.4, 1.0))
# each numeric callable as a call of one argument x, with what x must be
# for the call to return
NUMERIC_CALLS = {
    "evaluate": (lambda x: evaluate(CSQ, x), _number),
    "feasibility_cost": (lambda x: feasibility(CSQ, USQRT, x, 0.6), _number),
    "feasibility_utility": (lambda x: feasibility(CSQ, USQRT, 0.16, x), _number),
    "evaluate_piecewise": (lambda x: evaluate(ENV, x), _number),
    "evaluate_discrete": (lambda x: evaluate(MENU, x), _number),
    "inverse": (lambda x: inverse(CSQ, x), _number),
    "inverse_piecewise": (lambda x: inverse(ENV, x), _number),
    "classify_case": (lambda x: classify_case(CSQ, x), _finite_number),
    "classify_case_piecewise": (lambda x: classify_case(ENV, x), _finite_number),
    "pi_at": (lambda x: pi_at(SR, x), _integer),
    "mass_below": (lambda x: mass_below(SR, x), _integer),
    "sweep": (lambda x: sweep(lambda U: MC22_POLICY, [0.01], ENV, x), _number),
    "audit_lower_bound": (lambda x: audit_lower_bound(MC22_POLICY, MC22, ENV, None, x),
                          _number),
    "mc1_policy": (lambda x: mc1_policy(0.5, x), _positive),
    "mc22_policy": (lambda x: mc22_policy(0.39, 0.2, 0.4, x), _positive),
    "mc23_policy": (lambda x: mc23_policy(0.4, 0.1, x), _positive),
    "lambda_mu_policy": (lambda x: lambda_mu_policy(0.4, x), _positive),
    "lc_mirror_policy": (lambda x: lc_mirror_policy(0.5, LC21, x), _positive),
}


@pytest.mark.parametrize("name", sorted(NUMERIC_CALLS))
@given(x=VALUE | BOUND | st.none())
def test_numeric_calls_return_only_on_a_number(name, x):
    call, accepts = NUMERIC_CALLS[name]
    try:
        call(x)
    except ValueError:
        return
    assert accepts(x), "returned on %r" % (x,)


@pytest.mark.parametrize("call,message", [
    (lambda: evaluate(CSQ, True), "rate must be a number, got True"),
    (lambda: inverse(CSQ, "1"), "value must be a number, got '1'"),
    (lambda: classify_case(CSQ, True), "operating rate must be a finite number, got True"),
    (lambda: pi_at(SR, 1.5), "q must be an integer, got 1.5"),
    (lambda: mass_below(SR, math.nan), "q must be a finite number, got nan"),
    (lambda: sweep(lambda U: MC22_POLICY, [0.01], ENV, "1"), "c_ref must be a number, got '1'"),
    (lambda: audit_lower_bound(MC22_POLICY, MC22, ENV, None, None),
     "c_ref must be a number, got None"),
    (lambda: mc22_policy(0.39, 0.2, 0.4, None), "U must be a positive finite number, got None"),
    (lambda: mc1_policy(0.5, 0.01, r_max=None),
     "r_max must be a positive finite number, got None"),
    (lambda: RateFunction("bogus", "cost", points=[(0, 0), (1, 1)]),
     "kind must be 'power', 'piecewise' or 'discrete', got 'bogus'"),
    # each converted q to a float, and ended in "OverflowError: int too large
    # to convert to float"
    (lambda: pi_at(SR, 10 ** 400), "q must lie below the largest double, about 1.8e308"),
    (lambda: mass_below(SR, 10 ** 400), "q must lie below the largest double, about 1.8e308"),
])
def test_a_number_rule_refusal_names_the_argument(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("call,what", [
    (lambda x: Policy([(0, 0.1)], [(0, 0.0)], x, 1.0, 0), "arrival tail"),
    (lambda x: piecewise_function([(0, 0), (1, x)]), "value"),
    (lambda x: policy_from_pieces([[0, 1, x]], 0.1, [], 1.0), "piece rate"),
])
def test_an_int_beyond_the_largest_double_is_no_finite_number(call, what):
    # math.isfinite converted the int, and ended in "OverflowError: int too
    # large to convert to float"
    with pytest.raises(ValueError) as err:
        call(10 ** 400)
    assert str(err.value) == "%s must be a finite number, got %d" % (what, 10 ** 400)


@pytest.mark.parametrize("call,message", [
    (lambda x: power_function(x), "exponent must be a finite number, got %r"),
    (lambda x: evaluate(power_function(2.0), x), "rate must be a number, got %r"),
    (lambda x: uniform_actions(1.0, x), "n must be an integer, got %r"),
], ids=["power_function", "evaluate", "uniform_actions"])
def test_a_real_with_no_double_is_no_number(call, message):
    # each converted the Fraction to a float, and ended in "OverflowError:
    # integer division result too large for a float"; a Fraction that has
    # a double is still a number
    big = Fraction(10 ** 400)
    with pytest.raises(ValueError) as err:
        call(big)
    assert str(err.value) == message % (big,)
    assert evaluate(power_function(2.0), Fraction(1, 2)) == 0.25


POLICY = constant_policy(0.4, 1.0)
COST = "the cost must be a cost RateFunction, got %r"
UTILITY = "the utility must be None or a utility RateFunction, got %r"
# each use of a cost c and a utility u
ROLE_USES = {
    "LagrangianProblem": lambda c, u: LagrangianProblem(
        50.0, 0.0, [0, 0.5, 1], [0.3], c, u, state_cap=20),
    "exact_metrics": lambda c, u: exact_metrics(POLICY, c, u),
    "feasibility": lambda c, u: feasibility(c, u, 0.16, 0.6),
    "metrics": lambda c, u: metrics(SR, c, u),
    "simulate": lambda c, u: simulate(POLICY, SimConfig(10, 2, 0, 0.1), c, u),
}


@pytest.mark.parametrize("c,u,message", [
    (None, None, COST % None),
    (USQRT, None, COST % USQRT),
    ("r^2", USQRT, COST % "r^2"),
    (CSQ, CSQ, UTILITY % CSQ),
    (CSQ, "sqrt", UTILITY % "sqrt"),
])
@pytest.mark.parametrize("use", sorted(ROLE_USES))
def test_a_function_missing_or_in_the_wrong_role_is_refused(use, c, u, message):
    # a missing cost was priced at zero, and a function was read in the
    # role it was passed in, whatever its own
    ROLE_USES[use](CSQ, USQRT)
    with pytest.raises(ValueError) as err:
        ROLE_USES[use](c, u)
    assert str(err.value) == message


def test_feasibility_needs_a_utility():
    # a missing utility ended in an AttributeError inside inverse
    with pytest.raises(ValueError) as err:
        feasibility(CSQ, None, 0.16, 0.6)
    assert str(err.value) == "feasibility needs a utility RateFunction, got None"


# junk that replaces each argument of each exported function in turn: the
# call must return or raise ValueError
JUNK_ARGS = [None, "x", object(), 10 ** 400, -10 ** 400, Fraction(10 ** 400), [1], {},
             [10 ** 400]]
LP = LagrangianProblem(5.0, 0.0, [0, 0.5, 1], [0, 0.3], CSQ, state_cap=10)
# one valid call of each exported function, and of each exported class that
# takes input, every public parameter by name
API = {
    "CaseTag": {"family": "MC2-2", "window": (0.2, 0.4), "regime": "log", "anchor": 0.39},
    "LagrangianProblem": {"beta1": 5.0, "beta2": 0.0, "service_actions": [0, 0.5, 1],
                          "arrival_actions": [0, 0.3], "cost_fn": CSQ, "utility_fn": None,
                          "state_cap": 10},
    "Policy": {"lam": [(0, 0.4)], "mu": [(0, 0.0), (1, 1.0)], "lam_tail": 0.4,
               "mu_tail": 1.0, "horizon": 1, "ra_max": 0.5, "r_max": 1.0,
               "meta": {"source": "table"}},
    "RateFunction": {"kind": "power", "role": "cost", "domain": (0.0, 1.0), "exponent": 2.0,
                     "points": None},
    "SimConfig": {"horizon": 10, "replications": 2, "seed": 0, "warmup_fraction": 0.1},
    "audit_lower_bound": {"p": MC22_POLICY, "tag": MC22, "c": ENV, "u": None,
                          "c_ref": 0.154},
    "check_admissible": {"p": POLICY},
    "classify_case": {"f": CSQ, "rate": 0.5},
    "classify_regime": {"samples": LOG_SAMPLES, "tag": MC22},
    "constant_policy": {"lam": 0.4, "mu": 1.0},
    "discrete_function": {"points": [(0, 0), (0.5, 0.25), (1, 1)], "role": "cost"},
    "evaluate": {"f": CSQ, "r": 0.5},
    "exact_metrics": {"p": POLICY, "c": CSQ, "u": USQRT},
    "feasibility": {"c": CSQ, "u": USQRT, "c_c": 0.16, "u_c": 0.6},
    "function_from_spec": {"spec": {"kind": "power", "exponent": 2}, "role": "cost"},
    "function_to_spec": {"f": ENV},
    "inverse": {"f": CSQ, "v": 0.25},
    "is_admissible": {"p": POLICY},
    "is_stable": {"p": POLICY},
    "lambda_mu_policy": {"u_inv_uc": 0.4, "U": 0.01, "eps": 0.05, "K": 10, "ra_max": 1.0,
                         "r_max": 1.0},
    "lc_mirror_policy": {"mu": 0.5, "tag": LC21, "U": 0.01},
    "lower_convex_envelope": {"f_or_points": MENU},
    "mass_below": {"sr": SR, "q": 3},
    "mc1_policy": {"lam": 0.5, "U": 0.01, "K": 0.4, "r_max": 1.0},
    "mc21_policy": {"lam": 0.3, "b_lam": 0.5, "r_max": 1.0, "q_k": None, "U": 0.01},
    "mc22_policy": {"lam": 0.39, "a_lam": 0.2, "b_lam": 0.4, "U": 0.01},
    "mc23_policy": {"lam": 0.4, "K": 0.1, "U": 0.01, "next_corner": 0.6},
    "metrics": {"sr": SR, "c": CSQ, "u": USQRT},
    "pi_at": {"sr": SR, "q": 3},
    "piecewise_function": {"points": [(0, 0), (0.5, 0.25), (1, 1)], "role": "cost"},
    "policy_from_json": {"d": {"lambda": {"tail": 0.4}, "mu": {"tail": 1.0}}},
    "policy_from_pieces": {"lam_pieces": [[0, 2, 0.4]], "lam_tail": 0.3,
                           "mu_pieces": [[1, 2, 1.0]], "mu_tail": 1.0, "ra_max": 0.5,
                           "r_max": 1.0, "meta": {"source": "table"}},
    "policy_to_json": {"p": POLICY},
    "power_function": {"exponent": 2.0, "domain": (0.0, 1.0), "role": "cost"},
    "qlength_upper_bound": {"p": POLICY},
    "recurrent_window": {"p": POLICY},
    "simulate": {"p": POLICY, "cfg": SimConfig(10, 2, 0, 0.1), "c": CSQ, "u": USQRT},
    "solve": {"lp": LP, "start": solve(LP).policy},
    "stationary": {"p": POLICY},
    "support_line": {"f": ENV, "tag": MC22},
    "sweep": {"build": lambda U: mc22_policy(0.39, 0.2, 0.4, U), "U_grid": [0.01],
              "c": ENV, "c_ref": 0.154, "u": None},
    "trace_tradeoff": {"base": LP, "beta1_grid": [5.0], "beta2_grid": [0.0]},
    "uniform_actions": {"r_max": 1.0, "n": 11},
}
# the exported namedtuples that carry results out, and need no row
RESULTS = ["AuditCheck", "Metrics", "ScalingFit", "ScalingSample", "SimEstimate", "SolveResult",
           "StationaryResult", "SupportLine", "TradeoffPoint"]
BIG_V = ScalingSample(0.0, 10 ** 400, 1.0, 0.0, 0.0)
ARGS = [(name, param) for name, args in sorted(API.items()) for param in args]


def test_every_exported_function_and_parameter_has_a_row():
    # a new exported function or class, or a new public parameter, goes into
    # API; a new result namedtuple goes into RESULTS
    exported = {name for name, x in vars(qtl).items()
                if inspect.isfunction(x) or inspect.isclass(x)}
    assert sorted(exported) == sorted(list(API) + RESULTS)
    assert all(issubclass(getattr(qtl, name), tuple) for name in RESULTS)
    for name, args in API.items():
        params = inspect.signature(getattr(qtl, name)).parameters
        assert sorted(args) == sorted(p for p in params if not p.startswith("_")), name


@pytest.mark.parametrize("name", sorted(API))
def test_each_row_is_a_valid_call(name):
    getattr(qtl, name)(**API[name])


@pytest.mark.parametrize("name,param", ARGS)
def test_junk_in_any_argument_returns_or_raises_value_error(name, param):
    # each of these ended in an AttributeError for an object of another
    # type, or an OverflowError for an int that has no double
    for junk in JUNK_ARGS:
        try:
            getattr(qtl, name)(**dict(API[name], **{param: junk}))
        except ValueError:
            pass
        except Exception as exc:
            pytest.fail("%s(%s=%.40r) raised %r" % (name, param, junk, exc))


@pytest.mark.parametrize("call,message", [
    # each caught the ValueError of an object of another type, and answered
    # False; simulate then called the policy unstable
    (lambda: is_admissible(None), "is_admissible needs a Policy, got NoneType"),
    (lambda: is_stable("x"), "is_stable needs a Policy, got str"),
    (lambda: simulate(None, SimConfig(10, 2, 0, 0.1), CSQ),
     "is_stable needs a Policy, got NoneType"),
    # an AttributeError
    (lambda: stationary(None), "stationary needs a Policy, got NoneType"),
    (lambda: support_line(None, MC22), "support_line needs a RateFunction, got NoneType"),
    # an OverflowError
    (lambda: classify_regime(LOG_SAMPLES[:4] + [BIG_V]),
     "sample 4 needs a number V and qbar, got %r" % (BIG_V,)),
    (lambda: uniform_actions(1.0, 10 ** 400),
     "n must lie below the largest double, about 1.8e308"),
])
def test_an_object_of_another_type_is_refused_by_name(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
