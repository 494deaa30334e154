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

The numeric callables (``evaluate``, ``inverse``, ``classify_case``,
``pi_at``, ``mass_below``, ``sweep`` and ``audit_lower_bound`` at their
c_ref, and each family constructor but mc21 at its scale U, which mc21
does not always need) draw one argument from all of the above and None,
and may return only where it is a number (an integer for ``pi_at`` and
``mass_below``), as may ``feasibility`` at each of its two levels.  Every
use of a case tag refuses one that is no CaseTag, and every use of a cost
and a utility refuses one that is missing or in the other role.
"""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from qtl import (
    CaseTag,
    LagrangianProblem,
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
    stationary,
    support_line,
    sweep,
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
        VALUE, VALUE, st.lists(VALUE, max_size=3), st.lists(VALUE, max_size=3),
        st.just(CSQ), st.none() | st.just(USQRT))),
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
])
def test_a_number_rule_refusal_names_the_argument(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


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
