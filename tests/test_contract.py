"""Contract fuzz of the library's builders: any input ends in a built
object or a ValueError, never in another exception.

Numeric arguments are drawn from signed zeros, the smallest subnormal,
+-1e308, +-inf, NaN and a few ordinary values; point lists hold 0 to 3
points.  Counts are drawn from small values, a non-integral float, NaN,
inf and a bool only: a large count is costly input, not malformed input.
The rate-function builders, ``uniform_actions``, ``LagrangianProblem``,
``policy_from_pieces`` and ``simulate`` also draw True and "2" where a
number goes, and must refuse either one, never convert it.  The family
constructors draw numbers only; a table checks that a string or a bool
among their ordered params is refused by name, and another that a case
tag whose window or anchor has another shape is refused by field.
"""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from qtl import (
    CaseTag,
    LagrangianProblem,
    SimConfig,
    audit_lower_bound,
    constant_policy,
    discrete_function,
    lambda_mu_policy,
    lc_mirror_policy,
    lower_convex_envelope,
    mc1_policy,
    mc21_policy,
    mc22_policy,
    mc23_policy,
    piecewise_function,
    policy_from_pieces,
    power_function,
    simulate,
    support_line,
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


# each builder with a strategy for its positional arguments; an optional
# argument may also be None, its default
BUILDERS = {
    "power_function": (power_function, st.tuples(VALUE, st.tuples(VALUE, VALUE), ROLE)),
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
    if isinstance(x, (tuple, list)):
        return any(map(_holds_a_non_number, x))
    return x is True or x == "2"


ENV = lower_convex_envelope(discrete_function([(s, s * s) for s in (0, 0.2, 0.4, 0.6, 1)]))
MC22 = CaseTag("MC2-2", (0.2, 0.4), "log", 0.39)
# each use of a case tag, with a tag it accepts
TAG_USES = {
    "lc_mirror_policy": (CaseTag("LC2-1", (0.4, 0.6), "log", 0.5),
                         lambda tag: lc_mirror_policy(0.5, tag, 0.01)),
    "support_line": (MC22, lambda tag: support_line(ENV, tag)),
    "audit_lower_bound": (MC22, lambda tag: audit_lower_bound(
        mc22_policy(0.39, 0.2, 0.4, 0.01), tag, ENV, None, 0.154)),
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
