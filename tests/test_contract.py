"""Contract fuzz of the library's builders: any input ends in a built
object or a ValueError, never in another exception.

Numeric arguments are drawn from signed zeros, the smallest subnormal,
+-1e308, +-inf, NaN and a few ordinary values; point lists hold 0 to 3
points.  Counts are drawn from small values, a non-integral float, NaN,
inf and a bool only: a large count is costly input, not malformed input.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from qtl import (
    CaseTag,
    discrete_function,
    lambda_mu_policy,
    lc_mirror_policy,
    mc1_policy,
    mc21_policy,
    mc22_policy,
    mc23_policy,
    piecewise_function,
    power_function,
    uniform_actions,
)

NUMBER = st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf,
                          math.nan, 0.1, 0.4, 0.5, 2.0])
COUNT = st.sampled_from([-1, 0, 1, 2, 2.5, 3, math.nan, math.inf, True])
POINTS = st.lists(st.tuples(NUMBER, NUMBER), max_size=3)
ROLE = st.sampled_from(["cost", "utility"])
TAG = st.builds(CaseTag, st.sampled_from(["LC1", "LC2-1", "LC2-2"]),
                st.tuples(NUMBER, NUMBER), st.none(), st.none())

# each builder with a strategy for its positional arguments; an optional
# argument may also be None, its default
BUILDERS = {
    "power_function": (power_function, st.tuples(NUMBER, st.tuples(NUMBER, NUMBER), ROLE)),
    "piecewise_function": (piecewise_function, st.tuples(POINTS, ROLE)),
    "discrete_function": (discrete_function, st.tuples(POINTS, ROLE)),
    "uniform_actions": (uniform_actions, st.tuples(NUMBER, COUNT)),
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
    try:
        build(*data.draw(args))
    except ValueError:
        pass
