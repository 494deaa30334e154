import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qtl import (
    CaseTag,
    classify_case,
    discrete_function,
    evaluate,
    function_from_spec,
    function_to_spec,
    inverse,
    lower_convex_envelope,
    piecewise_function,
    power_function,
    support_line,
)
from qtl.rate_functions import CURVATURE_FLOOR, _curvature, _in_domain, _left_slope

SQUARES = [(s, s * s) for s in (0, 0.2, 0.4, 0.5, 0.6, 0.8, 1)]


@pytest.fixture(scope="module")
def env():
    return lower_convex_envelope(discrete_function(SQUARES))


def test_power_eval():
    c = power_function(2.0)
    assert abs(evaluate(c, 0.4) - 0.16) < 1e-12
    assert evaluate(c, 0.0) == 0.0
    u = power_function(1.0, role="utility")
    assert evaluate(u, 0.39) == 0.39


def test_eval_errors():
    c = discrete_function(SQUARES)
    assert abs(evaluate(c, 0.4) - 0.16) < 1e-12
    with pytest.raises(ValueError):
        evaluate(c, 0.3)
    with pytest.raises(ValueError):
        evaluate(power_function(2.0), 1.5)


def test_inverse_basic(env):
    assert abs(inverse(power_function(2.0), 0.16) - 0.4) < 1e-12
    assert abs(inverse(power_function(1.0, role="utility"), 0.4) - 0.4) < 1e-12
    assert abs(inverse(env, 0.154) - 0.39) < 1e-12


def test_inverse_errors(env):
    with pytest.raises(ValueError):
        inverse(env, 2.0)
    with pytest.raises(ValueError):
        inverse(discrete_function(SQUARES), 0.1)


def test_envelope_hand_values(env):
    # every square sample is a hull corner for this set
    assert env.br == [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]
    assert abs(evaluate(env, 0.39) - 0.154) < 1e-9
    assert abs(evaluate(env, 0.40) - 0.160) < 1e-9
    assert abs(evaluate(env, 0.41) - 0.169) < 1e-9


def test_envelope_two_points():
    e = lower_convex_envelope(discrete_function([(0, 0), (1, 1)]))
    assert abs(evaluate(e, 0.5) - 0.5) < 1e-12


def test_envelope_drops_interior_point():
    pts = sorted(SQUARES + [(0.3, 0.15)])
    e = lower_convex_envelope(discrete_function(pts))
    assert 0.3 not in e.br


def test_envelope_below_samples(env):
    for r, v in SQUARES:
        assert evaluate(env, r) <= v + 1e-12


def test_envelope_idempotent(env):
    again = lower_convex_envelope(list(zip(env.br, env.bv)))
    assert again.br == env.br
    assert again.bv == env.bv


def test_envelope_refuses_a_utility():
    # a sqrt utility's lower convex envelope is the chord (0, 0)-(1, 1), which
    # came back as a cost, not the utility's upper concave hull
    roots = [(r, r ** 0.5) for r, _ in SQUARES]
    with pytest.raises(ValueError, match="upper concave hull"):
        lower_convex_envelope(discrete_function(roots, role="utility"))
    # raw points carry no role and are read as a cost, as before
    assert lower_convex_envelope(roots).br == [0.0, 1.0]


def test_envelope_refuses_a_power_function():
    # a power function has no points to take the hull of; zipping its
    # missing breakpoints ended in a TypeError
    with pytest.raises(ValueError, match="^lower_convex_envelope takes a point set; "
                                         "a power cost is convex and is its own envelope$"):
        lower_convex_envelope(power_function(2.0))
    with pytest.raises(ValueError, match="upper concave hull"):
        lower_convex_envelope(power_function(0.5, role="utility"))


@pytest.mark.parametrize("build", [piecewise_function, discrete_function,
                                   lower_convex_envelope])
@pytest.mark.parametrize("points,bad", [
    ([1, 2], "1"), ([(0, 0), 1], "1"), ([(0, 0), (1, 1, 1)], "(1, 1, 1)"),
    ([(0, 0), (0.5,)], "(0.5,)")])
def test_a_point_must_be_a_pair(build, points, bad):
    # a point that is not a pair ended in a TypeError from p[0] or unpacking
    with pytest.raises(ValueError) as err:
        build(points)
    assert str(err.value) == "a point is a (rate, value) pair, got " + bad


@pytest.mark.parametrize("build", [piecewise_function, discrete_function,
                                   lower_convex_envelope])
def test_points_must_be_a_list(build):
    with pytest.raises(ValueError, match="^points must be a list of "
                                         r"\(rate, value\) pairs, got 5$"):
        build(5)


def test_points_may_be_array_rows():
    rows = np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]])
    assert piecewise_function(rows).br == discrete_function(rows).br == [0.0, 0.5, 1.0]


def test_envelope_needs_two_points():
    with pytest.raises(ValueError):
        lower_convex_envelope([(0.5, 0.25)])


def test_classify_figure_envelope(env):
    t = classify_case(env, 0.40)
    assert (t.family, t.regime, t.anchor) == ("MC2-3", "inv", 0.4)
    assert t.window == (0.2, 0.5)
    t = classify_case(env, 0.39)
    assert (t.family, t.regime) == ("MC2-2", "log")
    assert t.window == (0.2, 0.4)
    t = classify_case(env, 0.41)
    assert (t.family, t.regime) == ("MC2-2", "log")
    assert t.window == (0.4, 0.5)
    t = classify_case(env, 0.10)
    assert (t.family, t.regime) == ("MC2-1", "finite")
    assert t.window == (0.0, 0.2)


def test_classify_analytic():
    t = classify_case(power_function(2.0), 0.5)
    assert (t.family, t.regime) == ("MC1", "inv-sqrt")
    t = classify_case(power_function(0.5, role="utility"), 0.5)
    assert (t.family, t.regime) == ("LC1", "inv-sqrt")


def test_classify_piecewise_utility():
    u = piecewise_function([(0, 0), (0.4, 0.36), (1, 0.6)], role="utility")
    assert classify_case(u, 0.2).family == "LC2-1"
    t = classify_case(u, 0.4)
    assert (t.family, t.regime) == ("LC2-2", "inv")


def test_classify_errors(env):
    with pytest.raises(ValueError):
        classify_case(env, 1.0)
    with pytest.raises(ValueError):
        classify_case(power_function(1.0), 0.5)
    with pytest.raises(ValueError):
        classify_case(discrete_function(SQUARES), 0.4)


@given(p=st.floats(1.5, 4.0), r=st.floats(0.05, 0.95))
def test_classify_convex_analytic_never_segmental(p, r):
    tag = classify_case(power_function(p), r)
    assert tag.family == "MC1"


def test_support_line_corner(env):
    sl = support_line(env, classify_case(env, 0.40))
    assert abs(sl.slope - 0.75) < 1e-12
    assert abs(sl.intercept - (-0.14)) < 1e-12
    assert sl.anchor == 0.4
    assert abs(sl.m_a - 0.15) < 1e-12


def test_support_line_chord(env):
    sl = support_line(env, classify_case(env, 0.39))
    assert abs(sl.slope - 0.6) < 1e-12
    assert sl.anchor == 0.2
    assert abs(sl.m_a - 0.3) < 1e-12


def test_support_line_tangent():
    c = power_function(2.0)
    sl = support_line(c, classify_case(c, 0.5))
    assert abs(sl.slope - 1.0) < 1e-9
    assert abs(sl.intercept - (-0.25)) < 1e-9
    # half the second derivative
    assert abs(sl.a1 - 1.0) < 1e-8


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("r", [1e-8, 1e-4, 0.5])
def test_a1_is_the_closed_form(p, r):
    # a1 = c''(r)/2 = p(p-1)/2 r^(p-2) exactly, also at anchors far below 1e-4
    c = power_function(p)
    want = p * (p - 1.0) / 2.0 * r ** (p - 2.0)
    assert 0.5 * _curvature(c, r) == want
    tag = CaseTag("MC1", (0.0, 1.0), "inv-sqrt", r)
    if 2.0 * want < CURVATURE_FLOOR:
        with pytest.raises(ValueError, match="below curvature floor"):
            support_line(c, tag)
    else:
        assert support_line(c, tag).a1 == want


def test_curvature_of_linear_pieces_is_zero(env):
    assert _curvature(env, 0.4) == 0.0 and _curvature(env, 0.3) == 0.0
    assert _curvature(discrete_function(SQUARES), 0.4) == 0.0
    assert _curvature(power_function(1.0), 5e-324) == 0.0


@pytest.mark.parametrize("r", [0.0, 1.0, -0.5, math.nan])
def test_curvature_refuses_a_rate_not_inside_the_domain(r):
    with pytest.raises(ValueError, match="rate %g is not strictly inside" % r):
        _curvature(power_function(2.0), r)


def test_curvature_refuses_an_overflow():
    with pytest.raises(ValueError, match="derivative 2 at rate 4.94066e-324 overflows"):
        _curvature(power_function(1.01), 5e-324)


@pytest.mark.parametrize("rate", [0.39, 0.40, 0.41])
def test_support_line_below_cost(env, rate):
    sl = support_line(env, classify_case(env, rate))
    for i in range(1001):
        r = i / 1000.0
        assert sl.slope * r + sl.intercept <= evaluate(env, r) + 1e-12


def test_tangent_below_cost():
    c = power_function(2.0)
    sl = support_line(c, classify_case(c, 0.5))
    for i in range(1001):
        r = i / 1000.0
        assert sl.slope * r + sl.intercept <= evaluate(c, r) + 1e-12


@given(r=st.floats(0.01, 0.99))
def test_inverse_round_trip_envelope(env, r):
    assert abs(inverse(env, evaluate(env, r)) - r) < 1e-10


@given(r=st.floats(0.01, 0.99))
def test_inverse_round_trip_power(r):
    c = power_function(2.0)
    assert abs(inverse(c, evaluate(c, r)) - r) < 1e-10


def test_spec_round_trip(env):
    for f in (power_function(2.0), env, discrete_function(SQUARES)):
        back = function_from_spec(function_to_spec(f), f.role)
        assert back.kind == f.kind
        assert back.lo == f.lo and back.hi == f.hi
        if f.kind == "power":
            assert back.exponent == f.exponent
        else:
            assert back.br == f.br and back.bv == f.bv


def test_spec_bad_kind():
    with pytest.raises(ValueError):
        function_from_spec({"kind": "spline", "domain": [0, 1]}, "cost")


def test_shape_validation():
    with pytest.raises(ValueError):
        power_function(0.5)  # concave cost
    with pytest.raises(ValueError):
        power_function(2.0, role="utility")  # convex utility
    with pytest.raises(ValueError):
        piecewise_function([(0, 0), (0.5, 0.4), (1, 0.6)])  # slopes decrease
    with pytest.raises(ValueError):
        piecewise_function([(0, 0.1), (1, 1)])  # nonzero at rate 0
    with pytest.raises(ValueError):
        discrete_function([(0, 0), (0.5, 0.3), (0.5, 0.4)])  # duplicate rate
    with pytest.raises(ValueError):
        discrete_function([(0, 0), (0.5, 0.4), (1, 0.2)])  # values decrease


@pytest.mark.parametrize("build,message", [
    (lambda: power_function(2.0, role="x"), "role must be 'cost' or 'utility'"),
    (lambda: power_function(2.0, domain=(1.0, 0.0)), "empty rate domain [1, 0]"),
    (lambda: power_function(0.0), "power kind needs a positive exponent"),
    (lambda: power_function(2.0, domain=(-1.0, 1.0)), "rates are non-negative"),
    (lambda: piecewise_function([(0, 0), (0.5, 0.2), (1, 0.6)], role="utility"),
     "utility segment slopes must strictly decrease"),
    (lambda: discrete_function([(0.5, 0.25)]), "need at least 2 sample points"),
    (lambda: lower_convex_envelope([(0, 0), (0.5, 0.2), (0.5, 0.3)]),
     "duplicate rates in point set"),
    (lambda: function_from_spec({"kind": "piecewise"}, "cost"),
     "piecewise kind needs 'points'"),
    (lambda: power_function(math.inf), "exponent must be a finite number, got inf"),
    (lambda: power_function(math.nan), "exponent must be a finite number, got nan"),
    (lambda: power_function(2.0, domain=(0.0, math.inf)),
     "domain bound must be a finite number, got inf"),
    (lambda: piecewise_function([(0, 0), (1, math.nan)]),
     "value must be a finite number, got nan"),
    # an IndexError at rs[0]
    pytest.param(lambda: piecewise_function([]), "need at least 2 sample points",
                 id="empty-piecewise"),
])
def test_construction_refusals(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("r,inside", [
    (-1e-12, True), (-2e-12, False), (1.0 + 1e-12, True), (1.0 + 2e-12, False),
    (math.nan, False)])
def test_evaluate_and_in_domain_agree(r, inside):
    # the audit's pi-zero skip reads the same domain rule as evaluate
    c = power_function(2.0)
    assert _in_domain(c, r) is inside
    if inside:
        assert evaluate(c, r) == min(max(r, 0.0), 1.0) ** 2
    else:
        with pytest.raises(ValueError, match="outside domain"):
            evaluate(c, r)


@pytest.mark.parametrize("spec", [
    {"kind": "power", "exponent": "2"},
    {"kind": "power", "exponent": True},
    {"kind": "power", "exponent": None},
    {"kind": "piecewise", "points": [[0, 0], [1]]},
    {"kind": "piecewise", "points": [[0, 0], [1, "1"]]},
    {"kind": "discrete", "points": 5},
    {"kind": "discrete", "points": [[0, 0], [0.5, 0.25], 1]},
])
def test_spec_refuses_malformed_numbers(spec):
    with pytest.raises(ValueError):
        function_from_spec(spec, "cost")


@pytest.mark.parametrize("tag,field", [
    (CaseTag("MC1", (0.0, 1.0), "inv-sqrt", None), "anchor"),
    (CaseTag("MC2-2", None, "log", 0.39), "window"),
    (CaseTag("MC2-3", None, "inv", 0.4), "window"),
    (CaseTag("MC2-3", (0.2, 0.6), "inv", None), "anchor"),
])
def test_support_line_names_missing_tag_field(env, tag, field):
    f = power_function(2.0) if tag.family == "MC1" else env
    with pytest.raises(ValueError, match=repr(field)):
        support_line(f, tag)


@pytest.mark.parametrize("tag,message", [
    (None, "support_line needs a CaseTag, got NoneType"),
    (("MC2-2", (0.2, 0.4), "log", 0.3), "support_line needs a CaseTag, got tuple"),
    (CaseTag("bogus", (0.2, 0.4), "log", 0.3), "no support line for case family 'bogus'"),
    (CaseTag("LMU", None, "log", 0.4), "no support line for case family 'LMU'"),
])
def test_support_line_refuses_a_tag_classify_case_never_returns(env, tag, message):
    # None ended in an AttributeError, and a misspelt family was taken for a
    # segment-interior tag and returned a chord
    with pytest.raises(ValueError) as err:
        support_line(env, tag)
    assert str(err.value) == message


def test_piecewise_rates_are_non_negative():
    with pytest.raises(ValueError, match="^rates are non-negative$"):
        piecewise_function([(-0.1, 0), (1, 1)])


def test_left_slope_needs_a_segment_below_the_rate():
    # a piecewise utility's first segment ends at 0.5, so no segment lies
    # below its first breakpoint
    u = piecewise_function([(0, 0), (0.5, 0.4), (1, 0.6)], role="utility")
    assert _left_slope(u, 0.5) == 0.8 and _left_slope(u, 1.0) == _left_slope(u, 0.7)
    for r in (0.0, -0.1):
        with pytest.raises(ValueError, match="^rate %g at or below the utility domain$" % r):
            _left_slope(u, r)
