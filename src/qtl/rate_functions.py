"""Cost and utility rate functions.

A service cost rate function c(mu) is strictly increasing and convex with
c(0) = 0; a utility rate function u(lam) is strictly increasing and concave
with u(0) = 0.  Both live on a closed rate interval.  Three representations:

* ``power``     : r -> r**p, analytic, strictly convex for p > 1 and
                  strictly concave for p < 1 (p = 1 is the linear edge),
* ``piecewise`` : linear interpolation through ordered breakpoints,
* ``discrete``  : a finite sample set, evaluable only at the samples.

A discrete set becomes a usable cost function through its lower convex
envelope (greatest convex minorant).  The envelope corners partition the
rate axis into segments, which drive the case taxonomy used by the
asymptotic analysis:

  MC1 / LC1     strictly convex cost / strictly concave utility
  MC2-1         rate strictly inside the first cost segment (0, b1)
  MC2-2 / LC2-1 rate strictly inside a later / any segment
  MC2-3 / LC2-2 rate at an interior corner

``support_line`` builds the line l through the operating point that the
lower-bound audits compare against, along with the adjacent-slope gap m_a
and the curvature constant a1 where those are defined.

The module also owns the input rules that every layer reads: what a
number is (``_is_number``: a real number that has a double, never a
bool, a string, an int past the largest double or another Real that
float() cannot take; ``_numeric`` refuses by name the first named
argument that is not one), a finite number (``_finite``), a count
(``_count``: an int of any size, whose callers bound it, or an integral
float), a list (``_list``: whatever ``list()`` reads; grids, action
sets, points, runs and samples alike), a pair (``_pair``), an object of a
given type (``_instance``: every exported function checks the Policy,
stationary result, RateFunction or problem it reads), when two rates are
equal (``RATE_TOL``), what a case tag is (``_check_tag``; a CaseTag checks
its window and anchor when it is built) and what a cost and a utility are
(``_check_roles``).
"""

import bisect
import math
import numbers
import sys
from collections import namedtuple

CORNER_TOL = 1e-9
CURVATURE_FLOOR = 1e-6  # below this the analytic kind has no usable curvature
# two rates (or values) this close are equal, and a rate this far outside a
# domain is inside it
RATE_TOL = 1e-12
# the largest double, as an int: a larger int has no float, and a count
# beyond it has no state in the stationary analytics and the simulator
_MAX_DOUBLE = int(sys.float_info.max)


class CaseTag(namedtuple("CaseTag", ["family", "window", "regime", "anchor"])):
    """A case of the taxonomy.  window is (a, b) of the active segment for
    segment-interior tags and the pair of bracketing corners for corner
    tags (MC2-3 / LC2-2).  A window that is no pair of numbers, or an
    anchor that is no number, is refused by field when the tag is built,
    ``_replace`` included; the window is stored as a tuple."""

    __slots__ = ()

    def __new__(cls, family, window, regime, anchor):
        if window is not None:
            if not (isinstance(window, (tuple, list)) and len(window) == 2):
                raise ValueError("case tag %s: window must be a pair of numbers, got %r"
                                 % (family, window))
            _numeric(window_lo=window[0], window_hi=window[1])
            window = tuple(window)
        if anchor is not None:
            _numeric(anchor=anchor)
        return super().__new__(cls, family, window, regime, anchor)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and so _replace, would skip __new__
        return cls(*iterable)


# the families classify_case returns
CASE_FAMILIES = ("MC1", "LC1", "MC2-1", "MC2-2", "MC2-3", "LC2-1", "LC2-2")

SupportLine = namedtuple("SupportLine", ["slope", "intercept", "anchor", "m_a", "a1"])


def _is_number(x):
    """True for a real number that has a double: never for a bool, for an
    int past the largest double, or for another Real (a Fraction, say) that
    float() cannot take."""
    # float and int first: they pass without the slower abstract-class check
    if isinstance(x, float):
        return True
    if isinstance(x, int):
        return not isinstance(x, bool) and abs(x) <= _MAX_DOUBLE
    if not isinstance(x, numbers.Real):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _numeric(**named):
    """Refuse, by name, the first argument that is not a number (a NaN or an
    infinite one is a number), before any comparison reads it: a string
    would end the comparison in a TypeError."""
    for name, x in named.items():
        if not _is_number(x):
            raise ValueError("%s must be a number, got %r" % (name, x))


def _finite(x, what):
    """x as a float; a bool, a string, inf, NaN or an int beyond the largest
    double is refused by name."""
    if not (_is_number(x) and math.isfinite(x)):
        raise ValueError("%s must be a finite number, got %r" % (what, x))
    return float(x)


def _count(x, what):
    """x as an int: an int of any size, or a finite float with an integral
    value; a bool, a string, 2.7 or inf is refused by name, never
    truncated.  Each caller bounds the count itself."""
    if not (type(x) is int or _is_number(x) and (isinstance(x, numbers.Integral)
                                                 or _finite(x, what).is_integer())):
        raise ValueError("%s must be an integer, got %r" % (what, x))
    return int(x)


def _instance(x, cls, what):
    """x, refused with "<what> needs a <cls>" unless it is a cls."""
    if not isinstance(x, cls):
        raise ValueError("%s needs a %s, got %s" % (what, cls.__name__, type(x).__name__))
    return x


def _check_tag(use, tag, *fields):
    """Raise ValueError, naming the function ``use``, for a tag that is no
    CaseTag; else naming the first of ``fields`` the case tag lacks.  Every
    use of a tag is checked here before it reads any field; its window and
    anchor were checked when it was built."""
    _instance(tag, CaseTag, use)
    for name in fields:
        if getattr(tag, name) is None:
            raise ValueError("case tag %s has no %r" % (tag.family, name))


class RateFunction(object):
    """Immutable cost or utility function over a closed rate interval.

    Build through ``power_function``, ``piecewise_function``,
    ``discrete_function`` or ``function_from_spec``.  A power function
    takes its ``domain`` (lo, hi) and its ``exponent``; a piecewise or
    discrete one takes its ``points``, (rate, value) pairs read by
    ``_pairs``, and its domain is their span.  A discrete set's points are
    sorted.  Data of the other kind is refused, and every number is read
    through ``_finite`` before the shape checks run.  ``br`` and ``bv``
    hold the points' rates and values.
    """

    def __init__(self, kind, role, *, domain=None, exponent=None, points=None):
        if role not in ("cost", "utility"):
            raise ValueError("role must be 'cost' or 'utility'")
        if kind not in ("power", "piecewise", "discrete"):
            raise ValueError("kind must be 'power', 'piecewise' or 'discrete', got %r"
                             % (kind,))
        # the data of the other kind
        other = ({"points": points} if kind == "power"
                 else {"domain": domain, "exponent": exponent})
        for name, x in other.items():
            if x is not None:
                raise ValueError("%s kind takes no %r, got %r" % (kind, name, x))
        self.kind = kind
        self.role = role
        if kind == "power":
            lo, hi = _pair(domain, "domain must be a (lo, hi) pair")
            self.lo, self.hi = _finite(lo, "domain bound"), _finite(hi, "domain bound")
            self.exponent, self.br, self.bv = _finite(exponent, "exponent"), None, None
        else:
            pairs = _pairs(points)
            if len(pairs) < 2:
                raise ValueError("need at least 2 sample points")
            self.br, self.bv = map(list, zip(*(sorted(pairs) if kind == "discrete" else pairs)))
            self.lo, self.hi, self.exponent = self.br[0], self.br[-1], None
        if not (self.lo < self.hi):
            raise ValueError("empty rate domain [%g, %g]" % (self.lo, self.hi))
        self._validate()

    def _validate(self):
        if self.kind == "power":
            p = self.exponent
            if p <= 0:
                raise ValueError("power kind needs a positive exponent")
            if self.role == "cost" and p < 1:
                raise ValueError("cost with exponent %g is concave" % p)
            if self.role == "utility" and p > 1:
                raise ValueError("utility with exponent %g is convex" % p)
            if self.lo < 0:
                raise ValueError("rates are non-negative")
            return
        rs, vs = self.br, self.bv
        for i in range(1, len(rs)):
            if rs[i] <= rs[i - 1]:
                raise ValueError("rates must be strictly increasing")
            if vs[i] <= vs[i - 1]:
                raise ValueError("values must be strictly increasing")
        if rs[0] < 0:
            raise ValueError("rates are non-negative")
        # a function defined at rate 0 must vanish there
        if abs(rs[0]) <= RATE_TOL and abs(vs[0]) > RATE_TOL:
            raise ValueError("value at rate 0 must be 0")
        if self.kind == "piecewise":
            slopes = _segment_slopes(self)[1]
            for i in range(1, len(slopes)):
                d = slopes[i] - slopes[i - 1]
                if self.role == "cost" and d <= 0:
                    raise ValueError("cost segment slopes must strictly increase")
                if self.role == "utility" and d >= 0:
                    raise ValueError("utility segment slopes must strictly decrease")

    def __repr__(self):
        return "RateFunction(kind=%r, role=%r, domain=[%g, %g])" % (
            self.kind,
            self.role,
            self.lo,
            self.hi,
        )


def _check_roles(c, u):
    """Refuse a cost c that is not a cost RateFunction, and a utility u that
    is neither None nor a utility RateFunction: a missing or wrong-role
    function would otherwise be priced as zero, or as the other role."""
    if not (isinstance(c, RateFunction) and c.role == "cost"):
        raise ValueError("the cost must be a cost RateFunction, got %r" % (c,))
    if not (u is None or isinstance(u, RateFunction) and u.role == "utility"):
        raise ValueError("the utility must be None or a utility RateFunction, got %r"
                         % (u,))


def power_function(exponent, domain=(0.0, 1.0), role="cost"):
    return RateFunction("power", role, domain=domain, exponent=exponent)


def _list(x, what):
    # list(x), refused with "<what>, got x" when list() cannot read x
    try:
        return list(x)
    except TypeError:
        raise ValueError("%s, got %r" % (what, x)) from None


def _pair(x, what):
    # x unpacked as a pair, refused with "<what>, got x" otherwise
    try:
        a, b = x
    except (TypeError, ValueError):
        raise ValueError("%s, got %r" % (what, x)) from None
    return a, b


def _pairs(points):
    """The points as a list of (rate, value) pairs of floats: the list of
    pairs is read first, then each number through ``_finite``.  Every point
    list, of a constructor or of ``lower_convex_envelope``, is read here."""
    pairs = [_pair(p, "a point is a (rate, value) pair")
             for p in _list(points, "points must be a list of (rate, value) pairs")]
    return [(_finite(r, "rate"), _finite(v, "value")) for r, v in pairs]


def piecewise_function(points, role="cost"):
    return RateFunction("piecewise", role, points=points)


def discrete_function(points, role="cost"):
    return RateFunction("discrete", role, points=points)


def _in_domain(f, r):
    """Whether ``evaluate`` takes rate r as inside f's domain, to RATE_TOL."""
    return f.lo - RATE_TOL <= r <= f.hi + RATE_TOL


def evaluate(f, r):
    """Value of the function at rate ``r``.

    Discrete sets are evaluable only at their sample rates; anything else
    raises, which keeps the convexity semantics of a sampled cost honest.
    A rate that is not a number is refused.
    """
    # a float passes on its type alone: the internal callers pass floats
    if type(r) is not float:
        _numeric(rate=r)
    if _instance(f, RateFunction, "evaluate").kind == "discrete":
        for rr, vv in zip(f.br, f.bv):
            if abs(rr - r) <= RATE_TOL:
                return vv
        raise ValueError("rate %g is not a sample of the discrete set" % r)
    if not _in_domain(f, r):
        raise ValueError("rate %g outside domain [%g, %g]" % (r, f.lo, f.hi))
    r = min(max(r, f.lo), f.hi)
    if f.kind == "power":
        try:
            return r ** f.exponent
        except OverflowError:
            raise ValueError("value at rate %g overflows" % r) from None
    # piecewise: locate the segment, interpolate
    i = bisect.bisect_right(f.br, r) - 1
    if i >= len(f.br) - 1:
        i = len(f.br) - 2
    r0, r1 = f.br[i], f.br[i + 1]
    v0, v1 = f.bv[i], f.bv[i + 1]
    return v0 + (v1 - v0) * (r - r0) / (r1 - r0)


def inverse(f, v):
    """Rate r with evaluate(f, r) = v, by bisection.

    Bisection is used for every kind rather than per-kind closed forms; the
    functions are strictly increasing so 100 halvings of the domain pin the
    root to full float precision.  A value that is not a number is refused.
    """
    _numeric(value=v)
    if _instance(f, RateFunction, "inverse").kind == "discrete":
        raise ValueError("discrete set has no inverse; take lower_convex_envelope first")
    v_lo, v_hi = evaluate(f, f.lo), evaluate(f, f.hi)
    if not v_lo - RATE_TOL <= v <= v_hi + RATE_TOL:
        raise ValueError("value %g outside range [%g, %g]" % (v, v_lo, v_hi))
    lo, hi = f.lo, f.hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if evaluate(f, mid) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lower_hull(xs, ys):
    """Indices of the lower convex hull's vertices of the points (xs[i], ys[i]),
    whose xs strictly ascend (Andrew's monotone chain).  A point on a chord
    between two others is not a vertex.  It serves ``lower_convex_envelope``
    only."""
    hull = []
    for i, (x, y) in enumerate(zip(xs, ys)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (xs[a] - xs[o]) * (y - ys[o]) - (ys[a] - ys[o]) * (x - xs[o])
            if cross <= 0:  # a is above or on the chord o-p, drop it
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def lower_convex_envelope(f_or_points):
    """Lower convex envelope of a discrete point set.

    Accepts a discrete or piecewise cost RateFunction or a raw (rate,
    value) list and returns the greatest convex minorant as a piecewise
    cost function.  Corners are a subset of the input points
    (``lower_hull``).  A utility is refused: its envelope is the upper
    concave hull.  So is a power function, which has no points.
    """
    if isinstance(f_or_points, RateFunction):
        if f_or_points.role != "cost":
            raise ValueError("lower_convex_envelope takes a cost; a utility's envelope "
                             "is its upper concave hull")
        if f_or_points.kind == "power":
            raise ValueError("lower_convex_envelope takes a point set; a power cost is "
                             "convex and is its own envelope")
        pts = list(zip(f_or_points.br, f_or_points.bv))
    else:
        pts = _pairs(f_or_points)
    pts = sorted(set(pts))
    if len(pts) < 2:
        raise ValueError("need at least 2 distinct points")
    rs = [p[0] for p in pts]
    if len(set(rs)) != len(rs):
        raise ValueError("duplicate rates in point set")
    return piecewise_function([pts[i] for i in lower_hull(rs, [p[1] for p in pts])],
                              role="cost")


def _power_derivative(f, r, k):
    # |d^k/dr^k r^p| = |p (p - 1) ... (p - k + 1)| r^(p - k) of a power
    # function, refused when it overflows
    p = f.exponent
    coef = abs(math.prod(p - i for i in range(k)))
    try:
        d = coef * r ** (p - k) if coef else 0.0
    except OverflowError:
        d = math.inf
    if not d < math.inf:  # inf, or NaN from an infinite coefficient times 0
        raise ValueError("derivative %d at rate %g overflows" % (k, r))
    return d


def _curvature(f, r):
    """|f''(r)| at a rate strictly inside the domain: closed form for the
    power kind, 0 for piecewise and discrete functions, which are linear
    between their points."""
    if not f.lo < r < f.hi:
        raise ValueError("rate %g is not strictly inside the domain [%g, %g]" % (r, f.lo, f.hi))
    return _power_derivative(f, r, 2) if f.kind == "power" else 0.0


def _left_slope(f, r):
    """Slope of f just below rate r: f'(r) for the power kind, the slope of
    the segment that ends at or contains r otherwise.  For a utility, the
    line through (r, u(r)) with this slope stays above u on [0, r] by
    concavity."""
    if f.kind == "power":
        return _power_derivative(f, r, 1)
    rs, slopes = _segment_slopes(f)
    if r <= rs[0]:
        raise ValueError("rate %g at or below the %s domain" % (r, f.role))
    i = bisect.bisect_left(rs, r) - 1
    return slopes[min(i, len(slopes) - 1)]


def classify_case(f, rate):
    """Place an operating rate in the case taxonomy.

    Returns a CaseTag.  The rate must be a finite number strictly inside
    the domain; for analytic kinds the curvature at the rate is checked (a
    vanishing second derivative breaks the strict convexity/concavity the
    MC1/LC1 analysis needs).
    """
    _finite(rate, "operating rate")
    if _instance(f, RateFunction, "classify_case").kind == "discrete":
        raise ValueError("classify on the lower_convex_envelope, not the raw samples")
    if rate <= f.lo + CORNER_TOL or rate >= f.hi - CORNER_TOL:
        raise ValueError("operating rate %g is at the domain boundary" % rate)
    if f.kind == "power":
        d2 = _curvature(f, rate)
        if d2 < CURVATURE_FLOOR:
            raise ValueError("second derivative %g below curvature floor" % d2)
        if f.role == "cost":
            return CaseTag("MC1", (f.lo, f.hi), "inv-sqrt", rate)
        return CaseTag("LC1", (f.lo, f.hi), "inv-sqrt", rate)
    br = f.br
    # corner?
    for i in range(1, len(br) - 1):
        if abs(rate - br[i]) <= CORNER_TOL:
            window = (br[i - 1], br[i + 1])
            if f.role == "cost":
                return CaseTag("MC2-3", window, "inv", br[i])
            return CaseTag("LC2-2", window, "inv", br[i])
    # strictly inside a segment
    i = bisect.bisect_right(br, rate) - 1
    i = min(i, len(br) - 2)
    window = (br[i], br[i + 1])
    if f.role == "utility":
        return CaseTag("LC2-1", window, "log", rate)
    if i == 0 and abs(br[0]) <= RATE_TOL:
        return CaseTag("MC2-1", window, "finite", rate)
    return CaseTag("MC2-2", window, "log", rate)


def _segment_slopes(f):
    if f.kind == "power":
        if f.exponent != 1.0:
            raise ValueError("a curved power function has no linear segments")
        return [f.lo, f.hi], [1.0]
    rs, vs = f.br, f.bv
    slopes = [(vs[i + 1] - vs[i]) / (rs[i + 1] - rs[i]) for i in range(len(rs) - 1)]
    return rs, slopes


def support_line(f, tag):
    """Line through the operating point used by the lower-bound audits.

    MC1/LC1: tangent at the anchor.  Segment-interior tags: the chord of
    the active segment.  Corner tags: the line through the corner whose
    slope is the midpoint of the two adjacent segment slopes (the midpoint
    maximizes the slope margin symmetrically).

    m_a is the smallest gap between the line's slope and an adjacent
    segment slope; when the segment starts at rate 0 only the upper gap
    exists.  a1 is half the second derivative at the anchor, defined for
    the analytic tags only.  A tag that is no CaseTag, or whose family is
    none of classify_case's, is refused.
    """
    _instance(f, RateFunction, "support_line")
    _check_tag("support_line", tag)
    fam = tag.family
    if fam not in CASE_FAMILIES:
        raise ValueError("no support line for case family %r" % (fam,))
    if fam in ("MC1", "LC1"):
        _check_tag("support_line", tag, "anchor")
        if f.kind != "power":
            raise ValueError("%s needs a power function" % fam)
        d2 = _curvature(f, tag.anchor)
        if d2 < CURVATURE_FLOOR:
            raise ValueError("second derivative %g below curvature floor" % d2)
        slope = _left_slope(f, tag.anchor)
        return SupportLine(slope, evaluate(f, tag.anchor) - slope * tag.anchor, tag.anchor,
                           None, 0.5 * d2)
    if fam in ("MC2-3", "LC2-2"):
        _check_tag("support_line", tag, "window", "anchor")
        p0, p1 = tag.window
        if not p0 < tag.anchor < p1:
            raise ValueError("corner %g is not inside its window" % tag.anchor)
        v0, va, v1 = evaluate(f, p0), evaluate(f, tag.anchor), evaluate(f, p1)
        s_left = (va - v0) / (tag.anchor - p0)
        s_right = (v1 - va) / (p1 - tag.anchor)
        slope = 0.5 * (s_left + s_right)
        m_a = 0.5 * abs(s_right - s_left)
        if m_a == 0.0:
            raise ValueError("no corner at rate %g: both slopes are %g" % (tag.anchor, slope))
        return SupportLine(slope, va - slope * tag.anchor, tag.anchor, m_a, None)
    # segment-interior chord
    _check_tag("support_line", tag, "window")
    a, b = tag.window
    if not a < b:
        raise ValueError("segment window needs a < b, got [%g, %g]" % (a, b))
    va, vb = evaluate(f, a), evaluate(f, b)
    slope = (vb - va) / (b - a)
    rs, slopes = _segment_slopes(f)
    idx = next((i for i in range(len(rs) - 1)
                if abs(rs[i] - a) <= RATE_TOL and abs(rs[i + 1] - b) <= RATE_TOL), None)
    gaps = []
    if idx is not None:
        # MC2-1's left corner sits at rate 0: an upper gap alone constrains
        if idx > 0 and (fam != "MC2-1" or idx + 1 == len(slopes)):
            gaps.append(abs(slope - slopes[idx - 1]))
        if idx + 1 < len(slopes):
            gaps.append(abs(slopes[idx + 1] - slope))
    m_a = min(gaps) if gaps else None
    return SupportLine(slope, va - slope * a, a, m_a, None)


def function_from_spec(spec, role):
    """Build a RateFunction from its JSON spec dict.

    Schema: {"kind": "power", "domain": [lo, hi], "exponent": p} or
    {"kind": "piecewise"|"discrete", "points": [[r, v], ...]}.  A power
    spec's domain defaults to [0, 1]; a point kind's domain is the span of
    its points, and a point spec that gives a domain or an exponent is
    refused.  The constructor reads and checks every field.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("function spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind in ("piecewise", "discrete") and "points" not in spec:
        raise ValueError("%s kind needs 'points'" % kind)
    domain = spec.get("domain", [0.0, 1.0] if kind == "power" else None)
    return RateFunction(kind, role, domain=domain, exponent=spec.get("exponent"),
                        points=spec.get("points"))


def function_to_spec(f):
    if _instance(f, RateFunction, "function_to_spec").kind == "power":
        return {"kind": "power", "domain": [f.lo, f.hi], "exponent": f.exponent}
    return {"kind": f.kind, "points": [[r, v] for r, v in zip(f.br, f.bv)]}
