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
"""

import bisect
import numbers
from collections import namedtuple

CORNER_TOL = 1e-9
FD_STEP = 1e-4          # central-difference step for curvature, fixed
CURVATURE_FLOOR = 1e-6  # below this the analytic kind has no usable curvature


CaseTag = namedtuple("CaseTag", ["family", "window", "regime", "anchor"])
# window is (a, b) of the active segment for segment-interior tags and the
# pair of bracketing corners for corner tags (MC2-3 / LC2-2).

SupportLine = namedtuple("SupportLine", ["slope", "intercept", "anchor", "m_a", "a1"])


def _is_number(x):
    """True for an int or float, but not for a bool."""
    # float and int first: they pass without the slower abstract-class check
    return isinstance(x, (float, int, numbers.Real)) and not isinstance(x, bool)


def _check_tag(tag, *fields):
    """Raise ValueError naming the first of ``fields`` the case tag lacks."""
    for name in fields:
        if getattr(tag, name) is None:
            raise ValueError("case tag %s has no %r" % (tag.family, name))


class RateFunction(object):
    """Immutable cost or utility function over a closed rate interval.

    Build through ``power_function``, ``piecewise_function``,
    ``discrete_function`` or ``function_from_spec``; the constructor only
    stores fields and runs the shape checks.
    """

    def __init__(self, kind, role, lo, hi, exponent=None, br=None, bv=None):
        if role not in ("cost", "utility"):
            raise ValueError("role must be 'cost' or 'utility'")
        if not (lo < hi):
            raise ValueError("empty rate domain [%g, %g]" % (lo, hi))
        self.kind = kind
        self.role = role
        self.lo = float(lo)
        self.hi = float(hi)
        self.exponent = exponent
        # br/bv: breakpoints for 'piecewise', sample points for 'discrete'
        self.br = None if br is None else [float(r) for r in br]
        self.bv = None if bv is None else [float(v) for v in bv]
        self._validate()

    def _validate(self):
        if self.kind == "power":
            p = self.exponent
            if p is None or p <= 0:
                raise ValueError("power kind needs a positive exponent")
            if self.role == "cost" and p < 1:
                raise ValueError("cost with exponent %g is concave" % p)
            if self.role == "utility" and p > 1:
                raise ValueError("utility with exponent %g is convex" % p)
            if self.lo < 0:
                raise ValueError("rates are non-negative")
            return
        rs, vs = self.br, self.bv
        if rs is None or len(rs) < 2 and self.kind == "piecewise":
            raise ValueError("piecewise kind needs at least 2 breakpoints")
        if len(rs) != len(vs):
            raise ValueError("rate/value length mismatch")
        for i in range(1, len(rs)):
            if rs[i] <= rs[i - 1]:
                raise ValueError("rates must be strictly increasing")
            if vs[i] <= vs[i - 1]:
                raise ValueError("values must be strictly increasing")
        if rs[0] < 0:
            raise ValueError("rates are non-negative")
        # a function defined at rate 0 must vanish there
        if abs(rs[0]) <= 1e-12 and abs(vs[0]) > 1e-12:
            raise ValueError("value at rate 0 must be 0")
        if self.kind == "piecewise" and len(rs) > 2:
            slopes = [
                (vs[i + 1] - vs[i]) / (rs[i + 1] - rs[i]) for i in range(len(rs) - 1)
            ]
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


def power_function(exponent, domain=(0.0, 1.0), role="cost"):
    return RateFunction("power", role, domain[0], domain[1], exponent=float(exponent))


def piecewise_function(points, role="cost"):
    rs = [p[0] for p in points]
    vs = [p[1] for p in points]
    return RateFunction("piecewise", role, rs[0], rs[-1], br=rs, bv=vs)


def discrete_function(points, role="cost"):
    pts = sorted((float(r), float(v)) for r, v in points)
    rs = [p[0] for p in pts]
    vs = [p[1] for p in pts]
    if len(rs) < 2:
        raise ValueError("need at least 2 sample points")
    return RateFunction("discrete", role, rs[0], rs[-1], br=rs, bv=vs)


def evaluate(f, r):
    """Value of the function at rate ``r``.

    Discrete sets are evaluable only at their sample rates; anything else
    raises, which keeps the convexity semantics of a sampled cost honest.
    """
    if f.kind == "discrete":
        for rr, vv in zip(f.br, f.bv):
            if abs(rr - r) <= 1e-12:
                return vv
        raise ValueError("rate %g is not a sample of the discrete set" % r)
    if r < f.lo - 1e-12 or r > f.hi + 1e-12:
        raise ValueError("rate %g outside domain [%g, %g]" % (r, f.lo, f.hi))
    r = min(max(r, f.lo), f.hi)
    if f.kind == "power":
        return r ** f.exponent
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
    root to full float precision.
    """
    if f.kind == "discrete":
        raise ValueError("discrete set has no inverse; take lower_convex_envelope first")
    v_lo, v_hi = evaluate(f, f.lo), evaluate(f, f.hi)
    if v < v_lo - 1e-12 or v > v_hi + 1e-12:
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

    Accepts a discrete RateFunction or a raw (rate, value) list and returns
    the greatest convex minorant as a piecewise cost function.  Corners are
    a subset of the input points (``lower_hull``).
    """
    if isinstance(f_or_points, RateFunction):
        pts = list(zip(f_or_points.br, f_or_points.bv))
    else:
        pts = [(float(r), float(v)) for r, v in f_or_points]
    pts = sorted(set(pts))
    if len(pts) < 2:
        raise ValueError("need at least 2 distinct points")
    rs = [p[0] for p in pts]
    if len(set(rs)) != len(rs):
        raise ValueError("duplicate rates in point set")
    return piecewise_function([pts[i] for i in lower_hull(rs, [p[1] for p in pts])],
                              role="cost")


def _second_derivative(f, r):
    h = min(FD_STEP, 0.5 * (r - f.lo), 0.5 * (f.hi - r))
    if h <= 0:
        raise ValueError("rate %g too close to the domain boundary" % r)
    return (evaluate(f, r + h) - 2.0 * evaluate(f, r) + evaluate(f, r - h)) / (h * h)


def classify_case(f, rate):
    """Place an operating rate in the case taxonomy.

    Returns a CaseTag.  The rate must be strictly inside the domain; for
    analytic kinds the curvature at the rate is checked (a vanishing second
    derivative breaks the strict convexity/concavity the MC1/LC1 analysis
    needs).
    """
    if f.kind == "discrete":
        raise ValueError("classify on the lower_convex_envelope, not the raw samples")
    if rate <= f.lo + CORNER_TOL or rate >= f.hi - CORNER_TOL:
        raise ValueError("operating rate %g is at the domain boundary" % rate)
    if f.kind == "power":
        d2 = _second_derivative(f, rate)
        if abs(d2) < CURVATURE_FLOOR:
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
    if i == 0 and abs(br[0]) <= 1e-12:
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
    the analytic tags only.
    """
    fam = tag.family
    if fam in ("MC1", "LC1"):
        _check_tag(tag, "anchor")
        if f.kind != "power":
            raise ValueError("%s needs a power function" % fam)
        d2 = _second_derivative(f, tag.anchor)
        if abs(d2) < CURVATURE_FLOOR:
            raise ValueError("second derivative %g below curvature floor" % d2)
        p = f.exponent
        slope = p * tag.anchor ** (p - 1.0)
        a1 = 0.5 * abs(d2)
        return SupportLine(slope, evaluate(f, tag.anchor) - slope * tag.anchor, tag.anchor, None, a1)
    if fam in ("MC2-3", "LC2-2"):
        _check_tag(tag, "window", "anchor")
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
    _check_tag(tag, "window")
    a, b = tag.window
    if not a < b:
        raise ValueError("segment window needs a < b, got [%g, %g]" % (a, b))
    va, vb = evaluate(f, a), evaluate(f, b)
    slope = (vb - va) / (b - a)
    rs, slopes = _segment_slopes(f)
    idx = None
    for i in range(len(rs) - 1):
        if abs(rs[i] - a) <= 1e-12 and abs(rs[i + 1] - b) <= 1e-12:
            idx = i
            break
    gaps = []
    if idx is not None:
        if idx > 0:
            gaps.append(abs(slope - slopes[idx - 1]))
        if idx + 1 < len(slopes):
            gaps.append(abs(slopes[idx + 1] - slope))
    if fam == "MC2-1" and idx is not None and idx + 1 < len(slopes):
        # left corner sits at rate 0: only the upper gap constrains
        m_a = abs(slopes[idx + 1] - slope)
    else:
        m_a = min(gaps) if gaps else None
    return SupportLine(slope, va - slope * a, a, m_a, None)


def function_from_spec(spec, role):
    """Build a RateFunction from its JSON spec dict.

    Schema: {"kind": "power"|"piecewise"|"discrete", "domain": [lo, hi],
    "exponent": p, "points": [[r, v], ...]}.  ``exponent`` is for the power
    kind, ``points`` for the other two; ``domain`` is required for power
    and derived from the points otherwise.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("function spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "power":
        if not _is_number(spec.get("exponent")):
            raise ValueError("power kind needs a numeric 'exponent'")
        dom = spec.get("domain", [0.0, 1.0])
        if not (isinstance(dom, list) and len(dom) == 2 and all(map(_is_number, dom))):
            raise ValueError("power 'domain' must be a list of two numbers")
        return power_function(spec["exponent"], (dom[0], dom[1]), role)
    if kind not in ("piecewise", "discrete"):
        raise ValueError("unknown function kind %r" % (kind,))
    pts = spec.get("points")
    if not pts:
        raise ValueError("%s kind needs 'points'" % kind)
    if not (isinstance(pts, list) and all(
            isinstance(pt, list) and len(pt) == 2 and all(map(_is_number, pt)) for pt in pts)):
        raise ValueError("'points' must be a list of [rate, value] pairs")
    if kind == "piecewise":
        return piecewise_function(pts, role)
    return discrete_function(pts, role)


def function_to_spec(f):
    if f.kind == "power":
        return {"kind": "power", "domain": [f.lo, f.hi], "exponent": f.exponent}
    return {"kind": f.kind, "domain": [f.lo, f.hi], "points": [[r, v] for r, v in zip(f.br, f.bv)]}
