"""Asymptotic order verification: sweeps, regime fits, inequality audits.

A family sweep drives a policy constructor over a grid of the scale U and
records the achieved cost gap V = Cbar - c_ref together with Qbar and
Ubar.  ``classify_regime`` fits Qbar against the candidate growth shapes

    constant, log(1/V), V^{-1/2}, 1/V, V^{-1/2} log(1/V)

(each with an intercept) and selects the smallest relative RMS residual;
ties go to the earlier, simpler candidate.

``audit_lower_bound`` evaluates the inequalities behind the lower-bound
analysis on a concrete policy from its exact stationary distribution:

  rate-mass       P{mu(Q) in S} <= V/(a1 eps_V^2)  (curved anchor,
                  eps_V = a2 sqrt(V) with a2 = 2/sqrt(a1)),
                  or <= V/(m_a eps) with fixed eps = (b-a)/4 for a
                  segment-interior anchor, or eps_V = (4/m_a) V at a
                  corner; S is the rate set outside the eps-interval
  boundary-mass   (lambda pi(q*-1))^2 <= V/a1 at the first state serving
                  within eps_V of the anchor (curved anchor, constant
                  arrivals only)
  low-rate-mass   P{Q < q*} <= V/(a1 eps^2) for the joint-choice family,
                  with its construction margin eps
  pi-zero         pi(0) <= m (u(mu_top) - Ubar)/mu_top where mu_top is the
                  policy's largest service rate and 1/m the slope of the
                  utility's support line there; concavity makes this valid
                  for every admissible stable policy, not only fixed-rate
                  ones

Each check reports both sides and its margin; checks whose premises fail
are marked inapplicable rather than silently passed.
"""

import math
from collections import namedtuple

import numpy as np

from .birth_death import mass_below, metrics, pi_at, rate_value, stationary
from .rate_functions import (
    CASE_FAMILIES, CURVATURE_FLOOR, RATE_TOL, _check_tag, _curvature, _in_domain, _is_number,
    _left_slope, evaluate, support_line)

ScalingSample = namedtuple("ScalingSample", ["U", "V", "qbar", "ubar", "cbar"])
SweepFailure = namedtuple("SweepFailure", ["U", "error"])
ScalingFit = namedtuple(
    "ScalingFit", ["model", "coefficients", "residual", "verdict", "residuals"])
AuditCheck = namedtuple(
    "AuditCheck", ["name", "applicable", "lhs", "rhs", "margin", "passed", "note"])

TIE_TOL = 1e-9

_MODELS = [
    ("constant", None),
    ("log-inv", lambda v: np.log(1.0 / v)),
    ("inv-sqrt", lambda v: v ** -0.5),
    ("inv", lambda v: 1.0 / v),
    ("inv-sqrt-log", lambda v: v ** -0.5 * np.log(1.0 / v)),
]

# which fitted models are consistent with each predicted regime; the
# upper bound for the curved case carries the extra log factor, so both
# sqrt shapes count as a match
_REGIME_MODELS = {
    "finite": ("constant",),
    "log": ("log-inv",),
    "inv-sqrt": ("inv-sqrt", "inv-sqrt-log"),
    "inv": ("inv",),
}


def _check_c_ref(c_ref):
    # a NaN or infinite c_ref is a number: its cost gap fails by value
    if not _is_number(c_ref):
        raise ValueError("c_ref must be a number, got %r" % (c_ref,))


def sweep(build, U_grid, c, c_ref, u=None):
    """Run ``build(U)`` across the grid and collect exact scaling samples.

    Returns (samples, failures); a grid point fails (and the sweep
    continues) when construction raises or the achieved gap V is not a
    positive finite number.  A c_ref that is not a number is refused.
    """
    _check_c_ref(c_ref)
    grid = list(U_grid)
    if not grid:
        raise ValueError("U grid must be non-empty")
    samples = []
    failures = []
    for U in grid:
        try:
            p = build(U)
            sr = stationary(p)
            m = metrics(sr, c, u)
            v = _cost_gap(sr, c, c_ref)
        except ValueError as exc:
            failures.append(SweepFailure(U, str(exc)))
            continue
        samples.append(ScalingSample(U, v, m.qbar, m.ubar, m.cbar))
    return samples, failures


def classify_regime(samples, tag=None):
    """Fit the candidate growth models and pick the best.

    Needs at least 5 samples whose V values span two decades, each with a
    finite V > 0 whose 1/V is finite and a finite qbar; the ValueError
    names the first sample that breaks this, or the largest |qbar| when
    the fit's residual scale overflows.  When a CaseTag is given the
    verdict says whether the selected model matches the regime the
    taxonomy predicts; a tag whose regime has no models is refused.
    """
    if tag is not None:
        _check_tag("classify_regime", tag)
        if tag.regime not in _REGIME_MODELS:
            raise ValueError("no growth model for regime %r" % (tag.regime,))
    if len(samples) < 5:
        raise ValueError("need at least 5 samples, got %d" % len(samples))
    v = np.array([s.V for s in samples], dtype=float)
    q = np.array([s.qbar for s in samples], dtype=float)
    vs = v.tolist()
    for i, (vi, qi) in enumerate(zip(vs, q.tolist())):
        if not (0.0 < vi < math.inf and 1.0 / vi < math.inf):
            raise ValueError("sample %d has V = %g; need a finite V > 0 with a finite 1/V"
                             % (i, vi))
        if not math.isfinite(qi):
            raise ValueError("sample %d has qbar = %g; need a finite qbar" % (i, qi))
    span = max(vs) / min(vs)
    if span < 100.0:
        raise ValueError("V spans a factor %g, need >= 100 (two decades)" % span)

    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(q))
    if scale == math.inf:
        i = int(np.argmax(np.abs(q)))
        raise ValueError("sample %d has qbar = %g; the fit's residual scale overflows"
                         % (i, q[i]))
    residuals = {}
    fitted = {}
    for name, transform in _MODELS:
        if transform is None:
            x = np.ones((len(v), 1))
        else:
            x = np.column_stack([np.ones(len(v)), transform(v)])
        coeffs, _, _, _ = np.linalg.lstsq(x, q, rcond=None)
        r = float(np.linalg.norm(q - x @ coeffs))
        residuals[name] = r / scale if scale > 0 else r
        fitted[name] = [float(b) for b in coeffs]
    # residuals within TIE_TOL of the floor count as ties; the earlier,
    # simpler candidate wins (a constant fit must beat a zero-weight slope)
    floor = min(residuals.values())
    best = next(n for n, _ in _MODELS if residuals[n] <= floor + TIE_TOL)
    best_coeffs = fitted[best]

    verdict = None
    if tag is not None:
        expected = _REGIME_MODELS[tag.regime]
        verdict = "matches" if best in expected else "contradicts"
    return ScalingFit(best, best_coeffs, residuals[best], verdict, residuals)


def _cost_gap(sr, c, c_ref):
    # V = Cbar - c_ref as one sum of mass (c(mu) - c_ref) over segments: the
    # difference is taken per segment, so a V far below Cbar keeps its digits.
    # V must be positive (NaN is not) and finite; a sum whose partials
    # overflow counts as infinite
    try:
        v = math.fsum(s.mass * (rate_value(c, s.mu) - c_ref) for s in sr.segments)
    except OverflowError:
        v = math.inf
    if not v > 0:
        raise ValueError("non-positive cost gap %g" % v)
    if v == math.inf:
        raise ValueError("cost gap %g is not finite" % v)
    return v


def _service_mass_outside(sr, low, high):
    return math.fsum(s.mass for s in sr.segments
                     if s.mu < low - RATE_TOL or s.mu > high + RATE_TOL)


def _first_service_at_least(p, threshold, strict=False):
    # the first state 1 .. q_h + 1 whose run serves at the threshold or more;
    # mu(0) = 0 meets it only when every rate does, and then q = 1 does too
    starts, rates = p.runs("mu")
    for first, r in zip(starts, rates):
        if (r > threshold) if strict else (r >= threshold):
            return max(first, 1)
    return None


def _check(name, lhs, rhs, note):
    return AuditCheck(name, True, lhs, rhs, rhs - lhs, lhs <= rhs, note)


def _skip(name, note):
    return AuditCheck(name, False, None, None, None, None, note)


def audit_lower_bound(p, tag, c, u, c_ref):
    """Evaluate the lower-bound inequalities on one policy.

    ``tag`` is the operating point's CaseTag (family "LMU" selects the
    joint-choice checks, with the construction margin taken from the
    policy metadata), or None for the pi-zero check alone, which is all an
    arrival-side family gets; a family that is neither classify_case's nor
    "LMU" is refused.  ``c_ref`` anchors V = Cbar - c_ref, which must be
    positive and finite.  Returns a list of AuditCheck records.
    """
    fam = None
    if tag is not None:
        _check_tag("audit_lower_bound", tag)
        fam = tag.family
        if fam not in CASE_FAMILIES + ("LMU",):
            raise ValueError("no audit for case family %r" % (fam,))
    _check_c_ref(c_ref)
    sr = stationary(p)
    m = metrics(sr, c, u)
    v = _cost_gap(sr, c, c_ref)
    checks = []

    if fam in ("MC1", "MC2-1", "MC2-2", "MC2-3"):
        # mass outside [lo - eps, hi + eps] is at most V/(k eps): the family
        # sets the interval, the half-width eps and the divisor k
        sl = support_line(c, tag)
        lo = hi = tag.anchor
        k = sl.m_a
        if fam == "MC1":
            eps = 2.0 / math.sqrt(sl.a1) * math.sqrt(v)
            k = sl.a1 * eps
            note = "eps_V = %g = (2/sqrt(a1)) sqrt(V)" % eps
        elif fam == "MC2-3":
            eps = 4.0 / k * v
            note = "eps_V = %g = (4/m_a) V" % eps
        elif k is not None:
            lo, hi = tag.window
            eps = 0.25 * (hi - lo)
            note = "fixed eps = %g, m_a = %g" % (eps, k)
        if k is None:
            checks.append(_skip("rate-mass", "no adjacent segment slope gap"))
        else:
            lhs = _service_mass_outside(sr, lo - eps, hi + eps)
            checks.append(_check("rate-mass", lhs, v / (k * eps), note))
    if fam == "MC1":
        lam0 = p.arrival(0)
        if any(x != lam0 for x in p.runs("lam")[1]):
            checks.append(_skip("boundary-mass", "needs constant arrivals"))
        elif eps >= tag.anchor:
            checks.append(_skip(
                "boundary-mass",
                "eps_V = %g >= anchor rate; threshold undefined" % eps))
        else:
            q_star = _first_service_at_least(p, tag.anchor - eps)
            if q_star is None:
                checks.append(_skip(
                    "boundary-mass", "no state serves within eps_V of the anchor"))
            else:
                lhs = (lam0 * pi_at(sr, q_star - 1)) ** 2
                checks.append(_check(
                    "boundary-mass", lhs, v / sl.a1, "q* = %d" % q_star))
    elif fam == "LMU":
        eps = p.meta.get("eps")
        if eps is None:
            checks.append(_skip(
                "low-rate-mass", "construction margin 'eps' missing from policy meta"))
        else:
            _check_tag("audit_lower_bound", tag, "anchor")
            d2 = _curvature(c, tag.anchor)
            if d2 < CURVATURE_FLOOR:
                checks.append(_skip("low-rate-mass", "no curvature at the anchor"))
            else:
                rhs = v / (0.5 * d2 * eps * eps)
                q_star = _first_service_at_least(p, tag.anchor - eps, strict=True)
                if q_star is None:
                    checks.append(_skip(
                        "low-rate-mass", "every state serves below anchor - eps"))
                else:
                    checks.append(_check(
                        "low-rate-mass", mass_below(sr, q_star), rhs,
                        "q* = %d, fixed eps = %g" % (q_star, eps)))
                    checks.append(_check(
                        "boundary-state", pi_at(sr, q_star - 1), rhs,
                        "q* = %d" % q_star))

    if u is None:
        checks.append(_skip("pi-zero", "no utility function supplied"))
    else:
        mu_top = max(p.runs("mu")[1])
        if not _in_domain(u, mu_top):
            checks.append(_skip(
                "pi-zero", "top service rate %r outside the utility domain" % mu_top))
        else:
            slope = _left_slope(u, min(mu_top, u.hi))
            rhs = (evaluate(u, mu_top) - m.ubar) / (slope * mu_top)
            checks.append(_check(
                "pi-zero", pi_at(sr, 0), rhs,
                "mu_top = %g, support slope %g" % (mu_top, slope)))
    return checks
