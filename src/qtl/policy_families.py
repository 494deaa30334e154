"""Explicit policy families that approach the minimum service cost.

Each constructor builds an admissible, stable policy parameterized by a
scale U, and refuses a U that is not a positive finite number (0,
negatives, +-inf and NaN alike); mc21 reads U only when its threshold
q_k is not given.  A rate param that is not a finite number is refused
too, before any threshold is computed, and one that is not a number
before any comparison reads it.  As U drops to 0 the achieved
average cost approaches the relevant floor while the mean queue length
grows at the case's asymptotic order:

  mc1_policy        strictly convex cost, three service levels around the
                    arrival rate, queue grows like sqrt(1/V) log(1/V)
  mc21_policy       first-segment case, two levels, queue stays finite
  mc22_policy       later-segment case, serve the lower corner up to a
                    threshold, queue grows like log(1/V)
  mc23_policy       corner case, zero-drift plateau of length ~ 1/U,
                    queue grows like 1/V
  lambda_mu_policy  joint arrival/service control pinned to u^-1(u_c),
                    queue grows like log(1/V)
  lc_mirror_policy  arrival-side mirror of the service constructions with
                    the roles of lambda(q) and mu(q) interchanged; a
                    heuristic stand-in, no tightness guarantee, and marked
                    as such in the policy metadata

Threshold positions q1 follow the closed forms.  Every constructor checks
its preconditions, then builds through one private builder; the built
Policy refuses rates above its declared bounds, and the builder checks
that it is admissible and stable.  A policy's rate bounds are
the largest rates it uses, except mc1's r_max and lambda_mu_policy's
ra_max and r_max, which may exceed them.
"""

import math

from .birth_death import check_admissible, is_stable, policy_from_pieces
from .rate_functions import RATE_TOL, _check_tag, _count, _is_number, _numeric


def _check_positive(*optional, **params):
    # each param must be a positive finite number, else it is named; one
    # named in ``optional`` may also be None, a default the constructor fills in
    for name, x in params.items():
        if not (x is None and name in optional or _is_number(x) and 0 < x < math.inf):
            raise ValueError("%s must be a positive finite number, got %s"
                             % (name, "%g" % x if _is_number(x) else repr(x)))


def _quotient(num, den, U):
    """num/den in the closed form of a threshold q1, which must be a finite
    number: at a U so small that it is not, a ValueError names U (Python's
    float division would raise ZeroDivisionError, or int() OverflowError)."""
    if den == 0.0 or not math.isfinite(num / den):
        raise ValueError("U=%g is too small: the threshold q1 is not a finite number" % U)
    return num / den


def _threshold(x, ratio, U):
    """q1 = max(1, ceil( log_ratio (1 + x/U) )), the threshold of the
    geometric families."""
    return max(1, int(math.ceil(_quotient(math.log1p(x / U), math.log(ratio), U))))


def _finish(lam_pieces, lam_tail, mu_pieces, mu_tail, meta, ra_max=None, r_max=None):
    p = policy_from_pieces(lam_pieces, lam_tail, mu_pieces, mu_tail,
                           ra_max=ra_max, r_max=r_max, meta=meta)
    check_admissible(p)
    if not is_stable(p):
        raise ValueError("constructed policy is unstable")
    return p


def mc1_policy(lam, U, K=None, r_max=1.0):
    """Three-level service policy for a strictly convex cost.

    eps_U = sqrt(U); the service rate is lam - eps_U up to

        q1 = floor( log_{lam/(lam-eps_U)} (1 + eps_U/(U lam)) ),

    then lam + eps'_U with eps'_U = lam eps_U/(lam - eps_U) up to 2 q1, and
    lam + K beyond.  Needs eps_U < lam, lam + K <= r_max, and eps'_U <= K
    (otherwise the middle level would overshoot the tail and break service
    monotonicity); lam >= r_max is refused first, and the built policy's
    bound and monotonicity checks refuse the last two.
    """
    _check_positive("K", U=U, lam=lam, K=K, r_max=r_max)
    if lam >= r_max:
        raise ValueError("lam=%g must stay below r_max=%g" % (lam, r_max))
    eps_u = math.sqrt(U)
    if eps_u >= lam:
        raise ValueError("sqrt(U)=%g must stay below lam=%g" % (eps_u, lam))
    if K is None:
        K = 0.5 * (r_max - lam)
    eps_pu = lam * eps_u / (lam - eps_u)
    q1 = int(math.floor(_quotient(
        math.log1p(_quotient(eps_u, U * lam, U)), math.log(lam / (lam - eps_u)), U)))
    if q1 < 1:
        raise ValueError("U=%g too large, threshold q1 < 1" % U)
    return _finish([], lam, [[1, q1, lam - eps_u], [q1 + 1, 2 * q1, lam + eps_pu]], lam + K,
                   {"family": "mc1", "U": U, "K": K, "eps_U": eps_u, "eps_pU": eps_pu,
                    "q1": q1}, r_max=r_max)


def mc21_policy(lam, b_lam, r_max, q_k=None, U=None):
    """Two-level service policy: b_lam up to q_k, then r_max.

    Without q_k the scale U sets it: q_k = max(1, round(log2(1/U))).
    """
    if q_k is None:
        if U is None:
            raise ValueError("mc21 needs q_k or the scale U")
        _check_positive(U=U)
        q_k = max(1, round(-math.log2(U)))
    _numeric(lam=lam, b_lam=b_lam, r_max=r_max)
    if not (0 < lam < b_lam < r_max < math.inf):
        raise ValueError("need 0 < lam < b_lam < r_max, all finite")
    q_k = _count(q_k, "q_k")
    if q_k < 1:
        raise ValueError("q_k must be at least 1")
    return _finish([], lam, [[1, q_k, b_lam]], r_max, {"family": "mc21", "q_k": q_k})


def mc22_policy(lam, a_lam, b_lam, U):
    """Serve the lower corner a_lam up to q1, then the upper corner b_lam.

    q1 = ceil( log_{lam/a_lam} (1 + ((lam - a_lam)/lam) / U) ).
    """
    _numeric(lam=lam, a_lam=a_lam, b_lam=b_lam)
    if not (0 < a_lam < lam < b_lam < math.inf):
        raise ValueError("need 0 < a_lam < lam < b_lam, all finite")
    _check_positive(U=U)
    q1 = _threshold((lam - a_lam) / lam, lam / a_lam, U)
    return _finish([], lam, [[1, q1, a_lam]], b_lam, {"family": "mc22", "U": U, "q1": q1})


def mc23_policy(lam, K, U, next_corner=None):
    """Zero-drift plateau at the corner rate, then lam + K.

    q1 = ceil(1/U).  When the next corner of the cost envelope is known it
    caps K (lam + K must not cross it, or the tail rate leaves the active
    pair of segments).
    """
    _numeric(K=K)
    if K <= 0:
        raise ValueError("K must be positive")
    _check_positive("next_corner", U=U, lam=lam, K=K, next_corner=next_corner)
    if next_corner is not None and lam + K > next_corner + RATE_TOL:
        raise ValueError(
            "lam + K = %g overshoots the next corner %g" % (lam + K, next_corner))
    q1 = int(math.ceil(_quotient(1.0, U, U)))
    return _finish([], lam, [[1, q1, lam]], lam + K,
                   {"family": "mc23", "U": U, "K": K, "q1": q1})


def lambda_mu_policy(u_inv_uc, U, eps=None, K=None, ra_max=1.0, r_max=1.0):
    """Joint arrival/service family pinned to the rate u^-1(u_c).

    Service: mu1 = u^-1(u_c) - U up to q1, mu2 = u^-1(u_c) + U beyond.
    Arrival: lam1 = u^-1(u_c) + eps below q1, exactly u^-1(u_c) across a
    plateau of length K, lam2 = u^-1(u_c) - eps beyond, with

        q1 = ceil( log_{lam1/mu1} (1 + ((lam1 - mu1)/lam1) / U) ).

    eps is a fixed margin (default min(0.05, headroom/2)); K must exceed
    2 (1 + u^-1(u_c)^2 / eps), which is what makes the average utility
    clear u_c for small U.
    """
    _check_positive("eps", U=U, u_inv_uc=u_inv_uc, eps=eps, ra_max=ra_max, r_max=r_max)
    if eps is None:
        eps = min(0.05, 0.5 * (ra_max - u_inv_uc))
    if eps <= 0:
        raise ValueError("eps must be positive")
    if u_inv_uc - eps < 0:
        raise ValueError("eps=%g exceeds the anchor rate %g" % (eps, u_inv_uc))
    try:
        k_min = 2.0 * (1.0 + u_inv_uc ** 2 / eps)
        K = _count(int(math.ceil(k_min)) + 1 if K is None else K, "K")
    except OverflowError:
        raise ValueError("the plateau bound 2 (1 + u_inv_uc^2 / eps) is not finite at "
                         "u_inv_uc=%g, eps=%g" % (u_inv_uc, eps)) from None
    if K <= k_min:
        raise ValueError("K=%d must exceed %g" % (K, k_min))
    mu1, mu2 = u_inv_uc - U, u_inv_uc + U
    lam1, lam2 = u_inv_uc + eps, u_inv_uc - eps
    if mu1 <= 0:
        raise ValueError("U=%g at least the anchor rate %g" % (U, u_inv_uc))
    q1 = _threshold((lam1 - mu1) / lam1, lam1 / mu1, U)
    return _finish(
        [[0, q1 - 1, lam1], [q1, q1 + K, u_inv_uc]], lam2, [[1, q1, mu1]], mu2,
        {"family": "lmu", "U": U, "eps": eps, "K": K, "q1": q1,
         "mu1": mu1, "mu2": mu2, "lam1": lam1, "lam2": lam2},
        ra_max=ra_max, r_max=r_max)


def lc_mirror_policy(mu, tag, U):
    """Arrival-rate mirror of the service constructions.

    Service is held at mu; the arrival rule plays the role the service
    rule plays in the corresponding cost-side family.  This is heuristic
    plumbing (the tight arrival-side constructions are not reproduced
    here) and the metadata says so.
    """
    _check_tag("lc_mirror_policy", tag)
    fam = tag.family
    if fam not in ("LC1", "LC2-1", "LC2-2"):
        raise ValueError("not an arrival-side case tag: %r" % (fam,))
    _check_tag("lc_mirror_policy", tag, "window")
    _check_positive(U=U, mu=mu, window_hi=tag.window[1])
    # the arrival rate is `head` on states 0..q1-1 and `tail` beyond
    if fam == "LC1":
        eps_u = math.sqrt(U)
        lo, hi = tag.window
        if eps_u >= mu:
            raise ValueError("sqrt(U)=%g must stay below mu=%g" % (eps_u, mu))
        if mu + eps_u > hi + RATE_TOL:
            raise ValueError("mu + sqrt(U) leaves the utility domain")
        head, tail = mu + eps_u, mu - eps_u
        q1 = _threshold(eps_u / head, head / mu, U)
    elif fam == "LC2-1":
        tail, head = tag.window
        if not (tail < mu < head):
            raise ValueError("mu must lie strictly inside the segment")
        q1 = _threshold((head - mu) / head, head / mu, U)
    else:
        tail, next_c = tag.window
        if not (tail < mu < next_c):
            raise ValueError("corner window does not bracket mu")
        head = mu
        q1 = int(math.ceil(_quotient(1.0, U, U)))
    return _finish([[0, q1 - 1, head]], tail, [], mu,
                   {"family": "lc-mirror", "case": fam, "U": U, "q1": q1,
                    "note": "heuristic mirror family; no tightness guarantee"})
