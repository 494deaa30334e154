"""Explicit policy families that approach the minimum service cost.

Each constructor builds an admissible, stable policy parameterized by a
scale U > 0; as U drops to 0 the achieved average cost approaches the
relevant floor while the mean queue length grows at the case's asymptotic
order:

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

Threshold positions q1 follow the closed forms; every constructor checks
its preconditions and the admissibility of what it built.
"""

import math

from .birth_death import check_admissible, is_stable, policy_from_pieces
from .rate_functions import _check_tag


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


def _finish(p):
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
    monotonicity).
    """
    if U <= 0:
        raise ValueError("U must be positive")
    eps_u = math.sqrt(U)
    if eps_u >= lam:
        raise ValueError("sqrt(U)=%g must stay below lam=%g" % (eps_u, lam))
    if K is None:
        K = 0.5 * (r_max - lam)
    if K <= 0 or lam + K > r_max + 1e-12:
        raise ValueError("need 0 < K with lam + K <= r_max")
    eps_pu = lam * eps_u / (lam - eps_u)
    if eps_pu > K + 1e-12:
        raise ValueError(
            "middle level offset %g exceeds K=%g; service would decrease" % (eps_pu, K))
    q1 = int(math.floor(_quotient(
        math.log1p(_quotient(eps_u, U * lam, U)), math.log(lam / (lam - eps_u)), U)))
    if q1 < 1:
        raise ValueError("U=%g too large, threshold q1 < 1" % U)
    p = policy_from_pieces(
        [], lam,
        [[1, q1, lam - eps_u], [q1 + 1, 2 * q1, lam + eps_pu]], lam + K,
        ra_max=lam, r_max=r_max,
        meta={"family": "mc1", "U": U, "K": K, "eps_U": eps_u,
              "eps_pU": eps_pu, "q1": q1})
    return _finish(p)


def mc21_policy(lam, b_lam, r_max, q_k):
    """Two-level service policy: b_lam up to q_k, then r_max."""
    if not (0 < lam < b_lam < r_max):
        raise ValueError("need 0 < lam < b_lam < r_max")
    q_k = int(q_k)
    if q_k < 1:
        raise ValueError("q_k must be at least 1")
    p = policy_from_pieces(
        [], lam, [[1, q_k, b_lam]], r_max,
        ra_max=lam, r_max=r_max,
        meta={"family": "mc21", "q_k": q_k})
    return _finish(p)


def mc22_policy(lam, a_lam, b_lam, U):
    """Serve the lower corner a_lam up to q1, then the upper corner b_lam.

    q1 = ceil( log_{lam/a_lam} (1 + ((lam - a_lam)/lam) / U) ).
    """
    if not (0 < a_lam < lam < b_lam):
        raise ValueError("need 0 < a_lam < lam < b_lam")
    if U <= 0:
        raise ValueError("U must be positive")
    q1 = _threshold((lam - a_lam) / lam, lam / a_lam, U)
    p = policy_from_pieces(
        [], lam, [[1, q1, a_lam]], b_lam,
        ra_max=lam, r_max=b_lam,
        meta={"family": "mc22", "U": U, "q1": q1})
    return _finish(p)


def mc23_policy(lam, K, U, next_corner=None):
    """Zero-drift plateau at the corner rate, then lam + K.

    q1 = ceil(1/U).  When the next corner of the cost envelope is known it
    caps K (lam + K must not cross it, or the tail rate leaves the active
    pair of segments).
    """
    if U <= 0 or K <= 0:
        raise ValueError("U and K must be positive")
    if next_corner is not None and lam + K > next_corner + 1e-12:
        raise ValueError(
            "lam + K = %g overshoots the next corner %g" % (lam + K, next_corner))
    q1 = int(math.ceil(_quotient(1.0, U, U)))
    p = policy_from_pieces(
        [], lam, [[1, q1, lam]], lam + K,
        ra_max=lam, r_max=lam + K,
        meta={"family": "mc23", "U": U, "K": K, "q1": q1})
    return _finish(p)


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
    if U <= 0:
        raise ValueError("U must be positive")
    if eps is None:
        eps = min(0.05, 0.5 * (ra_max - u_inv_uc))
    if eps <= 0:
        raise ValueError("eps must be positive")
    if u_inv_uc - eps < 0:
        raise ValueError("eps=%g exceeds the anchor rate %g" % (eps, u_inv_uc))
    k_min = 2.0 * (1.0 + u_inv_uc ** 2 / eps)
    if K is None:
        K = int(math.ceil(k_min)) + 1
    K = int(K)
    if K <= k_min:
        raise ValueError("K=%d must exceed %g" % (K, k_min))
    mu1 = u_inv_uc - U
    mu2 = u_inv_uc + U
    lam1 = u_inv_uc + eps
    lam2 = u_inv_uc - eps
    if mu1 <= 0:
        raise ValueError("U=%g at least the anchor rate %g" % (U, u_inv_uc))
    if mu2 > r_max + 1e-12:
        raise ValueError("mu2=%g exceeds r_max=%g" % (mu2, r_max))
    if lam1 > ra_max + 1e-12:
        raise ValueError("lam1=%g exceeds r_a_max=%g" % (lam1, ra_max))
    q1 = _threshold((lam1 - mu1) / lam1, lam1 / mu1, U)
    p = policy_from_pieces(
        [[0, q1 - 1, lam1], [q1, q1 + K, u_inv_uc]], lam2,
        [[1, q1, mu1]], mu2,
        ra_max=ra_max, r_max=r_max,
        meta={"family": "lmu", "U": U, "eps": eps, "K": K, "q1": q1,
              "mu1": mu1, "mu2": mu2, "lam1": lam1, "lam2": lam2})
    return _finish(p)


def lc_mirror_policy(mu, tag, U):
    """Arrival-rate mirror of the service constructions.

    Service is held at mu; the arrival rule plays the role the service
    rule plays in the corresponding cost-side family.  This is heuristic
    plumbing (the tight arrival-side constructions are not reproduced
    here) and the metadata says so.
    """
    if U <= 0:
        raise ValueError("U must be positive")
    note = "heuristic mirror family; no tightness guarantee"
    fam = tag.family
    if fam not in ("LC1", "LC2-1", "LC2-2"):
        raise ValueError("not an arrival-side case tag: %r" % (fam,))
    _check_tag(tag, "window")
    if fam == "LC1":
        eps_u = math.sqrt(U)
        lo, hi = tag.window
        if eps_u >= mu:
            raise ValueError("sqrt(U)=%g must stay below mu=%g" % (eps_u, mu))
        if mu + eps_u > hi + 1e-12:
            raise ValueError("mu + sqrt(U) leaves the utility domain")
        lam_hi = mu + eps_u
        lam_lo = mu - eps_u
        q1 = _threshold(eps_u / lam_hi, lam_hi / mu, U)
        p = policy_from_pieces(
            [[0, q1 - 1, lam_hi]], lam_lo, [], mu,
            ra_max=lam_hi, r_max=mu,
            meta={"family": "lc-mirror", "case": fam, "U": U, "q1": q1,
                  "note": note})
        return _finish(p)
    if fam == "LC2-1":
        a_mu, b_mu = tag.window
        if not (a_mu < mu < b_mu):
            raise ValueError("mu must lie strictly inside the segment")
        q1 = _threshold((b_mu - mu) / b_mu, b_mu / mu, U)
        p = policy_from_pieces(
            [[0, q1 - 1, b_mu]], a_mu, [], mu,
            ra_max=b_mu, r_max=mu,
            meta={"family": "lc-mirror", "case": fam, "U": U, "q1": q1,
                  "note": note})
        return _finish(p)
    if fam == "LC2-2":
        prev_c, next_c = tag.window
        if not (prev_c < mu < next_c):
            raise ValueError("corner window does not bracket mu")
        q1 = int(math.ceil(_quotient(1.0, U, U)))
        p = policy_from_pieces(
            [[0, q1 - 1, mu]], prev_c, [], mu,
            ra_max=mu, r_max=mu,
            meta={"family": "lc-mirror", "case": fam, "U": U, "q1": q1,
                  "note": note})
        return _finish(p)
