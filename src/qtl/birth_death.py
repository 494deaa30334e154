"""State-dependent M/M/1 policies and exact stationary analytics.

A policy is the pair of queue-length-indexed rate rules (lambda(q), mu(q))
with mu(0) = 0, each eventually constant beyond a horizon q_h.  Admissible
policies additionally have mu non-decreasing and lambda non-increasing, and
a stable one has lambda < mu at the constant tail (or a finite recurrent
window because arrivals shut off).

The recurrent class of the birth death process is the contiguous window

    q_rl = max{q : mu(q) = 0}   ...   q_ru = min{q : lambda(q) = 0},

with q_ru unbounded when arrivals never vanish.  The stationary
distribution is computed by the detailed-balance recursion

    pi(q) lambda(q) = pi(q+1) mu(q+1)

run in log space over the window, with the geometric tail beyond the
horizon summed in closed form, so normalization and the moments carry no
truncation error beyond float rounding.  Transient states below q_rl get
probability zero, which makes the queue-length offset of the relabeled
chain automatic.
"""

import math
from collections import namedtuple
from itertools import chain, islice

import numpy as np

from .rate_functions import evaluate

StationaryResult = namedtuple(
    "StationaryResult", ["pi", "q_lo", "q_max", "tail_mass", "tail_ratio", "window"]
)

Metrics = namedtuple(
    "Metrics", ["qbar", "cbar", "ubar", "dbar", "mean_arrival", "mean_service"]
)


class Policy(object):
    """Arrival/service rate rules with a constant tail.

    ``lam`` and ``mu`` are per-state rates for q = 0 .. q_h; beyond the
    horizon the rules take the tail values.  Rate bounds default to the
    largest rates the policy uses.
    """

    def __init__(self, lam, mu, lam_tail, mu_tail, ra_max=None, r_max=None,
                 ra_min=0.0, r_min=0.0, meta=None):
        lam = [float(x) for x in lam]
        mu = [float(x) for x in mu]
        if len(lam) != len(mu):
            raise ValueError("lambda and mu rules must share a horizon")
        if not lam:
            raise ValueError("empty rate rules")
        if mu[0] != 0.0:
            raise ValueError("mu(0) must be 0")
        if min(lam) < 0 or min(mu) < 0 or lam_tail < 0 or mu_tail < 0:
            raise ValueError("rates are non-negative")
        self.lam = lam
        self.mu = mu
        self.lam_tail = float(lam_tail)
        self.mu_tail = float(mu_tail)
        self.horizon = len(lam) - 1
        self.ra_max = float(ra_max) if ra_max is not None else max(max(lam), lam_tail)
        self.r_max = float(r_max) if r_max is not None else max(max(mu), mu_tail)
        self.ra_min = float(ra_min)
        self.r_min = float(r_min)
        self.meta = dict(meta) if meta else {}

    def arrival(self, q):
        return self.lam[q] if q <= self.horizon else self.lam_tail

    def service(self, q):
        return self.mu[q] if q <= self.horizon else self.mu_tail

    def __eq__(self, other):
        if not isinstance(other, Policy):
            return NotImplemented
        return (self.lam == other.lam and self.mu == other.mu
                and self.lam_tail == other.lam_tail and self.mu_tail == other.mu_tail)

    def __repr__(self):
        return "Policy(horizon=%d, lam_tail=%g, mu_tail=%g)" % (
            self.horizon, self.lam_tail, self.mu_tail)


def policy_from_pieces(lam_pieces, lam_tail, mu_pieces, mu_tail,
                       ra_max=None, r_max=None, meta=None):
    """Build a Policy from inclusive [q_lo, q_hi, rate] pieces.

    States not covered by a piece take the tail value (mu(0) defaults to
    0).  Overlapping pieces are an error rather than last-wins, so policy
    files stay unambiguous.
    """
    top = 0
    for q0, q1, _ in list(lam_pieces) + list(mu_pieces):
        if q0 < 0 or q1 < q0:
            raise ValueError("bad piece range [%s, %s]" % (q0, q1))
        top = max(top, q1)
    lam = [None] * (top + 1)
    mu = [None] * (top + 1)
    for arr, pieces in ((lam, lam_pieces), (mu, mu_pieces)):
        for q0, q1, rate in pieces:
            for q in range(int(q0), int(q1) + 1):
                if arr[q] is not None:
                    raise ValueError("overlapping pieces at q=%d" % q)
                arr[q] = float(rate)
    lam = [lam_tail if x is None else x for x in lam]
    filled = []
    for q, x in enumerate(mu):
        if x is None:
            filled.append(0.0 if q == 0 else mu_tail)
        else:
            filled.append(x)
    mu = filled
    if mu[0] != 0.0:
        raise ValueError("mu(0) must be 0")
    return Policy(lam, mu, lam_tail, mu_tail, ra_max=ra_max, r_max=r_max, meta=meta)


def constant_policy(lam, mu, ra_max=None, r_max=None):
    """M/M/1 with fixed rates; mu applies from q = 1 on."""
    return Policy([lam], [0.0], lam, mu, ra_max=ra_max, r_max=r_max)


def policy_to_json(p):
    def pieces_of(arr, tail):
        pieces = []
        q = 0
        while q < len(arr):
            r = q
            while r + 1 < len(arr) and arr[r + 1] == arr[q]:
                r += 1
            pieces.append([q, r, arr[q]])
            q = r + 1
        return {"pieces": pieces, "tail": tail}

    out = {
        "lambda": pieces_of(p.lam, p.lam_tail),
        "mu": pieces_of(p.mu, p.mu_tail),
        "bounds": {"r_a_min": p.ra_min, "r_a_max": p.ra_max,
                   "r_min": p.r_min, "r_max": p.r_max},
    }
    if p.meta:
        out["meta"] = dict(p.meta)
    return out


def policy_from_json(d):
    try:
        lam = d["lambda"]
        mu = d["mu"]
    except (KeyError, TypeError):
        raise ValueError("policy JSON needs 'lambda' and 'mu' objects")
    bounds = d.get("bounds", {})
    return policy_from_pieces(
        lam.get("pieces", []), lam["tail"], mu.get("pieces", []), mu["tail"],
        ra_max=bounds.get("r_a_max"), r_max=bounds.get("r_max"),
        meta=d.get("meta"))


def check_admissible(p):
    """Raise unless mu is non-decreasing, lambda non-increasing, bounds hold."""
    if p.mu[0] != 0.0:
        raise ValueError("mu(0) must be 0")
    seq_mu = p.mu + [p.mu_tail]
    seq_lam = p.lam + [p.lam_tail]
    for i in range(1, len(seq_mu)):
        if seq_mu[i] < seq_mu[i - 1]:
            raise ValueError("service rates decrease at q=%d" % i)
        if seq_lam[i] > seq_lam[i - 1]:
            raise ValueError("arrival rates increase at q=%d" % i)
    if max(seq_lam) > p.ra_max + 1e-12 or max(seq_mu) > p.r_max + 1e-12:
        raise ValueError("rates exceed declared bounds")


def is_admissible(p):
    try:
        check_admissible(p)
        return True
    except ValueError:
        return False


def recurrent_window(p):
    """(q_rl, q_ru): last zero-service state and first zero-arrival state.

    q_ru is math.inf when arrivals never shut off; q_rl is math.inf in the
    degenerate no-service case.
    """
    if p.mu_tail == 0.0:
        q_rl = math.inf
    else:
        q_rl = 0
        for q in range(p.horizon + 1):
            if p.mu[q] == 0.0:
                q_rl = q
    q_ru = math.inf
    for q in range(p.horizon + 1):
        if p.lam[q] == 0.0:
            q_ru = q
            break
    if math.isinf(q_ru) and p.lam_tail == 0.0:
        q_ru = p.horizon + 1
    return q_rl, q_ru


def is_stable(p):
    q_rl, q_ru = recurrent_window(p)
    if math.isinf(q_rl):
        return False
    if not math.isinf(q_ru):
        return q_ru >= q_rl
    return p.lam_tail < p.mu_tail


def stationary(p, tail_tol=1e-12, max_states=2_000_000):
    """Exact stationary distribution over the recurrent window.

    The detailed-balance products are accumulated as logs; beyond the
    horizon the chain is geometric with ratio rho = lambda_tail/mu_tail
    and its mass is summed in closed form, so the result is exact up to
    float rounding.  The returned array covers [q_lo, q_max] chosen so the
    analytic tail mass beyond q_max is below ``tail_tol``; that mass is
    reported (and accounted for in the moments), not dropped.
    """
    if not (0 < tail_tol <= 1e-6):
        raise ValueError("tail_tol must be in (0, 1e-6]")
    q_rl, q_ru = recurrent_window(p)
    if math.isinf(q_rl):
        raise ValueError("policy never serves; no stationary distribution")
    finite = not math.isinf(q_ru)
    if finite and q_ru < q_rl:
        raise ValueError("absorbing states between q=%s and q=%s" % (q_ru, q_rl))
    if not finite and p.lam_tail >= p.mu_tail * (1.0 - 1e-15):
        raise ValueError(
            "unstable tail: lambda=%g >= mu=%g" % (p.lam_tail, p.mu_tail))

    head_end = q_ru if finite else p.horizon + 1
    # logf[k] = (logf[k-1] + log lambda(q_rl+k-1)) - log mu(q_rl+k), added in
    # that order as a running sum over the two logs interleaved
    k = head_end - q_rl
    mus = islice(chain(p.mu, (p.mu_tail,)), q_rl + 1, head_end + 1)
    logf = np.zeros(2 * k + 1)
    logf[1::2] = np.fromiter(map(math.log, islice(p.lam, q_rl, head_end)), float, k)
    logf[2::2] = -np.fromiter(map(math.log, mus), float, k)
    logf = np.cumsum(logf, out=logf)[::2].copy()

    if finite:
        q_max = head_end
        rho = 0.0
        w = np.exp(logf - logf.max())
        total = np.sum(w)
        pi = w / total
        tail_mass = 0.0
    else:
        rho = p.lam_tail / p.mu_tail
        log_rho = math.log(rho)
        # head covers [q_rl, q_h + 1]; everything beyond decays by rho
        m = logf.max()
        head_sum = np.sum(np.exp(logf - m))
        tail_sum = math.exp(logf[-1] - m) * rho / (1.0 - rho)
        log_total = m + math.log(head_sum + tail_sum)
        # extend until pi(q_max) * rho/(1-rho) < tail_tol
        target = math.log(tail_tol) + math.log((1.0 - rho) / rho) + log_total
        extra = (target - logf[-1]) / log_rho
        extra = max(0, int(math.ceil(extra)))
        q_max = head_end + extra
        if q_max - q_rl + 1 > max_states:
            # in log space: with the head alone over the cap, exp overflows
            log_achieved = (logf[-1] + (max_states - (head_end - q_rl) - 1) * log_rho
                            + math.log(rho / (1.0 - rho)) - log_total)
            raise ValueError(
                "tail ratio %g needs %d states for tol %g (cap %d, achieved "
                "tail mass 10^%.3g)" % (rho, q_max - q_rl + 1, tail_tol,
                                         max_states, log_achieved / math.log(10)))
        logf_all = np.concatenate(
            [logf, logf[-1] + log_rho * np.arange(1, extra + 1)])
        w = np.exp(logf_all - m)
        tail_w = w[-1] * rho / (1.0 - rho)
        total = np.sum(w) + tail_w
        pi = w / total
        tail_mass = tail_w / total

    return StationaryResult(pi, q_rl, q_max, tail_mass, rho, (q_rl, q_ru))


def pi_at(sr, q):
    """pi(q) including transient zeros and the analytic geometric tail."""
    if q < sr.q_lo:
        return 0.0
    if q <= sr.q_max:
        return float(sr.pi[q - sr.q_lo])
    if sr.tail_ratio == 0.0:
        return 0.0
    return float(sr.pi[-1] * sr.tail_ratio ** (q - sr.q_max))


def _rate_values(fn, rates):
    """fn at every per-state rate, evaluated once per distinct rate.

    Rate 0 contributes 0 by definition, whatever the function's domain,
    and so does every rate when fn is None (utility out of play).  Rules
    are piecewise constant, so the distinct rates are read off run starts.
    """
    starts = rates[np.append(True, rates[1:] != rates[:-1])]
    distinct = sorted(set(starts.tolist()))
    vals = np.array([0.0 if (fn is None or r == 0.0) else evaluate(fn, r)
                     for r in distinct])
    return vals[np.searchsorted(distinct, rates)]


def metrics(p, sr, c, u):
    """Performance triple and delay for a policy under cost c and utility u.

    Qbar picks up the transient offset automatically because the window
    states keep their absolute labels.  The geometric tail contributes its
    closed-form mass and first moment, so nothing is truncated.  Rates must
    be evaluable under the respective function (for a discrete cost that
    means every service rate used is a sample).
    """
    qs = np.arange(sr.q_lo, sr.q_max + 1)
    head = min(sr.q_max, p.horizon) + 1 - sr.q_lo    # states read from the rules
    lam_q = np.full(qs.shape[0], p.lam_tail)
    mu_q = np.full(qs.shape[0], p.mu_tail)
    lam_q[:head] = p.lam[sr.q_lo:sr.q_lo + head]
    mu_q[:head] = p.mu[sr.q_lo:sr.q_lo + head]

    c_q = _rate_values(c, mu_q)
    u_q = _rate_values(u, lam_q)

    qbar = float(np.dot(qs, sr.pi))
    cbar = float(np.dot(c_q, sr.pi))
    ubar = float(np.dot(u_q, sr.pi))
    mean_arr = float(np.dot(lam_q, sr.pi))
    mean_srv = float(np.dot(mu_q, sr.pi))

    if sr.tail_mass > 0.0:
        rho = sr.tail_ratio
        pi_top = float(sr.pi[-1])
        # sum_{j>=1} (q_max + j) rho^j pi(q_max)
        qbar += pi_top * (sr.q_max * rho / (1.0 - rho) + rho / (1.0 - rho) ** 2)
        cbar += evaluate(c, p.mu_tail) * sr.tail_mass
        if u is not None:
            ubar += evaluate(u, p.lam_tail) * sr.tail_mass
        mean_arr += p.lam_tail * sr.tail_mass
        mean_srv += p.mu_tail * sr.tail_mass

    dbar = qbar / mean_arr if mean_arr > 0 else math.inf
    return Metrics(float(qbar), float(cbar), float(ubar), float(dbar),
                   float(mean_arr), float(mean_srv))


def exact_metrics(p, c, u=None, tail_tol=1e-12):
    return metrics(p, stationary(p, tail_tol=tail_tol), c, u)


def feasibility(c, u, c_c, u_c, tol=1e-12):
    """Constraint-pair status from the inverse-rate comparison.

    The pair (c_c, u_c) is servable iff the cheapest rate meeting the
    utility floor costs no more than the ceiling, i.e.
    u^-1(u_c) <= c^-1(c_c).
    """
    from .rate_functions import inverse

    rc = inverse(c, c_c)
    ru = inverse(u, u_c)
    if abs(rc - ru) <= tol:
        return "boundary"
    return "feasible" if rc > ru else "infeasible"


def qlength_upper_bound(p):
    """Drift upper bound on Qbar.

    For any state q_eps with mu(q_eps) - lambda(q_eps) = eps > 0,

        Qbar <= q_eps (eps + r_a_max)/eps + (r_max + r_a_max)/(2 eps).

    Every state up to one past the horizon is scanned and the smallest
    bound returned.
    """
    best = math.inf
    for q in range(1, p.horizon + 2):
        eps = p.service(q) - p.arrival(q)
        if eps > 0:
            val = q * (eps + p.ra_max) / eps + (p.r_max + p.ra_max) / (2.0 * eps)
            best = min(best, val)
    if best is math.inf:
        raise ValueError("no state with positive drift gap")
    return best
