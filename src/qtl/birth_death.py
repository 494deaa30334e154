"""State-dependent M/M/1 policies and exact stationary analytics.

A policy is the pair of queue-length-indexed rate rules (lambda(q), mu(q))
with mu(0) = 0, each eventually constant beyond a horizon q_h.  A rule is
stored as runs of constant rate over 0..q_h, the same form as the
``pieces`` of the policy JSON, plus the tail rate; other modules read the
rules only through Policy's methods, never per state.  Admissible
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

import bisect
import functools
import math
import numbers
from collections import namedtuple

import numpy as np

from .rate_functions import evaluate

StationaryResult = namedtuple(
    "StationaryResult", ["pi", "q_lo", "q_max", "tail_mass", "tail_ratio", "window"]
)

Metrics = namedtuple(
    "Metrics", ["qbar", "cbar", "ubar", "dbar", "mean_arrival", "mean_service"]
)


class Policy(object):
    """Arrival/service rate rules stored as runs of constant rate.

    ``lam`` and ``mu`` list (start, rate) runs: a run holds its rate up to
    the next start, the last one up to the horizon q_h, and beyond it the
    rule takes its tail value.  Starts begin at 0 and increase within the
    horizon; neighbouring runs of equal rate are merged.  Rate bounds
    default to the largest rates the policy uses.
    """

    def __init__(self, lam, mu, lam_tail, mu_tail, horizon, ra_max=None,
                 r_max=None, meta=None):
        self.horizon = int(horizon)
        self.lam_tail = float(lam_tail)
        self.mu_tail = float(mu_tail)
        self._runs = {"lam": _merged_runs(lam, self.horizon, self.lam_tail),
                      "mu": _merged_runs(mu, self.horizon, self.mu_tail)}
        lam_rates, mu_rates = self._runs["lam"][1], self._runs["mu"][1]
        if mu_rates[0] != 0.0:
            raise ValueError("mu(0) must be 0")
        if min(lam_rates + mu_rates) < 0:
            raise ValueError("rates are non-negative")
        self.ra_max = float(ra_max) if ra_max is not None else max(lam_rates)
        self.r_max = float(r_max) if r_max is not None else max(mu_rates)
        self.meta = dict(meta) if meta else {}

    def runs(self, rule):
        """(starts, rates) of the "lam" or "mu" rule, read-only, with the
        tail as a last run from horizon + 1 on."""
        return self._runs[rule]

    def per_state(self, rule, lo, hi, fn=None):
        """Rate of the "lam" or "mu" rule at each state lo..hi-1 as an array,
        or ``fn`` of it, with ``fn`` called once per run."""
        starts, rates = self._runs[rule]
        counts = np.diff(np.append(np.clip(starts, lo, hi), hi))
        rates = [r for r, n in zip(rates, counts) if n > 0]
        vals = rates if fn is None else [fn(r) for r in rates]
        return np.repeat(np.array(vals, dtype=float), counts[counts > 0])

    def arrival(self, q):
        starts, rates = self._runs["lam"]
        return rates[bisect.bisect_right(starts, q) - 1]

    def service(self, q):
        starts, rates = self._runs["mu"]
        return rates[bisect.bisect_right(starts, q) - 1]

    def __eq__(self, other):
        if not isinstance(other, Policy):
            return NotImplemented
        return self.horizon == other.horizon and self._runs == other._runs

    def __repr__(self):
        return "Policy(horizon=%d, lam_tail=%g, mu_tail=%g)" % (
            self.horizon, self.lam_tail, self.mu_tail)


def _merged_runs(runs, horizon, tail):
    runs = [(int(s), float(r)) for s, r in runs]
    starts = [s for s, _ in runs]
    if starts[:1] != [0] or starts != sorted(set(starts)) or starts[-1] > horizon:
        raise ValueError("runs must start at q=0 and increase within the horizon")
    kept = [run for k, run in enumerate(runs) if k == 0 or run[1] != runs[k - 1][1]]
    return [s for s, _ in kept] + [horizon + 1], [r for _, r in kept] + [tail]


def _checked_pieces(pieces):
    if not isinstance(pieces, (list, tuple)):
        raise ValueError("pieces must be a list of [q_lo, q_hi, rate]")
    out = []
    for piece in pieces:
        if not isinstance(piece, (list, tuple)) or len(piece) != 3:
            raise ValueError("a piece is [q_lo, q_hi, rate], got %r" % (piece,))
        q0, q1, rate = piece
        if any(isinstance(b, bool) or not isinstance(b, numbers.Integral)
               for b in (q0, q1)):
            raise ValueError("piece bounds must be integers, got %r" % (piece,))
        if q0 < 0 or q1 < q0:
            raise ValueError("bad piece range [%s, %s]" % (q0, q1))
        if not isinstance(rate, (numbers.Real, str)):
            raise ValueError("piece rate must be a number, got %r" % (piece,))
        out.append((int(q0), int(q1), float(rate)))
    return sorted(out)


def _pieces_to_runs(pieces, top, fill):
    # (start, rate) runs over 0..top of sorted pieces, the gaps at the fill rate
    runs, q = [], 0
    for q0, q1, rate in pieces:
        if q0 < q:
            raise ValueError("overlapping pieces at q=%d" % q0)
        if q0 > q:
            runs.append((q, fill))
        runs.append((q0, rate))
        q = q1 + 1
    if q <= top:
        runs.append((q, fill))
    return runs


def policy_from_pieces(lam_pieces, lam_tail, mu_pieces, mu_tail,
                       ra_max=None, r_max=None, meta=None):
    """Build a Policy from inclusive [q_lo, q_hi, rate] pieces.

    States not covered by a piece take the tail value (mu(0) defaults to
    0), and the horizon is the largest q_hi.  Bounds must be integers.
    Overlapping pieces are an error rather than last-wins, so policy files
    stay unambiguous.
    """
    lam_pieces = _checked_pieces(lam_pieces)
    mu_pieces = _checked_pieces(mu_pieces)
    top = max([q1 for _, q1, _ in lam_pieces + mu_pieces], default=0)
    if not mu_pieces or mu_pieces[0][0] > 0:
        mu_pieces.insert(0, (0, 0, 0.0))
    return Policy(_pieces_to_runs(lam_pieces, top, lam_tail),
                  _pieces_to_runs(mu_pieces, top, mu_tail), lam_tail, mu_tail, top,
                  ra_max=ra_max, r_max=r_max, meta=meta)


def constant_policy(lam, mu, ra_max=None, r_max=None):
    """M/M/1 with fixed rates; mu applies from q = 1 on."""
    return Policy([(0, lam)], [(0, 0.0)], lam, mu, 0, ra_max=ra_max, r_max=r_max)


def policy_to_json(p):
    def pieces_of(rule):
        starts, rates = p.runs(rule)
        return {"pieces": [[a, b - 1, r] for a, b, r in zip(starts, starts[1:], rates)],
                "tail": rates[-1]}

    out = {
        "lambda": pieces_of("lam"),
        "mu": pieces_of("mu"),
        "bounds": {"r_a_min": 0.0, "r_a_max": p.ra_max,
                   "r_min": 0.0, "r_max": p.r_max},
    }
    if p.meta:
        out["meta"] = dict(p.meta)
    return out


def policy_from_json(d):
    try:
        lam = d["lambda"]
        mu = d["mu"]
        lam_pieces, lam_tail = lam.get("pieces", []), float(lam["tail"])
        mu_pieces, mu_tail = mu.get("pieces", []), float(mu["tail"])
        bounds = d.get("bounds", {})
        ra_max, r_max = (None if b is None else float(b)
                         for b in (bounds.get("r_a_max"), bounds.get("r_max")))
        meta = dict(d.get("meta") or {})
    except (KeyError, TypeError, AttributeError, ValueError):
        raise ValueError("policy JSON needs 'lambda' and 'mu' objects with a numeric "
                         "'tail', numeric bounds and an object 'meta'")
    return policy_from_pieces(lam_pieces, lam_tail, mu_pieces, mu_tail,
                              ra_max=ra_max, r_max=r_max, meta=meta)


def check_admissible(p):
    """Raise unless mu is non-decreasing, lambda non-increasing, bounds hold.

    Rates change only where a run starts, so only run starts are checked.
    """
    mu_starts, mu = p.runs("mu")
    lam_starts, lam = p.runs("lam")
    bad = [(q, 0, "service rates decrease at q=%d")
           for q, a, b in zip(mu_starts[1:], mu, mu[1:]) if b < a]
    bad += [(q, 1, "arrival rates increase at q=%d")
            for q, a, b in zip(lam_starts[1:], lam, lam[1:]) if b > a]
    if bad:
        q, _, msg = min(bad)
        raise ValueError(msg % q)
    if max(lam) > p.ra_max + 1e-12 or max(mu) > p.r_max + 1e-12:
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
    mu_starts, mu = p.runs("mu")
    lam_starts, lam = p.runs("lam")
    last = max(i for i, r in enumerate(mu) if r == 0.0)
    q_rl = math.inf if last == len(mu) - 1 else mu_starts[last + 1] - 1
    q_ru = next((q for q, r in zip(lam_starts, lam) if r == 0.0), math.inf)
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
    if head_end - q_rl + 1 > max_states:
        raise ValueError("the window from q=%d to q=%d needs %d states (cap %d)"
                         % (q_rl, head_end, head_end - q_rl + 1, max_states))
    # logf[k] = (logf[k-1] + log lambda(q_rl+k-1)) - log mu(q_rl+k), added in
    # that order as a running sum over the two logs interleaved
    k = head_end - q_rl
    logf = np.zeros(2 * k + 1)
    logf[1::2] = p.per_state("lam", q_rl, head_end, math.log)
    logf[2::2] = -p.per_state("mu", q_rl + 1, head_end + 1, math.log)
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
            # in log space, where a far-off achieved mass cannot underflow
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
        tail_mass = float(tail_w / total)

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


def rate_value(fn, r):
    """fn at rate r, where rate 0 contributes 0 by definition, whatever the
    function's domain, and so does every rate when fn is None (utility out
    of play)."""
    return 0.0 if (fn is None or r == 0.0) else evaluate(fn, r)


def metrics(p, sr, c, u):
    """Performance triple and delay for a policy under cost c and utility u.

    Qbar picks up the transient offset automatically because the window
    states keep their absolute labels.  The geometric tail contributes its
    closed-form mass and first moment, so nothing is truncated.  Rates must
    be evaluable under the respective function (for a discrete cost that
    means every service rate used is a sample).
    """
    lo, hi = sr.q_lo, sr.q_max + 1
    qs = np.arange(lo, hi)
    lam_q = p.per_state("lam", lo, hi)
    mu_q = p.per_state("mu", lo, hi)
    c_q = p.per_state("mu", lo, hi, functools.partial(rate_value, c))
    u_q = p.per_state("lam", lo, hi, functools.partial(rate_value, u))

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

    The smallest bound over the states 1 .. q_h + 1 is returned.  Within a
    run of both rules the bound grows with q, so only the first state of
    each run is tried.
    """
    best = math.inf
    firsts = set(p.runs("lam")[0]) | set(p.runs("mu")[0]) | {1}
    for q in firsts - {0}:
        eps = p.service(q) - p.arrival(q)
        if eps > 0:
            val = q * (eps + p.ra_max) / eps + (p.r_max + p.ra_max) / (2.0 * eps)
            best = min(best, val)
    if best is math.inf:
        raise ValueError("no state with positive drift gap")
    return best
