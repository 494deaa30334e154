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
distribution follows the detailed-balance recursion

    pi(q) lambda(q) = pi(q+1) mu(q+1),

which is geometric within each joint run of constant (lambda, mu).  So
``stationary`` returns one segment per run in the window, in log space,
with the geometric tail beyond the horizon as a last segment of infinite
length; each segment's mass and mean come in closed form, so nothing is
truncated and the cost does not grow with the window.  Transient states
below q_rl carry no segment and thus probability zero, which makes the
queue-length offset of the relabeled chain automatic.
"""

import bisect
import math
from collections import namedtuple

from .rate_functions import (
    RATE_TOL, _MAX_DOUBLE, _check_roles, _count, _finite, _instance, _list, _pair, evaluate,
    inverse)

# segments cover the recurrent window from q_lo in state order; q_max is the
# last state before the geometric tail, whose ratio is its segment's
# log_ratio, and tail_mass the tail's mass (q_ru and 0 for a finite window)
StationaryResult = namedtuple("StationaryResult", ["segments", "q_lo", "q_max", "tail_mass"])

# a joint run of constant (lam, mu) within the recurrent window: pi(q) =
# exp(log_pi + (q - first) log_ratio) for first <= q < first + length
Segment = namedtuple(
    "Segment", ["first", "length", "lam", "mu", "log_pi", "log_ratio", "mass"])

Metrics = namedtuple(
    "Metrics", ["qbar", "cbar", "ubar", "dbar", "mean_arrival", "mean_service"]
)


class Policy(object):
    """Arrival/service rate rules stored as runs of constant rate.

    ``lam`` and ``mu`` list (start, rate) runs: a run holds its rate up to
    the next start, the last one up to the horizon q_h, and beyond it the
    rule takes its tail value.  A rule that is no list, or a run that is no
    pair, is refused by name.  Starts begin at 0 and increase within the
    horizon, which lies below the largest double; neighbouring runs of
    equal rate are merged.  Rate bounds default to the largest rates the
    policy uses; a declared bound below the largest rate of its side, by
    more than RATE_TOL, is refused, so every Policy holds its bounds.  Every
    rate, tail and bound must be a finite int or float, and the horizon and
    every run start an int or an integral float; a bool, a string, a NaN
    or 2.7 is refused, not converted.  ``meta`` is a dict or None.
    """

    def __init__(self, lam, mu, lam_tail, mu_tail, horizon, ra_max=None,
                 r_max=None, meta=None):
        self.horizon = _below_max_double(_count(horizon, "horizon"), "the horizon")
        self.lam_tail = _finite(lam_tail, "arrival tail")
        self.mu_tail = _finite(mu_tail, "service tail")
        self._runs = {"lam": _merged_runs(lam, "lam", self.horizon, self.lam_tail),
                      "mu": _merged_runs(mu, "mu", self.horizon, self.mu_tail)}
        lam_rates, mu_rates = self._runs["lam"][1], self._runs["mu"][1]
        if mu_rates[0] != 0.0:
            raise ValueError("mu(0) must be 0")
        if min(lam_rates + mu_rates) < 0:
            raise ValueError("rates are non-negative")
        self.ra_max = _bound(ra_max, "ra_max", max(lam_rates), "arrival")
        self.r_max = _bound(r_max, "r_max", max(mu_rates), "service")
        self.meta = dict(_instance(meta, dict, "Policy meta")) if meta is not None else {}

    def runs(self, rule):
        """(starts, rates) of the "lam" or "mu" rule, read-only, with the
        tail as a last run from horizon + 1 on."""
        return self._runs[rule]

    def joint_runs(self):
        """Yield (first, end, lambda, mu) for each run of constant (lambda,
        mu) in state order, by one merge of the two rules' runs; the last
        is the tail, with end math.inf."""
        (lam_at, lam), (mu_at, mu) = self._runs["lam"], self._runs["mu"]
        lam_end, mu_end = lam_at[1:] + [math.inf], mu_at[1:] + [math.inf]
        first = i = j = 0
        while first < math.inf:
            end = min(lam_end[i], mu_end[j])
            yield first, end, lam[i], mu[j]
            i += lam_end[i] == end
            j += mu_end[j] == end
            first = end

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


def _bound(bound, what, top, side):
    # a declared bound covers the side's largest rate, to RATE_TOL
    bound = top if bound is None else _finite(bound, what)
    if top > bound + RATE_TOL:
        raise ValueError("%s rate %r exceeds the declared bound %s=%r" % (side, top, what, bound))
    return bound


def _below_max_double(n, what):
    # stationary() and the simulator count states in doubles
    if n >= _MAX_DOUBLE:
        raise ValueError("%s must lie below the largest double, about 1.8e308" % what)
    return n


def _merged_runs(runs, name, horizon, tail):
    what = "a %s run is a (start, rate) pair" % name
    runs = [_pair(x, what) for x in _list(runs, "%s must be a list of (start, rate) runs" % name)]
    runs = [(_count(s, "run start"), _finite(r, "rate")) for s, r in runs]
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
        try:
            q0, q1 = _count(q0, "piece bound"), _count(q1, "piece bound")
        except ValueError:
            raise ValueError("piece bounds must be integers, got %r" % (piece,)) from None
        if q0 < 0 or q1 < q0:
            raise ValueError("bad piece range [%s, %s]" % (q0, q1))
        out.append((q0, q1, _finite(rate, "piece rate")))
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
    0), and the horizon is the largest q_hi.  A bound is an int or an
    integral float.  Overlapping pieces are an error rather than last-wins,
    so policy files stay unambiguous.
    """
    lam_pieces = _checked_pieces(lam_pieces)
    mu_pieces = _checked_pieces(mu_pieces)
    top = max([q1 for _, q1, _ in lam_pieces + mu_pieces], default=0)
    if not mu_pieces or mu_pieces[0][0] > 0:
        mu_pieces.insert(0, (0, 0, 0.0))
    return Policy(_pieces_to_runs(lam_pieces, top, lam_tail),
                  _pieces_to_runs(mu_pieces, top, mu_tail), lam_tail, mu_tail, top,
                  ra_max=ra_max, r_max=r_max, meta=meta)


def constant_policy(lam, mu):
    """M/M/1 with fixed rates; mu applies from q = 1 on."""
    return Policy([(0, lam)], [(0, 0.0)], lam, mu, 0)


def policy_to_json(p):
    _instance(p, Policy, "policy_to_json")

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
        lam_pieces, lam_tail = lam.get("pieces", []), lam["tail"]
        mu_pieces, mu_tail = mu.get("pieces", []), mu["tail"]
        bounds = d.get("bounds", {})
        ra_max, r_max = bounds.get("r_a_max"), bounds.get("r_max")
        meta = dict(d.get("meta") or {})
    except (KeyError, TypeError, AttributeError, ValueError):
        raise ValueError("policy JSON needs 'lambda' and 'mu' objects with a 'tail', "
                         "and 'bounds' and 'meta' must be objects")
    return policy_from_pieces(lam_pieces, lam_tail, mu_pieces, mu_tail,
                              ra_max=ra_max, r_max=r_max, meta=meta)


def check_admissible(p):
    """Raise unless mu is non-decreasing and lambda non-increasing.

    Rates change only where a run starts, so only run starts are checked.
    """
    mu_starts, mu = _instance(p, Policy, "check_admissible").runs("mu")
    lam_starts, lam = p.runs("lam")
    bad = [(q, 0, "service rates decrease at q=%d")
           for q, a, b in zip(mu_starts[1:], mu, mu[1:]) if b < a]
    bad += [(q, 1, "arrival rates increase at q=%d")
            for q, a, b in zip(lam_starts[1:], lam, lam[1:]) if b > a]
    if bad:
        q, _, msg = min(bad)
        raise ValueError(msg % q)


def is_admissible(p):
    """Whether p is admissible; a p that is no Policy is refused, not
    answered."""
    _instance(p, Policy, "is_admissible")
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
    mu_starts, mu = _instance(p, Policy, "recurrent_window").runs("mu")
    lam_starts, lam = p.runs("lam")
    last = max(i for i, r in enumerate(mu) if r == 0.0)
    q_rl = math.inf if last == len(mu) - 1 else mu_starts[last + 1] - 1
    q_ru = next((q for q, r in zip(lam_starts, lam) if r == 0.0), math.inf)
    return q_rl, q_ru


def _stable_window(p):
    """recurrent_window(p) of a policy with a stationary distribution;
    a ValueError says why p has none.  An infinite window needs the tail's
    lambda below its mu by a relative margin of 1e-15."""
    q_rl, q_ru = recurrent_window(p)
    if math.isinf(q_rl):
        raise ValueError("policy never serves; no stationary distribution")
    finite = not math.isinf(q_ru)
    if finite and q_ru < q_rl:
        raise ValueError("absorbing states between q=%s and q=%s" % (q_ru, q_rl))
    if not finite and p.lam_tail >= p.mu_tail * (1.0 - 1e-15):
        raise ValueError(
            "unstable tail: lambda=%r >= mu=%r" % (p.lam_tail, p.mu_tail))
    return q_rl, q_ru


def is_stable(p):
    """Whether p has a stationary distribution, by ``stationary``'s rule; a
    p that is no Policy is refused, not answered."""
    _instance(p, Policy, "is_stable")
    try:
        _stable_window(p)
    except ValueError:
        return False
    return True


def stationary(p):
    """Exact stationary distribution over the recurrent window, as segments.

    Each segment is a joint run of constant (lambda, mu) clipped to the
    window, so pi is geometric within it (flat on a zero-drift plateau) and
    its mass and mean have closed forms.  An infinite window ends in the
    geometric tail beyond the horizon, a segment of infinite length.  Work
    and memory scale with the number of runs, not of states, and nothing is
    truncated.
    """
    q_rl, q_ru = _stable_window(_instance(p, Policy, "stationary"))

    # unnormalized log pi at each segment's first state, from log pi(q_rl) = 0
    # by detailed balance; a one-state segment (mu = 0 at q_rl, lambda = 0
    # at q_ru) gets ratio 0, as it never steps within itself
    runs, log_w = [], 0.0
    for a, b, lam, mu in p.joint_runs():
        first, end = max(a, q_rl), min(b, q_ru + 1)
        if first < end:
            n = end - first
            if runs:
                _, n0, lam0, _, _, x0 = runs[-1]
                log_w += (n0 - 1) * x0 + _log_ratio(lam0, mu)
            runs.append((first, n, lam, mu, log_w, _log_ratio(lam, mu) if n > 1 else 0.0))
    log_mass = [w + _log_geometric_sum(n, x) for _, n, _, _, w, x in runs]
    top = max(log_mass)
    log_z = top + math.log(math.fsum(math.exp(m - top) for m in log_mass))
    segments = [Segment(first, n, lam, mu, w - log_z, x, math.exp(m - log_z))
                for (first, n, lam, mu, w, x), m in zip(runs, log_mass)]
    if not math.isinf(q_ru):
        return StationaryResult(segments, q_rl, q_ru, 0.0)
    tail = segments[-1]
    return StationaryResult(segments, q_rl, tail.first - 1, tail.mass)


def _log_ratio(a, b):
    # log(a/b); within a factor 2, a - b is exact and log1p keeps the digits
    # of a ratio near 1
    r = a / b
    return math.log1p((a - b) / b) if 0.5 < r < 2.0 else math.log(r)


def _log_geometric_sum(n, x):
    # log sum_{j<n} e^{j x}, for n = inf only with x < 0
    if x == 0.0:
        return math.log(n)
    if math.isinf(n):
        return -math.log(-math.expm1(x))
    s = abs(x)
    return (n - 1) * max(x, 0.0) + math.log(-math.expm1(-n * s)) - math.log(-math.expm1(-s))


def _mean_offset(n, x):
    # mean of j under weights e^{j x}, j < n
    if abs(n * x) < 1e-2:
        # series in x, truncated below 1e-14 relative; the closed form below
        # cancels two terms of order 1/x
        n2 = n * n
        if n2 * n2 > _MAX_DOUBLE:
            # the x^3 term below would convert n^4 to a double
            raise ValueError("a run of %.3g states is too long to evaluate: the "
                             "limit is about 1.1e77" % n)
        return (n - 1) / 2 + x * ((n2 - 1) / 12 - x * x * (n2 * n2 - 1) / 720)
    s = abs(x)
    back = 0.0 if math.isinf(n) else n * math.exp(-n * s) / -math.expm1(-n * s)
    down = math.exp(-s) / -math.expm1(-s) - back
    return down if x < 0 else (n - 1) - down


def pi_at(sr, q):
    """pi(q), zero at transient and unreachable states; q is an integer
    below the largest double."""
    q = _below_max_double(_count(q, "q"), "q")
    for s in _instance(sr, StationaryResult, "pi_at").segments:
        if s.first <= q < s.first + s.length:
            return math.exp(s.log_pi + (q - s.first) * s.log_ratio)
    return 0.0


def mass_below(sr, q):
    """Stationary mass of the states below q, an integer below the largest
    double."""
    q = _below_max_double(_count(q, "q"), "q")
    parts = []
    for s in _instance(sr, StationaryResult, "mass_below").segments:
        if s.first >= q:
            break
        n = q - s.first
        parts.append(s.mass if n >= s.length
                     else math.exp(s.log_pi + _log_geometric_sum(n, s.log_ratio)))
    return math.fsum(parts)


def rate_value(fn, r):
    """fn at rate r, where rate 0 contributes 0 by definition, whatever the
    function's domain, and so does every rate when fn is None (utility out
    of play)."""
    return 0.0 if (fn is None or r == 0.0) else evaluate(fn, r)


def metrics(sr, c, u):
    """Performance triple and delay of a stationary result ``sr`` under cost
    c and utility u.

    Each segment contributes its mass times its rates' values, and its mass
    times its mean state to Qbar, so transient states and the geometric
    tail need no special case.  Rates must be evaluable under the
    respective function (for a discrete cost that means every service rate
    used is a sample).  c must be a cost and u None or a utility.
    """
    _check_roles(c, u)
    segs = _instance(sr, StationaryResult, "metrics").segments

    def mean(values):
        return math.fsum(s.mass * v for s, v in zip(segs, values))

    qbar = mean(s.first + _mean_offset(s.length, s.log_ratio) for s in segs)
    cbar = mean(rate_value(c, s.mu) for s in segs)
    ubar = mean(rate_value(u, s.lam) for s in segs)
    mean_arr = mean(s.lam for s in segs)
    mean_srv = mean(s.mu for s in segs)
    dbar = qbar / mean_arr if mean_arr > 0 else math.inf
    return Metrics(qbar, cbar, ubar, dbar, mean_arr, mean_srv)


def exact_metrics(p, c, u=None):
    return metrics(stationary(p), c, u)


def feasibility(c, u, c_c, u_c):
    """Constraint-pair status from the inverse-rate comparison.

    The pair (c_c, u_c) is servable iff the cheapest rate meeting the
    utility floor costs no more than the ceiling, i.e.
    u^-1(u_c) <= c^-1(c_c); rates within RATE_TOL are the boundary.  c
    must be a cost and u a utility.
    """
    _check_roles(c, u)
    if u is None:
        raise ValueError("feasibility needs a utility RateFunction, got None")
    rc = inverse(c, c_c)
    ru = inverse(u, u_c)
    if abs(rc - ru) <= RATE_TOL:
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
    for first, end, lam, mu in _instance(p, Policy, "qlength_upper_bound").joint_runs():
        q, eps = max(first, 1), mu - lam
        if q < end and eps > 0:
            val = q * (eps + p.ra_max) / eps + (p.r_max + p.ra_max) / (2.0 * eps)
            best = min(best, val)
    if best is math.inf:
        raise ValueError("no state with positive drift gap")
    return best
