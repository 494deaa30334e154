"""Average-cost MDP solver for the queue/cost/utility tradeoff.

The constrained problem (minimize mean queue length subject to a service
cost budget and a utility floor) is relaxed to an unconstrained one with
stage cost

    (q + beta1 c(mu) - beta2 u(lam)) / r_u

on the chain uniformized at rate r_u: from state q the next state is q+1
with probability lam(q)/r_u, q-1 with probability mu(q)/r_u, q otherwise.
The state space is truncated at state_cap with arrivals disabled there,
which keeps the birth-death structure.  Policy iteration with
relative-value evaluation solves it; sweeping (beta1, beta2) traces the
tradeoff curve.

Policy evaluation solves the (N+2)-unknown linear system

    (lam_q + mu_q)/r_u h(q) - lam_q/r_u h(q+1) - mu_q/r_u h(q-1) + g = cost(q)
    h(0) = 0

directly (sparse LU on a matrix assembled column-wise in numpy, whose
arrays and solution are bit-identical to a per-state COO build converted
to CSC).  A singular system means the chain under the evaluated policy
has more than one recurrent class; that is reported, not papered over.
``scipy.sparse`` is imported inside the two functions that build and
solve that system, so importing this module (and ``qtl`` or ``qtl.cli``)
does not load it; only the first policy evaluation does.

Policy iteration keeps one array of action indices per rule; each action
table ends in a zero-rate, zero-cost column for state 0's service and the
cap's arrival.  Service columns run in ascending rate order and arrival
columns in descending order, so ``_best(values)``, which takes each row's
first exact minimizer, breaks every tie of the improvement step: the
smallest service rate, the largest arrival rate.

The improvement step of a rule with fewer than WINDOW_MIN_RATES (17)
rates fills one (states x rates) table in place on every step.  A wider
rule needs only a window of its columns per row: row q's pick minimizes
beta c(a) - a d(q), so only columns near the lower-hull vertex that d(q)
selects can win.  ``_Rule.window`` evaluates those columns exactly as the
table would, and takes the pick there when a certificate proves every
column outside the window strictly worse; a row that fails it, and the
cap row, are evaluated in full.  Picks and minima are therefore the
table's, ties included.  The unweighted c(a) and u(a), the hull and the
certificate's chord-slope bounds are built once per action set (``_Side``)
and shared through ``with_multipliers``.  ``solve`` may start from a given
policy, and runs again from the largest rates if that start ends in an
error.
``trace_tradeoff`` starts each point of a beta1 row from the previous
beta2 point's policy and the first point of a row cold.  With a single
beta2 it starts each beta1 point from the previous one's policy.  On a
grid with several beta2 the rows are not chained along beta1: on the
admission benchmark grid one such chain ends at another policy among
exact ties that rounding decides.
"""

import math
from collections import namedtuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .birth_death import Policy, exact_metrics, is_admissible, rate_value
from .rate_functions import lower_hull

MAX_ITERATIONS = 500
WINDOW_MIN_RATES = 17     # a smaller action set keeps the full improvement table
_U = 2.0 ** -53           # unit roundoff of a double
_TINY = 2.0 ** -1022      # smallest normal double: covers underflow in the bound

SolveResult = namedtuple(
    "SolveResult",
    ["policy", "gain", "iterations", "monotone", "gain_history"])

TradeoffPoint = namedtuple(
    "TradeoffPoint",
    ["beta1", "beta2", "c_c", "u_c", "q_star", "policy", "dominated"])

TraceFailure = namedtuple("TraceFailure", ["beta1", "beta2", "error"])


class LagrangianProblem:
    """Relaxed control problem: multipliers, action sets, stage-cost pieces.

    service_actions / arrival_actions are finite rate sets, stored in
    ascending order without duplicates.  r_u is max arrival + max service,
    the smallest valid uniformization rate.  utility_fn may be None when
    beta2 == 0.
    """

    def __init__(self, beta1, beta2, service_actions, arrival_actions,
                 cost_fn, utility_fn=None, state_cap=500):
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not (math.isfinite(beta) and beta >= 0):
                raise ValueError("multiplier %s must be finite and non-negative, "
                                 "got %r" % (name, beta))
        service_actions = _rates(service_actions, "service")
        arrival_actions = _rates(arrival_actions, "arrival")
        if state_cap < 10:
            raise ValueError("state_cap must be at least 10")
        if beta2 > 0 and utility_fn is None:
            raise ValueError("beta2 > 0 needs a utility function")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.service_actions = service_actions
        self.arrival_actions = arrival_actions
        self.cost_fn = cost_fn
        self.utility_fn = utility_fn
        self.state_cap = int(state_cap)
        self.r_u = service_actions[-1] + arrival_actions[-1]
        self._menu = {}     # the _sides of the action sets, once a solve builds them

    def with_multipliers(self, beta1, beta2):
        lp = LagrangianProblem(
            beta1, beta2, self.service_actions, self.arrival_actions,
            self.cost_fn, self.utility_fn, self.state_cap)
        lp._menu = self._menu
        return lp


def _rates(actions, name):
    # distinct, so that an unchanged policy is one with unchanged action indices
    rates = sorted(set(float(a) for a in actions))
    if not (rates and all(math.isfinite(a) and a >= 0 for a in rates)):
        raise ValueError("%s actions must be a non-empty set of finite, "
                         "non-negative rates" % name)
    return rates


def uniform_actions(r_max, n=201):
    """Uniform discretization of the continuous action set [0, r_max]."""
    if n < 2 or r_max <= 0:
        raise ValueError("need n >= 2 and r_max > 0")
    return [r_max * i / (n - 1) for i in range(n)]


def _poisson_matrix(lam, mu, r_u):
    """CSC matrix of the evaluation system: states 0..n-1, then the gain.

    Column j < n holds, in row order, -lam(j-1)/r_u if lam(j-1) > 0, the
    diagonal (lam(j) + mu(j))/r_u even when it is 0, -mu(j+1)/r_u if
    mu(j+1) > 0 and, in column 0 only, the row h(0) = 0; column n is 1 in
    rows 0..n-1.
    """
    from scipy.sparse import csc_matrix

    n = lam.shape[0]
    if lam[-1] > 0.0 or mu[0] > 0.0:
        raise ValueError("evaluation needs lambda(%d) = 0 and mu(0) = 0" % (n - 1))
    up = np.append(False, lam[:-1] > 0.0)      # column j holds row j-1
    down = np.append(mu[1:] > 0.0, False)      # column j holds row j+1
    counts = np.append(1 + up.astype(np.int32) + down, n)
    counts[0] += 1
    indptr = np.append(0, np.cumsum(counts)).astype(np.int32)
    diag = indptr[:n] + up
    rows = np.arange(n, dtype=np.int32)
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    for at, row, val in ((diag, rows, (lam + mu) / r_u),
                         (diag[up] - 1, rows[up] - 1, -lam[:-1][up[1:]] / r_u),
                         (diag[down] + 1, rows[down] + 1, -mu[1:][down[:-1]] / r_u),
                         (indptr[1] - 1, n, 1.0),
                         (slice(indptr[n], None), rows, 1.0)):
        indices[at] = row
        data[at] = val
    return csc_matrix((data, indices, indptr), shape=(n + 1, n + 1))


def _evaluate_policy(lam, mu, stage, r_u):
    from scipy.sparse.linalg import spsolve

    x = spsolve(_poisson_matrix(lam, mu, r_u), np.append(stage, 0.0))
    if not np.all(np.isfinite(x)):
        raise ValueError(
            "policy evaluation is singular: the chain under this policy "
            "has more than one recurrent class")
    return x[:-1], x[-1]


def _best(values):
    """Each row's pick, the first column holding its minimum, and that
    minimum."""
    pick = np.argmin(values, axis=1)
    return pick, values[np.arange(values.shape[0]), pick]


def _chord_bounds(x, c):
    """Per column j, the largest chord slope (c[j] - c[i]) / (x[j] - x[i])
    from a column i < j (-inf for j = 0) and the smallest to a column i > j
    (+inf for the last column), as rounded."""
    k = len(x)
    lmax, rmin = np.empty(k), np.empty(k)
    i = np.arange(k)[:, None]
    block = max(1, 2 ** 14 // k)      # columns per block, so memory stays O(k)
    for j0 in range(0, k, block):
        j = np.arange(j0, min(k, j0 + block))
        with np.errstate(invalid="ignore"):        # 0/0 where i = j
            s = (c[:, None] - c[j]) / (x[:, None] - x[j])
        lmax[j] = np.where(i < j, s, -np.inf).max(axis=0)
        rmin[j] = np.where(i > j, s, np.inf).min(axis=0)
    return lmax, rmin


class _Side:
    """The columns of one improvement rule, whatever the multiplier.

    Row slope d and multiplier beta price column j at d*w[j] + beta*c[j]:
    the service side has w = -rate ascending and c = c(rate), the arrival
    side w = rate descending and c = -u(rate), so x = -w ascends on both.
    A side of at least WINDOW_MIN_RATES rates also keeps what the windowed
    step needs (``_Rule.window``): the vertices and slopes of the lower hull
    of (x, c); per hull vertex t, the first column ``lo[t]`` of the
    ``width`` columns spanning vertices t-1..t+1; and, for the columns just
    outside that window, the chord slope bounds ``lm``/``rm`` (padded
    outward by 8u relative) and the spacings ``hl``/``hr`` to them, where
    ``left``/``right`` says such a column exists (the spacing is +inf where
    not).  A smaller side has ``lo`` None.  ``solve`` takes the window on a
    side whose window spans at most a quarter of its columns (``wide``); a
    collinear menu, whose hull is its two ends, keeps the full table.
    """

    def __init__(self, w, c):
        self.w, self.c = w, c
        k = len(w)
        self.wide, self.lo = False, None
        if k < WINDOW_MIN_RATES:
            return
        x = -w
        hull = np.array(lower_hull(x.tolist(), c.tolist()))
        self.slopes = np.diff(c[hull]) / np.diff(x[hull])
        t = np.arange(len(hull))
        first, last = hull[np.maximum(t - 1, 0)], hull[np.minimum(t + 1, len(hull) - 1)]
        self.width = int(np.max(last - first)) + 1
        self.wide = 4 * self.width <= k
        self.w_windows = sliding_window_view(w, self.width)
        self.lo = lo = np.minimum(first, k - self.width)
        hi = lo + self.width - 1
        lmax, rmin = _chord_bounds(x, c)
        self.left, self.right = left, right = lo > 0, hi < k - 1
        lm = np.where(left, lmax[lo], 0.0)
        rm = np.where(right, rmin[hi], 0.0)
        self.lm, self.rm = lm + 8 * _U * np.abs(lm), rm - 8 * _U * np.abs(rm)
        self.hl = np.where(left, x[lo] - x[lo - 1], np.inf)
        self.hr = np.where(right, x[np.minimum(hi + 1, k - 1)] - x[hi], np.inf)
        self.x_max, self.c_max = np.max(np.abs(x)), np.max(np.abs(c))


def _sides(lp):
    """The service and the arrival _Side of lp's action sets, built on first
    use and shared by every problem ``with_multipliers`` derives from lp."""
    if "sides" not in lp._menu:
        arrivals = lp.arrival_actions[::-1]
        c = np.array([rate_value(lp.cost_fn, a) for a in lp.service_actions])
        u = np.array([rate_value(lp.utility_fn, a) for a in arrivals])
        lp._menu["sides"] = (_Side(-np.array(lp.service_actions), c),
                             _Side(np.array(arrivals), -u))
    return lp._menu["sides"]


def _tables(lp):
    """(srv, srv_cost, arr, arr_cost): the rates and weighted stage costs of
    the service columns, ascending, and of the arrival columns, descending,
    each followed by a zero-rate, zero-cost column."""
    service, arrival = _sides(lp)
    return (np.append(lp.service_actions, 0.0), np.append(lp.beta1 * service.c, 0.0),
            np.append(arrival.w, 0.0), np.append(lp.beta2 * arrival.c, 0.0))


class _Rule:
    """One improvement rule of a solve: ``best(d)`` returns each row's pick
    and minimum of d*w + cost for the row slopes d, bit for bit those of
    ``_best`` on the full table.  With ``cap_off`` the last row prices those
    columns at +inf."""

    def __init__(self, side, beta, cost, rows, cap_off=None):
        self.side, self.cost, self.cap_off = side, cost, cap_off
        if not side.wide:
            self.values = np.empty((rows, len(cost)))
        if side.lo is not None:
            self.slopes = beta * side.slopes
            self.cost_windows = sliding_window_view(cost, side.width)
            # with no column outside, d - lm and rm - d are +inf
            self.lm = np.where(side.left, beta * side.lm, -np.inf)
            self.rm = np.where(side.right, beta * side.rm, np.inf)
            # twice the rounding bound E = 4u (|d| max|x| + 2 beta max|c|)
            self.e_d, self.e_0 = 8 * _U * side.x_max, 16 * _U * beta * side.c_max + 2 * _TINY

    def best(self, d):
        if not self.side.wide:
            values = self.values
            np.multiply.outer(d, self.side.w, out=values)
            np.add(values, self.cost, out=values)
            if self.cap_off is not None:
                values[-1, self.cap_off] = np.inf
            return _best(values)
        if self.cap_off is None:
            return self.window(d)[:2]
        pick, low, _ = self.window(d[:-1])
        cap = d[-1] * self.side.w + self.cost
        cap[self.cap_off] = np.inf
        at = np.argmin(cap)
        return np.append(pick, at), np.append(low, cap[at])

    def window(self, d):
        """(pick, low, full): each row's pick and minimum, found among the
        window's columns, and the rows evaluated in full instead.

        Row slope d selects hull vertex t = searchsorted(beta*slopes, d).
        Its window holds the columns from vertex t-1 to t+1, priced as the
        full table prices them, and the window's first minimizer is the
        pick when a certificate shows every column outside the window
        strictly worse than the window's minimum f_min.  For the columns
        left of the window's first column L, in exact arithmetic

            g_i - g_L = (x_L - x_i) (d - beta * slope(i, L))
                     >= (x_L - x_{L-1}) (d - beta * lm)      once d > beta * lm,

        and each float value is within E/2 of its exact value, so

            d > beta * lm  and  f_L - f_min + (x_L - x_{L-1}) (d - beta * lm) > 2E

        proves them worse; the right side mirrors it with rm.  A row that
        fails either side is evaluated in full.
        """
        side = self.side
        t = np.searchsorted(self.slopes, d)
        lo = side.lo[t]
        values = np.take(side.w_windows, lo, axis=0)     # row r: w[lo[r]:lo[r] + width]
        values *= d[:, None]
        values += np.take(self.cost_windows, lo, axis=0)
        at = np.argmin(values, axis=1)
        low = values[np.arange(len(d)), at]
        two_e = np.abs(d) * self.e_d + self.e_0
        left, right = d - self.lm[t], self.rm[t] - d
        ok = ((left > 0) & (values[:, 0] - low + side.hl[t] * left > two_e)
              & (right > 0) & (values[:, -1] - low + side.hr[t] * right > two_e))
        pick = lo + at
        full = np.flatnonzero(~ok)
        if full.size:
            pick[full], low[full] = _best(np.multiply.outer(d[full], side.w) + self.cost)
        return pick, low, full


def _start_indices(lp, start):
    """Service and arrival column indices of ``start``'s rates, per state."""
    if not isinstance(start, Policy) or start.horizon != lp.state_cap:
        raise ValueError("start must be a Policy on states 0..state_cap = %d"
                         % lp.state_cap)
    mu, lam = (np.repeat(rates[:-1], np.diff(starts))
               for starts, rates in (start.runs("mu"), start.runs("lam")))
    if mu[0] != 0.0 or lam[-1] != 0.0:
        raise ValueError("start must have mu(0) = 0 and lambda(%d) = 0" % lp.state_cap)
    at = []
    for actions, rates, name in ((lp.service_actions, mu[1:], "service"),
                                 (lp.arrival_actions, lam[:-1], "arrival")):
        i = np.searchsorted(actions, rates)
        if not np.array_equal(np.take(actions, i, mode="clip"), rates):
            raise ValueError("start uses %s rates outside the action set" % name)
        at.append(i)
    k, m = len(lp.service_actions), len(lp.arrival_actions)
    return np.append(k, at[0]), np.append(m - 1 - at[1], m)


def _checked_tol(tol):
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("tol must be finite and non-negative, got %r" % (tol,))


def solve(lp, tol=1e-9, start=None):
    """Policy iteration for the relaxed problem.  Returns a SolveResult.

    Starts from the largest rates, or from ``start``, a Policy on states
    0..state_cap whose rates are all in the action sets; if policy
    iteration from ``start`` raises, it runs again from the largest rates,
    and ``iterations`` counts the improvement steps of both runs while
    ``gain_history`` is the returned run's.  Stops when the improvement
    step leaves the policy unchanged or the span of the Bellman residual
    drops below tol (the improved policy is then evaluated once more);
    raises after MAX_ITERATIONS improvement steps in one run.  The
    returned Policy lives on states 0..state_cap with arrivals off at the
    cap, so its stationary window is finite and exact re-evaluation is
    cheap.

    Each improvement step picks, per state, the first minimizing column of
    each rule.  A rule with fewer than WINDOW_MIN_RATES rates, or whose hull
    window would span more than a quarter of them, fills its full table in
    place; any other searches each row's window around the lower-hull
    vertex its slope selects, proves with a rounding-aware certificate
    that no column outside wins, and evaluates in full the rows where that
    proof fails (see ``_Rule.window``).  Either way the picks and minima
    are bit for bit the full table's.
    """
    _checked_tol(tol)
    n = lp.state_cap + 1      # states 0..state_cap
    k, m = len(lp.service_actions), len(lp.arrival_actions)
    srv, srv_cost, arr, arr_cost = _tables(lp)
    service, arrival = _sides(lp)
    # with arrivals already off at the cap, zero service there would absorb
    # the chain at its most expensive state -- a truncation artifact the
    # unbounded problem has no counterpart for; the cap row therefore
    # prices every zero service rate at +inf
    cap_off = srv[:k] <= 0.0
    if np.all(cap_off):
        raise ValueError("service actions must include a positive rate")

    try:
        warm = _start_indices(lp, start) if start is not None else None
        # serve and admit at the largest rates
        cold = np.append(k, np.full(n - 1, k - 1)), np.append(np.zeros(n - 1, dtype=int), m)
        srv_rule = _Rule(service, lp.beta1, srv_cost[:k], n - 1, cap_off)
        arr_rule = _Rule(arrival, lp.beta2, arr_cost[:m], n - 1)
    except MemoryError:
        raise ValueError("state_cap %d is too large: its arrays do not fit in memory"
                         % lp.state_cap) from None

    states = np.arange(n)
    steps = 0     # improvement steps of every run, an abandoned warm one included

    def iterate(mu_at, lam_at):
        nonlocal steps
        gain_history = []
        iterations = 0
        span = math.inf
        while True:
            if iterations == MAX_ITERATIONS and not span < tol:
                raise ValueError(
                    "policy iteration did not converge in %d iterations" % MAX_ITERATIONS)
            stage = (states + srv_cost[mu_at] + arr_cost[lam_at]) / lp.r_u
            h, g = _evaluate_policy(arr[lam_at], srv[mu_at], stage, lp.r_u)
            gain_history.append(g)
            if span < tol:
                return mu_at, lam_at, g, gain_history
            iterations += 1
            steps += 1
            d = np.diff(h)        # d[q] = h(q+1) - h(q), q = 0..n-2
            # service at q = 1..n-1 minimizes beta1 c(a) - a d(q-1), arrival
            # at q = 0..n-2 minimizes -beta2 u(a) + a d(q)
            srv_pick, srv_min = srv_rule.best(d)
            arr_pick, arr_min = arr_rule.best(d)
            residual = (states + np.append(0.0, srv_min) + np.append(arr_min, 0.0)) / lp.r_u - g
            span = float(np.max(residual) - np.min(residual))
            srv_pick, arr_pick = np.append(k, srv_pick), np.append(arr_pick, m)
            if np.array_equal(srv_pick, mu_at) and np.array_equal(arr_pick, lam_at):
                return mu_at, lam_at, g, gain_history
            mu_at, lam_at = srv_pick, arr_pick

    found = None
    if warm is not None:
        try:
            found = iterate(*warm)
        except ValueError:
            # a start can lead policy iteration into a multi-class policy,
            # or a cycle, that the largest rates avoid
            pass
    mu_at, lam_at, g, gain_history = found or iterate(*cold)
    mu, lam = srv[mu_at], arr[lam_at]

    # the states where an action changes start the policy's runs
    lam_run, mu_run = (np.flatnonzero(np.diff(x, prepend=-1)) for x in (lam_at, mu_at))
    policy = Policy(
        zip(lam_run.tolist(), lam[lam_run].tolist()),
        zip(mu_run.tolist(), mu[mu_run].tolist()), 0.0, float(mu[-1]), lp.state_cap,
        ra_max=lp.arrival_actions[-1], r_max=lp.service_actions[-1],
        meta={"source": "policy-iteration", "beta1": lp.beta1,
              "beta2": lp.beta2, "state_cap": lp.state_cap})
    return SolveResult(
        policy=policy, gain=float(g), iterations=steps,
        monotone=is_admissible(policy), gain_history=gain_history)


def _mark_dominated(points):
    out = []
    for i, p in enumerate(points):
        dom = False
        for j, o in enumerate(points):
            if j == i:
                continue
            if (o.c_c <= p.c_c and o.u_c >= p.u_c and o.q_star <= p.q_star
                    and (o.c_c < p.c_c or o.u_c > p.u_c or o.q_star < p.q_star)):
                dom = True
                break
        out.append(p._replace(dominated=dom))
    return out


def trace_tradeoff(base, beta1_grid, beta2_grid, tol=1e-9):
    """Sweep the multiplier grid (Cartesian product) and collect the curve.

    Along each beta1 row, policy iteration at a beta2 point starts from the
    previous point's policy; the first point of a row, and a point after a
    failed one, start cold.  With a single beta2 the rows form one chain
    along beta1: each point starts from the previous beta1 point's policy,
    and only the first point and a point after a failed one start cold.
    Each policy is re-evaluated exactly through the stationary
    distribution (the DP's internal gain is not trusted for reporting).
    Returns (points, failures): points sorted by achieved cost with
    dominated ones flagged, failures as (beta1, beta2, error) records for
    grid points whose solve raised.
    """
    _checked_tol(tol)
    b1 = [float(b) for b in beta1_grid]
    b2 = [float(b) for b in beta2_grid]
    if not b1 or not b2:
        raise ValueError("multiplier grids must be non-empty")
    if any(b < 0 for b in b1 + b2):
        raise ValueError("multipliers must be non-negative")

    points = []
    failures = []
    start = None
    for beta1 in b1:
        if len(b2) > 1:
            start = None
        for beta2 in b2:
            try:
                res = solve(base.with_multipliers(beta1, beta2), tol, start=start)
                m = exact_metrics(res.policy, base.cost_fn, base.utility_fn)
            except ValueError as exc:
                failures.append(TraceFailure(beta1, beta2, str(exc)))
                start = None
                continue
            start = res.policy
            points.append(TradeoffPoint(
                beta1=beta1, beta2=beta2, c_c=m.cbar, u_c=m.ubar,
                q_star=m.qbar, policy=res.policy, dominated=False))
    points.sort(key=lambda p: p.c_c)
    return _mark_dominated(points), failures
