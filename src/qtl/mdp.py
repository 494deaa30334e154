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

by sparse LU (``_factorize``); ``scipy.sparse`` is imported only then, so
importing this module (and ``qtl`` or ``qtl.cli``) does not load it.

Policy iteration keeps one array of action indices per rule.  Each action
set is a ``_Side``, built with the problem: its columns, service rates
ascending and arrival rates descending, end in a zero-rate, zero-cost
column for state 0's service and the cap's arrival.  Every pick of the
improvement step is made by ``_best``, which takes each row's first exact
minimizer, so every tie goes to the smallest service rate and the largest
arrival rate.
"""

import copy
import math
from collections import namedtuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .birth_death import Policy, exact_metrics, is_admissible, rate_value

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
    ascending order without duplicates, and priced here once: a rate that
    cost_fn or utility_fn cannot evaluate is a ValueError.  r_u is max
    arrival + max service, the smallest valid uniformization rate.
    utility_fn may be None when beta2 == 0.
    """

    def __init__(self, beta1, beta2, service_actions, arrival_actions,
                 cost_fn, utility_fn=None, state_cap=500):
        _check_multipliers(beta1, beta2, utility_fn)
        service_actions = _rates(service_actions, "service")
        arrival_actions = _rates(arrival_actions, "arrival")
        if state_cap < 10:
            raise ValueError("state_cap must be at least 10")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.service_actions = service_actions
        self.arrival_actions = arrival_actions
        self.cost_fn = cost_fn
        self.utility_fn = utility_fn
        self.state_cap = int(state_cap)
        self.r_u = service_actions[-1] + arrival_actions[-1]
        self._service = _Side(service_actions, cost_fn, -1.0)
        self._arrival = _Side(arrival_actions[::-1], utility_fn, 1.0)

    def with_multipliers(self, beta1, beta2):
        """This problem at other multipliers, sharing its checked action
        sets and their priced ``_Side``s."""
        _check_multipliers(beta1, beta2, self.utility_fn)
        lp = copy.copy(self)
        lp.beta1, lp.beta2 = float(beta1), float(beta2)
        return lp


def _check_multipliers(beta1, beta2, utility_fn):
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        if not (math.isfinite(beta) and beta >= 0):
            raise ValueError("multiplier %s must be finite and non-negative, "
                             "got %r" % (name, beta))
    if beta2 > 0 and utility_fn is None:
        raise ValueError("beta2 > 0 needs a utility function")


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


_SINGULAR = ("policy evaluation is singular: the Poisson system of this "
             "single-class chain is numerically singular")
_factor = None      # (key, SuperLU factor) of the last Poisson matrix factored


def _factorize(lam, mu, r_u):
    """SuperLU factor of the Poisson matrix of (lam, mu, r_u).

    The last factor is kept, keyed by the matrix contents, like an
    ``lru_cache(maxsize=1)``: a warm-started solve first evaluates the
    policy the previous solve ended on, and only its right-hand side
    differs.  The slot is emptied before the next factorization, so one
    factor at most is alive.  A policy already factored was already checked.
    """
    global _factor
    key = (lam.tobytes(), mu.tobytes(), r_u)
    if _factor is not None and _factor[0] == key:
        return _factor[1]
    _factor = None
    from scipy.sparse.linalg import splu

    a = _poisson_matrix(lam, mu, r_u)
    # the rule of birth_death.recurrent_window: one recurrent class needs
    # the first zero-arrival state at or above the last zero-service state
    # (rates are non-negative and lam(n-1) = mu(0) = 0, so argmin finds them)
    q_ru = int(lam.argmin())
    q_rl = len(mu) - 1 - int(mu[::-1].argmin())
    if q_ru < q_rl:
        raise ValueError(
            "policy evaluation is singular: the first zero-arrival state q=%d "
            "lies below the last zero-service state q=%d, so the chain under "
            "this policy has more than one recurrent class" % (q_ru, q_rl))
    try:
        lu = splu(a)
    except RuntimeError:
        # SuperLU's "Factor is exactly singular"
        raise ValueError(_SINGULAR) from None
    _factor = key, lu
    return lu


def _evaluate_policy(lam, mu, stage, r_u):
    x = _factorize(lam, mu, r_u).solve(np.append(stage, 0.0))
    if not np.all(np.isfinite(x)):
        raise ValueError(_SINGULAR)
    return x[:-1], x[-1]


def _best(values):
    """Each row's pick, the first column holding its minimum, and that
    minimum.  Every pick of the improvement step is made here, so this is
    where a tie is broken."""
    pick = np.argmin(values, axis=1)
    return pick, values[np.arange(values.shape[0]), pick]


def _convex(x, c):
    """Whether the points (x[j], c[j]), x strictly ascending, are convex in
    exact arithmetic: no point lies above the chord of its two neighbours
    (collinear points are convex)."""
    from fractions import Fraction      # only a wide action set needs it

    if not np.all(np.isfinite(c)):
        return False
    x, c = [Fraction(v) for v in x.tolist()], [Fraction(v) for v in c.tolist()]
    return all((c[j] - c[j - 1]) * (x[j + 1] - x[j]) <= (c[j + 1] - c[j]) * (x[j] - x[j - 1])
               for j in range(1, len(x) - 1))


class _Side:
    """The columns of one improvement rule, whatever the multiplier.

    ``rates`` holds the column rates in the given order followed by the
    zero-rate column.  Row slope d and multiplier beta price column j at
    d*w[j] + beta*c[j], with w = sign*rate and c = -sign*fn(rate): sign -1
    makes the service side (rates ascending, c = c(rate)), sign +1 the
    arrival side (rates descending, c = -u(rate)), so x = -w ascends on
    both.  A side is ``wide`` when it has at least WINDOW_MIN_RATES rates
    and its points (x, c) are convex in exact arithmetic, as a convex cost
    and a concave utility make them; it then keeps what the windowed step
    needs (``_Rule.window``): the slopes between consecutive columns, the
    three-column windows of w and the largest |x| and |c|.  Any other side
    fills the full table.
    """

    def __init__(self, rates, fn, sign):
        rates = np.array(rates)
        self.rates = np.append(rates, 0.0)
        self.w = sign * rates
        self.c = -sign * np.array([rate_value(fn, a) for a in rates.tolist()])
        x = -self.w
        self.wide = len(rates) >= WINDOW_MIN_RATES and _convex(x, self.c)
        if self.wide:
            self.slopes = np.diff(self.c) / np.diff(x)
            self.w_windows = sliding_window_view(self.w, 3)
            self.x_max, self.c_max = np.max(np.abs(x)), np.max(np.abs(self.c))


class _Rule:
    """One improvement rule of a solve: ``best(d)`` returns each row's pick
    and minimum of d*w + cost for the row slopes d, bit for bit those of
    ``_best`` on the full table.  ``cost`` holds the weighted column costs,
    the zero-rate column's 0 last."""

    def __init__(self, side, beta, rows):
        self.side = side
        self.cost = np.append(beta * side.c, 0.0)
        if side.wide:
            self.slopes = beta * side.slopes
            self.cost_windows = sliding_window_view(self.cost[:-1], 3)
            # twice the rounding bound E = 4u (|d| max|x| + 2 beta max|c|)
            self.e_d, self.e_0 = 8 * _U * side.x_max, 16 * _U * beta * side.c_max + 2 * _TINY
        else:
            self.values = np.empty((rows, len(side.w)))

    def best(self, d):
        if self.side.wide:
            return self.window(d)[:2]
        values = self.values
        np.multiply.outer(d, self.side.w, out=values)
        np.add(values, self.cost[:-1], out=values)
        return _best(values)

    def full(self, d, first=0):
        """Each row's pick among the rate columns first.. and its minimum,
        from a table of those columns."""
        pick, low = _best(np.multiply.outer(d, self.side.w[first:]) + self.cost[first:-1])
        return pick + first, low

    def window(self, d):
        """(pick, low, full): each row's pick and minimum, found among three
        columns, and the rows evaluated in full instead.

        Row slope d selects column t = searchsorted(beta*slopes, d), where
        the row stops falling; the window holds columns t-1..t+1, shifted
        to fit, priced as the full table prices them.  Each float value
        f_j lies within E/2 of its exact value g_j = beta c_j - d x_j, with
        E = 4u (|d| max|x| + 2 beta max|c|) plus the smallest normal double
        against underflow (up to terms of order u^2, which the factor 2
        below covers along with the test's own rounding).  An edge with
        f_edge - f_min > 2E therefore has g_edge above the window
        minimizer's g by more than E; g is convex in x, as the side's
        points are and beta >= 0, so every column beyond that edge has g
        above g_edge and f above f_min.  When each edge with columns beyond it passes, the
        window's first minimizer is the table's; a row that fails is
        evaluated in full.
        """
        k = len(self.side.w)
        lo = np.clip(np.searchsorted(self.slopes, d) - 1, 0, k - 3)
        values = np.take(self.side.w_windows, lo, axis=0)     # row r: w[lo[r]:lo[r] + 3]
        values *= d[:, None]
        values += np.take(self.cost_windows, lo, axis=0)
        at, low = _best(values)
        two_e = np.abs(d) * self.e_d + self.e_0
        ok = (((lo == 0) | (values[:, 0] - low > two_e))
              & ((lo == k - 3) | (values[:, 2] - low > two_e)))
        pick = lo + at
        full = np.flatnonzero(~ok)
        if full.size:
            pick[full], low[full] = self.full(d[full])
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
    each rule, always through ``_best``.  A rule on a windowed side
    (``_Side``) evaluates each row's three columns around the one its slope
    selects, keeps their first minimizer when the window edges prove every
    column beyond them worse, and evaluates in full the rows where that
    proof fails (see ``_Rule.window``); any other rule fills its full table
    in place.  Either way the picks and minima are bit for bit the full
    table's.  The cap state, whose arrivals are off, picks among the
    positive service rates only.

    Each evaluation solves the Poisson system with SuperLU, reusing the
    factor of the previous evaluation when the policy and r_u are the same
    (the first evaluation of a solve started from the policy the previous
    solve returned); a multi-class policy, or a numerically singular
    system, is a ValueError, not a warning.
    """
    _checked_tol(tol)
    n = lp.state_cap + 1      # states 0..state_cap
    k, m = len(lp.service_actions), len(lp.arrival_actions)
    srv, arr = lp._service.rates, lp._arrival.rates
    if lp.service_actions[-1] <= 0.0:
        raise ValueError("service actions must include a positive rate")

    try:
        warm = _start_indices(lp, start) if start is not None else None
        # serve and admit at the largest rates
        cold = np.append(k, np.full(n - 1, k - 1)), np.append(np.zeros(n - 1, dtype=int), m)
        srv_rule = _Rule(lp._service, lp.beta1, n - 1)
        arr_rule = _Rule(lp._arrival, lp.beta2, n - 1)
    except MemoryError:
        raise ValueError("state_cap %d is too large: its arrays do not fit in memory"
                         % lp.state_cap) from None

    states = np.arange(n)
    steps = 0     # improvement steps of every run, an abandoned warm one included

    def iterate(mu_at, lam_at):
        nonlocal steps
        residual = np.empty(n)      # filled in place by each improvement step
        gain_history = []
        iterations = 0
        span = math.inf
        while True:
            if iterations == MAX_ITERATIONS and not span < tol:
                raise ValueError(
                    "policy iteration did not converge in %d iterations" % MAX_ITERATIONS)
            stage = (states + srv_rule.cost[mu_at] + arr_rule.cost[lam_at]) / lp.r_u
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
            if srv_pick[-1] == 0 and srv[0] == 0.0:
                # with arrivals already off at the cap, zero service there
                # would absorb the chain at its most expensive state -- a
                # truncation artifact the unbounded problem has no
                # counterpart for; the cap picks again among columns
                # 1..k-1, the positive rates (rates are distinct)
                srv_pick[-1:], srv_min[-1:] = srv_rule.full(d[-1:], 1)
            residual[:] = states
            residual[1:] += srv_min
            residual[:-1] += arr_min
            residual /= lp.r_u
            residual -= g
            span = float(np.max(residual) - np.min(residual))
            if np.array_equal(srv_pick, mu_at[1:]) and np.array_equal(arr_pick, lam_at[:-1]):
                return mu_at, lam_at, g, gain_history
            mu_at[1:], lam_at[:-1] = srv_pick, arr_pick

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
    A grid with several beta2 is not chained along beta1: on the admission
    benchmark grid such a chain ends at another policy among exact ties
    that rounding decides.
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
