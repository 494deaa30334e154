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
smallest service rate, the largest arrival rate.  ``solve`` fills one
service and one arrival table in place on every improvement step rather
than allocating them anew.  It may start from a given policy, and runs
again from the largest rates if that start ends in an error.
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

from .birth_death import Policy, exact_metrics, is_admissible, rate_value

MAX_ITERATIONS = 500

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

    def with_multipliers(self, beta1, beta2):
        return LagrangianProblem(
            beta1, beta2, self.service_actions, self.arrival_actions,
            self.cost_fn, self.utility_fn, self.state_cap)


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


def _tables(lp):
    """(srv, srv_cost, arr, arr_cost): the rates and weighted stage costs of
    the service columns, ascending, and of the arrival columns, descending,
    each followed by a zero-rate, zero-cost column."""
    arrivals = lp.arrival_actions[::-1]
    return (np.append(lp.service_actions, 0.0),
            np.append([lp.beta1 * rate_value(lp.cost_fn, a)
                       for a in lp.service_actions], 0.0),
            np.append(arrivals, 0.0),
            np.append([-lp.beta2 * rate_value(lp.utility_fn, a) for a in arrivals], 0.0))


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
    """
    _checked_tol(tol)
    n = lp.state_cap + 1      # states 0..state_cap
    k, m = len(lp.service_actions), len(lp.arrival_actions)
    srv, srv_cost, arr, arr_cost = _tables(lp)
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
        srv_vals, arr_vals = np.empty((n - 1, k)), np.empty((n - 1, m))
    except MemoryError:
        raise ValueError("state_cap %d is too large: its arrays do not fit in memory"
                         % lp.state_cap) from None

    states = np.arange(n)
    neg_srv = -srv[:k]
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
            np.multiply.outer(d, neg_srv, out=srv_vals)
            np.add(srv_vals, srv_cost[:k], out=srv_vals)
            srv_vals[-1, cap_off] = np.inf
            np.multiply.outer(d, arr[:m], out=arr_vals)
            np.add(arr_vals, arr_cost[:m], out=arr_vals)
            srv_pick, srv_min = _best(srv_vals)
            arr_pick, arr_min = _best(arr_vals)
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
