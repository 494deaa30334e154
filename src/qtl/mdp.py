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

by sparse LU (``_evaluate_policy``, which also says what it keeps between
calls, in a slot its caller owns); ``scipy.sparse`` is imported only then,
so importing this module (and ``qtl`` or ``qtl.cli``) does not load it.
The slot keeps the last zero pattern's matrix, to refill in place, and
whether SuperLU's column order for that pattern is the identity: COLAMD
reads the structure only, so a refill of such a pattern skips it
(``permc_spec="NATURAL"``) and gets the same factor bit for bit.
The module holds no mutable state: each ``solve`` evaluates in its own
slot and each ``trace_tradeoff`` in one slot for all its solves, so both
may run in threads.

Policy iteration keeps one array of action indices per rule.  Each action
set is a ``_Side``, built with the problem and priced at a multiplier
when a solve applies it: its columns, service rates ascending and arrival
rates descending, end in a zero-rate, zero-cost column for state 0's
service and the cap's arrival.  Every pick of the improvement step is
made by ``_best``, which takes each row's first exact minimizer, so every
tie goes to the smallest service rate and the largest arrival rate.
"""

import copy
import math
from collections import namedtuple

import numpy as np

from .birth_death import Policy, _below_max_double, exact_metrics, is_admissible, rate_value
from .rate_functions import _check_roles, _count, _finite, _instance, _is_number, _list

MAX_ITERATIONS = 500
TOL = 1e-9                # stop once the Bellman residual's span falls below this
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
    cost_fn or utility_fn cannot evaluate is a ValueError, and so is a
    service set without a positive rate.  r_u is max
    arrival + max service, the smallest valid uniformization rate.
    cost_fn must be a cost RateFunction and utility_fn a utility one, or
    None when beta2 == 0.
    """

    def __init__(self, beta1, beta2, service_actions, arrival_actions,
                 cost_fn, utility_fn=None, state_cap=500):
        _check_roles(cost_fn, utility_fn)
        self.beta1, self.beta2 = _multipliers(beta1, beta2, utility_fn)
        service_actions = _rates(service_actions, "service")
        arrival_actions = _rates(arrival_actions, "arrival")
        self.state_cap = _count(state_cap, "state_cap")
        if self.state_cap < 10:
            raise ValueError("state_cap must be at least 10")
        self.service_actions = service_actions
        self.arrival_actions = arrival_actions
        self.cost_fn = cost_fn
        self.utility_fn = utility_fn
        self.r_u = service_actions[-1] + arrival_actions[-1]
        self._service = _Side(service_actions, cost_fn, -1.0)
        self._arrival = _Side(arrival_actions[::-1], utility_fn, 1.0)
        if service_actions[-1] <= 0.0:
            raise ValueError("service actions must include a positive rate")

    def with_multipliers(self, beta1, beta2):
        """This problem at other multipliers, sharing its checked action
        sets and their priced ``_Side``s."""
        lp = copy.copy(self)
        lp.beta1, lp.beta2 = _multipliers(beta1, beta2, self.utility_fn)
        return lp


def _multipliers(beta1, beta2, utility_fn):
    # (beta1, beta2) as floats, each a finite, non-negative number
    for name, beta in (("beta1", beta1), ("beta2", beta2)):
        if not (_is_number(beta) and 0 <= beta < math.inf):
            raise ValueError("multiplier %s must be finite and non-negative, "
                             "got %r" % (name, beta))
    _check_utility([beta2], utility_fn)
    return _finite(beta1, "beta1"), _finite(beta2, "beta2")


def _check_utility(beta2s, utility_fn):
    if utility_fn is None and any(b > 0 for b in beta2s):
        raise ValueError("beta2 > 0 needs a utility function")


def _rates(actions, name):
    # distinct, so that an unchanged policy is one with unchanged action indices
    rates = sorted({_finite(a, "a rate among the %s actions" % name)
                    for a in _list(actions, "%s actions must be a list of rates" % name)})
    if not (rates and rates[0] >= 0):
        raise ValueError("%s actions must be a non-empty set of finite, "
                         "non-negative rates" % name)
    return rates


def uniform_actions(r_max, n=201):
    """Uniform discretization of the continuous action set [0, r_max]; n
    must lie below the largest double."""
    n = _below_max_double(_count(n, "n"), "n")
    # r_max * i overflows for an r_max near the largest double
    if not (n >= 2 and _is_number(r_max) and 0 < r_max * (n - 1) < math.inf):
        raise ValueError("need n >= 2 and an r_max > 0 with a finite r_max * (n - 1), "
                         "got n=%d, r_max=%r" % (n, r_max))
    rates = [r_max * i / (n - 1) for i in range(n)]
    # and r_max / (n - 1) underflows for an r_max near the smallest double
    if any(a >= b for a, b in zip(rates, rates[1:])):
        raise ValueError("the spacing r_max / (n - 1) underflows: the n=%d rates up to "
                         "r_max=%r are not strictly increasing" % (n, r_max))
    return rates


def _pattern(lam, mu):
    """The zero pattern of the chain's Poisson matrix: which of lam(0..n-2)
    and which of mu(1..n-1) are positive.  Two chains with one pattern give
    matrices that differ in their values only.

    This is where a chain that policy evaluation cannot solve is refused
    before SuperLU sees it: one with lam(n-1) > 0 or mu(0) > 0, and one
    with more than one recurrent class."""
    if lam[-1] > 0.0 or mu[0] > 0.0:
        raise ValueError("evaluation needs lambda(%d) = 0 and mu(0) = 0" % (lam.shape[0] - 1))
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
    return lam[:-1] > 0.0, mu[1:] > 0.0


def _build(pattern, lam, mu, r_u):
    """(matrix, at): a new CSC matrix of the chain's evaluation system,
    whose zero pattern is ``pattern``, and the positions in its ``data`` of
    the diagonal, super- and sub-diagonal entries, which ``_fill`` writes.

    Rows and columns are the states 0..n-1, then the gain.  Column j < n
    holds, in row order, -lam(j-1)/r_u if lam(j-1) > 0, the diagonal
    (lam(j) + mu(j))/r_u even when it is 0, -mu(j+1)/r_u if mu(j+1) > 0
    and, in column 0 only, the row h(0) = 0; column n is 1 in rows 0..n-1.
    """
    from scipy.sparse import csc_matrix

    n = lam.shape[0]
    up = np.append(False, pattern[0])       # column j holds row j-1
    down = np.append(pattern[1], False)     # column j holds row j+1
    counts = np.append(1 + up.astype(np.int32) + down, n)
    counts[0] += 1
    indptr = np.append(0, np.cumsum(counts)).astype(np.int32)
    diag = indptr[:n] + up
    at = diag, diag[up] - 1, diag[down] + 1
    rows = np.arange(n, dtype=np.int32)
    indices = np.empty(indptr[-1], dtype=np.int32)
    for pos, row in zip(at + (indptr[1] - 1, slice(indptr[n], None)),
                        (rows, rows[up] - 1, rows[down] + 1, n, rows)):
        indices[pos] = row
    data = np.ones(indptr[-1])
    _fill(data, at, pattern, lam, mu, r_u)
    return csc_matrix((data, indices, indptr), shape=(n + 1, n + 1)), at


def _fill(data, at, pattern, lam, mu, r_u):
    # the values of a chain of this zero pattern, at their positions ``at``
    data[at[0]] = (lam + mu) / r_u
    data[at[1]] = -lam[:-1][pattern[0]] / r_u
    data[at[2]] = -mu[1:][pattern[1]] / r_u


_SINGULAR = ("policy evaluation is singular: the Poisson system of this "
             "single-class chain is numerically singular")
_EMPTY = (None,) * 6


def _evaluate_policy(lam, mu, stage, r_u, slot):
    """Relative values h (h(0) = 0) and gain g of the chain (lam, mu) at
    stage costs ``stage``, by SuperLU.

    ``slot`` is the caller's one-element list; its tuple, ``_EMPTY`` at
    first, keeps what the last factorization through it used: its key
    (the bytes of lam and mu, and r_u), its SuperLU factor, the zero
    pattern, matrix and value positions ``at`` from ``_build``, and
    ``natural``: None until a factorization of that matrix succeeds, then
    whether its factor's column order ``perm_c`` is the identity.  The same
    chain again is solved with the kept factor, like an
    ``lru_cache(maxsize=1)``: a warm-started solve of a trace first
    evaluates the policy the previous solve ended on, and only its
    right-hand side differs.  A chain already factored was already checked.

    Any other chain first drops the kept factor, so one factor at most is
    alive per slot, and is then checked by ``_pattern``.  If it keeps the
    slot's zero pattern, as policy iteration's next policy mostly does, its
    values are written into the slot's matrix in place (``_fill``); else
    the slot is emptied and ``_build`` makes a new matrix.  SuperLU sees
    the same bytes either way, and neither keeps nor changes them.  A
    refused chain leaves the slot's matrix and no factor, a singular one
    its own matrix and no factor.  Each step rebinds ``slot[0]`` to a new
    tuple.

    A matrix is factored with the COLAMD column order, as ``splu`` does
    by default, unless ``natural`` is True; then it is factored in the
    natural order.  That gives the same factor: COLAMD, and SuperLU's
    post-order of its elimination tree, read only the zero structure,
    which ``_build`` stores in full (zero diagonals included), so a
    pattern that once ordered as the identity always does, and the same
    columns are eliminated in the same order against the same pivot rows.
    (NATURAL also sets SuperLU's SymmetricMode, which changes how the
    elimination tree is post-ordered; ``tests/test_mdp.py`` pins that the
    factors stay equal.)  From state_cap 100 up, with every rate positive,
    COLAMD treats the gain column as dense and orders it last, and the
    order is the identity; smaller chains, and chains whose arrivals stop
    below the cap, keep COLAMD.
    """
    key = (lam.tobytes(), mu.tobytes(), r_u)
    if slot[0][0] != key:
        from scipy.sparse.linalg import splu

        slot[0] = (None, None) + slot[0][2:]       # the old factor goes first
        pattern = _pattern(lam, mu)
        if slot[0][2] is not None and all(map(np.array_equal, pattern, slot[0][2])):
            _fill(slot[0][3].data, slot[0][4], pattern, lam, mu, r_u)
        else:
            slot[0] = _EMPTY      # and the old matrix before the new one is built
            slot[0] = (None, None, pattern) + _build(pattern, lam, mu, r_u) + (None,)
        natural = slot[0][5]
        try:
            lu = splu(slot[0][3], permc_spec="NATURAL" if natural else "COLAMD")
        except RuntimeError:
            # SuperLU's "Factor is exactly singular"
            raise ValueError(_SINGULAR) from None
        natural = np.array_equal(lu.perm_c, np.arange(len(lu.perm_c)))
        slot[0] = (key, lu) + slot[0][2:5] + (natural,)
    x = slot[0][1].solve(np.append(stage, 0.0))
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
    (collinear points are convex).  Each double, times 2^1074, is an exact
    integer, and one common scale leaves every comparison as it is."""
    if not np.all(np.isfinite(c)):
        return False
    # n/d with d a power of two up to 2^1074, so n * 2^1074 / d is n shifted
    x, c = ([n << (1075 - d.bit_length())
             for n, d in map(float.as_integer_ratio, v.tolist())] for v in (x, c))
    return all((c[j] - c[j - 1]) * (x[j + 1] - x[j]) <= (c[j + 1] - c[j]) * (x[j] - x[j - 1])
               for j in range(1, len(x) - 1))


class _Side:
    """The columns of one improvement rule, priced at the multiplier that
    each pick passes.

    ``rates`` holds the column rates in the given order followed by the
    zero-rate column.  Row slope d and multiplier beta price column j at
    d*w[j] + beta*c[j], with w = sign*rate and c = -sign*fn(rate): sign -1
    makes the service side (rates ascending, c = c(rate)), sign +1 the
    arrival side (rates descending, c = -u(rate)), so x = -w ascends on
    both.  The zero-rate column's price is 0.  A side is ``wide`` when it
    has at least WINDOW_MIN_RATES rates and its points (x, c) are convex in
    exact arithmetic, as a convex cost and a concave utility make them; it
    then keeps what ``window`` needs: the slopes between consecutive
    columns and the largest |x| and |c|.  Any other side fills the full
    table.
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
            self.x_max, self.c_max = np.max(np.abs(x)), np.max(np.abs(self.c))

    def best(self, d, beta):
        """Each row's pick and minimum of d*w + beta*c for the row slopes d,
        bit for bit those of ``_best`` on the full table."""
        return self.window(d, beta)[:2] if self.wide else self.full(d, beta)

    def full(self, d, beta, first=0):
        """Each row's pick among the rate columns first.. and its minimum,
        from a table of those columns."""
        pick, low = _best(np.multiply.outer(d, self.w[first:]) + beta * self.c[first:])
        return pick + first, low

    def window(self, d, beta):
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
        k = len(self.w)
        lo = np.clip(np.searchsorted(beta * self.slopes, d) - 1, 0, k - 3)
        cols = lo[:, None] + np.arange(3)       # row r: lo[r] .. lo[r] + 2
        values = self.w[cols]
        values *= d[:, None]
        values += (beta * self.c)[cols]
        at, low = _best(values)
        two_e = np.abs(d) * (8 * _U * self.x_max) + (16 * _U * beta * self.c_max + 2 * _TINY)
        ok = (((lo == 0) | (values[:, 0] - low > two_e))
              & ((lo == k - 3) | (values[:, 2] - low > two_e)))
        pick = lo + at
        full = np.flatnonzero(~ok)
        if full.size:
            pick[full], low[full] = self.full(d[full], beta)
        return pick, low, full


def _start_indices(lp, start):
    """Service and arrival column indices of ``start``'s rates, per state."""
    if _instance(start, Policy, "start").horizon != lp.state_cap:
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


def solve(lp, *, start=None, _slot=None):
    """Policy iteration for the relaxed problem.  Returns a SolveResult.

    Starts from the largest rates, or from the keyword-only ``start``, a
    Policy on states 0..state_cap whose rates are all in the action sets;
    if policy iteration from ``start`` raises, it runs again from the
    largest rates, and ``iterations`` counts the improvement steps of both
    runs while ``gain_history`` is the returned run's.  Stops when the improvement
    step leaves the policy unchanged or the span of the Bellman residual
    drops below TOL (the improved policy is then evaluated once more);
    raises after MAX_ITERATIONS improvement steps in one run.  The
    returned Policy lives on states 0..state_cap with arrivals off at the
    cap, so its stationary window is finite and exact re-evaluation is
    cheap.

    Each improvement step picks, per state, the first minimizing column of
    each side, always through ``_best``, with the side's columns priced at
    its multiplier.  A windowed side (``_Side``) evaluates each row's three
    columns around the one its slope selects, keeps their first minimizer
    when the window edges prove every column beyond them worse, and
    evaluates in full the rows where that proof fails (see
    ``_Side.window``); any other side evaluates every row in full
    (``_Side.full``).  Either way the picks and minima are bit for
    bit the full table's.  The cap state, whose arrivals are off, picks
    among the positive service rates only.

    Each evaluation solves the Poisson system with SuperLU, reusing what
    the previous evaluation kept (see ``_evaluate_policy``) in the private
    ``_slot``: a fresh one unless ``trace_tradeoff`` passes its own, and
    shared by a warm run and its cold fallback.  A multi-class policy, or
    a numerically singular system, is a ValueError, not a warning.
    """
    n = _instance(lp, LagrangianProblem, "solve").state_cap + 1  # states 0..state_cap
    k, m = len(lp.service_actions), len(lp.arrival_actions)
    service, arrival = lp._service, lp._arrival
    srv, arr = service.rates, arrival.rates

    try:
        warm = _start_indices(lp, start) if start is not None else None
        # serve and admit at the largest rates
        cold = np.append(k, np.full(n - 1, k - 1)), np.append(np.zeros(n - 1, dtype=int), m)
    except MemoryError:
        raise ValueError("state_cap %d is too large: its arrays do not fit in memory"
                         % lp.state_cap) from None
    # the weighted column costs, the zero-rate column's 0 last
    srv_cost = np.append(lp.beta1 * service.c, 0.0)
    arr_cost = np.append(lp.beta2 * arrival.c, 0.0)

    slot = [_EMPTY] if _slot is None else _slot
    states = np.arange(n)
    steps = 0     # improvement steps of every run, an abandoned warm one included

    def iterate(mu_at, lam_at):
        nonlocal steps
        gain_history = []
        iterations = 0
        span = math.inf
        while True:
            if iterations == MAX_ITERATIONS and not span < TOL:
                raise ValueError(
                    "policy iteration did not converge in %d iterations" % MAX_ITERATIONS)
            stage = (states + srv_cost[mu_at] + arr_cost[lam_at]) / lp.r_u
            h, g = _evaluate_policy(arr[lam_at], srv[mu_at], stage, lp.r_u, slot)
            gain_history.append(g)
            if span < TOL:
                return mu_at, lam_at, g, gain_history
            iterations += 1
            steps += 1
            d = np.diff(h)        # d[q] = h(q+1) - h(q), q = 0..n-2
            # service at q = 1..n-1 minimizes beta1 c(a) - a d(q-1), arrival
            # at q = 0..n-2 minimizes -beta2 u(a) + a d(q)
            srv_pick, srv_min = service.best(d, lp.beta1)
            arr_pick, arr_min = arrival.best(d, lp.beta2)
            if srv_pick[-1] == 0 and srv[0] == 0.0:
                # with arrivals already off at the cap, zero service there
                # would absorb the chain at its most expensive state -- a
                # truncation artifact the unbounded problem has no
                # counterpart for; the cap picks again among columns
                # 1..k-1, the positive rates (rates are distinct)
                srv_pick[-1:], srv_min[-1:] = service.full(d[-1:], lp.beta1, 1)
            residual = (states + np.append(0.0, srv_min) + np.append(arr_min, 0.0)) / lp.r_u - g
            span = float(np.max(residual) - np.min(residual))
            if np.array_equal(srv_pick, mu_at[1:]) and np.array_equal(arr_pick, lam_at[:-1]):
                return mu_at, lam_at, g, gain_history
            mu_at[1:], lam_at[:-1] = srv_pick, arr_pick

    try:
        mu_at, lam_at, g, gain_history = iterate(*(warm or cold))
    except ValueError:
        if warm is None:
            raise
        # a start can lead policy iteration into a multi-class policy, or a
        # cycle, that the largest rates avoid
        mu_at, lam_at, g, gain_history = iterate(*cold)
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
    # dominance needs one strict inequality, so no point dominates itself
    return [p._replace(dominated=any(
        o.c_c <= p.c_c and o.u_c >= p.u_c and o.q_star <= p.q_star
        and (o.c_c < p.c_c or o.u_c > p.u_c or o.q_star < p.q_star) for o in points))
        for p in points]


def trace_tradeoff(base, beta1_grid, beta2_grid):
    """Sweep the multiplier grid (Cartesian product) and collect the curve.

    Along each beta1 row, policy iteration at a beta2 point starts from the
    previous point's policy; the first point of a row, and a point after a
    failed one, start cold.  With a single beta2 the rows form one chain
    along beta1: each point starts from the previous beta1 point's policy,
    and only the first point and a point after a failed one start cold.
    A grid with several beta2 is not chained along beta1: on the admission
    benchmark grid such a chain ends at another policy among exact ties
    that rounding decides.  Every solve stops at the one tolerance TOL.
    Each policy is re-evaluated exactly through the stationary
    distribution (the DP's internal gain is not trusted for reporting).
    Returns (points, failures): points sorted by achieved cost with
    dominated ones flagged, failures as (beta1, beta2, error) records for
    grid points whose solve raised.  A grid that is no list of numbers,
    and a grid with a beta2 > 0 and a problem without a utility, are
    refused before any point.  Every solve of the trace evaluates in one
    slot of its own (see ``_evaluate_policy``), which is let go when the
    trace returns: held past it, it would keep the allocator from
    trimming the heap, and each page SuperLU has touched would stay
    resident.
    """
    b1, b2 = (_list(grid, "%s must be a list of multipliers" % name)
              for name, grid in (("beta1_grid", beta1_grid), ("beta2_grid", beta2_grid)))
    if not all(map(_is_number, b1 + b2)):
        raise ValueError("multipliers must be numbers")
    b1, b2 = [float(b) for b in b1], [float(b) for b in b2]
    if not b1 or not b2:
        raise ValueError("multiplier grids must be non-empty")
    if any(b < 0 for b in b1 + b2):
        raise ValueError("multipliers must be non-negative")
    _check_utility(b2, _instance(base, LagrangianProblem, "trace_tradeoff").utility_fn)

    points = []
    failures = []
    start = None
    slot = [_EMPTY]
    for beta1 in b1:
        if len(b2) > 1:
            start = None
        for beta2 in b2:
            try:
                res = solve(base.with_multipliers(beta1, beta2), start=start, _slot=slot)
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
