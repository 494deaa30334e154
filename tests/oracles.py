"""Independent recomputation routes for values frozen in the tests.

The library computes stationary distributions with per-run closed forms
in log space and float arithmetic; everything here goes another way:
dense global-balance least squares, exact rational arithmetic for the
closed forms, 60-digit arithmetic for threshold indices and 50-digit
power sums for the stationary law of long runs.  The per-state loops
below are the library's earlier implementations, kept as references that
its run-based code must reproduce, bit for bit where the arithmetic is
the same and to a stated tolerance for the stationary law, whose sums
now run in another order; they read a policy only through arrival(q),
service(q), its horizon, tails and rate bounds.  The simulator's
reference walks its path one event at a time and must agree with the
block-drawn simulator up to the rounding of its sums.  Policy iteration
is redone in exact rational arithmetic under the solver's rules, so a
float solve can be held to the exact policy, and its improvement step's
float pick is kept as the 2-D table argmin that the solver's column
sweep must reproduce.  Nothing in this module imports the package.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.sparse import csr_matrix


def dense_stationary(lam_of, mu_of, n):
    """Stationary vector of the chain truncated to {0..n}, global balance.

    Arrivals are dropped at state n.  The full balance system plus the
    normalization row is solved by least squares, so no single balance
    equation has to be discarded by hand.
    """
    a = np.zeros((n + 2, n + 1))
    for q in range(n + 1):
        lam = float(lam_of(q)) if q < n else 0.0
        mu = float(mu_of(q))
        a[q, q] -= lam + mu
        if q < n:
            a[q + 1, q] += lam
        if q > 0:
            a[q - 1, q] += mu
    a[n + 1, :] = 1.0
    b = np.zeros(n + 2)
    b[n + 1] = 1.0
    pi, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    return pi


def coo_poisson_matrix(lam, mu, r_u):
    """Policy-evaluation matrix built entry by entry, COO -> CSR -> CSC.

    Row q < n: (lam_q + mu_q)/r_u h(q) - lam_q/r_u h(q+1) - mu_q/r_u h(q-1)
    + g; row n: h(0) = 0.  Duplicates are summed by the conversion.
    """
    n = lam.shape[0]
    rows, cols, vals = [], [], []
    for q in range(n):
        rows.append(q)
        cols.append(q)
        vals.append((lam[q] + mu[q]) / r_u)
        if lam[q] > 0.0:
            rows.append(q)
            cols.append(q + 1)
            vals.append(-lam[q] / r_u)
        if mu[q] > 0.0:
            rows.append(q)
            cols.append(q - 1)
            vals.append(-mu[q] / r_u)
        rows.append(q)
        cols.append(n)
        vals.append(1.0)
    rows.append(n)
    cols.append(0)
    vals.append(1.0)
    return csr_matrix((vals, (rows, cols)), shape=(n + 1, n + 1)).tocsc()


def loop_stationary(p, tail_tol=1e-12):
    """Stationary vector of a stable policy by a per-state log recursion.

    ``p`` offers arrival(q), service(q), horizon, lam_tail and mu_tail.
    Returns (pi, q_lo, q_max, tail_mass, tail_ratio) for the window
    [q_lo, q_max]; the geometric tail beyond it is summed in closed form.
    """
    q_lo = max(q for q in range(p.horizon + 1) if p.service(q) == 0.0)
    q_hi = next((q for q in range(p.horizon + 1) if p.arrival(q) == 0.0), None)
    if q_hi is None and p.lam_tail == 0.0:
        q_hi = p.horizon + 1
    head_end = p.horizon + 1 if q_hi is None else q_hi
    logf = [0.0]
    for q in range(q_lo, head_end):
        logf.append(logf[-1] + math.log(p.arrival(q)) - math.log(p.service(q + 1)))
    logf = np.array(logf)
    if q_hi is not None:
        w = np.exp(logf - logf.max())
        return w / np.sum(w), q_lo, head_end, 0.0, 0.0
    rho = p.lam_tail / p.mu_tail
    log_rho = math.log(rho)
    m = logf.max()
    head_sum = np.sum(np.exp(logf - m))
    tail_sum = math.exp(logf[-1] - m) * rho / (1.0 - rho)
    log_total = m + math.log(head_sum + tail_sum)
    target = math.log(tail_tol) + math.log((1.0 - rho) / rho) + log_total
    extra = max(0, int(math.ceil((target - logf[-1]) / log_rho)))
    logf_all = np.concatenate(
        [logf, logf[-1] + log_rho * np.arange(1, extra + 1)])
    w = np.exp(logf_all - m)
    tail_w = w[-1] * rho / (1.0 - rho)
    total = np.sum(w) + tail_w
    return w / total, q_lo, head_end + extra, tail_w / total, rho


def loop_metrics(p, window, c, u):
    """(qbar, cbar, ubar, dbar, mean_arrival, mean_service) from per-state rates.

    ``window`` is loop_stationary's result; ``c`` and ``u`` are plain
    callables, rate 0 maps to 0, and so does every rate when ``u`` is None.
    """
    pi, q_lo, q_max, tail_mass, rho = window
    qs = np.arange(q_lo, q_max + 1)
    lam_q = np.array([p.arrival(int(q)) for q in qs])
    mu_q = np.array([p.service(int(q)) for q in qs])
    c_q = np.array([0.0 if r == 0.0 else c(r) for r in mu_q.tolist()])
    u_q = np.array([0.0 if (u is None or r == 0.0) else u(r)
                    for r in lam_q.tolist()])
    qbar = float(np.dot(qs, pi))
    cbar = float(np.dot(c_q, pi))
    ubar = float(np.dot(u_q, pi))
    mean_arr = float(np.dot(lam_q, pi))
    mean_srv = float(np.dot(mu_q, pi))
    if tail_mass > 0.0:
        pi_top = float(pi[-1])
        qbar += pi_top * (q_max * rho / (1.0 - rho) + rho / (1.0 - rho) ** 2)
        cbar += c(p.mu_tail) * tail_mass
        if u is not None:
            ubar += u(p.lam_tail) * tail_mass
        mean_arr += p.lam_tail * tail_mass
        mean_srv += p.mu_tail * tail_mass
    dbar = qbar / mean_arr if mean_arr > 0 else math.inf
    return qbar, cbar, ubar, dbar, mean_arr, mean_srv


def loop_replicate(p, horizon, warmup_fraction, seq, c, u):
    """One simulation replication's (Qbar, Cbar, Ubar), one event at a time.

    ``seq`` spawns a jump stream of uniforms and a hold stream of standard
    exponentials; each event draws its holding time from the one and, if
    it ends before ``horizon``, its direction from the other.  The rates
    come from arrival(q) and service(q) at every event.  ``c`` and ``u``
    are plain callables as in loop_metrics.  A state with no arrivals and
    no service holds the walk until ``horizon``.
    """
    jump, hold = (np.random.default_rng(s) for s in seq.spawn(2))
    warmup_end = warmup_fraction * horizon
    q = 0
    t = 0.0
    acc_q = acc_c = acc_u = 0.0
    while t < horizon:
        lam, mu = p.arrival(q), p.service(q)
        total = lam + mu
        if total <= 0.0:
            t_next = horizon
        else:
            t_next = t + hold.standard_exponential() / total
        seg = min(t_next, horizon) - max(t, warmup_end)
        if seg > 0.0:
            acc_q += q * seg
            acc_c += (0.0 if mu == 0.0 else c(mu)) * seg
            acc_u += (0.0 if (u is None or lam == 0.0) else u(lam)) * seg
        if t_next >= horizon:
            break
        q = q + 1 if jump.random() < lam / total else q - 1
        t = t_next
    span = horizon - warmup_end
    return acc_q / span, acc_c / span, acc_u / span


def dense_rules(lam_pieces, lam_tail, mu_pieces, mu_tail):
    """Per-state (lam, mu) lists over 0..max q_hi, filled piece by piece.

    States no piece covers take the tail rate, except that mu(0) defaults
    to 0; overlapping pieces raise ValueError.
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
    lam = [float(lam_tail) if x is None else x for x in lam]
    mu = [(0.0 if q == 0 else float(mu_tail)) if x is None else x
          for q, x in enumerate(mu)]
    return lam, mu


def pieces_of(arr, tail):
    """Policy-JSON rule of a per-state rate list: maximal runs of equal rate."""
    pieces = []
    q = 0
    while q < len(arr):
        r = q
        while r + 1 < len(arr) and arr[r + 1] == arr[q]:
            r += 1
        pieces.append([q, r, arr[q]])
        q = r + 1
    return {"pieces": pieces, "tail": tail}


def per_state_rules(p):
    """(lam, mu) of ``p`` at every state 0..horizon, read one state at a time."""
    states = range(p.horizon + 1)
    return [p.arrival(q) for q in states], [p.service(q) for q in states]


def loop_joint_runs(p):
    """(first, end, lam, mu) of each maximal run of constant (lam, mu) over
    0..horizon, found state by state, then the tail from horizon + 1 on."""
    runs = []
    for q, rates in enumerate(zip(*per_state_rules(p))):
        if runs and runs[-1][2:] == list(rates):
            runs[-1][1] = q + 1
        else:
            runs.append([q, q + 1] + list(rates))
    return [tuple(r) for r in runs] + [(p.horizon + 1, math.inf, p.lam_tail, p.mu_tail)]


def loop_check_admissible(p):
    """Per-state admissibility scan: raise unless mu rises and lambda falls."""
    lam, mu = per_state_rules(p)
    if mu[0] != 0.0:
        raise ValueError("mu(0) must be 0")
    seq_mu = mu + [p.mu_tail]
    seq_lam = lam + [p.lam_tail]
    for i in range(1, len(seq_mu)):
        if seq_mu[i] < seq_mu[i - 1]:
            raise ValueError("service rates decrease at q=%d" % i)
        if seq_lam[i] > seq_lam[i - 1]:
            raise ValueError("arrival rates increase at q=%d" % i)
    if max(seq_lam) > p.ra_max + 1e-12 or max(seq_mu) > p.r_max + 1e-12:
        raise ValueError("rates exceed declared bounds")


def loop_recurrent_window(p):
    """(q_rl, q_ru) by scanning every state up to the horizon."""
    if p.mu_tail == 0.0:
        q_rl = math.inf
    else:
        q_rl = 0
        for q in range(p.horizon + 1):
            if p.service(q) == 0.0:
                q_rl = q
    q_ru = math.inf
    for q in range(p.horizon + 1):
        if p.arrival(q) == 0.0:
            q_ru = q
            break
    if math.isinf(q_ru) and p.lam_tail == 0.0:
        q_ru = p.horizon + 1
    return q_rl, q_ru


def loop_qlength_upper_bound(p):
    """Smallest drift bound over every state 1..horizon+1."""
    best = math.inf
    for q in range(1, p.horizon + 2):
        eps = p.service(q) - p.arrival(q)
        if eps > 0:
            val = q * (eps + p.ra_max) / eps + (p.r_max + p.ra_max) / (2.0 * eps)
            best = min(best, val)
    if best is math.inf:
        raise ValueError("no state with positive drift gap")
    return best


def loop_service_mass_outside(p, window, low, high):
    """Stationary mass of states serving outside [low, high], state by state.

    ``window`` is loop_stationary's result.
    """
    pi, q_lo, q_max, tail_mass, _ = window
    total = 0.0
    for i, q in enumerate(range(q_lo, q_max + 1)):
        r = p.service(q)
        if r < low - 1e-12 or r > high + 1e-12:
            total += float(pi[i])
    if tail_mass > 0.0:
        r = p.mu_tail
        if r < low - 1e-12 or r > high + 1e-12:
            total += tail_mass
    return total


def loop_mass_below(window, q_star):
    """Stationary mass of the states below q_star, state by state.

    ``window`` is loop_stationary's result; states past its q_max continue
    its last value geometrically.
    """
    pi, q_lo, q_max, _, rho = window
    total = 0.0
    for q in range(q_lo, q_star):
        total += float(pi[q - q_lo]) if q <= q_max else float(pi[-1]) * rho ** (q - q_max)
    return total


def loop_first_service_at_least(p, threshold, strict=False):
    """First state 1..horizon+1 serving at (or, if strict, above) threshold."""
    for q in range(1, p.horizon + 2):
        r = p.service(q)
        if (r > threshold) if strict else (r >= threshold):
            return q
    return None


class MpChain:
    """A birth-death chain given as runs, solved at ``dps`` decimal digits.

    ``runs`` lists (length, lam, mu) from state 0 on, the tail rates hold
    beyond them, and mu must be 0 at state 0.  The recurrent window runs
    from the last zero-service state to the first zero-arrival state.
    Within a run pi is geometric with ratio r = lam/mu, so each run's mass
    and first moment are summed with the textbook power forms
    (1 - r^n)/(1 - r) and r (1 - n r^(n-1) + (n-1) r^n)/(1 - r)^2 in mpmath;
    the library's log-space forms and series share none of this.
    """

    def __init__(self, runs, lam_tail, mu_tail, dps=50):
        self.dps = dps
        with mpmath.workdps(dps):
            chain, q = [], 0
            for n, lam, mu in list(runs) + [(mpmath.inf, lam_tail, mu_tail)]:
                chain.append((q, n, mpmath.mpf(lam), mpmath.mpf(mu)))
                q += n
            q_lo = max(a + n - 1 for a, n, _, mu in chain if mu == 0)
            q_hi = min([a for a, _, lam, _ in chain if lam == 0] + [mpmath.inf])
            self.segs = []
            w = mpmath.mpf(1)
            for a, n, lam, mu in chain:
                a, b = max(a, q_lo), min(a + n, q_hi + 1)
                if a >= b:
                    continue
                if self.segs:
                    _, m, lam0, _, w0, r0 = self.segs[-1]
                    w = w0 * r0 ** (m - 1) * lam0 / mu
                r = lam / mu if b - a > 1 else mpmath.mpf(1)
                self.segs.append((a, b - a, lam, mu, w, r))
            self.z = sum(self._sums(n, r)[0] * w for _, n, _, _, w, r in self.segs)

    @staticmethod
    def _sums(n, r):
        # (sum_{j<n} r^j, sum_{j<n} j r^j)
        if r == 1:
            return mpmath.mpf(n), mpmath.mpf(n) * (n - 1) / 2
        if mpmath.isinf(n):
            return 1 / (1 - r), r / (1 - r) ** 2
        return ((1 - r ** n) / (1 - r),
                r * (1 - n * r ** (n - 1) + (n - 1) * r ** n) / (1 - r) ** 2)

    def pi(self, q):
        with mpmath.workdps(self.dps):
            for a, n, _, _, w, r in self.segs:
                if a <= q < a + n:
                    return float(w * r ** (q - a) / self.z)
            return 0.0

    def mass_below(self, q):
        with mpmath.workdps(self.dps):
            total = mpmath.mpf(0)
            for a, n, _, _, w, r in self.segs:
                if a < q:
                    total += w * self._sums(min(n, q - a), r)[0]
            return float(total / self.z)

    def cost_gap(self, cost, c_ref):
        """V = Cbar - c_ref as a float, the difference taken at ``dps``
        digits; ``cost`` maps an mpf rate to an mpf, and rate 0 maps to 0."""
        with mpmath.workdps(self.dps):
            cbar = sum(cost(mu) * w * self._sums(n, r)[0]
                       for _, n, _, mu, w, r in self.segs if mu != 0)
            return float(cbar / self.z - mpmath.mpf(c_ref))

    def metrics(self, cost, util=None):
        """(qbar, cbar, ubar, dbar, mean_arrival, mean_service) as floats.

        ``cost`` and ``util`` map an mpf rate to an mpf; rate 0 maps to 0,
        and so does every rate when ``util`` is None.
        """
        with mpmath.workdps(self.dps):
            qbar = cbar = ubar = arr = srv = mpmath.mpf(0)
            for a, n, lam, mu, w, r in self.segs:
                s0, s1 = self._sums(n, r)
                mass = w * s0 / self.z
                qbar += (a * s0 + s1) * w / self.z
                cbar += 0 if mu == 0 else cost(mu) * mass
                ubar += 0 if (util is None or lam == 0) else util(lam) * mass
                arr += lam * mass
                srv += mu * mass
            dbar = qbar / arr if arr > 0 else mpmath.inf
            return tuple(float(x) for x in (qbar, cbar, ubar, dbar, arr, srv))


def exact_chain_stats(lam, mu, lam_tail, mu_tail, cost=None, util=None):
    """Exact rational stats for an eventually-constant birth-death chain.

    ``lam``/``mu`` list the rates for q = 0..h; beyond h both are the
    tail values and the chain is geometric with ratio lam_tail/mu_tail.
    Rates must be Fractions (or ints); ``cost``/``util`` map a rate to a
    Fraction.  States before the last zero-service state are transient
    and states after the first zero-arrival state are unreachable; both
    carry no mass.  Returns a dict of Fractions.
    """
    lam = [Fraction(x) for x in lam]
    mu = [Fraction(x) for x in mu]
    lam_tail = Fraction(lam_tail)
    mu_tail = Fraction(mu_tail)
    h = len(lam) - 1

    def lam_at(q):
        return lam[q] if q <= h else lam_tail

    def mu_at(q):
        return mu[q] if q <= h else mu_tail

    q_lo = 0
    for q in range(h + 1):
        if mu_at(q) == 0 and q > 0:
            q_lo = q
    q_hi = None
    for q in range(h + 1):
        if lam_at(q) == 0:
            q_hi = q
            break

    w = {q_lo: Fraction(1)}
    q = q_lo
    stop = q_hi if q_hi is not None else h
    while q < stop:
        w[q + 1] = w[q] * lam_at(q) / mu_at(q + 1)
        q += 1

    z = sum(w.values())
    q1 = sum(Fraction(q) * x for q, x in w.items())
    if q_hi is None:
        ratio = lam_tail / mu_tail
        if ratio >= 1:
            raise ValueError("unstable tail")
        tail0 = w[h] * ratio / (1 - ratio)
        z += tail0
        q1 += w[h] * (Fraction(h) * ratio / (1 - ratio) + ratio / (1 - ratio) ** 2)

    stats = {"Z": z, "qbar": q1 / z, "pi": {q: x / z for q, x in w.items()}}
    for name, fn, rate_at in (("cbar", cost, mu_at), ("ubar", util, lam_at)):
        if fn is None:
            continue
        acc = sum(fn(rate_at(q)) * x for q, x in w.items())
        if q_hi is None:
            acc += fn(rate_at(h + 1)) * tail0
        stats[name] = acc / z
    arr = sum(lam_at(q) * x for q, x in w.items())
    if q_hi is None:
        arr += lam_tail * tail0
    stats["mean_arrival"] = arr / z
    if arr != 0:
        stats["dbar"] = stats["qbar"] / (arr / z)
    return stats


def _solve_exact(rows):
    """x with row[:-1] . x = row[-1] for every row, by Gauss-Jordan
    elimination over Fractions; ValueError when the system is singular."""
    rows = [list(r) for r in rows]
    n = len(rows)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / top[col]
                rows[r] = [a - f * b if b else a for a, b in zip(rows[r], top)]
    return [rows[i][-1] / rows[i][i] for i in range(n)]


def table_pick(d, w, c, beta):
    """Each row's first minimizing column of the float table
    d[r] * w[j] + beta * c[j], and that entry: the improvement step's pick
    as one (n, k) table and ``np.argmin``."""
    table = np.multiply.outer(d, w) + beta * c
    pick = np.argmin(table, axis=1)
    return pick, table[np.arange(len(d)), pick]


def exact_policy_iteration(srv, srv_cost, arr, arr_cost, n, tol, max_iterations=500):
    """Policy iteration on states 0..n-1 in exact rational arithmetic.

    ``srv`` and ``arr`` are the ascending action rates, ``srv_cost`` and
    ``arr_cost`` their float stage-cost terms (beta1 c(a) and -beta2 u(a));
    each is converted to a Fraction exactly, and so is the float sum
    r_u = srv[-1] + arr[-1].  Each evaluation solves, with h(0) = 0,

        (lam_q + mu_q) h(q) - lam_q h(q+1) - mu_q h(q-1) + r_u g
            = q + (stage-cost terms of the actions at q).

    The rules are the float solver's: the initial policy serves and admits
    at the largest rates; state 0 never serves, and the last state never
    admits and serves only at positive rates; each improvement step takes
    the smallest service and the largest arrival rate among the exact
    minimizers; iteration stops when the policy is unchanged, or when the
    span of the Bellman residual is below ``tol``, and the improved policy
    is then evaluated once more.  Returns (lam, mu, g, iterations,
    min_gap): per-state rates as floats, the gain as a Fraction, the number
    of improvement steps and the smallest (second best - best) / max(1,
    |best|) over every row with two or more candidates, at every step.
    """
    r_u = Fraction(srv[-1] + arr[-1])
    srv, srv_cost, arr, arr_cost = ([Fraction(x) for x in xs]
                                    for xs in (srv, srv_cost, arr, arr_cost))
    zero = Fraction(0)
    # (rate, cost) per state; state 0 serves and the last state admits at 0
    mu = [(zero, zero)] + [(srv[-1], srv_cost[-1])] * (n - 1)
    lam = [(arr[-1], arr_cost[-1])] * (n - 1) + [(zero, zero)]

    def evaluate():
        rows = []
        for q in range(n):
            (a, ca), (s, cs) = lam[q], mu[q]
            row = [zero] * (n + 2)          # h(0..n-1), r_u g, right-hand side
            row[q] += a + s
            if a:
                row[q + 1] -= a
            if s:
                row[q - 1] -= s
            row[n], row[n + 1] = Fraction(1), q + cs + ca
            rows.append(row[1:])
        x = _solve_exact(rows)
        return [zero] + x[:-1], x[-1] / r_u

    gaps = []

    def best(values, last):
        # the minimum and its index, ties to the first or the last; the gap
        # to the runner-up (0 for a tie) goes to gaps
        cands = sorted(v for v in values if v is not None)
        if len(cands) > 1:
            gaps.append((cands[1] - cands[0]) / max(1, abs(cands[0])))
        ties = [i for i, v in enumerate(values) if v == cands[0]]
        return ties[-1 if last else 0], cands[0]

    iterations = 0
    while True:
        if iterations == max_iterations:
            raise ValueError("no convergence in %d iterations" % max_iterations)
        h, g = evaluate()
        iterations += 1
        d = [b - a for a, b in zip(h, h[1:])]
        new_mu, new_lam, residual = [mu[0]], [], []
        for q in range(n):
            s_low = a_low = zero
            if q > 0:
                i, s_low = best([c - s * d[q - 1] if s > 0 or q < n - 1 else None
                                 for s, c in zip(srv, srv_cost)], last=False)
                new_mu.append((srv[i], srv_cost[i]))
            if q < n - 1:
                i, a_low = best([c + a * d[q] for a, c in zip(arr, arr_cost)], last=True)
                new_lam.append((arr[i], arr_cost[i]))
            residual.append((q + s_low + a_low) / r_u - g)
        new_lam.append(lam[-1])
        if new_mu == mu and new_lam == lam:
            break
        mu, lam = new_mu, new_lam
        if max(residual) - min(residual) < Fraction(tol):
            _, g = evaluate()
            break
    return ([float(a) for a, _ in lam], [float(s) for s, _ in mu], g, iterations,
            float(min(gaps)) if gaps else None)


def mm1_stats(lam, mu, cost=None, util=None):
    """M/M/1 with fixed rates as exact Fractions."""
    return exact_chain_stats([Fraction(lam)], [Fraction(0)],
                             Fraction(lam), Fraction(mu), cost, util)


def _log_ratio(numer, denom, arg):
    """log_base(arg) with base numer/denom at 60 digits."""
    with mpmath.workdps(60):
        return mpmath.log(arg) / mpmath.log(mpmath.mpf(numer) / mpmath.mpf(denom))


def q1_three_level(lam, u):
    """Threshold index of the strictly-convex-case family, floor form."""
    with mpmath.workdps(60):
        lam = mpmath.mpf(lam)
        u = mpmath.mpf(u)
        eps = mpmath.sqrt(u)
        val = _log_ratio(lam, lam - eps, 1 + eps / (u * lam))
        return int(mpmath.floor(val))


def q1_low_rate(lam, a, u):
    """Threshold index of the segment-interior family, ceiling form."""
    with mpmath.workdps(60):
        lam = mpmath.mpf(lam)
        a = mpmath.mpf(a)
        u = mpmath.mpf(u)
        val = _log_ratio(lam, a, 1 + (lam - a) / (lam * u))
        return max(1, int(mpmath.ceil(val)))


def q1_joint(anchor, eps, u):
    """Threshold index of the joint arrival/service family."""
    with mpmath.workdps(60):
        anchor = mpmath.mpf(anchor)
        lam1 = anchor + mpmath.mpf(eps)
        mu1 = anchor - mpmath.mpf(u)
        val = _log_ratio(lam1, mu1, 1 + (lam1 - mu1) / (lam1 * mpmath.mpf(u)))
        return int(mpmath.ceil(val))


def r_squared(x, y):
    """Plain least-squares R^2 of y against x with intercept."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.column_stack([np.ones(len(x)), x])
    coef, _, _, _ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    total = np.sum((y - y.mean()) ** 2)
    return 1.0 - np.sum(resid * resid) / total


GROWTH_MODELS = {
    "constant": lambda v: 1.0,
    "log-inv": lambda v: math.log(1.0 / v),
    "inv-sqrt": lambda v: v ** -0.5,
    "inv": lambda v: 1.0 / v,
    "inv-sqrt-log": lambda v: v ** -0.5 * math.log(1.0 / v),
}


def synthetic_growth(model, vs, c0=0.7, c1=2.3):
    """(V, qbar) pairs lying exactly on one growth model."""
    f = GROWTH_MODELS[model]
    return [(v, c0 + c1 * f(v)) for v in vs]
