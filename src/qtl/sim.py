"""Event-driven Monte Carlo simulation of a policy.

Independent statistical oracle for the exact analytics: the queue is run
as a continuous-time chain with exponential holding times at total rate
lambda(q) + mu(q), and Qbar, Cbar, Ubar are time integrals over the
post-warmup window.  Replications use RNG streams spawned from one seed,
so results are reproducible bit for bit and replication order cannot
matter.  Each replication's stream spawns two of its own: uniforms that
send each jump up or down, and standard exponentials for the holding
times.  The path is built in blocks of at most BLOCK events; after the
first, each block is sized from the event rate so far to end just past the
horizon, since the walk runs to the end of a block.  A Python loop walks the
jump chain with one list lookup per event: a per-state list of P(up), which
the replications share and grow from the policy's runs as their walks
climb, so its memory scales with the highest state visited.  numpy then
finds each visited state's run, cuts the block at the first state with no
arrivals and no service, draws the block's holding times and integrates q,
c and u over them.  Such a state holds the walk until the horizon.  Either
stream yields the same draws at any block size, so the block size moves
only the rounding of the integrals.
"""

import bisect
import math
from collections import namedtuple

import numpy as np

from .birth_death import is_stable, rate_value
from .rate_functions import _check_roles, _count, _is_number

# The largest block; 2**12 beat 2**14 by about 2x on criterion 8.  A later
# block holds the remaining events expected at the rate so far, times MARGIN,
# plus SLACK: an undershoot costs one more short block.
BLOCK = 2 ** 12
MARGIN = 1.05
SLACK = 16

# every field is required: the CLI's simulate options hold the defaults
SimConfig = namedtuple("SimConfig", ["horizon", "replications", "seed", "warmup_fraction"])

SimEstimate = namedtuple(
    "SimEstimate",
    ["qbar", "qbar_halfwidth", "cbar", "cbar_halfwidth",
     "ubar", "ubar_halfwidth", "replications"])


def _runs(p, c, u):
    """Runs of both rules: the run starts, P(up) and lambda + mu per run and
    (c(mu), u(lambda)) rows, and the per-state P(up) list that the walks of
    every replication share and grow.  A run with no arrivals and no service
    gets P(up) = 1, so a walk that steps past it stays in range."""
    starts, _, lam, mu = zip(*p.joint_runs())
    total = [a + s for a, s in zip(lam, mu)]
    up = [a / r if r > 0.0 else 1.0 for a, r in zip(lam, total)]
    cu = np.array([[rate_value(c, s) for s in mu], [rate_value(u, a) for a in lam]])
    return np.array(starts), up, [], np.array(total), cu


def _replicate(runs, cfg, seq):
    starts, up, ups, total, cu = runs
    jump, hold = (np.random.default_rng(s) for s in seq.spawn(2))
    warmup_end = cfg.warmup_fraction * cfg.horizon
    q = events = 0
    t = 0.0
    size = BLOCK
    acc = np.zeros(3)
    while True:
        # a block climbs at most size states above q
        while len(ups) <= q + size:
            j = bisect.bisect_right(starts, len(ups))
            end = starts[j] if j < len(starts) else math.inf
            ups += [up[j - 1]] * (min(end, q + size + 1) - len(ups))
        path = []
        visit = path.append
        for x in memoryview(jump.random(size)):
            visit(q)
            q += 1 if x < ups[q] else -1
        try:
            # bytearray reads a list of ints below 256 about five times
            # faster than fromiter, which reads any
            states = np.frombuffer(bytearray(path), np.uint8).astype(np.int64)
        except ValueError:
            states = np.fromiter(path, np.int64, len(path))
        k = np.searchsorted(starts, states, side="right") - 1
        rates = total[k]
        # the walk ends on entering a state with no arrivals and no service
        trap = np.flatnonzero(rates <= 0.0)
        if trap.size:
            n = trap[0]
            q, i = int(states[n]), k[n]
            states, k, rates = states[:n], k[:n], rates[:n]
        edges = np.cumsum(np.concatenate(
            ([t], hold.standard_exponential(len(states)) / rates)))
        seg = np.minimum(edges[1:], cfg.horizon) - np.maximum(edges[:-1], warmup_end)
        np.maximum(seg, 0.0, out=seg)
        acc[0] += seg @ states
        acc[1:] += cu.take(k, axis=1) @ seg
        t = edges[-1]
        if trap.size and t < cfg.horizon:
            # no arrivals and no service in run i: the walk stays in q to the horizon
            seg = cfg.horizon - max(t, warmup_end)
            acc[0] += q * seg
            acc[1:] += cu[:, i] * seg
            t = cfg.horizon
        if t >= cfg.horizon:
            return tuple(acc / (cfg.horizon - warmup_end))
        events += len(states)
        size = min(BLOCK, int(MARGIN * (cfg.horizon - t) * events / t) + SLACK)


def simulate(p, cfg, c, u=None):
    """Estimate (Qbar, Cbar, Ubar) with 95% normal CIs across replications.

    The first warmup fraction of each replication's horizon is discarded.
    A single replication yields infinite half-widths (no spread estimate),
    which the structure reports rather than hiding.  An unstable policy
    has no long-run averages to estimate and is refused, and so is a p
    that is no Policy, a cfg that is no SimConfig, a replication count or
    seed that is not an int or an integral float, more replications than
    numpy can spawn streams for, a horizon that reaches 2**52 mean holding times
    at the fastest rate, and a c that is not a cost or a u that is neither
    None nor a utility.
    """
    _check_roles(c, u)
    if not isinstance(cfg, SimConfig):
        raise ValueError("cfg must be a SimConfig, got %r" % (cfg,))
    if not (_is_number(cfg.horizon) and 0 < cfg.horizon < math.inf):
        raise ValueError("horizon must be positive and finite")
    n = _count(cfg.replications, "replications")
    if n < 1:
        raise ValueError("need at least one replication")
    if n > np.iinfo(np.intp).max:  # numpy counts the spawned streams in an ssize_t
        raise ValueError("replications must be at most %d, got %d" % (np.iinfo(np.intp).max, n))
    if not (_is_number(cfg.warmup_fraction) and 0.0 <= cfg.warmup_fraction < 1.0):
        raise ValueError("warmup_fraction must be in [0, 1)")

    if not is_stable(p):
        raise ValueError("unstable policy: no stationary averages to estimate")

    runs = _runs(p, c, u)
    # runs[3] is lambda + mu per run; past this bound a mean holding time is
    # below the spacing of doubles near the horizon, so the time axis cannot
    # resolve events
    bound = float(2.0 ** 52 / runs[3].max())
    if cfg.horizon >= bound:
        raise ValueError("horizon must be below 2**52 / max(lambda + mu) = %r, got %r"
                         % (bound, cfg.horizon))
    streams = np.random.SeedSequence(_count(cfg.seed, "seed")).spawn(n)
    reps = np.array([_replicate(runs, cfg, s) for s in streams])

    means = reps.mean(axis=0)
    if n == 1:
        halves = [math.inf, math.inf, math.inf]
    else:
        sd = reps.std(axis=0, ddof=1)
        halves = 1.96 * sd / math.sqrt(n)
    return SimEstimate(
        qbar=float(means[0]), qbar_halfwidth=float(halves[0]),
        cbar=float(means[1]), cbar_halfwidth=float(halves[1]),
        ubar=float(means[2]), ubar_halfwidth=float(halves[2]),
        replications=n)
