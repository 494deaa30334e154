"""Event-driven Monte Carlo simulation of a policy.

Independent statistical oracle for the exact analytics: the queue is run
as a continuous-time chain with exponential holding times at total rate
lambda(q) + mu(q), and Qbar, Cbar, Ubar are time integrals over the
post-warmup window.  Replications use RNG streams spawned from one seed,
so results are reproducible bit for bit and replication order cannot
matter.  The event loop walks the policy's runs of constant rate, which
it enters and leaves one state at a time, so it never looks a rate up.
"""

import math
from collections import namedtuple

import numpy as np

from .birth_death import is_stable, rate_value

SimConfig = namedtuple("SimConfig", ["horizon", "replications", "seed", "warmup_fraction"])
SimConfig.__new__.__defaults__ = (10000.0, 10, 0, 0.1)

SimEstimate = namedtuple(
    "SimEstimate",
    ["qbar", "qbar_halfwidth", "cbar", "cbar_halfwidth",
     "ubar", "ubar_halfwidth", "replications"])


def _runs(p, c, u):
    """(first, last, lambda, lambda + mu, c(mu), u(lambda)) per run of both rules."""
    starts = sorted(set(p.runs("lam")[0]) | set(p.runs("mu")[0]))
    rates = [(p.arrival(q), p.service(q)) for q in starts]
    return [(q, end - 1, lam, lam + mu, rate_value(c, mu), rate_value(u, lam))
            for q, end, (lam, mu) in zip(starts, starts[1:] + [math.inf], rates)]


def _replicate(runs, cfg, rng):
    warmup_end = cfg.warmup_fraction * cfg.horizon
    span = cfg.horizon - warmup_end
    q = 0
    t = 0.0
    acc_q = acc_c = acc_u = 0.0
    i = 0
    first, last, lam, total, c_q, u_q = runs[0]
    while t < cfg.horizon:
        if total <= 0.0:
            raise ValueError("absorbing state q=%d: no arrivals, no service" % q)
        t_next = t + rng.exponential(1.0 / total)
        seg = min(t_next, cfg.horizon) - max(t, warmup_end)
        if seg > 0.0:
            acc_q += q * seg
            acc_c += c_q * seg
            acc_u += u_q * seg
        if t_next >= cfg.horizon:
            break
        q = q + 1 if rng.random() < lam / total else q - 1
        if not first <= q <= last:
            i += 1 if q > last else -1
            first, last, lam, total, c_q, u_q = runs[i]
        t = t_next
    return acc_q / span, acc_c / span, acc_u / span


def simulate(p, cfg, c, u=None):
    """Estimate (Qbar, Cbar, Ubar) with 95% normal CIs across replications.

    The first warmup fraction of each replication's horizon is discarded.
    A single replication yields infinite half-widths (no spread estimate),
    which the structure reports rather than hiding.  An unstable policy
    has no long-run averages to estimate and is refused.
    """
    if not 0 < cfg.horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if cfg.replications < 1:
        raise ValueError("need at least one replication")
    if not (0.0 <= cfg.warmup_fraction < 1.0):
        raise ValueError("warmup_fraction must be in [0, 1)")

    if not is_stable(p):
        raise ValueError("unstable policy: no stationary averages to estimate")

    runs = _runs(p, c, u)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)
    reps = np.array([_replicate(runs, cfg, np.random.default_rng(s))
                     for s in streams])

    means = reps.mean(axis=0)
    if cfg.replications == 1:
        halves = [math.inf, math.inf, math.inf]
    else:
        sd = reps.std(axis=0, ddof=1)
        halves = 1.96 * sd / math.sqrt(cfg.replications)
    return SimEstimate(
        qbar=float(means[0]), qbar_halfwidth=float(halves[0]),
        cbar=float(means[1]), cbar_halfwidth=float(halves[1]),
        ubar=float(means[2]), ubar_halfwidth=float(halves[2]),
        replications=cfg.replications)
