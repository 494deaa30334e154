"""Inputs, passes and output checks of the four qtl benchmark workloads.

Each workload is built from a seed.  Seed 0 is the default: its grids are
exactly the ones documented in NOTES.md and its outputs are compared
against ``reference.json``.  Any other seed jitters every point of the
multiplier grids by up to JITTER of the grid spacing (in log scale),
shrinks every U by up to JITTER of its spacing, and moves the simulation
seeds, so a claim can be rechecked on unseen inputs.
The acceptance invariants are checked at every seed.

A pass calls the public ``qtl`` API through module attributes looked up at
call time, so the tracer can rebind them.  Every call is made through
``Pass.call``, which catches any exception and charges it to the items the
call covers; a pass never aborts.
"""

import math

import numpy as np

from qtl import birth_death, mdp, policy_families, rate_functions, scaling, sim

DEFAULT_SEED = 0
JITTER = 0.05           # share of the log grid spacing a seed may move a point

S = [0, 0.2, 0.4, 0.5, 0.6, 0.8, 1]
ENV_AT = {0.39: 0.154, 0.40: 0.160, 0.41: 0.169}

# relative and absolute tolerance of the reference comparison: loose enough
# for a reformulated sum (V at U = 2^-40 has only ~5 correct digits), tight
# enough that any changed policy, verdict or margin sign shows
RTOL = 1e-6
ATOL = 1e-12

# criterion 8 asks 38 of 40 pairs within 3x CI at its own seeds (the default
# seed here).  At other seeds the mc22 pairs, whose chains mix slower than
# the 1e4 horizon, miss 0-3 times (37/40 at seed 4 on the seed commit); the
# gate there allows 5 misses, which a working simulator reaches about once
# in 10^4 runs and a broken one never passes.  See NOTES.md.
SIM_HITS_DEFAULT_SEED = 38
SIM_HITS_OTHER_SEED = 35


class Pass:
    """Failures of one pass, keyed by item id.

    ``mark`` is called with the request id before each call, so a tracer
    can give all spans of one request the same id.
    """

    def __init__(self, mark=None):
        self.mark = mark or (lambda key: None)
        self.failed = {}

    def fail(self, item, reason):
        self.failed.setdefault(item, reason)

    def call(self, key, fn, *args, covers=None):
        self.mark(key)
        try:
            return fn(*args)
        except Exception as exc:  # any type: counted per item, never aborts
            for item in covers or [key]:
                self.fail(item, "%s: %s" % (type(exc).__name__, exc))
            return None


def outcome(w, inputs, out, p):
    """(failed items -> reason, workload-level problems) of one pass of ``w``."""
    bad = dict(p.failed)
    problems = []
    for item, msg in w.check(inputs, out):
        if item is None:
            problems.append(msg)
        else:
            bad.setdefault(item, "check: " + msg)
    return bad, problems


def _rng(seed):
    return None if seed == DEFAULT_SEED else np.random.default_rng(seed)


def _jitter(rng, exponents, low=-JITTER):
    """Shift grid exponents by a share in [low, JITTER] of one spacing."""
    e = np.asarray(exponents, dtype=float)
    if rng is None:
        return e
    step = abs(e[-1] - e[0]) / (len(e) - 1)
    return e + rng.uniform(low, JITTER, len(e)) * step


def _log10_grid(rng, lo, hi, n):
    return [float(10.0 ** x) for x in _jitter(rng, np.linspace(lo, hi, n))]


def _dyadic_grid(rng, k_max):
    # U only shrinks: U = 2^-4 sits on the edge of the mc1 family's domain
    return [float(2.0 ** -x) for x in _jitter(rng, np.arange(4, k_max + 1), low=0.0)]


def _functions():
    cdisc = rate_functions.discrete_function([(s, s * s) for s in S])
    return {
        "cdisc": cdisc,
        "env": rate_functions.lower_convex_envelope(cdisc),
        "csq": rate_functions.power_function(2.0),
        "usqrt": rate_functions.power_function(0.5, role="utility"),
        "ident": rate_functions.power_function(1.0, role="utility"),
    }


def _close(a, b):
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def compare(got, ref, path="", out=None):
    """Differences between a digest and its reference, as 'path: got != ref'."""
    out = [] if out is None else out
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(got) != set(ref):
            out.append("%s: keys %s != %s" % (path, sorted(got), sorted(ref)))
        for k in sorted(set(got) & set(ref)):
            compare(got[k], ref[k], "%s/%s" % (path, k), out)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            out.append("%s: length %d != %d" % (path, len(got), len(ref)))
        for i, (g, r) in enumerate(zip(got, ref)):
            compare(g, r, "%s[%d]" % (path, i), out)
    elif isinstance(ref, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if not _close(float(got), ref):
            out.append("%s: %r != %r" % (path, got, ref))
    elif got != ref:
        out.append("%s: %r != %r" % (path, got, ref))
    return out


def _pieces(policy):
    d = birth_death.policy_to_json(policy)
    return {"lambda": d["lambda"], "mu": d["mu"]}


class Workload:
    """One workload: ``build(seed)`` makes the inputs, ``run`` makes one pass.

    ``items`` names what a pass attempts, ``check`` returns (item or None,
    message) for every broken output, ``digest`` is what reference.json
    holds, ``stats`` adds per-layer numbers only the outputs know.
    """

    def stats(self, inputs, out):
        return {}


# ---------------------------------------------------------------- traces


def _trace_digest(points):
    return [{"beta1": p.beta1, "beta2": p.beta2, "c_c": p.c_c, "u_c": p.u_c,
             "q_star": p.q_star, "dominated": p.dominated,
             "policy": _pieces(p.policy)}
            for p in sorted(points, key=lambda p: (p.beta1, p.beta2))]


class TraceMenu(Workload):
    """Criterion-2 traces: a 7-rate menu, three arrival rates, 40 beta1."""

    name = "trace_menu"

    def build(self, seed):
        f = _functions()
        lams = (0.39, 0.40, 0.41)
        return {
            "bases": [(lam, mdp.LagrangianProblem(
                0.0, 0.0, S, [lam], f["cdisc"], None, state_cap=2000))
                for lam in lams],
            "beta1": _log10_grid(_rng(seed), 1.0, math.log10(1.2e4), 40),
        }

    def items(self, inputs):
        return ["lam=%g/b1[%d]" % (lam, i) for lam, _ in inputs["bases"]
                for i in range(len(inputs["beta1"]))]

    def run(self, inputs, p):
        out = {}
        b1 = inputs["beta1"]
        for lam, base in inputs["bases"]:
            ids = ["lam=%g/b1[%d]" % (lam, i) for i in range(len(b1))]
            res = p.call("trace lam=%g" % lam, mdp.trace_tradeoff,
                         base, b1, [0.0], covers=ids)
            if res is not None:
                for f in res[1]:
                    p.fail(ids[b1.index(f.beta1)], "TraceFailure: %s" % f.error)
                out[lam] = res[0]
        return out

    def check(self, inputs, out):
        problems = []
        n = len(inputs["beta1"])
        for lam, _ in inputs["bases"]:
            pts = sorted(out.get(lam, []), key=lambda p: p.c_c)
            if len(pts) != n:
                problems.append((None, "lam=%g: %d of %d points" % (lam, len(pts), n)))
                continue
            for a, b in zip(pts, pts[1:]):
                if b.q_star > a.q_star + 1e-9:
                    problems.append((None, "lam=%g: q* rises with c_c at c_c=%r"
                                     % (lam, b.c_c)))
            min_v = pts[0].c_c - ENV_AT[lam]
            if not 0 < min_v <= 0.02:
                problems.append((None, "lam=%g: min V %r outside (0, 0.02]" % (lam, min_v)))
        return problems

    def digest(self, out):
        return {"%g" % lam: _trace_digest(pts) for lam, pts in sorted(out.items())}


class TraceAdmission(Workload):
    """Joint admission and service control over 201 x 201 uniform actions."""

    name = "trace_admission"

    def build(self, seed):
        f = _functions()
        rng = _rng(seed)
        acts = mdp.uniform_actions(1.0, 201)
        return {
            "base": mdp.LagrangianProblem(0.0, 0.0, acts, acts, f["csq"],
                                          f["usqrt"], state_cap=1000),
            "beta1": _log10_grid(rng, 0.0, 3.0, 10),
            "beta2": _log10_grid(rng, 0.5, 2.5, 6),
        }

    def items(self, inputs):
        return ["b1[%d]/b2[%d]" % (i, j) for i in range(len(inputs["beta1"]))
                for j in range(len(inputs["beta2"]))]

    def run(self, inputs, p):
        b1, b2 = inputs["beta1"], inputs["beta2"]
        res = p.call("trace", mdp.trace_tradeoff, inputs["base"], b1, b2,
                     covers=self.items(inputs))
        if res is None:
            return {}
        for f in res[1]:
            p.fail("b1[%d]/b2[%d]" % (b1.index(f.beta1), b2.index(f.beta2)),
                   "TraceFailure: %s" % f.error)
        return {(pt.beta1, pt.beta2): pt for pt in res[0]}

    def check(self, inputs, out):
        """Lagrangian monotonicity: cost falls with beta1, utility rises with beta2."""
        b1, b2 = inputs["beta1"], inputs["beta2"]
        problems = []
        if len(out) != len(b1) * len(b2):
            return [(None, "%d of %d points" % (len(out), len(b1) * len(b2)))]
        for j, y in enumerate(b2):
            for x0, x1 in zip(b1, b1[1:]):
                if out[(x1, y)].c_c > out[(x0, y)].c_c + 1e-9:
                    problems.append((None, "b2[%d]: c_c rises with beta1 at %r" % (j, x1)))
        for i, x in enumerate(b1):
            for y0, y1 in zip(b2, b2[1:]):
                if out[(x, y1)].u_c < out[(x, y0)].u_c - 1e-9:
                    problems.append((None, "b1[%d]: u_c falls with beta2 at %r" % (i, y1)))
        return problems

    def digest(self, out):
        return _trace_digest(out.values())


# ----------------------------------------------------------------- sweeps


class SweepAudit(Workload):
    """Criterion 5-7 families swept deep, audited and drift-bounded."""

    name = "sweep_audit"

    def build(self, seed):
        f = _functions()
        rng = _rng(seed)
        pf = policy_families
        env, csq, usqrt = f["env"], f["csq"], f["usqrt"]
        # (name, k_max, make policy, cost, utility, c_ref, tag); each lambda
        # looks the constructor up at call time so traced runs see the wrapper
        fams = [
            ("mc22", 40, lambda u: pf.mc22_policy(0.39, 0.2, 0.4, u),
             env, usqrt, 0.154, rate_functions.classify_case(env, 0.39)),
            ("mc23", 18, lambda u: pf.mc23_policy(0.40, 0.1, u, next_corner=0.5),
             env, usqrt, 0.160, rate_functions.classify_case(env, 0.40)),
            ("mc1", 28, lambda u: pf.mc1_policy(0.5, u, K=0.5),
             csq, usqrt, 0.25, rate_functions.classify_case(csq, 0.5)),
            ("mc21", 40, lambda u: pf.mc21_policy(
                0.1, 0.2, 1.0, max(1, round(-math.log2(u)))),
             env, usqrt, 0.02, rate_functions.classify_case(env, 0.1)),
            ("lmu", 40, lambda u: pf.lambda_mu_policy(0.4, u, eps=0.05, K=10),
             csq, f["ident"], 0.16, rate_functions.CaseTag("LMU", None, "log", 0.4)),
        ]
        return [{"name": n, "grid": _dyadic_grid(rng, k), "build": b, "cost": c,
                 "util": u, "c_ref": r, "tag": t}
                for n, k, b, c, u, r, t in fams]

    def items(self, inputs):
        out = []
        for fam in inputs:
            out.append(fam["name"] + "/fit")
            out.extend("%s/U[%d]" % (fam["name"], i) for i in range(len(fam["grid"])))
        return out

    def run(self, inputs, p):
        out = {}
        for fam in inputs:
            name, grid = fam["name"], fam["grid"]
            ids = ["%s/U[%d]" % (name, i) for i in range(len(grid))]
            c, u, c_ref, tag = fam["cost"], fam["util"], fam["c_ref"], fam["tag"]
            res = p.call(name + "/sweep", scaling.sweep, fam["build"], grid, c,
                         c_ref, u, covers=ids + [name + "/fit"])
            samples = []
            if res is not None:
                samples = res[0]
                for f in res[1]:
                    p.fail(ids[grid.index(f.U)], "SweepFailure: %s" % f.error)
            fit = p.call(name + "/fit", scaling.classify_regime, samples, tag)
            audits, bounds = [], []
            for item, U in zip(ids, grid):
                policy = p.call(item, fam["build"], U)
                if policy is None:
                    audits.append(None)
                    bounds.append(None)
                    continue
                audits.append(p.call(item, scaling.audit_lower_bound,
                                     policy, tag, c, u, c_ref))
                bounds.append(p.call(item, birth_death.qlength_upper_bound, policy))
            out[name] = {"samples": samples, "fit": fit, "audits": audits,
                         "bounds": bounds}
        return out

    def check(self, inputs, out):
        problems = []
        for fam in inputs:
            name = fam["name"]
            res = out.get(name)
            if res is None:
                problems.append((name + "/fit", "family missing"))
                continue
            samples = {s.U: s for s in res["samples"]}
            for i, U in enumerate(fam["grid"]):
                item = "%s/U[%d]" % (name, i)
                for chk in res["audits"][i] or []:
                    if chk.applicable and not (chk.passed and chk.margin > 0):
                        problems.append((item, "audit %s margin %r" % (chk.name, chk.margin)))
                bound, s = res["bounds"][i], samples.get(U)
                if bound is not None and s is not None and bound < s.qbar:
                    problems.append((item, "drift bound %r < Qbar %r" % (bound, s.qbar)))
            problems.extend((name + "/fit", msg)
                            for msg in _verdict_problems(name, res))
        return problems

    def digest(self, out):
        d = {}
        for name, res in sorted(out.items()):
            fit = res["fit"]
            d[name] = {
                "samples": [list(s) for s in res["samples"]],
                "fit": None if fit is None else [fit.model, fit.verdict],
                "audits": [None if a is None else [_check_digest(c) for c in a]
                           for a in res["audits"]],
                "bounds": res["bounds"],
            }
        return d


def _check_digest(c):
    if not c.applicable:
        return [c.name, False, None, None]
    return [c.name, True, float(c.margin), bool(c.passed)]


def _verdict_problems(name, res):
    """Criterion-5 verdicts of one family, as in the acceptance suite."""
    fit, s = res["fit"], res["samples"]
    if fit is None:
        return ["no regime fit"]
    bad = []
    if name == "mc22" and not (fit.model == "log-inv" and fit.verdict == "matches"):
        bad.append("fit %s/%s" % (fit.model, fit.verdict))
    if name == "mc23":
        qv = [x.qbar * x.V for x in s[len(s) // 2:]]
        if not (fit.model == "inv" and fit.verdict == "matches"
                and max(qv) / min(qv) <= 10.0):
            bad.append("fit %s/%s, QV ratio %r" % (fit.model, fit.verdict,
                                                   max(qv) / min(qv)))
    if name == "mc1":
        upper = [x.qbar * math.sqrt(x.V) / math.log(1.0 / x.V) for x in s]
        lower = [x.qbar * math.sqrt(x.V) for x in s]
        if max(upper) > 1.0 or min(lower) < 0.5:
            bad.append("Q sqrt(V) bounds %r, %r" % (max(upper), min(lower)))
    if name == "mc21":
        gaps = [1.0 - x.qbar for x in s]
        ratios = [g / (x.V * math.log(1.0 / x.V)) for g, x in zip(gaps, s)]
        if not (all(g > 0 for g in gaps)
                and all(b < a for a, b in zip(gaps, gaps[1:]))
                and max(ratios) <= 20.0):
            bad.append("gaps not positive and shrinking, ratio %r" % max(ratios))
    if name == "lmu":
        growth = [x.qbar / math.log(1.0 / x.V) for x in s]
        if max(growth) > 10.0 or min(x.ubar for x in s) < 0.4:
            bad.append("Q/log %r, min Ubar %r" % (
                max(growth), min(x.ubar for x in s)))
    return bad


# ------------------------------------------------------------- simulation


class Simulate(Workload):
    """Criterion-8 set: 40 policy/seed pairs, horizon 1e4, 10 replications."""

    name = "simulate"

    def build(self, seed):
        f = _functions()
        env, csq, usqrt, ident = f["env"], f["csq"], f["usqrt"], f["ident"]
        bd, pf = birth_death, policy_families
        pairs = []
        for lam, mu in ((0.4, 1.0), (0.25, 1.0), (0.5, 0.8), (0.3, 0.9)):
            pairs.append((bd.constant_policy(lam, mu), csq, ident))
        pairs.append((bd.policy_from_pieces([], 0.4, [[1, 2, 0.5]], 1.0), csq, usqrt))
        pairs.append((bd.policy_from_pieces([[0, 3, 0.6]], 0.3, [[1, 5, 0.5]], 0.9),
                      csq, None))
        pairs += [(pf.mc22_policy(0.39, 0.2, 0.4, 2.0 ** -k), env, usqrt)
                  for k in range(4, 12)]
        pairs += [(pf.mc23_policy(0.40, 0.1, 2.0 ** -k, next_corner=0.5), env, usqrt)
                  for k in range(4, 7)]
        pairs += [(pf.mc1_policy(0.5, 2.0 ** -k, K=0.5), csq, usqrt)
                  for k in range(4, 12)]
        pairs += [(pf.mc21_policy(0.1, 0.2, 1.0, q_k), env, usqrt) for q_k in range(1, 7)]
        pairs += [(pf.lambda_mu_policy(0.4, 2.0 ** -k, eps=0.05, K=10), csq, ident)
                  for k in range(4, 13)]
        base = 1000 + 40 * seed
        return {"pairs": [(p, c, u, sim.SimConfig(10000.0, 10, base + i, 0.1))
                          for i, (p, c, u) in enumerate(pairs)],
                "hits_min": SIM_HITS_DEFAULT_SEED if seed == DEFAULT_SEED
                else SIM_HITS_OTHER_SEED}

    def items(self, inputs):
        return ["pair %d" % i for i in range(len(inputs["pairs"]))]

    def run(self, inputs, p):
        out = []
        for i, (pol, c, u, cfg) in enumerate(inputs["pairs"]):
            key = "pair %d" % i
            m = p.call(key, birth_death.exact_metrics, pol, c, u)
            est = p.call(key, sim.simulate, pol, cfg, c, u)
            out.append((m, est))
        return out

    def _hits(self, out):
        return sum(1 for m, e in out if m is not None and e is not None
                   and abs(e.qbar - m.qbar) <= 3 * e.qbar_halfwidth
                   and abs(e.cbar - m.cbar) <= 3 * e.cbar_halfwidth)

    def check(self, inputs, out):
        problems = [("pair %d" % i, "non-finite estimate")
                    for i, (m, e) in enumerate(out)
                    if e is not None and not all(map(math.isfinite, e))]
        hits = self._hits(out)
        if hits < inputs["hits_min"]:
            problems.append((None, "%d of %d pairs within 3x CI, need %d"
                             % (hits, len(out), inputs["hits_min"])))
        return problems

    def digest(self, out):
        # estimates are left out: a faster simulator may draw its random
        # numbers in another order, which changes them but not the exact side
        return [None if m is None else [m.qbar, m.cbar, m.ubar] for m, _ in out]

    def stats(self, inputs, out):
        events = sum(cfg.horizon * (m.mean_arrival + m.mean_service) * cfg.replications
                     for (_, _, _, cfg), (m, _) in zip(inputs["pairs"], out)
                     if m is not None)
        return {"sim.events": events, "sim.ci_hits": self._hits(out)}


WORKLOADS = {w.name: w for w in (TraceMenu(), TraceAdmission(), SweepAudit(), Simulate())}
