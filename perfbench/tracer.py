"""Spans around the public functions of every qtl layer.

``Tracer.install`` rebinds each public function of the layer modules, in
its own module and in every ``qtl`` module that imported it by name, to a
wrapper that records a span: id, name, start, end, parent span, request id
and the exception type if the call raised.  Spans are kept in memory and
written out by ``write`` when the run ends.  Nothing under ``src/qtl`` is
edited, so calls between private helpers stay invisible.
"""

import collections
import functools
import inspect
import json
import sys
import time

LAYERS = ("rate_functions", "birth_death", "mdp", "policy_families", "scaling", "sim")

# call sites whose spans get a name of their own: trace_tradeoff's exact
# re-evaluation of each solved policy
ALIASES = {("mdp", "exact_metrics"): "mdp.reeval"}


def _policy_states(args, policy):
    return {"policy_families.states": policy.horizon + 1}


# counts recorded at the same boundaries as the spans
HOOKS = {
    "mdp.solve": lambda args, r: {
        "mdp.iterations": r.iterations,
        "mdp.state_iters": r.iterations * (args[0].state_cap + 1)},
    "birth_death.stationary": lambda args, r: {
        "birth_death.states": r.q_max - r.q_lo + 1},
    "scaling.audit_lower_bound": lambda args, r: {
        "scaling.audit.checks": sum(1 for c in r if c.applicable)},
    "sim.simulate": lambda args, r: {"sim.replications": args[1].replications},
}

# every per-layer metric, in BENCHMARK.json order: (name, unit, better)
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("mdp.trace_tradeoff.busy_s", "s", "lower"),
    ("mdp.trace_tradeoff.self_s", "s", "lower"),
    ("mdp.solve.calls", "count", "lower"),
    ("mdp.solve.busy_s", "s", "lower"),
    ("mdp.solve.p50_ms", "ms", "lower"),
    ("mdp.solve.tail_ms", "ms", "lower"),
    ("mdp.iterations", "count", "lower"),
    ("mdp.iter_ms", "ms", "lower"),
    ("mdp.state_iters", "count", "lower"),
    ("mdp.reeval.busy_s", "s", "lower"),
    ("birth_death.stationary.calls", "count", "lower"),
    ("birth_death.stationary.busy_s", "s", "lower"),
    ("birth_death.states", "count", "lower"),
    ("birth_death.ns_per_state", "ns", "lower"),
    ("birth_death.metrics.busy_s", "s", "lower"),
    ("birth_death.qlength_upper_bound.busy_s", "s", "lower"),
    ("policy_families.calls", "count", "lower"),
    ("policy_families.busy_s", "s", "lower"),
    ("policy_families.states", "count", "lower"),
    ("scaling.sweep.self_s", "s", "lower"),
    ("scaling.audit.calls", "count", "lower"),
    ("scaling.audit.busy_s", "s", "lower"),
    ("scaling.audit.self_s", "s", "lower"),
    ("scaling.audit.checks", "count", "higher"),
    ("scaling.classify.busy_s", "s", "lower"),
    ("sim.simulate.calls", "count", "lower"),
    ("sim.simulate.busy_s", "s", "lower"),
    ("sim.replications", "count", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.ci_hits", "count", "higher"),
    ("rate_functions.evaluate.calls", "count", "lower"),
    ("rate_functions.evaluate.busy_s", "s", "lower"),
] + [("%s.errors" % layer, "count", "lower") for layer in LAYERS] + [
    ("trace.spans", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]

# per-layer metrics that are exact counts: equal on every pass of a run
EXACT = {name for name, unit, _ in PER_LAYER if unit == "count"}


class Tracer:
    """Records spans while ``active``; otherwise the wrappers only forward."""

    def __init__(self):
        self.active = False
        self.item = None
        self.spans = []
        self.counts = collections.Counter()
        self._next = 0
        self._stack = []
        self._undo = []

    def mark(self, item):
        self.item = item

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        if name.startswith("policy_families."):
            hook = _policy_states

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, self.item, error))
            if hook is not None:
                self.counts.update(hook(args, result))
            return result

        return traced

    def install(self):
        """Rebind every public layer function wherever qtl imported it."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules["qtl." + layer]
            for fname, obj in vars(mod).items():
                if (not fname.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[obj] = "%s.%s" % (layer, fname)
        wrappers = {}
        qtl_modules = [m for n, m in list(sys.modules.items())
                       if n == "qtl" or n.startswith("qtl.")]
        for mod in qtl_modules:
            short = mod.__name__.rpartition(".")[2]
            for gname, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj not in originals:
                    continue
                name = ALIASES.get((short, obj.__name__), originals[obj])
                if (name, obj) not in wrappers:
                    wrappers[(name, obj)] = self._wrap(name, obj)
                self._undo.append((mod, gname, obj))
                setattr(mod, gname, wrappers[(name, obj)])

    def uninstall(self):
        while self._undo:
            mod, gname, obj = self._undo.pop()
            setattr(mod, gname, obj)

    def begin_pass(self):
        """Start a traced pass; returns the index of its first span."""
        self.counts = collections.Counter()
        self.active = True
        return len(self.spans)

    def end_pass(self):
        self.active = False
        self.item = None

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def tail(values):
    """Highest order statistic with at least 10 samples beyond it (max below 11)."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[len(v) - 11] if len(v) >= 11 else v[-1]


def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        return 0.0
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def layer_metrics(spans, counts, wall):
    """Per-layer numbers of one traced pass of ``wall`` seconds."""
    by_id = {s[0]: s for s in spans}
    child = collections.defaultdict(float)
    for sid, name, start, end, parent, item, error in spans:
        if parent is not None:
            child[parent] += end - start
    calls = collections.Counter()
    busy = collections.defaultdict(float)
    own = collections.defaultdict(float)
    durations = collections.defaultdict(list)
    layer_busy = collections.defaultdict(float)
    layer_calls = collections.Counter()
    errors = collections.Counter()
    top = 0.0
    for sid, name, start, end, parent, item, error in spans:
        d = end - start
        calls[name] += 1
        busy[name] += d
        own[name] += d - child[sid]
        durations[name].append(d)
        if parent is None:
            top += d
        layer = name.partition(".")[0]
        # outermost span of its layer: no ancestor belongs to the same layer
        up = parent
        while up is not None and by_id[up][1].partition(".")[0] != layer:
            up = by_id[up][4]
        if up is None:
            layer_busy[layer] += d
            layer_calls[layer] += 1
            if error is not None:
                errors[layer] += 1

    solve_ms = [1e3 * d for d in durations["mdp.solve"]]
    iters = counts["mdp.iterations"]
    states = counts["birth_death.states"]
    events = counts["sim.events"]
    sim_busy = busy["sim.simulate"]
    m = {
        "mdp.trace_tradeoff.busy_s": busy["mdp.trace_tradeoff"],
        "mdp.trace_tradeoff.self_s": own["mdp.trace_tradeoff"],
        "mdp.solve.calls": calls["mdp.solve"],
        "mdp.solve.busy_s": busy["mdp.solve"],
        "mdp.solve.p50_ms": median(solve_ms),
        "mdp.solve.tail_ms": tail(solve_ms),
        "mdp.iterations": iters,
        "mdp.iter_ms": 1e3 * busy["mdp.solve"] / iters if iters else 0.0,
        "mdp.state_iters": counts["mdp.state_iters"],
        "mdp.reeval.busy_s": busy["mdp.reeval"],
        "birth_death.stationary.calls": calls["birth_death.stationary"],
        "birth_death.stationary.busy_s": busy["birth_death.stationary"],
        "birth_death.states": states,
        "birth_death.ns_per_state":
            1e9 * busy["birth_death.stationary"] / states if states else 0.0,
        "birth_death.metrics.busy_s": busy["birth_death.metrics"],
        "birth_death.qlength_upper_bound.busy_s": busy["birth_death.qlength_upper_bound"],
        "policy_families.calls": layer_calls["policy_families"],
        "policy_families.busy_s": layer_busy["policy_families"],
        "policy_families.states": counts["policy_families.states"],
        "scaling.sweep.self_s": own["scaling.sweep"],
        "scaling.audit.calls": calls["scaling.audit_lower_bound"],
        "scaling.audit.busy_s": busy["scaling.audit_lower_bound"],
        "scaling.audit.self_s": own["scaling.audit_lower_bound"],
        "scaling.audit.checks": counts["scaling.audit.checks"],
        "scaling.classify.busy_s": busy["scaling.classify_regime"],
        "sim.simulate.calls": calls["sim.simulate"],
        "sim.simulate.busy_s": sim_busy,
        "sim.replications": counts["sim.replications"],
        "sim.events": events,
        "sim.events_per_s": events / sim_busy if sim_busy else 0.0,
        "sim.ci_hits": counts["sim.ci_hits"],
        "rate_functions.evaluate.calls": calls["rate_functions.evaluate"],
        "rate_functions.evaluate.busy_s": busy["rate_functions.evaluate"],
        "trace.spans": len(spans),
        "trace.coverage": top / wall if wall > 0 else 0.0,
    }
    for layer in LAYERS:
        m["%s.errors" % layer] = errors[layer]
    return m
