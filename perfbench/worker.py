"""Workload process of the qtl benchmark: set-up, timed passes, checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

Imports ``qtl`` and ``qtl.cli`` from ``src/`` of the checkout, builds the
inputs and prints ``READY {...}``, then ``CAL <seconds>``, one calibration
burst.  With ``--probe`` it stops there; run.py times the READY line from a
fresh interpreter as the set-up and rescales it by the burst.  Otherwise it runs
passes over the workload until the next one would end after ``--seconds``,
checks every pass's outputs outside the timed region, and prints one
``RESULT {...}`` line.  A traced run (``--trace 1``) makes an untraced
warm-up pass, then alternates traced and untraced passes, to measure the
tracing overhead; it installs the tracer only for its traced passes.

run.py starts this process with one BLAS thread and QTL_THREADS unset.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import sys
import time

from tracer import EXACT, Tracer, median, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CAL_INTERVAL_S = 0.5
# entry points called every few ms to every 0.2 s by every workload
CAL_POINTS = (("mdp", "solve"), ("birth_death", "stationary"),
              ("scaling", "stationary"), ("sim", "simulate"))
CAL_REF_S = 0.01        # kernel time that defines the reference host speed
MIN_COVERAGE = 0.9      # share of a traced pass its top-level spans must cover


def _blas_threads(np):
    """Thread count reported by the OpenBLAS numpy ships with, else None."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for lib in glob.glob(os.path.join(site, "numpy.libs", "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


class Calibration:
    """Host-speed probe timed between calls, to rescale pass times.

    The host's speed drifts by up to a factor 1.5 within a minute (other
    tenants, not steal).  A fixed kernel shaped like qtl's hot loops (a
    Python log-space recursion appending to a list, then a numpy exp over
    2^18 floats) is timed in a burst of 3 before a pass, after
    it, and at the first calibration point that comes CAL_INTERVAL_S after
    the last burst.  Calibration points are the requests and, in an
    untraced run, the calls of CAL_POINTS.  Each
    stretch of the pass between two bursts is scaled by
    CAL_REF_S / (mean kernel time of its two bursts); burst time itself is
    not part of the pass.
    """

    def __init__(self, np):
        self._array = np.linspace(0.0, 1.0, 2 ** 18)
        self._np = np
        self.bursts = []        # (start, end, kernel seconds)

    def _kernel(self):
        logf = [0.0]
        for _ in range(30000):
            logf.append(logf[-1] + math.log(0.39) - math.log(0.4))
        return logf[-1] + float(self._np.exp(self._array - 0.5).sum())

    def burst(self):
        start = time.perf_counter()
        runs = []
        for _ in range(3):
            t = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - t)
        self.bursts.append((start, time.perf_counter(), median(runs)))

    def maybe(self, key=None):
        if time.perf_counter() - self.bursts[-1][1] >= CAL_INTERVAL_S:
            self.burst()

    def interleave(self):
        """Make the CAL_POINTS functions the checkout has calibration points."""
        for module, name in CAL_POINTS:
            mod = sys.modules.get("qtl." + module)
            fn = getattr(mod, name, None)
            if fn is not None:
                setattr(mod, name, self._point(fn))

    def _point(self, fn):
        def point(*args, **kwargs):
            self.maybe()
            return fn(*args, **kwargs)
        return point

    def pass_times(self, first):
        """(raw, rescaled) seconds of the pass whose bursts start at ``first``."""
        raw = ref = 0.0
        marks = self.bursts[first:]
        for (_, end, c0), (start, _, c1) in zip(marks, marks[1:]):
            raw += start - end
            ref += (start - end) * CAL_REF_S / (0.5 * (c0 + c1))
        return raw, ref


def overhead(untraced, traced):
    """Median of traced minus untraced time over adjacent passes.

    The passes alternate traced[0], untraced[0], traced[1], untraced[1], ...
    so traced[i] sits between untraced[i-1] and untraced[i]."""
    return median([t - u for i, t in enumerate(traced)
                   for u in untraced[max(0, i - 1):i + 1]])


def _aggregate(per_pass, problems):
    """Exact counts must agree on every pass; timings are medians."""
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name in EXACT:
            if len(set(values)) > 1:
                problems.append("count %s differs between passes: %s" % (name, values))
            out[name] = values[0]
        else:
            out[name] = median(values)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qtl
    import qtl.cli  # noqa: F401  (part of what every cold qtl call pays)
    t1 = time.perf_counter()
    if not os.path.abspath(qtl.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit("qtl imported from %s, not from this checkout" % qtl.__file__)
    import workloads
    w = workloads.WORKLOADS[args.workload]
    inputs = w.build(args.seed)
    t2 = time.perf_counter()
    print("READY " + json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)
    import numpy
    cal = Calibration(numpy)
    cal.burst()
    print("CAL %r" % cal.bursts[-1][2], flush=True)
    if args.probe:
        return 0

    import scipy

    ref = None
    if args.seed == workloads.DEFAULT_SEED:
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)[w.name]

    tracer = Tracer() if args.trace else None
    if tracer is None:
        cal.interleave()
    items = w.items(inputs)
    walls, ref_walls, traced_walls, traced_ref, per_pass = [], [], [], [], []
    attempted = failed = 0
    fail_types = {}
    problems = []
    first_digest = None
    start = time.perf_counter()
    while True:
        # A traced run alternates: untraced warm-up, traced, untraced, ...
        # Its bursts come only between requests, so no span is interrupted.
        traced = tracer is not None and (len(walls) + len(traced_walls)) % 2 == 1
        if traced:
            tracer.install()
            first = tracer.begin_pass()
            p = workloads.Pass(lambda key: (cal.maybe(), tracer.mark(key)))
        else:
            p = workloads.Pass(cal.maybe)
        first_burst = len(cal.bursts)
        cal.burst()
        out = w.run(inputs, p)
        cal.burst()
        if traced:
            tracer.end_pass()
            tracer.uninstall()
        wall, ref_wall = cal.pass_times(first_burst)

        # checks, outside the timed region
        bad, found = workloads.outcome(w, inputs, out, p)
        problems += found
        attempted += len(items)
        failed += len(bad)
        for reason in bad.values():
            kind = reason.partition(":")[0]
            fail_types[kind] = fail_types.get(kind, 0) + 1
        digest = w.digest(out)
        if first_digest is None:
            first_digest = digest
            if ref is not None:
                problems += ["reference " + d for d in workloads.compare(digest, ref)]
        elif digest != first_digest:
            problems.append("outputs differ between passes")
        if traced:
            counts = tracer.counts.copy()
            counts.update(w.stats(inputs, out))
            per_pass.append(layer_metrics(tracer.spans[first:], counts, wall))
            traced_walls.append(wall)
            traced_ref.append(ref_wall)
        else:
            walls.append(wall)
            ref_walls.append(ref_wall)
        # the program would not hold this pass's outputs during the next one
        del out

        elapsed = time.perf_counter() - start
        last = elapsed / (len(walls) + len(traced_walls))
        if tracer is not None and len(walls) < 2:
            continue
        if elapsed + last > args.seconds:
            break

    result = {
        "walls": walls,
        "ref_walls": ref_walls,
        "host_speed": CAL_REF_S / median([b[2] for b in cal.bursts]),
        "attempted": attempted,
        "failed": failed,
        "fail_types": fail_types,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "blas_threads": _blas_threads(numpy)},
    }
    if tracer is not None:
        layers = _aggregate(per_pass, problems)
        layers["trace.overhead_s"] = overhead(ref_walls[1:], traced_ref)
        if layers["trace.coverage"] < MIN_COVERAGE:
            problems.append("top-level spans cover %.3f of the traced pass, need %g"
                            % (layers["trace.coverage"], MIN_COVERAGE))
        result["layers"] = layers
        result["traced_walls"] = traced_walls
        result["traced_ref_walls"] = traced_ref
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "spans-%s-%d.jsonl" % (w.name, args.seed)))
    result["problems"] = problems[:50]
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
