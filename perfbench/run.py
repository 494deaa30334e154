"""qtl benchmark: one workload (or all of them), end to end or traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  For each workload it starts SETUP_SAMPLES
fresh interpreters that import qtl and build the inputs, the last of which
goes on to run the timed passes (worker.py).  Earlier lines of standard
output describe the environment and every metric by name and unit; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See NOTES.md for what each number means.

The workload processes get one BLAS thread and no QTL_THREADS.  This
process imports neither numpy nor qtl, so it stays small and the peak RSS
a worker inherits from it is negligible.
"""

import argparse
import json
import os
import subprocess
import sys
import time

from tracer import PER_LAYER, median
from worker import CAL_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("trace_menu", "trace_admission", "sweep_audit", "simulate")
SETUP_SAMPLES = 5
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]
GRACE_S = 150           # a worker may overrun --seconds by its last pass


def _env():
    env = dict(os.environ)
    env.pop("QTL_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, deadline):
    """Start worker.py; return (seconds to READY, READY data, rest of stdout).

    The READY data gains ``cal_s``, the worker's first calibration burst."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=_env()) as proc:
        try:
            line = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or not line.startswith("READY "):
        raise RuntimeError("worker %s exited with %s" % (args, proc.returncode))
    ready = json.loads(line[6:])
    ready["cal_s"] = float(rest.split("CAL ", 1)[1].split("\n", 1)[0])
    return ready_s, ready, rest


def run_workload(name, seed, seconds, trace):
    """Set-up samples plus one measured run; returns the worker's RESULT dict."""
    common = ["--workload", name, "--seed", str(seed)]
    deadline = time.monotonic() + seconds + GRACE_S
    setups = [_spawn(common + ["--probe"], deadline)[:2]
              for _ in range(SETUP_SAMPLES - 1)]
    ready_s, ready, rest = _spawn(
        common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append((ready_s, ready))
    results = [ln[7:] for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if not results:
        raise RuntimeError("worker for %s printed no result" % name)
    res = json.loads(results[-1])
    res["setups"] = [s for s, _ in setups]
    res["setup_s"] = median([s * CAL_REF_S / r["cal_s"] for s, r in setups])
    res["import_s"] = median([r["import_s"] for _, r in setups])
    res["inputs_s"] = median([r["inputs_s"] for _, r in setups])
    return res


def _metrics(res, trace):
    if trace:
        layers = dict(res["layers"])
        layers["cli.import_s"] = res["import_s"]
        layers["setup.inputs_s"] = res["inputs_s"]
        return {n: (float(layers[n]), unit) for n, unit, _ in PER_LAYER}
    values = {"wall_s": median(res["ref_walls"]), "setup_s": res["setup_s"],
              "peak_rss_mb": res["peak_rss_mb"]}
    return {n: (values[n], unit) for n, unit in END_TO_END}


def _report(name, res, metrics, trace):
    print("%s: %d untraced passes of %s s; set-up median of %d" % (
        name, len(res["walls"]), ", ".join("%.3f" % w for w in res["walls"]),
        len(res["setups"])))
    if trace:
        print("%s: %d traced passes of %s s, alternating with the untraced ones "
              "after the first" % (name, len(res["traced_walls"]),
                                   ", ".join("%.3f" % w for w in res["traced_walls"])))
    for metric, (value, unit) in metrics.items():
        note = " (computed)" if metric == "sim.events" else ""
        print("  %-40s %14.6g %s%s" % (metric, value, unit, note))
    if not trace:
        print("  %-40s %14.6g s (host speed %.3f of reference)" % (
            "wall_raw_s", median(res["walls"]), res["host_speed"]))
    print("  %-40s %14.6g s" % ("setup_raw_s", median(res["setups"])))
    attempted, failed = res["attempted"], res["failed"]
    print("  %-40s %14.6g ratio (%d of %d items%s)" % (
        "fail_frac", failed / attempted, failed, attempted,
        "".join(", %s %d" % kv for kv in sorted(res["fail_types"].items()))))
    for problem in res["problems"]:
        print("  CHECK FAILED: %s" % problem)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qtl", "__init__.py")):
        print("run.py: no qtl sources at %s; run from the root of a qtl checkout"
              % os.path.join(ROOT, "src", "qtl"), file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        env = dict(res["env"], nproc=os.cpu_count(),
                   affinity=len(os.sched_getaffinity(0)))
        print("detail " + json.dumps({
            "workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "walls": res["walls"],
            "ref_walls": res["ref_walls"], "host_speed": res["host_speed"],
            "traced_walls": res.get("traced_walls", []), "setups": res["setups"],
            "fail_types": res["fail_types"]}, sort_keys=True))
        m = _metrics(res, args.trace)
        _report(name, res, m, args.trace)
        correct = correct and not res["problems"] and res["failed"] == 0
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
