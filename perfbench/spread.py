"""Run-to-run spread of the end-to-end metrics over seeds 1..RUNS.

    python3 perfbench/spread.py --runs 10 [--baseline perfbench/baseline.json]

Runs ``run.py`` once per seed and workload, exactly as BENCHMARK.json's
command does with its run_seconds, and prints per metric the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, next to the metric's bound, and the same for the raw pass time.
The rescaled pass times of all runs are pooled into a median and the
highest percentile with at least ten passes beyond it.
With ``--baseline`` the summary is also written to that file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values), "n": len(values),
            "values": values}


def _pooled(walls):
    v = sorted(walls)
    tail = v[len(v) - 11] if len(v) >= 11 else None
    pct = 100.0 * (len(v) - 10) / len(v) if len(v) >= 11 else None
    return {"median": statistics.median(v), "tail": tail, "tail_pct": pct, "n": len(v)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--baseline")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": seconds, "seeds": [1, args.runs], "workloads": {}}
    for name in [w["name"] for w in bench["workloads"]]:
        values, walls, raw, bad = {}, [], [], []
        for seed in range(1, args.runs + 1):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 check=True).stdout.splitlines()
            res = json.loads(out[-1])
            detail = json.loads(next(ln for ln in out if ln.startswith("detail "))[7:])
            report.setdefault("env", detail["env"])
            walls += detail["ref_walls"]
            raw.append(statistics.median(detail["walls"]))
            if not res["correct"] or res["failed"]:
                bad.append(seed)
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print("%s seed %d: %s" % (name, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())),
                flush=True)
        summary = {m: _summary(v) for m, v in values.items()}
        # pass time before rescaling to reference host speed, for comparison
        summary["wall_raw_s"] = _summary(raw)
        summary["passes"] = _pooled(walls)
        summary["incorrect_seeds"] = bad
        report["workloads"][name] = summary
        for metric, s in summary.items():
            if metric in bounds or metric == "wall_raw_s":
                print("  %-12s median %.5g  q1 %.5g  q3 %.5g  spread %.3f  bound %.2f%s" % (
                    metric, s["median"], s["q1"], s["q3"], s["iqr_share"],
                    bounds.get(metric, 0.0),
                    "" if s["iqr_share"] < bounds.get(metric, 0.0) / 3 else "  WIDE"))
        p = summary["passes"]
        print("  passes: %d, median %.4g s, p%.1f %s s; incorrect seeds %s" % (
            p["n"], p["median"], p["tail_pct"] or 0, p["tail"], bad), flush=True)
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
