"""Record the default-seed outputs of every workload in reference.json.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known good; the benchmark then
compares each default-seed run against this file (workloads.compare).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    ref = {}
    for name, w in workloads.WORKLOADS.items():
        inputs = w.build(workloads.DEFAULT_SEED)
        p = workloads.Pass()
        out = w.run(inputs, p)
        bad, problems = workloads.outcome(w, inputs, out, p)
        if bad or problems:
            raise SystemExit("%s fails its checks: %s %s" % (name, bad, problems))
        ref[name] = w.digest(out)
        print("%s: recorded" % name, flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
