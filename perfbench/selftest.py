"""Self-test of the benchmark harness (not of qtl).

    python3 perfbench/selftest.py

Runs default-seed passes of trace_admission (about 3 s each) and checks that
  * the recorded reference matches, and a perturbed value or policy piece
    in it is reported by the output check;
  * an exception of a type qtl does not expect, injected into mdp.solve,
    is charged to every item of the call with its type, and the pass ends;
  * a ValueError injected into one solve becomes one TraceFailure item;
  * the tracer rebinds names imported across layers and restores them, and
    can be installed again;
  * the tracing overhead pairs each traced pass with its untraced neighbours.
Exits 1 on the first unmet expectation.
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from qtl import birth_death, mdp, scaling  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import overhead  # noqa: E402


def expect(ok, what):
    print("%s: %s" % ("ok" if ok else "FAILED", what), flush=True)
    if not ok:
        raise SystemExit(1)


def _failing_solve(call_no, exc_type):
    real = mdp.solve
    calls = [0]

    def solve(*args, **kwargs):
        calls[0] += 1
        if calls[0] == call_no:
            raise exc_type("injected by selftest")
        return real(*args, **kwargs)
    return real, solve


def main():
    w = workloads.WORKLOADS["trace_admission"]
    inputs = w.build(workloads.DEFAULT_SEED)
    n = len(w.items(inputs))
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)[w.name]

    p = workloads.Pass()
    out = w.run(inputs, p)
    bad, problems = workloads.outcome(w, inputs, out, p)
    digest = w.digest(out)
    expect(not bad and not problems, "clean pass has no failed item or problem")
    expect(workloads.compare(digest, ref) == [], "outputs match the reference")

    bumped = copy.deepcopy(ref)
    bumped[7]["c_c"] *= 1 + 10 * workloads.RTOL
    diffs = workloads.compare(digest, bumped)
    expect(len(diffs) == 1 and "c_c" in diffs[0], "perturbed c_c is reported")
    moved = copy.deepcopy(ref)
    moved[3]["policy"]["mu"]["pieces"][-1][0] += 1
    expect(len(workloads.compare(digest, moved)) == 1, "moved policy piece is reported")
    broken = [pt._replace(c_c=pt.c_c + 1.0) if pt.beta1 == inputs["beta1"][4]
              else pt for pt in out.values()]
    _, problems = workloads.outcome(
        w, inputs, {(pt.beta1, pt.beta2): pt for pt in broken}, workloads.Pass())
    expect(bool(problems), "broken Lagrangian monotonicity is reported")

    real, solve = _failing_solve(5, ZeroDivisionError)
    mdp.solve = solve
    try:
        p = workloads.Pass()
        out = w.run(inputs, p)
    finally:
        mdp.solve = real
    bad, _ = workloads.outcome(w, inputs, out, p)
    expect(len(bad) == n and all(r.startswith("ZeroDivisionError") for r in bad.values()),
           "injected ZeroDivisionError fails all %d items, typed" % n)

    real, solve = _failing_solve(5, ValueError)
    mdp.solve = solve
    try:
        p = workloads.Pass()
        out = w.run(inputs, p)
    finally:
        mdp.solve = real
    bad, _ = workloads.outcome(w, inputs, out, p)
    expect(len(bad) == 1 and next(iter(bad.values())).startswith("TraceFailure"),
           "injected ValueError is one TraceFailure item")

    originals = (scaling.stationary, mdp.exact_metrics, birth_death.evaluate)
    tracer = Tracer()
    tracer.install()
    wrapped = (scaling.stationary, mdp.exact_metrics, birth_death.evaluate)
    expect(all(getattr(f, "__wrapped__", None) is o for f, o in zip(wrapped, originals)),
           "tracer rebinds scaling.stationary, mdp.exact_metrics, birth_death.evaluate")
    tracer.begin_pass()
    mdp.exact_metrics(birth_death.constant_policy(0.4, 1.0), inputs["base"].cost_fn)
    tracer.end_pass()
    names = [s[1] for s in tracer.spans]
    expect(names[-1] == "mdp.reeval" and "birth_death.stationary" in names,
           "spans nest under mdp.reeval")
    tracer.uninstall()
    expect((scaling.stationary, mdp.exact_metrics, birth_death.evaluate) == originals,
           "tracer restores the original functions")
    tracer.install()
    once = scaling.stationary.__wrapped__ is originals[0]
    tracer.uninstall()
    expect(once and scaling.stationary is originals[0],
           "a second install wraps the originals once, and is undone")
    # passes run traced 11, untraced 10, traced 13, untraced 12, traced 14
    expect(overhead([10.0, 12.0], [11.0, 13.0, 14.0]) == 1.5,
           "overhead is the median over adjacent traced/untraced passes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
