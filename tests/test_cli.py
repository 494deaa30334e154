import json
import math
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import qtl
from qtl.cli import _strict_json, main

CSQ = '{"kind": "power", "domain": [0, 1], "exponent": 2}'
USQRT = '{"kind": "power", "domain": [0, 1], "exponent": 0.5}'
IDENT = '{"kind": "power", "domain": [0, 1], "exponent": 1}'
POINTS = '[[0,0],[0.2,0.04],[0.4,0.16],[0.5,0.25],[0.6,0.36],[0.8,0.64],[1,1]]'
MM1 = json.dumps({"lambda": {"pieces": [[0, 0, 0.4]], "tail": 0.4},
                  "mu": {"pieces": [[0, 0, 0.0]], "tail": 1.0}})


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, code=0):
    res = runner.invoke(main, args, catch_exceptions=False)
    assert res.exit_code == code, res.output + str(res.stderr)
    return res


def test_envelope(runner):
    res = invoke(runner, ["envelope", "--points", POINTS,
                          "--at", "0.39", "--at", "0.41"])
    doc = json.loads(res.output)
    assert len(doc["corners"]) == 7
    assert doc["values"]["0.39"] == pytest.approx(0.154)
    assert doc["values"]["0.41"] == pytest.approx(0.169)


def test_envelope_schema_error(runner):
    res = runner.invoke(main, ["envelope", "--points", "not json"])
    assert res.exit_code == 2
    err = json.loads(res.stderr)
    assert err["error"]["type"] == "schema"


def test_envelope_domain_error(runner):
    res = runner.invoke(main, ["envelope", "--points", "[[0, 0]]"])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"]["type"] == "domain"


def test_feasibility(runner):
    res = invoke(runner, ["feasibility", "--cost", CSQ, "--utility", USQRT,
                          "--cc", "0.16", "--uc", "0.6"])
    assert json.loads(res.output)["status"] == "feasible"
    res = invoke(runner, ["feasibility", "--cost", CSQ, "--utility", IDENT,
                          "--cc", "0.25", "--uc", "0.5"])
    assert json.loads(res.output)["status"] == "boundary"
    res = invoke(runner, ["feasibility", "--cost", CSQ, "--utility", USQRT,
                          "--cc", "0.01", "--uc", "0.9"])
    assert json.loads(res.output)["status"] == "infeasible"


def test_eval(runner):
    res = invoke(runner, ["eval", "--policy", MM1, "--cost", CSQ,
                          "--utility", IDENT])
    doc = json.loads(res.output)
    assert doc["qbar"] == pytest.approx(2.0 / 3.0, abs=1e-11)
    assert doc["cbar"] == pytest.approx(0.4, abs=1e-11)
    assert doc["ubar"] == pytest.approx(0.4, abs=1e-11)
    assert doc["qbar_upper_bound"] >= doc["qbar"]


def test_eval_billion_state_policy(runner):
    # a billion states at rho = 0.8 are three segments, not a refused window
    huge = json.dumps({"lambda": {"pieces": [[0, 10 ** 9, 0.4]], "tail": 0.4},
                       "mu": {"pieces": [[1, 10 ** 9, 0.5]], "tail": 0.5}})
    res = invoke(runner, ["eval", "--policy", huge, "--cost", CSQ])
    assert json.loads(res.output)["qbar"] == pytest.approx(4.0, rel=1e-12)


def test_eval_without_drift_bound(runner):
    # state 3 is the one recurrent state (no arrivals, no service there),
    # and no state serves faster than it admits: no drift bound, infinite delay
    stuck = json.dumps({"lambda": {"pieces": [[0, 2, 0.5], [3, 3, 0.0]], "tail": 0.5},
                        "mu": {"pieces": [[0, 0, 0.0], [1, 2, 0.2], [3, 3, 0.0]],
                               "tail": 0.4}})
    doc = json.loads(invoke(runner, ["eval", "--policy", stuck, "--cost", CSQ]).output)
    assert doc["qbar"] == 3.0
    assert doc["qbar_upper_bound"] is None and doc["dbar"] == "inf"


def test_eval_at_file(runner, tmp_path):
    pol = tmp_path / "policy.json"
    pol.write_text(MM1)
    cst = tmp_path / "cost.json"
    cst.write_text(CSQ)
    res = invoke(runner, ["eval", "--policy", "@%s" % pol,
                          "--cost", "@%s" % cst])
    assert json.loads(res.output)["qbar"] == pytest.approx(2.0 / 3.0, abs=1e-11)


def test_missing_at_file(runner):
    res = runner.invoke(main, ["eval", "--policy", "@/no/such/file",
                               "--cost", CSQ])
    assert res.exit_code == 2
    assert "file not found" in json.loads(res.stderr)["error"]["message"]


def test_eval_domain_error(runner):
    unstable = json.dumps({"lambda": {"pieces": [], "tail": 1.0},
                           "mu": {"pieces": [], "tail": 0.5}})
    res = runner.invoke(main, ["eval", "--policy", unstable, "--cost", CSQ])
    assert res.exit_code == 1
    assert json.loads(res.stderr)["error"]["type"] == "domain"


# the drift bound needs the declared caps: for this policy it would read 1.2
# against an exact qbar of 9.0
OVER_BOUNDS = json.dumps({"lambda": {"pieces": [[0, 0, 0.9]], "tail": 0.9},
                          "mu": {"pieces": [[0, 0, 0.0]], "tail": 1.0},
                          "bounds": {"r_a_max": 0.01, "r_max": 0.01}})


@pytest.mark.parametrize("args", [
    ["eval"],
    ["audit", "--case", '{"family": "LC1"}', "--c-ref", "0.1"],
    ["simulate", "--horizon", "10"],
], ids=["eval", "audit", "simulate"])
def test_rates_above_declared_bounds_do_not_load(runner, args):
    res = runner.invoke(main, args + ["--policy", OVER_BOUNDS, "--cost", CSQ])
    assert res.stdout == "" and len(res.stderr.splitlines()) == 1
    assert error_of(res, 2) == ("bad policy: arrival rate 0.9 exceeds the declared "
                                "bound ra_max=0.01")


@pytest.mark.parametrize("piece", [
    ["a", 2, 0.3], [0, 2.7, 0.3], [True, 2, 0.3], [0, 2], [0, 2, 0.3, 4], [0, 2, None]])
def test_eval_bad_piece_schema_error(runner, piece):
    policy = json.dumps({"lambda": {"pieces": [piece], "tail": 0.4},
                         "mu": {"pieces": [], "tail": 1.0}})
    res = runner.invoke(main, ["eval", "--policy", policy, "--cost", CSQ])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"]["type"] == "schema"


@pytest.mark.parametrize("policy", [
    {"lambda": {"pieces": []}, "mu": {"pieces": [], "tail": 1.0}},
    {"lambda": {"tail": 0.4}, "mu": [1.0]},
    {"lambda": {"pieces": 3, "tail": 0.4}, "mu": {"tail": 1.0}},
    {"lambda": {"tail": "fast"}, "mu": {"tail": 1.0}},
    {"lambda": {"tail": 0.4}, "mu": {"tail": 1.0}, "bounds": {"r_max": [1]}},
    {"lambda": {"tail": 0.4}, "mu": {"tail": 1.0}, "meta": 5}])
def test_eval_bad_rule_schema_error(runner, policy):
    res = runner.invoke(main, ["eval", "--policy", json.dumps(policy), "--cost", CSQ])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"]["type"] == "schema"


@pytest.mark.parametrize("domain", [[0], [0, 1, 2], 1, ["a", 1], [True, 1], None])
def test_eval_bad_domain_schema_error(runner, domain):
    cost = json.dumps({"kind": "power", "domain": domain, "exponent": 2})
    res = runner.invoke(main, ["eval", "--policy", MM1, "--cost", cost])
    assert res.exit_code == 2
    assert json.loads(res.stderr)["error"]["type"] == "schema"


def test_solve(runner):
    res = invoke(runner, ["solve", "--cost", CSQ,
                          "--service-actions", "[1.0]",
                          "--arrival-actions", "[0.4]", "--beta1", "0"])
    doc = json.loads(res.output)
    assert doc["monotone"]
    assert doc["metrics"]["qbar"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert doc["policy"]["mu"]["tail"] == 1.0


def test_trace_csv(runner, tmp_path):
    out = tmp_path / "trace.csv"
    args = ["trace", "--cost", CSQ,
            "--service-actions", "[0.5, 1.0]", "--arrival-actions", "[0.4]",
            "--beta1-grid", "[0, 5]", "--state-cap", "200",
            "--out", str(out)]
    invoke(runner, args)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# qtl ")
    assert lines[1] == "beta1,beta2,c_c,u_c,q_star"
    assert len(lines) == 4
    # same invocation reproduces the same bytes, including the provenance hash
    again = tmp_path / "trace2.csv"
    invoke(runner, args[:-1] + [str(again)])
    assert again.read_text().splitlines()[0] == lines[0]
    assert again.read_text().splitlines()[1:] == lines[1:]


def test_trace_log_grid(runner):
    res = invoke(runner, ["trace", "--cost", CSQ,
                          "--service-actions", "[0.5, 1.0]",
                          "--arrival-actions", "[0.4]",
                          "--beta1-log", "1", "100", "3",
                          "--state-cap", "200"])
    rows = [l for l in res.output.splitlines()
            if l and not l.startswith("#") and not l.startswith("beta1")]
    assert len(rows) == 3
    betas = sorted(float(r.split(",")[0]) for r in rows)
    assert betas == pytest.approx([1.0, 10.0, 100.0])


def test_trace_unpriced_action_domain_error(runner):
    # a service rate the discrete cost has no sample for fails once, before
    # any grid point is solved, not as one failure record per point
    disc = json.dumps({"kind": "discrete", "points": json.loads(POINTS)})
    res = runner.invoke(main, ["trace", "--cost", disc,
                               "--service-actions", "[0.3, 1.0]",
                               "--arrival-actions", "[0.4]",
                               "--beta1-grid", "[1, 5]", "--state-cap", "50"])
    assert res.exit_code == 1 and res.stdout == ""
    err = json.loads(res.stderr)["error"]
    assert err == {"type": "domain",
                   "message": "rate 0.3 is not a sample of the discrete set"}


NO_POSITIVE_SERVICE = ["--cost", CSQ, "--service-actions", "[0]",
                       "--arrival-actions", "[0.3]", "--state-cap", "20"]


def test_trace_without_positive_service_domain_error(runner):
    # the problem is refused once, before any grid point, not as one
    # failure record per point under a header-only CSV and exit 0
    res = runner.invoke(main, ["trace", "--beta1-grid", "[1, 2, 3]"] + NO_POSITIVE_SERVICE)
    assert res.stdout == ""
    assert error_of(res, 1) == "service actions must include a positive rate"
    assert len(res.stderr.splitlines()) == 1
    res = runner.invoke(main, ["solve", "--beta1", "1"] + NO_POSITIVE_SERVICE)
    assert error_of(res, 1) == "service actions must include a positive rate"


def test_trace_beta2_without_utility_fails_once(runner, tmp_path):
    # one domain error and no CSV, not a header-only CSV with one identical
    # failure record per grid point and exit 0
    out = tmp_path / "trace.csv"
    res = runner.invoke(main, ["trace", "--cost", CSQ, "--service-actions", "[0.5, 1.0]",
                               "--arrival-actions", "[0.4]", "--beta1-grid", "[1, 2, 3]",
                               "--beta2-grid", "[1]", "--state-cap", "20", "--out", str(out)])
    assert len(res.stderr.splitlines()) == 1 and not out.exists()
    assert error_of(res, 1) == "beta2 > 0 needs a utility function"


@pytest.mark.parametrize("command", ["trace", "sweep"])
def test_provenance_hashes_the_text_of_file_inputs(runner, tmp_path, command):
    # an @file input hashes as its text inline would, so a changed file
    # changes the provenance line
    def provenance(cost):
        if command == "trace":
            args = ["trace", "--service-actions", "[0.5, 1.0]", "--arrival-actions", "[0.4]",
                    "--beta1-grid", "[1]", "--state-cap", "20"]
        else:
            args = ["sweep", "--family", "mc22", "--params", MC22, "--c-ref", "0.0",
                    "--dyadic", "4", "4"]
        return invoke(runner, args + ["--cost", cost]).stdout.splitlines()[0]

    cube = CSQ.replace('"exponent": 2', '"exponent": 3')
    spec = tmp_path / "c.json"
    spec.write_text(CSQ)
    square = provenance("@%s" % spec)
    spec.write_text(cube)
    assert square == provenance(CSQ)
    assert provenance("@%s" % spec) == provenance(cube) != square


def test_trace_needs_grid(runner):
    res = runner.invoke(main, ["trace", "--cost", CSQ,
                               "--service-actions", "[1.0]",
                               "--arrival-actions", "[0.4]"])
    assert res.exit_code == 2


def test_construct_eval_simulate_round_trip(runner, tmp_path):
    pol = tmp_path / "mc22.json"
    invoke(runner, ["construct", "--family", "mc22",
                    "--params",
                    '{"lam": 0.39, "a_lam": 0.2, "b_lam": 0.4, "U": 0.01}',
                    "--out", str(pol)])
    doc = json.loads(pol.read_text())
    assert doc["meta"]["family"] == "mc22" and doc["meta"]["q1"] == 6

    res = invoke(runner, ["eval", "--policy", "@%s" % pol, "--cost", CSQ])
    exact = json.loads(res.output)

    res = invoke(runner, ["simulate", "--policy", "@%s" % pol, "--cost", CSQ,
                          "--horizon", "20000", "--replications", "8",
                          "--seed", "3"])
    est = json.loads(res.output)
    assert abs(est["qbar"] - exact["qbar"]) <= 3 * est["qbar_halfwidth"]
    assert abs(est["cbar"] - exact["cbar"]) <= 3 * est["cbar_halfwidth"]


def test_construct_needs_scale(runner):
    res = runner.invoke(main, ["construct", "--family", "mc22",
                               "--params", '{"lam": 0.39}'])
    assert res.exit_code == 2


def test_construct_bad_params(runner):
    res = runner.invoke(main, ["construct", "--family", "mc22",
                               "--params", '{"lam": 0.39, "U": 0.01, "zz": 1}'])
    assert res.exit_code == 2


@pytest.mark.parametrize("args,name", [
    (["construct", "--family", "mc1", "--params",
      '{"lam": 0.5, "K": 0.3, "r_max": "x", "U": 0.01}'], "r_max"),
    (["construct", "--family", "mc1", "--params", '{"lam": 0.5, "r_max": "x", "U": 0.01}'],
     "r_max"),
    (["construct", "--family", "mc1", "--params", '{"lam": true, "K": 0.3, "U": 0.01}'],
     "lam"),
    (["sweep", "--family", "mc1", "--params", '{"lam": 0.5, "K": 0.3, "r_max": "x"}',
      "--cost", CSQ, "--c-ref", "0.25", "--dyadic", "4", "6"], "r_max"),
])
def test_family_params_must_be_numbers(runner, args, name):
    # one schema error before any point is built, wherever the value is used
    res = runner.invoke(main, args, catch_exceptions=False)
    assert res.stdout == ""
    assert error_of(res, 2).startswith("bad params: param '%s' must be a number" % name)


def test_family_params_null_and_lc_case(runner):
    # null is the constructor's default; lc's case is the one object param
    mc1 = json.loads(invoke(runner, ["construct", "--family", "mc1", "--params",
                                     '{"lam": 0.5, "K": null, "U": 0.01}']).stdout)
    assert mc1["meta"]["K"] == 0.25
    lc = json.loads(invoke(runner, ["construct", "--family", "lc", "--params",
                                    '{"mu": 0.5, "U": 0.01, "case": '
                                    '{"family": "LC2-1", "window": [0.4, 0.6]}}']).stdout)
    assert lc["meta"]["case"] == "LC2-1"


def test_sweep_csv(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    env = json.dumps({"kind": "piecewise", "points": json.loads(POINTS)})
    invoke(runner, ["sweep", "--family", "mc22",
                    "--params", '{"lam": 0.39, "a_lam": 0.2, "b_lam": 0.4}',
                    "--cost", env, "--c-ref", "0.154",
                    "--dyadic", "4", "8", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[1] == "U,V,qbar,ubar,cbar"
    assert len(lines) == 7
    first = [float(x) for x in lines[2].split(",")]
    assert first[0] == 0.0625 and first[1] > 0


def test_classify_json_samples(runner):
    vs = [10.0 ** -e for e in (1, 1.5, 2, 2.5, 3, 3.5, 4)]
    rows = [[v, v, 0.7 + 2.3 * math.log(1.0 / v), 0.0, 0.0] for v in vs]
    res = invoke(runner, ["classify", "--samples", json.dumps(rows),
                          "--regime", "log"])
    doc = json.loads(res.output)
    assert doc["model"] == "log-inv"
    assert doc["verdict"] == "matches"
    assert doc["residual"] < 1e-10


def test_classify_csv_file(runner, tmp_path):
    vs = [10.0 ** -e for e in (1, 1.5, 2, 2.5, 3, 3.5, 4)]
    lines = ["# qtl test deadbeef", "U,V,qbar,ubar,cbar"]
    for v in vs:
        lines.append("%.12g,%.12g,%.12g,0,0" % (v, v, 4.0 + 1.0 / v))
    path = tmp_path / "samples.csv"
    path.write_text("\n".join(lines) + "\n")
    res = invoke(runner, ["classify", "--samples", str(path)])
    doc = json.loads(res.output)
    assert doc["model"] == "inv"
    assert doc["verdict"] is None


def test_classify_bad_rows(runner, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n")
    res = runner.invoke(main, ["classify", "--samples", str(path)])
    assert res.exit_code == 2


def test_audit(runner):
    pol = json.dumps({"lambda": {"pieces": [[0, 0, 0.5]], "tail": 0.5},
                      "mu": {"pieces": [[0, 0, 0.0]], "tail": 1.0}})
    case = '{"family": "MC1", "window": [0, 1], "regime": "inv-sqrt", "anchor": 0.5}'
    res = invoke(runner, ["audit", "--policy", pol, "--cost", CSQ,
                          "--case", case, "--c-ref", "0.25"])
    checks = {c["name"]: c for c in json.loads(res.output)["checks"]}
    assert checks["rate-mass"]["passed"] is True
    assert checks["pi-zero"]["applicable"] is False


def test_audit_case_anchor_must_be_a_number(runner):
    res = runner.invoke(main, ["audit", "--policy", MM1, "--cost", CSQ, "--c-ref", "0.1",
                               "--case", '{"family": "MC1", "anchor": "0.5"}'])
    assert error_of(res, 2) == "bad case: anchor must be a number, got '0.5'"


@pytest.mark.parametrize("case,message", [
    ({"family": "MC1", "window": [0.2, "0.4"]}, "window_hi must be a number, got '0.4'"),
    ({"family": "LC2-1", "window": [0.2]},
     "case tag LC2-1: window must be a pair of numbers, got [0.2]"),
    ({"family": "MC1", "anchor": True}, "anchor must be a number, got True"),
])
def test_a_malformed_case_tag_is_one_schema_error_on_both_paths(runner, case, message):
    # the tag's shape is read by the library's own rule, in --case and in
    # the lc family's params alike
    audit = ["audit", "--policy", MM1, "--cost", CSQ, "--c-ref", "0.1",
             "--case", json.dumps(case)]
    lc = ["construct", "--family", "lc",
          "--params", json.dumps({"mu": 0.5, "U": 0.01, "case": case})]
    for args in (audit, lc):
        res = runner.invoke(main, args, catch_exceptions=False)
        assert error_of(res, 2) == "bad case: " + message


@pytest.mark.parametrize("tail", ["1.0000000005", "1.000000005"])
def test_audit_skips_pi_zero_outside_the_utility_domain(runner, tail):
    # evaluate takes rates up to 1e-12 past the domain; the skip reads the
    # same rule, so a top rate 5e-10 past it is skipped, not exit 1
    pol = json.dumps({"lambda": {"pieces": [], "tail": 0.4},
                      "mu": {"pieces": [[0, 0, 0.0]], "tail": float(tail)}})
    wide = '{"kind": "power", "domain": [0, 2], "exponent": 2}'
    res = invoke(runner, ["audit", "--policy", pol, "--cost", wide, "--utility", IDENT,
                          "--case", '{"family": "LC1"}', "--c-ref", "0.1"])
    (check,) = json.loads(res.stdout)["checks"]
    assert check["name"] == "pi-zero" and check["applicable"] is False
    assert check["note"] == "top service rate %s outside the utility domain" % tail


def test_simulate_deterministic(runner):
    args = ["simulate", "--policy", MM1, "--cost", CSQ,
            "--horizon", "300", "--replications", "3", "--seed", "9"]
    a = invoke(runner, args)
    b = invoke(runner, args)
    assert a.output == b.output
    doc = json.loads(a.output)
    assert doc["replications"] == 3


def test_simulate_unstable_domain_error(runner):
    # lambda one ulp below mu is refused as qtl eval refuses it
    for lam, mu in ((0.6, 0.5), (math.nextafter(0.4, 0), 0.4)):
        unstable = json.dumps({"lambda": {"pieces": [], "tail": lam},
                               "mu": {"pieces": [], "tail": mu}})
        res = runner.invoke(main, ["simulate", "--policy", unstable, "--cost", CSQ,
                                   "--horizon", "100"])
        assert res.exit_code == 1
        err = json.loads(res.stderr)["error"]
        assert err["type"] == "domain" and "unstable" in err["message"]


def test_simulate_horizon_past_the_resolution_of_doubles_domain_error(runner):
    # a horizon of 1e308 ended in an OverflowError traceback
    res = runner.invoke(main, ["simulate", "--policy", MM1, "--cost", CSQ,
                               "--horizon", "1e308"])
    assert res.exit_code == 1
    err = json.loads(res.stderr)["error"]
    assert err["type"] == "domain"
    assert err["message"].startswith("horizon must be below 2**52 / max(lambda + mu) = ")


def test_run_manifest(runner, tmp_path):
    out = tmp_path / "metrics.json"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "mode": "eval",
        "policy": json.loads(MM1),
        "cost": json.loads(CSQ),
        "out": str(out)}))
    invoke(runner, ["run", "--manifest", str(manifest)])
    assert json.loads(out.read_text())["qbar"] == pytest.approx(
        2.0 / 3.0, abs=1e-11)


def test_run_manifest_multi_value_keys(runner, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "mode": "envelope",
        "points": json.loads(POINTS),
        "at": [0.39]}))
    res = invoke(runner, ["run", "--manifest", str(manifest)])
    assert json.loads(res.output)["values"]["0.39"] == pytest.approx(0.154)


def test_run_manifest_errors(runner, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"nothing": 1}))
    assert runner.invoke(main, ["run", "--manifest", str(manifest)]).exit_code == 2
    manifest.write_text(json.dumps({"mode": "warp"}))
    assert runner.invoke(main, ["run", "--manifest", str(manifest)]).exit_code == 2
    manifest.write_text(json.dumps({"mode": "eval"}))
    assert runner.invoke(main, ["run", "--manifest", str(manifest)]).exit_code == 2


def test_version(runner):
    res = invoke(runner, ["--version"])
    assert "qtl" in res.output


def error_of(res, code):
    assert res.exit_code == code, res.output + str(res.stderr)
    err = json.loads(res.stderr.splitlines()[-1])["error"]
    assert err["type"] == {1: "domain", 2: "schema"}[code]
    return err["message"]


AUDIT_POLICY = json.dumps({"lambda": {"pieces": [[0, 0, 0.5]], "tail": 0.5},
                           "mu": {"pieces": [[0, 0, 0.0]], "tail": 1.0}})
LOG_GRID = ["--service-actions", "[1]", "--arrival-actions", "[0.4]"]


def mm1(rate=0.4, tail=0.4, r_max=1.0):
    return json.dumps({"lambda": {"pieces": [[0, 0, rate]], "tail": tail},
                       "mu": {"pieces": [[0, 0, 0.0]], "tail": 1.0},
                       "bounds": {"r_max": r_max}})


def plateau(n):
    # lambda = mu = 0.4 on states 1..n, then no arrivals: a zero-drift run
    return json.dumps({"lambda": {"pieces": [[0, n, 0.4]], "tail": 0.0},
                       "mu": {"pieces": [[1, n, 0.4]], "tail": 0.4}})


@pytest.mark.parametrize("args,code", [
    (["classify", "--samples", "[[1,2]]"], 2),
    (["envelope", "--points", "5"], 2),
    (["solve", "--cost", CSQ, "--service-actions", "[[1]]",
      "--arrival-actions", "[0.4]"], 2),
    (["trace", "--cost", CSQ] + LOG_GRID + ["--beta1-grid", "[[1]]"], 2),
    (["trace", "--cost", CSQ] + LOG_GRID + ["--beta1-log", "1", "100", "inf"], 2),
    (["eval", "--policy", MM1,
      "--cost", '{"kind": "piecewise", "points": [[0, 0], [1]]}'], 2),
    (["eval", "--policy", MM1,
      "--cost", '{"kind": "power", "domain": [0, 1], "exponent": "2"}'], 2),
    (["eval", "--policy", "@.", "--cost", CSQ], 2),
    (["eval", "--policy", MM1, "--cost", CSQ, "--out", "."], 2),
    (["audit", "--policy", AUDIT_POLICY, "--cost", CSQ, "--c-ref", "0.25",
      "--case", '{"family": "MC2-2"}'], 1),
    (["audit", "--policy", AUDIT_POLICY, "--cost", CSQ, "--c-ref", "0.25",
      "--case", '{"family": "MC1"}'], 1),
    (["audit", "--policy", AUDIT_POLICY, "--cost", CSQ, "--c-ref", "0.25",
      "--case", '{"family": "MC1", "window": 5}'], 2),
    (["simulate", "--policy", MM1, "--cost", CSQ, "--horizon", "inf"], 1),
    (["construct", "--family", "lc", "--params",
      '{"mu": 0.5, "U": 0.01, "case": {"family": "LC2-1"}}'], 1),
    (["construct", "--family", "lc", "--params",
      '{"mu": 0.5, "U": 0.01, "case": {"family": "LC2-1", "window": 0.3}}'], 2),
    (["construct", "--family", "mc21", "--params",
      '{"lam": 0.1, "b_lam": 0.2, "r_max": 1.0, "U": Infinity}'], 2),
    (["sweep", "--family", "mc22", "--params", '{"lam": 0.39, "a_lam": 0.2, "b_lam": 0.4}',
      "--cost", CSQ, "--c-ref", "0.1", "--dyadic", "-2000", "-1999"], 2),
    (["solve", "--cost", CSQ] + LOG_GRID + ["--beta1", "abc"], 2),
    (["solve", "--cost", CSQ], 2),
    (["nosuch"], 2),
    (["eval", "--policy", MM1, "--cost", CSQ, "--tail-tol", "1e-9"], 2),
    (["eval", "--policy", mm1(rate="nan"), "--cost", CSQ], 2),
    (["eval", "--policy", mm1(rate="inf"), "--cost", CSQ], 2),
    (["eval", "--policy", mm1(rate="0.4"), "--cost", CSQ], 2),
    (["eval", "--policy", mm1(rate=True), "--cost", CSQ], 2),
    (["eval", "--policy", mm1(tail="nan"), "--cost", CSQ], 2),
    (["eval", "--policy", mm1(r_max="inf"), "--cost", CSQ], 2),
    (["simulate", "--policy", mm1(rate="nan"), "--cost", CSQ, "--horizon", "10"], 2),
    (["solve", "--cost", CSQ] + LOG_GRID + ["--state-cap", "1000000000000"], 1),
    (["solve", "--cost", CSQ] + LOG_GRID + ["--tol", "1e-9"], 2),
    (["trace", "--cost", CSQ] + LOG_GRID + ["--beta1-grid", "[0, 1]", "--tol", "1e-9"], 2),
    # scales so small that a family's threshold q1, or the mean of a run of
    # states, is no finite double
    (["construct", "--family", "mc1", "--params", '{"lam": 0.5, "K": 0.5, "U": 1e-300}'], 1),
    (["construct", "--family", "mc22", "--params",
      '{"lam": 0.39, "a_lam": 0.2, "b_lam": 0.4, "U": 5e-324}'], 1),
    (["construct", "--family", "lmu", "--params", '{"u_inv_uc": 0.5, "U": 5e-324}'], 1),
    (["construct", "--family", "mc23", "--params", '{"lam": 0.4, "K": 0.1, "U": 5e-324}'], 1),
    (["eval", "--policy", plateau(10 ** 80), "--cost", CSQ], 1),
    # a rate that is NaN lies in no range
    (["envelope", "--points", "[[0, 0], [0.5, 0.25], [1, 1]]", "--at", "nan"], 1),
    # a horizon past the largest double is malformed
    (["eval", "--policy", plateau(10 ** 309), "--cost", CSQ], 2),
    # a value that is NaN lies in no range; a power that overflows
    (["feasibility", "--cost", CSQ, "--utility", USQRT, "--cc", "nan", "--uc", "0.6"], 1),
    (["feasibility", "--cost", CSQ, "--utility", USQRT, "--cc", "0.16", "--uc", "nan"], 1),
    (["feasibility", "--cost", '{"kind": "power", "domain": [0, 1e308], "exponent": 2}',
      "--utility", USQRT, "--cc", "0.16", "--uc", "0.6"], 1),
    # a multiplier grid with a negative value is a domain error
    (["trace", "--cost", CSQ] + LOG_GRID + ["--beta1-grid", "[0, -1]"], 1),
    # the lc family divided by mu = 0 (a ZeroDivisionError)
    (["construct", "--family", "lc", "--params",
      '{"mu": 0, "U": 0.01, "case": {"family": "LC2-1", "window": [-1, 0.1]}}'], 1),
])
def test_malformed_input_is_a_json_error(runner, args, code):
    error_of(runner.invoke(main, args, catch_exceptions=False), code)


@pytest.mark.parametrize("grids", [["--beta1-log", "1", "10", "2.9"],
                                   ["--beta1-grid", "[1]", "--beta2-log", "1", "10", "2.9"]])
def test_log_grid_needs_an_integer_count(runner, grids):
    # int() would truncate 2.9 to a 2-point grid and exit 0
    res = runner.invoke(main, ["trace", "--cost", CSQ, "--utility", USQRT] + LOG_GRID + grids,
                        catch_exceptions=False)
    assert error_of(res, 2) == "log grid needs 0 < lo < hi and an integer n >= 2, all finite"


def test_power_exponent_must_be_finite(runner):
    # 1e400 parses as inf, which evaluated every cost as 0
    cost = '{"kind": "power", "domain": [0, 1], "exponent": 1e400}'
    res = runner.invoke(main, ["eval", "--policy", MM1, "--cost", cost],
                        catch_exceptions=False)
    assert error_of(res, 2) == "bad cost spec: exponent must be a finite number, got inf"


@pytest.mark.parametrize("flag", ["--beta1", "--beta2"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_non_finite_multiplier_named(runner, flag, value):
    res = runner.invoke(main, ["solve", "--cost", CSQ, "--utility", USQRT] + LOG_GRID
                        + [flag, value], catch_exceptions=False)
    assert flag[2:] in error_of(res, 1)


def test_unknown_group_option_is_a_json_error(runner):
    assert "--bogus" in error_of(runner.invoke(main, ["--bogus"],
                                               catch_exceptions=False), 2)


def test_bare_group_still_shows_help(runner):
    res = runner.invoke(main, [], catch_exceptions=False)
    assert "Usage:" in res.output and '"error"' not in res.output


TRACE = ["trace", "--cost", CSQ, "--utility", USQRT] + LOG_GRID
SWEEP = ["sweep", "--family", "mc22", "--params", '{"lam": 0.39, "a_lam": 0.2, "b_lam": 0.4}',
         "--cost", CSQ, "--c-ref", "0.1"]


@pytest.mark.parametrize("args,flags", [
    (TRACE + ["--beta1-grid", "[1]", "--beta1-log", "1", "10", "3"],
     ("--beta1-grid", "--beta1-log")),
    (TRACE + ["--beta1-grid", "[1]", "--beta2-grid", "[0]", "--beta2-log", "1", "10", "3"],
     ("--beta2-grid", "--beta2-log")),
    (SWEEP + ["--u-grid", "[0.25]", "--dyadic", "4", "5"], ("--u-grid", "--dyadic")),
])
def test_grid_given_twice_is_refused(runner, tmp_path, args, flags):
    # the generator was dropped without a word
    out = tmp_path / "out.csv"
    res = runner.invoke(main, args + ["--out", str(out)], catch_exceptions=False)
    assert all(flag in error_of(res, 2) for flag in flags)
    assert len(res.stderr.splitlines()) == 1 and res.stdout == "" and not out.exists()


def test_interrupt_inside_a_command_aborts(runner, monkeypatch):
    def interrupt(points):
        raise KeyboardInterrupt
    monkeypatch.setattr("qtl.cli.lower_convex_envelope", interrupt)
    res = runner.invoke(main, ["envelope", "--points", "[[0, 0], [1, 1]]"],
                        catch_exceptions=False)
    assert res.exit_code == 1 and res.stderr.endswith("Aborted!\n") and res.stdout == ""


@pytest.mark.parametrize("args", [
    # cbar read 0.0, and a domain up to inf found this pair feasible
    ["eval", "--policy", '{"lambda": {"tail": 0.4}, "mu": {"tail": 1.0}}',
     "--cost", '{"kind": "piecewise", "points": [[0, 0], [1e400, 1]]}'],
    ["feasibility", "--cost", '{"kind": "power", "domain": [0, 1e400], "exponent": 2}',
     "--utility", USQRT, "--cc", "0.16", "--uc", "0.9"],
])
def test_non_finite_function_points_are_a_bad_spec(runner, args):
    # a point set's domain is its points' span, so its inf is a rate
    field = {"eval": "rate", "feasibility": "domain bound"}[args[0]]
    assert error_of(runner.invoke(main, args, catch_exceptions=False), 2) == (
        "bad cost spec: %s must be a finite number, got inf" % field)


ENV_SPEC = json.dumps({"kind": "piecewise", "points": json.loads(POINTS)})


@pytest.mark.parametrize("cost,case", [
    (IDENT, {"family": "MC1", "anchor": 0.5}),
    (ENV_SPEC, {"family": "MC1", "anchor": 0.5}),
    (CSQ, {"family": "MC2-2", "window": [0.2, 0.4]}),
    (ENV_SPEC, {"family": "MC2-2", "window": [0.4, 0.4]}),
    (ENV_SPEC, {"family": "MC2-3", "window": [0.4, 0.5], "anchor": 0.4}),
    (IDENT, {"family": "MC2-3", "window": [0.2, 0.6], "anchor": 0.4}),
])
def test_audit_case_outside_its_family_is_domain_error(runner, cost, case):
    res = runner.invoke(main, ["audit", "--policy", AUDIT_POLICY, "--cost", cost,
                               "--case", json.dumps(case), "--c-ref", "0.1"],
                        catch_exceptions=False)
    error_of(res, 1)


@pytest.mark.parametrize("doc", [
    {"mode": "solve", "cost": json.loads(CSQ), "service_actions": [1],
     "arrival_actions": [0.4], "beta1": "abc"},
    {"mode": "eval", "policy": json.loads(MM1), "cost": None},
    {"mode": "eval", "policy": json.loads(MM1), "cost": json.loads(CSQ), "oops": 1},
    {"mode": ["eval"]},
    {"mode": "trace", "cost": json.loads(CSQ), "service_actions": [1],
     "arrival_actions": [0.4], "beta1_log": [1, 100]},
    [1, 2],
])
def test_run_manifest_is_checked_like_the_command_line(runner, tmp_path, doc):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    error_of(runner.invoke(main, ["run", "--manifest", str(manifest)],
                           catch_exceptions=False), 2)


def test_run_manifest_cannot_run_a_manifest(runner, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"mode": "run", "manifest": str(manifest)}))
    error_of(runner.invoke(main, ["run", "--manifest", str(manifest)],
                           catch_exceptions=False), 2)


def test_run_manifest_spreads_multi_value_options(runner, tmp_path):
    doc = {"mode": "trace", "cost": json.loads(CSQ), "utility": None,
           "service_actions": [0.5, 1.0], "arrival_actions": [0.4],
           "beta1_log": [1, 100, 3], "state_cap": 200}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    res = invoke(runner, ["run", "--manifest", str(manifest)])
    direct = invoke(runner, ["trace", "--cost", json.dumps(doc["cost"]),
                             "--service-actions", "[0.5, 1.0]",
                             "--arrival-actions", "[0.4]",
                             "--beta1-log", "1", "100", "3", "--state-cap", "200"])
    assert res.output == direct.output


def test_audit_geometric_tail(runner, tmp_path):
    pol = tmp_path / "mc1.json"
    invoke(runner, ["construct", "--family", "mc1",
                    "--params", '{"lam": 0.5, "U": 0.001, "K": 0.5}',
                    "--out", str(pol)])
    res = invoke(runner, ["audit", "--policy", "@%s" % pol, "--cost", CSQ,
                          "--utility", USQRT, "--c-ref", "0.25",
                          "--case", '{"family": "MC1", "anchor": 0.5}'])
    checks = json.loads(res.output)["checks"]
    assert {c["name"] for c in checks} == {"rate-mass", "boundary-mass", "pi-zero"}
    assert all(c["passed"] is True for c in checks)


def failure_records(res):
    lines = res.stderr.splitlines()
    assert lines[0].endswith("point(s) failed")
    return [_strict_json(line) for line in lines[1:]]


def test_trace_failures_are_json_records(runner):
    res = invoke(runner, ["trace", "--cost", CSQ, "--service-actions", "[0.5, 1.0]",
                          "--arrival-actions", "[0.4]", "--beta1-grid", "[1e400, 1e401]",
                          "--state-cap", "20"])
    assert res.stdout.splitlines()[1:] == ["beta1,beta2,c_c,u_c,q_star"]
    records = failure_records(res)
    assert [(r["beta1"], r["beta2"]) for r in records] == [("inf", 0.0), ("inf", 0.0)]
    assert all(isinstance(r["error"], str) and r["error"] for r in records)


# a count that is not finite is a domain error naming it, not an
# OverflowError traceback from int()
INFINITE_Q_K = '{"lam": 0.3, "b_lam": 0.4, "r_max": 1.0, "q_k": 1e400}'


@pytest.mark.parametrize("family,params,name", [
    ("mc21", INFINITE_Q_K, "q_k"),
    ("lmu", '{"u_inv_uc": 0.4, "U": 0.01, "K": 1e400}', "K"),
])
def test_construct_refuses_an_infinite_count(runner, family, params, name):
    res = runner.invoke(main, ["construct", "--family", family, "--params", params],
                        catch_exceptions=False)
    assert res.stdout == ""
    assert error_of(res, 1) == "%s must be a finite number, got inf" % name


def test_sweep_records_an_infinite_count(runner):
    res = invoke(runner, ["sweep", "--family", "mc21", "--params", INFINITE_Q_K,
                          "--cost", CSQ, "--c-ref", "0.1", "--dyadic", "4", "5"])
    assert res.stdout.splitlines()[1:] == ["U,V,qbar,ubar,cbar"]
    assert [(r["U"], r["error"]) for r in failure_records(res)] == [
        (0.0625, "q_k must be a finite number, got inf"),
        (0.03125, "q_k must be a finite number, got inf")]


def test_sweep_failures_are_json_records(runner):
    res = invoke(runner, ["sweep", "--family", "mc22",
                          "--params", '{"lam": 0.39, "a_lam": 0.2, "b_lam": 0.4}',
                          "--cost", ENV_SPEC, "--c-ref", "5", "--dyadic", "4", "6"])
    assert res.stdout.splitlines()[1:] == ["U,V,qbar,ubar,cbar"]
    records = failure_records(res)
    assert [r["U"] for r in records] == [0.0625, 0.03125, 0.015625]
    assert all(r["error"].startswith("non-positive cost gap") for r in records)


MC21 = '{"lam": 0.1, "b_lam": 0.2, "r_max": 1.0}'
MC22 = '{"lam": 0.39, "a_lam": 0.2, "b_lam": 0.4}'
NOT_A_SCALE = "U must be a positive finite number, got %s"
# each family's constructor params, all but the scale
UNSCALED = {
    "mc1": '{"lam": 0.5, "K": 0.5}',
    "mc21": MC21,
    "mc22": MC22,
    "mc23": '{"lam": 0.4, "K": 0.1}',
    "lmu": '{"u_inv_uc": 0.5}',
    "lc": '{"mu": 0.5, "case": {"family": "LC2-1", "window": [0.4, 0.6]}}',
}


def test_non_finite_failure_records_are_json(runner):
    # a multiplier or scale that overflows to inf fails its point, and the
    # record names it the way every qtl JSON output does
    res = invoke(runner, ["trace", "--cost", CSQ, "--service-actions", "[0.5, 1.0]",
                          "--arrival-actions", "[0.4]", "--beta1-grid", "[1e400, 10]",
                          "--state-cap", "12"])
    assert [r["beta1"] for r in failure_records(res)] == ["inf"]
    res = invoke(runner, ["sweep", "--family", "mc22", "--params", MC22,
                          "--cost", ENV_SPEC, "--c-ref", "0.154", "--u-grid", "[-1e400, 0.1]"])
    assert [r["U"] for r in failure_records(res)] == ["-inf"]


@pytest.mark.parametrize("family", sorted(UNSCALED))
@pytest.mark.parametrize("U,shown", [("1e400", "inf"), ("-1e400", "-inf"),
                                     ("1e-400", "0"), ("-0.5", "-0.5")])
def test_construct_refuses_a_scale_that_is_not_positive_finite(runner, family, U, shown):
    params = UNSCALED[family][:-1] + ', "U": %s}' % U
    res = runner.invoke(main, ["construct", "--family", family, "--params", params],
                        catch_exceptions=False)
    assert error_of(res, 1) == NOT_A_SCALE % shown


@pytest.mark.parametrize("family,params,c_ref", [("mc21", MC21, "0.02"),
                                                  ("mc22", MC22, "0.154")])
def test_sweep_at_an_infinite_scale_fails_that_point(runner, family, params, c_ref):
    def sweep(grid):
        return invoke(runner, ["sweep", "--family", family, "--params", params,
                               "--cost", ENV_SPEC, "--c-ref", c_ref, "--u-grid", grid])
    res = sweep("[1e400, 0.01]")
    assert res.stdout.splitlines()[1:] == sweep("[0.01]").stdout.splitlines()[1:]
    assert failure_records(res) == [{"U": "inf", "error": NOT_A_SCALE % "inf"}]


def test_sweep_nan_c_ref_fails_every_point(runner):
    res = invoke(runner, ["sweep", "--family", "mc22", "--params", MC22,
                          "--cost", ENV_SPEC, "--c-ref", "nan", "--dyadic", "4", "5"])
    assert res.stdout.splitlines()[1:] == ["U,V,qbar,ubar,cbar"]
    assert failure_records(res) == [{"U": u, "error": "non-positive cost gap nan"}
                                    for u in (0.0625, 0.03125)]


NOT_FINITE_GAP = "cost gap inf is not finite"


@pytest.mark.parametrize("c_ref,failed", [
    # every V is +inf; or the sum of V's terms overflows at U = 1/16 only
    ("-inf", [0.0625, 0.03125]), ("-1.7976931348623157e308", [0.0625])])
def test_sweep_infinite_cost_gap_fails_per_point(runner, c_ref, failed):
    res = invoke(runner, ["sweep", "--family", "mc22", "--params", MC22,
                          "--cost", ENV_SPEC, "--c-ref", c_ref, "--dyadic", "4", "5"])
    assert failure_records(res) == [{"U": u, "error": NOT_FINITE_GAP} for u in failed]
    assert len(res.stdout.splitlines()[2:]) == 2 - len(failed)


@pytest.mark.parametrize("c_ref", ["-inf", "-1.7976931348623157e308"])
def test_audit_refuses_an_infinite_cost_gap(runner, c_ref):
    policy = invoke(runner, ["construct", "--family", "mc22",
                             "--params", MC22[:-1] + ', "U": 0.01}']).stdout
    res = runner.invoke(main, ["audit", "--policy", policy, "--cost", ENV_SPEC,
                               "--c-ref", c_ref,
                               "--case", '{"family": "MC2-2", "window": [0.2, 0.4]}'],
                        catch_exceptions=False)
    assert error_of(res, 1) == NOT_FINITE_GAP and res.stdout == ""


@pytest.mark.parametrize("c_ref,message", [("nan", "non-positive cost gap nan"),
                                           ("1", "non-positive cost gap -0.5")])
def test_audit_needs_a_positive_cost_gap(runner, c_ref, message):
    res = runner.invoke(main, ["audit", "--policy", AUDIT_POLICY, "--cost", CSQ,
                               "--utility", USQRT, "--c-ref", c_ref,
                               "--case", '{"family": "MC1", "anchor": 0.5}'],
                        catch_exceptions=False)
    assert error_of(res, 1) == message


@pytest.mark.parametrize("family,params,c_ref,grid,failed", [
    ("mc1", '{"lam": 0.5, "K": 0.5}', "0.25", ["--dyadic", "996", "997"], 2),
    ("mc23", '{"lam": 0.4, "K": 0.1}', "0.16", ["--u-grid", "[1e-300]"], 1),
])
def test_sweep_at_extreme_scales_fails_per_point(runner, family, params, c_ref, grid,
                                                  failed):
    # the threshold q1 is no finite double (mc1), or the plateau of 1e300
    # states is too long for its mean (mc23): failure records, exit 0
    res = invoke(runner, ["sweep", "--family", family, "--params", params,
                          "--cost", CSQ, "--c-ref", c_ref] + grid)
    assert res.stdout.splitlines()[1:] == ["U,V,qbar,ubar,cbar"]
    records = failure_records(res)
    assert len(records) == failed and all(r["error"] for r in records)


# runs each command line of argv[1] in one interpreter and reports, after
# each, its exit code, its stdout and whether scipy.sparse is loaded
COLD_SCRIPT = """
import json, sys
from click.testing import CliRunner
from qtl.cli import main
out = []
for args in json.loads(sys.argv[1]):
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    out.append([res.exit_code, res.output, "scipy.sparse" in sys.modules])
print(json.dumps(out))
"""


def test_scipy_sparse_loads_only_to_evaluate_a_policy(runner, tmp_path):
    family = '{"lam": 0.39, "a_lam": 0.2, "b_lam": 0.4}'
    scaled = '{"lam": 0.39, "a_lam": 0.2, "b_lam": 0.4, "U": 0.01}'
    solve_args = ["solve", "--cost", CSQ, "--service-actions", "[0.5, 1.0]",
                  "--arrival-actions", "[0.4]", "--beta1", "5", "--state-cap", "50"]
    commands = [
        ["construct", "--family", "mc22", "--params", scaled],
        ["eval", "--policy", MM1, "--cost", CSQ],
        ["sweep", "--family", "mc22", "--params", family, "--cost", ENV_SPEC,
         "--c-ref", "0.154", "--dyadic", "4", "6"],
        ["audit", "--policy", AUDIT_POLICY, "--cost", CSQ, "--c-ref", "0.25",
         "--case", '{"family": "MC1", "anchor": 0.5}'],
        ["simulate", "--policy", MM1, "--cost", CSQ, "--horizon", "300",
         "--replications", "2"],
        solve_args,
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(qtl.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", COLD_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=120, check=True)
    runs = json.loads(proc.stdout)
    assert [code for code, _, _ in runs] == [0] * len(commands)
    assert [loaded for _, _, loaded in runs] == [False] * 5 + [True]
    assert runs[-1][1] == invoke(runner, solve_args).output


def test_singular_evaluation_leaves_only_the_json_error(tmp_path):
    # policy iteration on this problem meets a numerically singular policy
    # evaluation; the CLI must print nothing but its own error
    src = os.path.dirname(os.path.dirname(os.path.abspath(qtl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    args = ["solve", "--cost", CSQ, "--utility", IDENT, "--service-actions", "[0, 0.25]",
            "--arrival-actions", "[0.05, 0.3, 0.5, 0.75]", "--beta1", "100",
            "--beta2", "10", "--state-cap", "32"]
    proc = subprocess.run([sys.executable, "-m", "qtl.cli"] + args, capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "domain"
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("family,params", [("mc1", '{"lam": 0.5, "K": 0.5, "U": 0.01}'),
                                           ("lmu", '{"u_inv_uc": 0.5, "U": 0.01}')])
def test_audit_anchor_near_zero_exits_0(runner, family, params):
    # c = r^2 has the exact curvature a1 = 1 at anchor 1e-300
    policy = invoke(runner, ["construct", "--family", family, "--params", params]).stdout
    case = {"family": family.upper(), "anchor": 1e-300}
    res = invoke(runner, ["audit", "--policy", policy, "--cost", CSQ,
                          "--c-ref", "0.01", "--case", json.dumps(case)])
    checks = [c for c in json.loads(res.stdout)["checks"] if c["applicable"]]
    assert checks and res.stderr == ""
    assert all(math.isfinite(c[k]) for c in checks for k in ("lhs", "rhs", "margin"))


def test_simulate_policy_that_stays_in_one_state(runner):
    # no arrivals at state 0, where nothing is served: the queue stays empty
    idle = json.dumps({"lambda": {"pieces": [[0, 0, 0.0]], "tail": 0.4},
                       "mu": {"pieces": [[0, 0, 0.0]], "tail": 1.0},
                       "bounds": {"r_a_max": 0.4}})
    res = invoke(runner, ["simulate", "--policy", idle, "--cost", CSQ,
                          "--horizon", "100", "--replications", "2"])
    doc = json.loads(res.stdout)
    assert doc == {"qbar": 0.0, "qbar_halfwidth": 0.0, "cbar": 0.0, "cbar_halfwidth": 0.0,
                   "ubar": 0.0, "ubar_halfwidth": 0.0, "replications": 2}


# runs each command line of argv[1] in one interpreter and prints one JSON
# line of [exit code, stdout, stderr] per command; whatever a C library
# writes to the process's own stdout or stderr lands outside that line
ISOLATED_SCRIPT = """
import json, sys
from click.testing import CliRunner
from qtl.cli import main
runs = [CliRunner().invoke(main, args, catch_exceptions=False)
        for args in json.loads(sys.argv[1])]
print(json.dumps([[r.exit_code, r.stdout, r.stderr] for r in runs]))
"""


def test_classify_refuses_samples_it_cannot_fit(tmp_path):
    def table(row=None, V=None, qbar=None):
        rows = [[1.0, 10.0 ** -k, k + 1.0, 0.0, 0.0] for k in range(5)]
        for i in range(5) if row is None else [row]:
            rows[i][1:3] = [rows[i][1] if V is None else V,
                            rows[i][2] if qbar is None else qbar]
        return rows

    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("U,V,qbar,ubar,cbar\n" + "".join(
        "1,%r,%s,0,0\n" % (10.0 ** -k, "nan" if k == 2 else k) for k in range(5)))
    cases = [
        ("[[1,1,1e400,0,0],[1,0.1,2,0,0],[1,0.01,3,0,0],[1,0.001,4,0,0],"
         "[1,0.0001,5,0,0]]", "sample 0 has qbar = inf; need a finite qbar"),
        (json.dumps(table(qbar=1e200)),
         "sample 0 has qbar = 1e+200; the fit's residual scale overflows"),
        (str(nan_csv), "sample 2 has qbar = nan; need a finite qbar"),
        (json.dumps(table(3, V=0)), "sample 3 has V = 0; need a finite V > 0 with a finite 1/V"),
        (json.dumps(table(3, V=-1)), "sample 3 has V = -1; need a finite V > 0 with a finite 1/V"),
        (json.dumps(table(3, V=1e-320)),
         "sample 3 has V = 9.99989e-321; need a finite V > 0 with a finite 1/V"),
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(qtl.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    commands = [["classify", "--samples", samples] for samples, _ in cases]
    proc = subprocess.run([sys.executable, "-c", ISOLATED_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert len(proc.stdout.splitlines()) == 1, proc.stdout
    for (code, out, err), (_, message) in zip(json.loads(proc.stdout), cases):
        assert (code, out, len(err.splitlines())) == (1, "", 1), err
        assert json.loads(err) == {"error": {"type": "domain", "message": message}}
