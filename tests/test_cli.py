import json
import math
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import qtl
from qtl.cli import main

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
    (["solve", "--cost", CSQ] + LOG_GRID + ["--tol", "inf"], 1),
    (["solve", "--cost", CSQ] + LOG_GRID + ["--tol", "nan"], 1),
    (["trace", "--cost", CSQ] + LOG_GRID + ["--beta1-grid", "[0, 1]", "--tol", "-1"], 1),
    # scales so small that a family's threshold q1, or the mean of a run of
    # states, is no finite double
    (["construct", "--family", "mc1", "--params", '{"lam": 0.5, "K": 0.5, "U": 1e-300}'], 1),
    (["construct", "--family", "mc22", "--params",
      '{"lam": 0.39, "a_lam": 0.2, "b_lam": 0.4, "U": 5e-324}'], 1),
    (["construct", "--family", "lmu", "--params", '{"u_inv_uc": 0.5, "U": 5e-324}'], 1),
    (["construct", "--family", "mc23", "--params", '{"lam": 0.4, "K": 0.1, "U": 5e-324}'], 1),
    (["eval", "--policy", plateau(10 ** 80), "--cost", CSQ], 1),
    (["eval", "--policy", plateau(10 ** 309), "--cost", CSQ], 2),
])
def test_malformed_input_is_a_json_error(runner, args, code):
    error_of(runner.invoke(main, args, catch_exceptions=False), code)


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
    return [json.loads(line) for line in lines[1:]]


def test_trace_failures_are_json_records(runner):
    res = invoke(runner, ["trace", "--cost", CSQ, "--service-actions", "[0]",
                          "--arrival-actions", "[0.4]", "--beta1-grid", "[0, 5]",
                          "--state-cap", "20"])
    assert res.stdout.splitlines()[1:] == ["beta1,beta2,c_c,u_c,q_star"]
    records = failure_records(res)
    assert [(r["beta1"], r["beta2"]) for r in records] == [(0.0, 0.0), (5.0, 0.0)]
    assert all(isinstance(r["error"], str) and r["error"] for r in records)


def test_sweep_failures_are_json_records(runner):
    res = invoke(runner, ["sweep", "--family", "mc22",
                          "--params", '{"lam": 0.39, "a_lam": 0.2, "b_lam": 0.4}',
                          "--cost", ENV_SPEC, "--c-ref", "5", "--dyadic", "4", "6"])
    assert res.stdout.splitlines()[1:] == ["U,V,qbar,ubar,cbar"]
    records = failure_records(res)
    assert [r["U"] for r in records] == [0.0625, 0.03125, 0.015625]
    assert all(r["error"].startswith("non-positive cost gap") for r in records)



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
