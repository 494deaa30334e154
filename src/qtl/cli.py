"""Command-line front end.

One subcommand per mode: envelope, feasibility, eval, solve, trace,
construct, sweep, classify, audit, simulate, plus ``run`` for a JSON
manifest that names a mode and its parameters.

Conventions shared by all subcommands:

* JSON-valued options accept either an inline literal or ``@path``.
* All floats print with 12 significant digits; non-finite values become
  the strings "inf"/"-inf"/"nan" so the JSON stays parseable.
* CSV artifacts open with a provenance comment ``# qtl <version> <hash>``
  (hash of the invocation parameters) and then a header row.
* Exit 2 with an error JSON on malformed input, 1 on domain errors, 0 on
  success.
"""

import functools
import hashlib
import json
import math
import os
import sys

import click

from . import __version__
from .birth_death import (
    exact_metrics, policy_from_json, policy_to_json, qlength_upper_bound)
from .mdp import LagrangianProblem, solve as mdp_solve, trace_tradeoff
from .policy_families import (
    lambda_mu_policy, lc_mirror_policy, mc1_policy, mc21_policy, mc22_policy,
    mc23_policy)
from .rate_functions import (
    CaseTag, evaluate, function_from_spec, lower_convex_envelope)
from .scaling import ScalingSample, audit_lower_bound, classify_regime, sweep
from .sim import SimConfig, simulate as sim_run
from . import birth_death


class SchemaError(Exception):
    pass


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SchemaError as exc:
            click.echo(json.dumps(
                {"error": {"type": "schema", "message": str(exc)}}), err=True)
            sys.exit(2)
        except ValueError as exc:
            click.echo(json.dumps(
                {"error": {"type": "domain", "message": str(exc)}}), err=True)
            sys.exit(1)
    return wrapper


def _load_arg(text):
    if text.startswith("@"):
        path = text[1:]
        if not os.path.exists(path):
            raise SchemaError("file not found: %s" % path)
        with open(path) as fh:
            return fh.read()
    return text


def _parse_json(text, what):
    try:
        return json.loads(_load_arg(text))
    except json.JSONDecodeError as exc:
        raise SchemaError("%s is not valid JSON: %s" % (what, exc))


def _function(text, role):
    try:
        return function_from_spec(_parse_json(text, "%s spec" % role), role)
    except ValueError as exc:
        raise SchemaError("bad %s spec: %s" % (role, exc))


def _policy(text):
    try:
        return policy_from_json(_parse_json(text, "policy"))
    except ValueError as exc:
        raise SchemaError("bad policy: %s" % exc)


def _round12(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return float("%.12g" % obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit_json(obj, out):
    text = json.dumps(_round12(obj), sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _provenance(payload):
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()
    return digest[:12]


def _emit_csv(header, rows, prov, out):
    lines = ["# qtl %s %s" % (__version__, prov), ",".join(header)]
    for row in rows:
        lines.append(",".join("%.12g" % x for x in row))
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _failures_note(failures, kind):
    if failures:
        click.echo("%d %s point(s) failed" % (len(failures), kind), err=True)
        for f in failures:
            click.echo("  %s" % (f,), err=True)


@click.group()
@click.version_option(__version__, prog_name="qtl")
def main():
    """Queue-length / service-cost / utility tradeoff toolkit."""


@main.command()
@click.option("--points", required=True, help="discrete (rate, cost) samples as JSON")
@click.option("--at", "at_rates", multiple=True, type=float,
              help="rates to evaluate the envelope at (repeatable)")
@click.option("--out", default=None, help="output path (default stdout)")
@_guarded
def envelope(points, at_rates, out):
    """Lower convex envelope of a discrete cost set (JSON: corners, values)."""
    pts = _parse_json(points, "points")
    env = lower_convex_envelope(pts)
    values = {"%.12g" % r: evaluate(env, r) for r in at_rates}
    _emit_json({"corners": [[r, v] for r, v in zip(env.br, env.bv)],
                "values": values}, out)


@main.command()
@click.option("--cost", required=True, help="cost function spec (JSON or @file)")
@click.option("--utility", required=True, help="utility function spec")
@click.option("--cc", type=float, required=True, help="service cost ceiling")
@click.option("--uc", type=float, required=True, help="utility floor")
@click.option("--out", default=None)
@_guarded
def feasibility(cost, utility, cc, uc, out):
    """Constraint-pair status: feasible / boundary / infeasible."""
    c = _function(cost, "cost")
    u = _function(utility, "utility")
    _emit_json({"status": birth_death.feasibility(c, u, cc, uc),
                "c_c": cc, "u_c": uc}, out)


@main.command("eval")
@click.option("--policy", required=True, help="policy JSON (or @file)")
@click.option("--cost", required=True)
@click.option("--utility", default=None)
@click.option("--tail-tol", type=float, default=1e-12, show_default=True)
@click.option("--out", default=None)
@_guarded
def eval_cmd(policy, cost, utility, tail_tol, out):
    """Exact stationary metrics of a policy (JSON)."""
    p = _policy(policy)
    c = _function(cost, "cost")
    u = _function(utility, "utility") if utility else None
    m = exact_metrics(p, c, u, tail_tol=tail_tol)
    try:
        bound = qlength_upper_bound(p)
    except ValueError:
        bound = None
    _emit_json({"qbar": m.qbar, "cbar": m.cbar, "ubar": m.ubar,
                "dbar": m.dbar, "mean_arrival": m.mean_arrival,
                "mean_service": m.mean_service,
                "qbar_upper_bound": bound}, out)


def _problem(cost, utility, service_actions, arrival_actions, state_cap,
             beta1=0.0, beta2=0.0):
    c = _function(cost, "cost")
    u = _function(utility, "utility") if utility else None
    srv = _parse_json(service_actions, "service actions")
    arr = _parse_json(arrival_actions, "arrival actions")
    if not isinstance(srv, list) or not isinstance(arr, list):
        raise SchemaError("action sets must be JSON lists of rates")
    return LagrangianProblem(beta1, beta2, srv, arr, c, u, state_cap=state_cap)


@main.command()
@click.option("--cost", required=True)
@click.option("--utility", default=None)
@click.option("--service-actions", required=True, help="JSON list of rates")
@click.option("--arrival-actions", required=True, help="JSON list of rates")
@click.option("--beta1", type=float, default=0.0, show_default=True)
@click.option("--beta2", type=float, default=0.0, show_default=True)
@click.option("--state-cap", type=int, default=500, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", default=None)
@_guarded
def solve(cost, utility, service_actions, arrival_actions, beta1, beta2,
          state_cap, tol, out):
    """Solve one relaxed problem; JSON with gain, policy, exact metrics."""
    lp = _problem(cost, utility, service_actions, arrival_actions, state_cap,
                  beta1, beta2)
    res = mdp_solve(lp, tol)
    m = exact_metrics(res.policy, lp.cost_fn, lp.utility_fn)
    _emit_json({"gain": res.gain, "iterations": res.iterations,
                "converged": res.converged, "monotone": res.monotone,
                "policy": policy_to_json(res.policy),
                "metrics": {"qbar": m.qbar, "cbar": m.cbar, "ubar": m.ubar}},
               out)


def _beta_grid(grid_json, log_triplet, fallback):
    if grid_json:
        grid = _parse_json(grid_json, "multiplier grid")
        if not isinstance(grid, list):
            raise SchemaError("multiplier grid must be a JSON list")
        return [float(b) for b in grid]
    if log_triplet:
        lo, hi, n = log_triplet
        n = int(n)
        if lo <= 0 or hi <= lo or n < 2:
            raise SchemaError("log grid needs 0 < lo < hi and n >= 2")
        step = (math.log(hi) - math.log(lo)) / (n - 1)
        return [math.exp(math.log(lo) + i * step) for i in range(n)]
    return fallback


@main.command()
@click.option("--cost", required=True)
@click.option("--utility", default=None)
@click.option("--service-actions", required=True)
@click.option("--arrival-actions", required=True)
@click.option("--beta1-grid", default=None, help="JSON list of beta1 values")
@click.option("--beta1-log", nargs=3, type=float, default=None,
              help="LO HI N log-spaced beta1 grid")
@click.option("--beta2-grid", default=None)
@click.option("--beta2-log", nargs=3, type=float, default=None)
@click.option("--state-cap", type=int, default=500, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--out", default=None)
@_guarded
def trace(cost, utility, service_actions, arrival_actions, beta1_grid,
          beta1_log, beta2_grid, beta2_log, state_cap, tol, out):
    """Sweep multipliers; CSV beta1,beta2,c_c,u_c,q_star sorted by c_c."""
    b1 = _beta_grid(beta1_grid, beta1_log, None)
    if b1 is None:
        raise SchemaError("need --beta1-grid or --beta1-log")
    b2 = _beta_grid(beta2_grid, beta2_log, [0.0])
    lp = _problem(cost, utility, service_actions, arrival_actions, state_cap)
    points, failures = trace_tradeoff(lp, b1, b2, tol)
    prov = _provenance({"cmd": "trace", "cost": cost, "utility": utility,
                        "service": service_actions, "arrival": arrival_actions,
                        "beta1": b1, "beta2": b2, "cap": state_cap, "tol": tol})
    _emit_csv(["beta1", "beta2", "c_c", "u_c", "q_star"],
              [(p.beta1, p.beta2, p.c_c, p.u_c, p.q_star) for p in points],
              prov, out)
    _failures_note(failures, "trace")


_FAMILY_REGIMES = {"LC1": "inv-sqrt", "LC2-1": "log", "LC2-2": "inv"}


def _case_tag(obj):
    if not isinstance(obj, dict) or "family" not in obj:
        raise SchemaError("case tag needs an object with 'family'")
    window = obj.get("window")
    return CaseTag(
        obj["family"],
        tuple(window) if window is not None else None,
        obj.get("regime", _FAMILY_REGIMES.get(obj["family"])),
        obj.get("anchor"))


def _build_family(family, params, U):
    params = dict(params)
    if family == "mc1":
        return mc1_policy(U=U, **params)
    if family == "mc21":
        # the scale enters through the threshold: q_k = round(log2(1/U))
        if "q_k" not in params:
            if U is None:
                raise ValueError("mc21 needs q_k or the scale U")
            params["q_k"] = max(1, int(round(-math.log2(U))))
        return mc21_policy(**params)
    if family == "mc22":
        return mc22_policy(U=U, **params)
    if family == "mc23":
        return mc23_policy(U=U, **params)
    if family == "lmu":
        return lambda_mu_policy(U=U, **params)
    if family == "lc":
        tag = _case_tag(params.pop("case", None))
        return lc_mirror_policy(params.pop("mu"), tag, U)
    raise SchemaError("unknown family %r" % family)


_FAMILY_CHOICES = ["mc1", "mc21", "mc22", "mc23", "lmu", "lc"]


@main.command()
@click.option("--family", type=click.Choice(_FAMILY_CHOICES), required=True)
@click.option("--params", required=True, help="constructor parameters as JSON")
@click.option("--out", default=None)
@_guarded
def construct(family, params, out):
    """Build one family policy; emits Policy JSON."""
    kw = _parse_json(params, "params")
    if not isinstance(kw, dict):
        raise SchemaError("params must be a JSON object")
    try:
        U = kw.pop("U", None)
        if family != "mc21" and U is None:
            raise SchemaError("params need the scale U")
        p = _build_family(family, kw, U)
    except TypeError as exc:
        raise SchemaError("bad params for family %s: %s" % (family, exc))
    _emit_json(policy_to_json(p), out)


def _u_grid(u_grid, dyadic):
    if u_grid:
        grid = _parse_json(u_grid, "U grid")
        if not isinstance(grid, list) or not grid:
            raise SchemaError("U grid must be a non-empty JSON list")
        return [float(x) for x in grid]
    if dyadic:
        k0, k1 = int(dyadic[0]), int(dyadic[1])
        if k1 < k0:
            raise SchemaError("dyadic range needs k0 <= k1")
        return [2.0 ** -k for k in range(k0, k1 + 1)]
    return [2.0 ** -k for k in range(4, 15)]


@main.command("sweep")
@click.option("--family", type=click.Choice(_FAMILY_CHOICES), required=True)
@click.option("--params", required=True)
@click.option("--cost", required=True)
@click.option("--utility", default=None)
@click.option("--c-ref", type=float, required=True,
              help="cost floor c at the anchor rate")
@click.option("--u-grid", default=None, help="JSON list of U values")
@click.option("--dyadic", nargs=2, type=int, default=None,
              help="K0 K1: U = 2^-k for k in [K0, K1]")
@click.option("--out", default=None)
@_guarded
def sweep_cmd(family, params, cost, utility, c_ref, u_grid, dyadic, out):
    """Sweep a family over U; CSV U,V,qbar,ubar,cbar."""
    kw = _parse_json(params, "params")
    if not isinstance(kw, dict):
        raise SchemaError("params must be a JSON object")
    kw.pop("U", None)
    c = _function(cost, "cost")
    u = _function(utility, "utility") if utility else None
    grid = _u_grid(u_grid, dyadic)

    def build(U):
        try:
            return _build_family(family, kw, U)
        except TypeError as exc:
            raise ValueError("bad params for family %s: %s" % (family, exc))

    samples, failures = sweep(build, grid, c, c_ref, u)
    prov = _provenance({"cmd": "sweep", "family": family, "params": kw,
                        "cost": cost, "utility": utility, "c_ref": c_ref,
                        "grid": grid})
    _emit_csv(["U", "V", "qbar", "ubar", "cbar"],
              [(s.U, s.V, s.qbar, s.ubar, s.cbar) for s in samples],
              prov, out)
    _failures_note(failures, "sweep")


@main.command()
@click.option("--samples", "samples_in", required=True,
              help="sweep CSV path or JSON list of [U,V,qbar,ubar,cbar]")
@click.option("--regime", default=None,
              type=click.Choice(["finite", "log", "inv-sqrt", "inv"]),
              help="predicted regime for the verdict")
@click.option("--out", default=None)
@_guarded
def classify(samples_in, regime, out):
    """Fit growth models to sweep samples; JSON fit + verdict."""
    if samples_in.startswith("@"):
        text = _load_arg(samples_in)
    elif os.path.exists(samples_in):
        text = _load_arg("@" + samples_in)
    else:
        text = samples_in
    rows = []
    stripped = text.strip()
    if stripped.startswith("["):
        for row in _parse_json(stripped, "samples"):
            rows.append(ScalingSample(*[float(x) for x in row]))
    else:
        for line in stripped.splitlines():
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("U,"):
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise SchemaError("sample rows need 5 columns, got %r" % line)
            rows.append(ScalingSample(*[float(x) for x in parts]))
    tag = CaseTag("", None, regime, None) if regime else None
    fit = classify_regime(rows, tag)
    _emit_json({"model": fit.model, "coefficients": fit.coefficients,
                "residual": fit.residual, "verdict": fit.verdict,
                "residuals": fit.residuals}, out)


@main.command()
@click.option("--policy", required=True)
@click.option("--cost", required=True)
@click.option("--utility", default=None)
@click.option("--case", "case_json", required=True,
              help='CaseTag JSON, e.g. {"family":"MC1","anchor":0.5,...}')
@click.option("--c-ref", type=float, required=True)
@click.option("--out", default=None)
@_guarded
def audit(policy, cost, utility, case_json, c_ref, out):
    """Lower-bound inequality audit of one policy; JSON check list."""
    p = _policy(policy)
    c = _function(cost, "cost")
    u = _function(utility, "utility") if utility else None
    tag = _case_tag(_parse_json(case_json, "case"))
    checks = audit_lower_bound(p, tag, c, u, c_ref)
    _emit_json({"checks": [ch._asdict() for ch in checks]}, out)


@main.command("simulate")
@click.option("--policy", required=True)
@click.option("--cost", required=True)
@click.option("--utility", default=None)
@click.option("--horizon", type=float, default=10000.0, show_default=True)
@click.option("--replications", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--warmup", type=float, default=0.1, show_default=True)
@click.option("--out", default=None)
@_guarded
def simulate_cmd(policy, cost, utility, horizon, replications, seed, warmup, out):
    """Monte Carlo estimate of the metrics; JSON with 95% CIs."""
    p = _policy(policy)
    c = _function(cost, "cost")
    u = _function(utility, "utility") if utility else None
    est = sim_run(p, SimConfig(horizon, replications, seed, warmup), c, u)
    _emit_json(est._asdict(), out)


_MODES = ("envelope", "feasibility", "eval", "solve", "trace", "construct",
          "sweep", "classify", "audit", "simulate")


@main.command("run")
@click.option("--manifest", required=True, help="experiment manifest JSON file")
@click.pass_context
@_guarded
def run_cmd(ctx, manifest):
    """Execute a manifest: {"mode": ..., parameters..., "out": path}."""
    doc = _parse_json("@" + manifest if not manifest.startswith("@") else manifest,
                      "manifest")
    if not isinstance(doc, dict) or "mode" not in doc:
        raise SchemaError("manifest needs a 'mode'")
    mode = doc.pop("mode")
    if mode not in _MODES:
        raise SchemaError("unknown mode %r" % mode)
    cmd = main.commands[mode]
    kwargs = {}
    for param in cmd.params:
        name = param.name
        lookup = {"samples_in": "samples", "case_json": "case",
                  "at_rates": "at"}.get(name, name)
        if lookup not in doc:
            if param.required:
                raise SchemaError("manifest for %s needs %r" % (mode, lookup))
            continue
        val = doc[lookup]
        multi = getattr(param, "multiple", False) or getattr(param, "nargs", 1) != 1
        if multi:
            if not isinstance(val, (list, tuple)):
                raise SchemaError("manifest key %r must be a list" % lookup)
            kwargs[name] = tuple(val)
        elif isinstance(val, (dict, list)):
            kwargs[name] = json.dumps(val)
        else:
            kwargs[name] = val
    ctx.invoke(cmd, **kwargs)


if __name__ == "__main__":
    main()
