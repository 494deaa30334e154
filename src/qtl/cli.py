"""Command-line front end.

One subcommand per mode: envelope, feasibility, eval, solve, trace,
construct, sweep, classify, audit, simulate, plus ``run`` for a JSON
manifest that names a mode and its options.

Conventions shared by all subcommands:

* JSON-valued options accept either an inline literal or ``@path``.
* All floats print with 12 significant digits; non-finite values become
  the strings "inf"/"-inf"/"nan" so the JSON stays parseable.
* CSV artifacts open with a provenance comment ``# qtl <version> <hash>``
  (hash of the invocation parameters) and then a header row.
* Every failure is one JSON error object on stderr, with exit 2 on
  malformed input (click's usage errors included), 1 on domain errors and
  0 on success.
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
from .mdp import TOL, LagrangianProblem, solve as mdp_solve, trace_tradeoff
from .policy_families import (
    lambda_mu_policy, lc_mirror_policy, mc1_policy, mc21_policy, mc22_policy,
    mc23_policy)
from .rate_functions import (
    CaseTag, _is_number, evaluate, function_from_spec, lower_convex_envelope)
from .scaling import ScalingSample, audit_lower_bound, classify_regime, sweep
from .sim import SimConfig, simulate as sim_run
from . import birth_death


class SchemaError(click.ClickException):
    """Malformed input: exit 2 with an error of type ``schema``."""


def _strict_json(text):
    # NaN and Infinity are not JSON numbers, though Python's parser takes them
    def refuse(name):
        raise ValueError("%s is not a JSON number" % name)
    return json.loads(text, parse_constant=refuse)


def _text(value):
    """The text of an option given inline, or of the file it names as
    ``@path``."""
    if not value.startswith("@"):
        return value
    path = value[1:]
    if not os.path.isfile(path):
        raise SchemaError("file not found: %s" % path)
    with open(path) as fh:
        return fh.read()


def _decode(text, what, fn, parse=_strict_json):
    """``fn`` of the JSON in ``text``, given inline or as ``@path``.

    A ValueError on the way, from the parser or from ``fn``, is malformed
    input.
    """
    try:
        return fn(parse(_text(text)))
    except (OSError, ValueError) as exc:
        raise SchemaError("bad %s: %s" % (what, exc))


def _object(obj):
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object, got %.60s" % json.dumps(obj))
    return obj


def _numbers(obj, n=None):
    # a JSON list of numbers, n of them when n is given, as floats
    if not (isinstance(obj, list) and (n is None or len(obj) == n)
            and all(map(_is_number, obj))):
        raise ValueError("expected a list of %snumbers, got %.60s"
                         % ("" if n is None else "%d " % n, json.dumps(obj)))
    return [float(x) for x in obj]


def _rows(obj, n):
    if not isinstance(obj, list):
        raise ValueError("expected a list of rows, got %.60s" % json.dumps(obj))
    return [_numbers(row, n) for row in obj]


def _functions(cost, utility):
    """The cost function and the utility function (None without a spec)."""
    c = _decode(cost, "cost spec", lambda spec: function_from_spec(spec, "cost"))
    u = None if utility is None else _decode(
        utility, "utility spec", lambda spec: function_from_spec(spec, "utility"))
    return c, u


def _round12(obj):
    if isinstance(obj, float):
        # "inf", "-inf" or "nan" for a value that is not finite
        return float("%.12g" % obj) if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write(text, out):
    if not out:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError("cannot write %s: %s" % (out, exc))


def _emit_json(obj, out):
    _write(json.dumps(_round12(obj), sort_keys=True, indent=2) + "\n", out)


def _provenance(payload):
    # an @path input counts by its file's text, an inline one by itself
    payload = {k: _text(v) if isinstance(v, str) else v for k, v in payload.items()}
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()
    return digest[:12]


def _emit_csv(header, rows, prov, out):
    lines = ["# qtl %s %s" % (__version__, prov), ",".join(header)]
    for row in rows:
        lines.append(",".join("%.12g" % x for x in row))
    _write("\n".join(lines) + "\n", out)


def _failures_note(failures, kind):
    if failures:
        click.echo("%d %s point(s) failed" % (len(failures), kind), err=True)
        for f in failures:
            click.echo(json.dumps(_round12(f._asdict())), err=True)


def _fail(kind, code, message):
    click.echo(json.dumps({"error": {"type": kind, "message": message}}), err=True)
    sys.exit(code)


class _Main(click.Group):
    """The qtl group: any failure in its own options or below it ends as
    one JSON error object."""

    def main(self, args=None, **extra):
        try:
            return super().main(args, standalone_mode=False, **extra)
        # click >= 8.2 shows the help for a bare ``qtl`` by raising this usage error
        except getattr(click.exceptions, "NoArgsIsHelpError", ()) as exc:
            exc.show()
            sys.exit(exc.exit_code)
        except click.ClickException as exc:
            _fail("schema", 2, exc.format_message())
        except ValueError as exc:
            _fail("domain", 1, str(exc))
        except click.Abort:
            click.echo("Aborted!", err=True)
            sys.exit(1)


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="qtl")
def main():
    """Queue-length / service-cost / utility tradeoff toolkit."""


@main.command()
@click.option("--points", required=True, help="discrete (rate, cost) samples as JSON")
@click.option("--at", "at_rates", multiple=True, type=float,
              help="rates to evaluate the envelope at (repeatable)")
@click.option("--out", default=None, help="output path (default stdout)")
def envelope(points, at_rates, out):
    """Lower convex envelope of a discrete cost set (JSON: corners, values)."""
    env = lower_convex_envelope(_decode(points, "points", lambda v: _rows(v, 2)))
    values = {"%.12g" % r: evaluate(env, r) for r in at_rates}
    _emit_json({"corners": [[r, v] for r, v in zip(env.br, env.bv)],
                "values": values}, out)


@main.command()
@click.option("--cost", required=True, help="cost function spec (JSON or @file)")
@click.option("--utility", required=True, help="utility function spec")
@click.option("--cc", type=float, required=True, help="service cost ceiling")
@click.option("--uc", type=float, required=True, help="utility floor")
@click.option("--out", default=None)
def feasibility(cost, utility, cc, uc, out):
    """Constraint-pair status: feasible / boundary / infeasible."""
    c, u = _functions(cost, utility)
    _emit_json({"status": birth_death.feasibility(c, u, cc, uc),
                "c_c": cc, "u_c": uc}, out)


@main.command("eval")
@click.option("--policy", required=True, help="policy JSON (or @file)")
@click.option("--cost", required=True)
@click.option("--utility", default=None)
@click.option("--out", default=None)
def eval_cmd(policy, cost, utility, out):
    """Exact stationary metrics of a policy (JSON)."""
    p = _decode(policy, "policy", policy_from_json)
    c, u = _functions(cost, utility)
    m = exact_metrics(p, c, u)
    try:
        bound = qlength_upper_bound(p)
    except ValueError:
        bound = None
    _emit_json(dict(m._asdict(), qbar_upper_bound=bound), out)


def _problem(cost, utility, service_actions, arrival_actions, state_cap,
             beta1=0.0, beta2=0.0):
    c, u = _functions(cost, utility)
    srv = _decode(service_actions, "service actions", _numbers)
    arr = _decode(arrival_actions, "arrival actions", _numbers)
    return LagrangianProblem(beta1, beta2, srv, arr, c, u, state_cap=state_cap)


@main.command()
@click.option("--cost", required=True)
@click.option("--utility", default=None)
@click.option("--service-actions", required=True, help="JSON list of rates")
@click.option("--arrival-actions", required=True, help="JSON list of rates")
@click.option("--beta1", type=float, default=0.0, show_default=True)
@click.option("--beta2", type=float, default=0.0, show_default=True)
@click.option("--state-cap", type=int, default=500, show_default=True)
@click.option("--out", default=None)
def solve(cost, utility, service_actions, arrival_actions, beta1, beta2,
          state_cap, out):
    """Solve one relaxed problem; JSON with gain, policy, exact metrics."""
    lp = _problem(cost, utility, service_actions, arrival_actions, state_cap,
                  beta1, beta2)
    res = mdp_solve(lp)
    m = exact_metrics(res.policy, lp.cost_fn, lp.utility_fn)
    _emit_json({"gain": res.gain, "iterations": res.iterations,
                "monotone": res.monotone,
                "policy": policy_to_json(res.policy),
                "metrics": {"qbar": m.qbar, "cbar": m.cbar, "ubar": m.ubar}},
               out)


def _grid(flags, grid_json, spec, what, make, default=None):
    """A grid given as a JSON list, or made by ``make`` from the values of
    its generator option; ``default`` without either.  ``flags`` names the
    list option and the generator option, which exclude each other."""
    if grid_json and spec:
        raise SchemaError("give %s or %s, not both" % flags)
    if grid_json:
        return _decode(grid_json, what, _numbers)
    return make(*spec) if spec else default


def _log_grid(lo, hi, n):
    if not (0 < lo < hi < math.inf and 2 <= n < math.inf and n.is_integer()):
        raise SchemaError("log grid needs 0 < lo < hi and an integer n >= 2, all finite")
    step = (math.log(hi) - math.log(lo)) / (int(n) - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(int(n))]


def _dyadic_grid(k0, k1):
    # past k = 1074, 2^-k is 0: no scale
    if not 0 <= k0 <= k1 <= 1074:
        raise SchemaError("dyadic range needs 0 <= k0 <= k1 <= 1074")
    return [2.0 ** -k for k in range(k0, k1 + 1)]


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
@click.option("--out", default=None)
def trace(cost, utility, service_actions, arrival_actions, beta1_grid,
          beta1_log, beta2_grid, beta2_log, state_cap, out):
    """Sweep multipliers; CSV beta1,beta2,c_c,u_c,q_star sorted by c_c."""
    b1 = _grid(("--beta1-grid", "--beta1-log"), beta1_grid, beta1_log,
               "multiplier grid", _log_grid)
    if b1 is None:
        raise SchemaError("need --beta1-grid or --beta1-log")
    b2 = _grid(("--beta2-grid", "--beta2-log"), beta2_grid, beta2_log,
               "multiplier grid", _log_grid, [0.0])
    lp = _problem(cost, utility, service_actions, arrival_actions, state_cap)
    points, failures = trace_tradeoff(lp, b1, b2)
    # the tolerance stays in the hash, so a change to it would change the hash
    prov = _provenance({"cmd": "trace", "cost": cost, "utility": utility,
                        "service": service_actions, "arrival": arrival_actions,
                        "beta1": b1, "beta2": b2, "cap": state_cap, "tol": TOL})
    _emit_csv(["beta1", "beta2", "c_c", "u_c", "q_star"],
              [(p.beta1, p.beta2, p.c_c, p.u_c, p.q_star) for p in points],
              prov, out)
    _failures_note(failures, "trace")


def _case_tag(obj):
    # a malformed tag is malformed input, in --case and in the lc family's params
    if not (isinstance(obj, dict) and isinstance(obj.get("family"), str)):
        raise SchemaError("a case tag is an object with a string 'family', got %.60s"
                          % json.dumps(obj))
    try:
        return CaseTag(obj["family"], obj.get("window"), obj.get("regime"), obj.get("anchor"))
    except ValueError as exc:
        raise SchemaError("bad case: %s" % exc)


_FAMILIES = {
    "mc1": mc1_policy,
    "mc21": mc21_policy,
    "mc22": mc22_policy,
    "mc23": mc23_policy,
    "lmu": lambda_mu_policy,
    "lc": lambda U, mu, case: lc_mirror_policy(mu, _case_tag(case), U),
}


def _params(text, family):
    """(params, U) of a family from the JSON in ``text``.  Each value must be
    a number or null (the constructor's default), but for lc's case tag."""
    def check(obj):
        for k, v in _object(obj).items():
            if not (v is None or _is_number(v) or (family, k) == ("lc", "case")):
                raise ValueError("param %r must be a number or null: %.60s" % (k, json.dumps(v)))
        return obj, obj.pop("U", None)
    return _decode(text, "params", check)


def _build(family, params, U):
    try:
        return _FAMILIES[family](U=U, **params)
    except TypeError as exc:
        raise SchemaError("bad params for family %s: %s" % (family, exc))


@main.command()
@click.option("--family", type=click.Choice(list(_FAMILIES)), required=True)
@click.option("--params", required=True, help="constructor parameters as JSON")
@click.option("--out", default=None)
def construct(family, params, out):
    """Build one family policy; emits Policy JSON."""
    kw, U = _params(params, family)
    if family != "mc21" and U is None:
        raise SchemaError("params need the scale U")
    _emit_json(policy_to_json(_build(family, kw, U)), out)


@main.command("sweep")
@click.option("--family", type=click.Choice(list(_FAMILIES)), required=True)
@click.option("--params", required=True)
@click.option("--cost", required=True)
@click.option("--utility", default=None)
@click.option("--c-ref", type=float, required=True,
              help="cost floor c at the anchor rate")
@click.option("--u-grid", default=None, help="JSON list of U values")
@click.option("--dyadic", nargs=2, type=int, default=None,
              help="K0 K1: U = 2^-k for k in [K0, K1]")
@click.option("--out", default=None)
def sweep_cmd(family, params, cost, utility, c_ref, u_grid, dyadic, out):
    """Sweep a family over U; CSV U,V,qbar,ubar,cbar."""
    kw, _ = _params(params, family)
    c, u = _functions(cost, utility)
    grid = _grid(("--u-grid", "--dyadic"), u_grid, dyadic, "U grid", _dyadic_grid,
                 _dyadic_grid(4, 14))
    samples, failures = sweep(functools.partial(_build, family, kw), grid, c, c_ref, u)
    prov = _provenance({"cmd": "sweep", "family": family, "params": kw,
                        "cost": cost, "utility": utility, "c_ref": c_ref,
                        "grid": grid})
    _emit_csv(["U", "V", "qbar", "ubar", "cbar"],
              [(s.U, s.V, s.qbar, s.ubar, s.cbar) for s in samples],
              prov, out)
    _failures_note(failures, "sweep")


def _sample_table(text):
    # a JSON list of rows, or sweep CSV without its comment and header lines
    text = text.strip()
    if text.startswith("["):
        return _strict_json(text)
    return [[float(x) for x in line.split(",")]
            for line in map(str.strip, text.splitlines())
            if line and not line.startswith(("#", "U,"))]


@main.command()
@click.option("--samples", "samples_in", required=True,
              help="sweep CSV path or JSON list of [U,V,qbar,ubar,cbar]")
@click.option("--regime", default=None,
              type=click.Choice(["finite", "log", "inv-sqrt", "inv"]),
              help="predicted regime for the verdict")
@click.option("--out", default=None)
def classify(samples_in, regime, out):
    """Fit growth models to sweep samples; JSON fit + verdict."""
    if not samples_in.startswith("@") and os.path.exists(samples_in):
        samples_in = "@" + samples_in
    rows = _decode(samples_in, "samples", lambda v: _rows(v, 5), parse=_sample_table)
    tag = CaseTag("", None, regime, None) if regime else None
    fit = classify_regime([ScalingSample(*row) for row in rows], tag)
    _emit_json(fit._asdict(), out)


@main.command()
@click.option("--policy", required=True)
@click.option("--cost", required=True)
@click.option("--utility", default=None)
@click.option("--case", "case_json", required=True,
              help='CaseTag JSON, e.g. {"family":"MC1","anchor":0.5,...}')
@click.option("--c-ref", type=float, required=True)
@click.option("--out", default=None)
def audit(policy, cost, utility, case_json, c_ref, out):
    """Lower-bound inequality audit of one policy; JSON check list."""
    p = _decode(policy, "policy", policy_from_json)
    c, u = _functions(cost, utility)
    tag = _decode(case_json, "case", _case_tag)
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
def simulate_cmd(policy, cost, utility, horizon, replications, seed, warmup, out):
    """Monte Carlo estimate of the metrics; JSON with 95% CIs."""
    p = _decode(policy, "policy", policy_from_json)
    c, u = _functions(cost, utility)
    est = sim_run(p, SimConfig(horizon, replications, seed, warmup), c, u)
    _emit_json(est._asdict(), out)


def _arg(value):
    return value if isinstance(value, str) else json.dumps(value)


@main.command("run")
@click.option("--manifest", required=True, help="experiment manifest JSON file")
@click.pass_context
def run_cmd(ctx, manifest):
    """Execute a manifest: {"mode": ..., option: value, ...}.

    A key is an option name with _ for -; a list fills a repeatable or
    multi-value option, other lists and objects pass as JSON text, and
    null leaves the option out.  Click then checks them as on the command
    line.
    """
    doc = _decode(manifest if manifest.startswith("@") else "@" + manifest,
                  "manifest", _object)
    mode = doc.pop("mode", None)
    if not isinstance(mode, str) or mode == "run" or mode not in main.commands:
        raise SchemaError("manifest 'mode' must name a subcommand, got %.60s"
                          % json.dumps(mode))
    cmd = main.commands[mode]
    argv = []
    for key, value in doc.items():
        if value is None:
            continue
        flag = "--" + key.replace("_", "-")
        opt = next((o for o in cmd.params if flag in o.opts), None)
        if opt is not None and opt.multiple and isinstance(value, list):
            argv += [a for v in value for a in (flag, _arg(v))]
        elif opt is not None and opt.nargs != 1 and isinstance(value, list):
            argv += [flag] + [_arg(v) for v in value]
        else:
            argv += [flag, _arg(value)]
    with cmd.make_context(mode, argv, parent=ctx) as sub:
        cmd.invoke(sub)


if __name__ == "__main__":
    main()
