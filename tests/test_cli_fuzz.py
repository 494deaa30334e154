"""Property test of the input contract of ``qtl run``.

Any manifest, however malformed, ends in exit 0, 1 or 2, never in a
traceback, and a non-zero exit comes with one JSON error object of type
``schema`` or ``domain`` on stderr.  Every stderr line that opens an
object, the error or a failure record, is strict JSON.  Each case starts
from a small valid manifest of one subcommand and replaces one of its
values with arbitrary JSON.  Numbers are drawn from small ranges only: a
large but valid rate, cap or horizon is costly input, not malformed
input; a 401-digit integer, which has no double, is malformed input and is
drawn too.  Strings that overflow to +-inf or underflow to 0 as numbers
reach the options parsed as floats or JSON lists, 1e-300 can become an
anchor or a rate next to 0, and one string is a sample table with an
infinite qbar.
"""

import json
import os

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from qtl.cli import _strict_json, main

CSQ = {"kind": "power", "domain": [0, 1], "exponent": 2}
USQRT = {"kind": "power", "domain": [0, 1], "exponent": 0.5}
ENV = {"kind": "piecewise",
       "points": [[0, 0], [0.2, 0.04], [0.4, 0.16], [0.5, 0.25], [1, 1]]}
POLICY = {"lambda": {"pieces": [[0, 0, 0.5]], "tail": 0.5},
          "mu": {"pieces": [[0, 0, 0.0]], "tail": 1.0}}
MC22 = {"lam": 0.39, "a_lam": 0.2, "b_lam": 0.4, "U": 0.25}
SAMPLES = [[v, v, 1.0 / v, 0.0, 0.0] for v in (0.1, 0.03, 0.01, 0.003, 0.001)]
# a sample table whose first qbar overflows to inf
INF_QBAR_SAMPLES = ("[[1,1,1e400,0,0],[1,0.1,2,0,0],[1,0.01,3,0,0],[1,0.001,4,0,0],"
                    "[1,0.0001,5,0,0]]")

BASES = {
    "envelope": {"points": [[0, 0], [0.5, 0.25], [1, 1]], "at": [0.5]},
    "feasibility": {"cost": CSQ, "utility": USQRT, "cc": 0.16, "uc": 0.6},
    "eval": {"policy": POLICY, "cost": CSQ, "utility": USQRT},
    "solve": {"cost": CSQ, "service_actions": [0.5, 1.0],
              "arrival_actions": [0.4], "beta1": 1.0, "state_cap": 12},
    "trace": {"cost": CSQ, "service_actions": [0.5, 1.0],
              "arrival_actions": [0.4], "beta1_grid": [0, 5], "state_cap": 12},
    "construct": {"family": "mc22", "params": MC22},
    "sweep": {"family": "mc22", "params": MC22, "cost": ENV, "c_ref": 0.154,
              "dyadic": [2, 4]},
    "classify": {"samples": SAMPLES, "regime": "inv"},
    "audit": {"policy": POLICY, "cost": CSQ, "utility": USQRT,
              "case": {"family": "MC1", "anchor": 0.5}, "c_ref": 0.25},
    "simulate": {"policy": POLICY, "cost": CSQ, "horizon": 5,
                 "replications": 2, "seed": 1},
}
PAIRS = [(mode, key) for mode, base in BASES.items() for key in base]

# keys the specs, policies, params and case tags read, so that drawn
# objects reach past the first type check
KEYS = st.sampled_from(["kind", "domain", "exponent", "points", "lambda", "mu",
                        "pieces", "tail", "bounds", "meta", "family", "window",
                        "anchor", "lam", "a_lam", "b_lam", "U", "K", "q_k",
                        "case"]) | st.text("abkmpqU_", max_size=4)
SCALARS = (st.none() | st.booleans() | st.integers(-3, 30)
           | st.sampled_from([-1.5, -0.0, 0.0, 1e-300, 0.1, 0.25, 0.5, 1.0, 2.5, 10 ** 400])
           | st.sampled_from(["", "mc1", "lc", "MC1", "MC2-3", "LC1", "power",
                              "piecewise", "discrete", "log", "[", "{}", "x,y",
                              "1e400", "-1e400", "1e-400", "[1e400]",
                              "-1.7976931348623157e308", INF_QBAR_SAMPLES]))
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=12)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # a string option may name a file; keep the cwd empty of anything else
    old = os.getcwd()
    path = tmp_path_factory.mktemp("fuzz")
    os.chdir(path)
    yield path
    os.chdir(old)


def check_run(workdir, doc):
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps(doc))
    res = CliRunner().invoke(main, ["run", "--manifest", str(manifest)],
                             catch_exceptions=False)
    assert res.exit_code in (0, 1, 2)
    for line in res.stderr.splitlines():
        if line.startswith("{"):
            _strict_json(line)
    if res.exit_code:
        err = _strict_json(res.stderr.splitlines()[-1])["error"]
        assert err["type"] == ("schema" if res.exit_code == 2 else "domain")
        assert isinstance(err["message"], str)


@pytest.mark.parametrize("mode", list(BASES))
def test_base_manifests_run(workdir, mode):
    manifest = workdir / "base.json"
    manifest.write_text(json.dumps(dict(BASES[mode], mode=mode)))
    res = CliRunner().invoke(main, ["run", "--manifest", str(manifest)],
                             catch_exceptions=False)
    assert res.exit_code == 0, res.stderr


@pytest.mark.parametrize("mode,key", PAIRS)
@settings(max_examples=25, deadline=None)
@given(value=JSON)
def test_manifest_value_fuzz(workdir, mode, key, value):
    check_run(workdir, dict(BASES[mode], mode=mode, **{key: value}))


@settings(max_examples=50, deadline=None)
@given(doc=JSON | st.dictionaries(
    st.sampled_from(["mode"] + sorted({k for b in BASES.values() for k in b})),
    JSON | st.sampled_from(list(BASES) + ["run"]), max_size=6))
def test_manifest_document_fuzz(workdir, doc):
    check_run(workdir, doc)
