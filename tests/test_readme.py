"""The README's examples run as written.

The Python quickstart fence runs as one script.  Each ``qtl`` line of the
CLI fence, with its ``\\`` continuations joined and split as a shell
would, runs through ``qtl.cli.main`` in README order, in an empty
directory that holds the ``policy.json`` the ``eval`` line reads and the
manifest block as ``experiment.json``.  Every command must exit 0 and
print, or write to ``--out``, output that parses.
"""

import json
import pathlib
import re
import shlex

import pytest
from click.testing import CliRunner

from qtl.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
FENCES = re.findall(r"^```(\w+)\n(.*?)^```", README, re.S | re.M)
# the one sh fence that runs qtl, its continuation lines joined
CLI_LINES = [line for lang, body in FENCES if lang == "sh"
             for line in body.replace("\\\n", " ").splitlines() if line.startswith("qtl ")]
# an M/M/1 policy at lambda = 0.4, mu = 1.0
POLICY = {"lambda": {"pieces": [], "tail": 0.4}, "mu": {"pieces": [[0, 0, 0.0]], "tail": 1.0}}


def _fence(lang):
    (body,) = [body for kind, body in FENCES if kind == lang]
    return body


def test_python_quickstart_runs(capsys):
    exec(compile(_fence("python"), "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert [float(x) for x in printed[:2]] == [pytest.approx(2.0 / 3.0), 0.4]
    assert len(printed) == 3 and float(printed[2]) > 0


def _parse(text, name):
    # a CSV artifact: provenance comment, header, rows of numbers
    if name.endswith(".csv"):
        comment, header, *rows = text.splitlines()
        assert comment.startswith("# qtl ") and header
        return [[float(x) for x in row.split(",")] for row in rows]
    return json.loads(text)


def test_cli_examples_run_in_order(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "policy.json").write_text(json.dumps(POLICY))
    (tmp_path / "experiment.json").write_text(_fence("json"))
    modes = []
    for line in CLI_LINES:
        argv = shlex.split(line)[1:]
        res = CliRunner().invoke(main, argv, catch_exceptions=False)
        assert res.exit_code == 0, (line, res.stderr)
        modes.append(argv[0])
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        if out is None and argv[0] == "run":
            out = json.loads(_fence("json")).get("out")
        if out is None:
            _parse(res.stdout, "stdout")
        else:
            assert res.stdout == ""
            assert _parse((tmp_path / out).read_text(), out)
    # the fence was found, and its manifest line ran too
    assert len(modes) > 1 and "run" in modes
