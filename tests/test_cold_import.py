"""A fresh interpreter that imports the CLI loads none of the heavy standard
modules the package does not need, and builds no oracle ball shape: every
CLI call pays for its imports before it does any work."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("dataclasses", "inspect", "typing", "fractions")

PROBE = """\
import json, sys
import localbribery.cli as cli
loaded = [m for m in {heavy!r} if m in sys.modules]
for argv in {calls!r}:
    assert cli.main(argv) in (0, 1), argv
    loaded.append([m for m in {heavy!r} if m in sys.modules])
print(json.dumps(loaded))
"""


def _probe(source: str, tmp_path):
    """The JSON value a fresh interpreter prints last after `source`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", source],
        env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _loaded_after(calls, tmp_path) -> list:
    return _probe(PROBE.format(heavy=HEAVY, calls=calls), tmp_path)


def _instance(tmp_path, rule: str) -> str:
    path = tmp_path / f"{rule}.elb"
    path.write_text(
        f"rule: {rule}\nmetric: swap\nalternatives: a b c\ntarget: c\n"
        "voter: delta=1 : a > c > b\nvoter: delta=1 : b > c > a\n"
        "voter: delta=0 : c > a > b\n"
    )
    return path.name


def test_cli_import_loads_no_heavy_module(tmp_path):
    assert _loaded_after([], tmp_path) == []


def test_only_copeland_loads_fractions(tmp_path):
    plurality, copeland = (
        ["--instance", _instance(tmp_path, rule)]
        for rule in ("plurality", "copeland")
    )
    loaded = _loaded_after(
        [["solve", *plurality], ["oracle", *plurality], ["oracle", *copeland]],
        tmp_path,
    )
    assert loaded == [[], [], ["fractions"]]


def test_cli_import_builds_no_ball_shape(tmp_path):
    # The oracle's table of ball shapes fills only as searches run, so an
    # import does no work for it; an oracle call then keeps its shapes.
    name = _instance(tmp_path, "borda")
    sizes = _probe(
        "import json, localbribery.cli as cli, localbribery.oracle as o\n"
        "sizes = [len(o._SHAPES)]\n"
        f"cli.main(['oracle', '--instance', {name!r}])\n"
        "print(json.dumps(sizes + [len(o._SHAPES)]))\n",
        tmp_path,
    )
    assert sizes == [0, 2]  # radii 0 and 1
