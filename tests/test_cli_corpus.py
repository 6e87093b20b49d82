"""A standing corpus of gadget and margin-realizer command lines.

Every call runs through ``cli.main`` in process, and one sha256 keeps each
call's argv, exit code, stdout and stderr and the bytes of every file it
writes (``--out``, its ``.names`` sidecar and ``--name-map``).  The corpus
uses only flag combinations that every reduction reads, so the digest
pins output, not flag handling.
"""

import hashlib
import os
from itertools import product

from localbribery.cli import main
from conftest import FROZEN_SAT_DIMACS

INPUTS = {
    "fix.cnf": FROZEN_SAT_DIMACS,
    "bad-header.cnf": "p dimacs 3 4\n1 2 3 0\n",
    "count.cnf": "p cnf 3 5\n" + FROZEN_SAT_DIMACS.split("\n", 2)[2],
    "arity.cnf": "p cnf 3 4\n1 2 0\n",
    "unbalanced.cnf": "p cnf 3 4\n1 2 3 0\n1 2 -3 0\n1 -2 3 0\n-1 -2 -3 0\n",
    "unterminated.cnf": "p cnf 3 4\n1 2 3\n",
    "even.wmg": "core: a b c\nspacing: 4\nmargin: a b 2\nmargin: b c 4\n"
                "margin: a c -2\n",
    "odd.wmg": "core: a b c d\nspacing: 5\nmargin: a b 1\nmargin: b c 3\n"
               "margin: c a 1\nmargin: d a -1\nmargin: d b 1\nmargin: c d 1\n",
    "roomy.wmg": "core: p q\nspacing: 7\nfillers: 80\nmargin: q p 3\n",
    "one.wmg": "core: solo\nspacing: 2\n",
    "few.wmg": "core: a b\nspacing: 4\nfillers: 1\nmargin: a b 2\n",
    "parity.wmg": "core: a b c\nspacing: 4\nmargin: a b 1\nmargin: b c 2\n",
    "unknown.wmg": "core: a b\nspacing: 4\nmargin: a z 2\n",
    "nospacing.wmg": "core: a b\nmargin: a b 2\n",
    "clash.wmg": "core: a f1\nspacing: 2\nmargin: a f1 2\n",
}

SWAP = ["--reduction", "kapp-swap", "--cnf", "fix.cnf"]
MAXDISP = ["--reduction", "kapp-maxdisp-priced", "--cnf", "fix.cnf"]
BORDA = ["--reduction", "borda", "--cnf", "fix.cnf"]


def _calls():
    # gen-gadget: paddings 4 and 5, and 3 below the floor; the
    # max-displacement gadget at k = 2 and 3, at the smallest filler pool
    # that builds (2,170 and 2,370 on this formula) and one below it.
    yield ["gen-gadget", *SWAP, "--delta-pad", "4", "--out", "swap4.elb"]
    yield ["gen-gadget", *SWAP, "--delta-pad", "5", "--name-map", "s5.names"]
    yield ["gen-gadget", *SWAP, "--delta-pad", "3"]
    for k, size in (("2", 2170), ("3", 2370)):
        for fillers in (size, size - 1):
            yield ["gen-gadget", *MAXDISP, "--k", k, "--filler-size",
                   str(fillers), "--out", f"md{k}-{fillers}.elb"]
    yield ["gen-gadget", *MAXDISP, "--k", "1", "--filler-size", "3000"]
    yield ["gen-gadget", *BORDA, "--metric", "swap", "--filler-size", "132"]
    yield ["gen-gadget", *BORDA, "--filler-size", "133"]
    for name in sorted(INPUTS) + ["missing.cnf"]:
        if name.endswith(".cnf") and name != "fix.cnf":
            yield ["gen-gadget", "--reduction", "kapp-swap", "--cnf", name,
                   "--delta-pad", "4"]
    # witness: every assignment, and two malformed ones
    for bits in product("01", repeat=3):
        a = "".join(bits)
        yield ["witness", *SWAP, "--delta-pad", "4", "--assignment", a]
        yield ["witness", *MAXDISP, "--filler-size", "2170",
               "--assignment", a]
    yield ["witness", *SWAP, "--delta-pad", "4", "--assignment", "0120"]
    yield ["witness", *SWAP, "--delta-pad", "4", "--assignment", "01"]
    # realize-wmg: odd and even margins, to a file and to stdout
    for name in sorted(INPUTS):
        if name.endswith(".wmg"):
            yield ["realize-wmg", "--target", name]
    yield ["realize-wmg", "--target", "odd.wmg", "--out", "odd.txt"]
    yield ["realize-wmg", "--target", "even.wmg", "--out", "even.txt"]


def _written(argv):
    """The files a call may write."""
    paths = []
    for flag, value in zip(argv, argv[1:]):
        if flag == "--out":
            paths.append(value)
            if argv[0] == "gen-gadget" and "--name-map" not in argv:
                paths.append(value + ".names")
        elif flag == "--name-map":
            paths.append(value)
    return paths


# Recorded before the gadget generators shared one P1 voter layout and one
# finish step, and before realize_wmg drew its fillers from the filler pool.
CORPUS_DIGEST = (
    "6f639f8fb37069077e297478641cf95067c194e3db5103d753ffbe7da3ce2476"
)


def test_gadget_cli_corpus_matches_its_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    h = hashlib.sha256()
    calls = 0
    for argv in _calls():
        code = main(argv)
        out, err = capsys.readouterr()
        h.update(repr((argv, code, out, err)).encode())
        for path in _written(argv):
            if os.path.exists(path):
                h.update(path.encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
        calls += 1
    assert calls == 45
    assert h.hexdigest() == CORPUS_DIGEST
