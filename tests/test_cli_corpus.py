"""A standing corpus of gadget and margin-realizer command lines.

Every call runs through ``cli.main`` in process, and one sha256 keeps each
call's argv, exit code, stdout and stderr and the bytes of every file it
writes (``--out``, its ``.names`` sidecar and ``--name-map``).  The corpus
uses only flag combinations that every reduction reads, so the digest
pins output, not flag handling.
"""

import hashlib
import os
import random
from fractions import Fraction
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


# Re-recorded when realize-wmg put the target's path in front of its parse
# errors and the gadget errors came to name their CLI flag or target key;
# every other record is as first recorded.
CORPUS_DIGEST = (
    "bcccaa1c0598498c9e9137f5dac3696b7cb1dd8e1d14c506d37ab279904b573f"
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


# -- the deciding commands ----------------------------------------------------

DECIDING_RULES = [
    "plurality", "veto", "kapproval 2", "positional 6 3 3 1 0", "borda",
    "maximin", "copeland 0", "copeland 1/3", "copeland 1/2", "copeland 1",
    "bucklin", "sbucklin",
]
LIMITS = ["--max-nodes", "3000", "--time-limit", "60"]


def _deciding_instances():
    """(name, text) of seeded instance files: two per rule and metric."""
    from conftest import random_instance
    from localbribery.core import ScoreVector, VotingRule
    from localbribery.ioformat import render_instance
    from localbribery.metrics import METRICS

    rng = random.Random(2424)
    for spec in DECIDING_RULES:
        tag, *args = spec.split()
        if tag == "kapproval":
            rule = VotingRule(tag, k=int(args[0]))
        elif tag == "positional":
            rule = VotingRule(tag, alpha=ScoreVector(tuple(map(int, args))))
        elif tag == "copeland":
            rule = VotingRule(tag, copeland_alpha=Fraction(args[0]))
        else:
            rule = VotingRule(tag)
        for metric in METRICS:
            for j in range(2):
                inst = random_instance(
                    rng, rule, metric, m_range=(3, 5), n_range=(2, 5),
                    delta_choices=(0, 1, 2, 3), budget_range=(0, 4),
                )
                name = f"{tag}{args[0] if args else ''}-{metric}-{j}.elb"
                yield name.replace("/", "_"), render_instance(inst)


DECIDING_DIGEST = (
    "810a9f7d8153129959ef0f9cac8778f652af3b3c39ed61dfa631c37659195c0b"
)


def test_deciding_cli_corpus_matches_its_digest(tmp_path, monkeypatch,
                                                capsys):
    # oracle, solve --oracle, winner and verify on every rule and metric:
    # verify reads the oracle's own output, and the unbribed profile as a
    # witness; one instance per rule also runs at one node and at a ball
    # of one member.
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    calls = 0

    def call(*argv):
        nonlocal calls
        code = main(list(argv))
        out, err = capsys.readouterr()
        h.update(repr((argv, code, out, err)).encode())
        calls += 1
        return out

    for name, text in _deciding_instances():
        (tmp_path / name).write_text(text)
        unbribed = "".join(
            "pref: " + line.split(" : ", 1)[1] + "\n"
            for line in text.splitlines() if line.startswith("voter:")
        )
        (tmp_path / (name + ".own")).write_text(unbribed)
        (tmp_path / (name + ".out")).write_text(
            call("oracle", "--instance", name, *LIMITS)
        )
        call("solve", "--oracle", "--instance", name, *LIMITS)
        call("winner", "--instance", name)
        call("verify", "--instance", name, "--witness", name + ".out")
        call("verify", "--instance", name, "--witness", name + ".own")
        if name.endswith("-swap-0.elb"):
            call("oracle", "--instance", name, "--max-nodes", "1")
            call("oracle", "--instance", name, "--max-ball", "1")
    assert calls == 12 * 3 * 2 * 5 + 12 * 2
    assert h.hexdigest() == DECIDING_DIGEST
