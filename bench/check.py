"""Output checker: decides which ops failed, outside the timed interval.

A failure is an unexpected exit code (exit 2 is never expected), a
traceback, a YES whose witness does not pass `problem.check_witness` or
whose printed cost differs from the witness price, a decision or cost that
differs from the recorded reference, from an earlier run of the same op, or
from the other solver on the same instance, an oracle that stops at its
node limit where the reference decided, and a verify verdict other than
the one the witness was built to get.

The checker reads each op's output file as soon as the op has ended and
keeps only the decision and cost, so that the process's peak memory is
the program's, not that of outputs kept for later.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from workloads import Op

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")
# Reference and outcome value of an oracle op that stopped at its node limit.
UNDECIDED = "undecided"


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    undecided: int = 0
    referenced: int = 0
    compared: int = 0  # solve/oracle pairs compared
    yes: int = 0
    no: int = 0


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def parse_outcome(out: str) -> tuple[bool, int | None, list[str], set[int]]:
    """(decision, cost, witness preferences, bribed voters) of solve/oracle."""
    decision, cost, prefs, bribed = False, None, [], set()
    for line in out.splitlines():
        key, _, body = line.partition(": ")
        if key == "decision":
            decision = body == "YES"
        elif key == "cost":
            cost = int(body)
        elif key == "pref":
            prefs.append(body)
        elif key == "bribed":
            bribed = {int(x) for x in body.split()}
    return decision, cost, prefs, bribed


def head(path: str, lines: int = 2) -> list[str]:
    """The first lines of a file, without reading the rest."""
    with open(path) as fh:
        return [fh.readline().rstrip("\n") for _ in range(lines)]


class Checker:
    """Checks ops one at a time and keeps the counts in `verdict`.  Holds
    the library functions it checks with, bound before any tracing wrapper
    is installed."""

    def __init__(self, reference: dict | None = None):
        from localbribery.core import Profile
        from localbribery.ioformat import parse_instance, parse_preference_text
        from localbribery.problem import check_witness

        self._profile = Profile
        self._parse_instance = parse_instance
        self._parse_pref = parse_preference_text
        self._check_witness = check_witness
        self.reference = load_reference() if reference is None else reference
        self.verdict = Verdict()
        # (kind, instance) -> [decision, cost] or UNDECIDED, first seen.
        self.outcomes: dict[tuple[str, str], object] = {}

    def witness_ok(self, path: str, prefs: list[str], cost, bribed) -> bool:
        with open(path) as fh:
            instance = self._parse_instance(fh.read())
        alts = instance.profile.alternatives
        if len(prefs) != instance.n:
            return False
        witness = self._profile(
            alts, tuple(self._parse_pref(p, alts) for p in prefs)
        )
        ok, _, got_bribed, price = self._check_witness(instance, witness)
        return ok and price == cost and set(got_bribed) == bribed

    def record(self, op: Op, code: int, out_path: str, err: str) -> bool:
        """Check one run of `op`; True when it did not fail."""
        v = self.verdict
        v.attempted += 1
        ok = (code in op.codes and "Traceback" not in err
              and self._output_ok(op, code, out_path))
        v.failed += not ok
        return ok

    def _output_ok(self, op: Op, code: int, out_path: str) -> bool:
        if op.kind == "witness":
            # A non-satisfying assignment prints a comment before "bribed:".
            first, second = head(out_path)
            return first.startswith("bribed: ") and second.startswith("pref: ")
        if op.kind == "verify":
            return self._verify_ok(op.expect, *head(out_path))
        if op.kind not in ("solve", "oracle"):
            return True
        v = self.verdict
        if code == 3:
            v.undecided += 1
            outcome = UNDECIDED
        else:
            with open(out_path) as fh:
                decision, cost, prefs, bribed = parse_outcome(fh.read())
            if decision != (code == 0):
                return False
            if decision and not self.witness_ok(op.instance, prefs, cost,
                                                bribed):
                return False
            v.yes += decision
            v.no += not decision
            outcome = [decision, cost]
        ref = self.reference.get(op.ref_key) if op.ref_key else None
        if ref is not None:
            v.referenced += 1
            # An oracle may come to decide where the reference gave up;
            # the witness and pair checks still hold it to the truth.
            if ref != UNDECIDED and outcome != ref:
                return False
        return self.outcomes.setdefault((op.kind, op.instance),
                                        outcome) == outcome

    def finish(self) -> Verdict:
        """Compare each solve with the oracle on the same instance, unless
        the oracle stopped at its node limit; a disagreement fails one op."""
        v = self.verdict
        for (kind, instance), outcome in self.outcomes.items():
            oracle = self.outcomes.get(("oracle", instance))
            if kind != "solve" or oracle is None or oracle == UNDECIDED:
                continue
            v.compared += 1
            v.failed += outcome != oracle
        return v

    @staticmethod
    def _verify_ok(expect: str, first: str, second: str) -> bool:
        if expect == "yes":
            return first == "verified: yes"
        if first != "verified: no":
            return False
        if expect == "unbribed":
            return second == "reason: target is not the unique winner"
        return second.startswith("reason: voter ") and " moved distance " in second
