"""Record the reference outcomes of poly-mix and oracle-small.

    python3 bench/record_reference.py 1 2 3 ...

Runs every solve and oracle op of both workloads once for each given seed
(the anchor block comes with every seed) and writes {"<kind>:<instance
key>": [decision, cost] or "undecided"} to bench/reference.json, replacing
what the file held.  Every op must pass the checker, witness and
solve/oracle agreement checks included.  Record only from a commit whose
solvers and oracle are trusted; the reference is what later commits are
held to.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads
from check import REFERENCE, Checker


def record(cli, seed: int, name: str, workdir: str, ref: dict) -> None:
    wl = workloads.build(name, seed, workdir)
    checker = Checker({})
    out_path = os.path.join(workdir, "stdout.txt")
    # Each distinct instance once, and the anchor block for the first seed
    # only.
    todo = list({op.ref_key: op for op in wl.once + wl.ops
                 if op.ref_key not in ref}.values())
    for op in todo:
        code, _, err, _, _ = run.run_op(cli, op, out_path)
        checker.record(op, code, out_path, err)
    verdict = checker.finish()
    if verdict.failed:
        raise SystemExit(f"{name} seed {seed}: {verdict.failed} ops failed")
    for op in todo:
        ref[op.ref_key] = checker.outcomes[(op.kind, op.instance)]


def main(seeds: list[int]) -> None:
    cli = run.import_package()
    ref: dict = {}
    workdir = os.path.join(run.ROOT, ".bench_work", f"reference-{os.getpid()}")
    try:
        for seed in seeds:
            for name in ("poly-mix", "oracle-small"):
                record(cli, seed, name, workdir, ref)
                shutil.rmtree(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(ref.items())
        ) + "\n}\n")
    print(f"{len(ref)} reference outcomes in {REFERENCE}")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
