"""Tests of the benchmark itself: seeded generators, the output checker,
and the metric names against BENCHMARK.json."""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from check import Checker, load_reference, parse_outcome  # noqa: E402
from tracing import Tracer, growth_exponent  # noqa: E402

cli = run.import_package()

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def _files(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generators_are_deterministic(tmp_path, name):
    a, b, c = (str(tmp_path / x) for x in "abc")
    ops_a = workloads.build(name, 7, a).ops
    workloads.build(name, 7, b)
    workloads.build(name, 8, c)
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)
    assert len(ops_a) == len(workloads.build(name, 8, c).ops)


def test_generated_cnf_is_occurrence_balanced_and_satisfiable():
    import random

    for seed in range(20):
        nv, clauses = workloads.random_3b2_cnf(random.Random(seed))
        lits = [lit for cl in clauses for lit in cl]
        assert all(lits.count(x) == 2 for x in (1, -1, 2, -2, 3, -3))
        assert workloads.satisfying(nv, clauses)


def _small_ops(tmp_path):
    """A few fast ops of each solver-based workload: anchor solves of
    poly-mix, and solve/oracle pairs of oracle-small."""
    poly = workloads.build("poly-mix", 3, str(tmp_path / "p")).ops
    small = workloads.build("oracle-small", 3, str(tmp_path / "o")).ops
    anchors = sorted({op.instance: op for op in poly
                      if os.path.basename(op.instance).startswith("a")
                      }.values(), key=lambda op: op.instance)
    solved = {op.instance for op in small if op.kind == "solve"}
    pairs = sorted((op for op in small if op.instance in solved),
                   key=lambda op: (op.instance, op.kind))
    return anchors[:10] + pairs[:8]


def _run(ops, tmp_path):
    """(op, exit code, stdout, stderr) of one untraced run of each op."""
    out_path = str(tmp_path / "stdout.txt")
    runs = []
    for op in ops:
        code, _, err, _, _ = run.run_op(cli, op, out_path)
        with open(out_path) as fh:
            runs.append((op, code, fh.read(), err))
    return runs


def _check(reference, runs, tmp_path):
    checker = Checker(reference)
    out_path = str(tmp_path / "checked.txt")
    for op, code, out, err in runs:
        with open(out_path, "w") as fh:
            fh.write(out)
        checker.record(op, code, out_path, err)
    return checker.finish()


def test_checker_passes_correct_outputs_and_counts_flips(tmp_path):
    runs = _run(_small_ops(tmp_path), tmp_path)
    reference = {}
    for op, _, out, _ in runs:
        decision, cost, _, _ = parse_outcome(out)
        reference[op.ref_key] = [decision, cost]
    verdict = _check(reference, runs, tmp_path)
    assert verdict.failed == 0 and verdict.referenced == len(runs)
    assert verdict.yes and verdict.no and verdict.compared == 4

    yes = next(r for r in runs if r[0].kind == "solve" and r[1] == 0)
    no = next(r for r in runs if r[0].kind == "solve" and r[1] == 1)
    flipped = dict(reference)
    flipped[yes[0].ref_key] = [True, reference[yes[0].ref_key][1] + 1]
    flipped[no[0].ref_key] = [True, 0]
    assert _check(flipped, runs, tmp_path).failed == 2

    # A printed cost that disagrees with the witness fails without any
    # reference, and so does a repeat that disagrees with the first run.
    lines = yes[2].splitlines()
    lines[1] = "cost: 999"
    bad = (yes[0], 0, "\n".join(lines) + "\n", "")
    assert _check({}, [bad], tmp_path).failed == 1
    repeat = (yes[0], 1, "decision: NO\n", "")
    assert _check({}, [repeat], tmp_path).failed == 0
    assert _check({}, [yes, repeat], tmp_path).failed == 1

    # A solver that disagrees with the oracle fails.
    oracle = next(r for r in runs if r[0].kind == "oracle" and r[1] == 0)
    solve = next(r for r in runs if r[0].kind == "solve"
                 and r[0].instance == oracle[0].instance)
    flip = (solve[0], 1, "decision: NO\n", "")
    assert _check({}, [flip], tmp_path).failed == 0
    assert _check({}, [flip, oracle], tmp_path).failed == 1


def test_reference_covers_the_anchor_blocks(tmp_path):
    """Every run compares its anchor ops, the heavy gate among them, with
    reference.json, whatever its seed."""
    reference = load_reference()
    for name in ("poly-mix", "oracle-small"):
        wl = workloads.build(name, 1000, str(tmp_path / name))
        anchors = [op for op in wl.once + wl.ops
                   if os.path.basename(op.instance).startswith("a")]
        assert anchors and all(op.ref_key in reference for op in anchors)


def test_checker_counts_lost_oracle_decisions(tmp_path):
    op = workloads.Op("oracle", [], (0, 1, 3), instance="x",
                      ref_key="oracle:x")
    gave_up = [(op, 3, "", "error: node limit reached")]
    assert _check({"oracle:x": [False, None]}, gave_up, tmp_path).failed == 1
    verdict = _check({"oracle:x": "undecided"}, gave_up, tmp_path)
    assert verdict.failed == 0 and verdict.undecided == 1


def test_checker_verify_verdicts(tmp_path):
    op = workloads.Op("verify", [], (1,), expect="far")
    far = "verified: no\nreason: voter 3 moved distance 9 > delta 1\n"
    won = "verified: no\nreason: target is not the unique winner\n"
    assert _check({}, [(op, 1, far, "")], tmp_path).failed == 0
    assert _check({}, [(op, 1, won, "")], tmp_path).failed == 1
    assert _check({}, [(op, 2, "", "error")], tmp_path).failed == 1


def test_metric_names_match_benchmark_json(tmp_path):
    ops = _small_ops(tmp_path)
    wl = workloads.Workload(ops[1:], once=ops[:1])
    tracer = Tracer()
    solvers = sys.modules["localbribery.solvers"]
    mcf = solvers.min_cost_flow_with_demands
    checker = Checker({})
    plain, traced, rounds, nets, edges = run.run_loop(
        cli, wl, 0, checker, str(tmp_path / "stdout.txt"), tracer)
    assert solvers.min_cost_flow_with_demands is mcf  # wrappers removed
    assert rounds == 1 and len(plain) == len(traced) == len(ops)
    assert plain[0][0] is ops[0]  # the heavy op runs once, first
    assert checker.finish().failed == 0
    e2e = run.end_to_end(plain, 0.1)
    assert {k: u for k, (_, u) in e2e.items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    layers = run.per_layer(tracer, wl, plain, traced, nets, edges)
    assert {k: u for k, (_, u) in layers.items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]
    }
    assert layers["cli.calls"][0] == len(ops)
    assert layers["flow.mcf.calls"][0] > 0


def test_layer_map_names_exist():
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        entries = json.load(fh)["entries"]
    layer_names = {m["name"] for m in BENCH["per_layer"]}
    e2e_names = {m["name"] for m in BENCH["end_to_end"]}
    workload_names = {w["name"] for w in BENCH["workloads"]}
    for e in entries:
        assert set(e["per_layer"]) <= layer_names
        assert set(e["gated_by"]) <= e2e_names
        assert e["workload"] in workload_names


def test_tracer_self_time_and_growth_fit():
    tracer = Tracer()
    names = [tracer.name_id(x) for x in ("outer", "inner")]
    for nid, parent, start, end in ((names[0], -1, 0.0, 10.0),
                                    (names[1], 0, 1.0, 4.0),
                                    (names[1], 0, 5.0, 6.0)):
        for arr, v in ((tracer.name, nid), (tracer.op, 0),
                       (tracer.parent, parent), (tracer.start, start),
                       (tracer.end, end), (tracer.v1, 0.0),
                       (tracer.v2, 0.0)):
            arr.append(v)
    assert tracer.self_times() == [6.0, 3.0, 1.0]
    pts = [(n, m, 1e-6 * n ** 3 * m) for n in (10, 20, 40) for m in (5, 9)]
    assert growth_exponent(pts) == pytest.approx(3.0)


def test_best_times_keeps_the_fastest_timing_of_each_op():
    a = workloads.Op("solve", [], (0,))
    b = workloads.Op("solve", [], (0,))
    T = run.Timing
    best = run.best_times([T(a, 2.0), T(b, 5.0), T(a, 1.0), T(b, 6.0)])
    assert sorted(s for _, s in best) == [1.0, 5.0]


def test_scaled_times_take_the_lower_quartile_relative_to_calibration():
    a = workloads.Op("solve", ["a"], (0,))
    b = workloads.Op("solve", ["b"], (0,))
    T = run.Timing
    # a's time over its calibration: 2, 1, 1.5, 8, 4; b is timed once.
    timings = [T(a, 2.0, 1.0), T(b, 5.0, 2.0), T(a, 1.0, 1.0),
               T(a, 3.0, 2.0), T(a, 8.0, 1.0), T(a, 4.0, 1.0)]
    assert run.scaled_times(timings) == pytest.approx(
        [1.5 * run.REF_CALIB_S, 2.5 * run.REF_CALIB_S])
    assert run.calibrate() > 0
