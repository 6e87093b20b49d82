"""Benchmark of the localbribery CLI.

    python3 bench/run.py --workload poly-mix --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`, never from an installed copy.  Workloads (BENCHMARK.json says why
each was chosen):

  poly-mix       `solve` on every tractable routing cell
  oracle-small   `oracle` on NP-complete cells, plus solve/oracle agreement
  gadget-verify  `gen-gadget`, `witness` and `verify` for every reduction

Load is a closed loop: one client, no threads, each CLI invocation
(`localbribery.cli.main(argv)`) issued after the previous one returned.  A
run first makes the workload's few heavy ops (seconds each) once, then
cycles through its list of short ops until `--seconds` have passed, and
always completes that list once.  On a shared virtual machine the CPU
speed can swing by a third for seconds at a time, and a whole run may fall
in a slow spell, so every op is preceded by a short fixed calibration
kernel, and the gated metrics (op_gmean_ms, op_p50_ms) take each cycled
op's time relative to its calibration, scaled to a reference speed (see
`scaled_times`).  Wall times are reported beside them; a heavy op's single
timing is reported but not gated.  Each op's output goes to a file that is
checked as soon as the op ends.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.  `--trace 1`
runs each op untraced and traced back to back and reports the per-layer
metrics, the tracing overhead among them.  Both print a human-readable
report first and one JSON line last.  Spans of a traced run are written to
`.bench_out/`.  The exit code is 0 when the run completed, whether or not
every op was correct, and non-zero when the package or an argument is
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from check import Checker  # noqa: E402
from tracing import Tracer, growth_exponent  # noqa: E402

SETUP_REPEATS = 6
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
# Op kinds of each workload, for the per-kind latency lines of the report.
KINDS = {
    "poly-mix": ("solve",),
    "oracle-small": ("oracle", "solve"),
    "gadget-verify": ("gen", "witness", "verify"),
}
TAILED = {"solve", "oracle", "verify"}
GROWTH_SOLVERS = ("solve_plurality", "solve_veto",
                  "solve_kapproval_small_radius", "solve_sbucklin_small_radius")
ALL_SOLVERS = GROWTH_SOLVERS + ("solve_kapproval_maxdisp",
                                "solve_sbucklin_maxdisp")


def import_package():
    """Import localbribery from this checkout's src/ or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "localbribery", "cli.py")):
        print(f"error: no localbribery sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import localbribery.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: localbribery imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return cli


def setup_seconds(workload: str, seed: int, workdir: str) -> list[float]:
    """SETUP_REPEATS set-up times, each in a fresh interpreter: importing
    the package and generating and writing the inputs."""
    code = (
        "import sys, time; t = time.perf_counter(); "
        f"sys.path[:0] = [{SRC!r}, {HERE!r}]; "
        "import localbribery.cli, workloads; "
        f"workloads.build({workload!r}, {seed}, {workdir!r}); "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return times


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# A fixed pure-Python kernel, timed just before each op: the op's time
# divided by it is the op's cost in units of the machine's speed at that
# moment.  The table is built once and the kernel keeps no objects, so its
# time does not depend on the program's heap.
_rng = random.Random(3)
_TABLE = [_rng.randrange(1 << 30) for _ in range(1 << 15)]
_KEYS = {i: _TABLE[i] & 1023 for i in range(4096)}
# Seconds one calibration takes at the reference speed: about its time in
# a fast spell of the 2-core x86 KVM guest the bounds were set on.  Scaled
# times read as wall times on a machine of that speed.
REF_CALIB_S = 0.003


def calibrate() -> float:
    """Seconds of one pass of the calibration kernel: an arithmetic loop
    and a loop of list and dict lookups over a 1 MB table."""
    t = time.perf_counter()
    x = 0
    for i in range(12000):
        x = (x * 31 + i) & 0xFFFF
    table, keys = _TABLE, _KEYS
    for i in range(8000):
        j = (x + i * 7919) & 0x7FFF
        x = (x + table[j] + keys[j & 4095]) & 0xFFFFF
    return time.perf_counter() - t


class Timing(NamedTuple):
    op: workloads.Op
    seconds: float
    calib: float = 0.0  # calibrate() just before the op; 0 if not taken


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


def run_op(cli, op, out_path: str, tracer=None, op_id: int = 0):
    """One CLI invocation with its stdout written to `out_path`, traced when
    `tracer` is given; returns (exit code, seconds, stderr, flow networks,
    flow edges)."""
    err = io.StringIO()
    nets = []
    flow_ctx = (cli.flow.capture_networks() if tracer
                else contextlib.nullcontext(nets))
    if tracer:
        tracer.install()
        tracer.current_op = op_id
    try:
        with open(out_path, "w") as out, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), flow_ctx as nets:
            t = time.perf_counter()
            try:
                code = cli.main(op.argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
            except Exception:  # a traceback is a failed op, not a dead run
                traceback.print_exc()
                code = -1
            seconds = time.perf_counter() - t
    finally:
        if tracer:
            tracer.uninstall()
    edges = sum(len(net.edges) for net in nets)
    return code, seconds, err.getvalue(), len(nets), edges


def run_loop(cli, wl, seconds: float, checker: Checker, out_path: str,
             tracer=None):
    """Run each of the workload's heavy ops once, then cycle through its op
    list, checking each op as it ends, until the next op would end past
    `seconds` if it took as long as last time; the first round of the list
    always completes.

    With a tracer, each op runs twice in a row, untraced and traced, so
    that the tracing overhead compares timings taken moments apart; which
    goes first alternates, because a repeat finds warmer caches.  Returns
    (untraced timings, traced timings, rounds, flow networks, flow edges);
    the heavy ops' timings come first.  Each untraced run is preceded by a
    calibration, whose time its Timing carries."""
    plain: list[Timing] = []
    traced: list[Timing] = []
    nets = edges = 0
    modes = (None, tracer) if tracer else (None,)
    turns = 0

    def turn(op) -> None:
        nonlocal nets, edges, turns
        for mode in modes[::-1] if turns % 2 else modes:
            calib = 0.0 if mode else calibrate()
            code, s, err, n, e = run_op(cli, op, out_path, mode, turns)
            (traced if mode else plain).append(Timing(op, s, calib))
            nets += n
            edges += e
            if checker.record(op, code, out_path, err) and op.post:
                op.post(out_path)
        turns += 1

    start = time.perf_counter()
    for op in wl.once:
        turn(op)
    cost: dict[int, float] = {}  # wall time of the last turn at a list index
    i = 0
    while True:
        k = i % len(wl.ops)
        t = time.perf_counter()
        if i >= len(wl.ops) and t - start + cost[k] > seconds:
            break
        turn(wl.ops[k])
        cost[k] = time.perf_counter() - t
        i += 1
    return plain, traced, i / len(wl.ops), nets, edges


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, ordered[max(1, math.ceil(p * n / 100)) - 1]
    return None


def best_times(timings) -> list[tuple[workloads.Op, float]]:
    """(op, fastest seconds) of each distinct op of the run."""
    best: dict[int, tuple[workloads.Op, float]] = {}
    for t in timings:
        if id(t.op) not in best or t.seconds < best[id(t.op)][1]:
            best[id(t.op)] = (t.op, t.seconds)
    return list(best.values())


def scaled_times(timings: list[Timing]) -> list[float]:
    """Seconds of each distinct op at the reference machine speed: the
    lower quartile over the op's timings of its time divided by the
    calibration taken just before it, times REF_CALIB_S.

    The guest's speed swings by a third for seconds at a time, and a whole
    run may fall in a slow spell; the calibration follows the speed from op
    to op, and the lower quartile drops timings that a burst of load hit
    between the calibration and the op."""
    ratios: dict[int, list[float]] = {}
    for t in timings:
        ratios.setdefault(id(t.op), []).append(t.seconds / t.calib)
    return [
        REF_CALIB_S * (statistics.quantiles(r, n=4, method="inclusive")[0]
                       if len(r) > 1 else r[0])
        for r in ratios.values()
    ]


def end_to_end(timings: list[Timing], setup_s: float):
    scaled = scaled_times(timings)
    return {
        "setup_s": (setup_s, "s"),
        "op_gmean_ms": (
            1000 * math.exp(sum(map(math.log, scaled)) / len(scaled)), "ms"),
        "op_p50_ms": (1000 * statistics.median(scaled), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report_lines(workload, timings, once, rounds, e2e, verdict):
    """The end-to-end table of the workload: the BENCHMARK.json metrics
    (over the cycled ops, at the reference speed), then in wall time the
    cycled ops' rate, each heavy op's timing, and per op kind, over all
    ops, the median over each op's fastest timing and the tail over every
    timing, then failures and undecided ops."""
    n = verdict.attempted
    best = best_times(timings)
    heavy = {id(op) for op in once}
    cycled = [s for op, s in best if id(op) not in heavy]
    calib = statistics.median(t.calib for t in timings)
    lines = [
        f"workload {workload}: {len(timings)} timed ops, {len(best)} distinct; "
        f"{len(once)} heavy ops once, then {rounds:.2f} rounds of the op "
        f"list; {sum(t.seconds for t in timings):.3f} s of op time; "
        "closed loop, 1 client",
        f"  gated, at the reference speed (calibration {REF_CALIB_S * 1000:g}"
        f" ms; this run's median calibration {calib * 1000:.3f} ms):",
    ]
    lines += [f"  {name} {value:.4f} {unit}"
              for name, (value, unit) in e2e.items()]
    lines += [
        "  in wall time, not gated:",
        f"  ops_per_s {len(cycled) / sum(cycled):.4f} 1/s (cycled ops / sum "
        "of their fastest timings)",
    ]
    lines += [f"  heavy op `{' '.join(map(os.path.basename, op.argv))}` "
              f"{s * 1000:.1f} ms (1 timing)"
              for op, s, _ in timings if id(op) in heavy]
    for kind in KINDS[workload]:
        med = [s * 1000 for op, s in best if op.kind == kind]
        lines.append(f"  {kind}_p50_ms {statistics.median(med):.3f} ms "
                     f"({len(med)} ops)")
        if kind in TAILED:
            ms = [t.seconds * 1000 for t in timings if t.op.kind == kind]
            t = tail(ms)
            if t is None:
                lines.append(f"  {kind}_tail_ms omitted: {len(ms)} samples, "
                             "fewer than ten beyond p75")
            else:
                lines.append(f"  {kind}_tail_ms {t[1]:.3f} ms "
                             f"(p{t[0]:g} of {len(ms)} samples)")
    lines += [
        f"  fail_ratio {verdict.failed / n:.4f} ratio "
        f"({verdict.failed}/{n} failed)",
        f"  undecided_ratio {verdict.undecided / n:.4f} ratio "
        f"({verdict.undecided}/{n} at the node limit)",
    ]
    if verdict.yes or verdict.no:
        lines.append(f"  decisions: {verdict.yes} YES, {verdict.no} NO; "
                     f"{verdict.referenced} compared with reference.json, "
                     f"{verdict.compared} solve/oracle pairs compared")
    return lines


def per_layer(tracer, wl, plain, traced, nets, edges):
    """Per-layer metrics of the traced runs; the tracing overhead compares
    them with their untraced twins."""
    names = tracer.names
    selfs = tracer.self_times()
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    v1: dict[str, float] = {}
    v2: dict[str, float] = {}
    guesses = 0
    growth: dict[str, list] = {}
    for sid in range(tracer.count):
        name = names[tracer.name[sid]]
        dur = tracer.end[sid] - tracer.start[sid]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + selfs[sid]
        v1[name] = v1.get(name, 0.0) + tracer.v1[sid]
        v2[name] = v2.get(name, 0.0) + tracer.v2[sid]
        parent = tracer.parent[sid]
        if name == "flow.mcf" and parent >= 0 and names[
                tracer.name[parent]] in ("solvers.solve_plurality",
                                         "solvers.solve_veto"):
            guesses += 1
        if name.startswith("solvers.solve_"):
            growth.setdefault(name, []).append(
                (tracer.v1[sid], tracer.v2[sid], dur))
    c = lambda k: calls.get(k, 0)  # noqa: E731
    s = lambda k: total.get(k, 0.0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    solves = sum(c(f"solvers.{fn}") for fn in ALL_SOLVERS)
    flow_calls = c("flow.mcf") + c("flow.maxflow")
    m = {
        "flow.networks": (nets, "count"),
        "flow.edges_per_network": (ratio(edges, nets), "count"),
        "flow.mcf.calls": (c("flow.mcf"), "count"),
        "flow.mcf.s": (s("flow.mcf"), "s"),
        "flow.maxflow.calls": (c("flow.maxflow"), "count"),
        "flow.maxflow.s": (s("flow.maxflow"), "s"),
        "flow.feasible_ratio": (
            ratio(v1.get("flow.mcf", 0) + v1.get("flow.maxflow", 0),
                  flow_calls), "ratio"),
    }
    for fn in ALL_SOLVERS:
        m[f"solvers.{fn}.calls"] = (c(f"solvers.{fn}"), "count")
        m[f"solvers.{fn}.s"] = (s(f"solvers.{fn}"), "s")
    m["solvers.self_s"] = (
        sum(v for k, v in own.items() if k.startswith("solvers.")), "s")
    m["solvers.guesses_per_solve"] = (
        ratio(guesses + c("solvers.guess"), solves), "count")
    m["solvers.voter_class_ratio"] = (
        ratio(wl.voter_classes, wl.class_voters), "ratio")
    for fn in GROWTH_SOLVERS:
        m[f"solvers.{fn}.growth_exp"] = (
            growth_exponent(growth.get(f"solvers.{fn}", [])), "exponent")
    ball_el = v1.get("metrics.ball", 0.0)
    m.update({
        "metrics.ball.calls": (c("metrics.ball"), "count"),
        "metrics.ball.s": (s("metrics.ball"), "s"),
        "metrics.ball.elements": (int(ball_el), "count"),
        "metrics.ball.us_per_element": (
            ratio(s("metrics.ball") * 1e6, ball_el), "us"),
        "metrics.distance.calls": (c("metrics.distance"), "count"),
        "metrics.distance.s": (s("metrics.distance"), "s"),
        "oracle.solve_exhaustive.calls": (
            c("oracle.solve_exhaustive"), "count"),
        "oracle.solve_exhaustive.s": (s("oracle.solve_exhaustive"), "s"),
        "oracle.self_s": (own.get("oracle.solve_exhaustive", 0.0), "s"),
        "oracle.leaf_checks": (c("oracle.leaf_check"), "count"),
        "oracle.leaf_win_ratio": (
            ratio(v1.get("oracle.leaf_check", 0), c("oracle.leaf_check")),
            "ratio"),
        "oracle.ball_elements_per_voter": (
            ratio(ball_el, c("metrics.ball")), "count"),
        "core.winners.calls": (c("core.winners"), "count"),
        "core.winners.s": (s("core.winners"), "s"),
        "core.positional_scores.calls": (
            c("core.positional_scores"), "count"),
        "core.positional_scores.s": (s("core.positional_scores"), "s"),
        "problem.check_witness.calls": (c("problem.check_witness"), "count"),
        "problem.check_witness.s": (s("problem.check_witness"), "s"),
        "problem.check_witness.self_s": (
            own.get("problem.check_witness", 0.0), "s"),
        "gadgets.gen.s": (s("gadgets.gen"), "s"),
        "gadgets.witness.s": (s("gadgets.witness"), "s"),
        "gadgets.witness.self_s": (own.get("gadgets.witness", 0.0), "s"),
        "gadgets.voters": (
            ratio(v1.get("gadgets.gen", 0), c("gadgets.gen")), "count"),
        "gadgets.alternatives": (
            ratio(v2.get("gadgets.gen", 0), c("gadgets.gen")), "count"),
        "ioformat.parse_instance.calls": (
            c("ioformat.parse_instance"), "count"),
        "ioformat.parse_instance.s": (s("ioformat.parse_instance"), "s"),
        "ioformat.parse_mb_per_s": (
            ratio(v1.get("ioformat.parse_instance", 0) / 1e6,
                  s("ioformat.parse_instance")), "MB/s"),
        "ioformat.render.s": (s("ioformat.render"), "s"),
        "cli.calls": (c("cli.main"), "count"),
        "cli.self_s": (own.get("cli.main", 0.0), "s"),
        "trace.overhead_pct": (
            100 * (ratio(sum(t.seconds for t in traced),
                         sum(t.seconds for t in plain)) - 1), "%"),
    })
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    t_start = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cli = import_package()
    checker = Checker()
    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    setup_dir = workdir + "-setup"
    try:
        # Set-up is timed before and after the loop and the fastest time
        # kept: the machine's slow spells last seconds, and the fastest of
        # two batches half a minute apart is seldom taken in one.
        setup_times = setup_seconds(args.workload, args.seed, setup_dir)
        wl = workloads.build(args.workload, args.seed, workdir)
        out_path = os.path.join(workdir, "stdout.txt")
        tracer = Tracer() if args.trace else None
        plain, traced, rounds, nets, edges = run_loop(
            cli, wl, args.seconds, checker, out_path, tracer)
        verdict = checker.finish()
        setup_times += setup_seconds(args.workload, args.seed, setup_dir)
        setup_s = min(setup_times)
        heavy = {id(op) for op in wl.once}
        cycled = [t for t in plain if id(t.op) not in heavy]
        metrics = end_to_end(cycled, setup_s)
        lines = report_lines(args.workload, plain, wl.once, rounds, metrics,
                             verdict)
        if tracer:
            metrics = per_layer(tracer, wl, plain, traced, nets, edges)
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir,
                                 f"spans-{args.workload}-{args.seed}.tsv")
            tracer.write(spans)
            lines += [
                f"traced: each op again right after or before its untraced "
                f"run; {tracer.count} spans in {os.path.relpath(spans, ROOT)}",
                "  per-layer metrics (layers this workload never calls read 0):",
            ]
            lines += [f"  {name} {value:.6g} {unit}"
                      for name, (value, unit) in metrics.items()]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(setup_dir, ignore_errors=True)
    for line in lines:
        print(line)
    print(f"run wall time {time.perf_counter() - t_start:.1f} s")
    print(json.dumps({
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
