"""Command-line driver.

Exit codes: 0 = YES/success, 1 = NO/failed check, 2 = usage or parse
error, 3 = resource limit exceeded, out of memory, or stdout closed by its
reader (`error: output closed`), 4 = internal error (a bug: any other
exception, reported as `error: internal error: <type>: <message>`, so a
crash never reads as NO).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import flow
from .core import AlternativeSet, Preference, Profile, map_distinct, winners
from .gadgets import (
    GadgetError,
    gen_borda_gadget,
    gen_kapproval_maxdisp_priced_gadget,
    gen_kapproval_swap_gadget,
    realize_wmg,
    witness_from_assignment,
)
from .ioformat import (
    FormatError,
    parse_and_validate_3b2,
    parse_instance,
    parse_preference_text,
    parse_witness,
    parse_wmg_target,
    render_instance,
    render_preference,
)
from .metrics import (
    BallTooLarge,
    METRICS,
    distance,
    iter_ball,
)
from .oracle import OracleBudget, ResourceExceeded, solve_exhaustive
from .problem import BriberyInstance, BriberyOutcome, check_witness
from .solvers import (
    UnsupportedParameters,
    route_poly_solver,
    solve_kapproval_maxdisp,
    solve_kapproval_small_radius,
    solve_plurality,
    solve_sbucklin_maxdisp,
    solve_sbucklin_small_radius,
    solve_veto,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _routed(instance: BriberyInstance):
    """`route_poly_solver`, with the solver looked up by name in this
    module at call time, so that wrappers installed on this module's
    bindings (bench/tracing.py) see the call."""
    solver, reason = route_poly_solver(instance)
    return (None if solver is None else globals()[solver.__name__]), reason


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    except UnicodeDecodeError as e:
        raise CliError(f"cannot read {path}: not UTF-8 text ({e})")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}")


def _parse_file(path: str, parse, *args):
    """`parse` of the text of the file at `path`, with `path` in front of
    its `FormatError`s."""
    try:
        return parse(_read(path), *args)
    except FormatError as e:
        raise CliError(f"{path}: {e}")


def _adhoc_alts(text: str) -> AlternativeSet:
    names = dict.fromkeys(tok.strip() for tok in text.split(">"))
    if "" in names:
        raise CliError("empty alternative in preference")
    return AlternativeSet(tuple(names))


def _env_limit(name: str, convert, default):
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return convert(text)
    except ValueError:
        raise CliError(f"{name} must be a number, got {text!r}")


def _oracle_budget(args) -> OracleBudget:
    nodes = args.max_nodes
    if nodes is None:
        nodes = _env_limit("ORACLE_MAX_NODES", int, OracleBudget.max_nodes)
    time_s = args.time_limit
    if time_s is None:
        time_s = _env_limit("ORACLE_TIME_S", float, OracleBudget.time_limit_s)
    ball = args.max_ball if args.max_ball is not None else OracleBudget.max_ball
    try:
        return OracleBudget(nodes, ball, time_s)
    except ValueError as e:
        raise CliError(str(e))


def _print_outcome(outcome: BriberyOutcome) -> int:
    if not outcome.decision:
        print("decision: NO")
        return EXIT_NO
    print("decision: YES")
    print(f"cost: {outcome.total_price}")
    print("bribed: " + " ".join(str(i) for i in sorted(outcome.bribed)))
    _print_prefs(outcome.witness)
    return EXIT_YES


def _print_prefs(profile: Profile) -> None:
    """One `pref:` line per voter, with each distinct preference object
    rendered once, through this module's `render_preference` binding (so
    that a wrapper installed on it, as bench/tracing.py does, sees the
    calls)."""
    alts = profile.alternatives
    for text in map_distinct(
        lambda p: render_preference(p, alts), profile.prefs
    ):
        print("pref: " + text)


# The flags each reduction reads besides --cnf.
_REDUCTION_FLAGS = {
    "kapp-swap": ("delta_pad",),
    "kapp-maxdisp-priced": ("k", "filler_size"),
    "borda": ("metric", "filler_size"),
}


def _make_gadget(args):
    for flag in ("metric", "delta_pad", "k", "filler_size"):
        if (
            getattr(args, flag) is not None
            and flag not in _REDUCTION_FLAGS[args.reduction]
        ):
            raise CliError(
                f"--{flag.replace('_', '-')} does not apply to the "
                f"{args.reduction} reduction"
            )
    sat = _parse_file(args.cnf, parse_and_validate_3b2)
    try:
        if args.reduction == "kapp-swap":
            return gen_kapproval_swap_gadget(sat, args.delta_pad)
        if args.reduction == "kapp-maxdisp-priced":
            return gen_kapproval_maxdisp_priced_gadget(
                sat, 2 if args.k is None else args.k, args.filler_size
            )
        if args.metric is None:
            raise CliError("the borda reduction needs --metric")
        return gen_borda_gadget(sat, args.metric, args.filler_size)
    except GadgetError as e:
        raise CliError(str(e))


def _parse_assignment(text: str) -> tuple[int, ...]:
    bits = text.replace(",", "").replace(" ", "")
    if not bits or any(b not in "01" for b in bits):
        raise CliError(f"assignment must be a 0/1 string, got {text!r}")
    return tuple(int(b) for b in bits)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_winner(args) -> int:
    instance = _parse_file(args.instance, parse_instance)
    won = winners(instance.profile, instance.rule)
    alts = instance.profile.alternatives
    print("winners: " + " ".join(alts.names[a] for a in sorted(won)))
    unique = won == {instance.target}
    print(f"target-unique-winner: {'yes' if unique else 'no'}")
    return EXIT_YES if unique else EXIT_NO


def _cmd_distance(args) -> int:
    alts = _adhoc_alts(args.p1)
    p1 = parse_preference_text(args.p1, alts)
    p2 = parse_preference_text(args.p2, alts)
    print(distance(args.metric, p1, p2))
    return EXIT_YES


def _cmd_ball(args) -> int:
    alts = _adhoc_alts(args.pref)
    pref = parse_preference_text(args.pref, alts)
    if args.radius < 0:
        raise CliError("--radius must be non-negative")
    if args.cap < 0:
        raise CliError("--cap must be non-negative")
    count = 0
    for q in iter_ball(pref, args.metric, args.radius):
        count += 1
        if count > args.cap:
            raise CliError(
                f"ball exceeds cap {args.cap} elements", EXIT_RESOURCE
            )
        if not args.count_only:
            print(render_preference(q, alts))
    if args.count_only:
        print(count)
    return EXIT_YES


def _run_oracle(instance: BriberyInstance, args) -> int:
    try:
        outcome = solve_exhaustive(instance, _oracle_budget(args))
    except (ResourceExceeded, BallTooLarge) as e:
        raise CliError(str(e), EXIT_RESOURCE)
    return _print_outcome(outcome)


def _cmd_solve(args) -> int:
    instance = _parse_file(args.instance, parse_instance)
    solver, reason = _routed(instance)
    if solver is None:
        if args.oracle:
            return _run_oracle(instance, args)
        raise CliError(
            f"{reason}; no polynomial solver applies. "
            "Pass --oracle to run the exponential exact search anyway."
        )
    try:
        outcome = solver(instance)
    except UnsupportedParameters as e:  # routing bug; fail loudly
        raise CliError(f"internal routing error: {e}", EXIT_INTERNAL)
    return _print_outcome(outcome)


def _cmd_oracle(args) -> int:
    return _run_oracle(_parse_file(args.instance, parse_instance), args)


def _cmd_gen_gadget(args) -> int:
    gadget = _make_gadget(args)
    text = render_instance(gadget.instance)
    if args.out:
        _write(args.out, text)
        map_path = args.name_map or args.out + ".names"
        _write(map_path, gadget.render_name_map() + "\n")
    else:
        sys.stdout.write(text)
        if args.name_map:
            _write(args.name_map, gadget.render_name_map() + "\n")
    return EXIT_YES


def _cmd_witness(args) -> int:
    gadget = _make_gadget(args)
    assignment = _parse_assignment(args.assignment)
    try:
        witness = witness_from_assignment(gadget, assignment)
    except GadgetError as e:
        raise CliError(str(e))
    if not witness.satisfies:
        print("# assignment does not satisfy the formula; "
              "no winner guarantee")
    print("bribed: " + " ".join(str(i) for i in sorted(witness.bribed)))
    _print_prefs(witness.profile)
    return EXIT_YES


def _cmd_verify(args) -> int:
    table: dict[str, Preference] = {}
    instance = _parse_file(args.instance, parse_instance, table)
    witness = _parse_file(args.witness, parse_witness, instance, table)
    ok, reason, bribed, price = check_witness(instance, witness)
    if ok:
        print("verified: yes")
        print(f"cost: {price}")
        print("bribed: " + " ".join(str(i) for i in sorted(bribed)))
        return EXIT_YES
    print("verified: no")
    print(f"reason: {reason}")
    return EXIT_NO


def _cmd_realize_wmg(args) -> int:
    target = _parse_file(args.target, parse_wmg_target)
    try:
        profile = realize_wmg(target)
    except GadgetError as e:
        raise CliError(str(e))
    lines = ["alternatives: " + " ".join(profile.alternatives.names)]
    lines.extend(
        "pref: " + render_preference(p, profile.alternatives)
        for p in profile.prefs
    )
    lines.append("")  # the final newline, without a copy of the text
    text = "\n".join(lines)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _cmd_dump_flow(args) -> int:
    instance = _parse_file(args.instance, parse_instance)
    solver, reason = _routed(instance)
    if solver is None:
        raise CliError(f"{reason}; no flow network to dump")
    with flow.capture_networks() as nets:
        solver(instance)
    for idx, net in enumerate(nets):
        print(
            f"network {idx} nodes={net.num_nodes} "
            f"source={net.source} sink={net.sink}"
        )
        dumped = net.dump()
        if dumped:
            print(dumped)
    return EXIT_YES


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_oracle_limit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-nodes", type=int, default=None,
                   help="search node limit (env ORACLE_MAX_NODES)")
    p.add_argument("--time-limit", type=float, default=None,
                   help="seconds limit (env ORACLE_TIME_S)")
    p.add_argument("--max-ball", type=int, default=None,
                   help="per-voter ball element limit")


def _add_gadget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--reduction",
        required=True,
        choices=["kapp-swap", "kapp-maxdisp-priced", "borda"],
    )
    p.add_argument("--cnf", required=True, help="DIMACS CNF input file")
    p.add_argument("--metric", choices=list(METRICS), default=None,
                   help="metric for the borda reduction")
    p.add_argument(
        "--delta-pad", type=int, default=None,
        help="kapp-swap block padding, at least 4; the default is the "
             "paper's 100*m^2*n^2 on the formula after doubling, at least "
             "230,400, which makes millions of voters",
    )
    p.add_argument("--k", type=int, default=None,
                   help="kapp-maxdisp-priced approval count (default 2)")
    p.add_argument("--filler-size", type=int, default=None,
                   help="kapp-maxdisp-priced and borda filler pool size")


def build_parser() -> tuple[
    argparse.ArgumentParser, dict[str, argparse.ArgumentParser]
]:
    """The top-level parser, and each command's own sub-parser by name."""
    parser = argparse.ArgumentParser(
        prog="localbribery",
        description="Local distance-constrained bribery toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("winner", help="winners of an instance's profile")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_winner)

    p = sub.add_parser("distance", help="distance between two preferences")
    p.add_argument("--metric", required=True, choices=list(METRICS))
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", required=True)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("ball", help="enumerate a preference neighborhood")
    p.add_argument("--metric", required=True, choices=list(METRICS))
    p.add_argument("--radius", required=True, type=int)
    p.add_argument("--pref", required=True)
    p.add_argument("--cap", type=int, default=10**5)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("solve", help="decide an instance")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--oracle", action="store_true",
        help="consent to the exponential search on NP-complete cells",
    )
    _add_oracle_limit_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="force the exhaustive exact solver")
    p.add_argument("--instance", required=True)
    _add_oracle_limit_flags(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen-gadget", help="build a SAT-reduction instance")
    _add_gadget_flags(p)
    p.add_argument("--out", default=None, help="instance output file")
    p.add_argument("--name-map", default=None, help="sidecar name-map file")
    p.set_defaults(func=_cmd_gen_gadget)

    p = sub.add_parser(
        "witness", help="bribed profile from a satisfying assignment"
    )
    _add_gadget_flags(p)
    p.add_argument("--assignment", required=True, help="0/1 string, x1 first")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="check a witness against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--witness", required=True,
                   help="file of 'pref:' lines, one per voter")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "realize-wmg", help="profile with prescribed pairwise margins"
    )
    p.add_argument("--target", required=True, help="target description file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_realize_wmg)

    p = sub.add_parser(
        "dump-flow",
        help="print the flow networks a solver builds: one per guess that "
             "passes its count screen",
    )
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_dump_flow)

    return parser, sub.choices


# Building the parsers costs about as much as a small solve, so main()
# builds them once per process, on first use rather than at import.
_shared_parsers = functools.cache(build_parser)


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, when it has one."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    """Run one command; `argv=None` runs the program on `sys.argv`."""
    parser, commands = _shared_parsers()
    program = argv is None
    if program:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        # argv does not start with a command name (it is empty, `-h`, an
        # unknown command or `--` first): parse it whole.
        args = parser.parse_args(argv)
    else:
        # What the top-level parser would do with argv, without its own
        # pass over the arguments: hand the rest to the command's parser,
        # into a Namespace that already names the command, and report
        # leftovers under the top-level usage.
        args, extras = command.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if extras:
            parser.error("unrecognized arguments: " + " ".join(extras))
    try:
        code = args.func(args)
        if program:
            # The program's stdout lives until exit: flush it here, so that
            # a reader that has gone shows below, not at the exit flush.
            # A caller that passes argv owns its stdout and its flushes.
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away (`| head`): not a bug.  Send the
        # output still buffered to the null device, or the interpreter's
        # flush at exit fails on it again.
        _discard_stdout()
        print("error: output closed", file=sys.stderr)
        return EXIT_RESOURCE
    except FormatError as e:
        # Text read without a path in front: the distance and ball
        # preferences.
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except Exception as e:
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
