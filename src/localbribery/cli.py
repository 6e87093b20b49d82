"""Command-line driver.

Exit codes: 0 = YES/success, 1 = NO/failed check, 2 = usage or parse
error, 3 = resource limit exceeded, 4 = internal error (a bug: any other
exception, reported as `error: internal error: <type>: <message>`, so a
crash never reads as NO).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import flow
from .core import (
    AlternativeSet,
    Preference,
    Profile,
    winners,
)
from .gadgets import (
    GadgetError,
    KIND_BORDA,
    KIND_KAPP_MAXDISP,
    KIND_KAPP_SWAP,
    Sat3B2Error,
    WmgTarget,
    gen_borda_gadget,
    gen_kapproval_maxdisp_priced_gadget,
    gen_kapproval_swap_gadget,
    parse_and_validate_3b2,
    realize_wmg,
    witness_from_assignment,
)
from .ioformat import (
    FormatError,
    parse_instance,
    parse_preference_once,
    parse_preference_text,
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


def _load_instance(
    path: str, table: dict[str, Preference] | None = None
) -> BriberyInstance:
    try:
        return parse_instance(_read(path), table)
    except FormatError as e:
        raise CliError(f"{path}: {e}")


def _adhoc_alts(text: str) -> AlternativeSet:
    names = dict.fromkeys(tok.strip() for tok in text.split(">"))
    if "" in names:
        raise CliError("empty alternative in preference")
    return AlternativeSet(tuple(names))


def _parse_pref(text: str, alts: AlternativeSet) -> Preference:
    try:
        return parse_preference_text(text, alts)
    except FormatError as e:
        raise CliError(str(e))


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
        nodes = _env_limit("ORACLE_MAX_NODES", int, 10**6)
    time_s = args.time_limit
    if time_s is None:
        time_s = _env_limit("ORACLE_TIME_S", float, 60.0)
    ball = args.max_ball if args.max_ball is not None else 10**5
    try:
        return OracleBudget(nodes, ball, time_s)
    except ValueError as e:
        raise CliError(str(e))


def _print_outcome(instance: BriberyInstance, outcome: BriberyOutcome) -> int:
    if not outcome.decision:
        print("decision: NO")
        return EXIT_NO
    print("decision: YES")
    print(f"cost: {outcome.total_price}")
    print("bribed: " + " ".join(str(i) for i in sorted(outcome.bribed)))
    alts = instance.profile.alternatives
    for pref in outcome.witness.prefs:
        print("pref: " + render_preference(pref, alts))
    return EXIT_YES


def _make_gadget(args):
    try:
        sat = parse_and_validate_3b2(_read(args.cnf))
    except Sat3B2Error as e:
        raise CliError(f"{args.cnf}: {e}")
    try:
        if args.reduction == "kapp-swap":
            return gen_kapproval_swap_gadget(sat, args.delta_pad)
        if args.reduction == "kapp-maxdisp-priced":
            return gen_kapproval_maxdisp_priced_gadget(
                sat, args.k, args.filler_size
            )
        if args.metric is None:
            raise CliError("the borda reduction needs --metric")
        return gen_borda_gadget(sat, args.metric, args.filler_size)
    except (GadgetError, Sat3B2Error) as e:
        raise CliError(str(e))


def _parse_assignment(text: str) -> tuple[int, ...]:
    bits = text.replace(",", "").replace(" ", "")
    if not bits or any(b not in "01" for b in bits):
        raise CliError(f"assignment must be a 0/1 string, got {text!r}")
    return tuple(int(b) for b in bits)


def _wmg_int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise CliError(f"line {lineno}: expected an integer, got {text!r}")


def _parse_wmg_target(text: str) -> WmgTarget:
    core = None
    spacing = None
    fillers = None
    margin_lines: list[tuple[int, str, str, int]] = []
    header_line: dict[str, int] = {}  # header key -> line it was set on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, body = line.partition(":")
        key, body = key.strip(), body.strip()
        if not sep:
            raise CliError(f"line {lineno}: expected 'key: value'")
        if key in header_line:
            raise CliError(
                f"line {lineno}: repeated '{key}:' line "
                f"(first on line {header_line[key]})"
            )
        if key != "margin":
            header_line[key] = lineno
        if key == "core":
            core = tuple(body.split())
        elif key == "spacing":
            spacing = _wmg_int(body, lineno)
        elif key == "fillers":
            fillers = _wmg_int(body, lineno)
        elif key == "margin":
            parts = body.split()
            if len(parts) != 3:
                raise CliError(f"line {lineno}: margin needs '<a> <b> <value>'")
            margin_lines.append(
                (lineno, parts[0], parts[1], _wmg_int(parts[2], lineno))
            )
        else:
            raise CliError(f"line {lineno}: unknown key {key!r}")
    if core is None or spacing is None:
        raise CliError("target file needs core: and spacing: lines")
    index = {name: i for i, name in enumerate(core)}
    ell = len(core)
    margins = [[0] * ell for _ in range(ell)]
    for lineno, a, b, v in margin_lines:
        for name in (a, b):
            if name not in index:
                raise CliError(
                    f"line {lineno}: margin references unknown core "
                    f"alternative {name!r}"
                )
        margins[index[a]][index[b]] = v
        margins[index[b]][index[a]] = -v
    try:
        return WmgTarget(
            core, tuple(tuple(r) for r in margins), spacing, fillers
        )
    except GadgetError as e:
        raise CliError(str(e))


def _read_witness_profile(
    path: str, instance: BriberyInstance, table: dict[str, Preference]
) -> Profile:
    """The `pref:` lines of a witness file, parsed through `table`, the
    preference table the instance was parsed with.  The `decision:`,
    `cost:` and `bribed:` lines of `solve` and `witness` output are
    skipped."""
    alts = instance.profile.alternatives
    prefs = []
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, body = line.partition(":")
        key = key.strip()
        if not sep:
            raise CliError(f"{path}: line {lineno}: expected 'key: value'")
        if key in ("decision", "cost", "bribed"):
            continue
        if key != "pref":
            raise CliError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            prefs.append(parse_preference_once(body, alts, lineno, table))
        except FormatError as e:
            raise CliError(f"{path}: {e}")
    if len(prefs) != instance.n:
        raise CliError(
            f"{path}: witness has {len(prefs)} preferences, instance has "
            f"{instance.n} voters"
        )
    return Profile(alts, tuple(prefs))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_winner(args) -> int:
    instance = _load_instance(args.instance)
    won = winners(instance.profile, instance.rule)
    alts = instance.profile.alternatives
    print("winners: " + " ".join(alts.names[a] for a in sorted(won)))
    unique = won == {instance.target}
    print(f"target-unique-winner: {'yes' if unique else 'no'}")
    return EXIT_YES if unique else EXIT_NO


def _cmd_distance(args) -> int:
    alts = _adhoc_alts(args.p1)
    p1 = _parse_pref(args.p1, alts)
    p2 = _parse_pref(args.p2, alts)
    print(distance(args.metric, p1, p2))
    return EXIT_YES


def _cmd_ball(args) -> int:
    alts = _adhoc_alts(args.pref)
    pref = _parse_pref(args.pref, alts)
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
    except ResourceExceeded as e:
        raise CliError(str(e), EXIT_RESOURCE)
    except BallTooLarge as e:
        raise CliError(str(e), EXIT_RESOURCE)
    return _print_outcome(instance, outcome)


def _cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
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
    return _print_outcome(instance, outcome)


def _cmd_oracle(args) -> int:
    return _run_oracle(_load_instance(args.instance), args)


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
    alts = gadget.instance.profile.alternatives
    for pref in witness.profile.prefs:
        print("pref: " + render_preference(pref, alts))
    return EXIT_YES


def _cmd_verify(args) -> int:
    table: dict[str, Preference] = {}
    instance = _load_instance(args.instance, table)
    witness = _read_witness_profile(args.witness, instance, table)
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
    target = _parse_wmg_target(_read(args.target))
    try:
        profile = realize_wmg(target)
    except GadgetError as e:
        raise CliError(str(e))
    lines = ["alternatives: " + " ".join(profile.alternatives.names)]
    lines.extend(
        "pref: " + render_preference(p, profile.alternatives)
        for p in profile.prefs
    )
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _cmd_dump_flow(args) -> int:
    instance = _load_instance(args.instance)
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
    p.add_argument("--delta-pad", type=int, default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--filler-size", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
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

    return parser


# Building the parser costs about as much as a small solve, so main()
# builds it once per process, on first use rather than at import.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except Exception as e:
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
