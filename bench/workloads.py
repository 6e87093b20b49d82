"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed writes
byte-identical instance and CNF files.  The generators use only the
standard library and their own code, so the program under test receives
nothing but the files.

A workload is a list of `Op`s, one CLI invocation each, which the runner
cycles through in list order, and a short list of heavy ops that take
seconds each, which it runs once per run, before the cycle.  Ops of `gadget-verify` feed each other
through files (a `gen-gadget` writes the instance a later `verify` reads),
so an op may carry a `post` step that derives files from its output file;
the runner calls it outside the timed interval.

poly-mix and oracle-small carry an anchor block drawn from ANCHOR_SEED
beside the block drawn from the run's seed.  Its outcomes are recorded in
reference.json, so every run compares some decisions, costs and undecided
ops with the reference whatever its seed, and its fixed share of the work
keeps the rates of runs with different seeds comparable.

The cycled ops are kept short (a round of the list takes 3-4 s on a 2-core
x86 KVM guest), so that a 38 s run times each of them six to ten times.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

ANCHOR_SEED = 0

# Oracle limits: the node limit binds, the time limit never does, so which
# instances end undecided (exit 3) depends on the inputs alone.
ORACLE_MAX_NODES = 1000
ORACLE_TIME_LIMIT_S = 600

PRICES = (1, 2, 3)


@dataclass
class Op:
    """One CLI invocation and what the checker expects of it."""

    kind: str  # solve | oracle | gen | witness | verify
    argv: list[str]
    codes: tuple[int, ...]  # exit codes that are not failures
    # Instance file a YES output is checked against.  A solve and an oracle
    # op on the same file must agree.
    instance: str | None = None
    ref_key: str | None = None  # reference.json key: "<kind>:<text_key>"
    expect: str = ""  # verify: "yes", "far" or "unbribed"
    # Called with the path of the op's output file after a run that exited
    # with one of `codes`.
    post: Callable[[str], None] | None = field(default=None, repr=False)


@dataclass
class Workload:
    ops: list[Op]  # cycled
    # Run once per run, before the cycle: too slow to be timed often.
    once: list[Op] = field(default_factory=list)
    # Input properties, computed from the generated instances.
    voter_classes: int = 0
    class_voters: int = 0


# ---------------------------------------------------------------------------
# Instance text
# ---------------------------------------------------------------------------

NAMES = "abcdefghij"


def render(rule, metric, m, target, orders, deltas, prices, budget) -> str:
    """Instance file text; `budget=None` writes the unpriced form."""
    alts = NAMES[:m]
    lines = [
        f"rule: {rule}",
        f"metric: {metric}",
        "alternatives: " + " ".join(alts),
        f"target: {alts[target]}",
    ]
    if budget is not None:
        lines.append(f"budget: {budget}")
    for order, d, p in zip(orders, deltas, prices):
        head = f"delta={d}" if budget is None else f"delta={d} price={p}"
        lines.append(f"voter: {head} : " + " > ".join(alts[a] for a in order))
    return "\n".join(lines) + "\n"


def text_key(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def random_orders(rng: random.Random, n: int, m: int) -> list[list[int]]:
    orders = []
    for _ in range(n):
        order = list(range(m))
        rng.shuffle(order)
        orders.append(order)
    return orders


def faction_orders(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """n voters, each a copy of one of m random orders, so that voters of
    one faction share their top, reach set and, often, price."""
    factions = random_orders(rng, m, m)
    return [list(rng.choice(factions)) for _ in range(n)]


def _scores(rule: str, orders, m: int) -> list[int]:
    """Higher is better: the rule's score, or minus the simplified-Bucklin
    level, for picking a target that does not already win."""
    counts = [0] * m
    if rule == "sbucklin":
        n = len(orders)
        level_of = [m] * m
        for level in range(1, m + 1):
            for o in orders:
                counts[o[level - 1]] += 1
            for a in range(m):
                if level_of[a] == m and 2 * counts[a] > n:
                    level_of[a] = level
        return [-x for x in level_of]
    top = {"plurality": 1, "veto": m - 1}.get(rule)
    if top is None:  # "kapproval K"
        top = int(rule.split()[1])
    for o in orders:
        for a in o[:top]:
            counts[a] += 1
    return counts


def top_window(delta: int, metric: str) -> int:
    """Leading positions from which an alternative can reach the top."""
    return delta // 2 + 1 if metric == "footrule" else delta + 1


def voter_classes(rule, metric, orders, deltas, prices) -> int:
    """Distinct (top or bottom, reach set, price) voter types of a
    plurality or veto instance."""
    classes = set()
    for o, d, p in zip(orders, deltas, prices):
        w = top_window(d, metric)
        if rule == "plurality":
            classes.add((o[0], frozenset(o[:w]), p))
        else:
            classes.add((o[-1], frozenset(o[-w:]), p))
    return len(classes)


# ---------------------------------------------------------------------------
# poly-mix: the polynomial solvers on every tractable routing cell
# ---------------------------------------------------------------------------

# (rule, metric, per-voter radius choices, m, n ladder).  m is fixed per
# cell so that each cell's n ladder gives a clean growth fit.
PRICED_CELLS = [
    ("plurality", "swap", (1, 2, 3), 8, (10, 20, 40)),
    ("plurality", "footrule", (2, 4, 6), 6, (10, 20, 40)),
    ("plurality", "maxdisp", (1, 2, 3), 10, (10, 20, 40)),
    ("veto", "swap", (1, 2, 3), 7, (10, 20, 40)),
    ("veto", "footrule", (2, 4, 6), 9, (10, 20, 40)),
    ("veto", "maxdisp", (1, 2, 3), 6, (10, 20, 40)),
    ("kapproval 2", "swap", (0, 1), 8, (15, 30, 60)),
    ("kapproval 3", "footrule", (0, 1, 2, 3), 7, (15, 30, 60)),
    ("kapproval 2", "maxdisp", (0, 1), 10, (15, 30, 60)),
    ("sbucklin", "swap", (0, 1), 6, (15, 30, 60)),
    ("sbucklin", "footrule", (0, 1, 2, 3), 8, (15, 30, 60)),
    ("sbucklin", "maxdisp", (0, 1), 9, (15, 30, 60)),
]
# Unpriced, uniform radius, max-displacement: the windowed solvers.
WINDOWED_CELLS = [
    ("kapproval 2", 8, (30, 60, 120)),
    ("sbucklin", 7, (30, 60, 120)),
]
# Gate instance of the plurality solver in the project roadmap: n = 200,
# m = 10.
GATE = ("plurality", "swap", (1, 2, 3), 10, 200)


def _priced_pair(rng, rule, metric, radii, m, n):
    """A profile with two budgets: zero (NO: every price is positive and the
    target does not win yet) and a generous one (usually YES)."""
    orders = faction_orders(rng, n, m)
    deltas = [rng.choice(radii) for _ in range(n)]
    prices = [rng.choice(PRICES) for _ in range(n)]
    scores = _scores(rule, orders, m)
    loser = min(range(m), key=lambda a: (scores[a], a))
    best = max(scores)
    rivals = [a for a in range(m) if scores[a] < best]
    target = rng.choice(rivals) if rivals else loser
    out = [
        render(rule, metric, m, loser, orders, deltas, prices, 0),
        render(rule, metric, m, target, orders, deltas, prices,
               rng.randint(n // 4, n)),
    ]
    classes = (
        voter_classes(rule, metric, orders, deltas, prices)
        if rule in ("plurality", "veto") else 0
    )
    return out, classes


def _windowed_pair(rng, rule, m, n):
    orders = faction_orders(rng, n, m)
    scores = _scores(rule, orders, m)
    loser = min(range(m), key=lambda a: (scores[a], a))
    target = rng.randrange(m)
    zeros = [0] * n
    return [
        render(rule, "maxdisp", m, loser, orders, [1] * n, zeros, None),
        render(rule, "maxdisp", m, target, orders, [3] * n, zeros, None),
    ]


def poly_instances(seed: int, anchor: bool = False):
    """(instance texts, voter classes, plurality/veto voters) of one block.

    The anchor block is the same cell list at the smallest n of each
    ladder, drawn from ANCHOR_SEED by a generator of its own, plus the gate
    instance.  The gate alone takes longer than the rest of the list
    together, so it is fixed rather than drawn from the run's seed."""
    rng = random.Random(f"poly-mix{'-anchor' if anchor else ''}:{seed}")
    texts: list[str] = []
    classes = voters = 0
    for rule, metric, radii, m, ladder in PRICED_CELLS:
        for n in ladder[:1] if anchor else ladder:
            pair, c = _priced_pair(rng, rule, metric, radii, m, n)
            texts += pair
            if c:
                classes += 2 * c
                voters += 2 * n
    for rule, m, ladder in WINDOWED_CELLS:
        for n in ladder[:1] if anchor else ladder:
            texts += _windowed_pair(rng, rule, m, n)
    if anchor:
        rule, metric, radii, m, n = GATE
        pair, c = _priced_pair(random.Random("poly-mix-gate"), rule, metric,
                               radii, m, n)
        texts.append(pair[1])
        classes += c
        voters += n
    return texts, classes, voters


def build_poly_mix(seed: int, workdir: str) -> Workload:
    ops: list[Op] = []
    classes = voters = 0
    for block, anchor in (("s", False), ("a", True)):
        texts, c, v = poly_instances(ANCHOR_SEED if anchor else seed, anchor)
        classes += c
        voters += v
        for i, text in enumerate(texts):
            path = _write(workdir, f"{block}{i:03d}.elb", text)
            ops.append(Op("solve", ["solve", "--instance", path], (0, 1),
                          instance=path, ref_key="solve:" + text_key(text)))
    # The gate, drawn last, takes seconds: it runs once per run.
    gate = ops.pop()
    _spread(ops, seed)
    return Workload(ops, [gate], voter_classes=classes, class_voters=voters)


# ---------------------------------------------------------------------------
# oracle-small: the exhaustive oracle on NP-complete cells
# ---------------------------------------------------------------------------

# Radius choices that keep each rule/metric cell NP-complete; footrule
# distances are even, so footrule radii run one step higher.
NP_RULES = ("borda", "maximin", "copeland", "bucklin", "kapproval 2", "sbucklin")
NP_RADII = {
    "swap": (1, 2, 3),
    "footrule": (2, 3, 4),
    "maxdisp": (1, 2, 3),
}
NP_RADII_APPROVAL = {  # k-approval and simplified Bucklin: radius >= 2
    "swap": (2, 3),
    "footrule": (4,),
    "maxdisp": (2, 3),
}
# Tractable cells at the same sizes: solved by both `solve` and `oracle`.
SMALL_TRACTABLE = [
    ("plurality", "swap", (1, 2, 3)),
    ("plurality", "footrule", (2, 3, 4)),
    ("plurality", "maxdisp", (1, 2, 3)),
    ("veto", "swap", (1, 2, 3)),
    ("veto", "footrule", (2, 3, 4)),
    ("veto", "maxdisp", (1, 2, 3)),
    ("kapproval 2", "swap", (0, 1)),
    ("kapproval 2", "footrule", (2, 3)),
    ("kapproval 2", "maxdisp", (0, 1)),
    ("sbucklin", "swap", (0, 1)),
    ("sbucklin", "footrule", (2, 3)),
    ("sbucklin", "maxdisp", (0, 1)),
]
SMALL_M = (5, 6)
SMALL_N = (4, 5, 6)
# (m, n) sizes of the NP-complete draws.  m = 7 is the costliest (the ball
# filters all 5040 orders): it runs at the smallest n, and for one metric
# per rule only (NP_M7_SIZE), so that a round of the op list stays short.
NP_SIZES = [(5, 4), (5, 6), (6, 5)]
NP_M7_SIZE = (7, 4)
NP_METRICS = ("swap", "footrule", "maxdisp")


def _oracle_argv(path: str) -> list[str]:
    return ["oracle", "--instance", path,
            "--max-nodes", str(ORACLE_MAX_NODES),
            "--time-limit", str(ORACLE_TIME_LIMIT_S)]


def oracle_instances(seed: int, half: int):
    """(NP-complete instance texts, tractable instance texts, voter
    classes, plurality/veto voters) of one block.  A block draws every
    tractable cell, and every other (rule, metric, size) NP-complete cell,
    those of the other `half` (0 or 1) being left to the other block."""
    rng = random.Random(f"oracle-small:{seed}")
    hard: list[str] = []
    hard_cells = [(rule, metric, m, n) for rule in NP_RULES
                  for metric in NP_METRICS for m, n in NP_SIZES]
    hard_cells += [(rule, NP_METRICS[i % 3], *NP_M7_SIZE)
                   for i, rule in enumerate(NP_RULES)]
    for rule, metric, m, n in hard_cells[half::2]:
        radii_of = NP_RADII_APPROVAL if rule in ("kapproval 2", "sbucklin") \
            else NP_RADII
        orders = random_orders(rng, n, m)
        deltas = [rng.choice(radii_of[metric]) for _ in range(n)]
        prices = [rng.choice(PRICES) for _ in range(n)]
        hard.append(render(rule, metric, m, rng.randrange(m), orders,
                           deltas, prices, rng.randint(1, 2 * n)))
    easy: list[str] = []
    classes = voters = 0
    cells = [(r, mt, radii, True) for r, mt, radii in SMALL_TRACTABLE]
    cells += [("kapproval 2", "maxdisp", (2,), False),
              ("sbucklin", "maxdisp", (2,), False)]
    for i, (rule, metric, radii, priced) in enumerate(cells):
        m = SMALL_M[i % 2]
        n = SMALL_N[(i // 2) % 3]
        orders = random_orders(rng, n, m)
        if priced:
            deltas = [rng.choice(radii) for _ in range(n)]
            prices = [rng.choice(PRICES) for _ in range(n)]
            budget = rng.randint(1, 2 * n)
        else:
            deltas, prices, budget = [radii[0]] * n, [0] * n, None
        easy.append(render(rule, metric, m, rng.randrange(m), orders, deltas,
                           prices, budget))
        if rule in ("plurality", "veto"):
            classes += voter_classes(rule, metric, orders, deltas, prices)
            voters += n
    return hard, easy, classes, voters


def build_oracle_small(seed: int, workdir: str) -> Workload:
    """`oracle` on every NP-complete instance; `solve` and `oracle` on every
    tractable one."""
    ops: list[Op] = []
    classes = voters = 0
    for half, (block, block_seed) in enumerate((("s", seed),
                                                ("a", ANCHOR_SEED))):
        hard, easy, c, v = oracle_instances(block_seed, half)
        classes += c
        voters += v
        for i, text in enumerate(hard + easy):
            path = _write(workdir, f"{block}{i:03d}.elb", text)
            key = text_key(text)
            if i >= len(hard):
                ops.append(Op("solve", ["solve", "--instance", path], (0, 1),
                              instance=path, ref_key="solve:" + key))
            ops.append(Op("oracle", _oracle_argv(path), (0, 1, 3),
                          instance=path, ref_key="oracle:" + key))
    _spread(ops, seed)
    return Workload(ops, voter_classes=classes, class_voters=voters)


# ---------------------------------------------------------------------------
# gadget-verify: gadget generation, witnesses and the verifier
# ---------------------------------------------------------------------------

# (label, CLI reduction flags, verifies).  The sizes are the smallest the
# generators accept for a 3-variable formula, except the k-approval swap
# padding, which is raised so that its parse and check take a tenth of a
# second or more.
#
# Borda under swap and footrule are left out: each Borda op takes 2-6 s on
# a 2-core x86 KVM guest, so even the one Borda kind, run once per run,
# takes a third of a 32 s run.
GADGET_KINDS = [
    ("kapp-swap", ["--reduction", "kapp-swap", "--delta-pad", "100"],
     ("yes", "unbribed", "far")),
    ("kapp-maxdisp-priced",
     ["--reduction", "kapp-maxdisp-priced", "--k", "2", "--filler-size", "3000"],
     ("yes", "unbribed", "far")),
    ("borda-maxdisp",
     ["--reduction", "borda", "--metric", "maxdisp", "--filler-size", "133"],
     ("yes",)),
]


def random_3b2_cnf(rng: random.Random) -> tuple[int, list[tuple[int, ...]]]:
    """A 3-variable formula of four distinct clauses in which every literal
    occurs exactly twice.  Each clause rules out one of the eight
    assignments, so the formula is always satisfiable."""
    while True:
        signs = rng.sample(list(product((1, -1), repeat=3)), 4)
        if all(sum(s[v] for s in signs) == 0 for v in range(3)):
            break
    clauses = []
    for s in signs:
        lits = [s[v] * (v + 1) for v in range(3)]
        rng.shuffle(lits)
        clauses.append(tuple(lits))
    return 3, clauses


def satisfying(num_vars: int, clauses) -> list[str]:
    return [
        "".join(map(str, a))
        for a in product((0, 1), repeat=num_vars)
        if all(any((lit > 0) == bool(a[abs(lit) - 1]) for lit in cl)
               for cl in clauses)
    ]


def render_cnf(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines += [" ".join(map(str, cl)) + " 0" for cl in clauses]
    return "\n".join(lines) + "\n"


def instance_as_witness(text: str, far_voter: int | None = None) -> str:
    """The unbribed profile of an instance file as a witness file; with
    `far_voter`, that voter's preference is reversed, which moves it past
    any radius below the maximum distance."""
    out = []
    i = 0
    for line in text.splitlines():
        if not line.startswith("voter:"):
            continue
        pref = line.rsplit(" : ", 1)[1]
        if i == far_voter:
            pref = " > ".join(reversed(pref.split(" > ")))
        out.append("pref: " + pref)
        i += 1
    return "\n".join(out) + "\n"


def build_gadget_verify(seed: int, workdir: str) -> Workload:
    """Every kind runs `gen-gadget`, `witness` and the verify of its
    witness.  The failing verifies run on the k-approval kinds, whose
    gadgets are two orders of magnitude smaller than the Borda one.  The
    seed picks the formula, the assignments and the voter moved past its
    radius, never the op list, so every seed does the same work.

    The k-approval chains are the cycled list; the Borda chain, whose ops
    take seconds each, runs once per run."""
    rng = random.Random(f"gadget-verify:{seed}")
    num_vars, clauses = random_3b2_cnf(rng)
    cnf = _write(workdir, "formula.cnf", render_cnf(num_vars, clauses))
    assignments = satisfying(num_vars, clauses)
    chains: list[list[Op]] = []
    for label, flags, verifies in GADGET_KINDS:
        chain: list[Op] = []
        chains.append(chain)
        assignment = rng.choice(assignments)
        inst = os.path.join(workdir, f"{label}.elb")
        files = {v: os.path.join(workdir, f"{label}.{v}")
                 for v in ("yes", "unbribed", "far")}
        chain.append(Op("gen", ["gen-gadget", *flags, "--cnf", cnf,
                                "--out", inst], (0,),
                        post=_derive_failing(inst, files, rng.randrange(50))))
        chain.append(Op("witness", ["witness", *flags, "--cnf", cnf,
                                    "--assignment", assignment], (0,),
                        post=_saver(files["yes"])))
        for v in verifies:
            chain.append(Op("verify", ["verify", "--instance", inst,
                                       "--witness", files[v]],
                            (0,) if v == "yes" else (1,), instance=inst,
                            expect=v))
    return Workload(chains[0] + chains[1], chains[2])


def _derive_failing(inst: str, files: dict, far_voter: int):
    def post(_out_path: str) -> None:
        with open(inst) as fh:
            text = fh.read()
        _write_path(files["unbribed"], instance_as_witness(text))
        _write_path(files["far"], instance_as_witness(text, far_voter))
    return post


def _saver(path: str):
    """Keep the op's output file as the witness file at `path`."""
    return lambda out_path: shutil.copyfile(out_path, path)


# ---------------------------------------------------------------------------


def _spread(ops: list[Op], seed: int) -> None:
    """Shuffle independent ops in place, so that ops of one size are timed
    at different moments of the run rather than back to back: the
    machine's speed drifts over seconds, and a size class timed in one
    stretch would carry that stretch's speed."""
    random.Random(f"order:{seed}").shuffle(ops)


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    _write_path(path, text)
    return path


def _write_path(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


BUILDERS = {
    "poly-mix": build_poly_mix,
    "oracle-small": build_oracle_small,
    "gadget-verify": build_gadget_verify,
}
WORKLOADS = tuple(BUILDERS)


def build(name: str, seed: int, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return BUILDERS[name](seed, workdir)
