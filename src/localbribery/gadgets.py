"""Constructive hardness toolkit.

Three SAT-to-bribery instance generators, a weighted-majority-graph
realizer, and witness builders that turn satisfying assignments into
verifier-checkable bribed profiles.  The SAT side is (3,B2)-SAT: 3-CNF
where every literal occurs in exactly two clauses.

All constructions are deterministic: identical inputs produce identical
instances byte for byte.  Every generator asserts its intended score
pattern on the emitted instance before returning, and every witness is
checked by ``problem.check_witness``.

The three reductions open alike: two P1 voters per variable (one per
literal) and three per clause (one per literal).  ``_p1_heads`` lays out
their heads in that voter order for every generator, ``_gadget`` builds
and checks the instance they end in, and ``_rewrite_p1`` turns those
voters into a witness: per variable it rewrites the voter of the false
literal one way and the other voter another, and per clause it rewrites
the voter of the first true literal one way and the rest another.

The gadgets repeat a few orders many times: the k-approval swap blocks
repeat a head under a rotation that cycles, and the Borda equalizers
repeat a pair of orders whenever the filler rotation comes round.  Their
generators hand out one ``Preference`` object per distinct order, keyed by
what the order is built from (head and rotation; rival and rotation
point), never by the order itself, and the witness builders map each
distinct object once (``core.map_distinct``).  The verifier and the
renderers then work once per object too.

The generators build whole orders, not single entries.  A filler
preference takes its fresh fillers in one draw and its rotated fillers in
one turn of the pool, and every order reads its filler entries from the
pool's one tuple of labels, so a max-displacement gadget of 200 orders over
3,023 alternatives holds 3,023 int objects.  Every padded order, the
margin realizer's included, ends with the fillers it has not placed, in
pool order (``_FillerPool.unplaced``).  The k-approval swap generator
finds each head's remaining alternatives once and slices each distinct
order out of them.  The witness builders only permute positions, so the
orders they build skip the permutation check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, filterfalse, islice

from .core import (
    KAPPROVAL,
    BORDA,
    AlternativeSet,
    Preference,
    Profile,
    VotingRule,
    approval_vector,
    borda_vector,
    is_unique_winner,
    map_distinct,
    positional_scores,
    weighted_majority_graph,  # unused here; bench/tracing.py names it
)
from .metrics import FOOTRULE, MAXDISP, SWAP
from .metrics import distance  # unused here; bench/tracing.py names it
from .problem import NOT_UNIQUE_WINNER, BriberyInstance, check_witness


class GadgetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# (3,B2)-SAT instances
# ---------------------------------------------------------------------------


def _lit_name(lit: int) -> str:
    return f"x{lit}" if lit > 0 else f"~x{-lit}"


@dataclass(frozen=True)
class Sat3B2Instance:
    """3-CNF with every literal occurring in exactly two clauses.

    Literals use DIMACS convention: variable i is ``i`` positive, ``-i``
    negated.  The occurrence balance forces 3m = 4n.
    """

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        n = self.num_vars
        if n <= 0:
            raise GadgetError("variable count must be positive")
        counts: dict[int, int] = {}
        for ci, clause in enumerate(self.clauses):
            if len(clause) != 3:
                raise GadgetError(
                    f"clause {ci + 1} has arity {len(clause)}, expected 3"
                )
            seen_vars = set()
            for lit in clause:
                if lit == 0 or abs(lit) > n:
                    raise GadgetError(
                        f"clause {ci + 1} references invalid literal {lit}"
                    )
                if abs(lit) in seen_vars:
                    raise GadgetError(
                        f"clause {ci + 1} uses variable x{abs(lit)} twice "
                        "(duplicate or tautological)"
                    )
                seen_vars.add(abs(lit))
                counts[lit] = counts.get(lit, 0) + 1
        for v in range(1, n + 1):
            for lit in (v, -v):
                got = counts.get(lit, 0)
                if got != 2:
                    raise GadgetError(
                        f"literal {_lit_name(lit)} occurs {got} times, "
                        "expected exactly 2"
                    )

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def occurrence_index(self, lit: int, clause_index: int) -> int:
        """0 if clause_index is the first clause containing lit, 1 if the
        second."""
        hits = [j for j, cl in enumerate(self.clauses) if lit in cl]
        return hits.index(clause_index)

    def satisfies(self, assignment) -> bool:
        a = tuple(assignment)
        if len(a) != self.num_vars or any(v not in (0, 1) for v in a):
            raise GadgetError("assignment must map every variable to 0/1")
        return all(
            any((lit > 0) == bool(a[abs(lit) - 1]) for lit in cl)
            for cl in self.clauses
        )

    def self_union(self) -> "Sat3B2Instance":
        """Disjoint union with a fresh copy of itself (doubles n and m)."""
        n = self.num_vars
        shift = lambda lit: lit + n if lit > 0 else lit - n  # noqa: E731
        extra = tuple(tuple(shift(lit) for lit in cl) for cl in self.clauses)
        return Sat3B2Instance(2 * n, self.clauses + extra)


# ---------------------------------------------------------------------------
# Weighted-majority-graph realizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WmgTarget:
    """Desired pairwise margins on a core set, padded by filler alternatives.

    ``margins[i][j]`` is the target margin of core alternative i over j;
    the matrix must be antisymmetric with all absolute values of the same
    parity.  ``spacing`` controls how many fillers must separate core
    alternatives in every emitted preference.
    """

    core_names: tuple[str, ...]
    margins: tuple[tuple[int, ...], ...]
    spacing: int
    num_fillers: int | None = None

    def __post_init__(self):
        ell = len(self.core_names)
        if ell == 0 or len(set(self.core_names)) != ell:
            raise GadgetError("core names must be distinct and non-empty")
        try:
            AlternativeSet(self.core_names)
        except ValueError as e:
            raise GadgetError(str(e))
        if len(self.margins) != ell or any(
            len(row) != ell for row in self.margins
        ):
            raise GadgetError("margin matrix shape must match the core set")
        for i in range(ell):
            if self.margins[i][i] != 0:
                raise GadgetError("diagonal margins must be zero")
            for j in range(ell):
                if self.margins[i][j] != -self.margins[j][i]:
                    raise GadgetError("margin matrix must be antisymmetric")
        parities = {
            abs(self.margins[i][j]) % 2
            for i in range(ell)
            for j in range(ell)
            if i != j
        }
        if len(parities) > 1:
            raise GadgetError(
                "all margins must share parity (all even or all odd)"
            )
        if self.spacing < 2:
            raise GadgetError("spacing must be at least 2")


def _wmg_core_sequences(
    margins: list[list[int]], ell: int, anchor_first: bool
) -> list[list[int]]:
    """Core-alternative orderings (one list per preference) realizing the
    even-parity margin matrix, plus two cancelling ascending/descending
    pairs that push fillers below the core everywhere."""
    seqs: list[list[int]] = []
    if anchor_first:
        seqs.append(list(range(ell)))
    for a in range(ell):
        for b in range(ell):
            z = margins[a][b]
            if a == b or z <= 0:
                continue
            assert z % 2 == 0
            rest = [x for x in range(ell) if x not in (a, b)]
            for _ in range(z // 2):
                seqs.append([a, b] + rest)
                seqs.append(list(reversed(rest)) + [a, b])
    for _ in range(2):
        seqs.append(list(range(ell)))
        seqs.append(list(range(ell - 1, -1, -1)))
    return seqs


def realize_wmg(target: WmgTarget) -> Profile:
    """Profile whose weighted majority graph restricted to the core equals
    the target margins, with every core alternative beating every filler
    and core alternatives kept ``spacing``/2 apart by fresh filler windows.
    """
    ell = len(target.core_names)
    margins = [list(row) for row in target.margins]
    odd = any(
        margins[i][j] % 2 for i in range(ell) for j in range(ell) if i != j
    )
    if odd:
        # Shift to an even matrix; a single anchor preference (core in
        # index order) restores the odd margins.
        adjusted = [
            [
                margins[i][j] + (1 if i > j else -1) if i != j else 0
                for j in range(ell)
            ]
            for i in range(ell)
        ]
        seqs = _wmg_core_sequences(adjusted, ell, anchor_first=True)
    else:
        seqs = _wmg_core_sequences(margins, ell, anchor_first=False)

    wsize = (target.spacing + 1) // 2
    windows_needed = len(seqs) * ell
    fillers_needed = windows_needed * wsize
    num_fillers = target.num_fillers
    if num_fillers is None:
        num_fillers = fillers_needed
    if num_fillers < fillers_needed:
        raise GadgetError(
            f"num_fillers={num_fillers} too small; this target needs "
            f"{fillers_needed}"
        )
    fillers = tuple(f"f{i}" for i in range(num_fillers))
    clash = [name for name in target.core_names if name in fillers]
    if clash:
        raise GadgetError(
            f"core alternative {clash[0]!r} clashes with the filler names "
            f"f0..f{num_fillers - 1}"
        )
    alts = AlternativeSet(target.core_names + fillers)
    pool = _FillerPool(num_fillers, "realize_wmg", ell)
    prefs = []
    for seq in seqs:
        # Each core alternative is followed by its own window of fresh
        # fillers; the fillers outside this order's windows follow.
        windows = pool.fresh(len(seq) * wsize)
        drawn = pool.labels[windows.start:windows.stop]
        order: list[int] = []
        for w, core in enumerate(seq):
            order.append(core)
            order += drawn[w * wsize:(w + 1) * wsize]
        order += pool.unplaced(windows)
        prefs.append(Preference(tuple(order)))
    return Profile(alts, tuple(prefs))


# ---------------------------------------------------------------------------
# Shared layout helpers
# ---------------------------------------------------------------------------


class _FillerPool:
    """Deterministic filler allocator.

    ``fresh`` draws fillers that may never be reused in a once-only window
    again; ``deep`` rotates through the whole pool, skipping fillers
    already placed in the current preference.  ``labels[f]`` is the
    alternative index of filler f (the fillers follow the ``offset`` named
    alternatives); every order reads its filler entries from this one
    tuple, so a gadget's orders share one int object per filler.
    """

    def __init__(self, size: int, what: str, offset: int):
        self.size = size
        self.what = what
        self.labels = tuple(range(offset, offset + size))
        self.fresh_cursor = 0
        self.deep_cursor = 0

    def fresh(self, count: int) -> range:
        """The next ``count`` once-only fillers."""
        start = self.fresh_cursor
        if start + count > self.size:
            raise GadgetError(
                f"{self.what}: filler pool exhausted after {self.size} "
                "once-only placements; increase filler_size"
            )
        self.fresh_cursor += count
        return range(start, start + count)

    def deep(self, count: int, used: set[int]) -> list[int]:
        """The first ``count`` fillers not in ``used`` from the cursor on,
        in one turn of the pool; they join ``used``, and the cursor moves
        past the last of them."""
        c = self.deep_cursor
        out = list(
            islice(
                filterfalse(
                    used.__contains__, chain(range(c, self.size), range(c))
                ),
                count,
            )
        )
        if len(out) < count:
            raise GadgetError(
                f"{self.what}: not enough fillers for one preference; "
                "increase filler_size"
            )
        if out:
            self.deep_cursor = (out[-1] + 1) % self.size
        used.update(out)
        return out

    def unplaced(self, placed) -> compress:
        """The labels of the fillers not in ``placed``, in pool order."""
        free = bytearray(b"\x01") * self.size
        for f in placed:
            free[f] = 0
        return compress(self.labels, free)


class _Names:
    """Alternative names in index order, and the construction symbol of
    each named alternative."""

    def __init__(self):
        self.names: list[str] = []
        self.symbols: list[tuple[str, int]] = []

    def add(self, sym: str, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.symbols.append((sym, idx))
        return idx


def _filler_preference(
    pool: _FillerPool, num_named: int, head: list, fresh_until: int
) -> Preference:
    """A preference over the named alternatives 0..num_named-1 and the
    pool's fillers, which follow them.

    First ``head``, where ``"F"`` is a fresh filler and every other entry a
    named alternative; then ten fillers before each named alternative not
    in the head, fresh ones within the first ``fresh_until`` positions and
    rotated from the pool below; then every filler not yet placed.  The
    fresh fillers come from one draw and the rotated ones from one
    ``deep`` draw after it, which is what drawing them alternative by
    alternative gives, since no fresh filler follows a rotated one.

    Every filler lands once (fresh ones are new to the pool, rotated ones
    skip those placed, and the tail is the rest), and so does every named
    alternative outside the head.  The order is therefore a permutation
    exactly when the head names no alternative twice, which is when it
    holds m entries: that length is checked instead of the order.
    """
    labels = pool.labels
    placed = set(head)
    rest = [a for a in range(num_named) if a not in placed]
    # Fresh fillers take the positions before ``fresh_until``: the ten
    # before each of the first ``full`` alternatives of ``rest``, then
    # ``part`` of the ten before the next one.
    full, part = divmod(max(fresh_until - len(head), 0), 11)
    num_fresh = min(10 * full + part, 10 * len(rest))
    fresh = pool.fresh(head.count("F") + num_fresh)
    used = set(fresh)
    fillers = list(fresh)
    fillers += pool.deep(10 * len(rest) - num_fresh, used)
    drawn = map(labels.__getitem__, fillers)
    order = [next(drawn) if s == "F" else s for s in head]
    for a in rest:
        order += islice(drawn, 10)
        order.append(a)
    order += pool.unplaced(used)
    if len(order) != num_named + pool.size:
        raise ValueError("order must be a permutation of 0..m-1")
    return Preference.trusted(tuple(order))


def _pattern(*moves: int) -> tuple[int, ...]:
    """A fixed rearrangement of the first ``len(moves)`` positions (see
    ``_rearranged``), checked once to be a permutation of them, so that
    the preferences it rearranges need no check."""
    if sorted(moves) != list(range(len(moves))):
        raise ValueError(f"pattern {moves} is not a permutation")
    return moves


def _rearranged(
    pref: Preference, pattern: tuple[int, ...], at: int
) -> Preference:
    """``pref`` with ``len(pattern)`` positions permuted from ``at`` on:
    position at + r receives the alternative at position at + pattern[r].
    ``pattern`` comes from ``_pattern``."""
    o = pref.order
    moved = tuple(o[at + p] for p in pattern)
    return Preference.trusted(o[:at] + moved + o[at + len(pattern):])


def _shift_named_right(order: list[int], is_named, skip=None) -> list[int]:
    """Move every named alternative (except ``skip``) one position later by
    swapping it with its successor, which must not itself be named."""
    out = list(order)
    for pos in range(len(out) - 2, -1, -1):
        a = out[pos]
        if a == skip or not is_named(a):
            continue
        nxt = out[pos + 1]
        if nxt == skip or is_named(nxt):
            raise GadgetError(
                "layout violation: named alternative not followed by a filler"
            )
        out[pos], out[pos + 1] = nxt, a
    return out


def _swap_left(order: list[int], alt: int) -> list[int]:
    out = list(order)
    pos = out.index(alt)
    if pos == 0:
        raise GadgetError("cannot move an alternative left from position 1")
    out[pos - 1], out[pos] = out[pos], out[pos - 1]
    return out


# ---------------------------------------------------------------------------
# Gadget instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GadgetInstance:
    """A bribery instance built from a SAT instance, plus bookkeeping.

    ``sat`` is the instance actually encoded (after any automatic
    self-union doubling); ``source_sat`` is the caller's input.  The name
    map ties construction symbols to alternative indices.
    """

    kind: str
    instance: BriberyInstance
    sat: Sat3B2Instance
    source_sat: Sat3B2Instance
    name_map: tuple[tuple[str, int], ...]
    padding: int

    def render_name_map(self) -> str:
        return "\n".join(f"{sym} -> alt {idx}" for sym, idx in self.name_map)

    def extend_assignment(self, assignment) -> tuple[int, ...]:
        a = tuple(assignment)
        if len(a) == self.sat.num_vars:
            return a
        if (
            len(a) == self.source_sat.num_vars
            and self.sat.num_vars == 2 * len(a)
        ):
            return a + a  # the doubled half mirrors the original
        raise GadgetError(
            f"assignment length {len(a)} matches neither the source "
            f"({self.source_sat.num_vars}) nor the encoded "
            f"({self.sat.num_vars}) variable count"
        )


@dataclass(frozen=True)
class GadgetWitness:
    profile: Profile
    satisfies: bool  # winner guarantee is void when False
    bribed: frozenset[int]  # the voters whose preference changed


KIND_KAPP_SWAP = "kapproval-swap"
KIND_KAPP_MAXDISP = "kapproval-maxdisp-priced"
KIND_BORDA = "borda"


def _p1_heads(sat: Sat3B2Instance, variable_head, clause_head) -> list:
    """The heads of the P1 voters in voter order: for each variable i,
    ``variable_head(i, lit)`` for lit = i and then -i; then for each clause
    j (from 1), ``clause_head(j, lit, occ)`` for each of its literals, where
    ``occ`` is 0 in the literal's first clause and 1 in its second."""
    heads = [
        variable_head(i, lit)
        for i in range(1, sat.num_vars + 1)
        for lit in (i, -i)
    ]
    heads += (
        clause_head(j, lit, sat.occurrence_index(lit, j - 1))
        for j, clause in enumerate(sat.clauses, 1)
        for lit in clause
    )
    return heads


def _rewrite_p1(
    prefs: list, sat: Sat3B2Instance, assignment, kept, changed, chosen,
    other=None,
) -> None:
    """Rewrite the P1 voters of ``prefs`` (laid out by ``_p1_heads``) in
    place.  Of a variable's two voters, ``changed`` rewrites the one whose
    literal the assignment makes false and ``kept`` the other; of a
    clause's three, ``chosen`` rewrites the one of its first true literal
    and ``other`` the rest.  A rewrite of ``None`` leaves its voters be."""

    def is_true(lit: int) -> bool:
        return (lit > 0) == bool(assignment[abs(lit) - 1])

    plan = []
    for value in assignment:  # the voters of literals i and -i
        plan += (kept, changed) if value else (changed, kept)
    for clause in sat.clauses:
        first = next((r for r, lit in enumerate(clause) if is_true(lit)), -1)
        plan += (chosen if r == first else other for r in range(3))
    for v, rewrite in enumerate(plan):
        if rewrite is not None:
            prefs[v] = rewrite(prefs[v])


def _gadget(
    kind: str, sat: Sat3B2Instance, source: Sat3B2Instance, names: _Names,
    alts: AlternativeSet, prefs: list[Preference], rule: VotingRule,
    metric: str, delta: int, padding: int,
    prices: tuple[int, ...] | None = None, budget: int = 0,
) -> GadgetInstance:
    """The gadget over ``prefs`` with target c (alternative 0), radius
    ``delta`` for every voter, and price 0 unless ``prices`` are given;
    the target must not already win alone."""
    profile = Profile(alts, tuple(prefs))
    nv = len(prefs)
    instance = BriberyInstance(
        profile, target=0, deltas=(delta,) * nv,
        prices=(0,) * nv if prices is None else prices, budget=budget,
        rule=rule, metric=metric,
    )
    assert not is_unique_winner(profile, rule, 0)
    return GadgetInstance(
        kind, instance, sat, source, tuple(names.symbols), padding
    )


# --- k-approval / swap -----------------------------------------------------


def gen_kapproval_swap_gadget(
    sat: Sat3B2Instance, delta_pad: int | None = None
) -> GadgetInstance:
    """Distance-2 swap bribery instance for 2-approval encoding the SAT
    instance.  The block-size padding defaults to the construction's
    100·m²·n², on the formula after any doubling (n ≥ 6 and m ≥ 8, so at
    least 230,400); ``delta_pad`` overrides it (floor 4).
    """
    source = sat
    if sat.num_vars % 2 or sat.num_clauses % 2:
        sat = sat.self_union()
    n, m = sat.num_vars, sat.num_clauses
    pad = 100 * m * m * n * n if delta_pad is None else delta_pad
    if pad < 4:
        raise GadgetError("delta_pad must be at least 4")

    names = _Names()
    C, U = names.add("c", "c"), names.add("u", "u")
    lit_alt: dict[tuple[int, int], int] = {}
    w_alt, z_alt, y_alt, d_alt, dp_alt = {}, {}, {}, {}, {}
    for i in range(1, n + 1):
        for lit in (i, -i):
            for bit in (0, 1):
                tag = f"x{i}" if lit > 0 else f"nx{i}"
                lit_alt[(lit, bit)] = names.add(
                    f"a({_lit_name(lit)},{bit})", f"a_{tag}_{bit}"
                )
        w_alt[i] = names.add(f"w{i}", f"w_{i}")
        z_alt[i] = names.add(f"z{i}", f"z_{i}")
    for j in range(1, m + 1):
        y_alt[j] = names.add(f"y{j}", f"y_{j}")
        d_alt[j] = names.add(f"d{j}", f"d_{j}")
        dp_alt[j] = names.add(f"d'{j}", f"dp_{j}")
    alts = AlternativeSet(tuple(names.names))
    total = len(names.names)
    built: dict[tuple[int, ...], Preference] = {}
    rests: dict[tuple[int, ...], list[int]] = {}
    prefs: list[Preference] = []

    def block(head: list[int], count: int = 1) -> None:
        # ``count`` voters over ``head``, voter v with the rest rotated by
        # v.  The blocks repeat a head, and the rotation repeats every
        # total - 4 voters: each distinct order is built once and shared.
        # Each head's remaining alternatives are found once; with the head
        # free of repeats, head + any rotation of them is a permutation.
        for _ in range(count):
            key = (*head, len(prefs) % (total - len(head)))
            pref = built.get(key)
            if pref is None:
                rest = rests.get(key[:-1])
                if rest is None:
                    if len(set(head)) != len(head):
                        raise ValueError(
                            "order must be a permutation of 0..m-1"
                        )
                    rest = rests[key[:-1]] = [
                        a for a in range(total) if a not in head
                    ]
                rot = key[-1]
                pref = built[key] = Preference.trusted(
                    tuple(head + rest[rot:] + rest[:rot])
                )
            prefs.append(pref)

    heads = _p1_heads(
        sat,
        lambda i, lit: [
            w_alt[i], lit_alt[(lit, 0)], lit_alt[(lit, 1)], z_alt[i]
        ],
        lambda j, lit, occ: [
            y_alt[j], d_alt[j], lit_alt[(lit, occ)], dp_alt[j]
        ],
    )
    for head in heads:
        block(head)
    block([C, d_alt[1], d_alt[2], d_alt[3]])
    block([U, d_alt[1], d_alt[2], C], pad + 2)  # u-block
    for i in range(1, n // 2 + 1):  # w-pairing block
        block([U, w_alt[2 * i - 1], w_alt[2 * i], d_alt[1]], pad + 1)
    for i in range(1, n + 1):  # literal-pairing blocks
        for bit in (1, 0):
            pair = [lit_alt[(i, bit)], lit_alt[(-i, bit)]]
            block([U, *pair, d_alt[1]], pad + 1)
    for j in range(1, m // 2 + 1):  # y-pairing block
        block([U, y_alt[2 * j - 1], y_alt[2 * j], d_alt[1]], pad)

    g = _gadget(
        KIND_KAPP_SWAP, sat, source, names, alts, prefs,
        VotingRule(KAPPROVAL, k=2), SWAP, delta=2, padding=pad,
    )
    # Before bribery the pairing-block alternative dominates everything.
    scores = positional_scores(g.instance.profile, approval_vector(total, 2))
    assert scores[U] == max(scores) and scores[C] < scores[U]
    return g


_TO_BACK = _pattern(1, 2, 0, 3)  # first alternative drops to third place
_PULL_FOURTH = _pattern(0, 3, 1, 2)  # fourth alternative climbs to second


def _witness_kapp_swap(gadget: GadgetInstance, assignment, prefs) -> None:
    sat = gadget.sat
    to_back = partial(_rearranged, pattern=_TO_BACK, at=0)
    pull_fourth = partial(_rearranged, pattern=_PULL_FOURTH, at=0)
    # Variable voters: on the false literal's side w is pushed out as the
    # literal pair overtakes it; on the other side z climbs and the pair
    # drops.  Clause voters: y drops out of the top 2 on the chosen one.
    _rewrite_p1(prefs, sat, assignment, pull_fourth, to_back, to_back)
    u = 2 * sat.num_vars + 3 * sat.num_clauses + 1  # skip the c-voter
    pairing = u + gadget.padding + 2
    # u-block: c climbs to second place; pairing blocks: u drops to third
    prefs[u:pairing] = map_distinct(pull_fourth, prefs[u:pairing])
    prefs[pairing:] = map_distinct(to_back, prefs[pairing:])


# --- k-approval / max-displacement, priced ---------------------------------


def gen_kapproval_maxdisp_priced_gadget(
    sat: Sat3B2Instance, k: int = 2, filler_size: int | None = None
) -> GadgetInstance:
    """Priced bribery instance for k-approval under max displacement with
    per-voter radius 2 and budget n+m."""
    if k < 2:
        raise GadgetError("k must be at least 2")
    source = sat
    n, m = sat.num_vars, sat.num_clauses
    fsize = 300 * m**3 * n**3 if filler_size is None else filler_size

    names = _Names()
    names.add("c", "c")
    a_alt, b_alt, w_alt, wp_alt, y_alt = {}, {}, {}, {}, {}
    for i in range(1, n + 1):
        for lit in (i, -i):
            tag = f"x{i}" if lit > 0 else f"nx{i}"
            a_alt[lit] = names.add(f"a({_lit_name(lit)})", f"a_{tag}")
            b_alt[lit] = names.add(f"b({_lit_name(lit)})", f"b_{tag}")
        w_alt[i] = names.add(f"w{i}", f"w_{i}")
        wp_alt[i] = names.add(f"w'{i}", f"wp_{i}")
    for j in range(1, m + 1):
        y_alt[j] = names.add(f"y{j}", f"y_{j}")
    num_named = len(names.names)
    alts = AlternativeSet(
        tuple(names.names) + tuple(f"f{i}" for i in range(fsize))
    )
    total = alts.m
    pool = _FillerPool(fsize, KIND_KAPP_MAXDISP, num_named)

    def build(head: list) -> Preference:
        # k-2 leading fresh fillers; fillers in the first k+10 positions are
        # used once, globally.
        head = ["F"] * (k - 2) + head
        return _filler_preference(pool, num_named, head, k + 10)

    # P1: a literal's first clause names its a-alternative, its second b.
    heads = _p1_heads(
        sat,
        lambda i, lit: [w_alt[i], wp_alt[i], a_alt[lit], b_alt[lit]],
        lambda j, lit, occ: ["F", y_alt[j], (a_alt, b_alt)[occ][lit], "F"],
    )
    prefs = [build(head) for head in heads]
    n1 = len(prefs)
    prefs += (build([0, "F"]) for _ in range(10))  # P2: target score block
    for i in range(1, n + 1):  # P2: eight copies per variable alternative
        for x in (
            a_alt[i], a_alt[-i], b_alt[i], b_alt[-i], w_alt[i], wp_alt[i]
        ):
            prefs += (build([x, "F"]) for _ in range(8))
    for j in range(1, m + 1):  # P2: seven copies per clause alternative
        prefs += (build([y_alt[j], "F"]) for _ in range(7))

    g = _gadget(
        KIND_KAPP_MAXDISP, sat, source, names, alts, prefs,
        VotingRule(KAPPROVAL, k=k), MAXDISP, delta=2, padding=fsize,
        prices=(1,) * n1 + (10 * m * n,) * (len(prefs) - n1), budget=n + m,
    )
    scores = positional_scores(g.instance.profile, approval_vector(total, k))
    assert scores[0] == 10
    for i in range(1, n + 1):
        for lit in (i, -i):
            assert scores[a_alt[lit]] == 8 and scores[b_alt[lit]] == 8
        assert scores[w_alt[i]] == 10 and scores[wp_alt[i]] == 10
    for j in range(1, m + 1):
        assert scores[y_alt[j]] == 10
    assert max(scores[num_named:]) <= 1
    return g


_PAIRS_SWAPPED = _pattern(2, 3, 0, 1)
_ADJACENT_SWAPPED = _pattern(1, 0)


def _witness_kapp_maxdisp(gadget: GadgetInstance, assignment, prefs) -> None:
    k = gadget.instance.rule.k
    # Variable voters: the literal pair on the false literal's side climbs
    # (w w' a b becomes a b w w'), so the w-pair stays approved only on the
    # true side.  Clause voters: y (position k) swaps with the chosen
    # literal's alternative.
    _rewrite_p1(
        prefs, gadget.sat, assignment, None,
        partial(_rearranged, pattern=_PAIRS_SWAPPED, at=k - 2),
        partial(_rearranged, pattern=_ADJACENT_SWAPPED, at=k - 1),
    )


# --- Borda -----------------------------------------------------------------

_BORDA_EQ_GAP = {"z": 2, "a": 5, "y": 2}


def gen_borda_gadget(
    sat: Sat3B2Instance, metric: str, filler_size: int | None = None
) -> GadgetInstance:
    """Radius-1 (swap/max-displacement) or radius-2 (footrule) bribery
    instance for Borda.  The score-equalizing block counts follow the
    pattern s1(c) - s1(t) + 2*N1 - {2,5}."""
    if metric not in (SWAP, FOOTRULE, MAXDISP):
        raise GadgetError(f"unknown metric {metric!r}")
    source = sat
    n, m = sat.num_vars, sat.num_clauses
    fsize = 10 * m**7 * n**7 if filler_size is None else filler_size
    shifted = metric in (SWAP, FOOTRULE)  # equalizers pre-demote rivals

    names = _Names()
    names.add("c", "c")
    z_alt, a_alt, y_alt = {}, {}, {}
    for i in range(1, n + 1):
        z_alt[i] = names.add(f"z{i}", f"z_{i}")
        a_alt[i] = names.add(f"a({_lit_name(i)})", f"a_x{i}")
        a_alt[-i] = names.add(f"a({_lit_name(-i)})", f"a_nx{i}")
    for j in range(1, m + 1):
        y_alt[j] = names.add(f"y{j}", f"y_{j}")
    num_named = len(names.names)  # M = 3n + m + 1
    # Ten fillers precede every named alternative outside a preference's
    # head, and a few must remain below the last one.
    min_fillers = 10 * (num_named - 2) + 13
    if fsize < min_fillers:
        raise GadgetError(
            f"filler_size must be at least {min_fillers} for this formula"
        )
    alts = AlternativeSet(
        tuple(names.names) + tuple(f"f{i}" for i in range(fsize))
    )
    total = alts.m
    pool = _FillerPool(fsize, KIND_BORDA, num_named)

    # P1: the head's fillers are once-only; the rest rotate.
    heads = _p1_heads(
        sat,
        lambda i, lit: [z_alt[i], a_alt[lit], "F", "F", 0],
        lambda j, lit, occ: [y_alt[j], a_alt[lit], "F", 0],
    )
    prefs = [_filler_preference(pool, num_named, h, 0) for h in heads]
    n1 = len(prefs)
    s1 = positional_scores(Profile(alts, tuple(prefs)), borda_vector(total))

    rivals = list(range(1, num_named))
    # A rival's gap goes by its kind, the first letter of its symbol.
    gap = {a: _BORDA_EQ_GAP[sym[0]] for sym, a in names.symbols[1:]}

    labels = pool.labels

    def equalizer_pair(t: int) -> tuple[list[int], list[int]]:
        others = [a for a in rivals if a != t]
        slots_a = [labels[f] for f in pool.deep(len(others) + 2, set())]
        first = [slots_a[0], slots_a[1], 0]
        for b, f in zip(others, slots_a[2:]):
            first += (b, f)
        first.append(t)
        slots_b = [labels[f] for f in pool.deep(len(others) + 4, set())]
        second = [t, slots_b[0], slots_b[1]]
        for b, f in zip(reversed(others), slots_b[2:]):
            second += (b, f)
        second += (slots_b[-2], slots_b[-1], 0)
        return first, second

    def equalizer(head: list[int]) -> Preference:
        placed = [a - num_named for a in head if a >= num_named]
        full = head + list(pool.unplaced(placed))
        if shifted:
            full = _shift_named_right(full, is_named, skip=0)
        return Preference(tuple(full))

    is_named = lambda a: 0 < a < num_named  # noqa: E731
    for t in rivals:
        count = s1[0] - s1[t] + 2 * n1 - gap[t]
        if count <= 0:
            raise GadgetError("equalizer count must be positive")
        # A pair's rotated fillers, and where it leaves the deep cursor,
        # depend only on where the cursor stands in the pool, so each
        # distinct pair is built once and its preferences are shared.
        pairs: dict[int, tuple[int, list[Preference]]] = {}
        for _ in range(count):
            start = pool.deep_cursor
            pair = pairs.get(start)
            if pair is None:
                heads = equalizer_pair(t)
                pair = pairs[start] = (
                    pool.deep_cursor, [equalizer(h) for h in heads]
                )
            else:
                pool.deep_cursor = pair[0]
            prefs.extend(pair[1])

    g = _gadget(
        KIND_BORDA, sat, source, names, alts, prefs,
        VotingRule(BORDA), metric, delta=2 if metric == FOOTRULE else 1,
        padding=fsize,
    )
    scores = positional_scores(g.instance.profile, borda_vector(total))
    z_scores = {scores[a] for a in z_alt.values()}
    y_scores = {scores[a] for a in y_alt.values()}
    a_scores = {scores[a] for a in a_alt.values()}
    assert len(z_scores) == len(y_scores) == len(a_scores) == 1
    assert z_scores == y_scores
    assert next(iter(z_scores)) - next(iter(a_scores)) == 3
    assert min(z_scores | a_scores) > scores[0] > max(scores[num_named:])
    return g


_Z_KEPT = _pattern(0, 2, 1, 4, 3)  # z d a c d'
_Z_OVERTAKEN = _pattern(1, 0, 2, 4, 3)  # a z d c d'
_Y_OVERTAKEN = _pattern(1, 0, 3, 2)  # a y c d
_Y_KEPT = _pattern(0, 1, 3, 2)  # y a c d


def _witness_borda(gadget: GadgetInstance, assignment, prefs) -> None:
    sat = gadget.sat
    n, m = sat.num_vars, sat.num_clauses
    n1 = 2 * n + 3 * m
    num_named = 1 + 3 * n + m
    is_named = lambda a: 0 < a < num_named  # noqa: E731
    if gadget.instance.metric != MAXDISP:
        # One adjacent transposition per voter: the target climbs past the
        # filler directly before it, in every preference.
        prefs[:] = map_distinct(
            lambda p: Preference.trusted(tuple(_swap_left(p.order, 0))), prefs
        )
        return

    def retop(pattern: tuple[int, ...]):
        # A fixed pattern on top and a shift below: a permutation.
        def rewrite(pref: Preference) -> Preference:
            o = pref.order
            head = [o[p] for p in pattern]
            tail = _shift_named_right(o[len(pattern):], is_named)
            return Preference.trusted(tuple(head + tail))

        return rewrite

    # Variable voters: on the true literal's side z stays on top and its
    # literal alternative slides right; on the false side the literal
    # alternative overtakes z.  Clause voters: the chosen literal's
    # alternative overtakes y.
    _rewrite_p1(
        prefs, sat, assignment, retop(_Z_KEPT), retop(_Z_OVERTAKEN),
        retop(_Y_OVERTAKEN), retop(_Y_KEPT),
    )
    # Equalizers: the rivals slide right, then the target climbs one place.
    prefs[n1:] = map_distinct(
        lambda p: Preference.trusted(
            tuple(_swap_left(_shift_named_right(p.order, is_named, skip=0), 0))
        ),
        prefs[n1:],
    )


# --- shared witness entry point --------------------------------------------


def witness_from_assignment(
    gadget: GadgetInstance, assignment
) -> GadgetWitness:
    """The bribed profile encoding a variable assignment.

    The witness goes through ``check_witness``.  When the assignment
    satisfies the formula it must pass; otherwise it may fail only on the
    winner condition, and is returned with ``satisfies=False`` and no
    winner guarantee.
    """
    full = gadget.extend_assignment(assignment)
    sat_ok = gadget.sat.satisfies(full)
    builder = {
        KIND_KAPP_SWAP: _witness_kapp_swap,
        KIND_KAPP_MAXDISP: _witness_kapp_maxdisp,
        KIND_BORDA: _witness_borda,
    }[gadget.kind]
    profile = gadget.instance.profile
    prefs = list(profile.prefs)
    builder(gadget, full, prefs)  # rewrites the bribed voters in place
    witness = Profile(profile.alternatives, tuple(prefs))
    ok, reason, bribed, _ = check_witness(gadget.instance, witness)
    if not ok and (sat_ok or reason != NOT_UNIQUE_WINNER):
        raise GadgetError(f"internal error: witness fails: {reason}")
    return GadgetWitness(witness, sat_ok, bribed)
