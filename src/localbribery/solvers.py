"""Polynomial-time bribery solvers built on min-cost flow.

Covers: plurality and veto with prices under all three metrics,
k-approval and simplified Bucklin with prices at small radius, and the
unpriced uniform-radius max-displacement algorithms for k-approval and
simplified Bucklin.  Every YES passes through the independent witness
verifier before being returned.

Voters that a network cannot tell apart form one class, and each class
gets one node or one capacitated edge, so network size follows the number
of voter types rather than the number of voters.  A class's flow is dealt
back to its voters in index order, which keeps witnesses deterministic.
Each solver guesses a score (and for simplified Bucklin a level), solves
one flow per guess, and keeps the cheapest witness through `_cheapest`;
the guesses run only over what cheap counts of the profile leave open,
and a cost-0 guess ends the loop.  The two max-displacement solvers share
one flow with demands, in which the target competes for top-k slots like
every other alternative.

Before its network is built, each guess passes a count screen: a
node-balance condition that every feasible flow within budget meets.  A
rival over its cap must lose the excess through distinct voters able to
take a point from it, whose least total price fits the budget
(`_sheds_fit`: toggles at small radius, moved first places under
plurality, new vetoes under veto); under max displacement the target's
demand must fit the preferences whose window holds it (`_window_fits`).
A screen drops only guesses whose flow is infeasible or over budget, so
`_cheapest` sees the same successful guesses in the same order as a full
scan, and returns the same witness.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator
from itertools import accumulate

from .core import (
    KAPPROVAL,
    PLURALITY,
    SBUCKLIN,
    VETO,
    Preference,
    Profile,
    approval_vector,
    is_unique_winner,  # unused here; bench/tracing.py names it
    positional_scores,
)
from .flow import (
    FlowNetwork,
    max_flow_with_arcs,  # unused here; bench/tracing.py names it
    min_cost_flow_with_demands,
)
from .metrics import FOOTRULE, MAXDISP, SWAP
from .problem import BriberyInstance, BriberyOutcome, verified_yes

# A class of interchangeable voters: its key and its voters in index order.
VoterClass = tuple[Hashable, list[int]]


class UnsupportedParameters(Exception):
    """The instance falls outside this solver's polynomial domain."""


def top_window(delta: int, metric: str) -> int:
    """Number of leading positions whose alternative can reach position 1.

    Swap and max-displacement: delta+1.  Footrule: moving up j places costs
    2j, so floor(delta/2)+1.
    """
    if metric in (SWAP, MAXDISP):
        return delta + 1
    if metric == FOOTRULE:
        return delta // 2 + 1
    raise ValueError(f"unknown metric {metric!r}")


def top_reachable(pref: Preference, delta: int, metric: str) -> set[int]:
    return set(pref.order[: top_window(delta, metric)])


def bottom_reachable(pref: Preference, delta: int, metric: str) -> set[int]:
    w = top_window(delta, metric)
    return set(pref.order[-w:])


def _move_to_front(pref: Preference, a: int) -> Preference:
    if pref.order[0] == a:
        return pref
    rest = [b for b in pref.order if b != a]
    return Preference((a, *rest))


def _move_to_back(pref: Preference, a: int) -> Preference:
    if pref.order[-1] == a:
        return pref
    rest = [b for b in pref.order if b != a]
    return Preference((*rest, a))


def _voter_classes(
    voters: Iterable[int], key: Callable[[int], Hashable]
) -> list[VoterClass]:
    """Group voters by `key`: classes in first-seen order, each class's
    voters in the order given."""
    classes: dict[Hashable, list[int]] = {}
    for i in voters:
        classes.setdefault(key(i), []).append(i)
    return list(classes.items())


def _deal(
    classes: list[VoterClass],
    class_edges: list[list[tuple[int, object]]],
    flows: list[int],
) -> Iterator[tuple[int, object]]:
    """Hand each class's flow back to its voters as (voter, item) pairs.

    `class_edges[j]` lists (edge, item) pairs of class j in dealing order.
    The units of each edge go round-robin over the class's voters, lowest
    index first, continuing from edge to edge.  So a class that carries
    fewer units than it has voters bribes its lowest-indexed ones, and as
    long as no edge carries more units than the class has voters, no voter
    gets the same item twice.
    """
    for (_, members), edges in zip(classes, class_edges):
        t = 0
        for e, item in edges:
            for _ in range(flows[e]):
                yield members[t % len(members)], item
                t += 1


def _affordable(prices: Iterable[int], budget: int) -> int:
    """How many of `prices` the budget pays for, cheapest first."""
    count = 0
    for price in sorted(prices):
        budget -= price
        if budget < 0:
            break
        count += 1
    return count


def _shed_spends(
    m: int, sheds: Iterable[tuple[int, int, int]]
) -> list[list[int]]:
    """From (alternative, price, voters) triples, one list per alternative
    y whose entry j is the least total price of j distinct voters able to
    take a point from y."""
    prices: list[list[int]] = [[] for _ in range(m)]
    for y, price, count in sheds:
        prices[y] += [price] * count
    return [list(accumulate(sorted(p), initial=0)) for p in prices]


def _sheds_fit(spends: list[list[int]], needs: Iterable[int], budget: int) -> bool:
    """Whether each alternative y can lose `needs[y]` points through
    distinct voters of `spends[y]` (see `_shed_spends`) within `budget`.
    No voter serves two alternatives, so the least totals add up."""
    total = 0
    for spend, need in zip(spends, needs):
        if need > 0:
            if need >= len(spend):
                return False
            total += spend[need]
    return total <= budget


def _cheapest(attempts: Iterable[tuple | None]) -> tuple | None:
    """The first attempt of least cost, skipping None.

    An attempt is a guess that worked: a tuple whose first item is its
    cost.  Costs are non-negative and earlier attempts win ties, so the scan
    stops at the first attempt of cost 0; `attempts` is consumed lazily,
    so the guesses after it are never tried.
    """
    best = None
    for got in attempts:
        if got is not None and (best is None or got[0] < best[0]):
            best = got
            if best[0] == 0:
                break
    return best


def _outcome(instance: BriberyInstance, witness: Profile | None) -> BriberyOutcome:
    """NO without a witness; otherwise the verified YES."""
    if witness is None:
        return BriberyOutcome.no()
    return verified_yes(instance, witness)


def _end_classes(
    instance: BriberyInstance,
    voters: Iterable[int],
    end: int,
    reachable: Callable[[Preference, int, str], set[int]],
) -> list[VoterClass]:
    """Voters keyed (alternative at position `end`, the sorted alternatives
    `reachable` can bring there, price)."""
    prefs = instance.profile.prefs
    return _voter_classes(
        voters,
        lambda i: (
            prefs[i].order[end],
            tuple(sorted(reachable(prefs[i], instance.deltas[i], instance.metric))),
            instance.prices[i],
        ),
    )


def _one_choice_solve(
    instance: BriberyInstance,
    classes: list[VoterClass],
    guesses: Iterable[int],
    sink_bounds: Callable[[int, int], tuple[int, int]],
    move: Callable[[Preference, int], Preference],
) -> Profile | None:
    """Shared body of the plurality and veto solvers.

    Every voter of `classes`, keyed (current, reachable, price), routes
    one unit to the alternative it ends up with at the scoring end of its
    order: `current` for free, any other reachable one at `price`.  For
    each guess, `sink_bounds(guess, a)` bounds the units alternative `a`
    may receive.  Returns the witness of the cheapest flow within budget,
    the earliest guess winning ties, or None.
    """
    profile, m = instance.profile, instance.m
    units = sum(len(members) for _, members in classes)

    def attempt(guess: int) -> tuple[int, list[int], list] | None:
        # Nodes: 0 = source, 1 = sink, 2..m+1 = alternatives, then classes.
        net = FlowNetwork(2 + m + len(classes), 0, 1)
        choice_edges = []
        for j, ((current, reach, price), members) in enumerate(classes):
            u = 2 + m + j
            size = len(members)
            net.add_edge(0, u, 0, size, 0)
            # Paid moves are dealt first, so a class's bribes fall on its
            # lowest-indexed voters.
            choice_edges.append([
                (net.add_edge(u, 2 + a, 0, size, 0 if a == current else price), a)
                for a in sorted(reach, key=lambda a: (a == current, a))
            ])
        for a in range(m):
            lb, cap = sink_bounds(guess, a)
            net.add_edge(2 + a, 1, lb, cap, 0)
        res = min_cost_flow_with_demands(net, units)
        if not res.feasible or res.total_cost > instance.budget:
            return None
        return res.total_cost, res.edge_flow, choice_edges

    best = _cheapest(attempt(guess) for guess in guesses)
    if best is None:
        return None
    _, flows, choice_edges = best
    prefs = list(profile.prefs)
    for i, a in _deal(classes, choice_edges, flows):
        prefs[i] = move(prefs[i], a)
    return Profile(profile.alternatives, tuple(prefs))


def solve_plurality(instance: BriberyInstance) -> BriberyOutcome:
    """Guess the target's final plurality score, solve a min-cost flow.

    One unit per voter not already ranking the target first; the unit picks
    which alternative ends up at that voter's top.
    """
    if instance.rule.tag != PLURALITY:
        raise UnsupportedParameters("solve_plurality requires the plurality rule")
    profile, c = instance.profile, instance.target
    n, m = instance.n, instance.m
    q_voters = [i for i in range(n) if profile.prefs[i].order[0] != c]
    s_c = n - len(q_voters)
    if not q_voters:
        return _outcome(instance, profile)
    classes = _end_classes(instance, q_voters, 0, top_reachable)
    # Each point the target gains is a voter that can reach it, paid for.
    can_gain = _affordable(
        (price for (_, reach, price), members in classes if c in reach
         for _ in members),
        instance.budget,
    )
    # A rival keeps at most guess - 1 of its first places, so it loses the
    # rest through voters that can lift another alternative, paid for.  The
    # target holds none of these voters' first places.
    top = [0] * m
    for (current, _, _), members in classes:
        top[current] += len(members)
    spends = _shed_spends(m, (
        (current, price, len(members))
        for (current, reach, price), members in classes if len(reach) > 1
    ))
    guesses = (
        guess for guess in range(max(s_c, 1), s_c + can_gain + 1)
        if _sheds_fit(spends, [t - guess + 1 for t in top], instance.budget)
    )
    witness = _one_choice_solve(
        instance,
        classes,
        guesses,
        lambda guess, a: (
            (guess - s_c, guess - s_c) if a == c else (0, guess - 1)
        ),
        _move_to_front,
    )
    return _outcome(instance, witness)


def solve_veto(instance: BriberyInstance) -> BriberyOutcome:
    """Guess the target's final veto count; every voter routes one unit to
    the alternative it ends up vetoing."""
    if instance.rule.tag != VETO:
        raise UnsupportedParameters("solve_veto requires the veto rule")
    profile, c = instance.profile, instance.target
    n, m = instance.n, instance.m
    classes = _end_classes(instance, range(n), -1, bottom_reachable)
    # A voter vetoing the target keeps doing so unless it can veto another
    # alternative and is paid to.  Every rival needs more vetoes than the
    # target, so (m-1)(guess+1) <= n caps the guess.
    vetoing_c = [key for key, members in classes if key[0] == c for _ in members]
    forced = len(vetoing_c) - _affordable(
        (price for _, reach, price in vetoing_c if reach != (c,)),
        instance.budget,
    )
    vetoes = [0] * m
    for (current, _, _), members in classes:
        vetoes[current] += len(members)

    def fits(guess: int) -> bool:
        # Each veto a rival lacks is a distinct voter that can veto it
        # instead of what it vetoes now, paid for.
        short = {y for y in range(m) if y != c and vetoes[y] <= guess}
        spends = _shed_spends(1, (
            (0, price, len(members))
            for (current, reach, price), members in classes
            if any(a in short for a in reach if a != current)
        ))
        need = sum(guess + 1 - vetoes[y] for y in short)
        return _sheds_fit(spends, [need], instance.budget)

    witness = _one_choice_solve(
        instance,
        classes,
        filter(fits, range(forced, n // (m - 1))),
        lambda guess, a: (0, guess) if a == c else (guess + 1, n),
        _move_to_back,
    )
    return _outcome(instance, witness)


def _toggle_radius(delta: int, metric: str) -> int:
    """Effective swap radius for the small-radius solvers: 1 if the voter
    may exchange one adjacent pair, else 0.

    Footrule radius 2 or 3 buys exactly one adjacent exchange (the footrule
    ball of radius 3 equals the swap ball of radius 1); radius 0 or 1 buys
    nothing since footrule distances are even.
    """
    if metric in (SWAP, MAXDISP):
        return min(delta, 1)
    if metric == FOOTRULE:
        return 1 if delta >= 2 else 0
    raise ValueError(f"unknown metric {metric!r}")


def _check_small_radius(instance: BriberyInstance) -> None:
    if instance.metric in (SWAP, MAXDISP):
        if any(d > 1 for d in instance.deltas):
            raise UnsupportedParameters(
                "small-radius solver needs delta <= 1 under swap/maxdisp"
            )
    else:
        if any(d > 3 for d in instance.deltas):
            raise UnsupportedParameters(
                "small-radius solver needs delta <= 3 under footrule"
            )


def _toggle_classes(instance: BriberyInstance, k: int) -> list[VoterClass]:
    """Voters that may exchange positions k and k+1, keyed (boundary
    loser, boundary gainer, price).  Voters whose exchange would demote
    the target are left out: that is never useful."""
    prefs, c = instance.profile.prefs, instance.target
    togglable = (
        i
        for i in range(instance.n)
        if _toggle_radius(instance.deltas[i], instance.metric)
        and prefs[i].order[k - 1] != c
    )
    return _voter_classes(
        togglable,
        lambda i: (prefs[i].order[k - 1], prefs[i].order[k], instance.prices[i]),
    )


def _toggle_spends(m: int, toggles: list[VoterClass]) -> list[list[int]]:
    """`_shed_spends` of the toggle classes: a toggling voter takes a point
    from its boundary loser only."""
    return _shed_spends(m, (
        (out, price, len(members)) for (out, _, price), members in toggles
    ))


def _target_gain(instance: BriberyInstance, toggles: list[VoterClass]) -> int:
    """How many toggles raising the target at the boundary the budget pays
    for."""
    return _affordable(
        (price for (_, into, price), members in toggles
         if into == instance.target for _ in members),
        instance.budget,
    )


def _boundary_toggle_solve(
    instance: BriberyInstance,
    s0: list[int],
    toggles: list[VoterClass],
    spends: list[list[int]],
    c_floor: int,
    rival_cap: int,
) -> tuple[int, list[int]] | None:
    """Shared core of the small-radius solvers.

    At radius 1 the only change that moves k-approval (or level-k) scores is
    exchanging the alternatives at positions k and k+1; any other radius-1
    change can be dropped without raising cost or altering level-k scores.
    Each toggle class (see `_toggle_classes`) becomes one edge moving up to
    one point of score per voter from its boundary loser to its boundary
    gainer.  `s0` holds the level-k scores before bribery, `c_floor` is the
    exact final level-k score demanded for the target and `rival_cap` the
    maximum allowed final score of every rival.  Returns (cost, toggled
    voters) for the cheapest feasible selection, or None.

    Every rival over the cap must shed the excess through toggles whose
    boundary loser it is, one point per voter; when the cheapest such
    toggles (`spends`, from `_toggle_spends`) overrun the budget, no
    network is built.
    """
    c = instance.target
    n, m = instance.n, instance.m
    excess = [0 if y == c else s - rival_cap for y, s in enumerate(s0)]
    if not _sheds_fit(spends, excess, instance.budget):
        return None
    # Nodes: 0 = super source, 1 = super sink, 2..m+1 = alternatives.
    net = FlowNetwork(2 + m, 0, 1)
    toggle_edges = [
        [(net.add_edge(2 + out, 2 + into, 0, len(members), price), None)]
        for (out, into, price), members in toggles
    ]
    need_c = c_floor - s0[c]
    net.add_edge(2 + c, 1, need_c, need_c, 0)
    for y in range(m):
        if y == c:
            continue
        gain_room = max(0, rival_cap - s0[y])
        forced_loss = max(0, s0[y] - rival_cap)
        net.add_edge(2 + y, 1, 0, gain_room, 0)
        net.add_edge(0, 2 + y, forced_loss, n, 0)
    # Close the circulation so the super nodes conserve flow too.
    net.add_edge(1, 0, 0, n * m + 1, 0)
    res = min_cost_flow_with_demands(net, 0)
    if not res.feasible or res.total_cost > instance.budget:
        return None
    toggled = [i for i, _ in _deal(toggles, toggle_edges, res.edge_flow)]
    return res.total_cost, toggled


def _apply_toggles(profile: Profile, k: int, voters: list[int]) -> Profile:
    prefs = list(profile.prefs)
    for i in voters:
        order = list(prefs[i].order)
        order[k - 1], order[k] = order[k], order[k - 1]
        prefs[i] = Preference(tuple(order))
    return Profile(profile.alternatives, tuple(prefs))


def solve_kapproval_small_radius(instance: BriberyInstance) -> BriberyOutcome:
    if instance.rule.tag != KAPPROVAL:
        raise UnsupportedParameters("this solver requires the k-approval rule")
    _check_small_radius(instance)
    k, c = instance.rule.k, instance.target
    s0 = positional_scores(instance.profile, approval_vector(instance.m, k))
    toggles = _toggle_classes(instance, k)
    spends = _toggle_spends(instance.m, toggles)
    # The target can only gain at the boundary, and a final score of 0
    # leaves rivals no room at all.
    guesses = range(max(s0[c], 1), s0[c] + _target_gain(instance, toggles) + 1)
    best = _cheapest(
        _boundary_toggle_solve(instance, s0, toggles, spends, guess, guess - 1)
        for guess in guesses
    )
    witness = None if best is None else _apply_toggles(instance.profile, k, best[1])
    return _outcome(instance, witness)


def solve_sbucklin_small_radius(instance: BriberyInstance) -> BriberyOutcome:
    """Guess the level at which the target reaches a strict majority while
    every rival stays at or below half."""
    if instance.rule.tag != SBUCKLIN:
        raise UnsupportedParameters("this solver requires simplified Bucklin")
    _check_small_radius(instance)
    n, m, c = instance.n, instance.m, instance.target
    if m == 1:
        return _outcome(instance, instance.profile)
    majority = n // 2 + 1

    # Guess the level at which the target holds a strict majority while
    # every rival stays at or below half; counts are monotone in the level,
    # so capping rivals at the guessed level also covers all lower levels.
    # The target's exact final count is swept too, because a toggle that
    # raises the target also lowers the rival at the boundary.
    def attempts() -> Iterator[tuple[int, list[int], int] | None]:
        for level in range(1, m):
            s0 = positional_scores(instance.profile, approval_vector(m, level))
            toggles = _toggle_classes(instance, level)
            spends = _toggle_spends(m, toggles)
            top = s0[c] + _target_gain(instance, toggles)
            for count in range(max(majority, s0[c]), top + 1):
                got = _boundary_toggle_solve(
                    instance, s0, toggles, spends, count, majority - 1
                )
                yield None if got is None else (*got, level)

    best = _cheapest(attempts())
    witness = (
        None if best is None else _apply_toggles(instance.profile, best[2], best[1])
    )
    return _outcome(instance, witness)


def _check_unpriced_maxdisp(instance: BriberyInstance) -> None:
    if instance.metric != MAXDISP:
        raise UnsupportedParameters("this solver requires max-displacement")
    if not instance.is_unpriced_uniform():
        raise UnsupportedParameters(
            "priced or non-uniform instances are outside this solver's domain"
        )


def solve_kapproval_maxdisp(instance: BriberyInstance) -> BriberyOutcome:
    """Unpriced uniform-radius k-approval under max-displacement.

    Putting the target into the top k never helps a rival, so the target
    must enter the top k in every preference that ranks it within k+delta;
    the windowed flow then decides which window alternatives fill the
    remaining top-k slots so no rival's final score reaches the target's.
    """
    if instance.rule.tag != KAPPROVAL:
        raise UnsupportedParameters("this solver requires the k-approval rule")
    _check_unpriced_maxdisp(instance)
    k, c, delta = instance.rule.k, instance.target, instance.deltas[0]
    reach = sum(1 for pref in instance.profile.prefs if c in pref.order[: k + delta])
    return _outcome(instance, _windowed_maxdisp_solve(instance, k, reach, reach - 1))


def solve_sbucklin_maxdisp(instance: BriberyInstance) -> BriberyOutcome:
    """Unpriced uniform-radius simplified Bucklin under max-displacement.

    The target wins uniquely iff at some level k it sits in the top k in a
    strict majority of preferences while every rival does not.  Guess k and
    solve the same windowed flow as for k-approval, demanding a strict
    majority for the target and capping rivals at half.  Shifting the
    target maximally left first (as one might expect) can block a rival's
    only exit slot, so the target is placed by the flow like everyone else.
    """
    if instance.rule.tag != SBUCKLIN:
        raise UnsupportedParameters("this solver requires simplified Bucklin")
    _check_unpriced_maxdisp(instance)
    n, m = instance.n, instance.m
    if m == 1:
        return _outcome(instance, instance.profile)
    witnesses = (
        _windowed_maxdisp_solve(instance, level, n // 2 + 1, n // 2)
        for level in range(1, m)
    )
    # Unpriced, so every witness costs 0 and the first level that works wins.
    best = _cheapest((0, w) for w in witnesses if w is not None)
    return _outcome(instance, None if best is None else best[1])


def _windowed_maxdisp_solve(
    instance: BriberyInstance, k: int, c_floor: int, rival_cap: int
) -> Profile | None:
    """Shared windowed flow for the two max-displacement algorithms.

    Per preference, alternatives at positions <= k-delta cannot leave the
    top k (stuck) and those above k+delta cannot enter; the rest form the
    exchange window, and every preference has k minus its stuck count free
    top-k slots.  One flow unit = one window alternative granted a top-k
    slot.  Preferences with the same window form one class node, whose
    source edge carries all their slots and whose edge to each window
    alternative carries at most one slot per preference.  The target's
    sink edge demands that it end in the top k of at least `c_floor`
    preferences, and every rival's caps it at `rival_cap`.  All costs are
    0, so the flow with demands only decides feasibility.
    """
    profile, c = instance.profile, instance.target
    n, m = instance.n, instance.m
    delta = instance.deltas[0]
    stuck = max(0, k - delta)  # positions <= this cannot leave the top k
    slots = k - stuck
    prefs = profile.prefs

    # Forced top-k appearances, the target's included.
    ell = [0] * m
    for pref in prefs:
        for a in pref.order[:stuck]:
            ell[a] += 1
    if any(rival_cap < ell[y] for y in range(m) if y != c):
        return None
    if not _window_fits(prefs, c, stuck, k + delta, c_floor - ell[c]):
        return None

    classes = _voter_classes(
        range(n), lambda i: tuple(sorted(prefs[i].order[stuck : k + delta]))
    )
    # Nodes: 0 source, 1 sink, 2..m+1 alternatives, then one per class.
    net = FlowNetwork(2 + m + len(classes), 0, 1)
    pick_edges = []
    for j, (window, members) in enumerate(classes):
        u = 2 + m + j
        size = len(members)
        net.add_edge(0, u, 0, slots * size, 0)
        pick_edges.append([(net.add_edge(u, 2 + a, 0, size, 0), a) for a in window])
    for y in range(m):
        if y == c:
            net.add_edge(2 + c, 1, max(0, c_floor - ell[c]), n, 0)
        else:
            net.add_edge(2 + y, 1, 0, rival_cap - ell[y], 0)
    res = min_cost_flow_with_demands(net, slots * n)
    if not res.feasible:
        return None

    picked: list[list[int]] = [[] for _ in range(n)]
    for i, a in _deal(classes, pick_edges, res.edge_flow):
        picked[i].append(a)
    return Profile(profile.alternatives, tuple(
        _assemble_maxdisp_pref(pref, [*pref.order[:stuck], *picked[i]])
        for i, pref in enumerate(prefs)
    ))


def _window_fits(
    prefs: Iterable[Preference], c: int, start: int, end: int, need: int
) -> bool:
    """Whether at least `need` preferences hold `c` in their window
    `order[start:end]`: the target enters the top k at most once per such
    preference."""
    return need <= sum(c in pref.order[start:end] for pref in prefs)


def _assemble_maxdisp_pref(pref: Preference, top_set: list[int]) -> Preference:
    """Rebuild a preference from its chosen top-k set.

    Both the top set and its complement keep their original relative order;
    for top members drawn from the first k+delta positions and excluded
    members from below position k-delta this stays within displacement
    delta of the original.
    """
    home = {a: i for i, a in enumerate(pref.order)}
    chosen = set(top_set)
    top = sorted(top_set, key=home.get)
    rest = sorted((a for a in pref.order if a not in chosen), key=home.get)
    return Preference(tuple(top + rest))
