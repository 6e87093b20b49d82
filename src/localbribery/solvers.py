"""Polynomial-time bribery solvers built on min-cost flow.

Covers: plurality and veto with prices under all three metrics,
k-approval and simplified Bucklin with prices at small radius, and the
unpriced uniform-radius max-displacement algorithms for k-approval and
simplified Bucklin.  `route_poly_solver` picks an instance's solver, and
the solvers guard their domain through the same `_refusal`.  Every YES
passes through the independent witness verifier before being returned.

Plurality, veto and the two small-radius solvers all choose, for each
voter, which reachable alternative sits at the scoring end of its order:
first place, last place, or position k.  They share one network,
`_move_flow`, a circulation on the alternatives that carries only the
moves.  Voters that the network cannot tell apart form one class, keyed
(current, reach, price), so network size follows the number of voter
types rather than the number of voters.  A class with one paid option is
one edge; only a class with two or more gets a node.  Each alternative's
loss and gain edges take its score from what it holds now into the bounds
of the guess.  A class's flow is dealt back to its voters in index order,
which keeps witnesses deterministic.  Each solver guesses a score (and for
simplified Bucklin a level), solves one flow per guess, and keeps the
cheapest witness through `_cheapest`; the guesses run only over what cheap
counts of the profile leave open, and a cost-0 guess ends the loop.  The
two max-displacement solvers share a windowed flow with demands, in which
a voter fills several top-k slots and the target competes for them like
every other alternative.

Before its network is built, each guess passes a count screen: a
node-balance condition that every feasible flow within budget meets.  A
rival over its cap must lose the excess through distinct voters able to
take a point from it, whose least total price fits the budget
(`_sheds_fit`: moves out of first place or position k, new vetoes under
veto); under max displacement the target's demand must fit the
preferences whose window holds it (`_window_fits`).  A screen drops only
guesses whose flow is infeasible or over budget, so `_cheapest` sees the
same successful guesses in the same order as a full scan, and returns the
same witness.
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
# A voter and the alternative it moves to the scoring end of its order.
Move = tuple[int, int]

# The largest radius at which every voter's ball changes k-approval and
# simplified Bucklin scores by at most one adjacent exchange: footrule
# distances are even, and footrule radius 2 or 3 buys exactly one.
SMALL_RADIUS = {SWAP: 1, MAXDISP: 1, FOOTRULE: 3}


class UnsupportedParameters(Exception):
    """The instance falls outside this solver's polynomial domain."""


def _refusal(instance: BriberyInstance, windowed: bool) -> str | None:
    """Why the k-approval and simplified Bucklin solvers of one kind cannot
    take `instance`, or None when they can.

    The windowed solvers need unpriced, uniform-radius max displacement;
    the small-radius ones need every radius within `SMALL_RADIUS`.
    """
    metric, tag = instance.metric, instance.rule.tag
    if windowed:
        if metric == MAXDISP and instance.is_unpriced_uniform():
            return None
        return "the windowed solvers need unpriced uniform-radius max-displacement"
    limit = SMALL_RADIUS[metric]
    if all(d <= limit for d in instance.deltas):
        return None
    cell = "priced {} under max-displacement" if metric == MAXDISP else "{} under {}"
    return f"{cell.format(tag, metric)} is NP-complete for radius > {limit}"


def _check_domain(instance: BriberyInstance, windowed: bool) -> None:
    reason = _refusal(instance, windowed)
    if reason is not None:
        raise UnsupportedParameters(reason)


def route_poly_solver(instance: BriberyInstance):
    """The polynomial solver for this instance, or None with a reason.
    Unpriced uniform-radius max displacement goes to the windowed solvers,
    even at small radius."""
    tag = instance.rule.tag
    if tag in (PLURALITY, VETO):
        return (solve_plurality if tag == PLURALITY else solve_veto), None
    if tag not in (KAPPROVAL, SBUCKLIN):
        return None, f"{tag} under {instance.metric} is NP-complete"
    kapproval = tag == KAPPROVAL
    if _refusal(instance, windowed=True) is None:
        return (solve_kapproval_maxdisp if kapproval else solve_sbucklin_maxdisp), None
    reason = _refusal(instance, windowed=False)
    if reason is not None:
        return None, reason
    small = solve_kapproval_small_radius if kapproval else solve_sbucklin_small_radius
    return small, None


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


def _move_to(profile: Profile, moves: Iterable[Move], pos: int) -> Profile:
    """`profile` with each move's alternative taken to position `pos` of
    its voter's order, the others keeping their order."""
    prefs = list(profile.prefs)
    for i, a in moves:
        order = [b for b in prefs[i].order if b != a]
        order.insert(pos, a)
        prefs[i] = Preference.trusted(tuple(order))
    return Profile(profile.alternatives, tuple(prefs))


def _move_flow(
    instance: BriberyInstance,
    held: list[int],
    classes: list[VoterClass],
    bounds: list[tuple[int, int]],
) -> tuple[int, list[Move]] | None:
    """The cheapest moves that take every alternative's score at the
    scoring end from `held` into `bounds`, within budget.

    A class keyed (current, reach, price) moves up to one unit per voter
    from `current` to an alternative of `reach` other than `current`, at
    `price`: the alternative moved takes `current`'s place and its point.
    Nodes are the super source 0, the super sink 1, the alternatives, and
    one node per class with two or more paid options.  Alternative a's
    gain edge a->1 and loss edge 0->a carry what it ends up with beyond
    `held[a]` and short of it, bounded so that it ends within `bounds[a]`;
    a closing edge 1->0 makes the flow a circulation.  Returns the cost and
    the moves of the cheapest circulation, each class's moves on its
    lowest-indexed voters, or None when none fits the budget.
    """
    m = instance.m
    options = [
        [a for a in reach if a != current] for (current, reach, _), _ in classes
    ]
    net = FlowNetwork(2 + m + sum(len(paid) > 1 for paid in options), 0, 1)
    node = 2 + m
    move_edges = []
    for ((current, _, price), members), paid in zip(classes, options):
        size = len(members)
        via, cost = 2 + current, price
        if len(paid) > 1:
            net.add_edge(via, node, 0, size, price)
            via, cost, node = node, 0, node + 1
        move_edges.append(
            [(net.add_edge(via, 2 + a, 0, size, cost), a) for a in paid]
        )
    for a, ((lo, hi), h) in enumerate(zip(bounds, held)):
        if hi > h:
            net.add_edge(2 + a, 1, max(0, lo - h), hi - h, 0)
        if h > lo:
            net.add_edge(0, 2 + a, max(0, h - hi), h - lo, 0)
    net.add_edge(1, 0, 0, instance.n, 0)
    res = min_cost_flow_with_demands(net, 0)
    if not res.feasible or res.total_cost > instance.budget:
        return None
    return res.total_cost, list(_deal(classes, move_edges, res.edge_flow))


def _end_classes(
    instance: BriberyInstance, voters: Iterable[int], end: int
) -> list[VoterClass]:
    """Voters able to change what sits at position `end` (0 or -1), keyed
    (alternative there now, the sorted alternatives that can reach it,
    price)."""
    prefs, prices = instance.profile.prefs, instance.prices
    width = [top_window(d, instance.metric) for d in instance.deltas]

    def key(i: int) -> Hashable:
        order, w = prefs[i].order, width[i]
        window = order[:w] if end == 0 else order[-w:]
        return order[end], tuple(sorted(window)), prices[i]

    return _voter_classes((i for i in voters if width[i] > 1), key)


def _toggle_classes(instance: BriberyInstance, k: int) -> list[VoterClass]:
    """Voters that may exchange positions k and k+1, keyed (the alternative
    at k, the pair, price).  Voters whose exchange would demote the target
    are left out: that is never useful."""
    prefs, c = instance.profile.prefs, instance.target
    togglable = (
        i
        for i in range(instance.n)
        if top_window(instance.deltas[i], instance.metric) > 1
        and prefs[i].order[k - 1] != c
    )
    return _voter_classes(
        togglable,
        lambda i: (prefs[i].order[k - 1], prefs[i].order[k - 1 : k + 1],
                   instance.prices[i]),
    )


def _boundary_toggle_solve(
    instance: BriberyInstance,
    held: list[int],
    classes: list[VoterClass],
    spends: list[list[int]],
    target: int,
    rival_cap: int,
) -> tuple[int, list[Move]] | None:
    """One guess at boundary k, plurality being k = 1: the target ends
    with exactly `target` of the top-k places that `held` counts now, and
    every rival with at most `rival_cap`.

    Small-radius k-approval and simplified Bucklin take this form because
    at radius 1 the only change that moves level-k scores is exchanging
    the alternatives at positions k and k+1; any other radius-1 change can
    be dropped without raising cost or altering level-k scores.  Every
    rival over the cap must shed the excess through moves out of its
    place, one point per voter; when the cheapest such moves (`spends`)
    overrun the budget, no network is built.
    """
    c = instance.target
    excess = [0 if y == c else h - rival_cap for y, h in enumerate(held)]
    if not _sheds_fit(spends, excess, instance.budget):
        return None
    bounds = [(0, rival_cap)] * instance.m
    bounds[c] = (target, target)
    return _move_flow(instance, held, classes, bounds)


def _boundary_guesses(
    instance: BriberyInstance,
    k: int,
    classes: list[VoterClass],
    floor: int,
    rival_cap: int | None = None,
) -> Iterator[tuple[int, list[Move]] | None]:
    """Lazily, `_boundary_toggle_solve` for every guess of the target's
    final score at boundary k, from `floor` (or its score now, if higher)
    up to what the budget can buy it.  Rivals are capped at `rival_cap`,
    or one below the guess when it is None."""
    c, m = instance.target, instance.m
    held = positional_scores(instance.profile, approval_vector(m, k))
    spends = _shed_spends(m, (
        (current, price, len(members))
        for (current, _, price), members in classes
    ))
    # The target gains only through voters that can bring it in, paid for.
    gain = _affordable(
        (price for (_, reach, price), members in classes if c in reach
         for _ in members),
        instance.budget,
    )
    for guess in range(max(floor, held[c]), held[c] + gain + 1):
        cap = guess - 1 if rival_cap is None else rival_cap
        yield _boundary_toggle_solve(instance, held, classes, spends, guess, cap)


def _approval_solve(
    instance: BriberyInstance, k: int, classes: list[VoterClass]
) -> BriberyOutcome:
    """Shared body of plurality (k = 1) and small-radius k-approval: guess
    the target's final score, at least 1, cap every rival one below it."""
    best = _cheapest(_boundary_guesses(instance, k, classes, 1))
    return _outcome(
        instance,
        None if best is None else _move_to(instance.profile, best[1], k - 1),
    )


def solve_plurality(instance: BriberyInstance) -> BriberyOutcome:
    """Guess the target's final plurality score, solve a min-cost flow.

    A voter not ranking the target first may move any alternative of its
    top window to the top; one ranking it first never moves, since that
    could only cost the target a point.
    """
    if instance.rule.tag != PLURALITY:
        raise UnsupportedParameters("solve_plurality requires the plurality rule")
    c = instance.target
    voters = (
        i for i, pref in enumerate(instance.profile.prefs) if pref.order[0] != c
    )
    return _approval_solve(instance, 1, _end_classes(instance, voters, 0))


def solve_veto(instance: BriberyInstance) -> BriberyOutcome:
    """Guess the target's final veto count; a voter may move any
    alternative of its bottom window to the last place."""
    if instance.rule.tag != VETO:
        raise UnsupportedParameters("solve_veto requires the veto rule")
    profile, c = instance.profile, instance.target
    n, m = instance.n, instance.m
    classes = _end_classes(instance, range(n), -1)
    vetoes = [0] * m
    for pref in profile.prefs:
        vetoes[pref.order[-1]] += 1
    # A voter vetoing the target keeps doing so unless it is paid to veto
    # another alternative.  Every rival needs more vetoes than the target,
    # so (m-1)(guess+1) <= n caps the guess.
    forced = vetoes[c] - _affordable(
        (price for (current, _, price), members in classes if current == c
         for _ in members),
        instance.budget,
    )

    def attempt(guess: int) -> tuple[int, list[Move]] | None:
        # Each veto a rival lacks is a distinct voter that can veto it
        # instead of what it vetoes now, paid for.
        short = {y for y in range(m) if y != c and vetoes[y] <= guess}
        spends = _shed_spends(1, (
            (0, price, len(members))
            for (current, reach, price), members in classes
            if any(a in short for a in reach if a != current)
        ))
        need = sum(guess + 1 - vetoes[y] for y in short)
        if not _sheds_fit(spends, [need], instance.budget):
            return None
        bounds = [(guess + 1, n)] * m
        bounds[c] = (0, guess)
        return _move_flow(instance, vetoes, classes, bounds)

    best = _cheapest(attempt(guess) for guess in range(forced, n // (m - 1)))
    return _outcome(
        instance, None if best is None else _move_to(profile, best[1], m - 1)
    )


def solve_kapproval_small_radius(instance: BriberyInstance) -> BriberyOutcome:
    if instance.rule.tag != KAPPROVAL:
        raise UnsupportedParameters("this solver requires the k-approval rule")
    _check_domain(instance, windowed=False)
    k = instance.rule.k
    return _approval_solve(instance, k, _toggle_classes(instance, k))


def solve_sbucklin_small_radius(instance: BriberyInstance) -> BriberyOutcome:
    """Guess the level at which the target reaches a strict majority while
    every rival stays at or below half."""
    if instance.rule.tag != SBUCKLIN:
        raise UnsupportedParameters("this solver requires simplified Bucklin")
    _check_domain(instance, windowed=False)
    n, m = instance.n, instance.m
    if m == 1:
        return _outcome(instance, instance.profile)
    majority = n // 2 + 1

    # Guess the level at which the target holds a strict majority while
    # every rival stays at or below half; counts are monotone in the level,
    # so capping rivals at the guessed level also covers all lower levels.
    # The target's exact final count is swept too, because a toggle that
    # raises the target also lowers the rival at the boundary.
    def attempts() -> Iterator[tuple[int, list[Move], int] | None]:
        for level in range(1, m):
            for got in _boundary_guesses(
                instance, level, _toggle_classes(instance, level), majority,
                majority - 1,
            ):
                yield None if got is None else (*got, level)

    best = _cheapest(attempts())
    return _outcome(
        instance,
        None if best is None else _move_to(instance.profile, best[1], best[2] - 1),
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
    _check_domain(instance, windowed=True)
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
    _check_domain(instance, windowed=True)
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
