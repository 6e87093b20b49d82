"""Exhaustive exact solver: ground truth for every rule/metric combination.

Depth-first search over the product of per-voter distance balls, in
lexicographic witness order, with a price cap and an optimistic score
bound for every rule.  Returns the cheapest witness; among equal-cost
witnesses, the lexicographically smallest profile.  Leaves come in
lexicographic order, so after each winning leaf only cheaper branches are
entered.

- **Ball shapes.**  The three metrics only compare ranks, so the ball of an
  order o is o applied to the ball of the identity order.  Each search
  enumerates that shape once per distinct ball (footrule radii 2j and
  2j + 1 give one ball) and relabels it through each voter's order.
- **Score classes.**  For positional rules the members of a shape are
  grouped once per shape by their score contribution, and each voter keeps
  the lexicographically least relabeled member of each class, with the
  voter's own order a class of its own when bribing costs.  Swapping a
  member for that representative keeps every score and the price and never
  raises the lexicographic order, so the optimum is unchanged.
- **Carried leaf state.**  Each branch carries the partial sum of the
  rule's tally from `core.tally`: positional scores, top-(k+1) level
  counts (Bucklin, simplified Bucklin) or pairwise margins (maximin,
  Copeland).  Every option's contribution is computed once, the bounds
  read the sum, and each leaf decides with core's decision, the one
  `core.winners` uses, so no leaf builds a profile.
- **Bounds.**  One table per search, laid out as the carried tally:
  `bound[i]` sums, over voters i.., the target's greatest contribution in
  its own slots and every rival's least everywhere else, from the closed
  forms in `metrics` (how far each alternative's rank can move, and which
  alternative can be put above which).  The carried sum plus
  `bound[depth]` is the best case of every leaf below, and a branch is
  cut when the rule's own decision on it is not the target alone.  Every
  rule but Bucklin only favours the target more as the target's entries
  grow and the rivals' shrink, so no cut leaf could have won.  Bucklin's
  bound is decided by simplified Bucklin, which also cuts some Bucklin
  winners: those that share their level with a rival they out-approve.

`OracleBudget.max_nodes` counts visited search nodes.  The score classes
and the bounds leave fewer nodes to visit, so the same limit decides more
instances.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections.abc import Iterator
from operator import add, itemgetter, methodcaller

from .core import (
    BUCKLIN,
    COPELAND,
    MAXIMIN,
    SBUCKLIN,
    Preference,
    Profile,
    Record,
    VotingRule,
    is_unique_winner,  # unused here; bench/tracing.py names it
    score_vector,
    tally,
)
from .metrics import FOOTRULE, ball, precedence_reach, rank_reach
from .problem import BriberyInstance, BriberyOutcome, verified_yes


class OracleBudget(Record):
    _fields = ("max_nodes", "max_ball", "time_limit_s")
    max_nodes, max_ball, time_limit_s = 10**6, 10**5, 60.0

    def __init__(
        self, max_nodes: int = max_nodes, max_ball: int = max_ball,
        time_limit_s: float = time_limit_s,
    ):
        self._assign(max_nodes, max_ball, time_limit_s)
        # Written so that NaN fails too: a NaN time limit never expires.
        limits = (self.max_nodes, self.max_ball, self.time_limit_s)
        if not all(0 < x < math.inf for x in limits):
            raise ValueError("all oracle limits must be positive and finite")


class ResourceExceeded(Exception):
    def __init__(self, which: str):
        super().__init__(f"oracle resource limit exceeded: {which}")
        self.which = which


class _Search:
    """One exhaustive solve.  Voters are processed in their original order
    and each ball in lexicographic order, so leaves appear in lexicographic
    witness order: the first winning leaf of each cost is the canonical
    one, and a later branch is entered only if it costs less than the
    incumbent.

    `options[i]` lists voter i's choices as `[order, price, contribution]`
    in lexicographic order; a contribution is filled in when first needed.
    """

    def __init__(self, instance: BriberyInstance, limits: OracleBudget):
        self.instance = instance
        self.deadline = time.monotonic() + limits.time_limit_s
        n = self.n = instance.n
        m, c = instance.m, instance.target
        self.nodes = 0
        self.max_nodes = limits.max_nodes
        self.best: tuple[int, tuple[tuple[int, ...], ...]] | None = None
        self.cap = instance.budget  # then one less than the incumbent's cost
        self.chosen: list[tuple[int, ...] | None] = [None] * n

        # The rule's tally from core, as plain functions with their
        # parameters bound: a bound method kept on the search would make it
        # a reference cycle, which outlives the call until the cyclic
        # collector runs.  Bounds are decided like leaves, but Bucklin's by
        # simplified Bucklin (see the module docstring).
        rule = instance.rule
        self.contribution, self.decide = tally(rule, n, m)
        self.bound_decide = self.decide
        if rule.tag == BUCKLIN:
            self.bound_decide = tally(VotingRule(SBUCKLIN), n, m)[1]
        self.goal = {c}
        alpha = score_vector(rule, m)
        class_key = self.contribution if alpha is not None else None
        pairs = rule.tag in (MAXIMIN, COPELAND)

        shapes = {}  # radius, even under footrule -> _shape(...)
        per_voter = []
        self.options: list[list[list]] = []
        # Options that cost nothing: the voter's own order, or every order
        # when the voter is free.
        self.unbribed: list[list[list]] = []
        for i, pref in enumerate(instance.profile.prefs):
            radius = instance.deltas[i]
            # Footrule distances are even, so radii 2j and 2j + 1 give
            # one ball.
            key = radius - radius % 2 if instance.metric == FOOTRULE else radius
            if key not in shapes:
                shapes[key] = _shape(
                    instance.metric, m, key, limits.max_ball, class_key
                )
            free, priced = shapes[key]
            o = pref.order
            price = instance.prices[i]
            reps = _relabel(priced if price else free, o)
            opts = [[q, price, None] for q in reps]
            self.options.append(opts)
            if price:
                own = opts[bisect_left(reps, o)]
                own[1] = 0
                self.unbribed.append([own])
            else:
                self.unbribed.append(opts)
            per_voter.append(
                _optimistic(alpha, pairs, m, c, instance.metric, radius, o)
            )

        # bound[i] sums the optimistic contributions of voters i.., so
        # state + bound[depth] is the best case of every leaf below.  The
        # margins' diagonal holds n + 1, above every margin, so that it is
        # never a row's minimum and counts as the same Copeland win in
        # every row.
        self.bound = [[0] * len(per_voter[0])]
        for d in reversed(per_voter):
            self.bound.insert(0, list(map(add, self.bound[0], d)))
        if pairs:
            for table in self.bound:
                table[::m + 1] = [n + 1] * m

    # -- search ---------------------------------------------------------------

    def run(self) -> BriberyOutcome:
        self._search()
        if self.best is None:
            return BriberyOutcome.no()
        cost, orders = self.best
        witness = Profile(
            self.instance.profile.alternatives,
            tuple(Preference(o) for o in orders),
        )
        out = verified_yes(self.instance, witness)
        assert out.total_price == cost
        return out

    def _search(self) -> None:
        """Depth first, without recursion, so that any number of voters
        fits.  `opts`, `base` and `carried` are the options left on the
        deepest open voter and the price and tally carried into it; `stack`
        holds the same for the open voters above it, over an empty entry
        for the root's parent.  Each pass enters one node, then takes the
        next option left, going back up as voters run out of options."""
        decide, bound_decide, goal = self.decide, self.bound_decide, self.goal
        bound, options, unbribed = self.bound, self.options, self.unbribed
        n, prices, chosen = self.n, self.instance.prices, self.chosen
        stack: list[tuple[Iterator[list], int, list[int]]] = []
        opts, base, carried = iter(()), 0, []
        depth, price, state = 0, 0, [0] * len(bound[0])
        while True:
            self.nodes = nodes = self.nodes + 1
            if nodes > self.max_nodes:
                raise ResourceExceeded("max_nodes")
            if nodes % 4096 == 0 and time.monotonic() > self.deadline:
                raise ResourceExceeded("time")
            if depth == n:
                if decide(state) == goal:
                    self.best = (price, tuple(chosen))
                    self.cap = price - 1
            elif bound_decide(list(map(add, state, bound[depth]))) == goal:
                stack.append((opts, base, carried))
                opts = options[depth]
                if price + prices[depth] > self.cap:
                    opts = unbribed[depth]
                opts, base, carried = iter(opts), price, state
            while True:
                for opt in opts:
                    if base + opt[1] <= self.cap:
                        break
                else:
                    if not stack:
                        return
                    opts, base, carried = stack.pop()
                    continue
                break
            q, p, d = opt
            if d is None:
                d = opt[2] = self.contribution(q)
            depth = len(stack)
            chosen[depth - 1] = q
            price, state = base + p, list(map(add, carried, d))


def _optimistic(alpha, pairs, m, c, metric, radius, order) -> list[int]:
    """One voter's optimistic contribution over its ball, laid out as the
    carried tally: the most the target can get in its own slots ([c],
    [k*m + c] or row c) and the least each rival can be held to everywhere
    else.  From the closed forms in `metrics`, without the ball."""
    place = [0] * m
    for j, y in enumerate(order):
        place[y] = j
    if pairs:
        # Some member ranks x above y iff place[x] - place[y] <= t.  The
        # target gains +1 over y when it can be put above y; a rival x
        # loses 1 to y when y can be put above x.
        t = precedence_reach(metric, radius)
        d = [1 if py - px > t else -1 for px in place for py in place]
        d[c * m:(c + 1) * m] = [1 if place[c] - py <= t else -1 for py in place]
        return d
    r = rank_reach(metric, radius)
    best_c = max(0, place[c] - r)
    worst = [min(m - 1, j + r) for j in place]
    if alpha is not None:
        # Alpha is non-increasing, so the best place scores the most.
        d = [alpha.alpha[j] for j in worst]
        d[c] = alpha.alpha[best_c]
        return d
    # Level counts: y is within the first k+1 places of every member iff
    # its worst place is at most k, of some member iff its best is.
    d = [int(j <= k) for k in range(m) for j in worst]
    d[c::m] = [int(best_c <= k) for k in range(m)]
    return d


def _shape(metric: str, m: int, radius: int, cap: int, class_key=None):
    """The ball of radius `radius` around the identity order, as classes
    of relabeling functions: member s relabeled through an order o is
    o[s[0]], o[s[1]], ...  Two members are in one class when `class_key`
    gives them the same value; without a key every class is one member.

    Returns the classes for a free voter and for a priced one, in whose
    ball the identity (the voter's own order, at no price) is a class of
    its own.  The identity is the ball's least member, so the first class
    holds it."""
    identity = Preference(tuple(range(m)))
    members = [q.order for q in ball(identity, metric, radius, cap)]
    # One index makes itemgetter return the item, not a tuple; with m = 1
    # the ball is the identity alone.
    getters = [itemgetter(*s) for s in members] if m > 1 else [tuple]
    if class_key is None:
        free = [[g] for g in getters]
        return free, free
    classes: dict[tuple, list] = {}
    for s, g in zip(members, getters):
        classes.setdefault(tuple(class_key(s)), []).append(g)
    free = list(classes.values())
    own, *rest = free[0]
    return free, [[own]] + ([rest] if rest else []) + free[1:]


def _relabel(classes, order: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The lexicographically least member of each class, relabeled through
    `order`, in lexicographic order.  The metrics compare ranks only, so
    relabeling the identity's ball gives the ball around `order`; within a
    class, the least member is the one the search would reach first."""
    call = methodcaller("__call__", order)
    return sorted(
        [cls[0](order) if len(cls) == 1 else min(map(call, cls))
         for cls in classes]
    )


def solve_exhaustive(
    instance: BriberyInstance, limits: OracleBudget | None = None
) -> BriberyOutcome:
    """Exact decision with cheapest, lexicographically smallest witness."""
    return _Search(instance, limits or OracleBudget()).run()
