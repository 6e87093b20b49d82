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
  2j + 1 give one ball), as bare order tuples from `metrics.ball`, and
  relabels it through each voter's order.
- **Score classes.**  For positional rules the members of a shape are
  grouped once per shape by their score contribution, and each voter keeps
  the lexicographically least relabeled member of each class, with the
  voter's own order a class of its own when bribing costs.  Swapping a
  member for that representative keeps every score and the price and never
  raises the lexicographic order, so the optimum is unchanged.
- **Carried leaf state.**  Each branch carries the partial sum of the
  rule's tally from `core.tally`, packed into one int: positional scores,
  top-(k+1) level counts (Bucklin, simplified Bucklin) or pairwise margins
  (maximin, Copeland).  Every option's contribution is computed once, a
  child's state is its parent's plus one integer add, and each leaf is
  decided by the tally's "the target wins alone" predicate, which works on
  the packed sum and builds no profile and no co-winner set.  The verifier
  that gates each YES decides by `core.winners` instead.
- **Bounds.**  One table per search, built by the tally from each voter's
  order and the closed forms in `metrics` (how far each alternative's
  rank can move, and which alternative can be put above which):
  `bound[i]` sums, over voters i.., the target's greatest contribution in
  its own fields and every rival's least everywhere else.  The carried
  sum plus `bound[depth]`, one integer add, is the best case of every
  leaf below, and a branch is cut when the predicate that comes with
  the table is false on it; `core.tally` chooses that predicate for each
  rule, and says when a cut can lose a winner.

`OracleBudget.max_nodes` counts visited search nodes.  The score classes
and the bounds leave fewer nodes to visit, so the same limit decides more
instances.  The time limit is checked once per voter while the balls are
relabeled, and every 4,096 nodes during the search.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections.abc import Iterator
from operator import itemgetter, methodcaller

from .core import (
    Preference,
    Profile,
    Record,
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

        # The rule's tally from core, as closures over plain values: a
        # bound method kept on the search would make it a reference cycle,
        # which outlives the call until the cyclic collector runs.
        rule = instance.rule
        _, self.contribution, self.alone, bounds = tally(rule, n, m, c)
        class_key = self.contribution if score_vector(rule, m) else None

        shapes = {}  # radius, even under footrule -> _shape(...)
        voters = []
        self.options: list[list[list]] = []
        # Options that cost nothing: the voter's own order, or every order
        # when the voter is free.
        self.unbribed: list[list[list]] = []
        for i, pref in enumerate(instance.profile.prefs):
            if time.monotonic() > self.deadline:
                raise ResourceExceeded("time")
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
            voters.append((o, rank_reach(instance.metric, radius),
                           precedence_reach(instance.metric, radius)))
        # bound[i] sums the optimistic gains of voters i.., so
        # state + bound[depth] is the best case of every leaf below, and
        # `bound_alone` is the tally's predicate that cuts on it.
        self.bound, self.bound_alone = bounds(voters)

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
        next option left, going back up as voters run out of options.  The
        node count and the price cap, read at every node, live in locals
        and are written back when the search ends, also on a limit."""
        alone, bound_alone, contribution, max_nodes = (
            self.alone, self.bound_alone, self.contribution, self.max_nodes)
        bound, options, unbribed = self.bound, self.options, self.unbribed
        n, prices, chosen = self.n, self.instance.prices, self.chosen
        stack: list[tuple[Iterator[list], int, int]] = []
        opts, base, carried = iter(()), 0, 0
        depth, price, state = 0, 0, 0
        nodes, cap = self.nodes, self.cap
        try:
            while True:
                nodes += 1
                if nodes > max_nodes:
                    raise ResourceExceeded("max_nodes")
                if nodes % 4096 == 0 and time.monotonic() > self.deadline:
                    raise ResourceExceeded("time")
                if depth == n:
                    if alone(state):
                        self.best = (price, tuple(chosen))
                        cap = price - 1
                elif bound_alone(state + bound[depth]):
                    stack.append((opts, base, carried))
                    opts = options[depth]
                    if price + prices[depth] > cap:
                        opts = unbribed[depth]
                    opts, base, carried = iter(opts), price, state
                while True:
                    for opt in opts:
                        if base + opt[1] <= cap:
                            break
                    else:
                        if not stack:
                            return
                        opts, base, carried = stack.pop()
                        continue
                    break
                q, p, d = opt
                if d is None:
                    d = opt[2] = contribution(q)
                depth = len(stack)
                chosen[depth - 1] = q
                price, state = base + p, carried + d
        finally:
            self.nodes, self.cap = nodes, cap


def _shape(metric: str, m: int, radius: int, cap: int, class_key=None):
    """The ball of radius `radius` around the identity order, as classes
    of relabeling functions: member s relabeled through an order o is
    o[s[0]], o[s[1]], ...  Two members are in one class when `class_key`
    gives them the same value; without a key every class is one member.

    Returns the classes for a free voter and for a priced one, in whose
    ball the identity (the voter's own order, at no price) is a class of
    its own.  The identity is the ball's least member, so the first class
    holds it."""
    members = ball(Preference(tuple(range(m))), metric, radius, cap)
    # One index makes itemgetter return the item, not a tuple; with m = 1
    # the ball is the identity alone.
    getters = [itemgetter(*s) for s in members] if m > 1 else [tuple]
    if class_key is None:
        free = [[g] for g in getters]
        return free, free
    classes: dict[tuple, list] = {}
    for s, g in zip(members, getters):
        classes.setdefault(class_key(s), []).append(g)
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
