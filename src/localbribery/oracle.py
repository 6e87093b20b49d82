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
- **Bounds.**  The per-voter tables come from closed forms in `metrics`:
  how far each alternative's rank can move, and which alternative can be
  put above which.  Summed over the remaining voters they give the
  target's best and each rival's worst score: positional scores, level
  counts, maximin minima and Copeland wins and ties.  A branch is cut when
  some rival's worst reaches the target's best, so no cut leaf could have
  won.  The one exception is the level bound under Bucklin: it is exact
  for simplified Bucklin but also cuts some Bucklin winners (see
  `_Search._prune_level`).

`OracleBudget.max_nodes` counts visited search nodes.  The score classes
and the bounds leave fewer nodes to visit, so the same limit decides more
instances.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from operator import add, and_, itemgetter, methodcaller, sub

from .core import (
    BUCKLIN,
    COPELAND,
    MAXIMIN,
    SBUCKLIN,
    Preference,
    Profile,
    is_unique_winner,  # unused here; bench/tracing.py names it
    pair_row_score,
    score_vector,
    tally,
)
from .metrics import FOOTRULE, ball, precedence_reach, rank_reach
from .problem import BriberyInstance, BriberyOutcome, verified_yes


@dataclass(frozen=True)
class OracleBudget:
    max_nodes: int = 10**6
    max_ball: int = 10**5
    time_limit_s: float = 60.0

    def __post_init__(self):
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
        m = self.m = instance.m
        c = self.c = instance.target
        self.nodes = 0
        self.max_nodes = limits.max_nodes
        self.best: tuple[int, tuple[tuple[int, ...], ...]] | None = None
        self.cap = instance.budget  # then one less than the incumbent's cost
        self.chosen: list[tuple[int, ...] | None] = [None] * n
        # Row x of a flat m*m table, for C-level row minima and maxima.
        self.rows = [slice(x * m, (x + 1) * m) for x in range(m)]
        self.rival_rows = self.rows[:c] + self.rows[c + 1:]

        # The rule's tally from core: plain functions with their parameters
        # bound, and the bound test as a plain function that takes the
        # search.  A bound method kept on the search would make it a
        # reference cycle, which outlives the call until the cyclic
        # collector runs.
        rule = instance.rule
        self.contribution, self.decide = tally(rule, n, m)
        self.goal = {c}
        self.alpha = score_vector(rule, m)
        self.level_rule = rule.tag in (SBUCKLIN, BUCKLIN)
        self.pair_rule = rule.tag in (MAXIMIN, COPELAND)
        class_key = None
        if self.alpha is not None:
            class_key = self.contribution
            self.prune = _Search._prune_positional
        elif self.level_rule:
            self.prune = _Search._prune_level
        else:
            self.row_score = pair_row_score(rule)
            self.prune = _Search._prune_pairs

        shapes = {}  # radius, even under footrule -> _shape(...)
        best_c, worst, ahead = [], [], []
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
            # Voter i's best and worst rank of each alternative over its
            # ball, and which alternative can rank above which.
            place = [0] * m
            for j, y in enumerate(o):
                place[y] = j
            reach = rank_reach(instance.metric, radius)
            best_c.append(max(0, place[c] - reach))
            worst.append([min(m - 1, j + reach) for j in place])
            if self.pair_rule:
                t = precedence_reach(instance.metric, radius)
                ahead.append(
                    [1 if px - py <= t else -1 for px in place for py in place]
                )
        if self.alpha is not None:
            self._prep_positional_bounds(best_c, worst)
        elif self.level_rule:
            self._prep_level_bounds(best_c, worst)
        else:
            self._prep_pair_bounds(ahead)

    # -- optimistic bounds ----------------------------------------------------

    def _prep_positional_bounds(self, best_c, worst):
        """Alpha is non-increasing, so over a ball the target's best score
        is a[best_c] and a rival y's least is a[worst[y]]."""
        a = self.alpha.alpha
        n, m = self.n, self.m
        self.cmax_suffix = [0] * (n + 1)
        self.rmin_suffix = [[0] * m for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            self.cmax_suffix[i] = self.cmax_suffix[i + 1] + a[best_c[i]]
            nxt = self.rmin_suffix[i + 1]
            self.rmin_suffix[i] = [nxt[y] + a[worst[i][y]] for y in range(m)]

    def _prep_level_bounds(self, best_c, worst):
        # For each 0-based level k: how high can the target's count in the
        # first k+1 places still go, and how low can each rival's be forced,
        # over the remaining voters.  The target is among some member's
        # first k+1 iff best_c <= k, and y is among every member's iff
        # worst[y] <= k.  lvl_rmin is laid out as the carried counts.
        n, m = self.n, self.m
        self.lvl_cmax = [[0] * m for _ in range(n + 1)]
        self.lvl_rmin = [[0] * (m * m) for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            cmax, rmin = self.lvl_cmax[i + 1], self.lvl_rmin[i + 1]
            self.lvl_cmax[i] = [cmax[k] + (best_c[i] <= k) for k in range(m)]
            self.lvl_rmin[i] = [
                rmin[k * m + y] + (worst[i][y] <= k)
                for k in range(m)
                for y in range(m)
            ]

    def _prep_pair_bounds(self, ahead):
        # Over the remaining voters, the greatest sum the target's margins
        # [c*m + y] can still gain and the least sum each margin [x*m + y]
        # can.  ahead[i][x*m + y] is +1 if some member of voter i's ball
        # ranks x above y, and -1 if none does; the least a voter adds to
        # [x*m + y] is minus what it can add to [y*m + x] at best.  The
        # diagonal holds n + 1, above every margin, so that it is never a
        # row's minimum and counts as the same win in every Copeland row.
        n, m, c = self.n, self.m, self.c
        own = self.rows[c]
        flip = [y * m + x for x in range(m) for y in range(m)]
        self.pair_cmax = [[0] * m for _ in range(n + 1)]
        self.pair_rmin = [[0] * (m * m) for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            up = ahead[i]
            self.pair_cmax[i] = list(map(add, self.pair_cmax[i + 1], up[own]))
            self.pair_rmin[i] = list(
                map(sub, self.pair_rmin[i + 1], map(up.__getitem__, flip))
            )
        for row in self.pair_cmax:
            row[c] = n + 1
        diagonal = [n + 1] * m
        for table in self.pair_rmin:
            table[::m + 1] = diagonal

    # Each test prunes a branch when its optimistic bound shows that the
    # target cannot be the unique winner at any of the branch's leaves.

    def _prune_positional(self, depth: int, scores: list[int]) -> bool:
        # Optimistic: target at its per-voter max, each rival at its min.
        upper_c = scores[self.c] + self.cmax_suffix[depth]
        rivals = list(map(add, scores, self.rmin_suffix[depth]))
        del rivals[self.c]
        return any(map(upper_c.__le__, rivals))

    def _prune_level(self, depth: int, counts: list[int]) -> bool:
        # Prune when no level is left at which the target can reach a
        # strict majority while no rival does.  That is exact for simplified
        # Bucklin.  A Bucklin winner may share its level with a rival it
        # out-approves, so for Bucklin this also cuts some winning branches
        # (tests/test_oracle.py, test_bucklin_winner_sharing_its_level).
        maj = self.n // 2 + 1
        m, c = self.m, self.c
        rivals = list(map(add, counts, self.lvl_rmin[depth]))
        rivals[c::m] = [0] * m  # the target is no rival of itself
        reach = map(maj.__le__, map(add, counts[c::m], self.lvl_cmax[depth]))
        clear = map(maj.__gt__, map(max, map(rivals.__getitem__, self.rows)))
        return not any(map(and_, reach, clear))

    def _prune_pairs(self, depth: int, margins: list[int]) -> bool:
        # A row's score (its minimum for maximin, its weighted wins and
        # ties for Copeland) only grows with the row's entries, so the
        # target scores at most row_score of its greatest margins and a
        # rival at least row_score of its least.
        score = self.row_score
        own = margins[self.rows[self.c]]
        upper_c = score(list(map(add, own, self.pair_cmax[depth])))
        least = list(map(add, margins, self.pair_rmin[depth]))
        rivals = map(score, map(least.__getitem__, self.rival_rows))
        return any(map(upper_c.__le__, rivals))

    # -- search ---------------------------------------------------------------

    def run(self) -> BriberyOutcome:
        state = [0] * (self.m if self.alpha is not None else self.m * self.m)
        self._rec(0, 0, state)
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

    def _rec(self, depth, price, state):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise ResourceExceeded("max_nodes")
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise ResourceExceeded("time")
        if depth == self.n:
            if self.decide(state) == self.goal:
                self.best = (price, tuple(self.chosen))
                self.cap = price - 1
            return
        if self.prune(self, depth, state):
            return
        opts = self.options[depth]
        if price + self.instance.prices[depth] > self.cap:
            opts = self.unbribed[depth]
        for opt in opts:
            q, p, d = opt
            new_price = price + p
            if new_price > self.cap:
                continue
            if d is None:
                d = opt[2] = self.contribution(q)
            self.chosen[depth] = q
            self._rec(depth + 1, new_price, list(map(add, state, d)))


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
