"""Exhaustive exact solver: ground truth for every rule/metric combination.

Depth-first search over the product of per-voter distance balls, in
lexicographic witness order, with a price cap and rule-specific optimistic
score bounds.  Returns the cheapest witness; among equal-cost witnesses,
the lexicographically smallest profile.  Leaves come in lexicographic
order, so after each winning leaf only cheaper branches are entered.

- **Ball shapes.**  The three metrics only compare ranks, so the ball of an
  order o is o applied to the ball of the identity order.  Each search
  enumerates that shape once per distinct radius, relabels it through each
  voter's order and sorts it back into lexicographic order; the bound
  tables read each voter's rank extremes off the shape.
- **Carried leaf state.**  Each branch carries one additive vector:
  positional scores, top-k level counts (Bucklin, simplified Bucklin) or
  pairwise margins (maximin, Copeland).  Every ball member's contribution
  is computed once, and the bounds and the leaf decision read the vector,
  so no leaf builds a profile or runs a winner computation.
- **Score classes.**  For positional rules each ball keeps only the first
  member of each distinct (score contribution, price) class.  Swapping a
  member for that representative keeps every score and the price and never
  raises the lexicographic order, so the optimum is unchanged.

`OracleBudget.max_nodes` counts visited search nodes.  The score classes
leave fewer nodes to visit, so the same limit decides more instances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from operator import add

from .core import (
    BUCKLIN,
    COPELAND,
    MAXIMIN,
    SBUCKLIN,
    Preference,
    Profile,
    is_unique_winner,  # unused here; bench/tracing.py names it
    score_vector,
)
from .metrics import ball
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
        self.c = instance.target
        self.nodes = 0
        self.max_nodes = limits.max_nodes
        self.best: tuple[int, tuple[tuple[int, ...], ...]] | None = None
        self.cap = instance.budget  # then one less than the incumbent's cost
        self.chosen: list[tuple[int, ...] | None] = [None] * n

        rule = instance.rule
        self.alpha = score_vector(rule, m)
        self.level_rule = rule.tag in (SBUCKLIN, BUCKLIN)
        # Plain functions with their parameters bound: a bound method kept
        # on the search would make it a reference cycle, which outlives
        # the call until the cyclic collector runs.
        if self.alpha is not None:
            self.contribution = partial(_scores_of, self.alpha.alpha, m)
            self.wins = partial(_wins_positional, self.c)
        elif self.level_rule:
            self.contribution = partial(_levels_of, m)
            wins = _wins_bucklin if rule.tag == BUCKLIN else _wins_sbucklin
            self.wins = partial(wins, n, m, self.c)
        elif rule.tag == MAXIMIN:
            self.contribution = partial(_margins_of, m)
            self.wins = partial(_wins_maximin, m, self.c)
        elif rule.tag == COPELAND:
            # alpha = p/q, so q*wins + p*ties orders the scores exactly.
            a = rule.copeland_alpha
            self.contribution = partial(_margins_of, m)
            self.wins = partial(
                _wins_copeland, m, self.c, a.denominator, a.numerator
            )
        else:
            raise ValueError(f"unknown rule tag {rule.tag!r}")

        shapes = {}  # radius -> _shape(...)
        best_c, worst = [], []
        self.options: list[list[list]] = []
        for i, pref in enumerate(instance.profile.prefs):
            radius = instance.deltas[i]
            if radius not in shapes:
                shapes[radius] = _shape(
                    instance.metric, m, radius, limits.max_ball
                )
            shape, lo, hi = shapes[radius]
            o = pref.order
            price = instance.prices[i]
            opts = [
                [q, 0 if q == o else price, None] for q in _relabel(shape, o)
            ]
            if self.alpha is not None:
                opts = self._score_classes(opts)
            self.options.append(opts)
            best_c.append(lo[o.index(self.c)])
            w = [0] * m
            for j, y in enumerate(o):
                w[y] = hi[j]
            worst.append(w)
        # Options that cost nothing: the voter's own order, or every order
        # when the voter is free.
        self.unbribed = [
            [opt for opt in opts if opt[1] == 0] for opts in self.options
        ]
        if self.alpha is not None:
            self._prep_positional_bounds(best_c, worst)
        if self.level_rule:
            self._prep_level_bounds(best_c, worst)

    def _score_classes(self, opts):
        """The first member of each (contribution, price) class."""
        seen = set()
        kept = []
        for opt in opts:
            d = self.contribution(opt[0])
            key = (tuple(d), opt[1])
            if key not in seen:
                seen.add(key)
                opt[2] = d
                kept.append(opt)
        return kept

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

    def _prune_positional(self, depth: int, scores: list[int]) -> bool:
        # Optimistic: target at its per-voter max, each rival at its min.
        upper_c = scores[self.c] + self.cmax_suffix[depth]
        row = self.rmin_suffix[depth]
        return any(
            scores[y] + row[y] >= upper_c for y in range(self.m) if y != self.c
        )

    def _prune_level(self, depth: int, counts: list[int]) -> bool:
        # Prune when no level is left at which the target can reach a
        # strict majority while no rival does.  That is exact for simplified
        # Bucklin.  A Bucklin winner may share its level with a rival it
        # out-approves, so for Bucklin this also cuts some winning branches
        # (tests/test_oracle.py, test_bucklin_winner_sharing_its_level).
        maj = self.n // 2 + 1
        m, c = self.m, self.c
        cmax = self.lvl_cmax[depth]
        rmin = self.lvl_rmin[depth]
        for k in range(m):
            base = k * m
            if counts[base + c] + cmax[k] < maj:
                continue
            if all(
                counts[base + y] + rmin[base + y] <= maj - 1
                for y in range(m)
                if y != c
            ):
                return False
        return True

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
            if self.wins(state):
                self.best = (price, tuple(self.chosen))
                self.cap = price - 1
            return
        if self.alpha is not None:
            if self._prune_positional(depth, state):
                return
        elif self.level_rule and self._prune_level(depth, state):
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


# -- contributions of one chosen order to the carried state ----------------


def _scores_of(alpha: tuple[int, ...], m: int, q: tuple[int, ...]) -> list:
    d = [0] * m
    for y, x in zip(q, alpha):
        d[y] = x
    return d


def _levels_of(m: int, q: tuple[int, ...]) -> list[int]:
    # Flat m*m: [k*m + y] is 1 iff y is within q's first k+1 places.
    d = [0] * (m * m)
    for pos, y in enumerate(q):
        for k in range(pos, m):
            d[k * m + y] = 1
    return d


def _margins_of(m: int, q: tuple[int, ...]) -> list[int]:
    # Flat m*m: [x*m + y] is +1 if q ranks x above y, -1 if below.
    d = [0] * (m * m)
    for i, x in enumerate(q):
        for y in q[i + 1:]:
            d[x * m + y] = 1
            d[y * m + x] = -1
    return d


# -- leaf decisions on the carried state, as `core.is_unique_winner` --------


def _wins_positional(c: int, scores: list[int]) -> bool:
    top = max(scores)
    return scores[c] == top and scores.count(top) == 1


def _target_level(n: int, m: int, c: int, counts: list[int]) -> int:
    """The least 0-based level at which the target has a strict majority;
    every alternative has one at level m-1."""
    k = 0
    while 2 * counts[k * m + c] <= n:
        k += 1
    return k


def _wins_sbucklin(n: int, m: int, c: int, counts: list[int]) -> bool:
    # Unique iff no rival also has a majority at the target's level.
    row = _target_level(n, m, c, counts) * m
    return all(2 * counts[row + y] <= n for y in range(m) if y != c)


def _wins_bucklin(n: int, m: int, c: int, counts: list[int]) -> bool:
    # Unique iff every rival has fewer approvals at the target's level, and
    # none has a majority one level earlier.
    k = _target_level(n, m, c, counts)
    row = k * m
    top = counts[row + c]
    if any(counts[row + y] >= top for y in range(m) if y != c):
        return False
    prev = row - m
    return k == 0 or all(2 * counts[prev + y] <= n for y in range(m))


def _wins_maximin(m: int, c: int, margins: list[int]) -> bool:
    def score(x):
        row = margins[x * m:(x + 1) * m]
        return min(row[:x] + row[x + 1:], default=0)

    own = score(c)
    return all(score(x) < own for x in range(m) if x != c)


def _wins_copeland(
    m: int, c: int, win_w: int, tie_w: int, margins: list[int]
) -> bool:
    def score(x):
        row = margins[x * m:(x + 1) * m]
        # The diagonal is the one zero that is not a tie.
        return win_w * sum(map((0).__lt__, row)) + tie_w * (row.count(0) - 1)

    own = score(c)
    return all(score(x) < own for x in range(m) if x != c)


def _shape(metric: str, m: int, radius: int, cap: int):
    """The ball of radius `radius` around the identity order, with each
    place's least and greatest rank over it.  Relabeled through an order
    o, member s becomes o[s[0]], o[s[1]], ...; the alternative in o's place
    j then ranks between lo[j] and hi[j]."""
    identity = Preference(tuple(range(m)))
    shape = [q.order for q in ball(identity, metric, radius, cap)]
    lo, hi = [m] * m, [0] * m
    for s in shape:
        for r, j in enumerate(s):
            if r < lo[j]:
                lo[j] = r
            if r > hi[j]:
                hi[j] = r
    return shape, lo, hi


def _relabel(shape, order: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The ball around `order`, in lexicographic order: the metrics compare
    ranks only, so it is `order` applied to each member of the identity's
    ball of the same radius."""
    return sorted(tuple(map(order.__getitem__, s)) for s in shape)


def solve_exhaustive(
    instance: BriberyInstance, limits: OracleBudget | None = None
) -> BriberyOutcome:
    """Exact decision with cheapest, lexicographically smallest witness."""
    return _Search(instance, limits or OracleBudget()).run()
