"""Exhaustive exact solver: ground truth for every rule/metric combination.

Depth-first search over the product of per-voter distance balls, in
lexicographic witness order, with price pruning, a lexicographic-prefix
prune, and rule-specific optimistic score bounds.  Returns the cheapest
witness; among equal-cost witnesses, the lexicographically smallest
profile.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .core import (
    BUCKLIN,
    SBUCKLIN,
    Preference,
    Profile,
    is_unique_winner,
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
    so that leaves appear in lexicographic witness order; that makes the
    first all-free YES canonical and lets equal-cost subtrees be cut by
    prefix comparison."""

    def __init__(self, instance: BriberyInstance, limits: OracleBudget, prune: bool):
        self.instance = instance
        self.limits = limits
        self.deadline = time.monotonic() + limits.time_limit_s
        self.n, self.m = instance.n, instance.m
        self.c = instance.target
        self.nodes = 0
        self.best: tuple[int, tuple[tuple[int, ...], ...]] | None = None
        self.options: list[list[tuple[Preference, int]]] = []
        for i in range(self.n):
            orig = instance.profile.prefs[i]
            members = ball(
                orig, instance.metric, instance.deltas[i], limits.max_ball
            )
            self.options.append(
                [(q, 0 if q == orig else instance.prices[i]) for q in members]
            )
        self.all_free = all(
            p == 0 for opts in self.options for _, p in opts
        )
        self.chosen: list[Preference | None] = [None] * self.n

        self.alpha = score_vector(instance.rule, self.m) if prune else None
        self.level_rule = (
            instance.rule.tag in (SBUCKLIN, BUCKLIN) and prune
        )
        if self.alpha is not None or self.level_rule:
            best_c, worst = self._rank_extremes()
            if self.alpha is not None:
                self._prep_positional_bounds(best_c, worst)
            if self.level_rule:
                self._prep_level_bounds(best_c, worst)

    def _rank_extremes(self):
        """Per voter, over its ball: the target's least 0-based rank, and
        each alternative's greatest.

        Both bound tables follow from these alone.  Alpha is non-increasing,
        so over a ball the target's best score is a[best_c] and a rival y's
        least is a[worst[y]]; likewise the target is in some member's top k
        iff best_c < k, and y is in every member's top k iff worst[y] < k.
        """
        best_c, worst = [], []
        for opts in self.options:
            b, w = self.m, [0] * self.m
            for q, _ in opts:
                b = min(b, q.order.index(self.c))
                for r, y in enumerate(q.order):
                    if r > w[y]:
                        w[y] = r
            best_c.append(b)
            worst.append(w)
        return best_c, worst

    def _prep_positional_bounds(self, best_c, worst):
        a = self.alpha.alpha
        n, m = self.n, self.m
        self.cmax_suffix = [0] * (n + 1)
        self.rmin_suffix = [[0] * m for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            self.cmax_suffix[i] = self.cmax_suffix[i + 1] + a[best_c[i]]
            nxt = self.rmin_suffix[i + 1]
            self.rmin_suffix[i] = [nxt[y] + a[worst[i][y]] for y in range(m)]

    def _prep_level_bounds(self, best_c, worst):
        # For each level k: how high can the target's top-k count still go,
        # and how low can each rival's be forced, over the remaining voters.
        n, m = self.n, self.m
        self.lvl_cmax = [[0] * m for _ in range(n + 1)]  # [i][k-1]
        self.lvl_rmin = [
            [[0] * m for _ in range(m)] for _ in range(n + 1)
        ]  # [i][k-1][y]
        for i in range(n - 1, -1, -1):
            for k in range(1, m + 1):
                self.lvl_cmax[i][k - 1] = self.lvl_cmax[i + 1][k - 1] + (
                    1 if best_c[i] < k else 0
                )
                nxt = self.lvl_rmin[i + 1][k - 1]
                self.lvl_rmin[i][k - 1] = [
                    nxt[y] + (1 if worst[i][y] < k else 0) for y in range(m)
                ]

    def _prune_positional(self, depth: int, scores: list[int]) -> bool:
        # Optimistic: target at its per-voter max, each rival at its min.
        upper_c = scores[self.c] + self.cmax_suffix[depth]
        row = self.rmin_suffix[depth]
        return any(
            scores[y] + row[y] >= upper_c for y in range(self.m) if y != self.c
        )

    def _prune_level(self, depth: int, counts: list[list[int]]) -> bool:
        # The target wins uniquely iff at some level k it reaches a strict
        # majority while no rival does.  Prune when every level is provably
        # dead.
        maj = self.n // 2 + 1
        c = self.c
        for k in range(1, self.m):
            if counts[k - 1][c] + self.lvl_cmax[depth][k - 1] < maj:
                continue
            row = self.lvl_rmin[depth][k - 1]
            if all(
                counts[k - 1][y] + row[y] <= maj - 1
                for y in range(self.m)
                if y != c
            ):
                return False
        return True

    def run(self) -> BriberyOutcome:
        scores = [0] * self.m if self.alpha is not None else None
        counts = (
            [[0] * self.m for _ in range(self.m)] if self.level_rule else None
        )
        self._rec(0, 0, scores, counts)
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

    def _rec(self, depth, price, scores, counts):
        self.nodes += 1
        if self.nodes > self.limits.max_nodes:
            raise ResourceExceeded("max_nodes")
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise ResourceExceeded("time")
        if self.best is not None and self.all_free:
            return
        if depth == self.n:
            profile = Profile(
                self.instance.profile.alternatives, tuple(self.chosen)
            )
            if is_unique_winner(profile, self.instance.rule, self.c):
                key = (price, tuple(p.order for p in profile.prefs))
                if self.best is None or key < self.best:
                    self.best = key
            return
        if scores is not None and self._prune_positional(depth, scores):
            return
        if counts is not None and self._prune_level(depth, counts):
            return
        budget = self.instance.budget
        for q, p in self.options[depth]:
            new_price = price + p
            if new_price > budget:
                continue
            if self.best is not None:
                # Prices only grow along a branch, so an equal-cost branch
                # must beat the incumbent lexicographically.
                if new_price > self.best[0]:
                    continue
                if new_price == self.best[0]:
                    cmp = self._cmp_prefix(depth, q)
                    if cmp > 0:
                        continue
            self.chosen[depth] = q
            new_scores = None
            if scores is not None:
                a = self.alpha.alpha
                new_scores = scores[:]
                for pos, y in enumerate(q.order):
                    new_scores[y] += a[pos]
            new_counts = None
            if counts is not None:
                new_counts = [row[:] for row in counts]
                for pos, y in enumerate(q.order):
                    for k in range(pos, self.m):
                        new_counts[k][y] += 1
            self._rec(depth + 1, new_price, new_scores, new_counts)
            self.chosen[depth] = None

    def _cmp_prefix(self, depth: int, q: Preference) -> int:
        """Compare (chosen[0..depth-1], q) against the incumbent's prefix."""
        best_orders = self.best[1]
        for i in range(depth):
            a, b = self.chosen[i].order, best_orders[i]
            if a != b:
                return -1 if a < b else 1
        if q.order != best_orders[depth]:
            return -1 if q.order < best_orders[depth] else 1
        return 0


def solve_exhaustive(
    instance: BriberyInstance,
    limits: OracleBudget | None = None,
    use_pruning: bool = True,
) -> BriberyOutcome:
    """Exact decision with cheapest, lexicographically smallest witness."""
    return _Search(instance, limits or OracleBudget(), use_pruning).run()
