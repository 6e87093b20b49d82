"""The three rank distances, radius-bounded neighborhood enumeration, and
closed forms for how far a ball reaches.

Each distance first drops the prefix and suffix the two orders share
elementwise.  Each metric has its own ball generator, used for every m: it
extends an order position by position, trying only the alternatives that
fit the remaining budget, and yields the ball lazily in lexicographic
order.  `rank_reach` and `precedence_reach` say, without enumerating a
ball, how far an alternative's rank can move and which alternative can be
put above which; the oracle's bounds for every rule are built from them.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

from .core import Preference

SWAP = "swap"
FOOTRULE = "footrule"
MAXDISP = "maxdisp"

METRICS = (SWAP, FOOTRULE, MAXDISP)

DEFAULT_BALL_CAP = 10**6


class BallTooLarge(Exception):
    """Raised when a ball would exceed the configured element cap."""


def _check_pair(p1: Preference, p2: Preference) -> None:
    if p1.m != p2.m:
        raise ValueError("preferences are over different alternative sets")


def _window(
    p1: Preference, p2: Preference
) -> tuple[tuple[int, ...], dict[int, int]]:
    """p1's order without the prefix and suffix it shares elementwise with
    p2, and each of those alternatives' index in p2's matching window.

    An alternative at the same rank in both orders adds nothing to any of
    the three distances, and both windows hold the same alternatives.
    Witness checks compare preferences that differ only in a small window.
    """
    _check_pair(p1, p2)
    lo, hi = 0, p1.m
    o1, o2 = p1.order, p2.order
    while lo < hi and o1[lo] == o2[lo]:
        lo += 1
    while hi > lo and o1[hi - 1] == o2[hi - 1]:
        hi -= 1
    return o1[lo:hi], {a: i for i, a in enumerate(o2[lo:hi])}


def swap_distance(p1: Preference, p2: Preference) -> int:
    """Kendall tau: the number of oppositely ordered pairs."""
    w1, rank2 = _window(p1, p2)
    return _inversions([rank2[a] for a in w1])


def _inversions(seq: list[int]) -> int:
    # Merge-sort inversion count; the SAT-reduction instances are large
    # enough that the quadratic count is too slow.
    if len(seq) < 2:
        return 0
    mid = len(seq) // 2
    left, right = seq[:mid], seq[mid:]
    count = _inversions(left) + _inversions(right)
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            count += len(left) - i
    merged.extend(left[i:])
    merged.extend(right[j:])
    seq[:] = merged
    return count


def footrule_distance(p1: Preference, p2: Preference) -> int:
    w1, rank2 = _window(p1, p2)
    return sum(abs(i - rank2[a]) for i, a in enumerate(w1))


def maxdisp_distance(p1: Preference, p2: Preference) -> int:
    w1, rank2 = _window(p1, p2)
    return max((abs(i - rank2[a]) for i, a in enumerate(w1)), default=0)


_DISTANCE = {
    SWAP: swap_distance,
    FOOTRULE: footrule_distance,
    MAXDISP: maxdisp_distance,
}


def distance(metric: str, p1: Preference, p2: Preference) -> int:
    try:
        fn = _DISTANCE[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}") from None
    return fn(p1, p2)


# Each generator walks the ball depth first with an explicit stack of
# partial orders, one position per level, pushing a node's children in
# descending order so that they pop in ascending order: members come out
# in lexicographic order, one at a time, without a chain of nested
# generators.  Each tries only the alternatives that fit the remaining
# budget, and yields the rest of an order in one piece once it is forced.


def _ball_swap(pref: Preference, radius: int) -> Iterator[tuple[int, ...]]:
    """Placing the j-th unplaced alternative in home order inverts exactly
    j pairs, so only the first budget+1 of them fit, and at budget 0 the
    rest keep their home order."""
    # (placed, unplaced in home order, budget)
    stack = [((), pref.order, radius)]
    while stack:
        head, rest, budget = stack.pop()
        if budget == 0 or len(rest) < 2:
            yield head + rest
            continue
        fits = range(min(budget + 1, len(rest)))
        for j in sorted(fits, key=rest.__getitem__, reverse=True):
            stack.append(
                (head + rest[j:j + 1], rest[:j] + rest[j + 1:], budget - j)
            )


def _ball_footrule(pref: Preference, radius: int) -> Iterator[tuple[int, ...]]:
    """An alternative placed at pos costs |home - pos| of the budget, so
    only those whose home lies within the budget of pos fit, and at budget
    0 every remaining alternative must be at home."""
    order = pref.order
    m = len(order)
    home = [0] * m
    for i, a in enumerate(order):
        home[a] = i
    # at_home[pos]: the set of order[:pos], as a bit mask.
    at_home = [0]
    for a in order:
        at_home.append(at_home[-1] | 1 << a)
    stack = [((), 0, radius)]  # (placed, their bit mask, budget)
    while stack:
        head, used, budget = stack.pop()
        pos = len(head)
        if budget == 0 or pos == m:
            if used == at_home[pos]:
                yield head + order[pos:]
            continue
        near = order[max(0, pos - budget):pos + budget + 1]
        for a in sorted(near, reverse=True):
            if not used >> a & 1:
                stack.append(
                    (head + (a,), used | 1 << a, budget - abs(home[a] - pos))
                )


def _ball_maxdisp(pref: Preference, radius: int) -> Iterator[tuple[int, ...]]:
    """Only the alternatives whose home is within the radius of pos fit
    there, and the one whose home is `radius` places back must go there
    if it is still unplaced: no later place is within its reach.  So no
    branch dies, and the last unplaced alternative fits the last place."""
    order = pref.order
    m = len(order)
    # Descending, so that the children pop in ascending order.
    window = [
        sorted(order[max(0, pos - radius):pos + radius + 1], reverse=True)
        for pos in range(m)
    ]
    everyone = (1 << m) - 1
    stack = [((), 0)]  # (placed, their bit mask)
    while stack:
        head, used = stack.pop()
        pos = len(head)
        if pos == m - 1:
            yield head + ((everyone ^ used).bit_length() - 1,)
            continue
        if pos >= radius and not used >> order[pos - radius] & 1:
            fits = (order[pos - radius],)
        else:
            fits = window[pos]
        for a in fits:
            if not used >> a & 1:
                stack.append((head + (a,), used | 1 << a))


_BALL = {
    SWAP: _ball_swap,
    FOOTRULE: _ball_footrule,
    MAXDISP: _ball_maxdisp,
}


def iter_ball(pref: Preference, metric: str, radius: int) -> Iterator[Preference]:
    """All preferences within `radius` of pref, in lexicographic order,
    lazily."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    _check_metric(metric)
    # Every generator places each alternative exactly once.
    return map(Preference.trusted, _BALL[metric](pref, radius))


def ball(
    pref: Preference, metric: str, radius: int, cap: int = DEFAULT_BALL_CAP
) -> list[Preference]:
    """Materialized ball; refuses to exceed `cap` elements."""
    result = list(islice(iter_ball(pref, metric, radius), cap + 1))
    if len(result) > cap:
        raise BallTooLarge(
            f"ball(metric={metric}, radius={radius}) exceeds cap {cap}"
        )
    return result


def rank_reach(metric: str, radius: int) -> int:
    """How far one alternative can move within the ball of `radius`: the
    alternative at place j of the centre ranks j - reach and j + reach
    (within 0..m-1) in some members, and nowhere further in any.  Moving
    one alternative d places costs d swaps, a footrule of 2d and a
    displacement of d."""
    _check_metric(metric)
    return radius // 2 if metric == FOOTRULE else radius


def precedence_reach(metric: str, radius: int) -> int:
    """The greatest j - k for which some member of the ball of `radius`
    ranks the centre's place j above its place k.  Putting place j above
    place k < j inverts at least j - k pairs and costs at least 2(j - k)
    of footrule; under max displacement both can move `radius` places
    towards each other."""
    _check_metric(metric)
    if metric == MAXDISP:
        return 2 * radius - 1
    return radius // 2 if metric == FOOTRULE else radius


def _check_metric(metric: str) -> None:
    if metric not in _BALL:
        raise ValueError(f"unknown metric {metric!r}")
