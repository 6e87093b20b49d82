"""The three rank distances and radius-bounded neighborhood enumeration.

Each distance first drops the prefix and suffix the two orders share
elementwise.  Each metric has its own backtracking ball generator, used
for every m: it extends an order position by position, cuts a partial
order as soon as it provably exceeds the radius, and so yields the ball
in lexicographic order.  The max-displacement generator tries at each
position only the alternatives whose home lies within the radius.
"""

from __future__ import annotations

from typing import Iterator

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


def _ball_maxdisp(pref: Preference, radius: int) -> Iterator[tuple[int, ...]]:
    """Backtracking with per-position candidate windows, lexicographic order."""
    m = pref.m
    # The alternatives whose home is within the radius of each position,
    # by index, so that members come out in lexicographic order.
    window = [
        sorted(pref.order[max(0, pos - radius):pos + radius + 1])
        for pos in range(m)
    ]
    used = [False] * m
    out: list[int] = []

    def rec(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == m:
            yield tuple(out)
            return
        for a in window[pos]:
            if not used[a]:
                used[a] = True
                out.append(a)
                yield from rec(pos + 1)
                out.pop()
                used[a] = False

    return rec(0)


def _ball_footrule(pref: Preference, radius: int) -> Iterator[tuple[int, ...]]:
    """Backtracking with a running displacement budget, lexicographic order."""
    m = pref.m
    home = {a: i for i, a in enumerate(pref.order)}
    used = [False] * m
    out: list[int] = []

    def rec(pos: int, budget: int) -> Iterator[tuple[int, ...]]:
        if pos == m:
            if budget >= 0:
                yield tuple(out)
            return
        for a in range(m):
            if used[a]:
                continue
            cost = abs(home[a] - pos)
            if cost <= budget:
                used[a] = True
                out.append(a)
                yield from rec(pos + 1, budget - cost)
                out.pop()
                used[a] = False

    return rec(0, radius)


def _ball_swap(pref: Preference, radius: int) -> Iterator[tuple[int, ...]]:
    """Backtracking over orders, pruning by inversions already committed.

    Choosing alternative a at the current position inverts a pair with every
    not-yet-placed alternative that pref ranks above a; that count is a lower
    bound on the final swap distance, so the budget prunes exactly.
    """
    m = pref.m
    home = {a: i for i, a in enumerate(pref.order)}
    used = [False] * m
    out: list[int] = []

    def rec(pos: int, budget: int) -> Iterator[tuple[int, ...]]:
        if pos == m:
            yield tuple(out)
            return
        for a in range(m):
            if used[a]:
                continue
            cost = sum(
                1 for b in range(m) if not used[b] and b != a and home[b] < home[a]
            )
            if cost <= budget:
                used[a] = True
                out.append(a)
                yield from rec(pos + 1, budget - cost)
                out.pop()
                used[a] = False

    return rec(0, radius)


def iter_ball(pref: Preference, metric: str, radius: int) -> Iterator[Preference]:
    """All preferences within `radius` of pref, in lexicographic order."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if metric == SWAP:
        gen = _ball_swap(pref, radius)
    elif metric == FOOTRULE:
        gen = _ball_footrule(pref, radius)
    elif metric == MAXDISP:
        gen = _ball_maxdisp(pref, radius)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    # Every generator places each alternative exactly once.
    for order in gen:
        yield Preference.trusted(order)


def ball(
    pref: Preference, metric: str, radius: int, cap: int = DEFAULT_BALL_CAP
) -> list[Preference]:
    """Materialized ball; refuses to exceed `cap` elements."""
    result = []
    for q in iter_ball(pref, metric, radius):
        result.append(q)
        if len(result) > cap:
            raise BallTooLarge(
                f"ball(metric={metric}, radius={radius}) exceeds cap {cap}"
            )
    return result
