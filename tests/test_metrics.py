"""Distance axioms, known inequalities, and ball enumeration."""

import functools
import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localbribery.metrics import (
    DEFAULT_BALL_CAP,
    BallTooLarge,
    FOOTRULE,
    MAXDISP,
    METRICS,
    SWAP,
    ball,
    distance,
    footrule_distance,
    iter_ball,
    maxdisp_distance,
    precedence_reach,
    rank_reach,
    swap_distance,
)
from localbribery.core import Preference
from localbribery.oracle import _relabel, _shape


def all_prefs(m):
    return [Preference(p) for p in permutations(range(m))]


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("m", [2, 3, 4])
def test_axioms_exhaustive_pairs(metric, m):
    prefs = all_prefs(m)
    for p in prefs:
        assert distance(metric, p, p) == 0
        for q in prefs:
            d = distance(metric, p, q)
            assert d >= 0
            assert (d == 0) == (p == q)
            assert d == distance(metric, q, p)


@pytest.mark.parametrize("metric", METRICS)
def test_triangle_exhaustive_m4(metric):
    prefs = all_prefs(4)
    d = {
        (p.order, q.order): distance(metric, p, q)
        for p in prefs
        for q in prefs
    }
    for p in prefs:
        for q in prefs:
            for r in prefs:
                assert (
                    d[(p.order, r.order)]
                    <= d[(p.order, q.order)] + d[(q.order, r.order)]
                )


@given(
    st.permutations(list(range(7))),
    st.permutations(list(range(7))),
    st.permutations(list(range(7))),
)
@settings(max_examples=300, deadline=None)
def test_triangle_random_m7(a, b, c):
    p, q, r = Preference(tuple(a)), Preference(tuple(b)), Preference(tuple(c))
    for metric in METRICS:
        assert distance(metric, p, r) <= distance(metric, p, q) + distance(
            metric, q, r
        )


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_footrule_always_even(m):
    prefs = all_prefs(m)
    for p in prefs:
        for q in prefs:
            assert footrule_distance(p, q) % 2 == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_swap_footrule_sandwich(m):
    # d_swap <= d_footrule <= 2 * d_swap, exhaustively.
    prefs = all_prefs(m)
    for p in prefs:
        for q in prefs:
            s = swap_distance(p, q)
            f = footrule_distance(p, q)
            assert s <= f <= 2 * s


def test_known_values():
    p = Preference((0, 1, 2))
    rev = Preference((2, 1, 0))
    assert swap_distance(p, rev) == 3
    assert footrule_distance(p, rev) == 4
    assert maxdisp_distance(p, rev) == 2
    q = Preference((0, 2, 1))
    assert swap_distance(p, q) == 1
    assert footrule_distance(p, q) == 2
    assert maxdisp_distance(p, q) == 1


def test_adjacent_transposition_is_footrule_two():
    # A single adjacent exchange is exactly swap 1 / footrule 2 / maxdisp 1.
    for m in (4, 6):
        base = Preference(tuple(range(m)))
        for i in range(m - 1):
            o = list(range(m))
            o[i], o[i + 1] = o[i + 1], o[i]
            q = Preference(tuple(o))
            assert swap_distance(base, q) == 1
            assert footrule_distance(base, q) == 2
            assert maxdisp_distance(base, q) == 1


def test_swap_distance_large_is_fast_and_right():
    m = 2000
    p = Preference(tuple(range(m)))
    q = Preference(tuple(reversed(range(m))))
    assert swap_distance(p, q) == m * (m - 1) // 2
    # local change deep inside a long shared prefix/suffix
    o = list(range(m))
    o[1000], o[1001] = o[1001], o[1000]
    assert swap_distance(p, Preference(tuple(o))) == 1


def test_swap_distance_equals_literal_count():
    # Seeded pairs at m up to 400 that share a prefix and a suffix of
    # random length, against a count of every inverted pair; and full
    # reversals at the widest windows the benchmark and the gadgets meet.
    rng = random.Random(2601)
    for _ in range(120):
        m = rng.randint(1, 400)
        a = rng.sample(range(m), m)
        lo = rng.randint(0, m)
        hi = rng.randint(lo, m)
        b = a[:lo] + rng.sample(a[lo:hi], hi - lo) + a[hi:]
        rank_b = {x: i for i, x in enumerate(b)}
        want = sum(rank_b[x] > rank_b[y] for x, y in combinations(a, 2))
        p, q = Preference(tuple(a)), Preference(tuple(b))
        assert swap_distance(p, q) == want == swap_distance(q, p)
    for m in (62, 3023):
        p = Preference(tuple(range(m)))
        q = Preference(tuple(reversed(range(m))))
        assert swap_distance(p, q) == m * (m - 1) // 2


def _untrimmed_displacements(p, q):
    rank2 = {a: i for i, a in enumerate(q.order)}
    return [abs(i - rank2[a]) for i, a in enumerate(p.order)]


def test_trimmed_distances_match_untrimmed():
    # footrule and maxdisp skip the shared prefix and suffix; compare with
    # the plain formulas on unrelated pairs, equal pairs, and pairs that
    # differ only inside one window, up to m = 2000.
    rng = random.Random(2024)
    cases = []
    for m in list(range(1, 9)) + [1000, 2000]:
        for _ in range(20 if m < 1000 else 4):
            p = list(range(m))
            rng.shuffle(p)
            q = list(p)
            lo = rng.randrange(m)
            hi = rng.randrange(lo, min(m, lo + 12) + 1)
            window = q[lo:hi]
            rng.shuffle(window)
            q[lo:hi] = window
            cases.append((p, q))
            cases.append((p, p))
            if m < 1000:
                cases.append((p, rng.sample(p, m)))
    for p, q in cases:
        p, q = Preference(tuple(p)), Preference(tuple(q))
        disp = _untrimmed_displacements(p, q)
        assert footrule_distance(p, q) == sum(disp)
        assert maxdisp_distance(p, q) == max(disp)


def _max_distance(metric, m):
    return {SWAP: m * (m - 1) // 2, FOOTRULE: m * m // 2, MAXDISP: m - 1}[metric]


# Every radius up to the metric's diameter, for every m <= 7.  The ids keep
# the "m-radius-metric" form.
BALL_CASES = [
    (m, radius, metric)
    for metric in METRICS
    for m in range(1, 8)
    for radius in range(_max_distance(metric, m) + 1)
]


def _ball_starts(m):
    rng = random.Random(m)
    shuffled = [tuple(rng.sample(range(m), m)) for _ in range(2)]
    return [tuple(range(m)), tuple(reversed(range(m)))] + shuffled


@functools.cache
def _filter_distances(metric, start):
    # The reference: every permutation in lexicographic order, with its
    # distance from the start.
    p = Preference(start)
    return [(q, distance(metric, p, q)) for q in all_prefs(len(start))]


@pytest.mark.parametrize("m,radius,metric", BALL_CASES)
def test_ball_equals_filter(metric, m, radius):
    for start in _ball_starts(m):
        got = ball(Preference(start), metric, radius)
        want = [q.order for q, d in _filter_distances(metric, start)
                if d <= radius]
        assert got == want


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("m", range(1, 7))
def test_relabeled_shape_equals_ball(metric, m):
    # The oracle enumerates each radius's ball once, around the identity,
    # and relabels it through every voter's order.
    for radius in range(5):
        classes, _ = _shape(metric, m, radius, DEFAULT_BALL_CAP)
        for start in _ball_starts(m):
            want = ball(Preference(start), metric, radius)
            assert _relabel(classes, start) == want


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("m", range(2, 8))
def test_reach_closed_forms(metric, m):
    # Against the enumerated ball around the identity, for every radius up
    # to 5: each place's least and greatest rank, and for each ordered pair
    # of places whether some member ranks place j above place k.
    for radius in range(6):
        identity = Preference(tuple(range(m)))
        members = ball(identity, metric, radius)
        reach = rank_reach(metric, radius)
        ahead = precedence_reach(metric, radius)
        for j in range(m):
            ranks = [s.index(j) for s in members]
            assert (min(ranks), max(ranks)) == (
                max(0, j - reach), min(m - 1, j + reach)
            )
            for k in range(m):
                if k != j:
                    some = any(s.index(j) < s.index(k) for s in members)
                    assert some == (j - k <= ahead), (j, k, radius)


@pytest.mark.parametrize("metric", METRICS)
def test_ball_m9_sorted_distinct_within_radius(metric):
    # m=9 is beyond the all-permutations reference, so check the ball's
    # defining properties and the closed-form radius-1 sizes instead.
    start = Preference((3, 1, 4, 0, 5, 2, 8, 6, 7))
    for radius in (0, 1, 2):
        got = list(iter_ball(start, metric, radius))
        for q in got:
            assert distance(metric, start, q) <= radius
        assert got == sorted(got, key=lambda p: p.order)
        assert len(set(got)) == len(got)
        assert start in got
    # radius-1 balls have closed forms: identity plus single adjacent
    # exchanges for swap; products of disjoint adjacent exchanges for
    # maxdisp (a Fibonacci count); only the identity for footrule (all
    # footrule distances are even).
    r1 = len(list(iter_ball(start, metric, 1)))
    if metric == FOOTRULE:
        assert r1 == 1
    elif metric == SWAP:
        assert r1 == 9  # identity + 8 adjacent exchanges
    else:
        assert r1 == 55  # Fibonacci(10)


def test_ball_cap_raises():
    start = Preference(tuple(range(6)))
    with pytest.raises(BallTooLarge):
        ball(start, SWAP, 15, cap=10)


@pytest.mark.parametrize(
    "metric,radius", [(SWAP, 30), (FOOTRULE, 60), (MAXDISP, 11)]
)
def test_ball_cap_stops_a_huge_ball_early(metric, radius):
    # Each ball holds millions of the 12! orders; the cap must stop the
    # enumeration after the first few members.
    start = time.perf_counter()
    with pytest.raises(BallTooLarge):
        ball(Preference(tuple(range(12))), metric, radius, cap=5)
    assert time.perf_counter() - start < 1.0


def test_distance_rejects_mismatched_sizes():
    with pytest.raises(ValueError):
        swap_distance(Preference((0, 1)), Preference((0, 1, 2)))
    with pytest.raises(ValueError):
        distance("nosuch", Preference((0, 1)), Preference((0, 1)))


@pytest.mark.parametrize("metric", METRICS)
def test_right_invariance_m5(metric):
    # Relabeling alternatives by a common permutation preserves distances.
    prefs = all_prefs(4)
    relabel = (2, 0, 3, 1)
    for p in prefs:
        for q in prefs:
            rp = Preference(tuple(relabel[a] for a in p.order))
            rq = Preference(tuple(relabel[a] for a in q.order))
            assert distance(metric, p, q) == distance(metric, rp, rq)
