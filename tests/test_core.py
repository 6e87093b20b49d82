"""Winner determination for all eight rules: hand-computed profiles, and
literal-definition references computed from full rankings.

The oracle decides with core's packed tally and the verifier with
`winners`; these references share code with neither."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from localbribery import core
from localbribery.core import (
    AlternativeSet,
    Preference,
    Profile,
    ScoreVector,
    VotingRule,
    approval_vector,
    borda_vector,
    is_unique_winner,
    positional_scores,
    score_vector,
    tally,
    weighted_majority_graph,
    winners,
)
from localbribery.problem import BriberyInstance
from conftest import make_profile

# a=0 b=1 c=2; plurality counts a:2 b:1; borda a:4 b:3 c:2.
PROFILE = make_profile(
    [
        (0, 1, 2),
        (1, 2, 0),
        (0, 2, 1),
    ]
)


def test_positional_rules():
    assert winners(PROFILE, VotingRule("plurality")) == {0}
    assert winners(PROFILE, VotingRule("borda")) == {0}
    # veto: last places are c, a, b -> each vetoed once, all tie at 2.
    assert winners(PROFILE, VotingRule("veto")) == {0, 1, 2}
    # 2-approval: every alternative is in exactly two top-2 sets.
    assert winners(PROFILE, VotingRule("kapproval", k=2)) == {0, 1, 2}
    alpha = ScoreVector((3, 1, 0))
    assert winners(PROFILE, VotingRule("positional", alpha=alpha)) == {0}


def test_positional_scores_values():
    assert positional_scores(PROFILE, borda_vector(3)) == [4, 3, 2]
    assert positional_scores(PROFILE, approval_vector(3, 1)) == [2, 1, 0]
    assert positional_scores(PROFILE, approval_vector(3, 2)) == [2, 2, 2]


# -- literal-definition references, from full rankings -----------------------


def _prefer(profile, x, y):
    """How many voters rank x above y."""
    return sum(p.order.index(x) < p.order.index(y) for p in profile.prefs)


def _approvals(profile, x, k):
    """How many voters rank x within their first k places."""
    return sum(p.order.index(x) < k for p in profile.prefs)


def majority_levels(profile):
    """Each alternative's Bucklin score: the least k such that more than
    half of the voters rank it within their first k places, which is the
    (n//2 + 1)-th best of its ranks."""
    n = profile.n
    return [
        sorted(p.order.index(x) + 1 for p in profile.prefs)[n // 2]
        for x in range(profile.m)
    ]


def _best(scores):
    top = max(scores)
    return {x for x, s in enumerate(scores) if s == top}


def reference_winners(profile, rule):
    """The co-winners of `rule`, each straight from its definition."""
    m = profile.m
    alpha = score_vector(rule, m)
    if alpha is not None:
        return _best(_dense_scores(profile, alpha))
    others = [[y for y in range(m) if y != x] for x in range(m)]
    if rule.tag == "maximin":
        # The least number of voters that prefer x to any one rival.
        return _best([
            min((_prefer(profile, x, y) for y in others[x]), default=0)
            for x in range(m)
        ])
    if rule.tag == "copeland":
        # One point per rival beaten head to head, alpha per tie.
        a = rule.copeland_alpha
        scores = []
        for x in range(m):
            duels = [_prefer(profile, x, y) - _prefer(profile, y, x)
                     for y in others[x]]
            scores.append(sum(d > 0 for d in duels)
                          + a * sum(d == 0 for d in duels))
        return _best(scores)
    levels = majority_levels(profile)
    k = min(levels)
    leaders = [x for x in range(m) if levels[x] == k]
    if rule.tag == "sbucklin":
        return set(leaders)
    # Bucklin: among the leaders, those with the most approvals at level k.
    counts = {x: _approvals(profile, x, k) for x in leaders}
    return {x for x in leaders if counts[x] == max(counts.values())}


def reference_tally(profile, rule):
    """The summed flat tally of `rule`, from its definition: scores [y],
    level counts [k*m + y] (voters ranking y within their first k+1
    places) or margins [x*m + y]."""
    m = profile.m
    alpha = score_vector(rule, m)
    if alpha is not None:
        return _dense_scores(profile, alpha)
    if rule.tag in ("bucklin", "sbucklin"):
        return [_approvals(profile, y, k + 1)
                for k in range(m) for y in range(m)]
    return [_prefer(profile, x, y) - _prefer(profile, y, x)
            for x in range(m) for y in range(m)]


TALLY_RULES = [
    VotingRule("maximin"),
    VotingRule("bucklin"),
    VotingRule("sbucklin"),
] + [
    VotingRule("copeland", copeland_alpha=Fraction(a))
    for a in ("0", "1/3", "1/2", "1")
]


def rule_id(rule):
    if rule.tag == "copeland":
        return f"copeland-{rule.copeland_alpha}"
    return rule.tag


@pytest.mark.parametrize("rule", TALLY_RULES, ids=rule_id)
def test_winners_equal_literal_reference(rule):
    rng = random.Random(606)
    shared_levels = ties = 0
    for t in range(900):
        m = 1 + t % 6
        n = 1 + (t // 6) % 8  # odd and even electorates alike
        # A small pool of orders makes ties and shared levels common.
        pool = [rng.sample(range(m), m) for _ in range(rng.randint(3, 8))]
        profile = make_profile([rng.choice(pool) for _ in range(n)])
        want = reference_winners(profile, rule)
        assert winners(profile, rule) == want, (rule, profile)
        ties += len(want) > 1
        levels = majority_levels(profile)
        shared_levels += levels.count(min(levels)) > 1
    assert ties > 50
    assert shared_levels > 50  # ties at the winning level are covered


def _positional_rules(rng, m):
    return [
        VotingRule("plurality"), VotingRule("veto"), VotingRule("borda"),
        VotingRule("kapproval", k=rng.randint(1, m - 1)),
        VotingRule("positional", alpha=_random_alpha(rng, m)),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_is_unique_winner_equals_literal_reference(seed):
    # Every rule, every target, on random profiles and on profiles drawn
    # from one to three orders, where ties are the rule.
    rng = random.Random(609 + seed)
    alone = missed = 0
    for t in range(126):
        m = 1 + t % 7
        n = 1 + (t // 7) % 9
        if t % 2:
            pool = [rng.sample(range(m), m) for _ in range(rng.randint(1, 3))]
            orders = [rng.choice(pool) for _ in range(n)]
        else:
            orders = [rng.sample(range(m), m) for _ in range(n)]
        profile = make_profile(orders)
        rules = TALLY_RULES + (_positional_rules(rng, m) if m > 1 else [])
        for rule in rules:
            want = reference_winners(profile, rule)
            for c in range(m):
                got = is_unique_winner(profile, rule, c)
                assert got == (want == {c}), (rule, c, profile)
                alone += got
                missed += not got and c in want
    assert alone > 900
    assert missed > 600  # c among tied co-winners is covered


def test_verifier_shares_no_code_with_the_packed_tally(monkeypatch):
    # The oracle decides its leaves and bounds on packed tallies; the
    # verifier that gates each of its YES answers must use neither their
    # predicates nor their layout.
    def refuse(*args):
        raise AssertionError("the verifier used the packed tally")

    for name in ("tally", "_alone_top", "_alone_best", "ones", "_width"):
        monkeypatch.setattr(core, name, refuse)
    rng = random.Random(2502)
    alone = 0
    for t in range(210):
        m = 1 + t % 7
        n = 1 + (t // 7) % 10
        pool = [rng.sample(range(m), m) for _ in range(rng.randint(1, 4))]
        profile = make_profile([rng.choice(pool) for _ in range(n)])
        rules = TALLY_RULES + (_positional_rules(rng, m) if m > 1 else [])
        for rule in rules:
            want = reference_winners(profile, rule)
            for c in range(m):
                got = is_unique_winner(profile, rule, c)
                assert got == (want == {c}), (rule, c, profile)
                alone += got
    assert alone > 500


def test_copeland_default_tie_value_is_built_once():
    rule = VotingRule("copeland")
    assert rule.copeland_alpha is rule.copeland_alpha
    assert rule.copeland_alpha is VotingRule("copeland").copeland_alpha
    assert rule.copeland_alpha == Fraction(1, 2)


def _co_winners(rule, n, m, flat):
    """The co-winners of a summed flat tally of n voters, the way `winners`
    decides its own tally: pair rows include their diagonal."""
    if score_vector(rule, m) is not None:
        return _best(flat)
    rows = [flat[x * m:(x + 1) * m] for x in range(m)]
    if rule.tag == "maximin":
        return _best([min(row) for row in rows])
    if rule.tag == "copeland":
        a = rule.copeland_alpha
        return _best([sum(v > 0 for v in row) + a * row.count(0)
                      for row in rows])
    for row in rows:  # the first level with a strict majority
        if 2 * max(row) > n:
            if rule.tag == "bucklin":
                return _best(row)
            return {y for y, v in enumerate(row) if 2 * v > n}


def _random_flat_tally(rng, rule, n, m):
    # Few distinct values, so that ties are common, each within what n
    # voters can give.  Level counts sit around the majority and reach n at
    # the last level, as every level tally does; the margins' diagonal is 0
    # on a profile and n + 1 in the oracle's bound tables.
    alpha = score_vector(rule, m)
    if alpha is not None:
        return [min(rng.randint(0, 2), n * alpha.alpha[0]) for _ in range(m)]
    if rule.tag in ("bucklin", "sbucklin"):
        levels = [rng.choice((n // 2, n // 2 + 1, n)) for _ in range(m * m)]
        levels[-m:] = [n] * m
        return levels
    margins = [max(-n, min(n, rng.randint(-2, 2))) for _ in range(m * m)]
    margins[::m + 1] = [rng.choice((0, n + 1))] * m
    return margins


def _bias(rule, n):
    """What `tally` adds to every field: n on the pairwise margins."""
    return n if rule.tag in ("maximin", "copeland") else 0


def packed(rule, n, flat, w):
    """A flat tally in fields of width w, laid out as `tally` packs it."""
    return sum(v + _bias(rule, n) << w * i for i, v in enumerate(flat))


def unpacked(rule, bias, m, total, w):
    """The flat tally in `total`'s fields of width w, less `bias` on the
    pairwise margins."""
    count = m if score_vector(rule, m) is not None else m * m
    bias = _bias(rule, bias)
    return [(total >> w * i & (1 << w) - 1) - bias for i in range(count)]


@pytest.mark.parametrize("seed", range(3))
def test_unique_winner_predicate_on_flat_tallies(seed):
    # The oracle decides its leaves and bounds on packed tallies, with the
    # predicate that `tally` returns.
    rng = random.Random(613 + seed)
    alone = missed = 0
    for t in range(189):
        m = 1 + t % 7
        n = 1 + (t // 7) % 9
        rules = TALLY_RULES + (_positional_rules(rng, m) if m > 1 else [])
        for rule in rules:
            flat = _random_flat_tally(rng, rule, n, m)
            want = _co_winners(rule, n, m, flat)
            for c in range(m):
                w, _, decide, _ = tally(rule, n, m, c)
                got = decide(packed(rule, n, flat, w))
                assert got == (want == {c}), (rule, n, c, flat)
                alone += got
                missed += not got and c in want
    assert alone > 900
    assert missed > 2000


def _edge_rules(rng, m, w):
    """The rules at m, each with the n whose largest decided sum needs
    exactly w bits with its guard: n * alpha_1, n level counts, or 2n + 1
    on the margins."""
    top = (1 << w - 1) - 1
    for rule in TALLY_RULES:
        if rule.tag in ("bucklin", "sbucklin"):
            yield rule, top
        else:
            yield rule, (top - 1) // 2
    if m == 1:
        return
    # A vector led by 2^40 at the widest fields, with ties inside it.
    lead = 1 << 40 if w > 64 else 1 << w - 3
    alpha = (lead, *sorted(rng.choices((0, 1, lead // 2, lead), k=m - 2),
                           reverse=True), 0)
    for rule in (VotingRule("plurality"), VotingRule("borda"),
                 VotingRule("positional", alpha=ScoreVector(alpha))):
        yield rule, top // score_vector(rule, m).alpha[0]


def _edge_tally(rng, rule, n, m):
    # Fields at the extremes of what n voters can give, few values, so
    # that ties are common at every level.
    alpha = score_vector(rule, m)
    if alpha is not None:
        most = n * alpha.alpha[0]
        return [rng.choice((0, most // 2, most - 1, most, most))
                for _ in range(m)]
    if rule.tag in ("bucklin", "sbucklin"):
        half = n // 2
        levels = [rng.choice((0, half, half + 1, n)) for _ in range(m * m)]
        levels[-m:] = [n] * m
        return levels
    margins = [rng.choice((-n, 1 - n, 0, n - 1, n, n)) for _ in range(m * m)]
    margins[::m + 1] = [rng.choice((0, n + 1))] * m
    return margins


@pytest.mark.parametrize("w", [8, 16, 32, 72])
def test_predicates_at_field_width_edges(w):
    # Sums whose fields reach the largest value n voters can give, at
    # fields of 8, 16, 32 and 72 bits, for every target from the first
    # field to the last, at m = 1 to 5.
    rng = random.Random(w)
    alone = missed = 0
    for t in range(150):
        m = 1 + t % 5
        for rule, n in _edge_rules(rng, m, w):
            flat = _edge_tally(rng, rule, n, m)
            want = _co_winners(rule, n, m, flat)
            for c in range(m):
                width, _, decide, _ = tally(rule, n, m, c)
                assert width == w, (rule, n)
                got = decide(packed(rule, n, flat, w))
                assert got == (want == {c}), (rule, n, c, flat)
                alone += got
                missed += not got and c in want
    assert alone > 400
    assert missed > 400


def _margins_from_ranks(profile):
    """[x][y] = #(x above y) - #(y above x), from each voter's ranks."""
    ranks = [{a: i for i, a in enumerate(p.order)} for p in profile.prefs]
    m = profile.m
    return tuple(
        tuple(sum((r[x] < r[y]) - (r[y] < r[x]) for r in ranks)
              for y in range(m))
        for x in range(m)
    )


def test_weighted_majority_graph_equals_reference():
    rng = random.Random(607)
    for t in range(60):
        m, n = 1 + t % 6, 1 + t % 7
        profile = make_profile([rng.sample(range(m), m) for _ in range(n)])
        flat = reference_tally(profile, VotingRule("maximin"))
        wmg = weighted_majority_graph(profile)
        assert [wmg[x][y] for x in range(m) for y in range(m)] == flat
    # Tall (n = 300 at m = 5), wide (n = 3 at m = 200), and profiles that
    # repeat one preference object, alone or among a few others.
    rng = random.Random(2602)

    def draw(m):
        return Preference(tuple(rng.sample(range(m), m)))

    for m, n in [(5, 300)] * 3 + [(200, 3)] * 3 + [(60, 20), (2, 301)]:
        alternatives = AlternativeSet(tuple(f"a{i}" for i in range(m)))
        profile = Profile(alternatives, tuple(draw(m) for _ in range(n)))
        assert weighted_majority_graph(profile) == _margins_from_ranks(
            profile)
    for m, n in [(1, 4), (5, 300), (7, 6), (200, 3), (30, 41)]:
        alternatives = AlternativeSet(tuple(f"a{i}" for i in range(m)))
        pool = [draw(m) for _ in range(3)]
        for prefs in ((pool[0],) * n,
                      tuple(rng.choice(pool) for _ in range(n))):
            profile = Profile(alternatives, prefs)
            assert weighted_majority_graph(profile) == _margins_from_ranks(
                profile)


@pytest.mark.parametrize("tag", ["bucklin", "sbucklin"])
def test_level_rules_stay_sparse_on_wide_profiles(tag):
    # A dense m*m level table at m = 2,000 is 4M entries, about 32 MB of
    # pointers alone; the level rows are built one level at a time.
    m = 2000
    rng = random.Random(608)
    profile = Profile(
        AlternativeSet(tuple(f"a{i}" for i in range(m))),
        tuple(Preference(tuple(rng.sample(range(m), m))) for _ in range(3)),
    )
    want = reference_winners(profile, VotingRule(tag))
    targets = sorted(want | {0, m - 1})
    tracemalloc.start()
    try:
        won = winners(profile, VotingRule(tag))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        alone = [is_unique_winner(profile, VotingRule(tag), c)
                 for c in targets]
        _, verifier_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert won == want
    assert alone == [want == {c} for c in targets]
    assert peak < 2_000_000
    assert verifier_peak < 2_000_000


def _dense_scores(profile, alpha):
    # The reference: every position of every voter, zeros included.
    scores = [0] * profile.m
    for pref in profile.prefs:
        for pos, a in enumerate(pref.order):
            scores[a] += alpha.alpha[pos]
    return scores


def _random_alpha(rng, m):
    """A non-increasing vector with alpha_1 > alpha_m, often with a zero
    tail and sometimes with no zero at all."""
    while True:
        alpha = sorted((rng.choice([0, 0, 1, 2, 5]) for _ in range(m)),
                       reverse=True)
        if alpha[0] > alpha[-1]:
            return ScoreVector(tuple(alpha))


@pytest.mark.parametrize("seed", range(6))
def test_positional_scores_equal_dense_reference(seed):
    rng = random.Random(seed)
    for _ in range(40):
        m = rng.randint(2, 10)
        n = rng.randint(1, 8)
        profile = make_profile(
            [tuple(rng.sample(range(m), m)) for _ in range(n)]
        )
        rules = [VotingRule("plurality"), VotingRule("veto"),
                 VotingRule("borda"),
                 VotingRule("kapproval", k=rng.randint(1, m - 1)),
                 VotingRule("positional", alpha=_random_alpha(rng, m))]
        for rule in rules:
            alpha = score_vector(rule, m)
            assert positional_scores(profile, alpha) == _dense_scores(
                profile, alpha
            ), (rule, profile)


def test_alternative_index_table():
    alts = AlternativeSet(("x", "y", "z"))
    assert [alts.index(n) for n in alts.names] == [0, 1, 2]
    assert alts.lookup == {"x": 0, "y": 1, "z": 2}
    assert alts.lookup is alts.lookup  # built once
    with pytest.raises(KeyError):
        alts.index("w")
    # The cached table is not part of the value.
    assert alts == AlternativeSet(("x", "y", "z"))
    assert hash(alts) == hash(AlternativeSet(("x", "y", "z")))


@pytest.mark.parametrize("order", [(0, 0), (1, 2), ()])
def test_preference_rejects_non_permutation(order):
    with pytest.raises(ValueError):
        Preference(order)


def test_trusted_preference_equals_checked():
    for order in ((0,), (1, 0), (2, 0, 3, 1)):
        trusted, checked = Preference.trusted(order), Preference(order)
        assert trusted == checked and checked == trusted
        assert hash(trusted) == hash(checked)
        assert {trusted: 1}[checked] == 1
        assert trusted.m == len(order) and trusted.order is order
    assert Preference.trusted((1, 0)) != Preference((0, 1))


def test_score_vector():
    assert score_vector(VotingRule("plurality"), 4).alpha == (1, 0, 0, 0)
    assert score_vector(VotingRule("veto"), 4).alpha == (1, 1, 1, 0)
    assert score_vector(VotingRule("kapproval", k=2), 4).alpha == (1, 1, 0, 0)
    assert score_vector(VotingRule("borda"), 4).alpha == (3, 2, 1, 0)
    alpha = ScoreVector((3, 1, 0))
    assert score_vector(VotingRule("positional", alpha=alpha), 3) is alpha
    for tag in ("maximin", "copeland", "bucklin", "sbucklin"):
        assert score_vector(VotingRule(tag), 4) is None
        assert score_vector(VotingRule(tag), 1) is None


@pytest.mark.parametrize("tag", ["plurality", "veto", "borda"])
def test_one_alternative_is_undefined(tag):
    one = make_profile([(0,)])
    message = f"^{tag} needs at least 2 alternatives, got m=1$"
    for call in (
        lambda: score_vector(VotingRule(tag), 1),
        lambda: BriberyInstance(one, 0, (0,), (0,), 0, VotingRule(tag), "swap"),
        lambda: winners(one, VotingRule(tag)),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_weighted_majority_graph():
    wmg = weighted_majority_graph(PROFILE)
    # a vs b: voters 0,2 prefer a -> margin +1; b vs c: voters 0,1 -> +1.
    assert wmg[0][1] == 1 and wmg[1][0] == -1
    assert wmg[1][2] == 1
    assert wmg[0][2] == 1
    assert wmg[0][0] == 0


def test_maximin():
    # maximin scores: a: min(1,1)=1, b: min(-1,1)=-1, c: min(-1,-1)=-1.
    assert winners(PROFILE, VotingRule("maximin")) == {0}


def test_copeland_alpha():
    # a beats b and c, b beats c -> copeland a=2, b=1, c=0 at any alpha.
    assert winners(PROFILE, VotingRule("copeland")) == {0}
    tie_profile = make_profile([(0, 1), (1, 0)])
    # tied pair: both get alpha; winners = both for any alpha.
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(1)):
        assert winners(
            tie_profile, VotingRule("copeland", copeland_alpha=alpha)
        ) == {0, 1}


def test_sbucklin_and_bucklin():
    # n=3, strict majority = 2.  Top-1 counts: a:2 -> a reaches a strict
    # majority at level 1.
    assert majority_levels(PROFILE) == [1, 2, 2]
    assert winners(PROFILE, VotingRule("sbucklin")) == {0}
    assert winners(PROFILE, VotingRule("bucklin")) == {0}
    # Even split: no strict majority at level 1; both reach it at level 2.
    even = make_profile([(0, 1), (1, 0)])
    assert majority_levels(even) == [2, 2]
    assert winners(even, VotingRule("sbucklin")) == {0, 1}


def test_is_unique_winner():
    assert is_unique_winner(PROFILE, VotingRule("plurality"), 0)
    assert not is_unique_winner(PROFILE, VotingRule("plurality"), 1)
    assert not is_unique_winner(PROFILE, VotingRule("veto"), 0)


def test_validation_errors():
    with pytest.raises(ValueError):
        Preference((0, 0, 1))
    with pytest.raises(ValueError):
        AlternativeSet(("a", "a"))
    with pytest.raises(ValueError, match="^alternative name 'a>b' contains '>'$"):
        AlternativeSet(("a>b", "c"))
    for name in (" a", "a ", "a\t"):
        with pytest.raises(ValueError, match="leading or trailing whitespace"):
            AlternativeSet((name, "c"))
    with pytest.raises(ValueError):
        ScoreVector((1, 2))  # increasing
    with pytest.raises(ValueError):
        ScoreVector((1, 1))  # top == bottom
    with pytest.raises(ValueError):
        VotingRule("kapproval")  # missing k
    with pytest.raises(ValueError):
        VotingRule("copeland", copeland_alpha=Fraction(3, 2))
    with pytest.raises(ValueError):
        score_vector(VotingRule("kapproval", k=3), 3)
    with pytest.raises(ValueError):
        Profile(
            AlternativeSet(("a", "b")),
            (Preference((0, 1, 2)),),
        )
