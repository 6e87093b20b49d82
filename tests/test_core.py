"""Winner determination for all eight rules on hand-computed profiles."""

import random
from fractions import Fraction

import pytest

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
    sbucklin_scores,
    score_vector,
    weighted_majority_graph,
    winners,
)
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
        lambda: VotingRule(tag).validate_for(1),
        lambda: winners(one, VotingRule(tag)),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_weighted_majority_graph():
    wmg = weighted_majority_graph(PROFILE)
    # a vs b: voters 0,2 prefer a -> margin +1; b vs c: voters 0,1 -> +1.
    assert wmg[(0, 1)] == 1 and wmg[(1, 0)] == -1
    assert wmg[(1, 2)] == 1
    assert wmg[(0, 2)] == 1
    assert wmg[(0, 0)] == 0


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
    assert sbucklin_scores(PROFILE) == [1, 2, 2]
    assert winners(PROFILE, VotingRule("sbucklin")) == {0}
    assert winners(PROFILE, VotingRule("bucklin")) == {0}
    # Even split: no strict majority at level 1; both reach it at level 2.
    even = make_profile([(0, 1), (1, 0)])
    assert sbucklin_scores(even) == [2, 2]
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
        VotingRule("kapproval", k=3).validate_for(3)
    with pytest.raises(ValueError):
        Profile(
            AlternativeSet(("a", "b")),
            (Preference((0, 1, 2)),),
        )
