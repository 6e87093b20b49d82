"""The witness verifier on profiles whose voters share preference objects,
against a per-voter reference."""

import random

import pytest

from localbribery.core import (
    AlternativeSet,
    Preference,
    Profile,
    VotingRule,
    is_unique_winner,
    winners,
)
from localbribery.metrics import FOOTRULE, MAXDISP, SWAP, distance
from localbribery.problem import (
    NOT_UNIQUE_WINNER,
    BriberyInstance,
    check_witness,
)

M = 6
N = 240
BORDA_RULE = VotingRule("borda")


def reference_check(instance, witness):
    """`check_witness` as its definition reads: one distance per changed
    voter, voters in the order the bribed set iterates."""
    if witness.n != instance.n or witness.m != instance.m:
        return False, "witness has the wrong shape", frozenset(), 0
    before, after = instance.profile.prefs, witness.prefs
    bribed = frozenset(i for i in range(instance.n) if after[i] != before[i])
    for i in bribed:
        d = distance(instance.metric, before[i], after[i])
        if d > instance.deltas[i]:
            return (
                False,
                f"voter {i} moved distance {d} > delta {instance.deltas[i]}",
                bribed,
                0,
            )
    price = sum(instance.prices[i] for i in bribed)
    if price > instance.budget:
        return (
            False,
            f"price {price} exceeds budget {instance.budget}",
            bribed,
            price,
        )
    if not is_unique_winner(witness, instance.rule, instance.target):
        return False, NOT_UNIQUE_WINNER, bribed, price
    return True, "", bribed, price


def _swapped(order, pos):
    o = list(order)
    o[pos], o[pos + 1] = o[pos + 1], o[pos]
    return tuple(o)


def shared_case(metric: str, seed: int, far: bool, budget_short: bool,
                wrong_target: bool):
    """An instance and witness over N voters that share four original
    objects and, per original, three moved objects (one or two adjacent
    swaps away).  Some voters keep their object, some get an equal copy
    (not bribed), and, with `far`, one voter is reversed: at most 21
    objects in all.  Each voter's radius is its moved pair's distance,
    except that with `far` a few voters sharing a pair get one less, so
    that a shared distance must be held against each voter's own radius.
    The target is the witness's least winner, or with `wrong_target` an
    alternative that does not win."""
    rng = random.Random(f"{metric}:{seed}")
    alts = AlternativeSet(tuple("abcdef"))
    originals = []
    for _ in range(4):
        order = list(range(M))
        rng.shuffle(order)
        originals.append(Preference(tuple(order)))
    moved = {
        id(p): [
            Preference(_swapped(p.order, 0)),
            Preference(_swapped(p.order, 3)),
            Preference(_swapped(_swapped(p.order, 1), 3)),
        ]
        for p in originals
    }
    copies = {id(p): Preference(tuple(p.order)) for p in originals}
    before, after, deltas = [], [], []
    tight = set(rng.sample(range(N), 3))
    for i in range(N):
        p = rng.choice(originals)
        kind = rng.random()
        if kind < 0.2:
            q = p
        elif kind < 0.3:
            q = copies[id(p)]  # equal, a different object
        else:
            q = rng.choice(moved[id(p)])
        d = distance(metric, p, q)
        before.append(p)
        after.append(q)
        deltas.append(max(d - 1, 0) if i in tight and d else d)
    far_voter = rng.randrange(N)
    if far:
        after[far_voter] = Preference(tuple(reversed(before[far_voter].order)))
    else:
        for i in tight:  # every shared pair within every voter's radius
            deltas[i] = distance(metric, before[i], after[i])
    prices = [rng.randint(0, 2) for _ in range(N)]
    witness = Profile(alts, tuple(after))
    bribed_price = sum(
        prices[i] for i in range(N) if after[i] != before[i]
    )
    won = winners(witness, BORDA_RULE)
    target = min(won)
    if wrong_target:
        target = next(a for a in range(M) if a not in won)
    instance = BriberyInstance(
        Profile(alts, tuple(before)),
        target=target,
        deltas=tuple(deltas),
        prices=tuple(prices),
        budget=bribed_price - 1 if budget_short else bribed_price,
        rule=BORDA_RULE,
        metric=metric,
    )
    return instance, witness


CASES = {
    "far-voter": dict(far=True, budget_short=False, wrong_target=False),
    "over-budget": dict(far=False, budget_short=True, wrong_target=False),
    "winner-fails": dict(far=False, budget_short=False, wrong_target=True),
    "passes": dict(far=False, budget_short=False, wrong_target=False),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("metric", [SWAP, FOOTRULE, MAXDISP])
def test_check_witness_matches_per_voter_reference(metric, case):
    reasons = set()
    for seed in range(12):
        instance, witness = shared_case(metric, seed, **CASES[case])
        got = check_witness(instance, witness)
        assert got == reference_check(instance, witness)
        assert len(set(map(id, witness.prefs))) <= 21 < len(got[2])
        reasons.add(got[1].split()[0] if got[1] else "")
    assert reasons == {
        "far-voter": {"voter"},
        "over-budget": {"price"},
        "winner-fails": {"target"},
        "passes": {""},
    }[case]
