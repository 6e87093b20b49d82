"""The witness verifier on profiles whose voters share preference objects,
against a per-voter reference."""

import hashlib
import random
from fractions import Fraction

import pytest

from localbribery.core import (
    AlternativeSet,
    Preference,
    Profile,
    VotingRule,
    is_unique_winner,
    winners,
)
from localbribery.metrics import (
    FOOTRULE,
    MAXDISP,
    METRICS,
    SWAP,
    ball,
    distance,
)
from localbribery.oracle import OracleBudget, ResourceExceeded, solve_exhaustive
from localbribery.problem import (
    NOT_UNIQUE_WINNER,
    BriberyInstance,
    check_witness,
)
from test_core import _random_alpha

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


def _verifier_rules(rng, m):
    """Every rule defined at m: the pair and level rules at every m, the
    positional ones, with a random vector, from m = 2."""
    rules = [VotingRule("maximin"), VotingRule("bucklin"),
             VotingRule("sbucklin")] + [
        VotingRule("copeland", copeland_alpha=Fraction(a))
        for a in ("0", "1/3", "1/2", "1")
    ]
    if m > 1:
        rules += [
            VotingRule("plurality"), VotingRule("veto"), VotingRule("borda"),
            VotingRule("kapproval", k=rng.randint(1, m - 1)),
            VotingRule("positional", alpha=_random_alpha(rng, m)),
        ]
    return rules


def _verifier_cases(rng, inst):
    """(label, instance, witness) triples on one instance: the unbribed
    profile, the oracle's optimal witness, every voter moved within its
    ball (over budget when that costs anything, and within budget for
    every target, so that the winner condition decides), and one voter
    moved one swap past its radius."""
    prefs, alts = inst.profile.prefs, inst.profile.alternatives
    yield "unbribed", inst, inst.profile
    try:
        out = solve_exhaustive(inst, OracleBudget(max_nodes=20_000))
    except ResourceExceeded:
        out = None
    if out is not None and out.decision:
        yield "optimal", inst, out.witness
    moved = tuple(
        Preference(rng.choice(ball(p, inst.metric, d)))
        for p, d in zip(prefs, inst.deltas)
    )
    witness = Profile(alts, moved)
    price = sum(x for p, q, x in zip(prefs, moved, inst.prices) if p != q)
    fields = [inst.profile, inst.target, inst.deltas, inst.prices, price,
              inst.rule, inst.metric]
    if price:
        fields[4] = price - 1
        yield "over-budget", BriberyInstance(*fields), witness
        fields[4] = price
    for c in range(inst.m):
        fields[1] = c
        yield "in-ball", BriberyInstance(*fields), witness
    i = rng.randrange(inst.n)
    far = Preference(tuple(reversed(prefs[i].order)))
    d = distance(inst.metric, prefs[i], far)
    if d:
        deltas = list(inst.deltas)
        deltas[i] = d - 1
        fields[1:4] = inst.target, tuple(deltas), inst.prices
        fields[4] = inst.budget + inst.prices[i]
        yield "far", BriberyInstance(*fields), Profile(
            alts, prefs[:i] + (far,) + prefs[i + 1:]
        )


# sha256 of the (label, ok, reason, bribed voters, price) lines of
# `check_witness` on the cases below.  Recorded while the verifier decided
# the winner condition with the oracle's packed-tally predicates, so a
# verifier that decides it some other way must agree with them.
VERIFIER_DIGEST = (
    "aca0f73a692fa6870c308e7fbe515ae7b98b9e017e306f13a691b78ebaa27370"
)


def test_check_witness_matches_golden_digest():
    rng = random.Random(2501)
    digest = hashlib.sha256()
    reasons: dict[str, int] = {}
    optimal = 0
    for t in range(42):
        m = 1 + t % 7
        for rule in _verifier_rules(rng, m):
            metric = rng.choice(METRICS)
            n = rng.randint(1, 5)
            orders = [tuple(rng.sample(range(m), m)) for _ in range(n)]
            inst = BriberyInstance(
                Profile(AlternativeSet(tuple("abcdefg"[:m])),
                        tuple(map(Preference, orders))),
                rng.randrange(m),
                tuple(rng.choice((0, 1, 2, 3)) for _ in range(n)),
                tuple(rng.choice((0, 1, 2)) for _ in range(n)),
                rng.randint(0, 3), rule, metric,
            )
            for label, case, witness in _verifier_cases(rng, inst):
                ok, reason, bribed, price = check_witness(case, witness)
                line = (label, ok, reason, tuple(sorted(bribed)), price)
                digest.update(repr(line).encode() + b"\n")
                kind = "ok" if ok else reason.split()[0]
                reasons[kind] = reasons.get(kind, 0) + 1
                optimal += label == "optimal"
    assert optimal > 200
    assert reasons == {"ok": 708, "price": 298, "target": 1980, "voter": 432}
    assert digest.hexdigest() == VERIFIER_DIGEST
