"""Exhaustive solver: invariances, monotonicity, pruning, limits."""

import gc
import hashlib
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest

from localbribery.core import (
    AlternativeSet,
    Preference,
    Profile,
    ScoreVector,
    VotingRule,
    is_unique_winner,
    tally,
)
from localbribery import oracle
from localbribery.metrics import METRICS, ball
from localbribery.oracle import (
    OracleBudget,
    ResourceExceeded,
    _Search,
    solve_exhaustive,
)
from localbribery.problem import BriberyInstance, check_witness
from conftest import make_profile, random_instance
from test_core import (
    majority_levels,
    reference_tally,
    reference_winners,
    unpacked,
)

RULES = [
    VotingRule("plurality"),
    VotingRule("veto"),
    VotingRule("kapproval", k=2),
    VotingRule("borda"),
    VotingRule("maximin"),
    VotingRule("copeland"),
    VotingRule("bucklin"),
    VotingRule("sbucklin"),
]


def _sweep(rng, count, **kwargs):
    for _ in range(count):
        rule = rng.choice(RULES)
        metric = rng.choice(METRICS)
        yield random_instance(rng, rule, metric, **kwargs)


def test_yes_comes_with_verified_witness():
    rng = random.Random(101)
    yes = no = 0
    for inst in _sweep(rng, 120, m_range=(2, 4), n_range=(1, 3)):
        out = solve_exhaustive(inst)
        if out.decision:
            ok, reason, bribed, price = check_witness(inst, out.witness)
            assert ok, reason
            assert bribed == out.bribed
            assert price == out.total_price <= inst.budget
            yes += 1
        else:
            no += 1
    assert yes > 10 and no > 10


def test_zero_radius_equals_winner_check():
    rng = random.Random(5)
    for inst in _sweep(
        rng, 60, m_range=(2, 4), n_range=(1, 3), delta_choices=(0,)
    ):
        out = solve_exhaustive(inst)
        assert out.decision == is_unique_winner(
            inst.profile, inst.rule, inst.target
        )


@pytest.mark.parametrize("tag", ["maximin", "copeland", "bucklin", "sbucklin"])
def test_one_alternative_is_the_unique_winner(tag):
    # Every rival is out of the way at the last level, but with m = 1 that
    # level is also the first.
    profile = make_profile([(0,), (0,)])
    inst = BriberyInstance(
        profile, 0, (0, 0), (0, 0), 0, VotingRule(tag), "swap"
    )
    assert is_unique_winner(profile, inst.rule, 0)
    assert solve_exhaustive(inst).decision


def test_plurality_rival_out_of_reach():
    # Three voters, target c=2 unreachable: a locked at the top everywhere
    # with radius 0, so a keeps plurality score 3 and c cannot pass it.
    profile = make_profile([(0, 1, 2), (0, 2, 1), (0, 1, 2)])
    inst = BriberyInstance(
        profile, 2, (0, 0, 0), (0, 0, 0), 0, VotingRule("plurality"), "swap"
    )
    assert not solve_exhaustive(inst).decision


def test_voter_permutation_invariance():
    rng = random.Random(77)
    for inst in _sweep(rng, 60, m_range=(2, 4), n_range=(2, 4)):
        perm = list(range(inst.n))
        rng.shuffle(perm)
        shuffled = BriberyInstance(
            Profile(
                inst.profile.alternatives,
                tuple(inst.profile.prefs[i] for i in perm),
            ),
            inst.target,
            tuple(inst.deltas[i] for i in perm),
            tuple(inst.prices[i] for i in perm),
            inst.budget,
            inst.rule,
            inst.metric,
        )
        a, b = solve_exhaustive(inst), solve_exhaustive(shuffled)
        assert a.decision == b.decision
        if a.decision:
            assert a.total_price == b.total_price


def test_alternative_relabeling_invariance():
    rng = random.Random(78)
    for inst in _sweep(rng, 60, m_range=(2, 4), n_range=(1, 3)):
        if inst.rule.tag == "positional":
            continue
        m = inst.m
        sigma = list(range(m))
        rng.shuffle(sigma)
        relabeled = BriberyInstance(
            Profile(
                inst.profile.alternatives,
                tuple(
                    Preference(tuple(sigma[a] for a in p.order))
                    for p in inst.profile.prefs
                ),
            ),
            sigma[inst.target],
            inst.deltas,
            inst.prices,
            inst.budget,
            inst.rule,
            inst.metric,
        )
        a, b = solve_exhaustive(inst), solve_exhaustive(relabeled)
        assert a.decision == b.decision
        if a.decision:
            assert a.total_price == b.total_price


def test_monotone_in_delta_and_budget():
    rng = random.Random(79)
    for inst in _sweep(
        rng, 50, m_range=(2, 4), n_range=(1, 3), delta_choices=(0, 1)
    ):
        out = solve_exhaustive(inst)
        if not out.decision:
            continue
        grown = BriberyInstance(
            inst.profile,
            inst.target,
            tuple(d + 1 for d in inst.deltas),
            inst.prices,
            inst.budget + 2,
            inst.rule,
            inst.metric,
        )
        out2 = solve_exhaustive(grown)
        assert out2.decision
        assert out2.total_price <= out.total_price


def _brute_force(inst):
    """(price, orders) of the cheapest, then lexicographically smallest,
    winning profile over the whole product of balls, or None."""
    balls = [
        [(q, 0 if q == p.order else inst.prices[i])
         for q in ball(p, inst.metric, inst.deltas[i])]
        for i, p in enumerate(inst.profile.prefs)
    ]
    best = None
    for combo in itertools.product(*balls):
        price = sum(p for _, p in combo)
        if price > inst.budget:
            continue
        profile = Profile(
            inst.profile.alternatives, tuple(Preference(q) for q, _ in combo)
        )
        if is_unique_winner(profile, inst.rule, inst.target):
            key = (price, tuple(q for q, _ in combo))
            if best is None or key < best:
                best = key
    return best


# Bucklin's bound is decided by simplified Bucklin, which asks for a level
# at which the target has a strict majority and no rival has one.  That is
# exact for simplified Bucklin, but a Bucklin winner may share its level
# with a rival it out-approves, so the cut can drop a winning branch.
BUCKLIN_PRUNE_UNSOUND = pytest.mark.xfail(
    strict=True,
    reason="the level prune cuts Bucklin winners that share their level",
)


@BUCKLIN_PRUNE_UNSOUND
def test_bucklin_winner_sharing_its_level():
    # a, b, c at level 1 each once; at level 2 a has 3 approvals and b 2,
    # so a is the unique Bucklin winner although b also has a majority.
    profile = make_profile([(0, 1, 2), (1, 0, 2), (2, 0, 1)])
    inst = BriberyInstance(
        profile, 0, (0, 0, 0), (0, 0, 0), 0, VotingRule("bucklin"), "swap"
    )
    assert solve_exhaustive(inst).decision == is_unique_winner(
        profile, inst.rule, 0
    )


@pytest.mark.parametrize(
    "rule",
    [
        pytest.param(
            r,
            id=r.tag,
            marks=BUCKLIN_PRUNE_UNSOUND if r.tag == "bucklin" else (),
        )
        for r in RULES
    ],
)
def test_matches_brute_force(rule):
    rng = random.Random(80)
    for metric in METRICS:
        for _ in range(9):
            inst = random_instance(rng, rule, metric, m_range=(2, 4),
                                   n_range=(1, 4))
            out = solve_exhaustive(inst)
            got = (
                (out.total_price, tuple(p.order for p in out.witness.prefs))
                if out.decision else None
            )
            assert got == _brute_force(inst)


def test_node_limit_raises():
    profile = make_profile([tuple(range(5))] * 5)
    inst = BriberyInstance(
        profile, 4, (4,) * 5, (0,) * 5, 0, VotingRule("borda"), "swap"
    )
    with pytest.raises(ResourceExceeded):
        solve_exhaustive(
            inst, OracleBudget(max_nodes=50, max_ball=10**5, time_limit_s=60)
        )


def _long_search(tag="borda"):
    # 6,845 nodes under Borda, past the first clock check at node 4,096.
    profile = make_profile([(1, 0, 2, 3, 4), (1, 2, 0, 3, 4), (0, 1, 4, 2, 3),
                            (1, 3, 4, 2, 0), (1, 3, 4, 2, 0)])
    rule = VotingRule(tag, k=3) if tag == "kapproval" else VotingRule(tag)
    return BriberyInstance(
        profile, 2, (3, 2, 3, 3, 2), (0, 2, 0, 2, 0), 3, rule, "swap"
    )


def test_time_limit_raises_at_the_first_clock_check(monkeypatch):
    search = _Search(_long_search(), OracleBudget())
    monkeypatch.setattr(oracle.time, "monotonic", lambda: search.deadline + 1)
    with pytest.raises(ResourceExceeded) as info:
        search.run()
    assert info.value.which == "time"
    assert search.nodes == 4096


def test_time_limit_raises_while_setting_up(monkeypatch):
    # The clock is read once per voter while the balls are relabeled, so a
    # search whose set-up outlasts the limit stops before its first node.
    clock = iter([0.0])
    monkeypatch.setattr(oracle.time, "monotonic",
                        lambda: next(clock, math.inf))
    with pytest.raises(ResourceExceeded) as info:
        _Search(_long_search(), OracleBudget(time_limit_s=1))
    assert info.value.which == "time"


@pytest.mark.parametrize("max_nodes", [10**6, 50], ids=["done", "stopped"])
@pytest.mark.parametrize("tag", ["borda", "kapproval", "maximin", "copeland",
                                 "bucklin", "sbucklin"])
def test_search_is_freed_without_the_cyclic_collector(tag, max_nodes):
    # The search keeps closures over plain values, never its own bound
    # methods, so dropping the last reference frees it at once.
    gc.disable()
    try:
        search = _Search(_long_search(tag), OracleBudget(max_nodes=max_nodes))
        freed = weakref.ref(search)
        try:
            search.run()
            stopped = False
        except ResourceExceeded:
            stopped = True
        assert stopped == (max_nodes == 50)
        del search
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("rule", [VotingRule("borda"), VotingRule("maximin")],
                         ids=lambda r: r.tag)
def test_footrule_radii_of_one_ball_share_a_shape(rule, monkeypatch):
    # Footrule distances are even, so radii 2 and 3 give one ball and the
    # search must enumerate it once; the answer is the brute force's.
    calls = []
    real_shape = oracle._shape

    def counting_shape(*args):
        calls.append(args)
        return real_shape(*args)

    monkeypatch.setattr(oracle, "_shape", counting_shape)
    rng = random.Random(23)
    for t in range(12):
        m, n = rng.randint(3, 4), rng.randint(2, 3)
        profile = make_profile([rng.sample(range(m), m) for _ in range(n)])
        deltas = (2, 3) + tuple(rng.choice((2, 3)) for _ in range(n - 2))
        prices = tuple(rng.choice((0, 1, 2)) for _ in range(n))
        inst = BriberyInstance(
            profile, rng.randrange(m), deltas, prices, rng.randint(0, 3),
            rule, "footrule",
        )
        calls.clear()
        out = solve_exhaustive(inst)
        assert len(calls) == 1
        got = (
            (out.total_price, tuple(p.order for p in out.witness.prefs))
            if out.decision else None
        )
        assert got == _brute_force(inst)


def test_ball_limit_raises():
    profile = make_profile([tuple(range(6))])
    inst = BriberyInstance(
        profile, 5, (15,), (0,), 0, VotingRule("borda"), "swap"
    )
    with pytest.raises(Exception):
        solve_exhaustive(
            inst, OracleBudget(max_nodes=10**6, max_ball=10, time_limit_s=60)
        )


def test_budget_validation():
    with pytest.raises(ValueError):
        OracleBudget(max_nodes=0)
    # A NaN limit compares false against everything, so it would never fire.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            OracleBudget(time_limit_s=bad)
        with pytest.raises(ValueError):
            OracleBudget(max_nodes=bad)


def _brute_force_bound(inst):
    # The bound table straight from its definition: per voter, the greatest
    # tally any member of its ball gives in the target's slots and the least
    # any gives everywhere else, summed over voters i..  The margins'
    # diagonal holds n + 1.
    n, m, c, rule = inst.n, inst.m, inst.target, inst.rule
    if rule.tag in ("bucklin", "sbucklin"):
        own = {k * m + c for k in range(m)}
    elif rule.tag in ("maximin", "copeland"):
        own = {c * m + y for y in range(m)}
    else:
        own = {c}
    table = [[0] * (m if own == {c} else m * m)]
    for i in range(n - 1, -1, -1):
        members = ball(inst.profile.prefs[i], inst.metric, inst.deltas[i])
        tallies = [reference_tally(make_profile([q]), rule)
                   for q in members]
        best = [max(slot) if s in own else min(slot)
                for s, slot in enumerate(zip(*tallies))]
        table.insert(0, [a + b for a, b in zip(best, table[0])])
    if rule.tag in ("maximin", "copeland"):
        for t in table:
            for x in range(m):
                t[x * m + x] = n + 1
    return table


def test_bound_tables_match_brute_force():
    rng = random.Random(303)
    rules = [
        VotingRule("positional", alpha=ScoreVector((5, 3, 3, 1, 0))),
        VotingRule("borda"),
        VotingRule("kapproval", k=2),
        VotingRule("bucklin"),
        VotingRule("sbucklin"),
        VotingRule("maximin"),
    ] + [
        VotingRule("copeland", copeland_alpha=Fraction(a))
        for a in ("0", "1/3", "1/2", "1")
    ]
    for rule in rules:
        for metric in METRICS:
            for _ in range(6):
                inst = random_instance(
                    rng, rule, metric, m_range=(3, 6), n_range=(1, 5),
                    delta_choices=(0, 1, 2, 3, 5),
                )
                search = _Search(inst, OracleBudget())
                # Table i carries the bias of the n - i voters it sums.
                n, m = inst.n, inst.m
                w = tally(rule, n, m, inst.target)[0]
                assert [
                    unpacked(rule, n - i, m, table, w)
                    for i, table in enumerate(search.bound)
                ] == _brute_force_bound(inst)


@pytest.mark.parametrize("tag", ["maximin", "copeland"])
def test_pair_bound_cuts_a_certain_tie(tag):
    # Two fixed voters who disagree: a and b tie at every leaf, so the
    # target a cannot win, and the bound must see that at the root, where
    # the rival's least score equals the target's greatest.
    profile = make_profile([(0, 1), (1, 0)])
    inst = BriberyInstance(
        profile, 0, (0, 0), (0, 0), 0, VotingRule(tag), "swap"
    )
    search = _Search(inst, OracleBudget())
    assert not search.run().decision
    assert search.nodes == 1


LEAF_RULES = RULES + [
    VotingRule("positional", alpha=ScoreVector((4, 2, 2, 1, 0))),
    VotingRule("copeland", copeland_alpha=Fraction(0)),
    VotingRule("copeland", copeland_alpha=Fraction(1, 3)),
    VotingRule("copeland", copeland_alpha=Fraction(1)),
]


@pytest.mark.parametrize(
    "rule",
    LEAF_RULES,
    ids=lambda r: (
        f"copeland-{r.copeland_alpha}" if r.tag == "copeland" else r.tag
    ),
)
def test_carried_leaf_decision_equals_winner(rule):
    # The leaf decides on the sum of the chosen orders' contributions, never
    # on a profile.  Both the sum and the decision are checked against the
    # literal definitions of tests/test_core.py.
    rng = random.Random(404)
    wins = shared_levels = 0
    for t in range(400):
        if rule.alpha:
            m = len(rule.alpha.alpha)
        else:
            m = rng.randint(rule.k or 1, 4) + 1
        n = 1 + t % 8  # odd and even electorates alike
        profile = make_profile(
            [rng.sample(range(m), m) for _ in range(n)]
        )
        want = reference_winners(profile, rule)
        for c in range(m):
            inst = BriberyInstance(
                profile, c, (0,) * n, (0,) * n, 0, rule, "swap"
            )
            search = _Search(inst, OracleBudget())
            state = 0
            for p in profile.prefs:
                state += search.contribution(p.order)
            w = tally(rule, n, m, c)[0]
            assert unpacked(rule, n, m, state, w) == reference_tally(
                profile, rule
            )
            assert search.alone(state) == (want == {c})
            wins += want == {c}
        levels = majority_levels(profile)
        shared_levels += levels.count(min(levels)) > 1
    assert wins > 50
    if rule.tag in ("bucklin", "sbucklin"):
        assert shared_levels > 50  # ties at the winning level are covered


# Every rule but Bucklin, whose level prune is known to cut winning
# branches (BUCKLIN_PRUNE_UNSOUND above), so its outcomes are due to change
# when the prune is made sound.
DIGEST_RULES = [
    VotingRule("plurality"),
    VotingRule("veto"),
    VotingRule("kapproval", k=2),
    VotingRule("borda"),
    VotingRule("maximin"),
    VotingRule("sbucklin"),
    VotingRule("positional", alpha=ScoreVector((5, 3, 3, 1, 0))),
] + [
    VotingRule("copeland", copeland_alpha=Fraction(a))
    for a in ("0", "1/3", "1/2", "1")
]
# sha256 of the (decision, cost, witness orders) lines of the searches
# below.  It was recorded with the oracle's own leaf deciders, before the
# leaves shared core's tally, so it does not come from the code it checks.
ORACLE_DIGEST = (
    "c3b33bf281f329b20a618458352897a5212eea39a7e9f0a188275d3b395fad9a"
)


def test_oracle_outcomes_match_golden_digest():
    rng = random.Random(505)
    digest = hashlib.sha256()
    searches = yes = 0
    for rule in DIGEST_RULES:
        for metric in METRICS:
            for _ in range(9):
                inst = random_instance(
                    rng, rule, metric, m_range=(3, 6), n_range=(2, 5),
                    delta_choices=(0, 1, 2, 3),
                )
                out = solve_exhaustive(inst)
                orders = (
                    tuple(p.order for p in out.witness.prefs)
                    if out.decision else None
                )
                line = repr((out.decision, out.total_price, orders))
                digest.update(line.encode() + b"\n")
                searches += 1
                yes += out.decision
    assert searches == 297 and yes > 100
    assert digest.hexdigest() == ORACLE_DIGEST


NODE_DIGEST_RULES = DIGEST_RULES + [VotingRule("bucklin")]
# sha256 of the (decision, cost, nodes) lines of the searches below; a
# search that reaches the node limit gives (None, None, nodes).  It was
# recorded before the bound tables were merged into one, so it does not
# come from the code it checks.  A sound Bucklin prune (ROADMAP item 3) is
# expected to change the Bucklin lines only.
NODE_DIGEST = (
    "add8fb59ffe5f6c5199ad18966e130bdf0a7e7948c0bd4dcf0b4cb5ca7db6ad7"
)


def test_oracle_node_counts_match_golden_digest():
    rng = random.Random(1414)
    digest = hashlib.sha256()
    searches = limited = yes = 0
    for rule in NODE_DIGEST_RULES:
        for metric in METRICS:
            for _ in range(8):
                inst = random_instance(
                    rng, rule, metric, m_range=(3, 6), n_range=(2, 6),
                    delta_choices=(0, 1, 2, 3, 4),
                )
                search = _Search(inst, OracleBudget(max_nodes=2000))
                try:
                    out = search.run()
                    line = (out.decision, out.total_price, search.nodes)
                    yes += out.decision
                except ResourceExceeded:
                    line = (None, None, search.nodes)
                    limited += 1
                digest.update(repr(line).encode() + b"\n")
                searches += 1
    assert searches == 288 and limited > 0 and yes > 100
    assert digest.hexdigest() == NODE_DIGEST


def _wide_vector(rng, m, top):
    while True:
        alpha = sorted((rng.choice([0, rng.randrange(top)]) for _ in range(m)),
                       reverse=True)
        if alpha[0] > alpha[-1]:
            return ScoreVector(tuple(alpha))


# sha256 of the (decision, cost, witness orders, nodes, final cap) lines of
# the searches below, at n = 40-300: the packed tallies' fields are 7-11
# bits wide on the level, pair and Borda rules, 18-21 on the first
# positional vector and 33-36 on the second.  A search that reaches the
# node limit gives (None, None, None, nodes, cap).  Recorded before the
# tallies were packed into integers, so it does not come from the code it
# checks.
WIDE_DIGEST = (
    "b9a0e94486215c83ed4a3717fdc26d7f74b8555000611da6cea2c02dcf4b5555"
)


def test_wide_tally_searches_match_golden_digest():
    rng = random.Random(2425)
    rules = [VotingRule("maximin")] + [
        VotingRule("copeland", copeland_alpha=Fraction(a))
        for a in ("0", "1/3", "1/2", "1")
    ] + [VotingRule("bucklin"), VotingRule("sbucklin"), VotingRule("borda")]
    rules += [
        VotingRule("positional", alpha=_wide_vector(rng, 4, 1 << 12)),
        VotingRule("positional", alpha=_wide_vector(rng, 5, 1 << 26)),
    ]
    digest = hashlib.sha256()
    outcomes = []
    for rule in rules:
        for metric in METRICS:
            for t in range(4):
                inst = random_instance(
                    rng, rule, metric, m_range=(3, 5), n_range=(40, 300),
                    delta_choices=(0, 1, 2), budget_range=(0, 8),
                    unpriced_uniform=t % 2 == 0,
                )
                search = _Search(inst, OracleBudget(max_nodes=3000))
                try:
                    out = search.run()
                    orders = (
                        tuple(p.order for p in out.witness.prefs)
                        if out.decision else None
                    )
                    line = (out.decision, out.total_price, orders)
                except ResourceExceeded:
                    line = (None, None, None)
                line += (search.nodes, search.cap)
                digest.update(repr(line).encode() + b"\n")
                outcomes.append(line[0])
    assert len(outcomes) == 120
    assert outcomes.count(True) > 30 and outcomes.count(False) > 15
    assert outcomes.count(None) > 30
    assert digest.hexdigest() == WIDE_DIGEST

def test_cheapest_witness_minimal():
    # Bribing the second voter (price 1) suffices; voter 0 costs 5.
    profile = make_profile([(1, 0, 2), (1, 0, 2), (0, 1, 2)])
    inst = BriberyInstance(
        profile, 0, (2, 2, 0), (5, 1, 0), 10, VotingRule("plurality"), "swap"
    )
    out = solve_exhaustive(inst)
    assert out.decision
    assert out.total_price == 1
    assert out.bribed == frozenset({1})
