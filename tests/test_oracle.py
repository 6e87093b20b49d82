"""Exhaustive solver: invariances, monotonicity, pruning, limits."""

import random

import pytest

from localbribery.core import (
    AlternativeSet,
    Preference,
    Profile,
    ScoreVector,
    VotingRule,
    is_unique_winner,
)
from localbribery.metrics import METRICS
from localbribery.oracle import (
    OracleBudget,
    ResourceExceeded,
    _Search,
    solve_exhaustive,
)
from localbribery.problem import BriberyInstance, check_witness
from conftest import make_profile, random_instance

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


def test_pruning_on_off_agree():
    rng = random.Random(80)
    for inst in _sweep(rng, 200, m_range=(2, 4), n_range=(1, 4)):
        a = solve_exhaustive(inst, use_pruning=True)
        b = solve_exhaustive(inst, use_pruning=False)
        assert a.decision == b.decision
        if a.decision:
            assert a.total_price == b.total_price
            assert a.witness == b.witness  # canonical lexicographic witness


def test_node_limit_raises():
    profile = make_profile([tuple(range(5))] * 5)
    inst = BriberyInstance(
        profile, 4, (4,) * 5, (0,) * 5, 0, VotingRule("borda"), "swap"
    )
    with pytest.raises(ResourceExceeded):
        solve_exhaustive(
            inst, OracleBudget(max_nodes=50, max_ball=10**5, time_limit_s=60)
        )


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


def _brute_force_tables(search):
    # The bound tables straight from their definitions: per voter, the best
    # the target and the worst each alternative can do over the whole ball.
    n, m, c = search.n, search.m, search.c
    balls = [[q for q, _ in opts] for opts in search.options]
    tables = {}
    if search.alpha is not None:
        a = search.alpha.alpha
        cmax = [0] * (n + 1)
        rmin = [[0] * m for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            cmax[i] = cmax[i + 1] + max(a[q.position(c) - 1] for q in balls[i])
            for y in range(m):
                rmin[i][y] = rmin[i + 1][y] + min(
                    a[q.position(y) - 1] for q in balls[i]
                )
        tables["cmax_suffix"], tables["rmin_suffix"] = cmax, rmin
    if search.level_rule:
        lvl_cmax = [[0] * m for _ in range(n + 1)]
        lvl_rmin = [[[0] * m for _ in range(m)] for _ in range(n + 1)]
        for i in range(n - 1, -1, -1):
            for k in range(1, m + 1):
                lvl_cmax[i][k - 1] = lvl_cmax[i + 1][k - 1] + max(
                    int(q.position(c) <= k) for q in balls[i]
                )
                for y in range(m):
                    lvl_rmin[i][k - 1][y] = lvl_rmin[i + 1][k - 1][y] + min(
                        int(q.position(y) <= k) for q in balls[i]
                    )
        tables["lvl_cmax"], tables["lvl_rmin"] = lvl_cmax, lvl_rmin
    return tables


def test_bound_tables_match_brute_force():
    rng = random.Random(303)
    rules = [
        VotingRule("positional", alpha=ScoreVector((5, 3, 3, 1, 0))),
        VotingRule("borda"),
        VotingRule("kapproval", k=2),
        VotingRule("bucklin"),
        VotingRule("sbucklin"),
    ]
    for rule in rules:
        for metric in METRICS:
            for _ in range(6):
                inst = random_instance(
                    rng, rule, metric, m_range=(3, 6), n_range=(1, 5),
                    delta_choices=(0, 1, 2, 3, 5),
                )
                search = _Search(inst, OracleBudget(), prune=True)
                want = _brute_force_tables(search)
                assert want  # every rule here has at least one table
                for name, table in want.items():
                    assert getattr(search, name) == table, name


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
