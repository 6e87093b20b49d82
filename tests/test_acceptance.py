"""Acceptance suite: eleven criteria, one test (and one pass/fail line in
`pytest -v`) each.

Criteria 1-4 are solver-vs-exhaustive equivalence sweeps; 5-6 are metric
facts; 7 exercises the margin realizer; 8-9 pin the gadget score patterns
and forward soundness; 10 is the solver routing table; 11 is round-trip
and byte-level determinism.  The one deliberately non-reproducible piece
is the backward direction of the gadget reductions (unsatisfiable input
implies a NO instance): those instances are far beyond exhaustive-search
capacity, so criteria 8-9 stand in for it.
"""

import random
from itertools import permutations

import pytest

from localbribery.core import (
    Preference,
    VotingRule,
    approval_vector,
    borda_vector,
    positional_scores,
)
from localbribery.gadgets import satisfying_assignments, witness_from_assignment
from localbribery.ioformat import parse_instance, render_instance
from localbribery.metrics import (
    FOOTRULE,
    MAXDISP,
    METRICS,
    SWAP,
    ball,
    distance,
    footrule_distance,
    swap_distance,
)
from localbribery.oracle import solve_exhaustive
from localbribery.problem import check_witness
from localbribery.solvers import (
    solve_kapproval_maxdisp,
    solve_kapproval_small_radius,
    solve_plurality,
    solve_sbucklin_maxdisp,
    solve_sbucklin_small_radius,
    solve_veto,
    top_window,
)
from localbribery.cli import route_poly_solver
from conftest import FROZEN_SAT, random_instance
from test_gadgets import check_realization, random_target


def _assert_matches_oracle(solver, inst):
    got = solver(inst)
    want = solve_exhaustive(inst)
    assert got.decision == want.decision, render_instance(inst)
    if got.decision:
        assert got.total_price == want.total_price, render_instance(inst)
        ok, reason, _, _ = check_witness(inst, got.witness)
        assert ok, reason


def test_criterion_01_plurality_veto_match_exhaustive():
    rng = random.Random(1001)
    for seed in range(500):
        metric = METRICS[seed % 3]
        for rule, solver in (
            (VotingRule("plurality"), solve_plurality),
            (VotingRule("veto"), solve_veto),
        ):
            inst = random_instance(
                rng, rule, metric,
                m_range=(3, 5), n_range=(2, 5),
                delta_choices=(0, 1, 2), price_choices=(0, 1, 2),
                budget_range=(0, 3),
            )
            _assert_matches_oracle(solver, inst)


def test_criterion_02_kapproval_small_radius_matches_exhaustive():
    rng = random.Random(1002)
    for seed in range(500):
        k = 2 + seed % 2
        metric = METRICS[seed % 3]
        deltas = (1,) if metric in (SWAP, MAXDISP) else (2, 3)
        inst = random_instance(
            rng, VotingRule("kapproval", k=k), metric,
            m_range=(3, 5), n_range=(2, 5),
            delta_choices=deltas, price_choices=(0, 1, 2),
            budget_range=(0, 3),
        )
        _assert_matches_oracle(solve_kapproval_small_radius, inst)


def test_criterion_03_kapproval_maxdisp_uniform_matches_exhaustive():
    rng = random.Random(1003)
    for seed in range(300):
        inst = random_instance(
            rng, VotingRule("kapproval", k=2 + seed % 2), MAXDISP,
            m_range=(3, 5), n_range=(2, 5),
            delta_choices=(1, 2, 3), unpriced_uniform=True,
        )
        _assert_matches_oracle(solve_kapproval_maxdisp, inst)


def test_criterion_04_sbucklin_solvers_match_exhaustive():
    rng = random.Random(1004)
    rule = VotingRule("sbucklin")
    for seed in range(300):
        metric = METRICS[seed % 3]
        deltas = (1,) if metric in (SWAP, MAXDISP) else (2, 3)
        inst = random_instance(
            rng, rule, metric,
            m_range=(3, 5), n_range=(2, 5),
            delta_choices=deltas, price_choices=(0, 1, 2),
            budget_range=(0, 3),
        )
        _assert_matches_oracle(solve_sbucklin_small_radius, inst)
    for seed in range(300):
        inst = random_instance(
            rng, rule, MAXDISP,
            m_range=(3, 5), n_range=(2, 5),
            delta_choices=(1, 2, 3), unpriced_uniform=True,
        )
        _assert_matches_oracle(solve_sbucklin_maxdisp, inst)


def test_criterion_05_metric_suite():
    for m in (2, 3, 4, 5):
        prefs = [Preference(p) for p in permutations(range(m))]
        for p in prefs:
            for q in prefs:
                s = swap_distance(p, q)
                f = footrule_distance(p, q)
                assert s == swap_distance(q, p)
                assert f == footrule_distance(q, p)
                assert (s == 0) == (p == q) and (f == 0) == (p == q)
                assert f % 2 == 0
                assert s <= f <= 2 * s  # the well-known sandwich
    # ball/window equivalence: the top-window positions are exactly the
    # alternatives some ball member puts first.
    for metric in METRICS:
        for m in (3, 4, 5):
            prefs = [Preference(p) for p in permutations(range(m))][:24]
            for start in prefs:
                for radius in range(0, 5):
                    reachable = {
                        q.order[0] for q in ball(start, metric, radius)
                    }
                    assert reachable == set(
                        start.order[: top_window(radius, metric)]
                    )
                    assert len(reachable) == min(
                        m, top_window(radius, metric)
                    )


def test_criterion_06_footrule3_equals_swap1_m_up_to_6():
    for m in (2, 3, 4, 5, 6):
        prefs = [Preference(p) for p in permutations(range(m))]
        for p in prefs:
            for q in prefs:
                in_foot3 = footrule_distance(p, q) <= 3
                in_swap1 = swap_distance(p, q) <= 1
                assert in_foot3 == in_swap1, (p.order, q.order)


def test_criterion_07_realize_wmg_100_targets():
    rng = random.Random(1007)
    for _ in range(100):
        check_realization(random_target(rng, max_margin=6, spacing=4))


def test_criterion_08_gadget_score_tables(
    gadget_kapp_swap, gadget_kapp_maxdisp, gadget_borda_maxdisp
):
    # --- 2-approval swap gadget: post-bribery score pattern, exactly.
    g = gadget_kapp_swap
    pad = g.padding
    symbols = dict(g.name_map)
    w = witness_from_assignment(g, (1, 1, 1))
    scores = positional_scores(w.profile, approval_vector(g.instance.m, 2))
    assert scores[symbols["c"]] == pad + 3
    assert scores[symbols["u"]] == pad + 2
    n, m = g.sat.num_vars, g.sat.num_clauses
    assert all(scores[symbols[f"w{i}"]] == pad + 2 for i in range(1, n + 1))
    assert all(scores[symbols[f"y{j}"]] == pad + 2 for j in range(1, m + 1))
    assert all(scores[symbols[f"z{i}"]] < pad for i in range(1, n + 1))
    assert all(scores[symbols[f"d{j}"]] < pad for j in range(1, m + 1))
    assert all(scores[symbols[f"d'{j}"]] < pad for j in range(1, m + 1))

    # --- priced k-approval max-displacement gadget.
    g = gadget_kapp_maxdisp
    symbols = dict(g.name_map)
    n, m = g.sat.num_vars, g.sat.num_clauses
    w = witness_from_assignment(g, (1, 1, 1))
    ok, reason, bribed, price = check_witness(g.instance, w.profile)
    assert ok, reason
    assert price == m + n == g.instance.budget
    scores = positional_scores(w.profile, approval_vector(g.instance.m, 2))
    assert scores[symbols["c"]] == 10
    for i in range(1, n + 1):
        assert scores[symbols[f"w{i}"]] == 9
        assert scores[symbols[f"w'{i}"]] == 9
    for j in range(1, m + 1):
        assert scores[symbols[f"y{j}"]] == 9
    assert max(scores[len(symbols):]) <= 1
    # NOTE: the row claiming every literal alternative reaches exactly 9 is
    # unattainable and covered by a strict expected-failure test; literal
    # alternatives provably end at 8 or 9:
    for i in range(1, n + 1):
        for s in (f"a(x{i})", f"a(~x{i})", f"b(x{i})", f"b(~x{i})"):
            assert scores[symbols[s]] in (8, 9)

    # --- Borda gadget: uniform rival rows with the stated 3-point gap
    # between the two equalizing patterns, target last among named before
    # bribery and unique winner after.  The absolute row values are
    # unattainable (strict expected-failure tests in test_gadgets).
    g = gadget_borda_maxdisp
    symbols = dict(g.name_map)
    n, m = g.sat.num_vars, g.sat.num_clauses
    scores = positional_scores(g.instance.profile, borda_vector(g.instance.m))
    z = {scores[symbols[f"z{i}"]] for i in range(1, n + 1)}
    y = {scores[symbols[f"y{j}"]] for j in range(1, m + 1)}
    a = {
        scores[symbols[s]]
        for i in range(1, n + 1)
        for s in (f"a(x{i})", f"a(~x{i})")
    }
    assert len(z) == len(y) == len(a) == 1 and z == y
    assert z.pop() - a.pop() == 3
    w = witness_from_assignment(g, (1, 1, 1))
    ok, reason, _, _ = check_witness(g.instance, w.profile)
    assert ok, reason


def test_criterion_09_forward_soundness_every_satisfying_assignment(
    gadget_kapp_swap,
    gadget_kapp_maxdisp,
    gadget_borda_maxdisp,
    gadget_borda_swap,
    gadget_borda_footrule,
):
    assignments = satisfying_assignments(FROZEN_SAT)
    assert len(assignments) == 4
    for g in (
        gadget_kapp_swap,
        gadget_kapp_maxdisp,
        gadget_borda_maxdisp,
        gadget_borda_swap,
        gadget_borda_footrule,
    ):
        for a in assignments:
            w = witness_from_assignment(g, a)
            assert w.satisfies
            ok, reason, _, price = check_witness(g.instance, w.profile)
            assert ok, f"{g.kind}/{g.instance.metric} {a}: {reason}"
            assert price <= g.instance.budget


# Routing expectations: (rule text, metric, delta, priced) -> poly?
ROUTING_TABLE = [
    # plurality / veto: polynomial everywhere, priced, any radius
    ("plurality", SWAP, 5, True, True),
    ("plurality", FOOTRULE, 5, True, True),
    ("plurality", MAXDISP, 5, True, True),
    ("veto", SWAP, 5, True, True),
    ("veto", FOOTRULE, 5, True, True),
    ("veto", MAXDISP, 5, True, True),
    # k-approval: radius-limited under swap/footrule, priced allowed
    ("kapproval 2", SWAP, 1, True, True),
    ("kapproval 2", SWAP, 2, False, False),
    ("kapproval 2", FOOTRULE, 3, True, True),
    ("kapproval 2", FOOTRULE, 4, False, False),
    # k-approval max-displacement: any radius unpriced, radius 1 priced
    ("kapproval 2", MAXDISP, 7, False, True),
    ("kapproval 2", MAXDISP, 1, True, True),
    ("kapproval 2", MAXDISP, 2, True, False),
    # simplified Bucklin mirrors k-approval
    ("sbucklin", SWAP, 1, True, True),
    ("sbucklin", SWAP, 2, False, False),
    ("sbucklin", FOOTRULE, 3, True, True),
    ("sbucklin", FOOTRULE, 4, False, False),
    ("sbucklin", MAXDISP, 7, False, True),
    ("sbucklin", MAXDISP, 1, True, True),
    ("sbucklin", MAXDISP, 2, True, False),
    # everything else is NP-complete in every cell
    ("borda", SWAP, 1, False, False),
    ("borda", FOOTRULE, 2, False, False),
    ("borda", MAXDISP, 1, False, False),
    ("positional 3,1,0,0", SWAP, 1, False, False),
    ("maximin", SWAP, 1, False, False),
    ("maximin", MAXDISP, 1, False, False),
    ("copeland 1/2", SWAP, 1, False, False),
    ("copeland 1/2", FOOTRULE, 2, False, False),
    ("bucklin", SWAP, 1, False, False),
    ("bucklin", MAXDISP, 1, False, False),
]


def test_criterion_10_routing_table():
    for rule_text, metric, delta, priced, expect_poly in ROUTING_TABLE:
        text = (
            f"rule: {rule_text}\nmetric: {metric}\n"
            "alternatives: a b c d\ntarget: a\n"
        )
        if priced:
            text += "budget: 2\n"
        price = " price=1" if priced else ""
        for order in ("a > b > c > d", "d > c > b > a"):
            text += f"voter: delta={delta}{price} : {order}\n"
        inst = parse_instance(text)
        solver, reason = route_poly_solver(inst)
        if expect_poly:
            assert solver is not None, (rule_text, metric, delta, priced)
            outcome = solver(inst)  # the routed solver must accept the cell
            assert outcome.decision in (True, False)
        else:
            assert solver is None, (rule_text, metric, delta, priced)
            assert "NP-complete" in reason


def test_criterion_11_round_trip_and_determinism(
    gadget_kapp_swap, gadget_borda_swap
):
    from test_ioformat import (
        FOOTRULE_FIXTURE,
        MAXDISP_FIXTURE,
        SWAP_FIXTURE,
    )
    for text in (SWAP_FIXTURE, FOOTRULE_FIXTURE, MAXDISP_FIXTURE):
        inst = parse_instance(text)
        assert parse_instance(render_instance(inst)) == inst
    # generator determinism, byte for byte
    from localbribery.gadgets import (
        gen_borda_gadget,
        gen_kapproval_maxdisp_priced_gadget,
        gen_kapproval_swap_gadget,
    )
    a = gen_kapproval_swap_gadget(FROZEN_SAT, delta_pad=5)
    assert render_instance(a.instance) == render_instance(
        gadget_kapp_swap.instance
    )
    assert a.render_name_map() == gadget_kapp_swap.render_name_map()
    b = gen_borda_gadget(FROZEN_SAT, "swap", filler_size=160)
    assert render_instance(b.instance) == render_instance(
        gadget_borda_swap.instance
    )
    c1 = gen_kapproval_maxdisp_priced_gadget(FROZEN_SAT, k=2, filler_size=3000)
    c2 = gen_kapproval_maxdisp_priced_gadget(FROZEN_SAT, k=2, filler_size=3000)
    assert render_instance(c1.instance) == render_instance(c2.instance)
    # gadget instances round-trip through the file format too
    rendered = render_instance(a.instance)
    assert parse_instance(rendered) == a.instance
