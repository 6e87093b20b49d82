"""Polynomial solvers against the exhaustive solver on small instances.

The full acceptance sweeps live in test_acceptance.py; these are quicker
spot checks, a sweep over profiles whose voters share types, the shape and
determinism of the class-compressed networks, the soundness of the count
screens that drop guesses before their networks are built, plus
domain-boundary behavior.
"""

import random

import pytest

from localbribery import solvers
from localbribery.core import VotingRule
from localbribery.flow import capture_networks
from localbribery.metrics import FOOTRULE, MAXDISP, METRICS, SWAP
from localbribery.oracle import solve_exhaustive
from localbribery.problem import BriberyInstance, check_witness
from localbribery.solvers import (
    UnsupportedParameters,
    _cheapest,
    solve_kapproval_maxdisp,
    solve_kapproval_small_radius,
    solve_plurality,
    solve_sbucklin_maxdisp,
    solve_sbucklin_small_radius,
    solve_veto,
    top_window,
)
from conftest import make_profile, random_instance


def agree_with_oracle(solver, instances):
    yes = 0
    for inst in instances:
        got = solver(inst)
        want = solve_exhaustive(inst)
        assert got.decision == want.decision, inst
        if got.decision:
            assert got.total_price == want.total_price, inst
            ok, reason, _, _ = check_witness(inst, got.witness)
            assert ok, reason
            yes += 1
    return yes


@pytest.mark.parametrize("metric", METRICS)
def test_plurality_spot(metric):
    rng = random.Random(f"plurality-{metric}")
    insts = [
        random_instance(rng, VotingRule("plurality"), metric)
        for _ in range(60)
    ]
    assert agree_with_oracle(solve_plurality, insts) > 5


@pytest.mark.parametrize("metric", METRICS)
def test_veto_spot(metric):
    rng = random.Random(f"veto-{metric}")
    insts = [
        random_instance(rng, VotingRule("veto"), metric) for _ in range(60)
    ]
    assert agree_with_oracle(solve_veto, insts) > 5


@pytest.mark.parametrize(
    "metric,deltas", [(SWAP, (0, 1)), (MAXDISP, (0, 1)), (FOOTRULE, (0, 1, 2, 3))]
)
def test_kapproval_small_radius_spot(metric, deltas):
    rng = random.Random(13)
    insts = [
        random_instance(
            rng,
            VotingRule("kapproval", k=rng.choice((2, 3))),
            metric,
            delta_choices=deltas,
        )
        for _ in range(60)
    ]
    agree_with_oracle(solve_kapproval_small_radius, insts)


@pytest.mark.parametrize(
    "metric,deltas", [(SWAP, (0, 1)), (MAXDISP, (0, 1)), (FOOTRULE, (0, 1, 2, 3))]
)
def test_sbucklin_small_radius_spot(metric, deltas):
    rng = random.Random(14)
    insts = [
        random_instance(
            rng, VotingRule("sbucklin"), metric, delta_choices=deltas
        )
        for _ in range(60)
    ]
    agree_with_oracle(solve_sbucklin_small_radius, insts)


def test_kapproval_maxdisp_spot():
    rng = random.Random(15)
    insts = [
        random_instance(
            rng,
            VotingRule("kapproval", k=rng.choice((2, 3))),
            MAXDISP,
            delta_choices=(1, 2, 3),
            unpriced_uniform=True,
        )
        for _ in range(80)
    ]
    agree_with_oracle(solve_kapproval_maxdisp, insts)


def test_sbucklin_maxdisp_spot():
    rng = random.Random(16)
    insts = [
        random_instance(
            rng,
            VotingRule("sbucklin"),
            MAXDISP,
            delta_choices=(1, 2, 3),
            unpriced_uniform=True,
        )
        for _ in range(80)
    ]
    agree_with_oracle(solve_sbucklin_maxdisp, insts)


def shared_type_instance(
    rng: random.Random,
    rule: VotingRule,
    metric: str,
    delta_choices,
    unpriced_uniform: bool = False,
) -> BriberyInstance:
    """Every voter copies one of two random (order, radius, price) types,
    so the solvers' voter classes merge."""
    m = rng.randint(3, 4)
    n = rng.randint(4, 7)
    types = []
    for _ in range(2):
        order = list(range(m))
        rng.shuffle(order)
        types.append((order, rng.choice(delta_choices), rng.choice((1, 2))))
    voters = [rng.choice(types) for _ in range(n)]
    if unpriced_uniform:
        deltas = (voters[0][1],) * n
        prices = (0,) * n
        budget = 0
    else:
        deltas = tuple(d for _, d, _ in voters)
        prices = tuple(p for _, _, p in voters)
        budget = rng.randint(0, 4)
    return BriberyInstance(
        make_profile([order for order, _, _ in voters]),
        rng.randrange(m),
        deltas,
        prices,
        budget,
        rule,
        metric,
    )


SMALL_RADII = {SWAP: (0, 1), MAXDISP: (0, 1), FOOTRULE: (0, 1, 2, 3)}
SHARED_TYPE_CELLS = [
    (solve_plurality, VotingRule("plurality"), METRICS, None, False),
    (solve_veto, VotingRule("veto"), METRICS, None, False),
    (solve_kapproval_small_radius, VotingRule("kapproval", k=2), METRICS,
     SMALL_RADII, False),
    (solve_sbucklin_small_radius, VotingRule("sbucklin"), METRICS,
     SMALL_RADII, False),
    (solve_kapproval_maxdisp, VotingRule("kapproval", k=2), (MAXDISP,),
     None, True),
    (solve_sbucklin_maxdisp, VotingRule("sbucklin"), (MAXDISP,), None, True),
]


@pytest.mark.parametrize(
    "solver,rule,metrics,radii,unpriced",
    SHARED_TYPE_CELLS,
    ids=[cell[0].__name__ for cell in SHARED_TYPE_CELLS],
)
def test_shared_voter_types_match_exhaustive(
    solver, rule, metrics, radii, unpriced
):
    rng = random.Random(f"shared-types-{solver.__name__}")
    insts = [
        shared_type_instance(
            rng,
            rule,
            metric,
            radii[metric] if radii else ((1, 2, 3) if unpriced else (0, 1, 2)),
            unpriced_uniform=unpriced,
        )
        for metric in metrics
        for _ in range(280 // len(metrics))
    ]
    assert agree_with_oracle(solver, insts) > 10


def split_classes(inst, voters, end):
    """How many classes of `voters`, keyed (alternative at position `end`,
    its reach set, price), have two or more paid options: the classes that
    get a node of their own in the move network."""
    keys = set()
    for i in voters:
        order = inst.profile.prefs[i].order
        w = top_window(inst.deltas[i], inst.metric)
        if w > 2:
            window = order[:w] if end == 0 else order[-w:]
            keys.add((order[end], frozenset(window), inst.prices[i]))
    return len(keys)


def typed_instance(types, counts, rule, budget):
    """Voters of a few (order, radius, price) types, interleaved."""
    voters = [t for t, count in zip(types, counts) for _ in range(count)]
    n = len(voters)
    voters = [voters[(7 * i) % n] for i in range(n)]
    return BriberyInstance(
        make_profile([order for order, _, _ in voters]), 0,
        tuple(d for _, d, _ in voters), tuple(p for _, _, p in voters),
        budget, rule, SWAP,
    )


def test_plurality_networks_follow_voter_types():
    # 200 voters of three types: a, b, c, d scored 50, 80, 70, 0.  The
    # cheapest way for the target a to win lifts it in 21 of the b-first
    # voters at price 1; the c-first voters could lift b at price 2.
    types = [((1, 0, 2, 3), 1, 1), ((2, 1, 0, 3), 1, 2), ((0, 3, 2, 1), 1, 1)]
    inst = typed_instance(types, (80, 70, 50), VotingRule("plurality"), 30)
    n, m = inst.n, inst.m
    with capture_networks() as nets:
        first = solve_plurality(inst)
    assert first.decision and first.total_price == 21
    # At radius 1 every class has one paid option: an edge, not a node.
    assert nets and all(net.num_nodes == 2 + m for net in nets)
    assert solve_plurality(inst).witness == first.witness
    # The class's bribes go to its lowest-indexed voters.
    b_first = [i for i in range(n) if inst.profile.prefs[i].order[0] == 1]
    assert sorted(first.bribed) == b_first[:21]

    # At radius 2 a class may have two paid options, and then a node.
    wide = [(order, 2, price) for order, _, price in types]
    for rule, solver, movers, end in (
        ("plurality", solve_plurality,
         lambda inst: [i for i in range(n)
                       if inst.profile.prefs[i].order[0] != 0], 0),
        ("veto", solve_veto, lambda inst: range(n), -1),
    ):
        inst = typed_instance(wide, (80, 70, 50), VotingRule(rule), 60)
        split = split_classes(inst, movers(inst), end)
        assert split > 0
        with capture_networks() as nets:
            got = solver(inst)
        assert got.decision
        assert nets and all(net.num_nodes == 2 + m + split for net in nets)

    # An exchange at the boundary has one paid option, so every network of
    # the small-radius solvers has just the super nodes and alternatives.
    for rule, solver in (
        (VotingRule("kapproval", k=2), solve_kapproval_small_radius),
        (VotingRule("sbucklin"), solve_sbucklin_small_radius),
    ):
        inst = typed_instance(types, (80, 70, 50), rule, 60)
        with capture_networks() as nets:
            got = solver(inst)
        assert got.decision
        assert nets and all(net.num_nodes == 2 + m for net in nets)


@pytest.mark.parametrize(
    "metric,radii",
    [(SWAP, (0, 1)), (MAXDISP, (0, 1)), (FOOTRULE, (0, 1, 2, 3))],
    ids=[SWAP, MAXDISP, FOOTRULE],
)
def test_kapproval_at_one_equals_plurality(metric, radii):
    # At k = 1 an exchange at the boundary is a move to the top, so the
    # two solvers build the same networks and return the same witness.
    rng = random.Random(f"kapproval-one-{metric}")
    yes = 0
    for t in range(150):
        inst = screened_instance(rng, VotingRule("plurality"), metric, radii,
                                 unpriced=t % 4 == 0)
        kapp = BriberyInstance(
            inst.profile, inst.target, inst.deltas, inst.prices, inst.budget,
            VotingRule("kapproval", k=1), metric,
        )
        want = solve_plurality(inst)
        got = solve_kapproval_small_radius(kapp)
        assert (got.decision, got.total_price, got.witness) == (
            want.decision, want.total_price, want.witness
        ), inst
        yes += want.decision
    assert 20 < yes < 130


def test_plurality_bribes_lowest_index_of_a_class():
    # Voters 0 and 1 are identical; one of them must move the target c to
    # the top, and it is voter 0 even though c has the higher index.
    inst = BriberyInstance(
        make_profile([(0, 2, 1), (0, 2, 1), (2, 1, 0)]),
        2, (1, 1, 1), (1, 1, 1), 1, VotingRule("plurality"), SWAP,
    )
    got = solve_plurality(inst)
    assert got.decision and got.bribed == frozenset({0})


@pytest.mark.parametrize(
    "solver,rules",
    [
        (solve_kapproval_maxdisp,
         (VotingRule("kapproval", k=2), VotingRule("kapproval", k=3))),
        (solve_sbucklin_maxdisp, (VotingRule("sbucklin"),)),
    ],
    ids=["kapproval", "sbucklin"],
)
def test_windowed_solvers_at_radius_zero(solver, rules):
    # Nobody may move, so the answer is whether the target already wins,
    # and a YES keeps the profile unchanged.
    rng = random.Random(f"radius-zero-{solver.__name__}")
    insts = [
        random_instance(
            rng, rng.choice(rules), MAXDISP, n_range=(1, 6),
            delta_choices=(0,), unpriced_uniform=True,
        )
        for _ in range(120)
    ]
    yes = agree_with_oracle(solver, insts)
    assert 10 < yes < len(insts) - 10
    for inst in insts:
        got = solver(inst)
        assert not got.decision or got.witness == inst.profile


@pytest.mark.parametrize(
    "solver,metric,delta",
    [(solve_sbucklin_small_radius, SWAP, 1), (solve_sbucklin_maxdisp, MAXDISP, 2)],
    ids=["small_radius", "maxdisp"],
)
def test_sbucklin_one_alternative_is_yes(solver, metric, delta):
    inst = BriberyInstance(
        make_profile([(0,), (0,)]), 0, (delta, delta), (0, 0), 0,
        VotingRule("sbucklin"), metric,
    )
    got = solver(inst)
    assert got.decision and got.total_price == 0
    assert got.witness == inst.profile


def test_cheapest_keeps_first_of_least_cost_and_stops_at_zero():
    assert _cheapest([None, (2, "a"), (1, "b"), None, (1, "c")]) == (1, "b")
    assert _cheapest([None, None]) is None

    def attempts():
        yield 3, "a"
        yield 0, "b"
        raise AssertionError("tried a guess after a cost-0 one")

    assert _cheapest(attempts()) == (0, "b")


def test_plurality_cost_zero_guess_builds_one_network():
    # The target c already wins 2-1, and voter 2 could lift it to 3, so
    # two guesses are open; the first costs 0, which ends the loop.
    inst = BriberyInstance(
        make_profile([(2, 0, 1), (2, 1, 0), (0, 2, 1)]),
        2, (1, 1, 1), (1, 1, 1), 1, VotingRule("plurality"), SWAP,
    )
    with capture_networks() as nets:
        got = solve_plurality(inst)
    assert got.decision and got.total_price == 0 and not got.bribed
    assert len(nets) == 1


SCREENS = ("_sheds_fit", "_window_fits")


def unscreened(monkeypatch):
    """Let every guess through its screen, and pair each screen's own
    verdict with the flow result of the guess it judged."""
    verdicts = []
    for name in SCREENS:
        def let_through(*args, real=getattr(solvers, name)):
            verdicts.append([real(*args), None])
            return True

        monkeypatch.setattr(solvers, name, let_through)
    real_flow = solvers.min_cost_flow_with_demands

    def flow(net, value):
        res = real_flow(net, value)
        assert verdicts and verdicts[-1][1] is None  # one flow per guess
        verdicts[-1][1] = res
        return res

    monkeypatch.setattr(solvers, "min_cost_flow_with_demands", flow)
    return verdicts


def screened_instance(rng, rule, metric, radii, unpriced):
    """Up to 60 voters of up to four types, so guesses span wide ranges;
    zero, middling and generous budgets."""
    m = rng.randint(max(3, (rule.k or 0) + 1), 6)
    n = rng.randint(1, 60)
    types = [rng.sample(range(m), m) for _ in range(rng.randint(1, 4))]
    orders = [rng.choice(types) for _ in range(n)]
    if unpriced:
        deltas, prices, budget = (rng.choice(radii),) * n, (0,) * n, 0
    else:
        deltas = tuple(rng.choice(radii) for _ in range(n))
        prices = tuple(rng.choice(rng.choice(((0, 1), (1, 2, 3))))
                       for _ in range(n))
        budget = rng.choice((0, rng.randint(1, n), 3 * n))
    return BriberyInstance(
        make_profile(orders), rng.randrange(m), deltas, prices, budget, rule,
        metric,
    )


GUESS_LOOPS = {
    "plurality": ([solve_plurality], VotingRule("plurality"), METRICS,
                  (0, 1, 2, 3)),
    "veto": ([solve_veto], VotingRule("veto"), METRICS, (0, 1, 2, 3)),
    "kapproval_small_radius": ([solve_kapproval_small_radius],
                               VotingRule("kapproval", k=2), METRICS, None),
    "sbucklin_small_radius": ([solve_sbucklin_small_radius],
                              VotingRule("sbucklin"), METRICS, None),
    "windowed": ([solve_kapproval_maxdisp, solve_sbucklin_maxdisp], None,
                 (MAXDISP,), (0, 1, 2, 3)),
}


@pytest.mark.parametrize("loop", GUESS_LOOPS)
def test_screens_drop_only_failing_guesses(loop, monkeypatch):
    # Every guess a screen rejects is solved anyway: its flow must be
    # infeasible or over budget, and the full scan must give the screened
    # answer, witness included.
    fns, rule, metrics, radii = GUESS_LOOPS[loop]
    rng = random.Random(f"screens-{loop}")
    rejected = 0
    for t in range(150):
        metric = metrics[t % len(metrics)]
        solver = fns[t % len(fns)]
        windowed = rule is None
        inst = screened_instance(
            rng,
            rule or (VotingRule("kapproval", k=rng.randint(1, 3))
                     if solver is solve_kapproval_maxdisp
                     else VotingRule("sbucklin")),
            metric,
            radii or SMALL_RADII[metric],
            unpriced=windowed or t % 4 == 0,
        )
        screened = solver(inst)
        with monkeypatch.context() as patch:
            verdicts = unscreened(patch)
            full = solver(inst)
        assert (full.decision, full.total_price, full.witness) == (
            screened.decision, screened.total_price, screened.witness
        ), inst
        for passed, res in verdicts:
            if not passed:
                assert not res.feasible or res.total_cost > inst.budget, inst
                rejected += 1
    assert rejected > 20


def test_sbucklin_screen_builds_no_network_for_a_stuck_majority():
    # Three voters a > b > c > d, each free to swap one pair.  At level 2
    # the target c could enter every voter's top two, but a sits there in
    # all three and no toggle at that boundary demotes it; at level 3 no
    # toggle is open at all and a and b stay over half.  Without the screen
    # each level's count guesses built a network (three in all).
    orders = [(0, 1, 2, 3)] * 3
    inst = BriberyInstance(
        make_profile(orders), 2, (1, 1, 1), (0, 1, 1), 3,
        VotingRule("sbucklin"), SWAP,
    )
    with capture_networks() as nets:
        got = solve_sbucklin_small_radius(inst)
    assert not got.decision
    assert nets == []


def test_top_window_values():
    assert top_window(0, SWAP) == 1
    assert top_window(2, SWAP) == 3
    assert top_window(2, MAXDISP) == 3
    assert top_window(2, FOOTRULE) == 2
    assert top_window(3, FOOTRULE) == 2
    assert top_window(4, FOOTRULE) == 3


def test_domain_rejections():
    rng = random.Random(17)
    swap2 = random_instance(
        rng, VotingRule("kapproval", k=2), SWAP, delta_choices=(2,)
    )
    with pytest.raises(UnsupportedParameters):
        solve_kapproval_small_radius(swap2)
    priced = random_instance(
        rng,
        VotingRule("kapproval", k=2),
        MAXDISP,
        delta_choices=(2,),
        price_choices=(1,),
        budget_range=(1, 3),
    )
    with pytest.raises(UnsupportedParameters):
        solve_kapproval_maxdisp(priced)
    with pytest.raises(UnsupportedParameters):
        solve_plurality(
            random_instance(rng, VotingRule("veto"), SWAP)
        )
    with pytest.raises(UnsupportedParameters):
        solve_sbucklin_maxdisp(
            random_instance(
                rng, VotingRule("sbucklin"), SWAP, unpriced_uniform=True
            )
        )
