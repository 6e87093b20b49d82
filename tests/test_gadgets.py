"""SAT handling, the margin realizer, and the three instance generators."""

import hashlib
import random
import sys
from array import array
from itertools import chain, product

import pytest

from localbribery.core import (
    Preference,
    approval_vector,
    borda_vector,
    is_unique_winner,
    positional_scores,
    weighted_majority_graph,
)
from localbribery.gadgets import (
    GadgetError,
    _FillerPool,
    _filler_preference,
    Sat3B2Instance,
    WmgTarget,
    gen_borda_gadget,
    gen_kapproval_maxdisp_priced_gadget,
    gen_kapproval_swap_gadget,
    realize_wmg,
    witness_from_assignment,
)
from localbribery.ioformat import (
    FormatError,
    parse_and_validate_3b2,
    render_instance,
    render_rule,
)
from localbribery.problem import NOT_UNIQUE_WINNER, check_witness
from conftest import (
    FROZEN_SAT,
    FROZEN_SAT_DIMACS,
    lemma_filler_bound,
    render_3b2,
    satisfying_assignments,
)

# ---------------------------------------------------------------------------
# (3,B2)-SAT
# ---------------------------------------------------------------------------


def test_frozen_fixture_is_valid_and_satisfiable():
    sols = satisfying_assignments(FROZEN_SAT)
    assert sols == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]


def test_parse_dimacs_round_trip():
    sat = parse_and_validate_3b2(FROZEN_SAT_DIMACS)
    assert sat == FROZEN_SAT
    assert parse_and_validate_3b2(render_3b2(sat)) == sat


def test_arity_error():
    with pytest.raises(GadgetError, match="arity 2"):
        Sat3B2Instance(2, ((1, 2),))


def test_duplicate_and_tautological_literals():
    with pytest.raises(GadgetError, match="twice"):
        Sat3B2Instance(3, ((1, 1, 2),) * 4)
    with pytest.raises(GadgetError, match="twice"):
        Sat3B2Instance(3, ((1, -1, 2),) * 4)


def test_occurrence_count_diagnostic():
    # x1 positive three times, once negative: the error names the first
    # violated occurrence count.
    clauses = ((1, 2, 3), (1, 2, -3), (1, -2, 3), (-1, -2, -3))
    with pytest.raises(GadgetError, match=r"x1 occurs 3 times"):
        Sat3B2Instance(3, clauses)


def test_parse_errors():
    with pytest.raises(FormatError, match="line 1"):
        parse_and_validate_3b2("p dimacs 3 4\n1 2 3 0\n")
    with pytest.raises(FormatError, match="before"):
        parse_and_validate_3b2("1 2 3 0\n")
    with pytest.raises(FormatError, match="announces"):
        parse_and_validate_3b2("p cnf 3 5\n" + FROZEN_SAT_DIMACS.split("\n", 2)[2])
    with pytest.raises(FormatError, match="unterminated"):
        parse_and_validate_3b2("p cnf 3 4\n1 2 3\n")
    with pytest.raises(FormatError, match="non-integer"):
        parse_and_validate_3b2("p cnf 3 4\none 2 3 0\n")


def test_self_union():
    doubled = FROZEN_SAT.self_union()
    assert doubled.num_vars == 6
    assert doubled.num_clauses == 8
    assert doubled.clauses[4] == (4, 5, 6)
    for a in satisfying_assignments(FROZEN_SAT):
        assert doubled.satisfies(a + a)


def test_occurrence_index():
    # literal 1 occurs in clauses 0 and 1
    assert FROZEN_SAT.occurrence_index(1, 0) == 0
    assert FROZEN_SAT.occurrence_index(1, 1) == 1
    assert FROZEN_SAT.occurrence_index(-3, 1) == 0
    assert FROZEN_SAT.occurrence_index(-3, 2) == 1


def test_brute_force_limit():
    big = FROZEN_SAT
    while big.num_vars <= 20:
        big = big.self_union()
    with pytest.raises(GadgetError, match="brute-force"):
        satisfying_assignments(big)


# ---------------------------------------------------------------------------
# Margin realizer
# ---------------------------------------------------------------------------


def random_target(rng, max_margin=6, spacing=4):
    ell = rng.randint(1, 4)
    parity = rng.choice([0, 1])
    margins = [[0] * ell for _ in range(ell)]
    for i in range(ell):
        for j in range(i + 1, ell):
            v = rng.randint(0, (max_margin - parity) // 2) * 2 + parity
            v *= rng.choice([1, -1])
            margins[i][j], margins[j][i] = v, -v
    names = tuple(f"b{i}" for i in range(ell))
    return WmgTarget(names, tuple(tuple(r) for r in margins), spacing)


def check_realization(target):
    profile = realize_wmg(target)
    wmg = weighted_majority_graph(profile)
    ell = len(target.core_names)
    m = profile.m
    # margins restricted to the core equal the target exactly
    for i in range(ell):
        for j in range(ell):
            assert wmg[i][j] == target.margins[i][j]
    # condition (i): every core alternative beats every filler
    for i in range(ell):
        for f in range(ell, m):
            assert wmg[i][f] > 0
    # condition (ii): cores are separated by more than spacing/2 positions
    half = target.spacing // 2
    near_core_count = [0] * m
    for p in profile.prefs:
        positions = sorted(p.order.index(i) + 1 for i in range(ell))
        for lo, hi in zip(positions, positions[1:]):
            assert hi - lo > half
        # condition (iii) bookkeeping: fillers close to a core alternative
        core_pos = set(positions)
        for f in range(ell, m):
            pf = p.order.index(f) + 1
            if any(abs(pf - cp) <= half for cp in core_pos):
                near_core_count[f] += 1
    # condition (iii): each filler is near a core alternative in <= 1 pref
    assert all(c <= 1 for c in near_core_count[ell:])
    return profile


def test_realize_wmg_small_even():
    t = WmgTarget(("a", "b"), ((0, 2), (-2, 0)), spacing=4)
    check_realization(t)


def test_realize_wmg_odd_cycle():
    t = WmgTarget(
        ("a", "b", "c"),
        ((0, 1, -1), (-1, 0, 1), (1, -1, 0)),
        spacing=4,
    )
    check_realization(t)


def test_realize_wmg_zero_margins():
    t = WmgTarget(("a", "b"), ((0, 0), (0, 0)), spacing=4)
    profile = check_realization(t)
    assert weighted_majority_graph(profile)[0][1] == 0


def test_realize_wmg_random_sample():
    rng = random.Random(2024)
    for _ in range(30):
        check_realization(random_target(rng))


def test_realize_wmg_determinism():
    t = WmgTarget(("a", "b", "c"), ((0, 4, -2), (-4, 0, 2), (2, -2, 0)), 4)
    assert realize_wmg(t) == realize_wmg(t)


def test_wmg_target_validation():
    with pytest.raises(GadgetError, match="antisymmetric"):
        WmgTarget(("a", "b"), ((0, 2), (2, 0)), 4)
    with pytest.raises(GadgetError, match="parity"):
        WmgTarget(
            ("a", "b", "c"), ((0, 1, 2), (-1, 0, 0), (-2, 0, 0)), 4
        )
    with pytest.raises(GadgetError, match="diagonal"):
        WmgTarget(("a", "b"), ((1, 2), (-2, 0)), 4)
    with pytest.raises(GadgetError, match="spacing"):
        WmgTarget(("a", "b"), ((0, 2), (-2, 0)), 1)
    with pytest.raises(GadgetError, match="num_fillers"):
        realize_wmg(
            WmgTarget(("a", "b"), ((0, 2), (-2, 0)), 4, num_fillers=1)
        )


def test_lemma_filler_bound_documented():
    t = WmgTarget(("a", "b"), ((0, 2), (-2, 0)), 4)
    # The stated sufficient bound is loose; the construction enforces its
    # own exact floor instead, which must never exceed the stated bound.
    assert lemma_filler_bound(t) == 10 * 16 * 4 * 4 + 1
    assert realize_wmg(t).m - 2 < lemma_filler_bound(t)


# ---------------------------------------------------------------------------
# k-approval / swap generator
# ---------------------------------------------------------------------------


def test_kapp_swap_structure(gadget_kapp_swap):
    g = gadget_kapp_swap
    n, m = g.sat.num_vars, g.sat.num_clauses
    assert (n, m) == (6, 8)  # odd source doubled automatically
    pad = g.padding
    assert pad == 5
    inst = g.instance
    assert inst.m == 4 * n + 2 * n + 3 * m + 2
    assert inst.n == (
        2 * n + 3 * m + 1 + (pad + 2)
        + (n // 2) * (pad + 1) + 2 * n * (pad + 1) + (m // 2) * pad
    )
    assert inst.rule.k == 2 and inst.metric == "swap"
    assert inst.deltas == (2,) * inst.n
    assert inst.is_unpriced_uniform()
    assert not is_unique_winner(inst.profile, inst.rule, inst.target)
    symbols = dict(g.name_map)
    assert symbols["c"] == 0 and symbols["u"] == 1
    assert "a(x1,0)" in symbols and "a(~x6,1)" in symbols
    assert "literal a(x1,0) -> alt" not in g.render_name_map()
    assert "a(x1,0) -> alt 2" in g.render_name_map()


def test_kapp_swap_floor():
    with pytest.raises(GadgetError, match="at least 4"):
        gen_kapproval_swap_gadget(FROZEN_SAT, delta_pad=3)


def test_kapp_swap_witness_scores(gadget_kapp_swap):
    g = gadget_kapp_swap
    pad = g.padding
    w = witness_from_assignment(g, (1, 1, 1))
    assert w.satisfies
    ok, reason, bribed, price = check_witness(g.instance, w.profile)
    assert ok, reason
    assert price == 0
    assert w.bribed == bribed
    scores = positional_scores(
        w.profile, approval_vector(g.instance.m, 2)
    )
    symbols = dict(g.name_map)
    assert scores[symbols["c"]] == pad + 3
    assert scores[symbols["u"]] == pad + 2
    n, m = g.sat.num_vars, g.sat.num_clauses
    for i in range(1, n + 1):
        assert scores[symbols[f"w{i}"]] == pad + 2
        assert scores[symbols[f"z{i}"]] < pad
    for j in range(1, m + 1):
        assert scores[symbols[f"y{j}"]] == pad + 2
        assert scores[symbols[f"d{j}"]] < pad
        assert scores[symbols[f"d'{j}"]] < pad
    # every changed preference moved exactly the two allowed exchanges
    from localbribery.metrics import swap_distance

    for i in sorted(bribed):
        assert (
            swap_distance(g.instance.profile.prefs[i], w.profile.prefs[i]) == 2
        )


def test_kapp_swap_all_assignments(gadget_kapp_swap):
    for a in satisfying_assignments(FROZEN_SAT):
        w = witness_from_assignment(gadget_kapp_swap, a)
        assert w.satisfies
        ok, reason, _, _ = check_witness(gadget_kapp_swap.instance, w.profile)
        assert ok, reason


def test_kapp_swap_nonsatisfying_flag(gadget_kapp_swap):
    w = witness_from_assignment(gadget_kapp_swap, (1, 0, 1))
    assert not w.satisfies
    # Only the winner condition may fail: distances and price still hold.
    ok, reason, bribed, _ = check_witness(gadget_kapp_swap.instance, w.profile)
    assert (ok, reason) == (False, NOT_UNIQUE_WINNER)
    assert w.bribed == bribed


def test_assignment_length_check(gadget_kapp_swap):
    with pytest.raises(GadgetError, match="length"):
        witness_from_assignment(gadget_kapp_swap, (1, 0))


# ---------------------------------------------------------------------------
# k-approval / max-displacement priced generator
# ---------------------------------------------------------------------------


def test_kapp_maxdisp_structure(gadget_kapp_maxdisp):
    g = gadget_kapp_maxdisp
    n, m = g.sat.num_vars, g.sat.num_clauses
    assert (n, m) == (3, 4)  # no parity requirement, not doubled
    inst = g.instance
    assert inst.budget == n + m
    assert inst.deltas == (2,) * inst.n
    p1 = 2 * n + 3 * m
    assert inst.prices[:p1] == (1,) * p1
    assert set(inst.prices[p1:]) == {10 * m * n}
    assert not is_unique_winner(inst.profile, inst.rule, inst.target)
    scores = positional_scores(inst.profile, approval_vector(inst.m, 2))
    symbols = dict(g.name_map)
    assert scores[symbols["c"]] == 10
    for j in range(1, m + 1):
        assert scores[symbols[f"y{j}"]] == 10


def test_kapp_maxdisp_filler_floor(frozen_sat):
    with pytest.raises(GadgetError, match="filler"):
        gen_kapproval_maxdisp_priced_gadget(frozen_sat, k=2, filler_size=50)
    # The once-only pool runs out before any preference is complete.
    with pytest.raises(GadgetError, match="exhausted after 5 once-only"):
        gen_kapproval_maxdisp_priced_gadget(frozen_sat, k=3, filler_size=5)


def test_kapp_maxdisp_window_once_rule(gadget_kapp_maxdisp):
    # No filler alternative appears in the top k+10 positions of more than
    # one preference.
    g = gadget_kapp_maxdisp
    k = g.instance.rule.k
    num_named = sum(1 for _, idx in g.name_map)
    seen = set()
    for pref in g.instance.profile.prefs:
        for a in pref.order[: k + 10]:
            if a >= num_named:
                assert a not in seen
                seen.add(a)


def test_kapp_maxdisp_witness(gadget_kapp_maxdisp):
    g = gadget_kapp_maxdisp
    n, m = g.sat.num_vars, g.sat.num_clauses
    for a in satisfying_assignments(g.sat):
        w = witness_from_assignment(g, a)
        assert w.satisfies
        ok, reason, bribed, price = check_witness(g.instance, w.profile)
        assert ok, reason
        assert price == n + m == g.instance.budget
        assert len(bribed) == n + m
        scores = positional_scores(
            w.profile, approval_vector(g.instance.m, 2)
        )
        symbols = dict(g.name_map)
        num_named = len(symbols)
        assert scores[symbols["c"]] == 10
        for i in range(1, n + 1):
            assert scores[symbols[f"w{i}"]] == 9
            assert scores[symbols[f"w'{i}"]] == 9
        for j in range(1, m + 1):
            assert scores[symbols[f"y{j}"]] == 9
        for i in range(1, n + 1):
            for lit_sym in (f"a(x{i})", f"a(~x{i})", f"b(x{i})", f"b(~x{i})"):
                assert scores[symbols[lit_sym]] in (8, 9)
        assert max(scores[num_named:]) <= 1


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated exact score row is unattainable: a counting argument over "
        "the unit-price preferences shows the literal-pair alternatives on "
        "the side matching the assignment keep their original approval "
        "count (8); only the opposite side reaches 9.  The winner margin "
        "and all attainable rows are asserted in test_kapp_maxdisp_witness."
    ),
)
def test_kapp_maxdisp_all_named_rivals_exactly_nine(gadget_kapp_maxdisp):
    g = gadget_kapp_maxdisp
    w = witness_from_assignment(g, (1, 1, 1))
    scores = positional_scores(w.profile, approval_vector(g.instance.m, 2))
    symbols = dict(g.name_map)
    for sym, idx in symbols.items():
        if sym != "c":
            assert scores[idx] == 9


# ---------------------------------------------------------------------------
# Borda generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fixture,metric,delta",
    [
        ("gadget_borda_maxdisp", "maxdisp", 1),
        ("gadget_borda_swap", "swap", 1),
        ("gadget_borda_footrule", "footrule", 2),
    ],
)
def test_borda_structure(request, fixture, metric, delta):
    g = request.getfixturevalue(fixture)
    inst = g.instance
    assert inst.metric == metric
    assert inst.deltas == (delta,) * inst.n
    assert inst.is_unpriced_uniform()
    assert not is_unique_winner(inst.profile, inst.rule, inst.target)
    n, m = g.sat.num_vars, g.sat.num_clauses
    num_named = 3 * n + m + 1
    assert len(g.name_map) == num_named
    scores = positional_scores(inst.profile, borda_vector(inst.m))
    symbols = dict(g.name_map)
    z = {scores[symbols[f"z{i}"]] for i in range(1, n + 1)}
    y = {scores[symbols[f"y{j}"]] for j in range(1, m + 1)}
    a = {
        scores[symbols[s]]
        for i in range(1, n + 1)
        for s in (f"a(x{i})", f"a(~x{i})")
    }
    assert len(z) == len(y) == len(a) == 1  # uniform rows
    assert z == y
    assert z.pop() - a.pop() == 3  # the two equalizing gaps differ by 3
    assert scores[symbols["c"]] < min(
        scores[idx] for s, idx in symbols.items() if s != "c"
    )


@pytest.mark.parametrize(
    "fixture",
    ["gadget_borda_maxdisp", "gadget_borda_swap", "gadget_borda_footrule"],
)
def test_borda_witness(request, fixture):
    g = request.getfixturevalue(fixture)
    w = witness_from_assignment(g, (1, 1, 1))
    assert w.satisfies
    ok, reason, _, _ = check_witness(g.instance, w.profile)
    assert ok, reason


def test_borda_filler_floor(frozen_sat):
    with pytest.raises(GadgetError, match="filler_size"):
        gen_borda_gadget(frozen_sat, "maxdisp", filler_size=30)
    with pytest.raises(GadgetError, match="metric"):
        gen_borda_gadget(frozen_sat, "hamming")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated exact pre-bribery scores (target score + 2*block-count - "
        "gap) are unattainable: in every equalizing pair, each rival not "
        "being equalized nets 3 more points than the target, so rival "
        "scores exceed the stated values by three times the total slack. "
        "The attainable properties (uniform rows, gap difference, target "
        "strictly last among named) are asserted in test_borda_structure."
    ),
)
def test_borda_pre_bribery_exact_scores(gadget_borda_maxdisp):
    g = gadget_borda_maxdisp
    inst = g.instance
    n, m = g.sat.num_vars, g.sat.num_clauses
    n1 = 2 * n + 3 * m
    n2 = inst.n - n1
    scores = positional_scores(inst.profile, borda_vector(inst.m))
    symbols = dict(g.name_map)
    s_c = scores[symbols["c"]]
    for i in range(1, n + 1):
        assert scores[symbols[f"z{i}"]] == s_c + 2 * n2 - 2
        assert scores[symbols[f"a(x{i})"]] == s_c + 2 * n2 - 5


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated exact post-bribery scores (every named rival at exactly "
        "one point below the target) are unattainable for the same "
        "slack reason as the pre-bribery rows; the target still wins "
        "with margin, which is what test_borda_witness verifies."
    ),
)
def test_borda_post_bribery_rivals_at_target_minus_one(gadget_borda_maxdisp):
    g = gadget_borda_maxdisp
    w = witness_from_assignment(g, (1, 1, 1))
    scores = positional_scores(w.profile, borda_vector(g.instance.m))
    symbols = dict(g.name_map)
    s_c = scores[symbols["c"]]
    for sym, idx in symbols.items():
        if sym != "c":
            assert scores[idx] == s_c - 1


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_generators_deterministic(frozen_sat):
    a = gen_kapproval_swap_gadget(frozen_sat, delta_pad=5)
    b = gen_kapproval_swap_gadget(frozen_sat, delta_pad=5)
    assert render_instance(a.instance) == render_instance(b.instance)
    assert a.render_name_map() == b.render_name_map()
    c = gen_kapproval_maxdisp_priced_gadget(frozen_sat, k=2, filler_size=3000)
    d = gen_kapproval_maxdisp_priced_gadget(frozen_sat, k=2, filler_size=3000)
    assert render_instance(c.instance) == render_instance(d.instance)
    e = gen_borda_gadget(frozen_sat, "swap", filler_size=160)
    f = gen_borda_gadget(frozen_sat, "swap", filler_size=160)
    assert render_instance(e.instance) == render_instance(f.instance)


# ---------------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------------


def _digest(profile, *fields) -> str:
    """sha256 over the profile's orders as one flat array of little-endian
    32-bit ints, then the repr of the other fields.  Hashing ints instead of
    rendered text keeps the 26,798-voter Borda fixtures fast."""
    orders = array("I", chain.from_iterable(p.order for p in profile.prefs))
    if sys.byteorder == "big":
        orders.byteswap()
    h = hashlib.sha256(orders.tobytes())
    h.update(repr(fields).encode())
    return h.hexdigest()


# Taken from the generators before the name table, the shared filler
# builder and the verifier routing went in; any change to a generated
# instance, name map or witness shows up here.
GOLDEN = {
    "gadget_kapp_swap": (
        "6fc463759a9e42c5ebcb374dac07e35cc510bd5189ba5543d5e9bbf3e9470ddb",
        "a2288427c5dace50436b4e8c90d6f985b4da60fb83c4004b5a799ff784efbd8b",
    ),
    "gadget_kapp_maxdisp": (
        "905e2f21cd9edd4fd571f695ce6422b5242d832eb5fa81a95d0095aef847d8df",
        "fe7936620eff1132efc9ff1a0f59272f38ad44f9157e73aec1e93a9ee5024fd2",
    ),
    "gadget_borda_maxdisp": (
        "8366a8c82ff49e1cac5d6641aecc565bfbc14e5d3f3ae6745d9a3adc31c189b3",
        "56fb796c51b5a610524dce93413848f465aca00e0300e188215cff514776d7aa",
    ),
    "gadget_borda_swap": (
        "13b153e0ca450a93694cf2551c0bbd817bdf15e324fb0f26bc0fb9f08c35b874",
        "0e38edaf751ac18177b8c620d0d976313c65ba5a150e1d0d75d7a241c610ed18",
    ),
    "gadget_borda_footrule": (
        "0f9b5ab459db8ce744e6e3ca62babdc6e6009c9ccb332491ddd695df48192f80",
        "0e38edaf751ac18177b8c620d0d976313c65ba5a150e1d0d75d7a241c610ed18",
    ),
}


def _witness_digest(g, assignment) -> str:
    inst = g.instance
    w = witness_from_assignment(g, assignment)
    bribed = sorted(
        i for i in range(inst.n) if w.profile.prefs[i] != inst.profile.prefs[i]
    )
    return _digest(w.profile, w.satisfies, bribed)


def _golden_digests(g) -> tuple[str, str]:
    inst = g.instance
    return (
        _digest(
            inst.profile,
            inst.profile.alternatives.names,
            inst.target,
            inst.deltas,
            inst.prices,
            inst.budget,
            render_rule(inst.rule),
            inst.metric,
            g.render_name_map(),
        ),
        _witness_digest(g, (1, 1, 1)),
    )


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_gadgets_match_golden_digests(request, fixture):
    g = request.getfixturevalue(fixture)
    assert _golden_digests(g) == GOLDEN[fixture]


# Taken from the generators before the rotated fillers were drawn once per
# order and the swap orders built from one rest per head.  At k = 3 and
# k = 6 the max-displacement orders open with fresh fillers and the fresh
# window ends inside a run of ten; at padding 100 the swap blocks repeat
# their heads.
GOLDEN_WIDE = {
    "kapp_maxdisp_k3": (
        lambda: gen_kapproval_maxdisp_priced_gadget(
            FROZEN_SAT, k=3, filler_size=3000
        ),
        "51a10fe56ec94388857e5ed92cebe995c902d0766480291fb6c18e3b4d461f48",
        "d4a4b222bac92d959f44cfcc8a74eae6035cf3b47e75b803d3ed7f514bd36635",
    ),
    "kapp_maxdisp_k6": (
        lambda: gen_kapproval_maxdisp_priced_gadget(
            FROZEN_SAT, k=6, filler_size=3000
        ),
        "1312596a11aba764a04eb3fc38b8bc98798c3fcc4f5b072698af2ce3af319efb",
        "e55eb4f669b34fc0dacfd1ad28ad7ec8b69a1c481292970894c3ed61089752e8",
    ),
    "kapp_swap_pad_100": (
        lambda: gen_kapproval_swap_gadget(FROZEN_SAT, delta_pad=100),
        "c53443789c4e34545285ff9f0eef7ea24e0d94f11591628859e5e2d0e07300cb",
        "72a384c8323df567ef75f37d3509b520f81770a97bebc2ededc79021a115ce19",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_WIDE))
def test_wider_gadgets_match_golden_digests(case):
    build, *digests = GOLDEN_WIDE[case]
    assert _golden_digests(build()) == tuple(digests)


# Taken before the three witness builders shared one pass over the P1
# voters.  The digests above use only the assignment (1, 1, 1); these cover
# all eight, so the variable voters on both sides and the clauses that no
# literal satisfies are pinned too.
GOLDEN_ALL_ASSIGNMENTS = {
    "gadget_kapp_swap": (
        "2441de56eaab1f565c8ec44d1ede05154448bdc8a5436f91b21d5f84e02261bc"
    ),
    "gadget_kapp_maxdisp": (
        "7ef804900f89a5e9a51e275ffee881630026ebb6609ec4a4e48a6d4408accdab"
    ),
    "gadget_borda_maxdisp": (
        "741a6c0ec3b1925f21b29a82de62cc956a14b1b342e04b4ce8b75db6b6325da2"
    ),
    "kapp_swap_pad_100": (
        "2a135faebe4cdb0ea212306019d221520a552352fa2a53c44fbd5ea3ccf48bc9"
    ),
    "kapp_maxdisp_k3": (
        "f752215569cec836af8ed1fa691e944d1af5d521b4cb3be9686bb257781c24ba"
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ALL_ASSIGNMENTS))
def test_witnesses_of_every_assignment_match_golden_digests(request, case):
    if case in GOLDEN_WIDE:
        g = GOLDEN_WIDE[case][0]()
    else:
        g = request.getfixturevalue(case)
    h = hashlib.sha256()
    for assignment in product((0, 1), repeat=FROZEN_SAT.num_vars):
        h.update(_witness_digest(g, assignment).encode())
    assert h.hexdigest() == GOLDEN_ALL_ASSIGNMENTS[case]


def _wmg_targets():
    """240 seeded targets on one to four core alternatives: odd and even
    margins in turn, spacing 2 to 7, and every fourth one with more fillers
    than it needs."""
    for seed in range(240):
        rng = random.Random(seed)
        ell = rng.randint(1, 4)
        parity = seed % 2
        margins = [[0] * ell for _ in range(ell)]
        for i in range(ell):
            for j in range(i + 1, ell):
                v = (rng.randint(0, 3) * 2 + parity) * rng.choice([1, -1])
                margins[i][j], margins[j][i] = v, -v
        names = tuple(f"b{i}" for i in range(ell))
        target = WmgTarget(names, tuple(map(tuple, margins)), rng.randint(2, 7))
        if seed % 4 == 3:
            need = realize_wmg(target).m - ell
            target = WmgTarget(
                names, target.margins, target.spacing, need + rng.randint(1, 9)
            )
        yield target


# Taken before ``realize_wmg`` drew its fillers from the gadgets' filler pool.
GOLDEN_WMG = (
    "4761d19d4daeff1b1763e1801c67c468c6408cec3fbdde043b104b4f3d2ae351"
)


def test_realize_wmg_matches_golden_digest():
    h = hashlib.sha256()
    for target in _wmg_targets():
        profile = realize_wmg(target)
        h.update(_digest(profile, profile.alternatives.names).encode())
    assert h.hexdigest() == GOLDEN_WMG


# ---------------------------------------------------------------------------
# One object per distinct order
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", sorted(GOLDEN) + ["kapp_swap_pad_100"])
def test_gadgets_share_one_object_per_distinct_order(request, fixture):
    # The generators and witness builders hand out one preference object
    # per distinct order, and the verifier and the renderers work once per
    # object: two objects with equal orders would undo that silently.  At
    # the fixture's padding of 5 no k-approval swap order repeats; at 100,
    # 1,197 of its 2,054 orders are distinct.
    if fixture == "kapp_swap_pad_100":
        g = gen_kapproval_swap_gadget(FROZEN_SAT, delta_pad=100)
    else:
        g = request.getfixturevalue(fixture)
    w = witness_from_assignment(g, satisfying_assignments(FROZEN_SAT)[0])
    for prefs in (g.instance.profile.prefs, w.profile.prefs):
        assert len(set(map(id, prefs))) == len(set(prefs))


def test_filler_preference_is_a_permutation():
    pool = _FillerPool(60, "test", 4)
    for head in ([1, "F", 0], ["F", 2, "F"], []):
        pref = _filler_preference(pool, 4, head, 12)
        assert pref == Preference(pref.order)  # the checked constructor
        assert pref.m == 4 + 60


def test_filler_preference_rejects_a_repeated_head_alternative():
    # The builder checks its order's length, not the order: its
    # construction makes the two the same.  A head that names an
    # alternative twice fails as the checked constructor fails.
    with pytest.raises(ValueError) as e:
        _filler_preference(_FillerPool(50, "test", 3), 3, [1, "F", 1], 0)
    assert type(e.value) is ValueError
    assert str(e.value) == "order must be a permutation of 0..m-1"


def test_max_displacement_orders_share_one_int_per_alternative(
    gadget_kapp_maxdisp,
):
    # Every order reads its filler entries from the pool's one label tuple,
    # so the 200 orders of 3,023 entries hold 3,023 int objects in all.
    profile = gadget_kapp_maxdisp.instance.profile
    ids = {id(a) for p in profile.prefs for a in p.order}
    assert len(ids) == profile.m


# ---------------------------------------------------------------------------
# Rotated-filler draws
# ---------------------------------------------------------------------------


def _deep_one_by_one(size, cursor, count, used):
    """The rotated draw as a loop over the pool, one filler at a time: the
    reference for ``_FillerPool.deep``.  Returns the drawn fillers and the
    cursor, which counts every filler looked at."""
    out = []
    scanned = 0
    while len(out) < count:
        if scanned > size:
            raise GadgetError(
                "test: not enough fillers for one preference; "
                "increase filler_size (--filler-size)"
            )
        idx = cursor % size
        cursor += 1
        scanned += 1
        if idx not in used:
            used.add(idx)
            out.append(idx)
    return out, cursor


def test_deep_draw_matches_the_one_by_one_loop():
    seen = {"wrapped": 0, "zero": 0, "boundary_ok": 0, "boundary_err": 0}
    for seed in range(400):
        rng = random.Random(seed)
        size = rng.randint(1, 40)
        pool = _FillerPool(size, "test", 0)
        pool.deep_cursor = cursor = rng.randrange(size)
        used = set()
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.5:  # a new preference
                used = set(rng.sample(range(size), rng.randint(0, size)))
            free = size - len(used)
            count = rng.choice(
                [0, free, free + 1, rng.randint(0, free), rng.randint(0, size)]
            )
            ref_used = set(used)
            if count > free:
                with pytest.raises(GadgetError) as want:
                    _deep_one_by_one(size, cursor, count, ref_used)
                with pytest.raises(GadgetError) as got:
                    pool.deep(count, used)
                assert str(got.value) == str(want.value)
                # A failed draw ends the generator; carry on from a fresh
                # preference at the pool's cursor.
                seen["boundary_err"] += count == free + 1
                cursor = pool.deep_cursor
                used = set()
                continue
            want, new_cursor = _deep_one_by_one(size, cursor, count, ref_used)
            got = pool.deep(count, used)
            assert got == want
            assert used == ref_used
            assert pool.deep_cursor == new_cursor % size
            seen["wrapped"] += new_cursor > size
            seen["zero"] += count == 0
            seen["boundary_ok"] += count == free > 0
            cursor = pool.deep_cursor
    assert all(seen.values()), seen
