"""Shared fixtures and helpers: random instance generation, the frozen SAT
formula, and brute-force and rendering helpers for the gadget tests."""

from __future__ import annotations

import random
from itertools import product

import pytest

from localbribery.core import (
    AlternativeSet,
    Preference,
    Profile,
    VotingRule,
)
from localbribery.gadgets import GadgetError, Sat3B2Instance, WmgTarget
from localbribery.problem import BriberyInstance

NAMES = "abcdefghij"


def make_profile(orders) -> Profile:
    m = len(orders[0])
    alts = AlternativeSet(tuple(NAMES[:m]))
    return Profile(alts, tuple(Preference(tuple(o)) for o in orders))


def random_instance(
    rng: random.Random,
    rule: VotingRule,
    metric: str,
    m_range=(3, 5),
    n_range=(2, 5),
    delta_choices=(0, 1, 2),
    price_choices=(0, 1, 2),
    budget_range=(0, 3),
    unpriced_uniform: bool = False,
) -> BriberyInstance:
    m = rng.randint(*m_range)
    if rule.tag == "kapproval":
        m = max(m, rule.k + 1)
    if rule.tag == "positional":
        m = len(rule.alpha.alpha)
    n = rng.randint(*n_range)
    orders = []
    for _ in range(n):
        order = list(range(m))
        rng.shuffle(order)
        orders.append(order)
    profile = make_profile(orders)
    target = rng.randrange(m)
    if unpriced_uniform:
        deltas = (rng.choice(delta_choices),) * n
        prices = (0,) * n
        budget = 0
    else:
        deltas = tuple(rng.choice(delta_choices) for _ in range(n))
        prices = tuple(rng.choice(price_choices) for _ in range(n))
        budget = rng.randint(*budget_range)
    return BriberyInstance(
        profile, target, deltas, prices, budget, rule, metric
    )


# A satisfiable occurrence-balanced formula on 3 variables and 4 clauses:
# every literal appears in exactly two clauses.  Frozen as the fixture for
# all gadget tests.
FROZEN_SAT = Sat3B2Instance(
    3,
    (
        (1, 2, 3),
        (1, -2, -3),
        (-1, 2, -3),
        (-1, -2, 3),
    ),
)

FROZEN_SAT_DIMACS = """\
c frozen occurrence-balanced fixture
p cnf 3 4
1 2 3 0
1 -2 -3 0
-1 2 -3 0
-1 -2 3 0
"""


def render_3b2(sat: Sat3B2Instance) -> str:
    """DIMACS CNF text of `sat`, which `parse_and_validate_3b2` reads back."""
    lines = [f"p cnf {sat.num_vars} {sat.num_clauses}"]
    lines.extend(" ".join(str(lit) for lit in cl) + " 0" for cl in sat.clauses)
    return "\n".join(lines) + "\n"


_BRUTE_FORCE_LIMIT = 20


def satisfying_assignments(sat: Sat3B2Instance) -> list[tuple[int, ...]]:
    """All satisfying assignments, by brute force (small instances only)."""
    if sat.num_vars > _BRUTE_FORCE_LIMIT:
        raise GadgetError(
            f"brute-force search limited to {_BRUTE_FORCE_LIMIT} variables"
        )
    return [
        a for a in product((0, 1), repeat=sat.num_vars) if sat.satisfies(a)
    ]


def total_margin_mass(target: WmgTarget) -> int:
    ell = len(target.core_names)
    return sum(
        abs(target.margins[i][j])
        for i in range(ell)
        for j in range(ell)
        if i != j
    )


def lemma_filler_bound(target: WmgTarget) -> int:
    """The (loose) sufficient filler count from the source analysis."""
    ell = len(target.core_names)
    return 10 * target.spacing**2 * ell**2 * total_margin_mass(target) + 1


@pytest.fixture(scope="session")
def frozen_sat() -> Sat3B2Instance:
    return FROZEN_SAT


@pytest.fixture(scope="session")
def gadget_kapp_swap(frozen_sat):
    from localbribery.gadgets import gen_kapproval_swap_gadget

    return gen_kapproval_swap_gadget(frozen_sat, delta_pad=5)


@pytest.fixture(scope="session")
def gadget_kapp_maxdisp(frozen_sat):
    from localbribery.gadgets import gen_kapproval_maxdisp_priced_gadget

    return gen_kapproval_maxdisp_priced_gadget(frozen_sat, k=2, filler_size=3000)


@pytest.fixture(scope="session")
def gadget_borda_maxdisp(frozen_sat):
    from localbribery.gadgets import gen_borda_gadget

    return gen_borda_gadget(frozen_sat, "maxdisp", filler_size=160)


@pytest.fixture(scope="session")
def gadget_borda_swap(frozen_sat):
    from localbribery.gadgets import gen_borda_gadget

    return gen_borda_gadget(frozen_sat, "swap", filler_size=160)


@pytest.fixture(scope="session")
def gadget_borda_footrule(frozen_sat):
    from localbribery.gadgets import gen_borda_gadget

    return gen_borda_gadget(frozen_sat, "footrule", filler_size=160)
