"""Bribery instances, outcomes, and the witness verifier."""

from __future__ import annotations

from itertools import compress
from operator import attrgetter, ne

from .core import (
    Profile, Record, VotingRule, is_unique_winner, score_vector,
)
from .metrics import METRICS, distance


class BriberyInstance(Record):
    __slots__ = _fields = (
        "profile", "target", "deltas", "prices", "budget", "rule", "metric"
    )

    def __init__(
        self, profile: Profile, target: int, deltas: tuple[int, ...],
        prices: tuple[int, ...], budget: int, rule: VotingRule, metric: str,
    ):
        self._assign(profile, target, deltas, prices, budget, rule, metric)
        n = self.profile.n
        if len(self.deltas) != n or len(self.prices) != n:
            raise ValueError("deltas and prices must have one entry per voter")
        if min(self.deltas) < 0 or min(self.prices) < 0:
            raise ValueError("deltas and prices must be non-negative")
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if not 0 <= self.target < self.profile.m:
            raise ValueError("target out of range")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        score_vector(self.rule, self.profile.m)

    @property
    def n(self) -> int:
        return self.profile.n

    @property
    def m(self) -> int:
        return self.profile.m

    def is_unpriced_uniform(self) -> bool:
        """True for the plain distance-constrained form: uniform delta,
        all prices zero, zero budget."""
        return (
            len(set(self.deltas)) == 1
            and not any(self.prices)
            and self.budget == 0
        )


class BriberyOutcome(Record):
    _fields = ("decision", "witness", "bribed", "total_price")
    witness = bribed = total_price = None

    def __init__(
        self, decision: bool, witness: Profile | None = None,
        bribed: frozenset[int] | None = None, total_price: int | None = None,
    ):
        self._assign(decision, witness, bribed, total_price)

    @staticmethod
    def no() -> "BriberyOutcome":
        return BriberyOutcome(False)


NOT_UNIQUE_WINNER = "target is not the unique winner"
_ORDER = attrgetter("order")


class WitnessError(Exception):
    """A solver produced a witness that fails verification; internal bug."""


def check_witness(
    instance: BriberyInstance, witness: Profile
) -> tuple[bool, str, frozenset[int], int]:
    """Verify a proposed bribed profile against all four conditions.

    Returns (ok, reason, bribed set, total price).  The bribed set is taken
    to be exactly the voters whose preference changed.  One distance is
    taken per distinct (original, witness) pair of preference objects, told
    apart by identity, while the voters are still checked one by one.
    """
    if witness.n != instance.n or witness.m != instance.m:
        return False, "witness has the wrong shape", frozenset(), 0
    before, after = instance.profile.prefs, witness.prefs
    # Preferences are equal exactly when their orders are; comparing the
    # orders directly keeps the scan over the voters in C.
    changed = map(ne, map(_ORDER, after), map(_ORDER, before))
    bribed = frozenset(compress(range(instance.n), changed))
    moved: dict[tuple[int, int], int] = {}  # (id, id) -> distance
    for i in bribed:
        key = (id(before[i]), id(after[i]))
        d = moved.get(key)
        if d is None:
            d = moved[key] = distance(instance.metric, before[i], after[i])
        if d > instance.deltas[i]:
            return (
                False,
                f"voter {i} moved distance {d} > delta {instance.deltas[i]}",
                bribed,
                0,
            )
    price = sum(instance.prices[i] for i in bribed)
    if price > instance.budget:
        return False, f"price {price} exceeds budget {instance.budget}", bribed, price
    if not is_unique_winner(witness, instance.rule, instance.target):
        return False, NOT_UNIQUE_WINNER, bribed, price
    return True, "", bribed, price


def verified_yes(instance: BriberyInstance, witness: Profile) -> BriberyOutcome:
    """Gate for every solver YES: verify or die."""
    ok, reason, bribed, price = check_witness(instance, witness)
    if not ok:
        raise WitnessError(reason)
    return BriberyOutcome(True, witness, bribed, price)
