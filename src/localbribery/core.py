"""Alternatives, preferences, profiles and winner determination.

Alternatives are identified by index everywhere; names only matter at the
I/O boundary.  All types are immutable values and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence


@dataclass(frozen=True)
class AlternativeSet:
    """An ordered set of distinct, non-empty names without ``>`` and
    without leading or trailing whitespace, which the preference parser
    strips."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) < 1:
            raise ValueError("need at least one alternative")
        if len(self.lookup) != len(self.names):
            raise ValueError("alternative names must be distinct")
        for name in self.names:
            if not name:
                raise ValueError("empty alternative name")
            if ">" in name:
                raise ValueError(f"alternative name {name!r} contains '>'")
            if name != name.strip():
                raise ValueError(
                    f"alternative name {name!r} has leading or trailing "
                    "whitespace"
                )

    @property
    def m(self) -> int:
        return len(self.names)

    @cached_property
    def lookup(self) -> dict[str, int]:
        """Name to index, built once per set."""
        return {name: a for a, name in enumerate(self.names)}

    def index(self, name: str) -> int:
        return self.lookup[name]


@dataclass(frozen=True)
class Preference:
    """A total order over 0..m-1, best first."""

    order: tuple[int, ...]

    def __post_init__(self):
        if not self.order:
            raise ValueError("need at least one alternative")
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order must be a permutation of 0..m-1")

    @classmethod
    def trusted(cls, order: tuple[int, ...]) -> "Preference":
        """A preference over `order` without the permutation check, for
        callers that have already proved it: the parser, which checked the
        length and index set, and the ball generators, which place every
        alternative exactly once.  Equal to, and hashes like, the checked
        form."""
        self = object.__new__(cls)
        object.__setattr__(self, "order", order)
        return self

    @property
    def m(self) -> int:
        return len(self.order)

    def position(self, a: int) -> int:
        """1-based rank of alternative a."""
        try:
            return self.order.index(a) + 1
        except ValueError:
            raise ValueError(f"unknown alternative index {a}") from None


@dataclass(frozen=True)
class Profile:
    alternatives: AlternativeSet
    prefs: tuple[Preference, ...]

    def __post_init__(self):
        if len(self.prefs) < 1:
            raise ValueError("need at least one voter")
        m = self.alternatives.m
        for p in self.prefs:
            if p.m != m:
                raise ValueError("preference length differs from alternative count")

    @property
    def n(self) -> int:
        return len(self.prefs)

    @property
    def m(self) -> int:
        return self.alternatives.m


@dataclass(frozen=True)
class ScoreVector:
    """Non-increasing positional score vector with alpha_1 > alpha_m."""

    alpha: tuple[int, ...]

    def __post_init__(self):
        a = self.alpha
        if any(x < 0 for x in a):
            raise ValueError("scores must be non-negative")
        if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
            raise ValueError("score vector must be non-increasing")
        if a[0] <= a[-1]:
            raise ValueError("score vector must distinguish top from bottom")


def approval_vector(m: int, k: int) -> ScoreVector:
    if not 1 <= k <= m - 1:
        raise ValueError(f"k-approval needs 1 <= k <= m-1, got k={k}, m={m}")
    return ScoreVector((1,) * k + (0,) * (m - k))


def borda_vector(m: int) -> ScoreVector:
    return ScoreVector(tuple(range(m - 1, -1, -1)))


@dataclass(frozen=True)
class WeightedMajorityGraph:
    """Pairwise margin matrix D[x][y] = #(x above y) - #(y above x)."""

    margins: tuple[tuple[int, ...], ...]

    def __getitem__(self, xy: tuple[int, int]) -> int:
        x, y = xy
        return self.margins[x][y]


PLURALITY = "plurality"
VETO = "veto"
KAPPROVAL = "kapproval"
POSITIONAL = "positional"
BORDA = "borda"
MAXIMIN = "maximin"
COPELAND = "copeland"
BUCKLIN = "bucklin"
SBUCKLIN = "sbucklin"


@dataclass(frozen=True)
class VotingRule:
    """One of the eight supported rules plus generic positional vectors.

    ``k`` is the approval prefix length for k-approval, ``alpha`` the
    explicit vector for positional, ``copeland_alpha`` the tie value for
    Copeland (kept as an exact rational; no floats anywhere).
    """

    tag: str
    k: int | None = None
    alpha: ScoreVector | None = None
    copeland_alpha: Fraction = field(default=Fraction(1, 2))

    def __post_init__(self):
        if self.tag == KAPPROVAL and self.k is None:
            raise ValueError("kapproval requires k")
        if self.tag == POSITIONAL and self.alpha is None:
            raise ValueError("positional requires a score vector")
        if self.tag == COPELAND and not 0 <= self.copeland_alpha <= 1:
            raise ValueError("copeland alpha must be in [0,1]")

    def validate_for(self, m: int) -> None:
        score_vector(self, m)


def score_vector(rule: VotingRule, m: int) -> ScoreVector | None:
    """The positional score vector of ``rule`` over m alternatives, or None
    for a rule that is not positional.  Raises ValueError when the rule is
    undefined for m."""
    tag = rule.tag
    if tag in (PLURALITY, VETO, BORDA) and m < 2:
        raise ValueError(f"{tag} needs at least 2 alternatives, got m={m}")
    if tag == PLURALITY:
        return approval_vector(m, 1)
    if tag == VETO:
        return approval_vector(m, m - 1)
    if tag == KAPPROVAL:
        return approval_vector(m, rule.k)
    if tag == BORDA:
        return borda_vector(m)
    if tag == POSITIONAL:
        if len(rule.alpha.alpha) != m:
            raise ValueError("score vector length differs from alternative count")
        return rule.alpha
    return None


def positional_scores(profile: Profile, alpha: ScoreVector) -> list[int]:
    if len(alpha.alpha) != profile.m:
        raise ValueError("score vector length differs from alternative count")
    # alpha is non-negative and non-increasing, so its nonzero entries are
    # exactly a prefix; the positions past it add nothing.
    nonzero = alpha.alpha[: profile.m - alpha.alpha.count(0)]
    scores = [0] * profile.m
    for pref in profile.prefs:
        for a, x in zip(pref.order, nonzero):
            scores[a] += x
    return scores


def weighted_majority_graph(profile: Profile) -> WeightedMajorityGraph:
    m = profile.m
    wins = [[0] * m for _ in range(m)]
    for pref in profile.prefs:
        for i, x in enumerate(pref.order):
            for y in pref.order[i + 1:]:
                wins[x][y] += 1
    margins = tuple(
        tuple(wins[x][y] - wins[y][x] for y in range(m)) for x in range(m)
    )
    return WeightedMajorityGraph(margins)


def _top_counts(profile: Profile, level: int) -> list[int]:
    """How many voters rank each alternative within the first `level` positions."""
    counts = [0] * profile.m
    for pref in profile.prefs:
        for a in pref.order[:level]:
            counts[a] += 1
    return counts


def sbucklin_scores(profile: Profile) -> list[int]:
    """Per alternative, the least level at which it has a strict majority.

    "More than half" is read literally: count > n/2.  Every alternative
    reaches majority by level m, so the score is always defined.
    """
    n = profile.n
    scores = [None] * profile.m
    remaining = profile.m
    counts = [0] * profile.m
    for level in range(1, profile.m + 1):
        for pref in profile.prefs:
            counts[pref.order[level - 1]] += 1
        for a in range(profile.m):
            if scores[a] is None and 2 * counts[a] > n:
                scores[a] = level
                remaining -= 1
        if remaining == 0:
            break
    return scores


def _argmax_set(values: Sequence) -> set[int]:
    best = max(values)
    return {i for i, v in enumerate(values) if v == best}


def winners(profile: Profile, rule: VotingRule) -> set[int]:
    """Co-winner set under the given rule; ties are never broken here."""
    m = profile.m
    alpha = score_vector(rule, m)
    if alpha is not None:
        return _argmax_set(positional_scores(profile, alpha))
    tag = rule.tag
    if tag == MAXIMIN:
        D = weighted_majority_graph(profile)
        if m == 1:
            return {0}
        return _argmax_set(
            [min(D[x, y] for y in range(m) if y != x) for x in range(m)]
        )
    if tag == COPELAND:
        D = weighted_majority_graph(profile)
        a = rule.copeland_alpha
        scores = []
        for x in range(m):
            wins = sum(1 for y in range(m) if y != x and D[x, y] > 0)
            ties = sum(1 for y in range(m) if y != x and D[x, y] == 0)
            scores.append(wins + a * ties)
        return _argmax_set(scores)
    if tag == SBUCKLIN:
        scores = sbucklin_scores(profile)
        best = min(scores)
        return {a for a in range(m) if scores[a] == best}
    if tag == BUCKLIN:
        scores = sbucklin_scores(profile)
        k = min(scores)
        counts = _top_counts(profile, k)
        best = max(counts[a] for a in range(m) if scores[a] == k)
        return {a for a in range(m) if scores[a] == k and counts[a] == best}
    raise ValueError(f"unknown rule tag {tag!r}")


def is_unique_winner(profile: Profile, rule: VotingRule, c: int) -> bool:
    return winners(profile, rule) == {c}
