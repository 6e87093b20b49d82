"""Alternatives, preferences, profiles and winner determination.

Alternatives are identified by index everywhere; names only matter at the
I/O boundary.  All types are immutable values and all operations are pure.
The package's value types are plain classes on one base, `Record`, which
compares, hashes and shows them by their fields.  Unlike `dataclasses`, it
writes no methods at import, so a CLI call does not pay for generating them.

Each rule is scored by one additive tally (`tally`): one voter's order
contributes a flat list, and a decision maps the sum over n voters to the
co-winner set.  `winners` sums a profile's tally and decides; the oracle
carries the same partial sums down its search and decides each leaf with
the same decision.  The level rules read their tally one level row at a
time, so `winners` builds those rows cumulatively and never holds an m*m
table.
"""

from __future__ import annotations

from functools import cached_property, partial
from operator import add, attrgetter, lt

_setattr = object.__setattr__


class Record:
    """A value made of the fields named in ``_fields``, in order.

    Two records are equal when they are of the same class and their fields
    are; a record hashes as the tuple of its fields and shows as
    ``Name(field=value, ...)``.  Records are frozen: a constructor sets its
    fields with ``_assign``, and any other assignment or deletion raises
    AttributeError.  A mutable record class sets ``__setattr__``,
    ``__delattr__`` and ``__hash__`` back to ``object``'s and ``None``.
    A record class lists its fields in ``__slots__`` too, unless it keeps
    defaults as class attributes or needs a ``__dict__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # Copies and pickles carry the fields and set them without the checks.
    def __getstate__(self):
        return self._values()

    def __setstate__(self, state):
        self._assign(*state)


class AlternativeSet(Record):
    """An ordered set of distinct, non-empty names without ``>`` and
    without leading or trailing whitespace, which the preference parser
    strips."""

    _fields = ("names",)  # no slots: ``lookup`` is cached in the __dict__

    def __init__(self, names: tuple[str, ...]):
        self._assign(names)
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


class Preference(Record):
    """A total order over 0..m-1, best first."""

    __slots__ = _fields = ("order",)

    def __init__(self, order: tuple[int, ...]):
        _setattr(self, "order", order)
        if not self.order:
            raise ValueError("need at least one alternative")
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order must be a permutation of 0..m-1")

    @classmethod
    def trusted(cls, order: tuple[int, ...]) -> "Preference":
        """A preference over `order` without the permutation check, for
        callers that have already proved it: the parser, which checked the
        length and index set, the ball generators, which place every
        alternative exactly once, the gadgets' filler-preference builder,
        whose construction makes the order a permutation exactly when it
        has m entries, the k-approval swap builder, which checks each head
        for repeats, and the gadget witness builders, which only permute
        positions.  Equal to, and hashes like, the checked form."""
        self = object.__new__(cls)
        _setattr(self, "order", order)
        return self

    @property
    def m(self) -> int:
        return len(self.order)


_ORDER = attrgetter("order")


class Profile(Record):
    __slots__ = _fields = ("alternatives", "prefs")

    def __init__(
        self, alternatives: AlternativeSet, prefs: tuple[Preference, ...]
    ):
        self._assign(alternatives, prefs)
        if len(self.prefs) < 1:
            raise ValueError("need at least one voter")
        if set(map(len, map(_ORDER, self.prefs))) != {self.alternatives.m}:
            raise ValueError("preference length differs from alternative count")

    @property
    def n(self) -> int:
        return len(self.prefs)

    @property
    def m(self) -> int:
        return self.alternatives.m


def map_distinct(fn, prefs) -> list:
    """`[fn(p) for p in prefs]`, calling `fn` once per distinct object.

    The gadget generators and the instance parser hand out one preference
    object per distinct order, so a profile repeats a few objects many
    times.  Objects are told apart by identity: no order is hashed, and
    equal orders held in different objects are each mapped once."""
    done: dict[int, object] = {}
    out = []
    for p in prefs:
        key = id(p)
        if key not in done:
            done[key] = fn(p)
        out.append(done[key])
    return out


class ScoreVector(Record):
    """Non-increasing positional score vector with alpha_1 > alpha_m."""

    __slots__ = _fields = ("alpha",)

    def __init__(self, alpha: tuple[int, ...]):
        _setattr(self, "alpha", alpha)
        a = self.alpha
        if a and min(a) < 0:
            raise ValueError("scores must be non-negative")
        if any(map(lt, a, a[1:])):
            raise ValueError("score vector must be non-increasing")
        if a[0] <= a[-1]:
            raise ValueError("score vector must distinguish top from bottom")


def approval_vector(m: int, k: int) -> ScoreVector:
    if not 1 <= k <= m - 1:
        raise ValueError(f"k-approval needs 1 <= k <= m-1, got k={k}, m={m}")
    return ScoreVector((1,) * k + (0,) * (m - k))


def borda_vector(m: int) -> ScoreVector:
    return ScoreVector(tuple(range(m - 1, -1, -1)))


PLURALITY = "plurality"
VETO = "veto"
KAPPROVAL = "kapproval"
POSITIONAL = "positional"
BORDA = "borda"
MAXIMIN = "maximin"
COPELAND = "copeland"
BUCKLIN = "bucklin"
SBUCKLIN = "sbucklin"


class _Half:
    """The default Copeland tie value, ``Fraction(1, 2)``, made when first
    read: only Copeland reads it, so no other rule imports ``fractions``."""

    def __get__(self, rule, cls):
        from fractions import Fraction

        return Fraction(1, 2)


class VotingRule(Record):
    """One of the eight supported rules plus generic positional vectors.

    ``k`` is the approval prefix length for k-approval, ``alpha`` the
    explicit vector for positional, ``copeland_alpha`` the tie value for
    Copeland (kept as an exact rational; no floats anywhere), 1/2 when
    None is given.
    """

    _fields = ("tag", "k", "alpha", "copeland_alpha")
    k = alpha = None
    copeland_alpha = _Half()

    def __init__(
        self,
        tag: str,
        k: int | None = None,
        alpha: ScoreVector | None = None,
        copeland_alpha: Fraction | None = None,
    ):
        self._assign(tag, k, alpha)
        if copeland_alpha is not None:
            _setattr(self, "copeland_alpha", copeland_alpha)
        if self.tag == KAPPROVAL and self.k is None:
            raise ValueError("kapproval requires k")
        if self.tag == POSITIONAL and self.alpha is None:
            raise ValueError("positional requires a score vector")
        if self.tag == COPELAND and not 0 <= self.copeland_alpha <= 1:
            raise ValueError("copeland alpha must be in [0,1]")


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


# -- one voter's contribution to a rule's tally ------------------------------


def _scores_of(alpha: tuple[int, ...], m: int, q: tuple[int, ...]) -> list:
    # [y] is the score q gives y.
    d = [0] * m
    for y, x in zip(q, alpha):
        d[y] = x
    return d


def _levels_of(m: int, q: tuple[int, ...]) -> list[int]:
    # Flat m*m: [k*m + y] is 1 iff y is within q's first k+1 places.
    d = [0] * (m * m)
    for pos, y in enumerate(q):
        for k in range(pos, m):
            d[k * m + y] = 1
    return d


def _margins_of(m: int, q: tuple[int, ...]) -> list[int]:
    # Flat m*m: [x*m + y] is +1 if q ranks x above y, -1 if below.
    d = [0] * (m * m)
    for i, x in enumerate(q):
        for y in q[i + 1:]:
            d[x * m + y] = 1
            d[y * m + x] = -1
    return d


# -- decisions on a summed tally ---------------------------------------------


def _top(scores: list) -> set[int]:
    """The alternatives with the greatest score."""
    best = max(scores)
    if scores.count(best) == 1:
        return {scores.index(best)}
    return {x for x, s in enumerate(scores) if s == best}


def _first_majority(n: int, bucklin: bool, rows) -> set[int]:
    """Co-winners from the level rows of n voters: row k counts, for each
    alternative, the voters that rank it within their first k+1 places.

    Rows are read in order up to the first level at which some alternative
    has a strict majority (count > n/2; every alternative has one at the
    last level).  The simplified Bucklin winners are all alternatives with
    a majority there, the Bucklin winners those with the most approvals
    there."""
    for row in rows:
        most = max(row)
        if 2 * most > n:
            if bucklin:
                return _top(row)
            return {y for y, v in enumerate(row) if 2 * v > n}


def _copeland_row(win_w: int, tie_w: int, row: list[int]) -> int:
    return win_w * sum(map((0).__lt__, row)) + tie_w * row.count(0)


def _pair_row_score(rule: VotingRule):
    """The score of x under maximin or Copeland, from row x of the margins
    (flat [x*m + y]).  Maximin takes the row's minimum.  Copeland with
    alpha = p/q takes q*wins + p*ties, which orders the scores exactly.

    The row includes its diagonal, which changes no comparison.  A zero
    there is one more Copeland tie in every row, and it lowers a row's
    minimum only if every other entry is positive: x is then the Condorcet
    winner, and every rival's minimum is negative.  The oracle's bound
    table holds n + 1 there, one more Copeland win in every row and never
    a minimum."""
    if rule.tag == MAXIMIN:
        return min
    if rule.tag == COPELAND:
        a = rule.copeland_alpha
        return partial(_copeland_row, a.denominator, a.numerator)
    raise ValueError(f"unknown rule tag {rule.tag!r}")


def tally(rule: VotingRule, n: int, m: int):
    """The additive tally of `rule` over n voters and m alternatives, as
    (contribution, decide).  `contribution(order)` is one voter's flat
    list; `decide` maps the sum of n contributions to the co-winner set.

    - positional rules: scores, [y];
    - Bucklin and simplified Bucklin: top-(k+1) level counts, [k*m + y];
    - maximin and Copeland: pairwise margins, [x*m + y].
    """
    alpha = score_vector(rule, m)
    if alpha is not None:
        return partial(_scores_of, alpha.alpha, m), _top
    rows = [slice(x * m, (x + 1) * m) for x in range(m)]
    if rule.tag in (SBUCKLIN, BUCKLIN):
        decide = partial(_first_majority, n, rule.tag == BUCKLIN)
        return (
            partial(_levels_of, m),
            lambda levels: decide(map(levels.__getitem__, rows)),
        )
    score = _pair_row_score(rule)
    return (
        partial(_margins_of, m),
        lambda margins: _top(list(map(score, map(margins.__getitem__, rows)))),
    )


def _summed(profile: Profile, contribution) -> list[int]:
    """The sum of the contributions of a profile's orders."""
    prefs = profile.prefs
    total = contribution(prefs[0].order)
    for pref in prefs[1:]:
        total = list(map(add, total, contribution(pref.order)))
    return total


def _level_rows(profile: Profile):
    """The level rows of a profile, built one level at a time, so a wide
    profile never holds an m*m table.  Each row is the same list, updated
    in place."""
    counts = [0] * profile.m
    for k in range(profile.m):
        for pref in profile.prefs:
            counts[pref.order[k]] += 1
        yield counts


def weighted_majority_graph(profile: Profile) -> tuple[tuple[int, ...], ...]:
    """The pairwise margins as rows: [x][y] = #(x above y) - #(y above x)."""
    m = profile.m
    margins = _summed(profile, partial(_margins_of, m))
    return tuple(tuple(margins[x * m:(x + 1) * m]) for x in range(m))


def winners(profile: Profile, rule: VotingRule) -> set[int]:
    """Co-winner set under the given rule; ties are never broken here."""
    alpha = score_vector(rule, profile.m)
    if alpha is not None:
        return _top(positional_scores(profile, alpha))
    if rule.tag in (SBUCKLIN, BUCKLIN):
        return _first_majority(
            profile.n, rule.tag == BUCKLIN, _level_rows(profile)
        )
    contribution, decide = tally(rule, profile.n, profile.m)
    return decide(_summed(profile, contribution))


def is_unique_winner(profile: Profile, rule: VotingRule, c: int) -> bool:
    return winners(profile, rule) == {c}
