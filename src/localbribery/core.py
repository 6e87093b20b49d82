"""Alternatives, preferences, profiles and winner determination.

Alternatives are identified by index everywhere; names only matter at the
I/O boundary.  All types are immutable values and all operations are pure.
The package's value types are plain classes on one base, `Record`, which
compares, hashes and shows them by their fields.  Unlike `dataclasses`, it
writes no methods at import, so a CLI call does not pay for generating them.

Winners are scored by two scorers kept apart.  `winners`, and so
`is_unique_winner` and the verifier, builds the co-winner set from plain
lists: scores, level rows counted one level at a time (so no wide profile
makes an m*m table), or the margin table, counted voter by voter; it uses
nothing of the oracle's packed layout.  The oracle's scorer is `tally`:
one additive tally per rule, held as one int of fixed-width fields, so a
voter's order contributes one int and summing voters is an integer add.
A field is one guard bit wider than the largest value a decided sum can
take: n*alpha_1 for a positional rule, n for a level count, and 2n + 1
for a pairwise margin, which is biased by n so that no field is negative.
`tally` owns that layout and every rule choice made on it: the predicate
"c is the unique winner" of a sum, which compares many fields at once
with word-parallel arithmetic, and `bounds`, which builds the oracle's
bound table and gives it with the predicate that cuts on it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from operator import attrgetter, getitem, lshift, lt, sub

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
    read, and then kept in this descriptor's place: only Copeland reads
    it, so no other rule imports ``fractions``."""

    def __get__(self, rule, cls):
        from fractions import Fraction

        cls.copeland_alpha = Fraction(1, 2)
        return cls.copeland_alpha


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


# -- tallies packed into one integer -----------------------------------------
#
# Entry i of a tally is the field of bits [i*w, (i+1)*w).  Its top bit, the
# guard, is clear in every decided sum, so a sum never carries from one field
# into the next, and one subtraction compares every field with one value
# (Lamport, "Multiple byte processing with full-word instructions", CACM
# 18(8), 1975).


def ones(w: int, count: int) -> int:
    """1 in each of `count` fields of width w."""
    return ((1 << w * count) - 1) // ((1 << w) - 1)


def _width(largest: int) -> int:
    """The field width of sums up to `largest`: one guard bit more."""
    return largest.bit_length() + 1


# -- decisions on a summed tally ---------------------------------------------


def _top(scores: list) -> set[int]:
    """The alternatives with the greatest score."""
    best = max(scores)
    return {x for x, s in enumerate(scores) if s == best}


def _alone_top(c: int, m: int, w: int):
    """Whether field c of m fields of width w is above every other.  c's
    value, replicated into every field, is taken from every field with its
    guard set, and the guard survives exactly in the fields at least c's:
    in c's own alone when c is above the rest."""
    every = ones(w, m)
    guards, field, shift = every << w - 1, (1 << w) - 1, c * w
    own = 1 << shift + w - 1

    def alone(total: int) -> bool:
        at_least = (total | guards) - (total >> shift & field) * every
        return at_least & guards == own

    return alone


def _first_majority(n: int, bucklin: bool, rows) -> set[int]:
    """Co-winners from the level rows of n voters: row k counts, for each
    alternative, the voters that rank it within their first k+1 places.

    Rows are read in order up to the first level at which some alternative
    has a strict majority (count > n/2; every alternative has one at the
    last level).  The simplified Bucklin winners are all alternatives with
    a majority there, the Bucklin winners those with the most approvals
    there."""
    for row in rows:
        if 2 * max(row) > n:
            if bucklin:
                return _top(row)
            return {y for y, v in enumerate(row) if 2 * v > n}


def _alone_best(rule: VotingRule, n: int, c: int, m: int, w: int):
    """Whether c's maximin or Copeland score, read from row c of the
    margins biased by n (`tally`), is above every rival's; stops at the
    first rival row that reaches it.  Maximin: c's row minimum, then the
    guards of every field below it, tested row by row.  Copeland with
    alpha = p/q scores q*wins + p*ties, which orders the scores exactly,
    from the guards of the fields above n (wins) and at least n (wins and
    ties), counted row by row.

    Rows include their diagonal, as in `winners`, which changes no
    comparison.  A zero margin there is one more Copeland tie in every
    row, and it lowers a row's minimum only if every other entry is
    positive: x is then the Condorcet winner, and every rival's minimum is
    negative.  The oracle's bound tables hold a margin of n + 1 there, one
    more Copeland win in every row and never a minimum."""
    span = w * m
    every = ones(w, m * m)
    guards, field = every << w - 1, (1 << w) - 1
    row_guards = ones(w, m) << w - 1
    own = c * span
    rivals = [x * span for x in range(m) if x != c]
    if rule.tag == MAXIMIN:
        columns = range(own, own + span, w)

        def alone(total: int) -> bool:
            best = min([total >> s & field for s in columns])
            below = (total | guards) - best * every & guards ^ guards
            for s in rivals:
                if not below >> s & row_guards:
                    return False
            return True

        return alone
    if rule.tag != COPELAND:
        raise ValueError(f"unknown rule tag {rule.tag!r}")
    # q*wins + p*ties = (q - p)*wins + p*(wins + ties)
    a = rule.copeland_alpha
    win_w, tie_w = a.denominator - a.numerator, a.numerator
    above, level = (n + 1) * every, n * every

    def alone(total: int) -> bool:
        total |= guards
        wins, ties = total - above & guards, total - level & guards
        best = (win_w * (wins >> own & row_guards).bit_count()
                + tie_w * (ties >> own & row_guards).bit_count())
        for s in rivals:
            if (win_w * (wins >> s & row_guards).bit_count()
                    + tie_w * (ties >> s & row_guards).bit_count()) >= best:
                return False
        return True

    return alone


def _reach(order: tuple[int, ...], c: int, r: int) -> list[int]:
    """Over a ball whose members move each alternative at most r places
    from `order` (`metrics.rank_reach`): each rival's worst place, and
    c's best."""
    m = len(order)
    reach = [0] * m
    for j, y in enumerate(order):
        reach[y] = min(m - 1, j + r)
    reach[c] = max(0, order.index(c) - r)
    return reach


def _bounds(gain, alone, base: int = 0):
    """`bounds(voters)`: the oracle's bound table from each voter's
    (order, rank reach, precedence reach) (`metrics.rank_reach` and
    `precedence_reach` of its metric and radius), with `alone`, the
    predicate that cuts on it.  Entry i is `base` plus the sum of `gain`
    over voters i.., so entry n is `base`."""

    def bounds(voters) -> tuple[list[int], object]:
        gains = [gain(*voter) for voter in reversed(voters)]
        return list(accumulate(gains, initial=base))[::-1], alone

    return bounds


def tally(rule: VotingRule, n: int, m: int, c: int):
    """The additive tally of `rule` over n voters and m alternatives, packed
    into one int, as (width, contribution, alone, bounds).
    `contribution(order)` is one voter's tally; `alone` says whether c is
    the unique winner of a sum of n of them; `bounds` builds the oracle's
    bound table (`_bounds`) from each voter's optimistic gain over its
    ball: the most c can get in its own fields and the least each rival
    can be held to everywhere else, without the ball.  It gives the table
    with the predicate that cuts on it: `alone`, under which c only gains
    as its entries grow and the rivals' shrink, so no cut leaf could have
    won; but simplified Bucklin's under Bucklin, which also cuts Bucklin
    winners that share their level with a rival they out-approve.

    - positional rules: scores, field y;
    - Bucklin and simplified Bucklin: top-(k+1) level counts, field
      k*m + y;
    - maximin and Copeland: pairwise margins biased by n, field x*m + y.
      The bound tables' diagonal holds the margin n + 1, above every
      margin, so that it is never a row's minimum and counts as the same
      Copeland win in every row; the width leaves room for it.
    """
    alpha = score_vector(rule, m)
    if alpha is not None:
        a = alpha.alpha
        w = _width(n * a[0])
        table = [[x << w * y for y in range(m)] for x in a[:m - a.count(0)]]
        alone = _alone_top(c, m, w)

        def gain(order, rank, precedence):
            # Alpha is non-increasing, so the best place scores the most.
            reach = _reach(order, c, rank)
            return sum(a[j] << w * y for y, j in enumerate(reach))

        return (w, lambda q: sum(map(getitem, table, q)), alone,
                _bounds(gain, alone))
    if rule.tag not in (SBUCKLIN, BUCKLIN):
        w = _width(2 * n + 1)
        twos = [2 << w * y for y in range(m)]
        row_at = [w * m * x for x in range(m)]
        diagonal = ones(w * (m + 1), m)
        rest = (1 << w * m * m) - 1 ^ diagonal * ((1 << w) - 1)
        alone = _alone_best(rule, n, c, m, w)

        def contribution(q: tuple[int, ...]) -> int:
            # 2 where q ranks x above y, 0 below and 1 on the diagonal.
            total, below = diagonal, 0
            for x in reversed(q):
                total += below << row_at[x]
                below += twos[x]
            return total

        def gain(order, rank, t):
            # Some member ranks x above y iff place[x] - place[y] <= t.  The
            # target gains +1 over y when it can be put above y; a rival x
            # loses 1 to y when y can be put above x.  after[j] is 2, the
            # biased +1, in the field of every alternative placed j or
            # later.  The diagonal is 1, as in a contribution.
            after = [0] * (m + 1)
            for j in range(m - 1, -1, -1):
                after[j] = after[j + 1] + twos[order[j]]
            rows = [0] * m
            for j, x in enumerate(order):
                rows[x] = after[min(m, j + t + 1)]
            rows[c] = after[max(0, order.index(c) - t)]
            total = sum(map(lshift, rows, row_at))
            return (total & rest) + diagonal

        return (w, contribution, alone,
                _bounds(gain, alone, (n + 1) * diagonal))
    w = _width(n)
    span = w * m
    # A unit at (k, y) times `levels` is 1 at (k.., y).
    levels, full, row = ones(span, m), (1 << span * m) - 1, (1 << span) - 1
    row_guards = ones(w, m) << w - 1
    # (total + lift) & guards holds the guard of every field above n/2.
    lift = ((1 << w - 1) - 1 - n // 2) * ones(w, m * m)
    guards = row_guards * levels
    own = 1 << c * w + w - 1
    units = [[1 << w * (k * m + y) for y in range(m)] for k in range(m)]

    def alone_at_majority(top):
        def alone(total: int) -> bool:
            # The lowest guard set is in the first level with a majority;
            # every field of a sum of n voters has one at the last level.
            # There simplified Bucklin (no `top`) asks for c's guard alone,
            # and Bucklin, whose greatest count has a majority there, for
            # c's count above the rest.
            majority = total + lift & guards
            s = ((majority & -majority).bit_length() - 1) // span * span
            if top:
                return top(total >> s & row)
            return majority >> s & row_guards == own

        return alone

    sbucklin = alone_at_majority(None)
    alone = (alone_at_majority(_alone_top(c, m, w))
             if rule.tag == BUCKLIN else sbucklin)

    def gain(order, rank, precedence):
        # y is within the first k+1 places of every member iff its worst
        # place is at most k, of some member (c) iff its best is.
        reach = _reach(order, c, rank)
        return sum([units[j][y] for y, j in enumerate(reach)]) * levels & full

    return (w, lambda q: sum(map(getitem, units, q)) * levels & full,
            alone, _bounds(gain, sbucklin))


def level_rows(profile: Profile):
    """The level rows of a profile, built one level at a time, so a wide
    profile never holds an m*m table.  Each row is the same list, updated
    in place."""
    counts = [0] * profile.m
    for k in range(profile.m):
        for pref in profile.prefs:
            counts[pref.order[k]] += 1
        yield counts


def weighted_majority_graph(profile: Profile) -> tuple[tuple[int, ...], ...]:
    """The pairwise margins as rows: [x][y] = #(x above y) - #(y above x),
    counted voter by voter as the alternatives each ranks below each."""
    m = profile.m
    below = [[0] * m for _ in range(m)]
    for order in map(_ORDER, profile.prefs):
        for j, x in enumerate(order, 1):
            row = below[x]
            for y in order[j:]:
                row[y] += 1
    return tuple(map(tuple, map(map, [sub] * m, below, zip(*below))))


def winners(profile: Profile, rule: VotingRule) -> set[int]:
    """Co-winner set under the given rule; ties are never broken here."""
    alpha = score_vector(rule, profile.m)
    if alpha is not None:
        return _top(positional_scores(profile, alpha))
    if rule.tag in (SBUCKLIN, BUCKLIN):
        return _first_majority(
            profile.n, rule.tag == BUCKLIN, level_rows(profile)
        )
    rows = weighted_majority_graph(profile)
    if rule.tag == MAXIMIN:
        return _top([min(row) for row in rows])
    if rule.tag != COPELAND:
        raise ValueError(f"unknown rule tag {rule.tag!r}")
    a = rule.copeland_alpha  # q*wins + p*ties, for alpha = p/q
    return _top([a.denominator * sum(v > 0 for v in row)
                 + a.numerator * row.count(0) for row in rows])


def is_unique_winner(profile: Profile, rule: VotingRule, c: int) -> bool:
    """Whether c is the unique winner: `winners(profile, rule) == {c}`.
    The verifier decides by the co-winner set, so it shares no decision
    with the oracle's packed predicates."""
    return winners(profile, rule) == {c}
