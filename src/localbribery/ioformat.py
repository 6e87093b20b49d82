"""Line-oriented instance file format.

```
rule: kapproval 2
metric: swap
alternatives: a b c x
target: x
budget: 10
voter: delta=2 price=1 : a > b > c > x
```

`#` starts a comment; blank lines are ignored.  A missing `budget:` line
selects the unpriced form (all prices 0, budget 0).  Every key but
`voter:` may appear at most once, and so may each voter attribute; a
repeat is an error, not a silent override.  `render_instance` is
the canonical inverse of `parse_instance`.

A preference line in the canonical `a > b > c` form, which
`render_preference` writes, is mapped through the set's name table by one
split on `" > "`; any other spacing falls back to a split on `>` with each
name stripped, and only a line that fails both is scanned for its first
problem.  Within one call, a preference text is parsed once: `parse_instance`
keeps a table from each stripped text to its `Preference`, which a caller
may own and pass on, so that the `pref:` lines of a witness that repeat
their voter's line cost one dict lookup and give the instance's own object.
Likewise each distinct attribute text of a voter line (`delta=2 price=1`,
before the line's second `:`) is read once per call.  Neither table keeps
a text that failed, so every bad line reports its own line number.
`parse_instance` reads voter lines inside its one loop over the lines:
they are most of an instance.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    BUCKLIN,
    BORDA,
    COPELAND,
    KAPPROVAL,
    MAXIMIN,
    PLURALITY,
    POSITIONAL,
    SBUCKLIN,
    VETO,
    AlternativeSet,
    Preference,
    Profile,
    ScoreVector,
    VotingRule,
)
from .metrics import METRICS
from .problem import BriberyInstance


class FormatError(ValueError):
    def __init__(self, lineno: int | None, message: str):
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(where + message)
        self.lineno = lineno


_SIMPLE_RULES = (PLURALITY, VETO, BORDA, MAXIMIN, BUCKLIN, SBUCKLIN)


def parse_rule(text: str, lineno: int | None = None) -> VotingRule:
    parts = text.split()
    if not parts:
        raise FormatError(lineno, "empty rule")
    tag, args = parts[0], parts[1:]
    if tag in _SIMPLE_RULES:
        if args:
            raise FormatError(lineno, f"rule {tag} takes no arguments")
        return VotingRule(tag)
    if tag == KAPPROVAL:
        if len(args) != 1:
            raise FormatError(lineno, "kapproval takes exactly one argument")
        try:
            return VotingRule(KAPPROVAL, k=int(args[0]))
        except ValueError as e:
            raise FormatError(lineno, f"bad kapproval rule: {e}")
    if tag == POSITIONAL:
        if len(args) != 1:
            raise FormatError(
                lineno, "positional takes one comma-separated score list"
            )
        try:
            alpha = ScoreVector(tuple(int(x) for x in args[0].split(",")))
        except ValueError as e:
            raise FormatError(lineno, f"bad score vector: {e}")
        return VotingRule(POSITIONAL, alpha=alpha)
    if tag == COPELAND:
        if len(args) > 1:
            raise FormatError(lineno, "copeland takes at most one argument")
        try:
            a = Fraction(args[0]) if args else Fraction(1, 2)
            return VotingRule(COPELAND, copeland_alpha=a)
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError(lineno, f"bad copeland tie value: {e}")
    raise FormatError(lineno, f"unknown rule {tag!r}")


def render_rule(rule: VotingRule) -> str:
    if rule.tag == KAPPROVAL:
        return f"{KAPPROVAL} {rule.k}"
    if rule.tag == POSITIONAL:
        return f"{POSITIONAL} " + ",".join(str(x) for x in rule.alpha.alpha)
    if rule.tag == COPELAND:
        return f"{COPELAND} {rule.copeland_alpha}"
    return rule.tag


def parse_preference_text(
    text: str, alts: AlternativeSet, lineno: int | None = None
) -> Preference:
    lookup = alts.lookup
    # Names have no '>' and no surrounding whitespace, so the canonical
    # split maps every token to a name exactly when the tolerant split does,
    # and to the same names.
    try:
        order = tuple(map(lookup.__getitem__, text.strip().split(" > ")))
    except KeyError:
        try:
            order = tuple([lookup[t.strip()] for t in text.split(">")])
        except KeyError:
            order = ()
    if len(order) == alts.m == len(set(order)):
        return Preference.trusted(order)
    raise FormatError(lineno, _preference_problem(text, alts))


def parse_preference_once(
    text: str,
    alts: AlternativeSet,
    lineno: int | None,
    table: dict[str, Preference],
) -> Preference:
    """`parse_preference_text` through `table`, a caller-owned map from
    stripped text to its preference over `alts`: equal texts give the same
    object and are parsed once.  A text that fails is not stored, so every
    bad line reports its own line number."""
    text = text.strip()
    pref = table.get(text)
    if pref is None:
        pref = table[text] = parse_preference_text(text, alts, lineno)
    return pref


def _preference_problem(text: str, alts: AlternativeSet) -> str:
    """The first problem of a preference line that does not parse."""
    names = [t.strip() for t in text.split(">")]
    if names == [""]:
        return "empty preference"
    seen = set()
    for name in names:
        if name not in alts.lookup:
            return f"unknown alternative {name!r}"
        if name in seen:
            return f"duplicate alternative {name!r}"
        seen.add(name)
    missing = next(name for name in alts.names if name not in seen)
    return f"preference is missing alternative {missing!r}"


def render_preference(pref: Preference, alts: AlternativeSet) -> str:
    names = alts.names
    return " > ".join([names[a] for a in pref.order])


def parse_instance(
    text: str, table: dict[str, Preference] | None = None
) -> BriberyInstance:
    """The instance of `text`.  `table` is the preference table of
    `parse_preference_once`; pass one to share the voters' preferences with
    later parses over the same alternatives."""
    if table is None:
        table = {}
    rule = metric = alts = target = budget = None
    deltas: list[int] = []
    prices: list[int] = []
    prefs: list[Preference] = []
    # Voter attribute text -> (delta, price), for texts that parsed.
    heads: dict[str, tuple[int, int]] = {}
    header_line: dict[str, int] = {}  # header key -> line it was set on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, sep, body = line.partition(":")
        if not sep:
            raise FormatError(lineno, "expected 'key: value'")
        key = key.strip()
        if key == "voter":
            if alts is None:
                raise FormatError(lineno, "voter before alternatives")
            head, sep, pref_text = body.partition(":")
            if not sep:
                raise FormatError(lineno, "voter line needs ': <preference>'")
            delta_price = heads.get(head)
            if delta_price is None:
                attrs: dict[str, int] = {}
                for tok in head.split():
                    name, eq, val = tok.partition("=")
                    if not eq or name not in ("delta", "price"):
                        raise FormatError(
                            lineno, f"unexpected voter attribute {tok!r}"
                        )
                    if name in attrs:
                        raise FormatError(
                            lineno, f"repeated voter attribute '{name}='"
                        )
                    try:
                        attrs[name] = int(val)
                    except ValueError:
                        raise FormatError(lineno, f"non-integer {name} {val!r}")
                if "delta" not in attrs:
                    raise FormatError(lineno, "voter line missing delta=")
                delta_price = heads[head] = (
                    attrs["delta"], attrs.get("price", 0)
                )
            deltas.append(delta_price[0])
            prices.append(delta_price[1])
            prefs.append(parse_preference_once(pref_text, alts, lineno, table))
            continue
        body = body.strip()
        if key in header_line:
            raise FormatError(
                lineno, f"repeated '{key}:' line (first on line {header_line[key]})"
            )
        header_line[key] = lineno
        if key == "rule":
            rule = parse_rule(body, lineno)
        elif key == "metric":
            if body not in METRICS:
                raise FormatError(lineno, f"unknown metric {body!r}")
            metric = body
        elif key == "alternatives":
            names = tuple(body.split())
            if not names:
                raise FormatError(lineno, "empty alternative list")
            try:
                alts = AlternativeSet(names)
            except ValueError as e:
                raise FormatError(lineno, str(e))
        elif key == "target":
            if alts is None:
                raise FormatError(lineno, "target before alternatives")
            try:
                target = alts.index(body)
            except KeyError:
                raise FormatError(lineno, f"unknown alternative {body!r}")
        elif key == "budget":
            try:
                budget = int(body)
            except ValueError:
                raise FormatError(lineno, f"non-integer budget {body!r}")
        else:
            raise FormatError(lineno, f"unknown key {key!r}")
    for field, name in (
        (rule, "rule"),
        (metric, "metric"),
        (alts, "alternatives"),
        (target, "target"),
    ):
        if field is None:
            raise FormatError(None, f"missing {name}: line")
    if not prefs:
        raise FormatError(None, "instance has no voters")
    unpriced = budget is None
    if unpriced and any(prices):
        raise FormatError(
            None, "voter prices given but no budget line (unpriced form)"
        )
    profile = Profile(alts, tuple(prefs))
    try:
        return BriberyInstance(
            profile,
            target=target,
            deltas=tuple(deltas),
            prices=tuple(prices),
            budget=0 if unpriced else budget,
            rule=rule,
            metric=metric,
        )
    except ValueError as e:
        raise FormatError(None, str(e))


def render_instance(instance: BriberyInstance) -> str:
    alts = instance.profile.alternatives
    lines = [
        f"rule: {render_rule(instance.rule)}",
        f"metric: {instance.metric}",
        "alternatives: " + " ".join(alts.names),
        f"target: {alts.names[instance.target]}",
        f"budget: {instance.budget}",
    ]
    for i in range(instance.n):
        lines.append(
            f"voter: delta={instance.deltas[i]} price={instance.prices[i]} : "
            + render_preference(instance.profile.prefs[i], alts)
        )
    return "\n".join(lines) + "\n"
