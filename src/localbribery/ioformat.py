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
    names = [t.strip() for t in text.split(">")]
    if names == [""]:
        raise FormatError(lineno, "empty preference")
    lookup = {name: a for a, name in enumerate(alts.names)}
    order = []
    seen = set()
    for name in names:
        a = lookup.get(name)
        if a is None:
            raise FormatError(lineno, f"unknown alternative {name!r}")
        if a in seen:
            raise FormatError(lineno, f"duplicate alternative {name!r}")
        seen.add(a)
        order.append(a)
    missing = [alts.names[a] for a in range(alts.m) if a not in seen]
    if missing:
        raise FormatError(
            lineno, f"preference is missing alternative {missing[0]!r}"
        )
    return Preference(tuple(order))


def render_preference(pref: Preference, alts: AlternativeSet) -> str:
    return " > ".join(alts.names[a] for a in pref.order)


def _parse_voter_line(
    body: str, alts: AlternativeSet, lineno: int
) -> tuple[int, int, Preference]:
    head, sep, order_text = body.partition(":")
    if not sep:
        raise FormatError(lineno, "voter line needs ': <preference>'")
    attrs: dict[str, int] = {}
    for tok in head.split():
        key, eq, val = tok.partition("=")
        if not eq or key not in ("delta", "price"):
            raise FormatError(lineno, f"unexpected voter attribute {tok!r}")
        if key in attrs:
            raise FormatError(lineno, f"repeated voter attribute '{key}='")
        try:
            attrs[key] = int(val)
        except ValueError:
            raise FormatError(lineno, f"non-integer {key} {val!r}")
    if "delta" not in attrs:
        raise FormatError(lineno, "voter line missing delta=")
    return attrs["delta"], attrs.get("price", 0), parse_preference_text(
        order_text, alts, lineno
    )


def parse_instance(text: str) -> BriberyInstance:
    rule = metric = alts = target = budget = None
    voters: list[tuple[int, int, Preference]] = []
    header_line: dict[str, int] = {}  # header key -> line it was set on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, body = line.partition(":")
        key, body = key.strip(), body.strip()
        if not sep:
            raise FormatError(lineno, "expected 'key: value'")
        if key in header_line:
            raise FormatError(
                lineno, f"repeated '{key}:' line (first on line {header_line[key]})"
            )
        if key != "voter":
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
            except (KeyError, ValueError):
                raise FormatError(lineno, f"unknown alternative {body!r}")
        elif key == "budget":
            try:
                budget = int(body)
            except ValueError:
                raise FormatError(lineno, f"non-integer budget {body!r}")
        elif key == "voter":
            if alts is None:
                raise FormatError(lineno, "voter before alternatives")
            voters.append(_parse_voter_line(body, alts, lineno))
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
    if not voters:
        raise FormatError(None, "instance has no voters")
    unpriced = budget is None
    if unpriced and any(p != 0 for _, p, _ in voters):
        raise FormatError(
            None, "voter prices given but no budget line (unpriced form)"
        )
    profile = Profile(alts, tuple(p for _, _, p in voters))
    try:
        return BriberyInstance(
            profile,
            target=target,
            deltas=tuple(d for d, _, _ in voters),
            prices=tuple(p for _, p, _ in voters),
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
