"""The four text formats, each read with line diagnostics: an instance
(`parse_instance`, whose canonical inverse is `render_instance`), a
witness (`parse_witness`), a weighted-majority-graph target
(`parse_wmg_target`) and a (3,B2)-SAT formula in DIMACS CNF
(`parse_and_validate_3b2`).  README.md ("Text formats") gives their
syntax.  Every reader raises only `FormatError`.

The first three are `key: value` lines, read by one line reader,
`key_lines`.  A key that may appear once is an error when repeated, not a
silent override, and so is a repeated voter attribute.  The DIMACS reader
has its own loop: its comment and clause lines are not `key: value`.

A preference line in the canonical `a > b > c` form, which
`render_preference` writes, is mapped through the set's name table by one
split on `" > "`; any other spacing falls back to a split on `>` with each
name stripped, and only a line that fails both is scanned for its first
problem.  Within one call, a preference text is parsed once: `parse_instance`
keeps a table from each stripped text to its `Preference`, which a caller
may own and pass on to `parse_witness`, so that the `pref:` lines of a
witness that repeat their voter's line cost one dict lookup and give the
instance's own object.  Likewise each distinct attribute text of a voter
line (`delta=2 price=1`, before the line's second `:`) is read once per
call.  Neither table keeps a text that failed, so every bad line reports
its own line number.  `parse_instance` reads voter lines inside its one
loop over the lines: they are most of an instance.
"""

from __future__ import annotations

from collections.abc import Container, Iterator
from fractions import Fraction
from operator import itemgetter

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
from .gadgets import GadgetError, Sat3B2Instance, WmgTarget
from .metrics import METRICS
from .problem import BriberyInstance


class FormatError(ValueError):
    def __init__(self, lineno: int | None, message: str):
        where = f"line {lineno}: " if lineno is not None else ""
        super().__init__(where + message)
        self.lineno = lineno


def key_lines(
    text: str, once: Container[str] = ()
) -> Iterator[tuple[int, str, str]]:
    """`(lineno, key, body)` of each `key: value` line of `text`, lazily, so
    that an earlier line's error comes first.  `#` starts a comment, blank
    lines are skipped, `key` is stripped and `body` is not.  A line with no
    `:`, and a second line of a key in `once`, raise `FormatError`."""
    first: dict[str, int] = {}  # once-only key -> line it was set on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, sep, body = line.partition(":")
        if not sep:
            raise FormatError(lineno, "expected 'key: value'")
        key = key.strip()
        if key in once:
            if key in first:
                raise FormatError(
                    lineno,
                    f"repeated '{key}:' line (first on line {first[key]})",
                )
            first[key] = lineno
        yield lineno, key, body


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
    order = pref.order
    if len(order) == 1:  # one index makes itemgetter return a bare name
        return alts.names[order[0]]
    return " > ".join(itemgetter(*order)(alts.names))


_INSTANCE_HEADERS = frozenset(
    ("rule", "metric", "alternatives", "target", "budget")
)


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
    for lineno, key, body in key_lines(text, _INSTANCE_HEADERS):
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
    # One line per distinct (preference object, delta, price): a gadget's
    # repeated voters then share one line object, and a line is never held
    # twice, as a preference's text and inside its line.
    voter_lines: dict[tuple[int, int, int], str] = {}
    for pref, d, p in zip(
        instance.profile.prefs, instance.deltas, instance.prices
    ):
        key = (id(pref), d, p)
        line = voter_lines.get(key)
        if line is None:
            line = voter_lines[key] = (
                f"voter: delta={d} price={p} : "
                + render_preference(pref, alts)
            )
        lines.append(line)
    lines.append("")  # the final newline, without a copy of the text
    return "\n".join(lines)


def parse_witness(
    text: str, instance: BriberyInstance, table: dict[str, Preference]
) -> Profile:
    """The bribed profile of witness `text`, whose `pref:` lines are parsed
    through `table`, the preference table `instance` was parsed with."""
    alts = instance.profile.alternatives
    prefs = []
    for lineno, key, body in key_lines(text):
        if key == "pref":
            prefs.append(parse_preference_once(body, alts, lineno, table))
        elif key not in ("decision", "cost", "bribed"):
            raise FormatError(lineno, f"unknown key {key!r}")
    if len(prefs) != instance.n:
        raise FormatError(
            None,
            f"witness has {len(prefs)} preferences, instance has "
            f"{instance.n} voters",
        )
    return Profile(alts, tuple(prefs))


def _integer(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(lineno, f"expected an integer, got {text!r}")


def parse_wmg_target(text: str) -> WmgTarget:
    """The weighted-majority-graph target of `text`.  The target's own
    checks (`WmgTarget`) are reported without a line."""
    core = spacing = fillers = None
    margin_lines: list[tuple[int, str, str, int]] = []
    for lineno, key, body in key_lines(text, ("core", "spacing", "fillers")):
        body = body.strip()
        if key == "core":
            core = tuple(body.split())
        elif key == "spacing":
            spacing = _integer(body, lineno)
        elif key == "fillers":
            fillers = _integer(body, lineno)
        elif key == "margin":
            parts = body.split()
            if len(parts) != 3:
                raise FormatError(lineno, "margin needs '<a> <b> <value>'")
            margin_lines.append(
                (lineno, parts[0], parts[1], _integer(parts[2], lineno))
            )
        else:
            raise FormatError(lineno, f"unknown key {key!r}")
    if core is None or spacing is None:
        raise FormatError(None, "target file needs core: and spacing: lines")
    index = {name: i for i, name in enumerate(core)}
    ell = len(core)
    margins = [[0] * ell for _ in range(ell)]
    pair_line: dict[frozenset, int] = {}  # pair -> line it was set on
    for lineno, a, b, v in margin_lines:
        for name in (a, b):
            if name not in index:
                raise FormatError(
                    lineno,
                    f"margin references unknown core alternative {name!r}",
                )
        if a == b:
            raise FormatError(lineno, f"margin pairs {a!r} with itself")
        pair = frozenset((a, b))
        if pair in pair_line:
            raise FormatError(
                lineno,
                f"repeated margin for {a!r} and {b!r} "
                f"(first on line {pair_line[pair]})",
            )
        pair_line[pair] = lineno
        margins[index[a]][index[b]] = v
        margins[index[b]][index[a]] = -v
    try:
        return WmgTarget(
            core, tuple(tuple(r) for r in margins), spacing, fillers
        )
    except GadgetError as e:
        raise FormatError(None, str(e))


def parse_and_validate_3b2(text: str) -> Sat3B2Instance:
    """The (3,B2)-SAT formula of DIMACS CNF `text`.  The formula's own checks
    (`Sat3B2Instance`) are reported without a line."""
    num_vars = num_clauses = header_line = None
    clauses: list[tuple[int, int, int]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header_line is not None:
                raise FormatError(
                    lineno,
                    f"repeated 'p cnf' line (first on line {header_line})",
                )
            header_line = lineno
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError(lineno, "malformed problem line")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError(lineno, "malformed problem line")
            continue
        if num_vars is None:
            raise FormatError(lineno, "clause before 'p cnf' header")
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError(lineno, "non-integer literal")
        for lit in lits:
            if lit == 0:
                if len(pending) != 3:
                    raise FormatError(
                        lineno, f"clause has arity {len(pending)}, expected 3"
                    )
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise FormatError(None, "unterminated clause at end of input")
    if num_vars is None:
        raise FormatError(None, "missing 'p cnf' header")
    if len(clauses) != num_clauses:
        raise FormatError(
            None,
            f"header announces {num_clauses} clauses, found {len(clauses)}",
        )
    try:
        return Sat3B2Instance(num_vars, tuple(clauses))
    except GadgetError as e:
        raise FormatError(None, str(e))
