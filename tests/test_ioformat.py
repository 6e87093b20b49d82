"""Instance file parsing, rendering, and round-trip identity."""

import random

import pytest

from localbribery.core import (
    AlternativeSet,
    Preference,
    ScoreVector,
    VotingRule,
)
from localbribery.ioformat import (
    FormatError,
    parse_instance,
    parse_preference_once,
    parse_preference_text,
    parse_rule,
    render_instance,
    render_preference,
    render_rule,
)

SWAP_FIXTURE = """\
rule: kapproval 2
metric: swap
alternatives: a b c x
target: x
budget: 10
voter: delta=2 price=1 : a > b > c > x
voter: delta=1 price=0 : x > a > b > c
"""

FOOTRULE_FIXTURE = """\
rule: borda
metric: footrule
alternatives: a b c
target: b
budget: 0
voter: delta=2 price=0 : a > b > c
voter: delta=2 price=0 : b > c > a
voter: delta=0 price=0 : c > a > b
"""

MAXDISP_FIXTURE = """\
rule: sbucklin
metric: maxdisp
alternatives: p q r s
target: q
budget: 5
voter: delta=3 price=2 : p > q > r > s
voter: delta=1 price=1 : s > r > q > p
"""


@pytest.mark.parametrize(
    "text", [SWAP_FIXTURE, FOOTRULE_FIXTURE, MAXDISP_FIXTURE]
)
def test_round_trip_identity(text):
    inst = parse_instance(text)
    rendered = render_instance(inst)
    assert parse_instance(rendered) == inst
    # canonical: rendering is a fixpoint
    assert render_instance(parse_instance(rendered)) == rendered


def test_parse_values():
    inst = parse_instance(SWAP_FIXTURE)
    assert inst.rule == VotingRule("kapproval", k=2)
    assert inst.metric == "swap"
    assert inst.profile.alternatives.names == ("a", "b", "c", "x")
    assert inst.target == 3
    assert inst.budget == 10
    assert inst.deltas == (2, 1)
    assert inst.prices == (1, 0)
    assert inst.profile.prefs[0].order == (0, 1, 2, 3)
    assert inst.profile.prefs[1].order == (3, 0, 1, 2)


def test_comments_and_blank_lines():
    text = "# header comment\n\n" + SWAP_FIXTURE.replace(
        "budget: 10", "budget: 10  # trailing comment"
    )
    assert parse_instance(text) == parse_instance(SWAP_FIXTURE)


def test_missing_budget_defaults_to_unpriced():
    text = """\
rule: plurality
metric: swap
alternatives: a b
target: b
voter: delta=1 : a > b
"""
    inst = parse_instance(text)
    assert inst.budget == 0
    assert inst.prices == (0,)
    assert inst.is_unpriced_uniform()


def test_price_without_budget_rejected():
    text = """\
rule: plurality
metric: swap
alternatives: a b
target: b
voter: delta=1 price=3 : a > b
"""
    with pytest.raises(FormatError):
        parse_instance(text)


@pytest.mark.parametrize(
    "mutation,fragment",
    [
        (("a > b > c > x", "a > b > x"), "missing alternative"),
        (("a > b > c > x", "a > a > c > x"), "duplicate"),
        (("target: x", "target: zz"), "unknown alternative"),
        (("metric: swap", "metric: hamming"), "unknown metric"),
        (("rule: kapproval 2", "rule: kapproval"), "exactly one argument"),
        (("budget: 10", "budget: lots"), "non-integer budget"),
        (("delta=2", "delta=two"), "non-integer delta"),
        (("voter: delta=1 price=0 :", "voter: delta=1 price=0"), "voter line"),
        (("rule: kapproval 2", "voter: delta=1 : a > b > c > x"),
         "line 1: voter before alternatives"),
        (("rule: kapproval 2", "target: x"),
         "line 1: target before alternatives"),
        (("alternatives: a b c x", "alternatives:  # none"),
         "line 3: empty alternative list"),
    ],
)
def test_line_diagnostics(mutation, fragment):
    old, new = mutation
    bad = SWAP_FIXTURE.replace(old, new, 1)
    with pytest.raises(FormatError) as err:
        parse_instance(bad)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "extra,fragment",
    [
        ("rule: plurality", "repeated 'rule:' line (first on line 1)"),
        ("metric: footrule", "repeated 'metric:' line (first on line 2)"),
        ("alternatives: x y z w",
         "repeated 'alternatives:' line (first on line 3)"),
        ("target: a", "repeated 'target:' line (first on line 4)"),
        ("budget: 3", "repeated 'budget:' line (first on line 5)"),
        ("voter: delta=1 delta=2 : a > b > c > x",
         "repeated voter attribute 'delta='"),
        ("voter: price=1 delta=1 price=1 : a > b > c > x",
         "repeated voter attribute 'price='"),
    ],
    ids=["rule", "metric", "alternatives", "target", "budget", "delta",
         "price"],
)
def test_repeats_rejected(extra, fragment):
    # Appended after the voters, so the repeat is on line 8.
    with pytest.raises(FormatError) as err:
        parse_instance(SWAP_FIXTURE + extra + "\n")
    assert str(err.value) == f"line 8: {fragment}"
    assert err.value.lineno == 8


def test_error_names_line_number():
    bad = SWAP_FIXTURE.replace("a > b > c > x", "a > b > x", 1)
    with pytest.raises(FormatError) as err:
        parse_instance(bad)
    assert "line 6" in str(err.value)


def test_repeated_voter_texts_share_one_preference():
    text = SWAP_FIXTURE + (
        "voter: delta=0 : a > b > c > x\n"
        "voter: delta=1 price=2 :   a > b > c > x  # padded\n"
        "voter: delta=1 : a>b>c>x\n"
    )
    table = {}
    prefs = parse_instance(text, table).profile.prefs
    assert prefs[0] is prefs[2] is prefs[3]
    assert prefs[4] == prefs[0] and prefs[4] is not prefs[0]
    assert table == {
        "a > b > c > x": prefs[0], "x > a > b > c": prefs[1], "a>b>c>x": prefs[4]
    }
    # A second parse through the same table reuses its objects.
    again = parse_instance(text, table).profile.prefs
    assert all(p is q for p, q in zip(again, prefs))
    assert parse_instance(text).profile.prefs[0] is not prefs[0]


def test_shared_table_keeps_no_failed_text():
    alts = AlternativeSet(("a", "b"))
    table = {}
    for lineno in (3, 9):
        with pytest.raises(FormatError, match=f"^line {lineno}: unknown"):
            parse_preference_once(" a > zz ", alts, lineno, table)
    assert table == {}
    assert parse_preference_once(" b > a", alts, 1, table) is table["b > a"]


def _error_of(text):
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    return str(err.value), err.value.lineno


# The voter lines below are appended to SWAP_FIXTURE, so the first is line 8.
@pytest.mark.parametrize(
    "voters,message,lineno",
    [
        ("voter\n", "expected 'key: value'", 8),
        ("voter \t\n", "expected 'key: value'", 8),
        ("voter:\n", "voter line needs ': <preference>'", 8),
        ("voter: delta=1 a > b > c > x\n",
         "voter line needs ': <preference>'", 8),
        ("voter: delta=1 # price=2 : a > b > c > x\n",
         "voter line needs ': <preference>'", 8),
        ("voter: delta=1 : a > b # > c > x\n",
         "preference is missing alternative 'c'", 8),
        ("voter: delta=1 : #\n", "empty preference", 8),
        ("voter: delta = 1 : a > b > c > x\n",
         "unexpected voter attribute 'delta'", 8),
        ("voter: delta=1 price : a > b > c > x\n",
         "unexpected voter attribute 'price'", 8),
        ("voter: Delta=1 : a > b > c > x\n",
         "unexpected voter attribute 'Delta=1'", 8),
        ("voter: price=1 : a > b > c > x\n", "voter line missing delta=", 8),
        ("voter: : a > b > c > x\n", "voter line missing delta=", 8),
        ("voter: delta=1 : a > b > c > x\nvoter: delta= : a > b > c > x\n",
         "non-integer delta ''", 9),
        ("voter: delta=1 price=x1 : a > b > c > x\n",
         "non-integer price 'x1'", 8),
    ],
    ids=["bare", "bare-padded", "no-head", "no-second-colon",
         "comment-hides-colon", "comment-cuts-preference", "comment-only",
         "spaced-equals", "attribute-without-value", "capitalized-key",
         "no-delta", "empty-head", "empty-delta-second-line",
         "non-integer-price"],
)
def test_voter_line_diagnostics(voters, message, lineno):
    assert _error_of(SWAP_FIXTURE + voters) == (f"line {lineno}: {message}",
                                                 lineno)


@pytest.mark.parametrize("bad_head", ["delta=x", "delta=1 delta=1", "x=1"])
def test_repeated_bad_voter_head_reports_its_own_line(bad_head):
    # A head that fails is not remembered: the same bad head on a later
    # line fails there too, and a good line between them changes nothing.
    good = "voter: delta=1 price=0 : a > b > c > x\n"
    bad = f"voter: {bad_head} : a > b > c > x\n"
    first = _error_of(SWAP_FIXTURE + bad + good + bad)
    assert first[1] == 8
    assert _error_of(SWAP_FIXTURE + good + bad + bad) == (
        first[0].replace("line 8", "line 9"), 9
    )
    assert _error_of(SWAP_FIXTURE + good + good + bad) == (
        first[0].replace("line 8", "line 10"), 10
    )


def test_tabs_and_spacing_around_separators():
    spaced = SWAP_FIXTURE.replace(
        "voter: delta=2 price=1 : a > b > c > x",
        "voter\t:\tdelta=2   price=1\t:a>b >  c\t>x  ",
    ).replace(
        "voter: delta=1 price=0 : x > a > b > c",
        "  voter :delta=1\tprice=0:  x >a> b > c",
    ).replace("budget: 10", "budget\t:  10\t")
    assert parse_instance(spaced) == parse_instance(SWAP_FIXTURE)


def test_unpriced_and_priced_heads_mixed():
    voters = (
        "voter: delta=1 : a > b > c > x\n"
        "voter: delta=1 price=0 : a > b > c > x\n"
        "voter: price=0 delta=1 : b > a > c > x\n"
        "voter: delta=1 : b > a > c > x\n"
    )
    head = SWAP_FIXTURE.split("voter:")[0]
    priced = parse_instance(head + voters.replace("price=0", "price=3", 1))
    assert priced.deltas == (1, 1, 1, 1)
    assert priced.prices == (0, 3, 0, 0)
    unpriced = parse_instance(head.replace("budget: 10\n", "") + voters)
    assert unpriced.prices == (0, 0, 0, 0)
    assert unpriced.budget == 0
    assert _error_of(
        head.replace("budget: 10\n", "") + voters.replace("price=0", "price=3")
    ) == ("voter prices given but no budget line (unpriced form)", None)


def test_missing_sections():
    with pytest.raises(FormatError, match="missing rule"):
        parse_instance("metric: swap\nalternatives: a b\ntarget: a\n"
                       "voter: delta=0 : a > b\n")
    with pytest.raises(FormatError, match="no voters"):
        parse_instance("rule: borda\nmetric: swap\nalternatives: a b\n"
                       "target: a\n")


@pytest.mark.parametrize(
    "text,rule",
    [
        ("plurality", VotingRule("plurality")),
        ("veto", VotingRule("veto")),
        ("kapproval 3", VotingRule("kapproval", k=3)),
        ("borda", VotingRule("borda")),
        (
            "positional 4,2,1,0",
            VotingRule("positional", alpha=ScoreVector((4, 2, 1, 0))),
        ),
        ("maximin", VotingRule("maximin")),
        ("bucklin", VotingRule("bucklin")),
        ("sbucklin", VotingRule("sbucklin")),
    ],
)
def test_rule_round_trip(text, rule):
    assert parse_rule(text) == rule
    assert parse_rule(render_rule(rule)) == rule


def test_copeland_rule_fraction():
    rule = parse_rule("copeland 1/3")
    assert rule.copeland_alpha.numerator == 1
    assert rule.copeland_alpha.denominator == 3
    assert parse_rule(render_rule(rule)) == rule
    assert parse_rule("copeland") == parse_rule("copeland 1/2")


def _reference_parse(text, alts, lineno):
    # The reference: the name-by-name loop the parser replaced.
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


def _outcome(parse, text, alts):
    try:
        return parse(text, alts, 7)
    except FormatError as e:
        return str(e)


def _mutants(rng, names):
    """Preference token lists: one valid, then one of each kind of fault."""
    tokens = list(names)
    rng.shuffle(tokens)
    m = len(tokens)
    i, j = rng.randrange(m), rng.randrange(m)
    yield tokens
    yield tokens[:i] + ["zz"] + tokens[i:]  # unknown, one too many
    yield tokens[:i] + ["zz"] + tokens[i + 1:]  # unknown in place
    yield tokens[:i] + [tokens[j]] + tokens[i:]  # duplicate
    yield tokens[:i] + [tokens[j]] + tokens[i + 1:]  # duplicate in place
    yield tokens[:i] + tokens[i + 1:]  # missing
    yield tokens[: rng.randrange(m)]  # prefix, possibly empty
    yield tokens + [""]  # trailing '>'
    yield [""] + tokens  # leading '>'
    yield tokens[:i] + ["", "zz"] + tokens[i:]  # empty before unknown
    yield tokens[:i] + ["zz", tokens[j]] + tokens[i:]  # unknown, duplicate
    yield tokens[:i] + [tokens[j], "zz"] + tokens[i:]  # duplicate, unknown
    yield tokens[:i] + tokens[i + 1:] + [tokens[i]] * 2  # duplicate at end
    yield [tokens[i] + " " + tokens[j]] + tokens  # two names, no '>'


def _join(rng, tokens):
    # Separators with tabs and extra spaces, and padded ends.
    seps = [" > ", ">", " >\t", "\t>  ", "  >  "]
    text = tokens[0] if tokens else ""
    for t in tokens[1:]:
        text += rng.choice(seps) + t
    return rng.choice(["", " ", "\t"]) + text + rng.choice(["", " ", "\t "])


@pytest.mark.parametrize("seed", range(8))
def test_parse_preference_equals_reference(seed):
    rng = random.Random(seed)
    for m in (1, 2, 3, 5, 9, 40, rng.randint(100, 600), 3000):
        alts = AlternativeSet(tuple(f"a{i}" for i in rng.sample(range(m), m)))
        for tokens in _mutants(rng, alts.names):
            # Random separators mostly take the tolerant path; canonical
            # ones take the split on " > ", which must accept and reject
            # exactly as the reference does.
            for text in (_join(rng, tokens), " > ".join(tokens)):
                want = _outcome(_reference_parse, text, alts)
                assert _outcome(parse_preference_text, text, alts) == want, text
                if isinstance(want, Preference):
                    assert parse_preference_text(
                        render_preference(want, alts), alts
                    ) == want
    for text in ("", " ", "\t", ">", " > "):
        alts = AlternativeSet(("a", "b"))
        assert _outcome(parse_preference_text, text, alts) == _outcome(
            _reference_parse, text, alts
        )
