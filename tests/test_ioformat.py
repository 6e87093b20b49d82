"""Instance file parsing, rendering, and round-trip identity."""

import pytest

from localbribery.core import ScoreVector, VotingRule
from localbribery.ioformat import (
    FormatError,
    parse_instance,
    parse_rule,
    render_instance,
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
