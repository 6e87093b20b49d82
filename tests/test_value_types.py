"""Value semantics of the package's record types: equality, hashing, repr,
immutability, class-level defaults, copies and the first failing check of
each validating constructor.

The hash of a frozen record is the hash of the tuple of its fields, so
sets and dicts of records iterate in the same order whatever the class is
built from."""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from localbribery.core import (
    AlternativeSet,
    Preference,
    Profile,
    ScoreVector,
    VotingRule,
)
from localbribery.flow import FlowEdge, FlowNetwork, FlowResult
from localbribery.gadgets import (
    GadgetError,
    GadgetInstance,
    GadgetWitness,
    Sat3B2Instance,
    WmgTarget,
)
from localbribery.oracle import OracleBudget
from localbribery.problem import BriberyInstance, BriberyOutcome

ALTS = AlternativeSet(("a", "b"))
PROFILE = Profile(ALTS, (Preference((0, 1)), Preference((1, 0))))
PLURALITY = VotingRule("plurality")
INSTANCE = BriberyInstance(PROFILE, 0, (1, 1), (0, 2), 1, PLURALITY, "swap")
SAT = Sat3B2Instance(
    3, ((1, 2, 3), (-1, -2, -3), (1, -2, 3), (-1, 2, -3))
)

# Each case: a record, one unequal to it, and its fields in order.
FROZEN = {
    "AlternativeSet": (ALTS, AlternativeSet(("b", "a")), ("names",)),
    "Preference": (Preference((1, 0, 2)), Preference((0, 1, 2)), ("order",)),
    "Profile": (
        PROFILE,
        Profile(ALTS, (Preference((0, 1)),)),
        ("alternatives", "prefs"),
    ),
    "ScoreVector": (ScoreVector((2, 1, 0)), ScoreVector((2, 0, 0)), ("alpha",)),
    "VotingRule": (
        VotingRule("kapproval", k=2),
        VotingRule("kapproval", k=3),
        ("tag", "k", "alpha", "copeland_alpha"),
    ),
    "FlowEdge": (FlowEdge(0, 1, 0, 2, 3), FlowEdge(0, 1, 0, 2, 4),
                 ("src", "dst", "lb", "cap", "cost")),
    "BriberyInstance": (
        INSTANCE,
        BriberyInstance(PROFILE, 1, (1, 1), (0, 2), 1, PLURALITY, "swap"),
        ("profile", "target", "deltas", "prices", "budget", "rule", "metric"),
    ),
    "BriberyOutcome": (
        BriberyOutcome(True, PROFILE, frozenset({1}), 2),
        BriberyOutcome.no(),
        ("decision", "witness", "bribed", "total_price"),
    ),
    "OracleBudget": (OracleBudget(), OracleBudget(max_nodes=7),
                     ("max_nodes", "max_ball", "time_limit_s")),
    "Sat3B2Instance": (SAT, SAT.self_union(), ("num_vars", "clauses")),
    "WmgTarget": (
        WmgTarget(("a", "b"), ((0, 2), (-2, 0)), 2),
        WmgTarget(("a", "b"), ((0, 2), (-2, 0)), 2, 9),
        ("core_names", "margins", "spacing", "num_fillers"),
    ),
    "GadgetInstance": (
        GadgetInstance("k", INSTANCE, SAT, SAT, (("c", 0),), 3),
        GadgetInstance("k", INSTANCE, SAT, SAT, (("c", 0),), 4),
        ("kind", "instance", "sat", "source_sat", "name_map", "padding"),
    ),
    "GadgetWitness": (
        GadgetWitness(PROFILE, True, frozenset({0})),
        GadgetWitness(PROFILE, False, frozenset({0})),
        ("profile", "satisfies", "bribed"),
    ),
}


def _fields(x, names):
    return tuple(getattr(x, name) for name in names)


def _twin(x, names):
    """A separately built record with the same fields."""
    return type(x)(*_fields(x, names))


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_record_equality_and_hash(name):
    x, other, names = FROZEN[name]
    twin = _twin(x, names)
    assert twin is not x
    assert twin == x and not twin != x
    assert x != other and not x == other
    assert hash(x) == hash(twin) == hash(_fields(x, names))
    assert x != _fields(x, names)  # no equality across classes
    assert x.__eq__(_fields(x, names)) is NotImplemented
    assert {x: 1}[twin] == 1


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_record_refuses_assignment_and_deletion(name):
    x, _, names = FROZEN[name]
    before = repr(x)
    for attr in (names[0], "not_a_field"):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(x, attr, None)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(x, names[0])
    assert repr(x) == before


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_record_survives_copy_and_pickle(name):
    x, _, names = FROZEN[name]
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)
        assert _fields(y, names) == _fields(x, names)


def test_records_repr():
    assert repr(ALTS) == "AlternativeSet(names=('a', 'b'))"
    assert repr(Preference((1, 0))) == "Preference(order=(1, 0))"
    assert repr(Profile(ALTS, (Preference((0, 1)),))) == (
        "Profile(alternatives=AlternativeSet(names=('a', 'b')), "
        "prefs=(Preference(order=(0, 1)),))"
    )
    assert repr(ScoreVector((1, 0))) == "ScoreVector(alpha=(1, 0))"
    assert repr(PLURALITY) == (
        "VotingRule(tag='plurality', k=None, alpha=None, "
        "copeland_alpha=Fraction(1, 2))"
    )
    assert repr(VotingRule("positional", alpha=ScoreVector((1, 0)))) == (
        "VotingRule(tag='positional', k=None, "
        "alpha=ScoreVector(alpha=(1, 0)), copeland_alpha=Fraction(1, 2))"
    )
    assert repr(FlowEdge(0, 1, 0, 2, 3)) == (
        "FlowEdge(src=0, dst=1, lb=0, cap=2, cost=3)"
    )
    assert repr(FlowResult(True, 4, [1, 0])) == (
        "FlowResult(feasible=True, total_cost=4, edge_flow=[1, 0])"
    )
    assert repr(BriberyOutcome.no()) == (
        "BriberyOutcome(decision=False, witness=None, bribed=None, "
        "total_price=None)"
    )
    assert repr(OracleBudget(time_limit_s=1.5)) == (
        "OracleBudget(max_nodes=1000000, max_ball=100000, time_limit_s=1.5)"
    )
    assert repr(WmgTarget(("a", "b"), ((0, 1), (-1, 0)), 2)) == (
        "WmgTarget(core_names=('a', 'b'), margins=((0, 1), (-1, 0)), "
        "spacing=2, num_fillers=None)"
    )
    assert repr(Sat3B2Instance(3, SAT.clauses)) == (
        "Sat3B2Instance(num_vars=3, clauses=((1, 2, 3), (-1, -2, -3), "
        "(1, -2, 3), (-1, 2, -3)))"
    )
    assert repr(GadgetWitness(PROFILE, True, frozenset({0}))) == (
        f"GadgetWitness(profile={PROFILE!r}, satisfies=True, "
        "bribed=frozenset({0}))"
    )
    assert repr(INSTANCE) == (
        f"BriberyInstance(profile={PROFILE!r}, target=0, deltas=(1, 1), "
        f"prices=(0, 2), budget=1, rule={PLURALITY!r}, metric='swap')"
    )
    assert repr(GadgetInstance("k", INSTANCE, SAT, SAT, (), 3)) == (
        f"GadgetInstance(kind='k', instance={INSTANCE!r}, sat={SAT!r}, "
        f"source_sat={SAT!r}, name_map=(), padding=3)"
    )


def test_flow_records_are_mutable_and_unhashable():
    net = FlowNetwork(3, 0, 1)
    assert net.edges == [] and net.edges is not FlowNetwork(3, 0, 1).edges
    assert net.add_edge(0, 2, 0, 1, 0) == 0
    assert repr(net) == (
        "FlowNetwork(num_nodes=3, source=0, sink=1, "
        "edges=[FlowEdge(src=0, dst=2, lb=0, cap=1, cost=0)])"
    )
    edges = [FlowEdge(0, 2, 0, 1, 0)]
    same = FlowNetwork(3, 0, 1, edges)
    assert same.edges is edges
    assert same == net and not same != net
    assert FlowNetwork(3, 0, 2, edges) != net
    result = FlowResult(True, 4, [1, 0])
    assert result == FlowResult(True, 4, [1, 0])
    assert result != FlowResult(True, 5, [1, 0])
    for x in (net, result):
        with pytest.raises(TypeError, match="unhashable"):
            hash(x)
    net.sink = 2
    result.total_cost = 5
    assert (net.sink, result.total_cost) == (2, 5)
    assert copy.deepcopy(net) == net and pickle.loads(pickle.dumps(result)) == result


def test_class_level_defaults():
    assert OracleBudget.max_nodes == 10**6
    assert OracleBudget.max_ball == 10**5
    assert OracleBudget.time_limit_s == 60.0
    assert (VotingRule.k, VotingRule.alpha) == (None, None)
    assert VotingRule.copeland_alpha == Fraction(1, 2)
    assert (BriberyOutcome.witness, BriberyOutcome.bribed) == (None, None)
    assert BriberyOutcome.total_price is None
    assert WmgTarget.num_fillers is None


def test_constructor_defaults():
    assert OracleBudget() == OracleBudget(10**6, 10**5, 60.0)
    rule = VotingRule("copeland")
    assert rule.copeland_alpha == Fraction(1, 2)
    assert type(rule.copeland_alpha) is Fraction
    assert rule == VotingRule("copeland", None, None, Fraction(1, 2))
    assert rule != VotingRule("copeland", copeland_alpha=Fraction(1, 3))
    assert hash(rule) == hash(("copeland", None, None, Fraction(1, 2)))
    assert BriberyOutcome(False) == BriberyOutcome(False, None, None, None)
    assert WmgTarget(("a",), ((0,),), 2).num_fillers is None
    assert Preference.trusted((1, 0)) == Preference((1, 0))
    assert hash(Preference.trusted((1, 0))) == hash(((1, 0),))
    assert ALTS.lookup == {"a": 0, "b": 1} and ALTS.index("b") == 1
    assert ALTS.m == 2 and PROFILE.n == 2 and PROFILE.m == 2
    assert INSTANCE.n == 2 and INSTANCE.m == 2


BAD = [
    (lambda: AlternativeSet(()), ValueError, "need at least one alternative"),
    (lambda: AlternativeSet(("a", "a", "")), ValueError,
     "alternative names must be distinct"),
    (lambda: AlternativeSet(("a", "", "b>c")), ValueError,
     "empty alternative name"),
    (lambda: AlternativeSet(("b>c", " a")), ValueError,
     "alternative name 'b>c' contains '>'"),
    (lambda: AlternativeSet((" a",)), ValueError,
     "alternative name ' a' has leading or trailing whitespace"),
    (lambda: Preference(()), ValueError, "need at least one alternative"),
    (lambda: Preference((0, 0)), ValueError,
     "order must be a permutation of 0..m-1"),
    (lambda: Profile(ALTS, ()), ValueError, "need at least one voter"),
    (lambda: Profile(ALTS, (Preference((0,)),)), ValueError,
     "preference length differs from alternative count"),
    (lambda: ScoreVector((1, -1, 2)), ValueError,
     "scores must be non-negative"),
    (lambda: ScoreVector((1, 2, 0)), ValueError,
     "score vector must be non-increasing"),
    (lambda: ScoreVector((1, 1)), ValueError,
     "score vector must distinguish top from bottom"),
    (lambda: ScoreVector(()), IndexError, "tuple index out of range"),
    (lambda: VotingRule("kapproval"), ValueError, "kapproval requires k"),
    (lambda: VotingRule("positional"), ValueError,
     "positional requires a score vector"),
    (lambda: VotingRule("copeland", copeland_alpha=Fraction(3, 2)),
     ValueError, r"copeland alpha must be in \[0,1\]"),
    (lambda: OracleBudget(time_limit_s=math.nan), ValueError,
     "all oracle limits must be positive and finite"),
    (lambda: OracleBudget(max_nodes=0), ValueError,
     "all oracle limits must be positive and finite"),
    (lambda: OracleBudget(max_ball=math.inf), ValueError,
     "all oracle limits must be positive and finite"),
    (lambda: BriberyInstance(PROFILE, 5, (1,), (0, 0), -1, PLURALITY, "x"),
     ValueError, "deltas and prices must have one entry per voter"),
    (lambda: BriberyInstance(PROFILE, 5, (1, -1), (0, 0), -1, PLURALITY, "x"),
     ValueError, "deltas and prices must be non-negative"),
    (lambda: BriberyInstance(PROFILE, 5, (1, 1), (0, 0), -1, PLURALITY, "x"),
     ValueError, "budget must be non-negative"),
    (lambda: BriberyInstance(PROFILE, 5, (1, 1), (0, 0), 0, PLURALITY, "x"),
     ValueError, "target out of range"),
    (lambda: BriberyInstance(PROFILE, 0, (1, 1), (0, 0), 0, PLURALITY, "x"),
     ValueError, "unknown metric 'x'"),
    (lambda: BriberyInstance(
        Profile(AlternativeSet(("a",)), (Preference((0,)),)), 0, (1,), (0,),
        0, PLURALITY, "swap"),
     ValueError, "plurality needs at least 2 alternatives, got m=1"),
    (lambda: Sat3B2Instance(0, ((1, 2),)), GadgetError,
     "variable count must be positive"),
    (lambda: Sat3B2Instance(3, ((1, 2, 3), (1, 2))), GadgetError,
     "clause 2 has arity 2, expected 3"),
    (lambda: Sat3B2Instance(3, ((1, 4, 0),)), GadgetError,
     "clause 1 references invalid literal 4"),
    (lambda: Sat3B2Instance(3, ((1, -1, 2),)), GadgetError,
     r"clause 1 uses variable x1 twice \(duplicate or tautological\)"),
    (lambda: Sat3B2Instance(3, ((1, 2, 3),)), GadgetError,
     "literal x1 occurs 1 times, expected exactly 2"),
    (lambda: WmgTarget(("a", "a"), (), 0), GadgetError,
     "core names must be distinct and non-empty"),
    (lambda: WmgTarget(("a", "b>"), (), 0), GadgetError,
     "alternative name 'b>' contains '>'"),
    (lambda: WmgTarget(("a", "b"), ((0, 1),), 0), GadgetError,
     "margin matrix shape must match the core set"),
    (lambda: WmgTarget(("a", "b"), ((1, 1), (1, 0)), 0), GadgetError,
     "diagonal margins must be zero"),
    (lambda: WmgTarget(("a", "b"), ((0, 1), (1, 0)), 0), GadgetError,
     "margin matrix must be antisymmetric"),
    (lambda: WmgTarget(("a", "b", "c"), ((0, 1, 2), (-1, 0, 1), (-2, -1, 0)),
                       0),
     GadgetError, r"all margins must share parity \(all even or all odd\)"),
    (lambda: WmgTarget(("a", "b"), ((0, 1), (-1, 0)), 1), GadgetError,
     "spacing must be at least 2"),
]


@pytest.mark.parametrize("make, error, message", BAD)
def test_first_failing_check(make, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        make()
