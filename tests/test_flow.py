"""Min-cost flow with lower bounds: independent validation and a
networkx cross-check.

networkx has no lower-bound support, so the cross-check applies the
textbook lower-bound removal transform itself (written here from scratch,
not shared with the package) and runs network_simplex on the result.
"""

import random

import networkx as nx
import pytest

from localbribery.flow import (
    FlowNetwork,
    max_flow_with_arcs,
    min_cost_flow_with_demands,
)


def validate(net: FlowNetwork, required: int, res) -> None:
    """Check bounds, conservation, and the reported cost, independently."""
    assert res.feasible
    balance = [0] * net.num_nodes
    cost = 0
    for e, f in zip(net.edges, res.edge_flow):
        assert e.lb <= f <= e.cap
        balance[e.src] -= f
        balance[e.dst] += f
        cost += f * e.cost
    assert cost == res.total_cost
    for v in range(net.num_nodes):
        if v == net.source:
            assert balance[v] == -required
        elif v == net.sink:
            assert balance[v] == required
        else:
            assert balance[v] == 0


def nx_min_cost(net: FlowNetwork, required: int):
    """(feasible, min cost) via lower-bound removal + network_simplex."""
    g = nx.MultiDiGraph()
    demand = [0] * net.num_nodes
    base_cost = 0
    for e in net.edges:
        g.add_edge(e.src, e.dst, capacity=e.cap - e.lb, weight=e.cost)
        demand[e.src] += e.lb
        demand[e.dst] -= e.lb
        base_cost += e.lb * e.cost
    # networkx convention: flow_in - flow_out = demand, so the source
    # carries negative demand.
    demand[net.source] -= required
    demand[net.sink] += required
    for v in range(net.num_nodes):
        g.add_node(v, demand=demand[v])
    try:
        cost, _ = nx.network_simplex(g)
    except nx.NetworkXUnfeasible:
        return False, None
    return True, cost + base_cost


def random_network(rng: random.Random, with_lb=True) -> FlowNetwork:
    n = rng.randint(4, 7)
    net = FlowNetwork(n, 0, 1)
    for _ in range(rng.randint(5, 14)):
        u, v = rng.sample(range(n), 2)
        cap = rng.randint(0, 4)
        lb = rng.randint(0, cap) if with_lb and rng.random() < 0.4 else 0
        net.add_edge(u, v, lb, cap, rng.randint(0, 5))
    return net


@pytest.mark.parametrize("with_lb", [False, True])
def test_min_cost_flow_matches_networkx(with_lb):
    rng = random.Random(42 + with_lb)
    agree = 0
    for _ in range(200):
        net = random_network(rng, with_lb)
        required = rng.randint(0, 4)
        res = min_cost_flow_with_demands(net, required)
        ref_ok, ref_cost = nx_min_cost(net, required)
        assert res.feasible == ref_ok
        if res.feasible:
            validate(net, required, res)
            assert res.total_cost == ref_cost
            agree += 1
    assert agree > 20  # the sweep must actually exercise feasible cases


def test_max_flow_matches_networkx():
    rng = random.Random(7)
    for _ in range(150):
        net = random_network(rng, with_lb=False)
        g = nx.DiGraph()
        g.add_nodes_from(range(net.num_nodes))
        for e in net.edges:
            if g.has_edge(e.src, e.dst):
                g[e.src][e.dst]["capacity"] += e.cap
            else:
                g.add_edge(e.src, e.dst, capacity=e.cap)
        want = nx.maximum_flow_value(g, net.source, net.sink)
        assert max_flow_with_arcs(net)[0] == want


def test_simple_lower_bound_forces_flow():
    # source -> a (lb 2) -> sink; a costly bypass must stay unused.
    net = FlowNetwork(3, 0, 1)
    net.add_edge(0, 2, 2, 3, 1)
    net.add_edge(2, 1, 0, 3, 0)
    net.add_edge(0, 1, 0, 3, 10)
    res = min_cost_flow_with_demands(net, 2)
    validate(net, 2, res)
    assert res.total_cost == 2
    assert res.edge_flow[2] == 0


def test_infeasible_lower_bound():
    net = FlowNetwork(3, 0, 1)
    net.add_edge(0, 2, 3, 3, 0)
    net.add_edge(2, 1, 0, 1, 0)  # cannot carry the forced 3 units onward
    res = min_cost_flow_with_demands(net, 3)
    assert not res.feasible


def test_circulation_with_closing_edge():
    # A pure circulation (required value 0) made feasible by a sink->source
    # return edge; the lower-bounded edge must still carry its minimum.
    net = FlowNetwork(4, 0, 1)
    net.add_edge(0, 2, 0, 5, 0)
    net.add_edge(2, 3, 2, 4, 3)
    net.add_edge(3, 1, 0, 5, 0)
    net.add_edge(1, 0, 0, 10, 0)
    res = min_cost_flow_with_demands(net, 0)
    validate(net, 0, res)
    assert res.total_cost == 6
    assert res.edge_flow[1] == 2


def test_edge_validation():
    net = FlowNetwork(2, 0, 1)
    with pytest.raises(ValueError):
        net.add_edge(0, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        net.add_edge(0, 1, 2, 1, 0)
    with pytest.raises(ValueError):
        net.add_edge(0, 1, 0, 1, -1)
    with pytest.raises(ValueError):
        net.add_edge(0, 5, 0, 1, 0)


def test_dump_format():
    net = FlowNetwork(3, 0, 1)
    net.add_edge(0, 2, 1, 4, 7)
    net.add_edge(2, 1, 0, 4, 0)
    assert net.dump() == "edge 0 2 1 4 7\nedge 2 1 0 4 0"
