"""Integral min-cost flow with per-edge lower bounds.

Lower bounds are removed by the usual excess-node transformation and the
residual problem is solved by successive shortest augmenting paths with
potentials.  All data are integers; costs must be non-negative.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager

from .core import Record, _setattr

INF = 10**18

# Debug capture: while a capture_networks() context is active, every
# FlowNetwork built anywhere is appended to the active list.
_capture: list | None = None


@contextmanager
def capture_networks():
    global _capture
    prev, _capture = _capture, []
    try:
        yield _capture
    finally:
        _capture = prev


class FlowEdge(Record):
    __slots__ = _fields = ("src", "dst", "lb", "cap", "cost")

    def __init__(self, src: int, dst: int, lb: int, cap: int, cost: int):
        # One per edge of every network: set directly, not by `_assign`.
        _setattr(self, "src", src)
        _setattr(self, "dst", dst)
        _setattr(self, "lb", lb)
        _setattr(self, "cap", cap)
        _setattr(self, "cost", cost)


class _Mutable(Record):
    """A record whose fields can be reassigned; it has no hash."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


class FlowNetwork(_Mutable):
    __slots__ = _fields = ("num_nodes", "source", "sink", "edges")

    def __init__(
        self, num_nodes: int, source: int, sink: int,
        edges: list[FlowEdge] | None = None,
    ):
        self._assign(num_nodes, source, sink, [] if edges is None else edges)
        if _capture is not None:
            _capture.append(self)

    def add_edge(self, src: int, dst: int, lb: int, cap: int, cost: int) -> int:
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise ValueError("edge endpoint out of range")
        if src == dst:
            raise ValueError("self-loops are not allowed")
        if not 0 <= lb <= cap:
            raise ValueError("need 0 <= lower bound <= capacity")
        if cost < 0:
            raise ValueError("costs must be non-negative")
        self.edges.append(FlowEdge(src, dst, lb, cap, cost))
        return len(self.edges) - 1

    def dump(self) -> str:
        """Line-based debug format: `edge <from> <to> <lb> <cap> <cost>`."""
        return "\n".join(
            f"edge {e.src} {e.dst} {e.lb} {e.cap} {e.cost}" for e in self.edges
        )


class FlowResult(_Mutable):
    __slots__ = _fields = ("feasible", "total_cost", "edge_flow")

    def __init__(self, feasible: bool, total_cost: int, edge_flow: list[int]):
        self._assign(feasible, total_cost, edge_flow)


class _Residual:
    """Adjacency-list residual graph with paired forward/backward arcs."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, cap: int, cost: int) -> int:
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[u].append(idx)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        self.adj[v].append(idx + 1)
        return idx

    def min_cost_max_flow(self, s: int, t: int) -> tuple[int, int]:
        """Successive shortest paths with Dijkstra + potentials.

        Returns (flow value, flow cost).  All arc costs are non-negative
        initially so the zero potential is valid.
        """
        n = self.n
        potential = [0] * n
        total_flow = 0
        total_cost = 0
        while True:
            dist = [INF] * n
            parent_arc = [-1] * n
            dist[s] = 0
            heap = [(0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for idx in self.adj[u]:
                    if self.cap[idx] <= 0:
                        continue
                    v = self.to[idx]
                    nd = d + self.cost[idx] + potential[u] - potential[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        parent_arc[v] = idx
                        heapq.heappush(heap, (nd, v))
            if dist[t] >= INF:
                break
            for v in range(n):
                if dist[v] < INF:
                    potential[v] += dist[v]
            # Bottleneck along the augmenting path.
            push = INF
            v = t
            while v != s:
                idx = parent_arc[v]
                push = min(push, self.cap[idx])
                v = self.to[idx ^ 1]
            v = t
            while v != s:
                idx = parent_arc[v]
                self.cap[idx] -= push
                self.cap[idx ^ 1] += push
                total_cost += push * self.cost[idx]
                v = self.to[idx ^ 1]
            total_flow += push
        return total_flow, total_cost


def min_cost_flow_with_demands(net: FlowNetwork, required_value: int) -> FlowResult:
    """Minimum-cost s-t flow of exactly `required_value` units.

    Every edge carries between its lower bound and its capacity.  Returns an
    infeasible result when no such integral flow exists.
    """
    if required_value < 0:
        raise ValueError("required flow value must be non-negative")
    n = net.num_nodes
    # Excess created by forcing each lower bound, plus the t->s return edge
    # that pins the flow value.
    excess = [0] * n
    base_cost = 0
    for e in net.edges:
        if e.lb:
            excess[e.src] -= e.lb
            excess[e.dst] += e.lb
            base_cost += e.lb * e.cost
    excess[net.source] += required_value
    excess[net.sink] -= required_value

    res = _Residual(n + 2)
    super_s, super_t = n, n + 1
    arc_of_edge = []
    for e in net.edges:
        arc_of_edge.append(res.add(e.src, e.dst, e.cap - e.lb, e.cost))
    need = 0
    for v in range(n):
        if excess[v] > 0:
            res.add(super_s, v, excess[v], 0)
            need += excess[v]
        elif excess[v] < 0:
            res.add(v, super_t, -excess[v], 0)
    flow, cost = res.min_cost_max_flow(super_s, super_t)
    if flow < need:
        return FlowResult(False, 0, [0] * len(net.edges))
    edge_flow = [
        net.edges[i].lb + (net.edges[i].cap - net.edges[i].lb - res.cap[a])
        for i, a in enumerate(arc_of_edge)
    ]
    return FlowResult(True, base_cost + cost, edge_flow)


def max_flow_with_arcs(net: FlowNetwork) -> tuple[int, list[int]]:
    """Maximum s-t flow value and the per-edge flow, for witness decoding;
    all lower bounds must be zero."""
    if any(e.lb for e in net.edges):
        raise ValueError("max_flow requires zero lower bounds")
    res = _Residual(net.num_nodes)
    arcs = [res.add(e.src, e.dst, e.cap, 0) for e in net.edges]
    value, _ = res.min_cost_max_flow(net.source, net.sink)
    flows = [net.edges[i].cap - res.cap[a] for i, a in enumerate(arcs)]
    return value, flows
