"""Layer tracing from outside the program.

`Tracer.install()` replaces each traced function where the calling module
binds it (for example `localbribery.solvers.min_cost_flow_with_demands`)
with a wrapper that records one span per call and passes arguments, result
and exceptions through unchanged.  Spans live in flat arrays in memory,
tagged with the id of the CLI invocation (op) that caused them, and are
written out once, when the run ends.

The runner installs the wrappers around one traced op at a time, so
untraced ops, set-up and checking run the original functions.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array

# (calling module, bound name, span name, value function).  A value
# function maps (args, result) to two numbers stored with the span.
#
# Hot leaf functions are traced only where the layers above call them: the
# metric ball enumeration calls `distance` once per permutation, so
# `metrics.distance` is traced where the verifier and the gadget witness
# builder call it, not inside `metrics`.
_N_M = lambda a, r: (a[0].n, a[0].m)  # noqa: E731


def _maxflow_feasible(args, result):
    net = args[0]
    need = sum(e.cap for e in net.edges if e.src == net.source)
    return (1 if result[0] == need else 0, 0)


TRACE_POINTS = [
    # cli
    ("cli", "main", "cli.main", None),
    ("cli", "parse_instance", "ioformat.parse_instance",
     lambda a, r: (len(a[0]), 0)),
    ("cli", "render_instance", "ioformat.render", None),
    ("cli", "render_preference", "ioformat.render", None),
    ("cli", "parse_and_validate_3b2", "gadgets.parse_cnf", None),
    ("cli", "gen_kapproval_swap_gadget", "gadgets.gen",
     lambda a, r: (r.instance.n, r.instance.m)),
    ("cli", "gen_kapproval_maxdisp_priced_gadget", "gadgets.gen",
     lambda a, r: (r.instance.n, r.instance.m)),
    ("cli", "gen_borda_gadget", "gadgets.gen",
     lambda a, r: (r.instance.n, r.instance.m)),
    ("cli", "witness_from_assignment", "gadgets.witness", None),
    ("cli", "check_witness", "problem.check_witness", None),
    ("cli", "solve_exhaustive", "oracle.solve_exhaustive", None),
    ("cli", "solve_plurality", "solvers.solve_plurality", _N_M),
    ("cli", "solve_veto", "solvers.solve_veto", _N_M),
    ("cli", "solve_kapproval_small_radius",
     "solvers.solve_kapproval_small_radius", _N_M),
    ("cli", "solve_sbucklin_small_radius",
     "solvers.solve_sbucklin_small_radius", _N_M),
    ("cli", "solve_kapproval_maxdisp", "solvers.solve_kapproval_maxdisp", _N_M),
    ("cli", "solve_sbucklin_maxdisp", "solvers.solve_sbucklin_maxdisp", _N_M),
    # solvers: one span per guess helper call, then the flow primitives
    ("solvers", "_boundary_toggle_solve", "solvers.guess", None),
    ("solvers", "_windowed_maxdisp_solve", "solvers.guess", None),
    ("solvers", "min_cost_flow_with_demands", "flow.mcf",
     lambda a, r: (1 if r.feasible else 0, 0)),
    ("solvers", "max_flow_with_arcs", "flow.maxflow", _maxflow_feasible),
    ("solvers", "verified_yes", "problem.verified_yes", None),
    ("solvers", "positional_scores", "core.positional_scores", None),
    ("solvers", "is_unique_winner", "core.is_unique_winner", None),
    # oracle
    ("oracle", "ball", "metrics.ball", lambda a, r: (len(r), 0)),
    ("oracle", "is_unique_winner", "oracle.leaf_check",
     lambda a, r: (1 if r else 0, 0)),
    ("oracle", "verified_yes", "problem.verified_yes", None),
    # problem
    ("problem", "check_witness", "problem.check_witness", None),
    ("problem", "distance", "metrics.distance", None),
    ("problem", "is_unique_winner", "core.is_unique_winner", None),
    # gadgets
    ("gadgets", "distance", "metrics.distance", None),
    ("gadgets", "is_unique_winner", "core.is_unique_winner", None),
    ("gadgets", "positional_scores", "core.positional_scores", None),
    ("gadgets", "weighted_majority_graph", "core.weighted_majority_graph", None),
    # core: every winner computation, and the scorer it calls
    ("core", "winners", "core.winners", None),
    ("core", "positional_scores", "core.positional_scores", None),
]


class Tracer:
    """Spans of one run: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.v1 = array("d")
        self.v2 = array("d")
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- recording -----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name, value in TRACE_POINTS:
            module = importlib.import_module(f"localbribery.{module_name}")
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span_name, value))
            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span_name: str, value):
        nid = self.name_id(span_name)
        perf = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.op.append(self.current_op)
            self.parent.append(stack[-1] if stack else -1)
            self.v1.append(0.0)
            self.v2.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf()
                stack.pop()
            if value is not None:
                self.v1[sid], self.v2[sid] = value(args, result)
            return result

        return wrapper

    @property
    def count(self) -> int:
        return len(self.start)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the time covered by child spans.

        The program is single-threaded, so the children of a span are
        disjoint intervals inside it and the covered time is their sum.
        """
        own = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(own)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += own[sid]
        return [d - c for d, c in zip(own, covered)]

    def write(self, path: str) -> None:
        """Tab-separated spans: op, id, parent, name, start, end, v1, v2."""
        with open(path, "w") as fh:
            fh.write("op\tid\tparent\tname\tstart\tend\tv1\tv2\n")
            for sid in range(self.count):
                fh.write(
                    f"{self.op[sid]}\t{sid}\t{self.parent[sid]}\t"
                    f"{self.names[self.name[sid]]}\t{self.start[sid]:.9f}\t"
                    f"{self.end[sid]:.9f}\t{self.v1[sid]:g}\t{self.v2[sid]:g}\n"
                )


def growth_exponent(points: list[tuple[float, float, float]]) -> float:
    """Fitted slope of log time against log n.

    `points` are (n, m, seconds).  Each m is its own group with its own
    intercept, so instances of different widths do not bias the slope;
    groups with fewer than two distinct n are ignored.  Returns 0 when no
    group qualifies.
    """
    groups: dict[float, list[tuple[float, float]]] = {}
    for n, m, s in points:
        if n > 0 and s > 0:
            groups.setdefault(m, []).append((math.log(n), math.log(s)))
    sxx = sxy = 0.0
    for pts in groups.values():
        if len({x for x, _ in pts}) < 2:
            continue
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx else 0.0
