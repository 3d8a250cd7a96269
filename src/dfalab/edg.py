"""Entity dependence graphs and the degree of dependence.

An EDG node is an entity instantiated at the statement whose flow
function computes it.  An edge alpha_i -> beta_j records that the
value computed for beta at statement j directly reads the instance of
alpha coming from statement i.  Instances are resolved with the
solution of the renamed reaching-definitions framework (``reach``, for
forward analyses) or the renamed live-uses framework (``live``, for
backward analyses): they are the set bits of that solution's masks,
named through its ``space``.  A framework whose transfers read no
entity is separable: its delta is 0 and it gets no EDG.

Each edge carries the maximum back-edge count over acyclic CFG paths
between its two statements, oriented by analysis direction.  An edge
from an instance at the statement it reaches, such as b_3 -> b_3 for
``b = b + 1`` at node 3 in a loop, records a dependence carried around
that loop: it carries the maximum back-edge count over the simple CFG
cycles through the statement.  The degree of dependence is the
largest iteration cost of pushing a change from an entry node along
any path structure, where traversing a cycle costs the
component-lattice height times the cycle weight.
When the target of a path lies on its final cycle, the trailing
partial traversal is absorbed into the last circuit and costs
nothing.

An EDG is integer adjacency over the renamed instances: node i is
instance i of the ``reach``/``live`` space, so nodes come in
(statement, variable) order, and each keeps its edges sorted by
target, the order in which ``build_edg`` writes them.  The
``Instance``/``EdgEdge`` views are derived from it only when read.

The production search condenses the EDG into strongly connected
components and combines exhaustive small searches inside each
component with one longest-path sweep over the condensation, seeded
at every entry node.  Only the heaviest cycle of a structure is
charged, which is sound under monotonic entity dependence (condition
10; the test suite checks it on solve traces).  The search reads the
adjacency as built, with node sets as int bitmasks.  The search for
one EDG may take one million steps per entry node, pooled over the
sweep.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

from .analyses import (
    CP_KIND,
    FAINT_KIND,
    LIVE_KIND,
    REACH_KIND,
    Instance,
    make_bitvector_framework,
)
from .cfg_metrics import FORWARD, SearchBudgetExceeded, WeightTable
from .engine import (
    FrameworkInstance,
    SolveResult,
    round_robin_solve,
)
from .ir import ControlFlowGraph, Program, build_cfg

DEFAULT_DELTA_STEP_CAP = 1_000_000
_DELTA_BUDGET_MESSAGE = "degree-of-dependence enumeration exceeded its step budget"


@dataclass(frozen=True, slots=True)
class EdgEdge:
    src: Instance
    dst: Instance
    weight: int


def _node_key(node: Instance) -> tuple[int, str]:
    return (node.stmt, node.var)


@dataclass(frozen=True)
class EntityDependenceGraph:
    """Nodes and edges of one EDG, as integer adjacency.

    Node i is ``labels[i]``, in (statement, variable) order;
    ``adj[i]`` lists its edges as ``(j, weight)`` and ``entries`` the
    entry nodes: in-degree-zero nodes whose flow function yields
    non-top on its own.  No entry node means no information can
    enter: every entity stays top and the analysis need not run.  The
    object views ``nodes``, ``edges`` and ``entry_nodes`` are derived
    on first read.
    """

    kind: str
    direction: str
    labels: list[Instance]
    adj: list[list[tuple[int, int]]]
    entries: list[int]

    @classmethod
    def from_edges(cls, kind: str, direction: str, nodes: Iterable[Instance],
                   edges: Iterable[EdgEdge],
                   entry_nodes: Iterable[Instance]) -> EntityDependenceGraph:
        """The EDG of given objects; each node keeps its edges in `edges` order."""
        labels = sorted(nodes, key=_node_key)
        number = {node: i for i, node in enumerate(labels)}
        adj: list[list[tuple[int, int]]] = [[] for _ in labels]
        for edge in edges:
            adj[number[edge.src]].append((number[edge.dst], edge.weight))
        return cls(kind, direction, labels, adj, sorted(number[n] for n in entry_nodes))

    @cached_property
    def nodes(self) -> frozenset[Instance]:
        return frozenset(self.labels)

    @cached_property
    def edges(self) -> tuple[EdgEdge, ...]:
        """By source in node order, then in adjacency order (by target, as built)."""
        labels = self.labels
        return tuple(EdgEdge(labels[u], labels[v], w)
                     for u, out in enumerate(self.adj) for v, w in out)

    @cached_property
    def entry_nodes(self) -> frozenset[Instance]:
        return frozenset(self.labels[i] for i in self.entries)

    def index_of(self, node: Instance) -> int:
        labels = self.labels
        i = bisect_left(labels, _node_key(node), key=_node_key)
        if i == len(labels) or labels[i] != node:
            raise KeyError(f"{node} is not an EDG node")
        return i


class MalformedPathError(ValueError):
    """Structured path does not decompose into disjoint segments and cycles."""


# The bit-vector analysis whose solution resolves the renamed instances
# a non-separable kind's EDG connects.
RENAMED_KIND = {CP_KIND: REACH_KIND, FAINT_KIND: LIVE_KIND}


def build_edg(program: Program, fw: FrameworkInstance, *,
              cfg: ControlFlowGraph | None = None,
              weights: WeightTable | None = None,
              renamed: SolveResult | None = None) -> EntityDependenceGraph:
    """Construct the EDG of a ``cp`` or ``faint`` instance.

    Each renamed instance arriving at statement j whose variable j's
    flow function reads gets an edge to every entity j computes: for
    ``cp`` the definitions reaching j's entry, for ``faint`` the uses
    live at j's exit.  ``renamed`` is the solution of the
    ``RENAMED_KIND`` analysis: its entities are the EDG nodes and its
    set mask bits the instances arriving.  It is solved here when
    omitted.
    """
    if fw.kind not in RENAMED_KIND:
        raise ValueError(f"no EDG construction rule for kind {fw.kind!r}")
    if cfg is None:
        cfg = build_cfg(program)
    if weights is None:
        weights = WeightTable(cfg)
    if renamed is None:
        renamed = round_robin_solve(
            make_bitvector_framework(program, RENAMED_KIND[fw.kind], cfg), cfg,
            record_trace=False)
    # EDG node i is renamed instance i; own[j] lists the instances at
    # statement j, the entities j computes.
    labels = list(renamed.space.entities)
    var_mask: dict[str, int] = {}
    own: dict[int, list[int]] = {}
    for i, inst in enumerate(labels):
        var_mask[inst.var] = var_mask.get(inst.var, 0) | 1 << i
        own.setdefault(inst.stmt, []).append(i)
    # Weights follow the analysis direction.
    forward = fw.direction == FORWARD
    arriving = renamed.in_values if forward else renamed.out_values
    # (origin node, statement j, weight pair), in ascending j.
    hits: list[tuple[int, int, tuple[int, int]]] = []
    for j in cfg.nodes:
        read = fw.dfpuse[j]
        if j not in own or not read:
            continue
        # The renamed instances at bottom whose variable j reads.
        mask = 0
        for var in read:
            mask |= var_mask.get(var, 0)
        mask &= arriving[j]
        while mask:
            low = mask & -mask
            mask ^= low
            origin = low.bit_length() - 1
            stmt = labels[origin].stmt
            hits.append((origin, j, (stmt, j) if forward else (j, stmt)))
    # A hit from an instance at the statement it reaches goes around a
    # loop: it weighs the best simple cycle through j, a path from j to
    # a predecessor p closed by the edge p -> j.
    loops = {j for _, j, (frm, to) in hits if frm == to}
    weights.expect([pair for _, _, pair in hits]
                   + [(j, p) for j in loops for p in cfg.predecessors[j]])

    back_edges = cfg.back_edges
    # cfg.nodes ascends, so each list comes out sorted by target.
    adj: list[list[tuple[int, int]]] = [[] for _ in labels]
    for origin, j, pair in hits:
        if pair[0] == pair[1]:
            cycles = [w + ((p, j) in back_edges) for p in cfg.predecessors[j]
                      if (w := weights.weight(j, p)) is not None]
            w = max(cycles, default=None)
        else:
            w = weights.weight(*pair)
        if w is None:
            raise RuntimeError(f"renamed instance without a CFG path from {pair[0]} to {pair[1]}")
        out = adj[origin]
        for v in own[j]:
            out.append((v, w))
    targeted = {j for _, j, _ in hits}
    sources = fw.independent_sources
    entries = [i for i, inst in enumerate(labels)
               if inst.var in sources[inst.stmt] and inst.stmt not in targeted]
    return EntityDependenceGraph(fw.kind, fw.direction, labels, adj, entries)


# ---------------------------------------------------------------------------
# structured paths and their degree of dependence


@dataclass(frozen=True)
class PathSegment:
    """A run of consecutive edges with no repeated node."""

    edges: tuple[EdgEdge, ...]


@dataclass(frozen=True)
class PathCycle:
    """A simple cycle anchored at the node where the path currently stands."""

    edges: tuple[EdgEdge, ...]


PathElement = Union[PathSegment, PathCycle]


@dataclass(frozen=True)
class StructuredPath:
    origin: Instance
    elements: tuple[PathElement, ...]
    target: Instance


def path_delta(edg: EntityDependenceGraph, path: StructuredPath, h_hat: int) -> int:
    """Iteration cost of propagating a change along one path structure.

    Acyclic segments cost their edge-weight sum.  Of the traversed
    cycles only the heaviest is charged, at the component height times
    its weight.  A target inside the final cycle is absorbed (no
    trailing cost).
    """
    known = {(e.src, e.dst): e.weight for e in edg.edges}
    current = path.origin
    visited = {path.origin}
    anchors: set[Instance] = set()
    segment_sum = 0
    cycle_weights: list[int] = []
    last_cycle_nodes: frozenset[Instance] | None = None

    for element in path.elements:
        if not element.edges:
            raise MalformedPathError("empty path element")
        for edge in element.edges:
            if (edge.src, edge.dst) not in known:
                raise MalformedPathError(f"edge {edge.src} -> {edge.dst} is not in the EDG")
        if isinstance(element, PathSegment):
            for edge in element.edges:
                if edge.src != current:
                    raise MalformedPathError("segment does not continue the path")
                if edge.dst in visited:
                    raise MalformedPathError(f"segment revisits {edge.dst}")
                visited.add(edge.dst)
                segment_sum += known[(edge.src, edge.dst)]
                current = edge.dst
            last_cycle_nodes = None
        else:
            anchor = current
            if anchor in anchors:
                raise MalformedPathError(
                    f"overlapping cycles: {anchor} anchors two cycles")
            anchors.add(anchor)
            weight = 0
            seen_in_cycle = {anchor}
            pos = anchor
            for k, edge in enumerate(element.edges):
                if edge.src != pos:
                    raise MalformedPathError("cycle edges do not chain")
                weight += known[(edge.src, edge.dst)]
                pos = edge.dst
                last = k == len(element.edges) - 1
                if last:
                    if pos != anchor:
                        raise MalformedPathError("cycle does not return to its anchor")
                else:
                    if pos in visited or pos in seen_in_cycle:
                        raise MalformedPathError(
                            f"overlapping cycle: {pos} already used")
                    seen_in_cycle.add(pos)
            visited |= seen_in_cycle
            cycle_weights.append(weight)
            last_cycle_nodes = frozenset(seen_in_cycle)

    if path.target != current:
        if last_cycle_nodes is None or path.target not in last_cycle_nodes:
            raise MalformedPathError(
                f"target {path.target} is neither the path end nor on the final cycle")

    return segment_sum + h_hat * max(cycle_weights, default=0)


# ---------------------------------------------------------------------------
# degree of dependence


def _tarjan_sccs(adj: list[list[tuple[int, int]]], roots: Iterable[int]) -> list[list[int]]:
    """Strongly connected components of the nodes reachable from `roots`.

    Nodes are 0..n-1; the components come in reverse topological order.
    """
    index = [-1] * len(adj)
    low = [0] * len(adj)
    on_stack = [False] * len(adj)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in roots:
        if index[root] >= 0:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, child_idx = work[-1]
            if child_idx == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            succs = adj[node]
            while child_idx < len(succs):
                child = succs[child_idx][0]
                child_idx += 1
                if index[child] < 0:
                    work[-1] = (node, child_idx)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child]:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def _scan_component(adj: dict[int, list[tuple[int, int, int]]], h_hat: int,
                    entry: int, steps: int) -> tuple[dict[int, int], dict[int, int],
                                                     dict[int, int], int]:
    """Exhaustive structure search inside one strongly connected component.

    ``adj[u]`` lists u's edges inside the component as ``(v, weight,
    1 << v)``; node sets are int masks.  Returns ``end0``, ``end1``,
    ``absorbed`` and the steps left of `steps`, the budget pooled with
    the sweep's other scans.
    ``end0[v]``: best weight of a simple path entry->v using no cycle.
    ``end1[v]``: best value using exactly one anchored cycle.
    ``absorbed[v]``: best value of a structure whose final element is
    a cycle containing v.
    """
    end0: dict[int, int] = {}
    end1: dict[int, int] = {}
    ending: dict[int, int] = {}  # cycle members mask -> best final value

    def walk(node: int, visited: int, value: int) -> None:
        nonlocal steps
        steps -= 1
        if steps < 0:
            raise SearchBudgetExceeded(_DELTA_BUDGET_MESSAGE)
        if value > end0.get(node, -1):
            end0[node] = value
        for nxt, w, bit in adj[node]:
            if not visited & bit:
                walk(nxt, visited | bit, value + w)
        # Cycles in one structure are pairwise node-disjoint, and only
        # the heaviest is charged, so one cycle per structure suffices.
        for interior, cycle_weight in cycles_at(node, visited):
            gained = value + h_hat * cycle_weight
            members = interior | 1 << node
            if gained > ending.get(members, -1):
                ending[members] = gained
            walk_on(node, visited | interior, gained)

    def walk_on(node: int, visited: int, value: int) -> None:
        """Continue a structure that has taken its cycle."""
        nonlocal steps
        steps -= 1
        if steps < 0:
            raise SearchBudgetExceeded(_DELTA_BUDGET_MESSAGE)
        if value > end1.get(node, -1):
            end1[node] = value
        for nxt, w, bit in adj[node]:
            if not visited & bit:
                walk_on(nxt, visited | bit, value + w)

    def cycles_at(anchor: int, banned: int) -> list[tuple[int, int]]:
        found: list[tuple[int, int]] = []

        def extend(node: int, interior: int, weight: int) -> None:
            nonlocal steps
            steps -= 1
            if steps < 0:
                raise SearchBudgetExceeded(_DELTA_BUDGET_MESSAGE)
            blocked = banned | interior
            for nxt, w, bit in adj[node]:
                if nxt == anchor:
                    found.append((interior, weight + w))
                elif not blocked & bit:
                    extend(nxt, interior | bit, weight + w)

        extend(anchor, 0, 0)
        return found

    walk(entry, 1 << entry, 0)
    absorbed: dict[int, int] = {}
    for members, value in ending.items():
        while members:
            bit = members & -members
            members ^= bit
            member = bit.bit_length() - 1
            if value > absorbed.get(member, -1):
                absorbed[member] = value
    return end0, end1, absorbed, steps


def delta_vector(edg: EntityDependenceGraph, origins: Iterable[Instance],
                 h_hat: int, *,
                 max_steps: int = DEFAULT_DELTA_STEP_CAP) -> dict[Instance, int]:
    """Best propagation cost from any of `origins` to every reachable node.

    Condenses the EDG into SCCs, runs the exhaustive structure search
    inside each component, and sweeps the condensation in topological
    order with every origin seeded at 0.  The sweep is max-plus linear
    in its seeds, so the result is the pointwise maximum of the
    single-origin vectors.  At most one cycle is ever charged, so a
    single taken/not-taken flag suffices in the sweep.

    The sweep may take `max_steps` per origin, pooled.  It runs each
    component scan once where separate single-origin sweeps would
    repeat it, so it never needs more steps than they need together.
    """
    starts = [edg.index_of(origin) for origin in origins]
    steps = max_steps * len(starts)
    adj = edg.adj
    # The best value arriving at each node with no cycle charged yet
    # (in0) and with one (in1); -1 for none, as weights are not negative.
    in0 = [-1] * len(adj)
    in1 = [-1] * len(adj)
    for start in starts:
        in0[start] = 0
    result: dict[int, int] = {}

    # Tarjan emits components in reverse topological order.
    for comp in reversed(_tarjan_sccs(adj, starts)):
        u = comp[0]
        if len(comp) == 1 and all(v != u for v, _ in adj[u]):
            # Trivial component: staying put is the only move.
            out = {u: (in0[u], in1[u])}
        else:
            members = sum(1 << v for v in comp)
            inner = {v: [(x, w, 1 << x) for x, w in adj[v] if members >> x & 1]
                     for v in comp}
            out0 = dict.fromkeys(comp, -1)
            out1 = dict.fromkeys(comp, -1)
            for u in comp:
                base0, base1 = in0[u], in1[u]
                if base0 < 0 and base1 < 0:
                    continue
                end0, end1, absorbed, steps = _scan_component(inner, h_hat, u, steps)
                for v, val in end0.items():
                    if base0 >= 0 and base0 + val > out0[v]:
                        out0[v] = base0 + val
                    if base1 >= 0 and base1 + val > out1[v]:
                        out1[v] = base1 + val
                if base0 >= 0:
                    # Only the heaviest cycle is charged, so a structure
                    # that already took one gains nothing from another.
                    for v, val in end1.items():
                        if base0 + val > out1[v]:
                            out1[v] = base0 + val
                    for v, val in absorbed.items():
                        if base0 + val > result.get(v, -1):
                            result[v] = base0 + val
            out = {v: (out0[v], out1[v]) for v in comp}
        for v, (value0, value1) in out.items():
            if max(value0, value1) > result.get(v, -1):
                result[v] = max(value0, value1)
            for dst, w in adj[v]:
                if dst not in out:
                    if value0 >= 0 and value0 + w > in0[dst]:
                        in0[dst] = value0 + w
                    if value1 >= 0 and value1 + w > in1[dst]:
                        in1[dst] = value1 + w
    labels = edg.labels
    return {labels[v]: value for v, value in result.items()}


def degree_of_dependence(edg: EntityDependenceGraph, h_hat: int, *,
                         max_steps: int = DEFAULT_DELTA_STEP_CAP) -> int:
    """Maximum propagation cost over all entry nodes and targets.

    Zero for edgeless graphs and for graphs without entry nodes (no
    information can enter, so nothing ever changes).
    """
    if not edg.entries or not any(edg.adj):
        return 0
    origins = [edg.labels[i] for i in edg.entries]
    return max(delta_vector(edg, origins, h_hat, max_steps=max_steps).values())

