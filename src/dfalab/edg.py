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
between its two statements, oriented by analysis direction.  The
degree of dependence is the largest iteration cost of pushing a
change from an entry node along any path structure, where traversing
a cycle costs the component-lattice height times the cycle weight.
When the target of a path lies on its final cycle, the trailing
partial traversal is absorbed into the last circuit and costs
nothing.

The production search condenses the EDG into strongly connected
components and combines exhaustive small searches inside each
component with one longest-path sweep over the condensation, seeded
at every entry node.  Only the heaviest cycle of a structure is
charged, which is sound under monotonic entity dependence (condition
10; the test suite checks it on solve traces).  The search runs on
integers: nodes are numbered in (statement, entity) order, each keeps
its edges in ``edges`` order, and node sets are int bitmasks.  The
search for one EDG may take one million steps per entry node, pooled
over the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Union

from .analyses import (
    CP_KIND,
    FAINT_KIND,
    LIVE_KIND,
    REACH_KIND,
    make_bitvector_framework,
)
from .cfg_metrics import FORWARD, StepBudget, WeightTable
from .engine import (
    FrameworkInstance,
    SolveResult,
    round_robin_solve,
)
from .ir import ControlFlowGraph, Program, build_cfg

DEFAULT_DELTA_STEP_CAP = 1_000_000


@dataclass(frozen=True, slots=True)
class EntityNode:
    """One entity instance: the entity plus its defining/using statement."""

    entity: Hashable
    stmt: int

    def label(self) -> str:
        return f"{self.entity}_{self.stmt}"

    def __repr__(self) -> str:
        return self.label()


@dataclass(frozen=True, slots=True)
class EdgEdge:
    src: EntityNode
    dst: EntityNode
    weight: int


@dataclass(frozen=True)
class EntityDependenceGraph:
    """Nodes and edges of one EDG.

    ``entry_nodes`` are the in-degree-zero nodes whose flow function
    yields non-top on its own.  None means no information can enter:
    every entity stays top and the analysis need not run.
    """

    kind: str
    direction: str
    nodes: frozenset[EntityNode]
    edges: tuple[EdgEdge, ...]
    entry_nodes: frozenset[EntityNode]


class MalformedPathError(ValueError):
    """Structured path does not decompose into disjoint segments and cycles."""


# The bit-vector analysis whose solution resolves the renamed instances
# a non-separable kind's EDG connects.
RENAMED_KIND = {CP_KIND: REACH_KIND, FAINT_KIND: LIVE_KIND}


def _edge_sort_key(edge: EdgEdge):
    return (edge.src.stmt, str(edge.src.entity), edge.dst.stmt, str(edge.dst.entity))


def build_edg(program: Program, fw: FrameworkInstance, *,
              cfg: ControlFlowGraph | None = None,
              weights: WeightTable | None = None,
              renamed: SolveResult | None = None) -> EntityDependenceGraph:
    """Construct the EDG of a ``cp`` or ``faint`` instance.

    Each renamed instance arriving at statement j whose variable j's
    flow function reads gets an edge to every entity j computes: for
    ``cp`` the definitions reaching j's entry, for ``faint`` the uses
    live at j's exit.  ``renamed`` is the solution of the
    ``RENAMED_KIND`` analysis, whose set mask bits are those instances;
    it is solved here when omitted.
    """
    if fw.kind not in RENAMED_KIND:
        raise ValueError(f"no EDG construction rule for kind {fw.kind!r}")
    if cfg is None:
        cfg = build_cfg(program)
    if weights is None:
        weights = WeightTable(cfg)
    node_of: dict[tuple[Hashable, int], EntityNode] = {}
    candidates: list[EntityNode] = []
    for stmt, entities in fw.dfpmod.items():
        sources = fw.independent_sources.get(stmt, ())
        for entity in entities:
            node = node_of[entity, stmt] = EntityNode(entity, stmt)
            if entity in sources:
                candidates.append(node)
    edges: list[EdgEdge] = []

    if renamed is None:
        renamed = round_robin_solve(
            make_bitvector_framework(program, RENAMED_KIND[fw.kind], cfg), cfg,
            record_trace=False)
    # Weights follow the analysis direction.
    forward = fw.direction == FORWARD
    arriving = renamed.in_values if forward else renamed.out_values
    instances = renamed.space.entities
    var_mask: dict[str, int] = {}
    for i, inst in enumerate(instances):
        var_mask[inst.var] = var_mask.get(inst.var, 0) | 1 << i
    for j in cfg.nodes:
        computed, read = sorted(fw.dfpmod[j]), fw.dfpuse[j]
        if not computed or not read:
            continue
        # The renamed instances at bottom whose variable j reads.
        hits = arriving[j] & sum(var_mask.get(var, 0) for var in read)
        while hits:
            low = hits & -hits
            hits ^= low
            inst = instances[low.bit_length() - 1]
            src, dst = (inst.stmt, j) if forward else (j, inst.stmt)
            w = weights.weight(src, dst)
            assert w is not None, "renamed instance without a CFG path"
            origin = node_of[inst.var, inst.stmt]
            edges.extend(EdgEdge(origin, node_of[beta, j], w) for beta in computed)

    edges.sort(key=_edge_sort_key)
    nodes = frozenset(node_of.values())
    entries = frozenset(candidates) - {edge.dst for edge in edges}
    return EntityDependenceGraph(kind=fw.kind, direction=fw.direction,
                                 nodes=nodes, edges=tuple(edges),
                                 entry_nodes=entries)


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
    origin: EntityNode
    elements: tuple[PathElement, ...]
    target: EntityNode


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
    anchors: set[EntityNode] = set()
    segment_sum = 0
    cycle_weights: list[int] = []
    last_cycle_nodes: frozenset[EntityNode] | None = None

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


def _tarjan_sccs(adj: list[list[tuple[int, int]]]) -> list[list[int]]:
    """Strongly connected components of nodes 0..n-1, in reverse topological order."""
    index = [-1] * len(adj)
    low = [0] * len(adj)
    on_stack = [False] * len(adj)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(len(adj)):
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


class _SccScan:
    """Exhaustive structure search inside one strongly connected component.

    ``adj[u]`` lists u's edges inside the component as ``(v, weight,
    1 << v)``; node sets are int masks.
    ``end0[v]``: best weight of a simple path entry->v using no cycle.
    ``end1[v]``: best value using exactly one anchored cycle.
    ``absorbed[v]``: best value of a structure whose final element is
    a cycle containing v.
    """

    def __init__(self, adj: dict[int, list[tuple[int, int, int]]],
                 h_hat: int, budget: StepBudget):
        self.adj = adj
        self.h_hat = h_hat
        self.budget = budget
        self.end0: dict[int, int] = {}
        self.end1: dict[int, int] = {}
        self.absorbed: dict[int, int] = {}

    def run(self, entry: int) -> None:
        self._walk(entry, 1 << entry, 0, 0, False)

    def _walk(self, node: int, visited: int, value: int, cycles: int,
              anchored: bool) -> None:
        self.budget.tick()
        table = self.end0 if cycles == 0 else self.end1
        if value > table.get(node, -1):
            table[node] = value
        for nxt, w, bit in self.adj[node]:
            if not visited & bit:
                self._walk(nxt, visited | bit, value + w, cycles, False)
        # Cycles in one structure are pairwise node-disjoint, so a node
        # anchors at most one of them.
        if not anchored and cycles == 0:
            for interior, cycle_weight in self._cycles_at(node, visited):
                gained = value + self.h_hat * cycle_weight
                members = interior | 1 << node
                while members:
                    bit = members & -members
                    members ^= bit
                    member = bit.bit_length() - 1
                    if gained > self.absorbed.get(member, -1):
                        self.absorbed[member] = gained
                self._walk(node, visited | interior, gained, cycles + 1, True)

    def _cycles_at(self, anchor: int, banned: int) -> list[tuple[int, int]]:
        found: list[tuple[int, int]] = []
        adj, tick = self.adj, self.budget.tick

        def extend(node: int, interior: int, weight: int) -> None:
            tick()
            for nxt, w, bit in adj[node]:
                if nxt == anchor:
                    found.append((interior, weight + w))
                elif not (banned | interior) & bit:
                    extend(nxt, interior | bit, weight + w)

        extend(anchor, 0, 0)
        return found


def delta_vector(edg: EntityDependenceGraph, origins: Iterable[EntityNode],
                 h_hat: int, *,
                 max_steps: int = DEFAULT_DELTA_STEP_CAP) -> dict[EntityNode, int]:
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
    origins = list(origins)
    for origin in origins:
        if origin not in edg.nodes:
            raise KeyError(f"{origin} is not an EDG node")
    budget = StepBudget(max_steps * len(origins),
                        "degree-of-dependence enumeration exceeded its step budget")
    nodes = sorted(edg.nodes, key=lambda n: (n.stmt, str(n.entity)))
    number = {node: i for i, node in enumerate(nodes)}
    adj: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for edge in edg.edges:
        adj[number[edge.src]].append((number[edge.dst], edge.weight))

    sccs = _tarjan_sccs(adj)
    # Tarjan emits components in reverse topological order.
    sccs.reverse()

    NO = None
    dp: list[list[int | None]] = [[NO, NO] for _ in nodes]
    for origin in origins:
        dp[number[origin]][0] = 0
    result: dict[int, int] = {}

    def bump(table, key, value):
        prev = table.get(key)
        if prev is None or value > prev:
            table[key] = value

    for comp in sccs:
        u = comp[0]
        if len(comp) == 1 and all(v != u for v, _ in adj[u]):
            # Trivial component: staying put is the only move.
            at = {u: dp[u]}
        else:
            members = sum(1 << v for v in comp)
            inner = {v: [(x, w, 1 << x) for x, w in adj[v] if members >> x & 1]
                     for v in comp}
            at = {v: [NO, NO] for v in comp}
            for u in comp:
                scan = None
                for f in (0, 1):
                    base = dp[u][f]
                    if base is None:
                        continue
                    if scan is None:
                        scan = _SccScan(inner, h_hat, budget)
                        scan.run(u)
                    for v, val in scan.end0.items():
                        if at[v][f] is None or base + val > at[v][f]:
                            at[v][f] = base + val
                    if f == 0:
                        # Only the heaviest cycle is charged, so a structure
                        # that already took one gains nothing from another.
                        for v, val in scan.end1.items():
                            if at[v][1] is None or base + val > at[v][1]:
                                at[v][1] = base + val
                        for v, val in scan.absorbed.items():
                            bump(result, v, base + val)
        for v, values in at.items():
            for flag in (0, 1):
                value = values[flag]
                if value is None:
                    continue
                bump(result, v, value)
                for dst, w in adj[v]:
                    if dst not in at:
                        into = dp[dst]
                        if into[flag] is None or value + w > into[flag]:
                            into[flag] = value + w
    return {nodes[v]: value for v, value in result.items()}


def degree_of_dependence(edg: EntityDependenceGraph, h_hat: int, *,
                         max_steps: int = DEFAULT_DELTA_STEP_CAP) -> int:
    """Maximum propagation cost over all entry nodes and targets.

    Zero for edgeless graphs and for graphs without entry nodes (no
    information can enter, so nothing ever changes).
    """
    if not edg.edges or not edg.entry_nodes:
        return 0
    return max(delta_vector(edg, edg.entry_nodes, h_hat, max_steps=max_steps).values())

