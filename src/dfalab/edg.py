"""Entity dependence graphs and the degree of dependence.

An EDG node is an entity instantiated at the statement whose flow
function computes it.  An edge alpha_i -> beta_j records that the
value computed for beta at statement j directly reads the instance of
alpha coming from statement i.  The rule reads only the framework's
direction and its ``dfpuse`` table, never its kind: forward kinds
resolve instances through the renamed reaching-definitions framework
(``reach``) and backward kinds through the renamed live-uses
framework (``live``).  Instances are the set bits of that solution's
masks, named through its ``space``.  Entry nodes are the instances at
statements that read nothing: such a statement sets what it computes
off top, and no edge enters it.  ``build_edg`` takes the renamed
solution, the CFG and its ``WeightTable`` from ``ProgramPipeline``,
which holds them.  A framework that declares no ``dfpuse`` table is
separable: its delta is 0 and it gets no EDG.

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
target, the order in which ``build_edg`` writes them.  Callers name
nodes by index and read ``labels`` for their instances; the
``Instance``/``EdgEdge`` views ``nodes`` and ``edges`` are derived
only when read.

The search condenses the EDG into strongly connected components and
combines exhaustive small searches inside each component with one
longest-path sweep over the condensation, seeded at every entry node.
Only the heaviest cycle of a structure is charged, which is sound
under monotonic entity dependence (condition 10; the test suite checks
it on solve traces).  That rule is one flag, whether a structure has
taken its cycle: the sweep keeps two arrays, one per flag value, and
each component search walks with the flag and writes its costs from
the entry nodes straight into them.  A structure that charged a cycle
reaches only nodes that the same path without the cycle reaches, so a
node with a charged value always has an uncharged one.  The search
reads the adjacency as built, with node sets as int bitmasks.  The
search for one EDG may take ``DEFAULT_DELTA_STEP_CAP`` (one million)
steps per entry node, pooled over the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .analyses import Instance
from .cfg_metrics import FORWARD, SearchBudgetExceeded, WeightTable
from .engine import FrameworkInstance, SolveResult
from .ir import ControlFlowGraph

DEFAULT_DELTA_STEP_CAP = 1_000_000
_DELTA_BUDGET_MESSAGE = "degree-of-dependence enumeration exceeded its step budget"


@dataclass(frozen=True, slots=True)
class EdgEdge:
    src: Instance
    dst: Instance
    weight: int


@dataclass(frozen=True)
class EntityDependenceGraph:
    """Nodes and edges of one EDG, as integer adjacency.

    Node i is ``labels[i]``, in (statement, variable) order;
    ``adj[i]`` lists its edges as ``(j, weight)`` and ``entries`` the
    entry nodes: the instances at statements that read nothing, which
    have no in-edge and whose flow function yields non-top on its own.
    No entry node means no information can enter: every entity stays
    top and the analysis need not run.  The object views ``nodes`` and
    ``edges``, which the benchmark's tracer counts, are derived on
    first read.
    """

    kind: str
    labels: list[Instance]
    adj: list[list[tuple[int, int]]]
    entries: list[int]

    @cached_property
    def nodes(self) -> frozenset[Instance]:
        return frozenset(self.labels)

    @cached_property
    def edges(self) -> tuple[EdgEdge, ...]:
        """By source in node order, then in adjacency order (by target, as built)."""
        labels = self.labels
        return tuple(EdgEdge(labels[u], labels[v], w)
                     for u, out in enumerate(self.adj) for v, w in out)


def build_edg(cfg: ControlFlowGraph, fw: FrameworkInstance, *,
              weights: WeightTable, renamed: SolveResult) -> EntityDependenceGraph:
    """Construct the EDG of a non-separable instance.

    Each renamed instance arriving at statement j whose variable j's
    flow function reads (``fw.dfpuse[j]``) gets an edge to every
    entity j computes: forward, the definitions reaching j's entry;
    backward, the uses live at j's exit.  The instances at a statement
    that reads nothing are the entry nodes.
    ``renamed`` is the solution on `cfg` of ``reach`` for a forward
    `fw` and of ``live`` for a backward one: its entities are the EDG
    nodes and its set mask bits the instances arriving.  `weights` is
    the CFG's weight table.
    """
    if fw.separable:
        raise ValueError(f"no EDG construction rule for kind {fw.kind!r}")
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
    entries: list[int] = []
    for j in cfg.nodes:
        if j not in own:
            continue
        read = fw.dfpuse[j]
        if not read:
            # Nothing flows into j's instances: they are entry nodes.
            entries += own[j]
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
    return EntityDependenceGraph(fw.kind, labels, adj, entries)


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


def delta_vector(edg: EntityDependenceGraph, starts: list[int], h_hat: int) -> dict[int, int]:
    """Best propagation cost from any of the nodes `starts` to every reachable node.

    Condenses the EDG into SCCs and sweeps the condensation in
    topological order with every origin seeded at 0.  Inside a
    component, one exhaustive structure search (a scan) runs from each
    node that a structure enters, and writes its costs from the origins
    straight into the sweep's two arrays, one per flag value, and into
    the result.  A node entered with a cycle charged is also entered
    without one, so the scans run from the nodes entered uncharged.
    The sweep is max-plus linear in its seeds, so the result is the
    pointwise maximum of the single-origin vectors.

    The sweep may take ``DEFAULT_DELTA_STEP_CAP`` steps per origin,
    pooled.  It runs each component scan once where separate
    single-origin sweeps would repeat it, so it never needs more steps
    than they need together.
    """
    adj = edg.adj
    if not all(0 <= start < len(adj) for start in starts):
        raise IndexError(f"start nodes {starts} are not all in 0..{len(adj) - 1}")
    steps = DEFAULT_DELTA_STEP_CAP * len(starts)
    # The best value arriving at each node with no cycle charged yet
    # (in0) and with one (in1); -1 for none, as weights are not negative.
    # A structure that charged a cycle reaches only nodes that the same
    # path without the cycle also reaches, so in1[v] >= 0 implies
    # in0[v] >= 0: a node entered at all is entered uncharged.
    in0 = [-1] * len(adj)
    in1 = [-1] * len(adj)
    for start in starts:
        in0[start] = 0
    result: dict[int, int] = {}

    def scan(inner: dict[int, list[tuple[int, int, int]]], entry: int,
             base0: int, base1: int) -> None:
        """Exhaustive structure search inside one component, from `entry`.

        ``inner[u]`` lists u's edges inside the component as ``(v,
        weight, 1 << v)``; node sets are int masks.  A walk carries its
        structure's cost from the origins, starting at `base0`, and one
        flag, ``taken``: whether it has charged its cycle.  It raises
        ``in1`` where taken and ``in0`` where not.
        """
        ending: dict[int, int] = {}  # cycle members mask -> best final value
        lift = base1 - base0

        def walk(node: int, visited: int, value: int, taken: bool) -> None:
            nonlocal steps
            steps -= 1
            if steps < 0:
                raise SearchBudgetExceeded(_DELTA_BUDGET_MESSAGE)
            if taken:
                if value > in1[node]:
                    in1[node] = value
            else:
                if value > in0[node]:
                    in0[node] = value
                # The same path serves the structures that entered with
                # their cycle charged (base1), which take no other.
                if base1 >= 0 and value + lift > in1[node]:
                    in1[node] = value + lift
            for nxt, w, bit in inner[node]:
                if not visited & bit:
                    walk(nxt, visited | bit, value + w, taken)
            if taken:
                return
            # Cycles in one structure are pairwise node-disjoint, and only
            # the heaviest is charged, so one cycle per structure suffices.
            for interior, cycle_weight in cycles_at(node, visited):
                gained = value + h_hat * cycle_weight
                members = interior | 1 << node
                if gained > ending.get(members, -1):
                    ending[members] = gained
                walk(node, visited | interior, gained, True)

        def cycles_at(anchor: int, banned: int) -> list[tuple[int, int]]:
            found: list[tuple[int, int]] = []

            def extend(node: int, interior: int, weight: int) -> None:
                nonlocal steps
                steps -= 1
                if steps < 0:
                    raise SearchBudgetExceeded(_DELTA_BUDGET_MESSAGE)
                blocked = banned | interior
                for nxt, w, bit in inner[node]:
                    if nxt == anchor:
                        found.append((interior, weight + w))
                    elif not blocked & bit:
                        extend(nxt, interior | bit, weight + w)

            extend(anchor, 0, 0)
            return found

        walk(entry, 1 << entry, base0, False)
        # A structure whose final element is a cycle reaches every
        # member of that cycle at no further cost.
        for members, value in ending.items():
            while members:
                bit = members & -members
                members ^= bit
                member = bit.bit_length() - 1
                if value > result.get(member, -1):
                    result[member] = value

    # Tarjan emits components in reverse topological order.
    for comp in reversed(_tarjan_sccs(adj, starts)):
        u = comp[0]
        members = 1 << u
        # A trivial component, a node without a self edge, has no
        # move but staying put: its arrays already hold its values.
        if len(comp) > 1 or any(v == u for v, _ in adj[u]):
            members = sum(1 << v for v in comp)
            inner = {v: [(x, w, 1 << x) for x, w in adj[v] if members >> x & 1]
                     for v in comp}
            # Every scan starts from the values that entered the
            # component, before any scan of it wrote.
            for u, base0, base1 in [(u, in0[u], in1[u]) for u in comp]:
                if base0 >= 0:
                    scan(inner, u, base0, base1)
        # Every node of a component the sweep reaches has in0 >= 0 by now.
        for v in comp:
            value0, value1 = in0[v], in1[v]
            if max(value0, value1) > result.get(v, -1):
                result[v] = max(value0, value1)
            for dst, w in adj[v]:
                if not members >> dst & 1:
                    if value0 + w > in0[dst]:
                        in0[dst] = value0 + w
                    if value1 >= 0 and value1 + w > in1[dst]:
                        in1[dst] = value1 + w
    return result


def degree_of_dependence(edg: EntityDependenceGraph, h_hat: int) -> int:
    """Maximum propagation cost over all entry nodes and targets.

    Zero for edgeless graphs and for graphs without entry nodes (no
    information can enter, so nothing ever changes).
    """
    if not edg.entries or not any(edg.adj):
        return 0
    return max(delta_vector(edg, edg.entries, h_hat).values())

