"""Independent oracles for cross-checking the production algorithms.

Everything here is deliberately written from scratch against the
definitions, not by calling into the corresponding dfalab code paths:
plain exhaustive enumeration for path weights and the degree of
dependence, set-based strongly-live, renamed reaching-definitions and
renamed live-uses analyses, a concrete path interpreter, and
dominator-based reducibility.  The last section holds the two
monotonicity checkers that only the tests run: transfer monotonicity
on sampled values and condition 10 on solve traces.
"""

from __future__ import annotations

import random

from dfalab.analyses import CP_LATTICE, NONCONST, UNDEF, DefId, UseId
from dfalab.ir import (
    BinAssign,
    ConstAssign,
    ControlFlowGraph,
    CopyAssign,
    Print,
    ReadAssign,
    stmt_target,
    stmt_uses,
    wrap64,
)


# ---------------------------------------------------------------------------
# exhaustive simple-path enumeration


def enumerate_pair_weight(cfg: ControlFlowGraph,
                          back_edges: frozenset[tuple[int, int]],
                          src: int, dst: int) -> int | None:
    """Max back-edge count over all simple src->dst paths, by full enumeration."""
    if src == dst:
        return 0
    best: int | None = None

    def walk(node: int, visited: set[int], weight: int) -> None:
        nonlocal best
        for nxt in cfg.successors[node]:
            step = weight + (1 if (node, nxt) in back_edges else 0)
            if nxt == dst:
                if best is None or step > best:
                    best = step
            elif nxt not in visited:
                visited.add(nxt)
                walk(nxt, visited, step)
                visited.discard(nxt)

    walk(src, {src}, 0)
    return best


def enumerate_depth(cfg: ControlFlowGraph,
                    back_edges: frozenset[tuple[int, int]]) -> int:
    """Max back-edge count over all simple paths anywhere in the graph."""
    best = 0

    def walk(node: int, visited: set[int], weight: int) -> None:
        nonlocal best
        if weight > best:
            best = weight
        for nxt in cfg.successors[node]:
            if nxt in visited:
                continue
            visited.add(nxt)
            walk(nxt, visited, weight + (1 if (node, nxt) in back_edges else 0))
            visited.discard(nxt)

    for start in cfg.nodes:
        walk(start, {start}, 0)
    return best


# ---------------------------------------------------------------------------
# exhaustive degree-of-dependence enumeration


def enumerate_delta_vector(edg, origin, h_hat: int) -> dict[object, int]:
    """Best propagation cost per target by enumerating every path structure.

    A structure is a simple path with node-disjoint simple cycles
    attached at path nodes.  Cost: segment weights plus h_hat times
    the max cycle weight (monotonic entity dependence).  A structure may also end with a cycle, covering every node of that
    cycle at no trailing cost.
    """
    adj: dict[object, list[tuple[object, int]]] = {n: [] for n in edg.nodes}
    for edge in edg.edges:
        adj[edge.src].append((edge.dst, edge.weight))

    best: dict[object, int] = {}

    def value_of(segments: int, cycles: tuple[int, ...]) -> int:
        return segments + h_hat * max(cycles, default=0)

    def cycles_at(anchor, banned: set) -> list[tuple[frozenset, int]]:
        found: list[tuple[frozenset, int]] = []

        def grow(node, interior: set, weight: int) -> None:
            for nxt, w in adj[node]:
                if nxt == anchor:
                    found.append((frozenset(interior), weight + w))
                elif nxt not in banned and nxt not in interior:
                    interior.add(nxt)
                    grow(nxt, interior, weight + w)
                    interior.discard(nxt)

        grow(anchor, set(), 0)
        return found

    def record(node, value: int) -> None:
        if value > best.get(node, -1):
            best[node] = value

    def walk(node, visited: set, segments: int, cycles: tuple[int, ...],
             anchored: bool) -> None:
        record(node, value_of(segments, cycles))
        for nxt, w in adj[node]:
            if nxt in visited:
                continue
            visited.add(nxt)
            walk(nxt, visited, segments + w, cycles, False)
            visited.discard(nxt)
        if anchored:
            return  # cycles are node-disjoint: one per anchor
        for interior, cw in cycles_at(node, visited):
            ending = value_of(segments, cycles + (cw,))
            for member in interior | {node}:
                record(member, ending)
            visited |= interior
            walk(node, visited, segments, cycles + (cw,), True)
            visited -= interior

    walk(origin, {origin}, 0, (), False)
    return best


def enumerate_degree(edg, h_hat: int) -> int:
    if not edg.edges or not edg.entry_nodes:
        return 0
    best = 0
    for origin in edg.entry_nodes:
        vector = enumerate_delta_vector(edg, origin, h_hat)
        if vector:
            best = max(best, max(vector.values()))
    return best


# ---------------------------------------------------------------------------
# strongly live variables (complement of faintness)


def strongly_live(cfg: ControlFlowGraph) -> tuple[dict[int, frozenset[str]],
                                                  dict[int, frozenset[str]]]:
    """Least-fixpoint strongly-live sets per node entry/exit."""
    live_in: dict[int, set[str]] = {n: set() for n in cfg.nodes}
    live_out: dict[int, set[str]] = {n: set() for n in cfg.nodes}
    changed = True
    while changed:
        changed = False
        for node in reversed(cfg.nodes):
            out: set[str] = set()
            for succ in cfg.successors[node]:
                out |= live_in[succ]
            stmt = cfg.statement(node)
            target = stmt_target(stmt)
            if isinstance(stmt, Print):
                inn = out | {stmt.source}
            elif target is not None:
                inn = set(out)
                inn.discard(target)
                if target in out:
                    inn |= stmt_uses(stmt)
            else:
                inn = set(out)
            if out != live_out[node] or inn != live_in[node]:
                changed = True
                live_out[node] = out
                live_in[node] = inn
    return ({n: frozenset(v) for n, v in live_in.items()},
            {n: frozenset(v) for n, v in live_out.items()})


# ---------------------------------------------------------------------------
# set-based renamed reaching definitions / live uses
#
# The classic per-statement set formulations of the reach/live
# frameworks, which EDG construction reads to resolve renamed instances.


def reaching_definitions(cfg: ControlFlowGraph) -> dict[int, frozenset[DefId]]:
    """Definitions reaching the entry of each node."""
    program = cfg.program
    gen: dict[int, frozenset[DefId]] = {}
    for node, stmt in program.nodes.items():
        target = stmt_target(stmt)
        gen[node] = frozenset() if target is None else frozenset((DefId(target, node),))

    in_sets: dict[int, frozenset[DefId]] = {n: frozenset() for n in cfg.nodes}
    out_sets: dict[int, frozenset[DefId]] = {n: frozenset() for n in cfg.nodes}
    pending = list(cfg.nodes)
    queued = set(pending)
    while pending:
        node = pending.pop(0)
        queued.discard(node)
        merged: set[DefId] = set()
        for pred in cfg.predecessors[node]:
            merged |= out_sets[pred]
        in_sets[node] = frozenset(merged)
        target = stmt_target(cfg.statement(node))
        if target is not None:
            survivors = {d for d in merged if d.var != target}
        else:
            survivors = merged
        new_out = frozenset(survivors | gen[node])
        if new_out != out_sets[node]:
            out_sets[node] = new_out
            for succ in cfg.successors[node]:
                if succ not in queued:
                    pending.append(succ)
                    queued.add(succ)
    return in_sets


def live_uses(cfg: ControlFlowGraph) -> dict[int, frozenset[UseId]]:
    """Renamed uses live at the exit of each node."""
    program = cfg.program
    gen: dict[int, frozenset[UseId]] = {}
    for node, stmt in program.nodes.items():
        gen[node] = frozenset(UseId(v, node) for v in stmt_uses(stmt))

    in_sets: dict[int, frozenset[UseId]] = {n: frozenset() for n in cfg.nodes}
    out_sets: dict[int, frozenset[UseId]] = {n: frozenset() for n in cfg.nodes}
    pending = list(reversed(cfg.nodes))
    queued = set(pending)
    while pending:
        node = pending.pop(0)
        queued.discard(node)
        merged: set[UseId] = set()
        for succ in cfg.successors[node]:
            merged |= in_sets[succ]
        out_sets[node] = frozenset(merged)
        target = stmt_target(cfg.statement(node))
        if target is not None:
            survivors = {u for u in merged if u.var != target}
        else:
            survivors = merged
        new_in = frozenset(survivors | gen[node])
        if new_in != in_sets[node]:
            in_sets[node] = new_in
            for pred in cfg.predecessors[node]:
                if pred not in queued:
                    pending.append(pred)
                    queued.add(pred)
    return out_sets


# ---------------------------------------------------------------------------
# concrete path interpreter (loop-free programs)


def execute_all_paths(cfg: ControlFlowGraph):
    """Yield (node, env-before-node) for every path of an acyclic CFG.

    Environments map variables to concrete wrapped 64-bit values or to
    None when unassigned (reads count as unassigned: their value is
    arbitrary).
    """
    program = cfg.program

    def step(env: dict[str, int | None], node: int) -> dict[str, int | None]:
        stmt = program.nodes[node]
        env = dict(env)
        if isinstance(stmt, ConstAssign):
            env[stmt.target] = wrap64(stmt.value)
        elif isinstance(stmt, CopyAssign):
            env[stmt.target] = env[stmt.source]
        elif isinstance(stmt, BinAssign):
            left = stmt.left if isinstance(stmt.left, int) else env[stmt.left]
            right = stmt.right if isinstance(stmt.right, int) else env[stmt.right]
            if left is None or right is None:
                env[stmt.target] = None
            else:
                ops = {"+": left + right, "-": left - right, "*": left * right}
                env[stmt.target] = wrap64(ops[stmt.op])
        elif isinstance(stmt, ReadAssign):
            env[stmt.target] = None
        return env

    results: list[tuple[int, dict[str, int | None]]] = []

    def walk(node: int, env: dict[str, int | None]) -> None:
        results.append((node, env))
        after = step(env, node)
        for succ in cfg.successors[node]:
            walk(succ, after)

    walk(cfg.entry, {v: None for v in program.variables})
    return results


# ---------------------------------------------------------------------------
# dominators and reducibility


def dominators(cfg: ControlFlowGraph) -> dict[int, frozenset[int]]:
    all_nodes = set(cfg.nodes)
    dom: dict[int, set[int]] = {n: set(all_nodes) for n in cfg.nodes}
    dom[cfg.entry] = {cfg.entry}
    changed = True
    while changed:
        changed = False
        for node in cfg.nodes:
            if node == cfg.entry:
                continue
            preds = cfg.predecessors[node]
            new = set(all_nodes)
            for p in preds:
                new &= dom[p]
            new.add(node)
            if new != dom[node]:
                dom[node] = new
                changed = True
    return {n: frozenset(v) for n, v in dom.items()}


def is_reducible(cfg: ControlFlowGraph) -> bool:
    """Reducible iff removing dominator back edges leaves an acyclic graph."""
    dom = dominators(cfg)
    forward_edges = [(s, t) for s, t in cfg.edges if t not in dom[s] or s == t]
    succ: dict[int, list[int]] = {n: [] for n in cfg.nodes}
    indeg: dict[int, int] = {n: 0 for n in cfg.nodes}
    for s, t in forward_edges:
        if s == t:
            return False
        succ[s].append(t)
        indeg[t] += 1
    ready = [n for n in cfg.nodes if indeg[n] == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    return seen == len(cfg.nodes)


# ---------------------------------------------------------------------------
# monotonicity checkers


def sample_component(lattice, rng: random.Random):
    """A random element of a shipped component lattice."""
    if lattice is CP_LATTICE:
        roll = rng.randrange(6)
        if roll == 0:
            return UNDEF
        if roll == 1:
            return NONCONST
        return rng.randint(-3, 3)
    return lattice.top if rng.randrange(2) == 0 else lattice.bottom


def check_monotonicity(fw, sample_count: int, seed: int) -> bool:
    """Spot-check x <= y implies f(x) <= f(y) on seeded random ordered pairs.

    Draws ``sample_count`` pairs per node; x is forced below y by
    meeting y with a second random value.
    """
    if sample_count <= 0:
        raise ValueError("sample_count must be positive")
    rng = random.Random(seed)
    space = fw.space
    width = len(space)
    for node in sorted(fw.transfers):
        f = fw.transfers[node]
        for _ in range(sample_count):
            y = tuple(sample_component(space.lattice, rng) for _ in range(width))
            noise = tuple(sample_component(space.lattice, rng) for _ in range(width))
            fx = f(space.meet(y, noise))
            if space.meet(fx, f(y)) != fx:
                return False
    return True


def check_monotonic_entity_dependence(edg, trace, lattice) -> bool:
    """Verify ht(new value) >= ht(operand value) on every EDG-edge transition.

    Only changed, non-top computations carry information, and only
    operands that feed the changed instance through an EDG edge are
    constrained.
    """
    influences: dict[tuple[object, int], set[object]] = {}
    for edge in edg.edges:
        influences.setdefault((edge.dst.entity, edge.dst.stmt), set()).add(edge.src.entity)

    for record in trace:
        sources = influences.get((record.entity, record.node))
        if not sources:
            continue
        new_ht = lattice.ht(record.new)
        for operand, value in record.operands:
            if operand in sources and new_ht < lattice.ht(value):
                return False
    return True
