"""Independent oracles for cross-checking the production algorithms.

Everything here is deliberately written from scratch against the
definitions, not by calling into the corresponding dfalab code paths:
plain exhaustive enumeration for path weights and the degree of
dependence, set-based strongly-live, renamed reaching-definitions and
renamed live-uses analyses, a concrete path interpreter, and
dominator-based reducibility.  The degree-of-dependence enumeration
is the reference for the cost rule that ``edg.delta_vector``
implements; it names EDG nodes by index and reads only ``adj`` and
``entries``.  ``entry_nodes`` finds the entry nodes by the paper's
definition, from the flow functions applied to top.  The CFG oracles read statements and edges from
``cfg.program``.  A reference section rebuilds the
two-point frameworks over tuple values with explicit per-component
writes, the form dfalab's int-mask transfers replaced.  Then come the
per-call constant-propagation evaluator that ``cp_transfer`` compiles,
and a round robin that visits every node on every pass.  That round
robin is the one solver that records a trace: a ``TraceRecord`` per
entity whose computed value changes.  The last section holds the two
monotonicity checkers: transfer monotonicity on sampled values, and
condition 10 on those traces, with element heights from ``ht``.

``bench/checks.py`` loads this file by path for ``enumerate_depth``,
so it imports nothing from the tests.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, NamedTuple

from dfalab.analyses import (
    CP_LATTICE,
    FAINT,
    NONCONST,
    NOT_FAINT,
    UNDEF,
    Instance,
    program_expressions,
)
from dfalab.cfg_metrics import FORWARD, traversal_order
from dfalab.engine import EntitySpace, MaskSpace
from dfalab.ir import (
    ASSIGNMENTS,
    BinAssign,
    ConstAssign,
    ControlFlowGraph,
    CopyAssign,
    Print,
    ReadAssign,
    expression_key,
    stmt_target,
    stmt_uses,
    wrap64,
)


# ---------------------------------------------------------------------------
# exhaustive simple-path enumeration


def enumerate_pair_weight(cfg: ControlFlowGraph,
                          back_edges: frozenset[tuple[int, int]],
                          src: int, dst: int) -> int | None:
    """Max back-edge count over all simple src->dst paths, by full enumeration.

    For src == dst these are the simple cycles through src.
    """
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
    """Max back-edge count over all simple paths and simple cycles in the graph.

    A walk from ``start`` that steps back onto ``start`` closes a
    simple cycle, and that last edge counts.
    """
    best = 0

    def walk(start: int, node: int, visited: set[int], weight: int) -> None:
        nonlocal best
        if weight > best:
            best = weight
        for nxt in cfg.successors[node]:
            step = weight + (1 if (node, nxt) in back_edges else 0)
            if nxt == start:
                best = max(best, step)
            elif nxt not in visited:
                visited.add(nxt)
                walk(start, nxt, visited, step)
                visited.discard(nxt)

    for start in cfg.nodes:
        walk(start, start, {start}, 0)
    return best


# ---------------------------------------------------------------------------
# exhaustive degree-of-dependence enumeration


def enumerate_delta_vector(edg, origin: int, h_hat: int) -> dict[int, int]:
    """Best propagation cost from node `origin` per target, by enumerating every path structure.

    A structure is a simple path with node-disjoint simple cycles
    attached at path nodes.  Cost: segment weights plus h_hat times
    the max cycle weight (monotonic entity dependence).  A structure may also end with a cycle, covering every node of that
    cycle at no trailing cost.  Nodes are the indices of ``edg.adj``.
    """
    adj = edg.adj
    best: dict[int, int] = {}

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
    if not any(edg.adj) or not edg.entries:
        return 0
    best = 0
    for origin in edg.entries:
        vector = enumerate_delta_vector(edg, origin, h_hat)
        if vector:
            best = max(best, max(vector.values()))
    return best


def entry_nodes(edg, fw) -> list[int]:
    """EDG entry nodes by the paper's definition, as ascending node indices.

    A node is an entry node when no edge enters it and its statement's
    flow function, applied to top, takes its entity off top: information
    enters the analysis there, whatever flows in.
    """
    space = fw.space
    targeted = {v for out in edg.adj for v, _ in out}
    found = []
    for i, inst in enumerate(edg.labels):
        if i in targeted:
            continue
        value = space.components(fw.transfers[inst.stmt](space.top))
        if value[space.index[inst.var]] != space.lattice.top:
            found.append(i)
    return found


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
            stmt = cfg.program.nodes[node]
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


def reaching_definitions(cfg: ControlFlowGraph) -> dict[int, frozenset[Instance]]:
    """Definitions reaching the entry of each node."""
    program = cfg.program
    gen: dict[int, frozenset[Instance]] = {}
    for node, stmt in program.nodes.items():
        target = stmt_target(stmt)
        gen[node] = frozenset() if target is None else frozenset((Instance(target, node),))

    in_sets: dict[int, frozenset[Instance]] = {n: frozenset() for n in cfg.nodes}
    out_sets: dict[int, frozenset[Instance]] = {n: frozenset() for n in cfg.nodes}
    pending = list(cfg.nodes)
    queued = set(pending)
    while pending:
        node = pending.pop(0)
        queued.discard(node)
        merged: set[Instance] = set()
        for pred in cfg.predecessors[node]:
            merged |= out_sets[pred]
        in_sets[node] = frozenset(merged)
        target = stmt_target(program.nodes[node])
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


def live_uses(cfg: ControlFlowGraph) -> dict[int, frozenset[Instance]]:
    """Renamed uses live at the exit of each node."""
    program = cfg.program
    gen: dict[int, frozenset[Instance]] = {}
    for node, stmt in program.nodes.items():
        gen[node] = frozenset(Instance(v, node) for v in stmt_uses(stmt))

    in_sets: dict[int, frozenset[Instance]] = {n: frozenset() for n in cfg.nodes}
    out_sets: dict[int, frozenset[Instance]] = {n: frozenset() for n in cfg.nodes}
    pending = list(reversed(cfg.nodes))
    queued = set(pending)
    while pending:
        node = pending.pop(0)
        queued.discard(node)
        merged: set[Instance] = set()
        for succ in cfg.successors[node]:
            merged |= in_sets[succ]
        out_sets[node] = frozenset(merged)
        target = stmt_target(program.nodes[node])
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
    forward_edges = [(s, t) for s, t in cfg.program.edges if t not in dom[s] or s == t]
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
# tuple-valued reference for the two-point frameworks


def fv_transfer(stmt, value: tuple, index) -> tuple:
    """Backward effect on faintness given the value after the statement.

    ``index`` maps each variable to its position in ``value``.  An
    assignment overwrites its target, so the target is faint before
    the statement unless it also appears on the right-hand side of a
    statement whose target is needed; right-hand-side variables become
    not-faint exactly when the target is not-faint afterwards.
    """
    if isinstance(stmt, ASSIGNMENTS):
        vals = list(value)
        target = index[stmt.target]
        vals[target] = FAINT
        if value[target] is NOT_FAINT:
            for var in stmt_uses(stmt):
                vals[index[var]] = NOT_FAINT
        return tuple(vals)
    if isinstance(stmt, Print):
        i = index[stmt.source]
        return value[:i] + (NOT_FAINT,) + value[i + 1:]
    return value


def _constant_write_transfer(writes: tuple[tuple[int, object], ...]):
    if not writes:
        return lambda v: v

    def transfer(value: tuple) -> tuple:
        vals = list(value)
        for idx, val in writes:
            vals[idx] = val
        return tuple(vals)

    return transfer


def reference_framework(program, fw):
    """The tuple-valued twin of a faint/avail/reach/live instance.

    Same entities, lattice and dfp sets as ``fw``; the transfers write
    components one by one instead of masking bits.
    """
    space = EntitySpace(fw.entities, fw.lattice)
    index = space.index
    top, bottom = fw.lattice.top, fw.lattice.bottom
    operands = dict(program_expressions(program))
    transfers = {}
    for node, stmt in program.nodes.items():
        if fw.kind == "faint":
            transfers[node] = lambda v, s=stmt: fv_transfer(s, v, index)
            continue
        target = stmt_target(stmt)
        writes = []
        for entity in fw.entities:
            if fw.kind == "avail":
                if target is not None and target in operands[entity]:
                    writes.append((index[entity], bottom))
                elif entity == expression_key(stmt):
                    writes.append((index[entity], top))
            elif entity.stmt == node:
                writes.append((index[entity], bottom))
            elif entity.var == target:
                writes.append((index[entity], top))
        transfers[node] = _constant_write_transfer(tuple(writes))
    return dataclasses.replace(fw, space=space, transfers=transfers)


# ---------------------------------------------------------------------------
# per-call constant propagation and a round robin without visit skips

_ARITH = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}


def cp_transfer_reference(stmt, value: tuple, index) -> tuple:
    """Constant propagation through one statement, dispatched on every call.

    The reference for ``analyses.cp_transfer``, which compiles the same
    rules into one function per statement.
    """
    def operand(op):
        return op if isinstance(op, int) else value[index[op]]

    if isinstance(stmt, ConstAssign):
        result = wrap64(stmt.value)
    elif isinstance(stmt, ReadAssign):
        result = NONCONST
    elif isinstance(stmt, CopyAssign):
        result = value[index[stmt.source]]
    elif isinstance(stmt, BinAssign):
        left, right = operand(stmt.left), operand(stmt.right)
        if left is NONCONST or right is NONCONST:
            result = NONCONST
        elif left is UNDEF or right is UNDEF:
            result = UNDEF
        else:
            result = wrap64(_ARITH[stmt.op](left, right))
    else:
        return value
    i = index[stmt.target]
    return value[:i] + (result,) + value[i + 1:]


class TraceRecord(NamedTuple):
    """One computed-value change: where, what, and the operand values read.

    Values are lattice elements, masks decoded.
    """

    pass_no: int
    node: int
    entity: Any
    old: Any
    new: Any
    operands: tuple[tuple[Any, Any], ...]


def plain_round_robin(fw, cfg: ControlFlowGraph):
    """Round robin that runs every transfer on every pass, traced.

    Returns (IN, OUT, iterations, passes, trace).  The first four are
    compared with ``engine.round_robin_solve``, which skips visits
    whose input did not change; the trace feeds the condition-10 check.
    """
    space = fw.space
    forward = fw.direction == FORWARD
    order = traversal_order(cfg, fw.direction)
    inputs = cfg.predecessors if forward else cfg.successors
    before = {n: space.top for n in cfg.nodes}
    after = dict(before)
    trace = []
    passes = 0
    changed = True
    while changed:
        passes += 1
        changed = False
        for node in order:
            merged = space.top
            for m in inputs[node]:
                merged = space.meet(merged, after[m])
            if merged != before[node]:
                before[node], changed = merged, True
            new = fw.transfers[node](merged)
            if new == after[node]:
                continue
            seen = space.components(merged)
            operands = tuple(sorted(((u, seen[space.index[u]])
                                     for u in fw.dfpuse.get(node, ())),
                                    key=lambda item: str(item[0])))
            for entity, was, now in zip(space.entities, space.components(after[node]),
                                        space.components(new)):
                if was != now:
                    trace.append(TraceRecord(passes, node, entity, was, now, operands))
            after[node], changed = new, True
    ins, outs = (before, after) if forward else (after, before)
    return ins, outs, max(1, passes - 1), passes, tuple(trace)


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


def sample_value(space, rng: random.Random):
    """A random value of `space`: an int mask or a tuple of components."""
    if isinstance(space, MaskSpace):
        return rng.getrandbits(len(space))
    return tuple(sample_component(space.lattice, rng) for _ in range(len(space)))


def check_monotonicity(fw, sample_count: int, seed: int) -> bool:
    """Spot-check x <= y implies f(x) <= f(y) on seeded random ordered pairs.

    Draws ``sample_count`` pairs per node; x is forced below y by
    meeting y with a second random value.
    """
    if sample_count <= 0:
        raise ValueError("sample_count must be positive")
    rng = random.Random(seed)
    space = fw.space
    for node in sorted(fw.transfers):
        f = fw.transfers[node]
        for _ in range(sample_count):
            y = sample_value(space, rng)
            noise = sample_value(space, rng)
            fx = f(space.meet(y, noise))
            if space.meet(fx, f(y)) != fx:
                return False
    return True


def ht(lattice, value) -> int:
    """Length of the longest descending chain from top to `value`.

    0 at top and ``height`` at bottom; every other element of a
    shipped lattice (a ``cp`` constant) lies at 1.
    """
    if value == lattice.top:
        return 0
    return lattice.height if value == lattice.bottom else 1


def check_monotonic_entity_dependence(edg, trace, lattice) -> bool:
    """Verify ht(new value) >= ht(operand value) on every EDG-edge transition.

    Only changed, non-top computations carry information, and only
    operands that feed the changed instance through an EDG edge are
    constrained.
    """
    influences: dict[tuple[object, int], set[object]] = {}
    for edge in edg.edges:
        influences.setdefault((edge.dst.var, edge.dst.stmt), set()).add(edge.src.var)

    for record in trace:
        sources = influences.get((record.entity, record.node))
        if not sources:
            continue
        new_ht = ht(lattice, record.new)
        for operand, value in record.operands:
            if operand in sources and new_ht < ht(lattice, value):
                return False
    return True
