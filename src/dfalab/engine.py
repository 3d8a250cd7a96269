"""Generic monotone-framework machinery.

A framework instance couples a component lattice (one small lattice
per entity) with per-node transfer functions over the product value.
Two solvers are provided:

* ``round_robin_solve`` sweeps all nodes in a fixed order until a full
  pass changes nothing, counting passes.  This is the measured
  quantity that the iteration bounds predict.
* ``worklist_solve`` is an independent fixed-point oracle; it must
  reach the same solution but its effort is reported as node visits.

Iteration counting: a solve always ends with one pass in which no
value changes.  ``iterations`` (the measured I) leaves that final
verification pass out, which reproduces the fixture iteration counts
exactly; ``passes_executed`` counts it.

All values are initialized to the top element; boundary values are
applied at the entry node (forward) or at exit nodes (backward).
Solvers are single-threaded per call; instances and results are
immutable and may be shared.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Hashable, Mapping

from .ir import ControlFlowGraph
from .cfg_metrics import FORWARD, traversal_order

Entity = Hashable


@dataclass(frozen=True)
class ComponentLattice:
    """One entity's value lattice: top, bottom, meet, and element heights.

    ``ht(v)`` is the length of the longest descending chain from top
    to v, so ht(top) = 0 and ht(bottom) = height.
    """

    name: str
    top: Any
    bottom: Any
    meet: Callable[[Any, Any], Any]
    ht: Callable[[Any], int]
    height: int
    sample: Callable[[random.Random], Any]
    fmt: Callable[[Any], str] = repr

    def leq(self, a: Any, b: Any) -> bool:
        return self.meet(a, b) == a


class EntitySpace:
    """Ordered entity universe plus its shared component lattice."""

    __slots__ = ("entities", "lattice", "index", "_top")

    def __init__(self, entities: tuple[Entity, ...], lattice: ComponentLattice):
        self.entities = entities
        self.lattice = lattice
        self.index = {e: i for i, e in enumerate(entities)}
        self._top: ProductValue | None = None

    def __len__(self) -> int:
        return len(self.entities)

    def top(self) -> "ProductValue":
        if self._top is None:
            self._top = ProductValue(self, (self.lattice.top,) * len(self.entities))
        return self._top

    def value(self, mapping: Mapping[Entity, Any]) -> "ProductValue":
        missing = set(self.entities) - set(mapping)
        extra = set(mapping) - set(self.entities)
        if missing or extra:
            raise ValueError(f"entity-set mismatch: missing={missing}, extra={extra}")
        return ProductValue(self, tuple(mapping[e] for e in self.entities))


class ProductValue:
    """Immutable per-entity vector over an EntitySpace."""

    __slots__ = ("space", "values")

    def __init__(self, space: EntitySpace, values: tuple[Any, ...]):
        if len(values) != len(space.entities):
            raise ValueError("value width does not match entity count")
        self.space = space
        self.values = values

    def __getitem__(self, entity: Entity) -> Any:
        return self.values[self.space.index[entity]]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ProductValue)
                and self.space is other.space
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash(self.values)

    def replacing(self, updates: Mapping[Entity, Any]) -> "ProductValue":
        vals = list(self.values)
        for entity, value in updates.items():
            vals[self.space.index[entity]] = value
        return ProductValue(self.space, tuple(vals))

    def leq(self, other: "ProductValue") -> bool:
        return meet_product(self, other) == self

    def __repr__(self) -> str:
        lat = self.space.lattice
        inner = ", ".join(f"{e}: {lat.fmt(v)}"
                          for e, v in zip(self.space.entities, self.values))
        return "{" + inner + "}"


def meet_product(a: ProductValue, b: ProductValue) -> ProductValue:
    """Componentwise meet; both operands must share the entity space."""
    if a.space is not b.space:
        raise ValueError("entity-set mismatch between product values")
    if a.values == b.values:
        return a
    meet = a.space.lattice.meet
    return ProductValue(a.space, tuple(
        x if x is y else meet(x, y) for x, y in zip(a.values, b.values)))


def product_height(component_height: int, entity_count: int) -> int:
    """Height of the product lattice: component height times entity count."""
    if component_height < 0 or entity_count < 0:
        raise ValueError("heights and entity counts are non-negative")
    return component_height * entity_count


@dataclass(frozen=True)
class FrameworkInstance:
    """A data flow framework instantiated on one program.

    ``transfers`` maps each node to a function over product values.
    ``dfpmod``/``dfpuse`` name the entities a node's transfer computes
    and reads.  ``independent_sources`` are the dfpmod entities whose
    transfer produces a non-top value regardless of input (constants,
    reads, prints, kills): these are the only places where information
    can enter the analysis.
    """

    kind: str
    direction: str
    space: EntitySpace
    transfers: dict[int, Callable[[ProductValue], ProductValue]]
    dfpmod: dict[int, frozenset[Entity]]
    dfpuse: dict[int, frozenset[Entity]]
    independent_sources: dict[int, frozenset[Entity]]
    boundary: ProductValue

    def __post_init__(self) -> None:
        declared = set(self.space.entities)
        for table in (self.dfpmod, self.dfpuse, self.independent_sources):
            for node, entities in table.items():
                unknown = set(entities) - declared
                if unknown:
                    raise ValueError(f"node {node} names undeclared entities {unknown}")

    @property
    def entities(self) -> tuple[Entity, ...]:
        return self.space.entities

    @property
    def lattice(self) -> ComponentLattice:
        return self.space.lattice

    def product_lattice_height(self) -> int:
        return product_height(self.lattice.height, len(self.space))


@dataclass(frozen=True)
class TraceRecord:
    """One computed-value change: where, what, and the operand values read."""

    pass_no: int
    node: int
    entity: Entity
    old: Any
    new: Any
    operands: tuple[tuple[Entity, Any], ...]


@dataclass(frozen=True)
class SolveResult:
    in_values: dict[int, ProductValue]
    out_values: dict[int, ProductValue]
    iterations: int
    passes_executed: int
    trace: tuple[TraceRecord, ...]
    visits: int | None = None


class DivergenceError(RuntimeError):
    """Solver exceeded the pass budget; a transfer is likely non-monotonic."""


def _pass_budget(fw: FrameworkInstance, cfg: ControlFlowGraph) -> int:
    return 2 + fw.product_lattice_height() * len(cfg.nodes)


@dataclass(frozen=True)
class _DirectionView:
    """One framework's direction over one CFG, so each solver has one loop.

    A node's "before" value is the meet of its ``inputs``' "after"
    values (plus the boundary value at ``boundary_nodes``), and its
    "after" value is the transfer of its "before" value.  Forward,
    before/after are IN/OUT; backward, they are OUT/IN.
    """

    forward: bool
    order: tuple[int, ...]
    inputs: Mapping[int, tuple[int, ...]]
    outputs: Mapping[int, tuple[int, ...]]
    boundary_nodes: frozenset[int]

    def in_out(self, before: dict[int, ProductValue], after: dict[int, ProductValue]):
        return (before, after) if self.forward else (after, before)


def _direction_view(fw: FrameworkInstance, cfg: ControlFlowGraph) -> _DirectionView:
    # traversal_order is looked up at solve time, so callers may swap it.
    order = traversal_order(cfg, fw.direction)
    if fw.direction == FORWARD:
        return _DirectionView(True, order, cfg.predecessors, cfg.successors,
                              frozenset((cfg.entry,)))
    return _DirectionView(False, order, cfg.successors, cfg.predecessors, cfg.exits)


def round_robin_solve(fw: FrameworkInstance, cfg: ControlFlowGraph, *,
                      record_trace: bool = True) -> SolveResult:
    """Round-robin iteration to the maximal fixed point, counting passes.

    Nodes are visited in ``traversal_order``: DFS reverse postorder for
    forward instances and its reverse for backward ones.  The final
    pass in which nothing changes is always executed and counted in
    ``passes_executed``; ``iterations`` leaves it out (at least 1).
    """
    view = _direction_view(fw, cfg)
    top = fw.space.top()
    before: dict[int, ProductValue] = {n: top for n in cfg.nodes}
    after: dict[int, ProductValue] = {n: top for n in cfg.nodes}
    trace: list[TraceRecord] = []
    budget = _pass_budget(fw, cfg)

    passes = 0
    while True:
        passes += 1
        if passes > budget:
            raise DivergenceError(
                f"{fw.kind}: no fixed point after {budget} passes; "
                "check transfer monotonicity")
        changed = False
        for node in view.order:
            # A pass counts as changing when any program-point value
            # moves, merged inputs included, not only transfer outputs.
            merged = _merge(fw, view, node, after)
            if merged != before[node]:
                changed = True
                before[node] = merged
            new = fw.transfers[node](merged)
            old = after[node]
            if new != old:
                changed = True
                if record_trace:
                    _record_changes(trace, passes, node, fw, old, new, merged)
                after[node] = new
        if not changed:
            break

    in_vals, out_vals = view.in_out(before, after)
    return SolveResult(in_values=in_vals, out_values=out_vals,
                       iterations=max(1, passes - 1), passes_executed=passes,
                       trace=tuple(trace))


def _merge(fw: FrameworkInstance, view: _DirectionView, node: int,
           after: dict[int, ProductValue]) -> ProductValue:
    parts = [after[m] for m in view.inputs[node]]
    if node in view.boundary_nodes:
        parts.append(fw.boundary)
    return reduce(meet_product, parts) if parts else fw.space.top()


def _record_changes(trace: list[TraceRecord], pass_no: int, node: int,
                    fw: FrameworkInstance, old: ProductValue,
                    new: ProductValue, inputs: ProductValue) -> None:
    uses = fw.dfpuse.get(node, frozenset())
    operands = tuple(sorted(((u, inputs[u]) for u in uses),
                            key=lambda item: str(item[0])))
    for idx, entity in enumerate(fw.space.entities):
        if old.values[idx] != new.values[idx]:
            trace.append(TraceRecord(pass_no, node, entity,
                                     old.values[idx], new.values[idx], operands))


def worklist_solve(fw: FrameworkInstance, cfg: ControlFlowGraph) -> SolveResult:
    """Worklist fixed point; an independent oracle for round_robin_solve.

    The returned ``iterations`` is the node-visit count, which is not
    comparable to round-robin pass counts.
    """
    view = _direction_view(fw, cfg)
    top = fw.space.top()
    before: dict[int, ProductValue] = {n: top for n in cfg.nodes}
    after: dict[int, ProductValue] = {n: top for n in cfg.nodes}
    pending = deque(view.order)
    queued = set(pending)
    visits = 0
    budget = _pass_budget(fw, cfg) * max(1, len(cfg.nodes))

    while pending:
        visits += 1
        if visits > budget:
            raise DivergenceError(
                f"{fw.kind}: worklist exceeded {budget} visits; "
                "check transfer monotonicity")
        node = pending.popleft()
        queued.discard(node)
        merged = _merge(fw, view, node, after)
        before[node] = merged
        new = fw.transfers[node](merged)
        if new != after[node]:
            after[node] = new
            for nxt in view.outputs[node]:
                if nxt not in queued:
                    pending.append(nxt)
                    queued.add(nxt)

    in_vals, out_vals = view.in_out(before, after)
    return SolveResult(in_values=in_vals, out_values=out_vals,
                       iterations=max(1, visits), passes_executed=0,
                       trace=(), visits=visits)


def check_monotonicity(fw: FrameworkInstance, sample_count: int, seed: int) -> bool:
    """Spot-check x <= y implies f(x) <= f(y) on seeded random ordered pairs.

    Draws ``sample_count`` pairs per node; x is forced below y by
    meeting y with a second random value.
    """
    if sample_count <= 0:
        raise ValueError("sample_count must be positive")
    rng = random.Random(seed)
    space = fw.space
    sample = space.lattice.sample
    width = len(space)
    for node in sorted(fw.transfers):
        f = fw.transfers[node]
        for _ in range(sample_count):
            y = ProductValue(space, tuple(sample(rng) for _ in range(width)))
            noise = ProductValue(space, tuple(sample(rng) for _ in range(width)))
            x = meet_product(y, noise)
            if not f(x).leq(f(y)):
                return False
    return True
