"""Generic monotone-framework machinery.

A framework instance couples a component lattice (one small lattice
per entity) with per-node transfer functions over the product value.
``entity_space`` picks the value form from the component lattice: for
a two-point lattice, a ``MaskSpace`` int with bit i set when entity i
is at bottom (top is 0 and the meet is bitwise or, as in Kam and
Ullman's bit-vector problems); otherwise a tuple with one component
per entity.  ``EntitySpace.index`` maps an entity to its position,
``meet`` is the componentwise meet and ``components`` lists a value's
lattice elements in entity order.
Two solvers are provided:

* ``round_robin_solve`` sweeps all nodes in a fixed order until a full
  pass changes nothing, counting passes.  This is the measured
  quantity that the iteration bounds predict.  After the first pass
  it skips a node whose merged input equals the one it saw on its
  last visit: the transfer would return what it returned then, so the
  values and pass count are those of visiting every node.
* ``worklist_solve`` is an independent fixed-point oracle; it must
  reach the same solution but its effort is reported as node visits.

Iteration counting: a solve always ends with one pass in which no
value changes.  ``iterations`` (the measured I) leaves that final
verification pass out, which reproduces the fixture iteration counts
exactly; ``passes_executed`` counts it.

Transfers must be pure functions of their input value: the same
input always gives an equal output, and no transfer keeps state
between calls.  Both solvers rely on it.

Every program point starts at top, the identity of every meet, so a
node without inputs, the entry (forward) or a node without successors
(backward), keeps top; there is no separate boundary value.  Solvers
are single-threaded per call; instances and results are immutable and
may be shared.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Hashable, Mapping

from .ir import ControlFlowGraph
from .cfg_metrics import FORWARD, traversal_order

Entity = Hashable
Value = Any  # a tuple in EntitySpace.entities order, or a MaskSpace int


@dataclass(frozen=True)
class ComponentLattice:
    """One entity's value lattice: top, bottom, meet, and its height.

    ``height`` is the length of the longest descending chain from top
    to bottom.
    """

    top: Any
    bottom: Any
    meet: Callable[[Any, Any], Any]
    height: int


class EntitySpace:
    """Ordered entity universe plus its shared component lattice."""

    __slots__ = ("entities", "lattice", "index", "top")

    def __init__(self, entities: tuple[Entity, ...], lattice: ComponentLattice):
        self.entities = entities
        self.lattice = lattice
        self.index = {e: i for i, e in enumerate(entities)}
        self.top: Value = (lattice.top,) * len(entities)

    def __len__(self) -> int:
        return len(self.entities)

    def meet(self, a: Value, b: Value) -> Value:
        """Componentwise meet of two values of this space."""
        if a == b:
            return a
        meet = self.lattice.meet
        return tuple([x if x is y else meet(x, y) for x, y in zip(a, b)])

    def components(self, value: Value) -> tuple:
        """The value's lattice elements, in ``entities`` order."""
        return value


class MaskSpace(EntitySpace):
    """A two-point lattice's space: bit i of a value is set when entity i is at bottom."""

    __slots__ = ()
    meet = staticmethod(operator.or_)

    def __init__(self, entities: tuple[Entity, ...], lattice: ComponentLattice):
        super().__init__(entities, lattice)
        self.top = 0

    def components(self, value: int) -> tuple:
        top, bottom = self.lattice.top, self.lattice.bottom
        return tuple(bottom if value >> i & 1 else top for i in range(len(self.entities)))


def entity_space(entities: tuple[Entity, ...], lattice: ComponentLattice) -> EntitySpace:
    """Int masks for a two-point component lattice, tuples otherwise."""
    return (MaskSpace if lattice.height == 1 else EntitySpace)(entities, lattice)


def product_height(component_height: int, entity_count: int) -> int:
    """Height of the product lattice: component height times entity count."""
    if component_height < 0 or entity_count < 0:
        raise ValueError("heights and entity counts are non-negative")
    return component_height * entity_count


@dataclass(frozen=True)
class FrameworkInstance:
    """A data flow framework instantiated on one program.

    ``transfers`` maps each node to a function over product values.
    ``dfpuse`` names the entities a node's transfer reads.  A separable
    instance, whose transfers read no entity, declares no dependence
    table at all: ``dfpuse`` is empty and ``separable`` is true.  A
    non-separable one lists every node, and its contract is that a
    node whose transfer reads nothing sets the entities it computes
    off top: that is where information enters the analysis, so the
    EDG takes the instances at such nodes as its entry nodes.
    """

    kind: str
    direction: str
    space: EntitySpace
    transfers: dict[int, Callable[[Value], Value]]
    dfpuse: dict[int, frozenset[Entity]]

    def __post_init__(self) -> None:
        declared = frozenset(self.space.entities)
        for node, entities in self.dfpuse.items():
            if not declared.issuperset(entities):
                raise ValueError(f"node {node} names undeclared entities "
                                 f"{set(entities) - declared}")

    @property
    def separable(self) -> bool:
        """True when the instance declares no dependence table: delta is 0, no EDG."""
        return not self.dfpuse

    @property
    def entities(self) -> tuple[Entity, ...]:
        return self.space.entities

    @property
    def lattice(self) -> ComponentLattice:
        return self.space.lattice


@dataclass(frozen=True)
class SolveResult:
    """A fixed point: IN/OUT values per node, decoded through ``space``."""

    space: EntitySpace
    in_values: dict[int, Value]
    out_values: dict[int, Value]
    iterations: int
    passes_executed: int
    # Always empty: the benchmark's tracer still counts it (ROADMAP item 0).
    trace: tuple = ()


class DivergenceError(RuntimeError):
    """Solver exceeded the pass budget; a transfer is likely non-monotonic."""


def _pass_budget(fw: FrameworkInstance, cfg: ControlFlowGraph) -> int:
    return 2 + product_height(fw.lattice.height, len(fw.space)) * len(cfg.nodes)


@dataclass(frozen=True)
class _DirectionView:
    """One framework's direction over one CFG, so each solver has one loop.

    A node's "before" value is the meet of its ``inputs``' "after"
    values (top when it has none), and its "after" value is the
    transfer of its "before" value.  Forward, before/after are IN/OUT;
    backward, they are OUT/IN.
    """

    forward: bool
    order: tuple[int, ...]
    inputs: Mapping[int, tuple[int, ...]]
    outputs: Mapping[int, tuple[int, ...]]

    def in_out(self, before: dict[int, Value], after: dict[int, Value]):
        return (before, after) if self.forward else (after, before)


def _direction_view(fw: FrameworkInstance, cfg: ControlFlowGraph) -> _DirectionView:
    # traversal_order is looked up at solve time, so callers may swap it.
    order = traversal_order(cfg, fw.direction)
    if fw.direction == FORWARD:
        return _DirectionView(True, order, cfg.predecessors, cfg.successors)
    return _DirectionView(False, order, cfg.successors, cfg.predecessors)


def round_robin_solve(fw: FrameworkInstance, cfg: ControlFlowGraph) -> SolveResult:
    """Round-robin iteration to the maximal fixed point, counting passes.

    Nodes are visited in ``traversal_order``: DFS reverse postorder for
    forward instances and its reverse for backward ones.  The final
    pass in which nothing changes is always executed and counted in
    ``passes_executed``; ``iterations`` leaves it out (at least 1).
    """
    view = _direction_view(fw, cfg)
    space = fw.space
    meet = space.meet
    top = space.top
    before: dict[int, Value] = dict.fromkeys(cfg.nodes, top)
    after: dict[int, Value] = dict.fromkeys(cfg.nodes, top)
    budget = _pass_budget(fw, cfg)
    visits = [(node, len(view.inputs[node]), view.inputs[node], fw.transfers[node])
              for node in view.order]

    passes = 0
    while True:
        passes += 1
        if passes > budget:
            raise DivergenceError(
                f"{fw.kind}: no fixed point after {budget} passes; "
                "check transfer monotonicity")
        changed = False
        # Every node is visited in pass 1.  From then on, a node whose
        # merged input is the one it last saw would return the value it
        # returned then (transfers are pure), so its visit is skipped.
        skip = passes > 1
        for node, arity, inputs, transfer in visits:
            # One input is read as is and two take one meet; _merge takes the rest.
            if arity == 1:
                merged = after[inputs[0]]
            elif arity == 2:
                merged = meet(after[inputs[0]], after[inputs[1]])
            else:
                merged = _merge(space, inputs, after)
            # A pass counts as changing when any program-point value
            # moves, merged inputs included, not only transfer outputs.
            if merged != before[node]:
                changed = True
                before[node] = merged
            elif skip:
                continue
            new = transfer(merged)
            if new != after[node]:
                changed = True
                after[node] = new
        if not changed:
            break

    in_vals, out_vals = view.in_out(before, after)
    return SolveResult(space=fw.space, in_values=in_vals, out_values=out_vals,
                       iterations=max(1, passes - 1), passes_executed=passes)


def _merge(space: EntitySpace, inputs: tuple[int, ...],
           after: dict[int, Value]) -> Value:
    if not inputs:
        return space.top
    return reduce(space.meet, map(after.__getitem__, inputs))


def worklist_solve(fw: FrameworkInstance, cfg: ControlFlowGraph) -> SolveResult:
    """Worklist fixed point; an independent oracle for round_robin_solve.

    The returned ``iterations`` is the node-visit count, which is not
    comparable to round-robin pass counts.
    """
    view = _direction_view(fw, cfg)
    top = fw.space.top
    before: dict[int, Value] = {n: top for n in cfg.nodes}
    after: dict[int, Value] = {n: top for n in cfg.nodes}
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
        merged = _merge(fw.space, view.inputs[node], after)
        before[node] = merged
        new = fw.transfers[node](merged)
        if new != after[node]:
            after[node] = new
            for nxt in view.outputs[node]:
                if nxt not in queued:
                    pending.append(nxt)
                    queued.add(nxt)

    in_vals, out_vals = view.in_out(before, after)
    return SolveResult(space=fw.space, in_values=in_vals, out_values=out_vals,
                       iterations=max(1, visits), passes_executed=0)

