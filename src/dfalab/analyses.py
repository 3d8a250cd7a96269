"""Concrete framework instantiations.

Five analyses share the generic engine:

* ``cp``    - constant propagation, forward, non-separable, component
              height 2 (undef above constants above nonconst).
* ``faint`` - faint variables, backward, non-separable, height 1.
              A variable is faint when it is dead or only feeds other
              faint variables; not-faint equals strongly live.
* ``avail`` - available expressions, forward bit-vector.
* ``reach`` - reaching definitions with renamed (per-statement) defs,
              forward bit-vector.
* ``live``  - live variables with renamed (per-statement) uses,
              backward bit-vector.

The bit-vector analyses are separable: every transfer is a constant
or the identity per component, so entities never influence each
other.  All but ``cp`` have two-point component lattices, so their
values are int masks (``engine.MaskSpace``) and their transfers are
bit operations.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, NamedTuple

from .cfg_metrics import BACKWARD, FORWARD
from .engine import (
    ComponentLattice,
    FrameworkInstance,
    Value,
    entity_space,
)
from .ir import (
    ASSIGNMENTS,
    BinAssign,
    ConstAssign,
    ControlFlowGraph,
    CopyAssign,
    Print,
    Program,
    ReadAssign,
    Statement,
    wrap64,
)

CP_KIND = "cp"
FAINT_KIND = "faint"
AVAIL_KIND = "avail"
REACH_KIND = "reach"
LIVE_KIND = "live"

BITVECTOR_KINDS = (AVAIL_KIND, REACH_KIND, LIVE_KIND)
ANALYSIS_KINDS = (CP_KIND, FAINT_KIND) + BITVECTOR_KINDS


class _Token:
    """Named lattice element with identity semantics."""

    __slots__ = ("label",)

    def __init__(self, label: str):
        self.label = label

    def __repr__(self) -> str:
        return self.label


# ---------------------------------------------------------------------------
# constant propagation

UNDEF = _Token("undef")
NONCONST = _Token("nonconst")

CPValue = Any  # UNDEF, NONCONST, or a plain int constant


def cp_meet(a: CPValue, b: CPValue) -> CPValue:
    if a is UNDEF:
        return b
    if b is UNDEF:
        return a
    if a is NONCONST or b is NONCONST:
        return NONCONST
    return a if a == b else NONCONST


def cp_ht(value: CPValue) -> int:
    if value is UNDEF:
        return 0
    if value is NONCONST:
        return 2
    return 1


CP_LATTICE = ComponentLattice(
    top=UNDEF,
    bottom=NONCONST,
    meet=cp_meet,
    ht=cp_ht,
    height=2,
)

_ARITH: dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


def _identity(value: Value) -> Value:
    return value


def cp_transfer(stmt: Statement, index: Mapping[str, int]) -> Callable[[Value], Value]:
    """Abstract effect of one statement on per-variable constancy, as a function.

    ``index`` maps each variable to its position in a value; the
    returned function reads only the operand positions and writes only
    the target's.  Binary operators evaluate concretely when both
    operands are constants (wrapping at 64 bits); a nonconst operand
    forces nonconst, otherwise an undef operand leaves the result undef.
    Statements that compute nothing share one identity function.
    """
    if not isinstance(stmt, ASSIGNMENTS):
        return _identity
    i = index[stmt.target]
    if isinstance(stmt, CopyAssign):
        return lambda v, i=i, j=i + 1, s=index[stmt.source]: v[:i] + (v[s],) + v[j:]
    if isinstance(stmt, BinAssign):
        op, left, right = _ARITH[stmt.op], stmt.left, stmt.right
        if isinstance(left, str) and isinstance(right, str):
            def binop(v: Value, i=i, j=i + 1, a=index[left], b=index[right], op=op) -> Value:
                x, y = v[a], v[b]
                if x is NONCONST or y is NONCONST:
                    r = NONCONST
                elif x is UNDEF or y is UNDEF:
                    r = UNDEF
                else:
                    r = wrap64(op(x, y))
                return v[:i] + (r,) + v[j:]
            return binop
        if isinstance(left, str) or isinstance(right, str):
            # One variable operand: its undef or nonconst is the result.
            var_left = isinstance(left, str)

            def mixed(v: Value, i=i, j=i + 1, a=index[left if var_left else right],
                      c=right if var_left else left, op=op, var_left=var_left) -> Value:
                x = v[a]
                if x is NONCONST or x is UNDEF:
                    r = x
                else:
                    r = wrap64(op(x, c) if var_left else op(c, x))
                return v[:i] + (r,) + v[j:]
            return mixed
        result: CPValue = wrap64(op(left, right))
    elif isinstance(stmt, ConstAssign):
        result = wrap64(stmt.value)
    else:  # ReadAssign
        result = NONCONST
    return lambda v, i=i, j=i + 1, r=result: v[:i] + (r,) + v[j:]


def make_constant_propagation(program: Program) -> FrameworkInstance:
    """Forward instance over the program's variables, one CP component each."""
    space = entity_space(tuple(program.variables), CP_LATTICE)
    transfers: dict[int, Callable[[Value], Value]] = {}
    dfpuse: dict[int, frozenset] = {}
    sources: dict[int, frozenset] = {}
    empty: frozenset = frozenset()
    facts = program.facts
    for node, stmt in program.nodes.items():
        transfers[node] = cp_transfer(stmt, space.index)
        if isinstance(stmt, ASSIGNMENTS):
            _, uses, _, _ = facts[node]
            dfpuse[node] = uses
            # Constants, reads, and literal-only binops yield a non-top
            # value no matter what flows in.
            independent = isinstance(stmt, (ConstAssign, ReadAssign)) or (
                isinstance(stmt, BinAssign) and not uses)
            sources[node] = frozenset((stmt.target,)) if independent else empty
        else:
            dfpuse[node] = sources[node] = empty
    return FrameworkInstance(
        kind=CP_KIND, direction=FORWARD, space=space, transfers=transfers,
        dfpuse=dfpuse, independent_sources=sources)


# ---------------------------------------------------------------------------
# faint variables

FAINT = _Token("faint")
NOT_FAINT = _Token("not-faint")


def _two_point_lattice(top: _Token, bottom: _Token) -> ComponentLattice:
    def meet(a, b):
        return a if a is b else bottom

    def ht(v):
        return 0 if v is top else 1

    return ComponentLattice(top=top, bottom=bottom, meet=meet, ht=ht, height=1)


FV_LATTICE = _two_point_lattice(FAINT, NOT_FAINT)


def make_faint_variables(program: Program) -> FrameworkInstance:
    """Backward instance: all variables start faint, at every node.

    A value's set bits are the not-faint variables.  An assignment
    clears its target's bit t, then sets its right-hand side's bits u
    (the target's included) when t was set: ``v & ~t | u if v & t``.
    """
    space = entity_space(tuple(program.variables), FV_LATTICE)
    bit = {var: 1 << i for var, i in space.index.items()}
    alone = {var: frozenset((var,)) for var in space.entities}
    transfers: dict[int, Callable[[Value], Value]] = {}
    dfpuse: dict[int, frozenset] = {}
    sources: dict[int, frozenset] = {}
    empty: frozenset = frozenset()
    facts = program.facts
    for node, stmt in program.nodes.items():
        if isinstance(stmt, ASSIGNMENTS):
            u = 0
            _, uses, _, _ = facts[node]
            for var in uses:
                u |= bit[var]
            t = bit[stmt.target]
            transfers[node] = lambda v, t=t, c=~t, u=u: v & c | u if v & t else v & c
            dfpuse[node] = alone[stmt.target]
            sources[node] = empty
        elif isinstance(stmt, Print):
            transfers[node] = (lambda v, b=bit[stmt.source]: v | b)
            sources[node] = alone[stmt.source]
            dfpuse[node] = empty
        else:
            transfers[node] = _identity
            dfpuse[node] = sources[node] = empty
    return FrameworkInstance(
        kind=FAINT_KIND, direction=BACKWARD, space=space, transfers=transfers,
        dfpuse=dfpuse, independent_sources=sources)


# ---------------------------------------------------------------------------
# renamed definitions and uses

class Instance(NamedTuple):
    """A renamed instance: `var` defined (reach) or used (live) at `stmt`.

    The instances at a statement are the entities its ``cp``
    (definitions) or ``faint`` (uses) flow function computes, so they
    are also the EDG nodes.
    """

    var: str
    stmt: int

    def __repr__(self) -> str:
        return f"{self.var}_{self.stmt}"


# The entity tuples below list statements in ascending node id, whatever
# the order of ``program.nodes``.

def program_definitions(program: Program) -> tuple[Instance, ...]:
    return tuple(Instance(target, node)
                 for node, (target, _, _, _) in sorted(program.facts.items())
                 if target is not None)


def program_uses(program: Program) -> tuple[Instance, ...]:
    return tuple(Instance(var, node)
                 for node, (_, _, names, _) in sorted(program.facts.items())
                 for var in names)


def program_expressions(program: Program) -> tuple[tuple[str, frozenset[str]], ...]:
    """Distinct tracked expressions with their operand variables."""
    seen: dict[str, frozenset[str]] = {}
    for _, (_, uses, _, key) in sorted(program.facts.items()):
        if key is not None and key not in seen:
            seen[key] = uses
    return tuple(seen.items())


# ---------------------------------------------------------------------------
# bit-vector frameworks

AVAIL_LATTICE = _two_point_lattice(_Token("avail"), _Token("not-avail"))
REACH_LATTICE = _two_point_lattice(_Token("not-reaching"), _Token("reaching"))
LIVE_LATTICE = _two_point_lattice(_Token("not-live"), _Token("live"))


def make_bitvector_framework(program: Program, kind: str) -> FrameworkInstance:
    """Build one of the separable analyses (avail, reach, live).

    Every transfer either leaves a component alone or sets it to a
    constant, so f(f(x)) = f(x) holds per node: as a mask transfer it
    is ``v & keep | gen``.  Information enters only through the
    constant writes of the non-top value, the ``gen`` bits: expression
    kills for avail, definition generation for reach, and use sites
    for live.
    """
    if kind == AVAIL_KIND:
        lattice = AVAIL_LATTICE
        expressions = program_expressions(program)
        entities: tuple = tuple(key for key, _ in expressions)
        direction = FORWARD
    elif kind == REACH_KIND:
        lattice = REACH_LATTICE
        entities = program_definitions(program)
        direction = FORWARD
    elif kind == LIVE_KIND:
        lattice = LIVE_LATTICE
        entities = program_uses(program)
        direction = BACKWARD
    else:
        raise ValueError(f"unknown bit-vector kind {kind!r}")

    space = entity_space(entities, lattice)
    # Assigning a variable sets var_mask's entities to bottom (avail: the
    # expressions reading it) or to top (its renamed instances).  own_mask:
    # each expression's bit (avail) or each statement's own instances.
    var_mask: dict[str, int] = {}
    own_mask: dict = {}
    if kind == AVAIL_KIND:
        for i, (key, operands) in enumerate(expressions):
            own_mask[key] = 1 << i
            for var in operands:
                var_mask[var] = var_mask.get(var, 0) | 1 << i
    else:
        for i, (var, stmt) in enumerate(entities):
            var_mask[var] = var_mask.get(var, 0) | 1 << i
            own_mask[stmt] = own_mask.get(stmt, 0) | 1 << i

    transfers: dict[int, Callable[[Value], Value]] = {}
    for node, (target, _, _, key) in program.facts.items():
        killed = var_mask.get(target, 0)
        if kind == AVAIL_KIND:
            keep = ~(killed | own_mask.get(key, 0))
            gen = killed
        else:
            keep, gen = ~killed, own_mask.get(node, 0)
        transfers[node] = (lambda v, keep=keep, gen=gen: v & keep | gen) \
            if keep != -1 or gen else _identity

    # Separable: no transfer reads an entity, so no dependences to declare.
    return FrameworkInstance(
        kind=kind, direction=direction, space=space, transfers=transfers,
        dfpuse={}, independent_sources={})


def make_framework(program: Program, kind: str,
                   cfg: ControlFlowGraph | None = None) -> FrameworkInstance:
    # No builder reads `cfg`; it stays because the benchmark's checks pass it.
    if kind == CP_KIND:
        return make_constant_propagation(program)
    if kind == FAINT_KIND:
        return make_faint_variables(program)
    if kind in BITVECTOR_KINDS:
        return make_bitvector_framework(program, kind)
    raise ValueError(f"unknown analysis kind {kind!r}; expected one of {ANALYSIS_KINDS}")
