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
other.
"""

from __future__ import annotations

import random
from typing import Any, Callable, NamedTuple

from .cfg_metrics import BACKWARD, FORWARD
from .engine import (
    ComponentLattice,
    EntitySpace,
    FrameworkInstance,
    ProductValue,
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
    build_cfg,
    stmt_target,
    stmt_uses,
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


def _cp_sample(rng: random.Random) -> CPValue:
    roll = rng.randrange(6)
    if roll == 0:
        return UNDEF
    if roll == 1:
        return NONCONST
    return rng.randint(-3, 3)


CP_LATTICE = ComponentLattice(
    name="constant",
    top=UNDEF,
    bottom=NONCONST,
    meet=cp_meet,
    ht=cp_ht,
    height=2,
    sample=_cp_sample,
    fmt=lambda v: repr(v),
)

_ARITH: dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


def _cp_operand(value: ProductValue, operand: str | int) -> CPValue:
    return operand if isinstance(operand, int) else value[operand]


def cp_transfer(stmt: Statement, value: ProductValue) -> ProductValue:
    """Abstract effect of one statement on per-variable constancy.

    Binary operators evaluate concretely when both operands are
    constants (wrapping at 64 bits); a nonconst operand forces
    nonconst, otherwise an undef operand leaves the result undef.
    """
    if isinstance(stmt, ConstAssign):
        return value.replacing({stmt.target: wrap64(stmt.value)})
    if isinstance(stmt, ReadAssign):
        return value.replacing({stmt.target: NONCONST})
    if isinstance(stmt, CopyAssign):
        return value.replacing({stmt.target: value[stmt.source]})
    if isinstance(stmt, BinAssign):
        left = _cp_operand(value, stmt.left)
        right = _cp_operand(value, stmt.right)
        if left is NONCONST or right is NONCONST:
            result: CPValue = NONCONST
        elif left is UNDEF or right is UNDEF:
            result = UNDEF
        else:
            result = wrap64(_ARITH[stmt.op](left, right))
        return value.replacing({stmt.target: result})
    return value


def make_constant_propagation(program: Program,
                              cfg: ControlFlowGraph | None = None) -> FrameworkInstance:
    """Forward instance over the program's variables, one CP component each."""
    if cfg is None:
        cfg = build_cfg(program)
    space = EntitySpace(tuple(program.variables), CP_LATTICE)
    transfers: dict[int, Callable[[ProductValue], ProductValue]] = {}
    dfpmod: dict[int, frozenset] = {}
    dfpuse: dict[int, frozenset] = {}
    sources: dict[int, frozenset] = {}
    for node, stmt in program.nodes.items():
        transfers[node] = (lambda v, s=stmt: cp_transfer(s, v))
        target = stmt_target(stmt)
        if target is not None:
            dfpmod[node] = frozenset((target,))
            dfpuse[node] = stmt_uses(stmt)
            # Constants, reads, and literal-only binops yield a non-top
            # value no matter what flows in.
            independent = (isinstance(stmt, (ConstAssign, ReadAssign))
                           or (isinstance(stmt, BinAssign) and not stmt_uses(stmt)))
            sources[node] = frozenset((target,)) if independent else frozenset()
        else:
            dfpmod[node] = frozenset()
            dfpuse[node] = frozenset()
            sources[node] = frozenset()
    return FrameworkInstance(
        kind=CP_KIND, direction=FORWARD, space=space, transfers=transfers,
        dfpmod=dfpmod, dfpuse=dfpuse, independent_sources=sources,
        boundary=space.top())


# ---------------------------------------------------------------------------
# faint variables

FAINT = _Token("faint")
NOT_FAINT = _Token("not-faint")


def _two_point_lattice(name: str, top: _Token, bottom: _Token) -> ComponentLattice:
    def meet(a, b):
        return a if a is b else bottom

    def ht(v):
        return 0 if v is top else 1

    def sample(rng: random.Random):
        return top if rng.randrange(2) == 0 else bottom

    return ComponentLattice(name=name, top=top, bottom=bottom, meet=meet,
                            ht=ht, height=1, sample=sample,
                            fmt=lambda v: v.label)


FV_LATTICE = _two_point_lattice("faintness", FAINT, NOT_FAINT)


def fv_transfer(stmt: Statement, value: ProductValue) -> ProductValue:
    """Backward effect on faintness given the value after the statement.

    An assignment overwrites its target, so the target is faint before
    the statement unless it also appears on the right-hand side of a
    statement whose target is needed; right-hand-side variables become
    not-faint exactly when the target is not-faint afterwards.
    """
    if isinstance(stmt, ASSIGNMENTS):
        updates: dict[str, _Token] = {stmt.target: FAINT}
        if value[stmt.target] is NOT_FAINT:
            for var in stmt_uses(stmt):
                updates[var] = NOT_FAINT
        return value.replacing(updates)
    if isinstance(stmt, Print):
        return value.replacing({stmt.source: NOT_FAINT})
    return value


def make_faint_variables(program: Program,
                         cfg: ControlFlowGraph | None = None) -> FrameworkInstance:
    """Backward instance: all variables start faint at exits."""
    if cfg is None:
        cfg = build_cfg(program)
    space = EntitySpace(tuple(program.variables), FV_LATTICE)
    transfers: dict[int, Callable[[ProductValue], ProductValue]] = {}
    dfpmod: dict[int, frozenset] = {}
    dfpuse: dict[int, frozenset] = {}
    sources: dict[int, frozenset] = {}
    for node, stmt in program.nodes.items():
        transfers[node] = (lambda v, s=stmt: fv_transfer(s, v))
        if isinstance(stmt, ASSIGNMENTS):
            dfpmod[node] = stmt_uses(stmt)
            dfpuse[node] = frozenset((stmt.target,))
            sources[node] = frozenset()
        elif isinstance(stmt, Print):
            dfpmod[node] = frozenset((stmt.source,))
            dfpuse[node] = frozenset()
            sources[node] = frozenset((stmt.source,))
        else:
            dfpmod[node] = frozenset()
            dfpuse[node] = frozenset()
            sources[node] = frozenset()
    return FrameworkInstance(
        kind=FAINT_KIND, direction=BACKWARD, space=space, transfers=transfers,
        dfpmod=dfpmod, dfpuse=dfpuse, independent_sources=sources,
        boundary=space.top())


# ---------------------------------------------------------------------------
# renamed definitions and uses

class DefId(NamedTuple):
    """A definition of `var` at statement `stmt`."""

    var: str
    stmt: int

    def __str__(self) -> str:
        return f"{self.var}_{self.stmt}"


class UseId(NamedTuple):
    """A use of `var` at statement `stmt`."""

    var: str
    stmt: int

    def __str__(self) -> str:
        return f"{self.var}_{self.stmt}"


def program_definitions(program: Program) -> tuple[DefId, ...]:
    return tuple(DefId(stmt_target(stmt), node)
                 for node, stmt in sorted(program.nodes.items())
                 if stmt_target(stmt) is not None)


def program_uses(program: Program) -> tuple[UseId, ...]:
    uses: list[UseId] = []
    for node, stmt in sorted(program.nodes.items()):
        for var in sorted(stmt_uses(stmt)):
            uses.append(UseId(var, node))
    return tuple(uses)


def expression_key(stmt: Statement) -> str | None:
    """Canonical name of the expression a statement computes.

    Only binary right-hand sides with at least one variable operand
    count; literal-only expressions are never killed so they are not
    tracked.  Operand order matters: y+2 and 2+y are distinct.
    """
    if isinstance(stmt, BinAssign) and stmt_uses(stmt):
        left = stmt.left if isinstance(stmt.left, str) else str(stmt.left)
        right = stmt.right if isinstance(stmt.right, str) else str(stmt.right)
        return f"{left}{stmt.op}{right}"
    return None


def expression_operands(stmt: Statement) -> frozenset[str]:
    if isinstance(stmt, BinAssign):
        return stmt_uses(stmt)
    return frozenset()


def program_expressions(program: Program) -> tuple[tuple[str, frozenset[str]], ...]:
    """Distinct tracked expressions with their operand variables."""
    seen: dict[str, frozenset[str]] = {}
    for _, stmt in sorted(program.nodes.items()):
        key = expression_key(stmt)
        if key is not None and key not in seen:
            seen[key] = expression_operands(stmt)
    return tuple(seen.items())


# ---------------------------------------------------------------------------
# bit-vector frameworks

def _constant_write_transfer(space: EntitySpace,
                             writes: tuple[tuple[int, Any], ...]):
    if not writes:
        return lambda v: v

    def transfer(value: ProductValue) -> ProductValue:
        vals = list(value.values)
        for idx, val in writes:
            vals[idx] = val
        return ProductValue(space, tuple(vals))

    return transfer


def make_bitvector_framework(program: Program, kind: str,
                             cfg: ControlFlowGraph | None = None) -> FrameworkInstance:
    """Build one of the separable analyses (avail, reach, live).

    Every transfer either leaves a component alone or sets it to a
    constant, so f(f(x)) = f(x) holds per node.  Information enters
    only through the constant writes of the non-top value: expression
    kills for avail, definition generation for reach, and use sites
    for live.
    """
    if cfg is None:
        cfg = build_cfg(program)
    if kind == AVAIL_KIND:
        lattice = _two_point_lattice("availability",
                                     _Token("avail"), _Token("not-avail"))
        entities: tuple = tuple(key for key, _ in program_expressions(program))
        operands = dict(program_expressions(program))
        direction = FORWARD
    elif kind == REACH_KIND:
        lattice = _two_point_lattice("reaching",
                                     _Token("not-reaching"), _Token("reaching"))
        entities = program_definitions(program)
        direction = FORWARD
    elif kind == LIVE_KIND:
        lattice = _two_point_lattice("liveness",
                                     _Token("not-live"), _Token("live"))
        entities = program_uses(program)
        direction = BACKWARD
    else:
        raise ValueError(f"unknown bit-vector kind {kind!r}")

    space = EntitySpace(entities, lattice)
    transfers: dict[int, Callable[[ProductValue], ProductValue]] = {}
    dfpmod: dict[int, frozenset] = {}
    dfpuse: dict[int, frozenset] = {}
    sources: dict[int, frozenset] = {}
    by_var: dict[str, list] = {}
    by_stmt: dict[int, list] = {}
    if kind != AVAIL_KIND:
        for e in entities:
            by_var.setdefault(e.var, []).append(e)
            by_stmt.setdefault(e.stmt, []).append(e)

    for node, stmt in program.nodes.items():
        target = stmt_target(stmt)
        writes: list[tuple[int, Any]] = []
        bottom_written: list = []
        if kind == AVAIL_KIND:
            computed = expression_key(stmt)
            for key in entities:
                if target is not None and target in operands[key]:
                    writes.append((space.index[key], lattice.bottom))
                    bottom_written.append(key)
                elif key == computed:
                    writes.append((space.index[key], lattice.top))
        else:
            # Renamed instances: the statement generates its own and an
            # assignment kills the other instances of its target.
            for e in by_var.get(target, ()):
                if e.stmt != node:
                    writes.append((space.index[e], lattice.top))
            for e in by_stmt.get(node, ()):
                writes.append((space.index[e], lattice.bottom))
                bottom_written.append(e)
        transfers[node] = _constant_write_transfer(space, tuple(writes))
        dfpmod[node] = sources[node] = frozenset(bottom_written)
        dfpuse[node] = frozenset()

    return FrameworkInstance(
        kind=kind, direction=direction, space=space, transfers=transfers,
        dfpmod=dfpmod, dfpuse=dfpuse, independent_sources=sources,
        boundary=space.top())


def make_framework(program: Program, kind: str,
                   cfg: ControlFlowGraph | None = None) -> FrameworkInstance:
    if kind == CP_KIND:
        return make_constant_propagation(program, cfg)
    if kind == FAINT_KIND:
        return make_faint_variables(program, cfg)
    if kind in BITVECTOR_KINDS:
        return make_bitvector_framework(program, kind, cfg)
    raise ValueError(f"unknown analysis kind {kind!r}; expected one of {ANALYSIS_KINDS}")
