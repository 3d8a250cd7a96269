"""Mini-IR: statements, programs, control flow graphs, and the text format.

A program is a list of declared variables plus numbered nodes, one
statement per node, connected by explicit edges.  The text format is
line oriented:

    program NAME
    vars NAME ("," NAME)*
    node INT STMT
    edge INT "->" INT
    entry INT            (optional, at most once; defaults to the
                          lowest node id)
    exit INT             (optional, repeatable; must name a node,
                          and nothing reads it)

    STMT := NAME "=" RHS | "print" NAME | "skip"
    RHS  := INT | NAME | OPND OP OPND | "read()"
    OPND := NAME | INT
    OP   := "+" | "-" | "*"

Comments start with '#' and run to end of line; blank lines are
ignored.  Integer literals must fit in the signed 64-bit range and all
arithmetic wraps around in two's complement.

``build_cfg`` runs the one depth-first search of a CFG, from the entry
with successors in ascending id order: ``ControlFlowGraph.order`` is
its reverse postorder, the round-robin visit order, and
``ControlFlowGraph.back_edges`` its back edges, which give the depth d.

Program and ControlFlowGraph are immutable once constructed and safe
to share between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Union

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_KEYWORDS = {
    "program", "vars", "node", "edge", "entry", "exit",
    "print", "skip", "read",
}

BINARY_OPS = ("+", "-", "*")


def wrap64(value: int) -> int:
    """Reduce an integer to signed 64-bit two's complement."""
    return (value - INT64_MIN) % (2**64) + INT64_MIN


# ---------------------------------------------------------------------------
# statements


@dataclass(frozen=True, slots=True)
class ConstAssign:
    target: str
    value: int


@dataclass(frozen=True, slots=True)
class CopyAssign:
    target: str
    source: str


@dataclass(frozen=True, slots=True)
class BinAssign:
    target: str
    left: Union[str, int]
    op: str
    right: Union[str, int]


@dataclass(frozen=True, slots=True)
class ReadAssign:
    target: str


@dataclass(frozen=True, slots=True)
class Print:
    source: str


@dataclass(frozen=True, slots=True)
class Skip:
    pass


Statement = Union[ConstAssign, CopyAssign, BinAssign, ReadAssign, Print, Skip]

ASSIGNMENTS = (ConstAssign, CopyAssign, BinAssign, ReadAssign)


def stmt_target(stmt: Statement) -> str | None:
    """Variable defined by the statement, or None."""
    if isinstance(stmt, ASSIGNMENTS):
        return stmt.target
    return None


def stmt_uses(stmt: Statement) -> frozenset[str]:
    """Variables read by the statement."""
    if isinstance(stmt, BinAssign):
        left, right = stmt.left, stmt.right
        if isinstance(left, str):
            return frozenset((left, right) if isinstance(right, str) else (left,))
        return frozenset((right,) if isinstance(right, str) else ())
    if isinstance(stmt, (CopyAssign, Print)):
        return frozenset((stmt.source,))
    return frozenset()


def expression_key(stmt: Statement) -> str | None:
    """Canonical name of the expression a statement computes.

    Only binary right-hand sides with at least one variable operand
    count; literal-only expressions are never killed so they are not
    tracked.  Operand order matters: y+2 and 2+y are distinct.
    """
    if isinstance(stmt, BinAssign) and (isinstance(stmt.left, str)
                                        or isinstance(stmt.right, str)):
        return f"{stmt.left}{stmt.op}{stmt.right}"
    return None


# What validation and the analyses read of one statement: its
# (stmt_target, stmt_uses, the uses in ascending order, expression_key).
StmtFacts = tuple[str | None, frozenset[str], tuple[str, ...], str | None]


def _render_operand(op: Union[str, int]) -> str:
    return op if isinstance(op, str) else str(op)


def render_stmt(stmt: Statement) -> str:
    if isinstance(stmt, ConstAssign):
        return f"{stmt.target} = {stmt.value}"
    if isinstance(stmt, CopyAssign):
        return f"{stmt.target} = {stmt.source}"
    if isinstance(stmt, BinAssign):
        return (f"{stmt.target} = {_render_operand(stmt.left)} "
                f"{stmt.op} {_render_operand(stmt.right)}")
    if isinstance(stmt, ReadAssign):
        return f"{stmt.target} = read()"
    if isinstance(stmt, Print):
        return f"print {stmt.source}"
    if isinstance(stmt, Skip):
        return "skip"
    raise TypeError(f"not a statement: {stmt!r}")


# ---------------------------------------------------------------------------
# program and CFG


@dataclass(frozen=True)
class Program:
    """A parsed and fully resolved program.

    Node ids are unique positive integers; edges reference declared
    nodes only.  `facts` derives what validation and the analyses read
    of each statement once, on first use.
    """

    name: str
    variables: tuple[str, ...]
    nodes: dict[int, Statement]
    edges: tuple[tuple[int, int], ...]
    entry: int

    @cached_property
    def facts(self) -> dict[int, StmtFacts]:
        """Each node's StmtFacts, in ``nodes`` order, derived once per program."""
        facts: dict[int, StmtFacts] = {}
        for node, stmt in self.nodes.items():
            uses = stmt_uses(stmt)
            # A statement reads at most two names; only a pair needs sorting.
            facts[node] = (stmt_target(stmt), uses,
                           tuple(sorted(uses) if len(uses) > 1 else uses),
                           expression_key(stmt))
        return facts


@dataclass(frozen=True)
class ControlFlowGraph:
    """Successor/predecessor view of a validated Program, and its DFS."""

    program: Program
    nodes: tuple[int, ...]
    successors: dict[int, tuple[int, ...]]
    predecessors: dict[int, tuple[int, ...]]
    entry: int
    order: tuple[int, ...]
    back_edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class Diagnostic:
    """One violated program invariant, with its location."""

    code: str
    message: str
    node: int | None = None
    edge: tuple[int, int] | None = None

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ParseError(ValueError):
    """Syntax or resolution error in IR text, with line/column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InvalidProgramError(ValueError):
    """Raised when an operation requires a program that validates cleanly."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


# ---------------------------------------------------------------------------
# parsing

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_INT_RE = re.compile(r"-?[0-9]+$")


def _is_name(token: str) -> bool:
    return bool(_NAME_RE.match(token)) and token not in _KEYWORDS


def _is_int(token: str) -> bool:
    # ASCII digits alone settle the common case without the regex.
    return token.isascii() and token.isdigit() or _INT_RE.match(token) is not None


class _LineParser:
    """Parses one logical source file into a Program."""

    def __init__(self, text: str):
        self.text = text
        self.name: str | None = None
        self.variables: list[str] = []
        self.declared: set[str] = set()
        self.nodes: dict[int, Statement] = {}
        self.edges: list[tuple[int, int]] = []
        self.entry: int | None = None
        # (node id, line number) of each exit line, checked once all nodes are read.
        self.exits: list[tuple[int, int]] = []

    def parse(self) -> Program:
        nodes, edges = self.nodes, self.edges
        for lineno, line in enumerate(self.text.splitlines(), start=1):
            if "#" in line:
                line = line.split("#", 1)[0]
            tokens = line.split()
            if not tokens:
                continue
            keyword = tokens[0]
            # node and edge lines, nearly all of a file, are handled here.
            if keyword == "node":
                if len(tokens) < 3 or not _is_int(tokens[1]):
                    raise ParseError("expected 'node INT STMT'", lineno, 1)
                node_id = int(tokens[1])
                if node_id <= 0:
                    raise ParseError(f"node id must be positive, got {node_id}",
                                     lineno, self._column(line, tokens[1]))
                if node_id in nodes:
                    raise ParseError(f"duplicate node id {node_id}", lineno,
                                     self._column(line, tokens[1]))
                nodes[node_id] = self._parse_stmt(line, tokens[2:], lineno)
            elif keyword == "edge":
                if len(tokens) != 4 or tokens[2] != "->" \
                        or not _is_int(tokens[1]) or not _is_int(tokens[3]):
                    raise ParseError("expected 'edge INT -> INT'", lineno, 1)
                edges.append((int(tokens[1]), int(tokens[3])))
            else:
                self._parse_directive(line.rstrip(), tokens, lineno)
        if self.name is None:
            raise ParseError("missing 'program' declaration", 1)
        if not nodes:
            raise ParseError("program has no nodes", 1)
        for node_id, lineno in self.exits:
            if node_id not in nodes:
                raise ParseError(f"exit {node_id} is not a declared node", lineno, 1)
        entry = self.entry if self.entry is not None else min(nodes)
        return Program(
            name=self.name,
            variables=tuple(self.variables),
            nodes=dict(sorted(nodes.items())),
            edges=tuple(edges),
            entry=entry,
        )

    def _column(self, line: str, token: str) -> int:
        pos = line.find(token)
        return pos + 1 if pos >= 0 else 1

    def _parse_directive(self, line: str, tokens: list[str], lineno: int) -> None:
        keyword = tokens[0]
        if keyword == "program":
            if len(tokens) != 2 or not _is_name(tokens[1]):
                raise ParseError("expected 'program NAME'", lineno, 1)
            if self.name is not None:
                raise ParseError("second 'program' line", lineno, 1)
            self.name = tokens[1]
        elif keyword == "vars":
            rest = line.split(None, 1)
            if len(rest) < 2:
                raise ParseError("expected 'vars NAME, NAME, ...'", lineno, 1)
            for piece in rest[1].split(","):
                var = piece.strip()
                if not _is_name(var):
                    raise ParseError(f"bad variable name {var!r}", lineno,
                                     self._column(line, piece.strip() or ","))
                if var in self.declared:
                    raise ParseError(f"duplicate variable {var!r}", lineno,
                                     self._column(line, var))
                self.variables.append(var)
                self.declared.add(var)
        elif keyword == "entry":
            if len(tokens) != 2 or not _is_int(tokens[1]):
                raise ParseError("expected 'entry INT'", lineno, 1)
            if self.entry is not None:
                raise ParseError("second 'entry' line", lineno, 1)
            self.entry = int(tokens[1])
        elif keyword == "exit":
            if len(tokens) != 2 or not _is_int(tokens[1]):
                raise ParseError("expected 'exit INT'", lineno, 1)
            self.exits.append((int(tokens[1]), lineno))
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno, 1)

    def _literal(self, line: str, token: str, lineno: int) -> int:
        value = int(token)
        if not INT64_MIN <= value <= INT64_MAX:
            raise ParseError(f"integer literal {token} out of 64-bit range", lineno,
                             self._column(line, token))
        return value

    def _operand(self, line: str, token: str, lineno: int) -> Union[str, int]:
        if token in self.declared:
            return token
        if _is_int(token):
            return self._literal(line, token, lineno)
        if _is_name(token):
            raise self._undeclared(token, line, lineno)
        raise ParseError(f"bad operand {token!r}", lineno, self._column(line, token))

    def _undeclared(self, var: str, line: str, lineno: int) -> ParseError:
        return ParseError(f"undeclared variable {var!r}", lineno, self._column(line, var))

    def _parse_stmt(self, line: str, tokens: list[str], lineno: int) -> Statement:
        # A declared variable is a name, so checking the declared set
        # first settles the common tokens without a regex.
        declared = self.declared
        if tokens == ["skip"]:
            return Skip()
        if tokens[0] == "print":
            if len(tokens) != 2 or tokens[1] not in declared and not _is_name(tokens[1]):
                raise ParseError("expected 'print NAME'", lineno, 1)
            if tokens[1] not in declared:
                raise self._undeclared(tokens[1], line, lineno)
            return Print(tokens[1])
        if len(tokens) >= 3 and tokens[1] == "=":
            target = tokens[0]
            if target not in declared:
                if not _is_name(target):
                    raise ParseError(f"bad assignment target {target!r}", lineno,
                                     self._column(line, target))
                raise self._undeclared(target, line, lineno)
            rhs = tokens[2:]
            if rhs == ["read()"] or rhs == ["read", "(", ")"]:
                return ReadAssign(target)
            if len(rhs) == 1:
                source = rhs[0]
                if source in declared:
                    return CopyAssign(target, source)
                if _is_int(source):
                    return ConstAssign(target, self._literal(line, source, lineno))
                if not _is_name(source):
                    raise ParseError(f"bad right-hand side {source!r}", lineno,
                                     self._column(line, source))
                raise self._undeclared(source, line, lineno)
            if len(rhs) == 3:
                if rhs[1] not in BINARY_OPS:
                    raise ParseError(f"unknown operator {rhs[1]!r}", lineno,
                                     self._column(line, rhs[1]))
                left = self._operand(line, rhs[0], lineno)
                right = self._operand(line, rhs[2], lineno)
                return BinAssign(target, left, rhs[1], right)
        raise ParseError(f"cannot parse statement {' '.join(tokens)!r}", lineno, 1)


def parse_program(text: str) -> Program:
    """Parse IR text into a Program.

    Raises ParseError (with line/column) on syntax errors, undeclared
    variables, duplicate node ids, and unknown operators.
    """
    return _LineParser(text).parse()


# ---------------------------------------------------------------------------
# validation

def validate_program(program: Program) -> list[Diagnostic]:
    """Check all Program invariants; an empty list means the program is valid."""
    return _walk(program)[0]


def _walk(program: Program) -> tuple[list[Diagnostic], dict, dict, tuple[int, ...],
                                     frozenset[tuple[int, int]]]:
    """Diagnostics, successor and predecessor maps, reverse postorder and back edges.

    The depth-first search from the entry takes successors in ascending
    id order, and the nodes it misses are unreachable.  Ids are sorted
    only once all are positive integers, so other ids get a diagnostic.
    """
    diags: list[Diagnostic] = []
    declared = set(program.variables)
    nodes = program.nodes

    seen_vars = set()
    for var in program.variables:
        if var in seen_vars:
            diags.append(Diagnostic("duplicate-variable", f"variable {var!r} declared twice"))
        seen_vars.add(var)

    ids_valid = True
    for node_id, (target, uses, _, _) in program.facts.items():
        if not isinstance(node_id, int) or node_id <= 0:
            ids_valid = False
            diags.append(Diagnostic("invalid-node-id",
                                    f"node id {node_id!r} is not a positive integer",
                                    node=node_id))
        if not (uses <= declared and (target is None or target in declared)):
            mentioned = set(uses)
            if target is not None:
                mentioned.add(target)
            for var in sorted(mentioned - declared):
                diags.append(Diagnostic("undeclared-variable",
                                        f"node {node_id} mentions undeclared variable {var!r}",
                                        node=node_id))
        stmt = nodes[node_id]
        if isinstance(stmt, ConstAssign) and not INT64_MIN <= stmt.value <= INT64_MAX:
            diags.append(Diagnostic("literal-out-of-range",
                                    f"node {node_id} literal {stmt.value} exceeds 64-bit range",
                                    node=node_id))

    succ: dict[int, list[int]] = {n: [] for n in nodes}
    pred: dict[int, list[int]] = {n: [] for n in nodes}
    for edge in program.edges:
        src, dst = edge
        if src in succ and dst in succ:
            if dst not in succ[src]:
                succ[src].append(dst)
                pred[dst].append(src)
            continue
        for endpoint in edge:
            if endpoint not in nodes:
                diags.append(Diagnostic("undefined-node-in-edge",
                                        f"edge {src}->{dst} references undefined node {endpoint}",
                                        edge=edge))

    entry = program.entry
    if entry not in nodes:
        diags.append(Diagnostic("undefined-entry",
                                f"entry {entry} is not a declared node", node=entry))

    if ids_valid:
        for ids in (*succ.values(), *pred.values()):
            ids.sort()
    successors = {n: tuple(s) for n, s in succ.items()}
    predecessors = {n: tuple(p) for n, p in pred.items()}
    back: set[tuple[int, int]] = set()
    postorder: list[int] = []
    visited = {entry}
    on_stack = {entry}
    # Explicit stack of (node, iterator over its remaining successors)
    # to avoid recursion limits on long chains.
    stack = [(entry, iter(successors[entry]))] if entry in nodes else []
    while stack:
        node, rest = stack[-1]
        for nxt in rest:
            if nxt in on_stack:
                back.add((node, nxt))
            elif nxt not in visited:
                visited.add(nxt)
                on_stack.add(nxt)
                stack.append((nxt, iter(successors[nxt])))
                break
        else:
            stack.pop()
            on_stack.discard(node)
            postorder.append(node)
    if entry in nodes:
        missed = [n for n in nodes if n not in visited]
        for node_id in sorted(missed) if ids_valid else missed:
            diags.append(Diagnostic("unreachable-node",
                                    f"node {node_id} is not reachable from entry",
                                    node=node_id))
    return diags, successors, predecessors, tuple(reversed(postorder)), frozenset(back)


def build_cfg(program: Program) -> ControlFlowGraph:
    """Build the successor/predecessor view.  Requires a valid program."""
    diags, successors, predecessors, order, back_edges = _walk(program)
    if diags:
        raise InvalidProgramError(diags)
    return ControlFlowGraph(
        program=program,
        nodes=tuple(sorted(program.nodes)),
        successors=successors,
        predecessors=predecessors,
        entry=program.entry,
        order=order,
        back_edges=back_edges,
    )


# ---------------------------------------------------------------------------
# serialization

def serialize_program(program: Program) -> str:
    """Render a Program as IR text; parse_program round-trips it."""
    lines = [f"program {program.name}"]
    if program.variables:
        lines.append("vars " + ", ".join(program.variables))
    for node_id in sorted(program.nodes):
        lines.append(f"node {node_id}  {render_stmt(program.nodes[node_id])}")
    for src, dst in program.edges:
        lines.append(f"edge {src} -> {dst}")
    lines.append(f"entry {program.entry}")
    return "\n".join(lines) + "\n"
