"""Deterministic random program generation.

Programs are built structurally from sequences, if-diamonds, and
while-loops, so node ids follow program order and every loop's back
edge targets its header.  With ``irreducible_edge_probability`` zero
(the default) the generated CFGs are reducible; a positive value adds
extra edges that may break reducibility.

Generation is a pure function of (config, program index): the same
inputs always produce structurally identical programs and, once
serialized, byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

from .ir import (
    BinAssign,
    ConstAssign,
    CopyAssign,
    Print,
    Program,
    ReadAssign,
    Skip,
    Statement,
)

DEFAULT_STMT_WEIGHTS: dict[str, float] = {
    "const": 3.0,
    "copy": 2.0,
    "binop": 4.0,
    "read": 1.0,
    "print": 2.0,
    "skip": 1.0,
}
# The statement kinds and the running sums that rng.choices(weights=...)
# would build on every draw; the draw itself is the same single
# random() call.
_KINDS = tuple(DEFAULT_STMT_WEIGHTS)
_CUM_WEIGHTS = tuple(accumulate(DEFAULT_STMT_WEIGHTS.values()))

_VAR_POOL = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for one generated program.

    ``variable_count`` may be a fixed int or an inclusive (lo, hi)
    range sampled per program.  ``node_budget`` bounds the node count
    from above; the structural builder may stop short.  Statement kinds
    are drawn with ``DEFAULT_STMT_WEIGHTS``.  Out-of-range values raise
    ValueError.  Configs are immutable and hashable.
    """

    seed: int = 42
    node_budget: int = 60
    variable_count: int | tuple[int, int] = (4, 8)
    loop_depth: int = 2
    irreducible_edge_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.node_budget < 1:
            raise ValueError(f"node budget must be at least 1, got {self.node_budget}")
        if self.loop_depth < 0:
            raise ValueError(f"loop depth must be non-negative, got {self.loop_depth}")
        if not 0.0 <= self.irreducible_edge_probability <= 1.0:
            raise ValueError("irreducible edge probability must lie in [0, 1], "
                             f"got {self.irreducible_edge_probability}")
        count = self.variable_count
        lo, hi = count if isinstance(count, tuple) else (count, count)
        if lo > hi:
            raise ValueError(f"variable count range {count} is empty")
        if lo < 1:
            raise ValueError(f"variable count must be at least 1, got {count}")


class _Builder:
    def __init__(self, rng: random.Random, config: GeneratorConfig, name: str):
        self.rng = rng
        self.config = config
        self.name = name
        count = config.variable_count
        if isinstance(count, tuple):
            count = rng.randint(count[0], count[1])
        self.variables = tuple(
            _VAR_POOL[i] if i < len(_VAR_POOL) else f"v{i}" for i in range(count))
        self.nodes: dict[int, Statement] = {}
        # An ordered set: a dict keeps its keys in the order they were
        # first connected, and connecting an edge again adds nothing.
        self.edges: dict[tuple[int, int], None] = {}

    def fresh_node(self, stmt: Statement) -> int:
        node_id = len(self.nodes) + 1
        self.nodes[node_id] = stmt
        return node_id

    def connect(self, src: int, dst: int) -> None:
        self.edges[src, dst] = None

    def random_stmt(self) -> Statement:
        kind = self.rng.choices(_KINDS, cum_weights=_CUM_WEIGHTS, k=1)[0]
        rng = self.rng
        var = lambda: rng.choice(self.variables)
        if kind == "const":
            return ConstAssign(var(), rng.randint(-99, 99))
        if kind == "copy":
            return CopyAssign(var(), var())
        if kind == "binop":
            op = rng.choice("+-*")
            left = var() if rng.random() < 0.8 else rng.randint(-9, 9)
            right = var() if rng.random() < 0.8 else rng.randint(-9, 9)
            return BinAssign(var(), left, op, right)
        if kind == "read":
            return ReadAssign(var())
        if kind == "print":
            return Print(var())
        return Skip()

    def build(self) -> Program:
        head = self.fresh_node(self.random_stmt())
        tail = self.sequence(head, self.config.node_budget - 1, self.config.loop_depth)
        self.maybe_add_extra_edges(tail)
        sources = {src for src, _ in self.edges}
        return Program(
            name=self.name,
            variables=self.variables,
            nodes=self.nodes,
            edges=tuple(self.edges),
            entry=1,
            exits=frozenset(n for n in self.nodes if n not in sources),
        )

    def sequence(self, tail: int, budget: int, loop_depth: int) -> int:
        """Append items after `tail` until the budget runs out; returns the new tail."""
        while budget > 0:
            roll = self.rng.random()
            if budget >= 4 and roll < 0.18:
                tail, budget = self.diamond(tail, budget, loop_depth)
            elif budget >= 3 and loop_depth > 0 and roll < 0.38:
                tail, budget = self.loop(tail, budget, loop_depth)
            else:
                node = self.fresh_node(self.random_stmt())
                self.connect(tail, node)
                tail = node
                budget -= 1
        return tail

    def diamond(self, tail: int, budget: int, loop_depth: int) -> tuple[int, int]:
        head = self.fresh_node(self.random_stmt())
        self.connect(tail, head)
        budget -= 2  # head plus join
        inner = max(0, min(budget - 1, self.rng.randint(0, budget - 1)))
        then_budget = self.rng.randint(0, inner)
        else_budget = inner - then_budget
        before = len(self.nodes)
        then_tail = self.sequence(head, then_budget, loop_depth)
        spent_then = len(self.nodes) - before
        before = len(self.nodes)
        else_tail = self.sequence(head, else_budget, loop_depth)
        spent_else = len(self.nodes) - before
        join = self.fresh_node(Skip())
        self.connect(then_tail, join)
        self.connect(else_tail, join)
        return join, budget - spent_then - spent_else

    def loop(self, tail: int, budget: int, loop_depth: int) -> tuple[int, int]:
        header = self.fresh_node(self.random_stmt())
        self.connect(tail, header)
        budget -= 1
        body_budget = max(1, min(budget - 1, self.rng.randint(1, max(1, budget // 2))))
        before = len(self.nodes)
        body_head = self.fresh_node(self.random_stmt())
        self.connect(header, body_head)
        body_tail = self.sequence(body_head, body_budget - 1, loop_depth - 1)
        spent = len(self.nodes) - before
        self.connect(body_tail, header)
        return header, budget - spent

    def maybe_add_extra_edges(self, final_tail: int) -> None:
        prob = self.config.irreducible_edge_probability
        if prob <= 0:
            return
        last = len(self.nodes)  # node ids are 1..last
        for src in range(1, last + 1):
            if src == final_tail:
                continue
            if self.rng.random() < prob:
                # The draw of rng.choice over the ids other than src,
                # without building that list.
                dst = self.rng.randrange(1, last)
                self.connect(src, dst if dst < src else dst + 1)


def generate_program(config: GeneratorConfig, index: int) -> Program:
    """Generate program ``p{index:04d}``; deterministic in (config, index)."""
    rng = random.Random(f"{config.seed}/{index}")
    return _Builder(rng, config, f"p{index:04d}").build()


def generate_corpus(config: GeneratorConfig, count: int) -> list[Program]:
    """Generate `count` programs; deterministic in (config, count)."""
    if count <= 0:
        raise ValueError("count must be positive")
    return [generate_program(config, i) for i in range(count)]
