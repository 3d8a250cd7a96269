"""Back-edge classification, visit order, CFG depth, and back-edge path weights.

One depth-first search from the entry node, visiting successors in
ascending node-id order, gives both the back edges (edges whose
target is on the DFS stack) and the round-robin visit order (its
reverse postorder).  For reducible graphs the back edges are the usual
retreating edges; for irreducible graphs the ascending-id rule pins a
deterministic answer.  The d-based pass bounds assume this pairing:
a pass in depth-first order crosses only the counted back edges
against the visit order (Kam & Ullman 1976).

The depth d is the maximum number of back edges on any node-simple
path.  Pairwise weights ask the same question for paths between two
fixed statements.  Both are computed by exact backtracking with
pruning; a node cap of 64 rejects inputs where exactness is no longer
desk-scale, and a budget of ten million steps bounds each depth or
pairwise-weight computation.
"""

from __future__ import annotations

from .ir import ControlFlowGraph, reachable

DEFAULT_NODE_CAP = 64
DEFAULT_STEP_CAP = 10_000_000

FORWARD = "forward"
BACKWARD = "backward"


class SearchBudgetExceeded(RuntimeError):
    """Exact path search aborted: input exceeds the configured budget."""


class StepBudget:
    """Step counter shared by a search's calls; raises once `limit` is passed."""

    __slots__ = ("remaining", "message")

    def __init__(self, limit: int, message: str):
        self.remaining = limit
        self.message = message

    def tick(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise SearchBudgetExceeded(self.message)


def depth_first_search(cfg: ControlFlowGraph) -> tuple[frozenset[tuple[int, int]],
                                                      tuple[int, ...]]:
    """Back edges and reverse postorder of the ascending-id DFS from entry."""
    visited: set[int] = set()
    on_stack: set[int] = set()
    back: set[tuple[int, int]] = set()
    postorder: list[int] = []
    # Explicit stack of (node, successor iterator position) to avoid
    # recursion limits on long chains.
    stack: list[tuple[int, int]] = []

    def push(node: int) -> None:
        visited.add(node)
        on_stack.add(node)
        stack.append((node, 0))

    push(cfg.entry)
    while stack:
        node, idx = stack[-1]
        succs = cfg.successors[node]
        if idx < len(succs):
            stack[-1] = (node, idx + 1)
            nxt = succs[idx]
            if nxt in on_stack:
                back.add((node, nxt))
            elif nxt not in visited:
                push(nxt)
        else:
            stack.pop()
            on_stack.discard(node)
            postorder.append(node)
    return frozenset(back), tuple(reversed(postorder))


def traversal_order(cfg: ControlFlowGraph, direction: str) -> tuple[int, ...]:
    """Round-robin visit order: DFS reverse postorder forward, its reverse backward."""
    _, rpo = depth_first_search(cfg)
    if direction == FORWARD:
        return rpo
    if direction == BACKWARD:
        return rpo[::-1]
    raise ValueError(f"unknown direction {direction!r}")


def classify_back_edges(cfg: ControlFlowGraph) -> frozenset[tuple[int, int]]:
    """Edges whose target is a DFS-stack ancestor (ascending-id DFS from entry)."""
    return depth_first_search(cfg)[0]


def _check_node_cap(cfg: ControlFlowGraph) -> None:
    if len(cfg.nodes) > DEFAULT_NODE_CAP:
        raise SearchBudgetExceeded(
            f"graph has {len(cfg.nodes)} nodes, exceeding the cap of {DEFAULT_NODE_CAP}")


class _PathSearch:
    """Backtracking search for the maximum back-edge count over simple paths."""

    def __init__(self, cfg: ControlFlowGraph,
                 back_edges: frozenset[tuple[int, int]]):
        self.succ = cfg.successors
        self.back_edges = back_edges
        # Back edges grouped by source node; used both for weight
        # accounting and for the remaining-potential prune.
        self.back_by_source: dict[int, int] = {}
        for src, _ in back_edges:
            self.back_by_source[src] = self.back_by_source.get(src, 0) + 1
        self.budget = StepBudget(DEFAULT_STEP_CAP,
                                 f"path search exceeded {DEFAULT_STEP_CAP} steps")
        self.best = -1
        self.target: int | None = None

    def run(self, start: int, target: int | None, seed_best: int) -> int:
        self.target = target
        self.best = seed_best
        remaining = sum(self.back_by_source.values())
        if start in self.back_by_source:
            remaining -= self.back_by_source[start]
        self._extend(start, {start}, 0, remaining)
        return self.best

    def _extend(self, node: int, visited: set[int], weight: int, remaining: int) -> None:
        self.budget.tick()
        if self.target is None or node == self.target:
            if weight > self.best:
                self.best = weight
        # Upper bound: every unvisited back-edge source could still
        # contribute, plus back edges leaving the current node.
        potential = weight + remaining + self.back_by_source.get(node, 0)
        if potential <= self.best:
            return
        for nxt in self.succ[node]:
            if nxt in visited:
                continue
            step = 1 if (node, nxt) in self.back_edges else 0
            visited.add(nxt)
            self._extend(nxt, visited, weight + step,
                         remaining - self.back_by_source.get(nxt, 0))
            visited.discard(nxt)


def depth(cfg: ControlFlowGraph, *,
          back_edges: frozenset[tuple[int, int]] | None = None) -> int:
    """Maximum number of back edges on any node-simple path."""
    _check_node_cap(cfg)
    if back_edges is None:
        back_edges = classify_back_edges(cfg)
    if not back_edges:
        return 0
    search = _PathSearch(cfg, back_edges)
    best = 0
    # A maximum-weight path can be trimmed to start at a back-edge
    # source, so only those starting points need searching.
    for start in sorted({src for src, _ in back_edges}):
        best = search.run(start, None, best)
    return best


def max_backedge_acyclic_weight(
        cfg: ControlFlowGraph, frm: int, to: int, *,
        back_edges: frozenset[tuple[int, int]] | None = None) -> int | None:
    """Maximum back-edge count over node-simple paths from `frm` to `to`.

    Returns 0 for frm == to (the empty path) and None when `to` is
    unreachable from `frm`.
    """
    if frm not in cfg.successors or to not in cfg.successors:
        raise KeyError(f"unknown node in pair ({frm}, {to})")
    _check_node_cap(cfg)
    if frm == to:
        return 0
    reach = reachable(frm, cfg.successors)
    if to not in reach:
        return None
    if back_edges is None:
        back_edges = classify_back_edges(cfg)
    # A back edge can only appear on a frm->to path if its source is
    # reachable from frm and its target reaches to.
    co_reach = reachable(to, cfg.predecessors)
    candidates = frozenset(
        (s, t) for (s, t) in back_edges if s in reach and t in co_reach)
    if not candidates:
        return 0
    return _PathSearch(cfg, candidates).run(frm, to, -1)


class WeightTable:
    """Memoizing wrapper for pairwise weights on one CFG.

    Shared by EDG construction and reporting so repeated statement
    pairs are searched once.
    """

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        self.back_edges = classify_back_edges(cfg)
        self._cache: dict[tuple[int, int], int | None] = {}
        self._depth: int | None = None

    def weight(self, frm: int, to: int) -> int | None:
        key = (frm, to)
        if key not in self._cache:
            self._cache[key] = max_backedge_acyclic_weight(
                self.cfg, frm, to, back_edges=self.back_edges)
        return self._cache[key]

    @property
    def depth(self) -> int:
        if self._depth is None:
            self._depth = depth(self.cfg, back_edges=self.back_edges)
        return self._depth
