"""Back-edge classification, visit order, CFG depth, and back-edge path weights.

One depth-first search from the entry node, visiting successors in
ascending node-id order, gives both the back edges (edges whose
target is on the DFS stack) and the round-robin visit order (its
reverse postorder).  It runs once per CFG object.  For reducible
graphs the back edges are the usual retreating edges; for irreducible
graphs the ascending-id rule pins a deterministic answer.  The d-based
pass bounds assume this pairing: a pass in depth-first order crosses
only the counted back edges against the visit order (Kam & Ullman
1976).

The depth d is the maximum number of back edges on any node-simple
path.  Pairwise weights ask the same question for paths between two
fixed statements.  Both use one exact backtracking search over the
indices of ``cfg.nodes`` with int-bitmask node sets; a pairwise search
enters only nodes reachable from its source that reach its target
(closures built once per CFG) and stops at the target.  A node cap of
64 rejects inputs where exactness is no longer desk-scale, and a budget
of ten million steps bounds each depth or pairwise-weight computation.
"""

from __future__ import annotations

from functools import cached_property

from .ir import ControlFlowGraph

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
    """Back edges and reverse postorder of the ascending-id DFS from entry, memoised."""
    if "_dfs" not in cfg.__dict__:
        cfg.__dict__["_dfs"] = _dfs(cfg)
    return cfg.__dict__["_dfs"]


def _dfs(cfg: ControlFlowGraph) -> tuple[frozenset[tuple[int, int]], tuple[int, ...]]:
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


def _closure(neighbours: list[list[int]], order: list[int]) -> list[int]:
    """Mask of the nodes reachable from each node along `neighbours`, itself included."""
    masks = [1 << i for i in range(len(neighbours))]
    while True:
        before = masks[:]
        for i in order:
            for j in neighbours[i]:
                masks[i] |= masks[j]
        if masks == before:
            return masks


def _search(succ: list[list[tuple[int, int, int]]], counts: list[int],
            starts: list[int], target: int | None, allowed: int) -> int:
    """Most back edges on a node-simple path from one of `starts` inside `allowed`.

    The path ends at `target`, or anywhere when it is None.  `counts[i]`
    back edges leave node i; the unvisited nodes' counts bound the gain.
    """
    budget = StepBudget(DEFAULT_STEP_CAP, f"path search exceeded {DEFAULT_STEP_CAP} steps")
    total = sum(counts)
    best = 0

    def extend(node: int, free: int, weight: int, remaining: int) -> None:
        nonlocal best
        budget.tick()
        if target is None or node == target:
            if weight > best:
                best = weight
            if node == target:
                return
        # Upper bound: every back edge leaving an unvisited node or this one.
        if weight + remaining + counts[node] <= best:
            return
        for nxt, bit, back in succ[node]:
            if free & bit:
                extend(nxt, free ^ bit, weight + back, remaining - counts[nxt])

    for start in starts:
        extend(start, allowed & ~(1 << start), 0, total - counts[start])
    return best


def depth(cfg: ControlFlowGraph, *, table: WeightTable | None = None) -> int:
    """Maximum number of back edges on any node-simple path."""
    _check_node_cap(cfg)
    if table is None:
        table = WeightTable(cfg)
    counts = [sum(src == i for src, _ in table.back_pairs) for i in range(len(cfg.nodes))]
    # A maximum-weight path can be trimmed to start at a back-edge
    # source, so only those starting points need searching.
    starts = [i for i, count in enumerate(counts) if count]
    return _search(table.succ, counts, starts, None, (1 << len(cfg.nodes)) - 1)


def max_backedge_acyclic_weight(cfg: ControlFlowGraph, frm: int, to: int, *,
                                table: WeightTable | None = None) -> int | None:
    """Maximum back-edge count over node-simple paths from `frm` to `to`.

    Returns 0 for frm == to (the empty path) and None when `to` is
    unreachable from `frm`.  `table` shares the CFG's facts across calls.
    """
    if frm not in cfg.successors or to not in cfg.successors:
        raise KeyError(f"unknown node in pair ({frm}, {to})")
    _check_node_cap(cfg)
    if frm == to:
        return 0
    if table is None:
        table = WeightTable(cfg)
    source, target = table.index[frm], table.index[to]
    reach_of, co_reach_of = table.closures
    reach, co_reach = reach_of[source], co_reach_of[target]
    if not reach >> target & 1:
        return None
    # A back edge can only appear on a frm->to path if its source is
    # reachable from frm and its target reaches to.
    counts = [0] * len(cfg.nodes)
    for src, dst in table.back_pairs:
        if reach >> src & 1 and co_reach >> dst & 1:
            counts[src] += 1
    if not any(counts):
        return 0
    return _search(table.succ, counts, [source], target, reach & co_reach)


class WeightTable:
    """Path facts of one CFG, and its pairwise weights memoised.

    Node ``cfg.nodes[i]`` is index i, and ``succ[i]`` holds its
    successors as ``(index, bit, 1 if back edge else 0)``.  Shared by
    EDG construction and reporting, so each pair is searched once.
    """

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        self.back_edges = classify_back_edges(cfg)
        self.index = index = {node: i for i, node in enumerate(cfg.nodes)}
        self.succ = [[(index[dst], 1 << index[dst], int((src, dst) in self.back_edges))
                      for dst in cfg.successors[src]] for src in cfg.nodes]
        self.back_pairs = sorted((index[src], index[dst]) for src, dst in self.back_edges)
        self._cache: dict[tuple[int, int], int | None] = {}

    @cached_property
    def closures(self) -> tuple[list[int], list[int]]:
        """Reach and co-reach masks of every node, each from one fixpoint."""
        # Every node is on the DFS; (reverse) postorder sweeps settle fast.
        rpo = [self.index[node] for node in depth_first_search(self.cfg)[1]]
        preds = [[self.index[p] for p in self.cfg.predecessors[node]]
                 for node in self.cfg.nodes]
        return (_closure([[j for j, _, _ in out] for out in self.succ], rpo[::-1]),
                _closure(preds, rpo))

    def weight(self, frm: int, to: int) -> int | None:
        key = (frm, to)
        if key not in self._cache:
            self._cache[key] = max_backedge_acyclic_weight(self.cfg, frm, to, table=self)
        return self._cache[key]

    @cached_property
    def depth(self) -> int:
        return depth(self.cfg, table=self)
