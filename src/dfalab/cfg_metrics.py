"""Back-edge classification, visit order, CFG depth, and back-edge path weights.

The back edges and the round-robin visit order come from the one
depth-first search that ``ir.build_cfg`` runs from the entry node,
visiting successors in ascending node-id order: the edges whose target
is on the DFS stack (``cfg.back_edges``) and its reverse postorder
(``cfg.order``).  For reducible graphs the back edges are the usual
retreating edges; for irreducible graphs the ascending-id rule pins a
deterministic answer.  The d-based pass bounds assume this pairing: a
pass in depth-first order crosses only the counted back edges against
the visit order (Kam & Ullman 1976).

The depth d is the maximum number of back edges on any node-simple
path or simple cycle (a path whose last node may be its first).  A
longer simple cycle has an edge that is not a back edge, and dropping
it leaves a path with the same count, so only a self-loop adds: d is
at least 1 on a CFG with one.  Round robin reads a self-loop's value
back into its node only on the next pass, so the pass bounds need it
counted.  The weight of a statement pair asks the same question for
the node-simple paths between the two.  Both are exact backtracking
searches over the indices of ``cfg.nodes`` with int-bitmask node sets,
reached through a ``WeightTable``: its ``depth`` and ``weight`` run
``depth`` and ``max_backedge_acyclic_weight`` on its per-CFG facts and
keep their results.  The depth search prunes with a free-head bound: a
node-simple path enters each head at most once, so from node x it can
gain at most one back edge per unvisited head h of a back edge (l, h)
whose tail l x reaches without passing h.  Those "behind" sets are
built once per CFG and also bound the weight searches.  Weights are
searched once per source: one search from a statement enters only
nodes that reach one of its open targets (closures built once per
CFG), records the weight at every target it passes without stopping
there, and closes a target once it attains its bound.  The bound
counts the back edges a path to the target could take, each one
whose tail the source reaches without passing its head and whose head
reaches the target; a target whose bound is 0 needs no search.  A node
cap of 64 rejects inputs where exactness is no longer desk-scale, and a
budget of ten million steps bounds the depth search and each source's
weight search.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .ir import ControlFlowGraph

DEFAULT_NODE_CAP = 64
DEFAULT_STEP_CAP = 10_000_000

FORWARD = "forward"
BACKWARD = "backward"


class SearchBudgetExceeded(RuntimeError):
    """Exact path search aborted: input exceeds the configured budget."""


def traversal_order(cfg: ControlFlowGraph, direction: str) -> tuple[int, ...]:
    """Round-robin visit order: DFS reverse postorder forward, its reverse backward."""
    if direction == FORWARD:
        return cfg.order
    if direction == BACKWARD:
        return cfg.order[::-1]
    raise ValueError(f"unknown direction {direction!r}")


def classify_back_edges(cfg: ControlFlowGraph) -> frozenset[tuple[int, int]]:
    """Edges whose target is a DFS-stack ancestor (ascending-id DFS from entry)."""
    return cfg.back_edges


def _check_node_cap(cfg: ControlFlowGraph) -> None:
    if len(cfg.nodes) > DEFAULT_NODE_CAP:
        raise SearchBudgetExceeded(
            f"graph has {len(cfg.nodes)} nodes, exceeding the cap of {DEFAULT_NODE_CAP}")


def _closure(neighbours: list[list[int]], order: list[int]) -> list[int]:
    """Mask of the nodes reachable from each node along `neighbours`, itself included."""
    masks = [1 << i for i in range(len(neighbours))]
    changed = True
    while changed:
        changed = False
        for i in order:
            mask = masks[i]
            for j in neighbours[i]:
                mask |= masks[j]
            if mask != masks[i]:
                masks[i] = mask
                changed = True
    return masks


def depth(table: WeightTable) -> int:
    """Maximum number of back edges on a node-simple path or simple cycle of ``table.cfg``."""
    _check_node_cap(table.cfg)
    succ = table.succ
    heads = table.heads_ahead
    cap = DEFAULT_STEP_CAP
    steps = 0
    # A self-loop is a one-node cycle with one back edge.
    best = int(any(tail == head for tail, head in table.back_pairs))

    def extend(node: int, free: int, weight: int) -> None:
        nonlocal best, steps
        steps += 1
        if steps > cap:
            raise SearchBudgetExceeded(f"depth search exceeded {cap} steps")
        if weight > best:
            best = weight
        # Upper bound: one back edge into each unvisited head that a
        # back edge from here could still enter.
        if weight + (heads[node] & free).bit_count() <= best:
            return
        for nxt, bit, back in succ[node]:
            if free & bit:
                extend(nxt, free ^ bit, weight + back)

    # A maximum-weight path can be trimmed to start at a back-edge
    # source, so only those starting points need searching.
    everything = (1 << len(succ)) - 1
    for start in sorted({tail for tail, _ in table.back_pairs}):
        extend(start, everything & ~(1 << start), 0)
    return best


def max_backedge_acyclic_weight(table: WeightTable, frm: int,
                                targets: Iterable[int]) -> dict[int, int | None]:
    """Maximum back-edge count over node-simple paths from `frm` to each target.

    `targets` are node indices of `table`; the result maps each to its
    weight, from one search: 0 for `frm` itself (the empty path) and
    None for a target unreachable from `frm`.  A target's bound is the
    number of back edges a path from `frm` to it could take; a target
    whose bound is 0 gets 0 without a search.
    """
    source = table.index[frm]
    _check_node_cap(table.cfg)
    reach = table.closures[0][source]
    # The nodes reached from the head of each back edge that a path
    # from frm can take.
    usable = [ahead for behind, ahead in table.usable if behind >> source & 1]
    found: dict[int, int | None] = {}
    bounds: dict[int, int] = {}
    for t in targets:
        if t == source:
            found[t] = 0
        elif not reach >> t & 1:
            found[t] = None
        else:
            found[t] = 0
            count = sum(ahead >> t & 1 for ahead in usable)
            if count:
                bounds[t] = count
    if bounds:
        _longest_paths(table, frm, found, bounds)
    return found


def _longest_paths(table: WeightTable, frm: int,
                   found: dict[int, int | None], bounds: dict[int, int]) -> None:
    """Raise ``found[t]`` to the weight from `frm` to each target t in `bounds`.

    One backtracking search enumerates the node-simple paths from `frm`
    and records the weight at every target it passes, without stopping
    there.  A target closes once it reaches its bound, and a branch
    stops once it can reach no open target.
    """
    source = table.index[frm]
    succ = table.succ
    reach_of, co_reach_of = table.closures
    best = [0] * len(succ)
    goal = [0] * len(succ)  # an open target's bound, else 0
    targets = 0
    for t, bound in bounds.items():
        goal[t] = bound
        targets |= 1 << t

    def live_region(open_targets: int) -> int:
        """The nodes that reach one of `open_targets`."""
        region = 0
        while open_targets:
            low = open_targets & -open_targets
            open_targets ^= low
            region |= co_reach_of[low.bit_length() - 1]
        return region

    region = live_region(targets)
    cap = DEFAULT_STEP_CAP
    steps = 0

    def extend(node: int, free: int, weight: int) -> None:
        nonlocal targets, region, steps
        steps += 1
        if steps > cap:
            raise SearchBudgetExceeded(f"weight search from node {frm} exceeded {cap} steps")
        ahead = region
        if goal[node]:
            if weight > best[node]:
                best[node] = weight
                if weight >= goal[node]:
                    goal[node] = 0
                    targets ^= 1 << node
                    region = live_region(targets)
            # A path on from a target serves only the other targets.
            ahead = live_region(targets & ~(1 << node))
        ahead &= free
        for nxt, bit, back in succ[node]:
            if ahead & bit:
                extend(nxt, free ^ bit, weight + back)

    extend(source, reach_of[source] & region & ~(1 << source), 0)
    for t in bounds:
        found[t] = best[t]


def _reach_avoiding(neighbours: list[list[int]], start: int, avoid: int) -> int:
    """Mask of the nodes reachable from `start` along `neighbours` without entering `avoid`."""
    seen = 1 << start | 1 << avoid
    stack = [start]
    while stack:
        for j in neighbours[stack.pop()]:
            if not seen >> j & 1:
                seen |= 1 << j
                stack.append(j)
    return seen & ~(1 << avoid)


class WeightTable:
    """Path facts of one CFG, and its pairwise weights memoised.

    Node ``cfg.nodes[i]`` is index i, and ``succ[i]`` holds its
    successors as ``(index, bit, 1 if back edge else 0)``.  Shared by
    EDG construction and reporting, so each pair is searched once, and
    pairs announced through `expect` are searched once per source.
    """

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        back_edges = classify_back_edges(cfg)
        self.index = index = {node: i for i, node in enumerate(cfg.nodes)}
        self.succ: list[list[tuple[int, int, int]]] = [[] for _ in cfg.nodes]
        # Plain predecessor indices, for the closures and ``behind``.
        self._preds: list[list[int]] = [[] for _ in cfg.nodes]
        for i, node in enumerate(cfg.nodes):
            for dst in cfg.successors[node]:
                j = index[dst]
                self.succ[i].append((j, 1 << j, int((node, dst) in back_edges)))
                self._preds[j].append(i)
        self.back_pairs = sorted((index[src], index[dst]) for src, dst in back_edges)
        self._cache: dict[tuple[int, int], int | None] = {}
        # Source node -> indices of the targets announced for it.
        self._expected: dict[int, set[int]] = {}

    @cached_property
    def closures(self) -> tuple[list[int], list[int]]:
        """Reach and co-reach masks of every node, each from one fixpoint."""
        # Every node is on the DFS; (reverse) postorder sweeps settle fast.
        rpo = [self.index[node] for node in self.cfg.order]
        succs = [[j for j, _, _ in out] for out in self.succ]
        return _closure(succs, rpo[::-1]), _closure(self._preds, rpo)

    @cached_property
    def behind(self) -> list[int]:
        """For each back edge (l, h) of ``back_pairs``, the nodes that reach l avoiding h.

        A node-simple path takes (l, h) only from one of these nodes,
        since it enters h once, by that edge.  A self-loop is on no path.
        """
        return [_reach_avoiding(self._preds, tail, head) if tail != head else 0
                for tail, head in self.back_pairs]

    @cached_property
    def usable(self) -> list[tuple[int, int]]:
        """Where each back edge of ``back_pairs`` can lie on a node-simple path.

        A path takes back edge (l, h) only if it reaches l without
        passing h and then goes on from h.  So edge b gets the masks of
        the nodes that reach l avoiding h and of the nodes that h
        reaches.
        """
        reach_of = self.closures[0]
        return [(behind, reach_of[head]) if tail != head else (0, 0)
                for behind, (tail, head) in zip(self.behind, self.back_pairs)]

    @cached_property
    def heads_ahead(self) -> list[int]:
        """Per node, the mask of heads of the back edges a path from it can take.

        A node-simple path from x enters each head at most once, so
        the unvisited heads here bound the back edges it can still
        take.
        """
        heads = [0] * len(self.succ)
        for behind, (_, head) in zip(self.behind, self.back_pairs):
            bit = 1 << head
            while behind:
                low = behind & -behind
                behind ^= low
                heads[low.bit_length() - 1] |= bit
        return heads

    def expect(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Announce pairs that `weight` will be asked for.

        The first miss for a source then settles all of its announced
        targets with one search; a statement paired with itself is the
        empty path, weight 0.
        """
        index, cache, expected = self.index, self._cache, self._expected
        for frm, to in pairs:
            if frm == to:
                cache[frm, to] = 0
            elif (frm, to) not in cache:
                expected.setdefault(frm, set()).add(index[to])

    def weight(self, frm: int, to: int) -> int | None:
        """The weight of (frm, to); the first miss for `frm` settles its announced targets too."""
        key = (frm, to)
        if key not in self._cache:
            target = self.index[to]
            targets = self._expected.pop(frm, set()) | {target}
            nodes = self.cfg.nodes
            for t, weight in max_backedge_acyclic_weight(self, frm, targets).items():
                self._cache[frm, nodes[t]] = weight
        return self._cache[key]

    @cached_property
    def depth(self) -> int:
        return depth(self)
