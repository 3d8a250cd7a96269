"""Checks on the records that ``dfalab report`` prints.

Every check here works from the report text and from the generated
programs, against values computed apart from dfalab's own pipeline or
against properties the method must have:

* the paper's Figure 3 values on ``fig3`` and ``fig3_swap``;
* each record's arithmetic (``B1 = 1 + d*H``, ``B2 = 1 + delta + d``,
  ``H = h_hat * vars``, ``dev1 = B1 - I``, ``dev2 = B2 - I``);
* the bounds themselves (``I <= B1``, ``I <= B2``), and ``delta = 0``,
  ``I <= 1 + d`` on every bit-vector record;
* ``d`` against the exhaustive ``enumerate_depth`` of
  ``tests/_oracles.py``, over back edges found by this module's own DFS;
* the round-robin fixed point against ``worklist_solve`` on a sample.

A program that breaks a bound must carry the visit-order fault: an edge
that runs backwards in node-id order without being a DFS back edge, and
bounds that hold once round-robin visits nodes in DFS reverse postorder.
"""

from __future__ import annotations

import importlib.util
from contextlib import contextmanager
from pathlib import Path

CSV_HEADER = "program,analysis,nodes,vars,d,H,delta,B1,B2,I,dev1,dev2,violated"
BITVECTOR_KINDS = ("avail", "reach", "live")
# Component lattice heights: cp has undef > const > nonconst, the rest
# are two-point lattices.
H_HAT = {"cp": 2, "faint": 1, "avail": 1, "reach": 1, "live": 1}

# Figure 3 of the paper.  The swap moves I, not d, H or B1.
GOLDEN = {
    ("fig3", "cp"): {"d": 3, "H": 8, "B1": 25, "delta": 6, "B2": 10, "I": 9},
    ("fig3", "faint"): {"d": 3, "H": 4, "B1": 13, "delta": 6, "B2": 10, "I": 7},
    ("fig3_swap", "cp"): {"d": 3, "H": 8, "B1": 25, "I": 5},
    ("fig3_swap", "faint"): {"d": 3, "H": 4, "B1": 13, "I": 5},
}


def parse_report(text: str) -> list[dict]:
    """Rows of a CSV report as dicts; raises ValueError on a bad layout."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected report header {lines[:1]!r}")
    names = CSV_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"malformed report row {line!r}")
        row = dict(zip(names, cells))
        for name in names[2:-1]:
            row[name] = int(row[name])
        if row["violated"] not in ("true", "false"):
            raise ValueError(f"bad violated cell in {line!r}")
        row["violated"] = row["violated"] == "true"
        rows.append(row)
    return rows


def arithmetic_problems(row: dict) -> list[str]:
    """Ways in which a record's own numbers disagree with each other."""
    d, H, delta, b1, b2, i = (row[k] for k in ("d", "H", "delta", "B1", "B2", "I"))
    kind = row["analysis"]
    problems = []
    if kind not in H_HAT:
        return [f"unknown analysis {kind!r}"]
    if H != H_HAT[kind] * row["vars"]:
        problems.append(f"H={H} != {H_HAT[kind]}*vars={row['vars']}")
    if b1 != 1 + d * H:
        problems.append(f"B1={b1} != 1+d*H={1 + d * H}")
    if b2 != 1 + delta + d:
        problems.append(f"B2={b2} != 1+delta+d={1 + delta + d}")
    if row["dev1"] != b1 - i or row["dev2"] != b2 - i:
        problems.append(f"dev1/dev2={row['dev1']}/{row['dev2']} != B-I")
    if kind in BITVECTOR_KINDS and delta != 0:
        problems.append(f"delta={delta} on bit-vector kind {kind}")
    if row["violated"] != (i > b1 or i > b2):
        problems.append(f"violated={row['violated']} disagrees with I, B1, B2")
    if min(d, H, delta, i) < 0 or i < 1:
        problems.append("negative count or I < 1")
    return problems


def bound_problems(row: dict) -> list[str]:
    """Bounds the record breaks."""
    problems = []
    i, d = row["I"], row["d"]
    if i > row["B1"]:
        problems.append(f"I={i} > B1={row['B1']}")
    if i > row["B2"]:
        problems.append(f"I={i} > B2={row['B2']}")
    if row["analysis"] in BITVECTOR_KINDS and i > 1 + d:
        problems.append(f"I={i} > 1+d={1 + d} on bit-vector kind")
    return problems


def golden_problems(rows: list[dict], program: str) -> list[str]:
    """Differences from the paper's Figure 3 values."""
    problems = []
    seen = {row["analysis"]: row for row in rows if row["program"] == program}
    for (name, kind), expected in GOLDEN.items():
        if name != program:
            continue
        row = seen.get(kind)
        if row is None:
            problems.append(f"{program} {kind}: no record")
            continue
        got = {field: row[field] for field in expected}
        if got != expected:
            problems.append(f"{program} {kind}: {got} != {expected}")
    return problems


def program_problems(program, kinds, rows: list[dict]) -> list[str]:
    """A program's rows name it, follow `kinds` and agree on its shape."""
    if [r["program"] for r in rows] != [program.name] * len(kinds):
        return [f"{program.name}: rows {[r['program'] for r in rows]}"]
    if [r["analysis"] for r in rows] != list(kinds):
        return [f"{program.name}: analyses {[r['analysis'] for r in rows]} != {list(kinds)}"]
    problems = []
    for row in rows:
        if row["nodes"] != len(program.nodes):
            problems.append(f"{program.name} {row['analysis']}: nodes={row['nodes']}")
        if row["analysis"] in ("cp", "faint") and row["vars"] != len(program.variables):
            problems.append(f"{program.name} {row['analysis']}: vars={row['vars']}")
    if len({r["d"] for r in rows}) > 1:
        problems.append(f"{program.name}: d differs between analyses")
    return problems


# ---------------------------------------------------------------------------
# depth-first order, written apart from dfalab.cfg_metrics


class _Graph:
    """The successor view enumerate_depth reads, built from a Program."""

    def __init__(self, program):
        self.nodes = tuple(sorted(program.nodes))
        succ: dict[int, list[int]] = {n: [] for n in self.nodes}
        for src, dst in program.edges:
            succ[src].append(dst)
        self.successors = {n: tuple(sorted(set(s))) for n, s in succ.items()}
        self.entry = program.entry


def dfs(successors, entry) -> tuple[frozenset[tuple[int, int]], list[int]]:
    """Back edges and reverse postorder of the ascending-successor DFS."""
    back: set[tuple[int, int]] = set()
    post: list[int] = []
    state = {entry: "open"}
    stack = [(entry, iter(successors[entry]))]
    while stack:
        node, rest = stack[-1]
        for nxt in rest:
            if state.get(nxt) == "open":
                back.add((node, nxt))
            elif nxt not in state:
                state[nxt] = "open"
                stack.append((nxt, iter(successors[nxt])))
                break
        else:
            stack.pop()
            state[node] = "done"
            post.append(node)
    return frozenset(back), post[::-1]


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location(
        "_bench_oracles", root / "tests" / "_oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Oracle:
    """Exhaustive depth from tests/_oracles.py over this module's DFS."""

    def __init__(self, root: Path):
        self._enumerate_depth = _load_oracles(root).enumerate_depth

    def depth(self, program) -> int:
        graph = _Graph(program)
        back, _ = dfs(graph.successors, graph.entry)
        return self._enumerate_depth(graph, back)


def order_fault(program) -> list[tuple[int, int]]:
    """Edges that run backwards in id order but are no DFS back edge."""
    graph = _Graph(program)
    back, _ = dfs(graph.successors, graph.entry)
    return sorted((s, t) for s, t in program.edges
                  if t <= s and (s, t) not in back)


@contextmanager
def reverse_postorder_visits(engine):
    """Make round_robin_solve visit nodes in DFS reverse postorder."""
    original = engine.traversal_order

    def order(cfg, direction):
        _, rpo = dfs(cfg.successors, cfg.entry)
        return tuple(rpo) if direction == "forward" else tuple(reversed(rpo))

    engine.traversal_order = order
    try:
        yield
    finally:
        engine.traversal_order = original


def holds_in_reverse_postorder(dfalab, program, rows: list[dict]) -> bool:
    """True when every record's bounds hold once visits follow the DFS rPO."""
    cfg = dfalab.build_cfg(program)
    with reverse_postorder_visits(dfalab.engine):
        for row in rows:
            fw = dfalab.make_framework(program, row["analysis"], cfg)
            i = dfalab.round_robin_solve(fw, cfg).iterations
            if bound_problems({**row, "I": i}):
                return False
    return True


def fixed_point_problems(dfalab, program, kinds) -> list[str]:
    """Round-robin and worklist solutions that differ."""
    cfg = dfalab.build_cfg(program)
    problems = []
    for kind in kinds:
        fw = dfalab.make_framework(program, kind, cfg)
        rr = dfalab.round_robin_solve(fw, cfg)
        wl = dfalab.worklist_solve(fw, cfg)
        if rr.in_values != wl.in_values or rr.out_values != wl.out_values:
            problems.append(f"{program.name} {kind}: round-robin != worklist fixed point")
    return problems
