"""Predicted iteration bounds, measured iterations, and report emission.

A ``BoundsRecord`` holds what one analysis of one program measured or
computed, and defines from it the two predictions of the measured
round-robin pass count I:

* B1 = 1 + d*H, from depth and the product-lattice height alone;
* B2 = 1 + delta + d, which also charges the entity dependences.

A record with I above either bound marks a solver or delta bug and is
flagged ``violated``.  Records for acyclic programs (d = 0) carry
trivial bounds; downstream consumers can recognize them by the d
column.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .analyses import LIVE_KIND, REACH_KIND, make_framework
from .cfg_metrics import FORWARD, WeightTable
from .edg import EntityDependenceGraph, build_edg, degree_of_dependence
from .engine import FrameworkInstance, SolveResult, round_robin_solve
from .ir import Program, build_cfg

# Report columns in order, each with the BoundsRecord attribute it shows.
_COLUMNS = (
    ("program", "program"), ("analysis", "analysis"), ("nodes", "nodes"),
    ("vars", "vars"), ("d", "d"), ("H", "H"), ("delta", "delta"), ("B1", "b1"),
    ("B2", "b2"), ("I", "iterations"), ("dev1", "dev1"), ("dev2", "dev2"),
    ("violated", "bound_violated"),
)
CSV_HEADER = ",".join(column for column, _ in _COLUMNS)


@dataclass(frozen=True)
class BoundsRecord:
    """One analysis of one program: what was measured, and the bounds.

    ``H`` is the product-lattice height, ``h_hat`` for each of ``vars``
    entities; ``dev1`` and ``dev2`` are B1 - I and B2 - I.
    """

    program: str
    analysis: str
    nodes: int
    vars: int
    d: int
    h_hat: int
    delta: int
    iterations: int

    @property
    def H(self) -> int:
        return self.h_hat * self.vars

    @property
    def b1(self) -> int:
        return 1 + self.d * self.H

    @property
    def b2(self) -> int:
        return 1 + self.delta + self.d

    @property
    def dev1(self) -> int:
        return self.b1 - self.iterations

    @property
    def dev2(self) -> int:
        return self.b2 - self.iterations

    @property
    def bound_violated(self) -> bool:
        return self.dev1 < 0 or self.dev2 < 0

    @property
    def acyclic(self) -> bool:
        return self.d == 0

    def csv_row(self) -> str:
        return ",".join(str(v).lower() if isinstance(v, bool) else str(v)
                        for v in self.as_report_dict().values())

    def as_report_dict(self) -> dict:
        return {column: getattr(self, attr) for column, attr in _COLUMNS}


class ProgramPipeline:
    """Metrics -> framework -> solve -> EDG -> delta -> bounds, with caching.

    The one assembler of records: each stage is called with the inputs
    the pipeline holds.  One pipeline per program; CFG metrics and
    pairwise weights are shared across analysis kinds, and the
    ``reach`` solution also resolves the EDG instances of a forward
    kind (``cp``), the ``live`` solution those of a backward one
    (``faint``).  A separable framework gets delta 0 and no EDG.
    """

    def __init__(self, program: Program):
        self.program = program
        self.cfg = build_cfg(program)
        self.weights = WeightTable(self.cfg)
        self._frameworks: dict[str, FrameworkInstance] = {}
        self._solutions: dict[str, SolveResult] = {}
        self._edgs: dict[str, EntityDependenceGraph] = {}
        self._deltas: dict[str, int] = {}

    @property
    def depth(self) -> int:
        return self.weights.depth

    def framework(self, kind: str) -> FrameworkInstance:
        if kind not in self._frameworks:
            self._frameworks[kind] = make_framework(self.program, kind)
        return self._frameworks[kind]

    def solution(self, kind: str) -> SolveResult:
        if kind not in self._solutions:
            self._solutions[kind] = round_robin_solve(self.framework(kind), self.cfg)
        return self._solutions[kind]

    def edg(self, kind: str) -> EntityDependenceGraph:
        if kind not in self._edgs:
            fw = self.framework(kind)
            renamed = REACH_KIND if fw.direction == FORWARD else LIVE_KIND
            self._edgs[kind] = build_edg(self.cfg, fw, weights=self.weights,
                                         renamed=self.solution(renamed))
        return self._edgs[kind]

    def delta(self, kind: str) -> int:
        """0 for a separable framework, whose transfers read no entity."""
        if kind not in self._deltas:
            fw = self.framework(kind)
            self._deltas[kind] = 0 if fw.separable else degree_of_dependence(
                self.edg(kind), fw.lattice.height)
        return self._deltas[kind]

    def record(self, kind: str) -> BoundsRecord:
        fw = self.framework(kind)
        return BoundsRecord(
            program=self.program.name, analysis=kind, nodes=len(self.cfg.nodes),
            vars=len(fw.entities), d=self.depth, h_hat=fw.lattice.height,
            delta=self.delta(kind), iterations=self.solution(kind).iterations)


def emit_report(records: list[BoundsRecord], format: str) -> bytes:
    """Render records, preserving input order, as CSV or JSON bytes."""
    if format == "csv":
        lines = [CSV_HEADER]
        lines.extend(r.csv_row() for r in records)
        return ("\n".join(lines) + "\n").encode("utf-8")
    if format == "json":
        payload = [r.as_report_dict() for r in records]
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {format!r}")
