import hashlib
import json
import sys
from collections import Counter

import pytest

from dfalab import ANALYSIS_KINDS, GeneratorConfig, emit_report, fixtures, generate_corpus
from dfalab import bounds, ir
from dfalab.bounds import CSV_HEADER, ProgramPipeline, edg_bound, simplistic_bound

# sha256 of the CSV report over the seed-7, 300-program irreducible
# corpus (`--nodes 40 --irreducible 0.05`), all five kinds.
IRREDUCIBLE_REPORT_SHA256 = "c3c0a0f22a72ffeb83f052385baca4eb16944dcd44a4491486ed6d1c7533dcdd"


@pytest.mark.parametrize("d,H,expected", [(3, 8, 25), (3, 4, 13), (0, 17, 1), (0, 0, 1)])
def test_simplistic_bound(d, H, expected):
    assert simplistic_bound(d, H) == expected


@pytest.mark.parametrize("d,delta,expected", [(3, 6, 10), (3, 0, 4), (0, 0, 1)])
def test_edg_bound(d, delta, expected):
    assert edg_bound(d, delta) == expected


def test_bounds_reject_negative_inputs():
    with pytest.raises(ValueError):
        simplistic_bound(-1, 3)
    with pytest.raises(ValueError):
        edg_bound(1, -2)


def test_pipeline_derives_each_statements_facts_once(monkeypatch):
    """Validation and all five builders share one derivation per statement."""
    program = fixtures.fig3()  # a fresh parse, with no facts derived yet
    calls: Counter = Counter()
    for name in ("stmt_target", "stmt_uses", "expression_key"):
        original = getattr(ir, name)

        def spy(stmt, name=name, original=original):
            calls[name, id(stmt)] += 1
            return original(stmt)
        # Wherever a dfalab module holds the rule, it reaches the spy.
        for module in [m for key, m in sys.modules.items() if key.startswith("dfalab")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)

    pipeline = ProgramPipeline(program)
    for kind in ANALYSIS_KINDS:
        pipeline.record(kind)
    statements = [id(stmt) for stmt in program.nodes.values()]
    for name in ("stmt_target", "stmt_uses", "expression_key"):
        assert [calls[name, stmt] for stmt in statements] == [1] * len(statements), name
    assert sum(calls.values()) == 3 * len(statements)


class TestMakeRecord:
    def test_fig3_cp(self, fig3):
        r = ProgramPipeline(fig3).record("cp")
        assert (r.d, r.delta, r.b1, r.b2) == (3, 6, 25, 10)
        assert abs(r.iterations - 9) <= 1
        assert not r.bound_violated
        assert not r.acyclic

    def test_fig3_faint(self, fig3):
        r = ProgramPipeline(fig3).record("faint")
        assert (r.d, r.delta, r.b1, r.b2) == (3, 6, 13, 10)
        assert abs(r.iterations - 7) <= 1
        assert not r.bound_violated

    def test_fig3_avail(self, fig3):
        r = ProgramPipeline(fig3).record("avail")
        assert r.delta == 0
        assert r.b2 == 4
        assert r.iterations <= 4
        assert not r.bound_violated

    def test_unknown_kind(self, fig3):
        with pytest.raises(ValueError):
            ProgramPipeline(fig3).record("nope")

    def test_deviations_consistent(self, fig3):
        r = ProgramPipeline(fig3).record("cp")
        assert r.dev1 == r.b1 - r.iterations
        assert r.dev2 == r.b2 - r.iterations

    def test_convention_switch_shifts_iterations(self, fig3):
        # I leaves out the final no-change pass that passes_executed counts.
        pipeline = ProgramPipeline(fig3)
        for kind in ("cp", "faint"):
            assert (pipeline.solution(kind).passes_executed
                    == pipeline.record(kind).iterations + 1)


class TestEmitReport:
    def test_fig3_cp_csv_row(self, fig3):
        record = ProgramPipeline(fig3).record("cp")
        body = emit_report([record], "csv").decode()
        lines = body.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "fig3,cp,8,4,3,8,6,25,10,9,16,1,false"

    def test_empty_report_is_header_only(self):
        assert emit_report([], "csv").decode() == CSV_HEADER + "\n"

    def test_rows_preserve_input_order(self, fig3):
        cp = ProgramPipeline(fig3).record("cp")
        faint = ProgramPipeline(fig3).record("faint")
        lines = emit_report([faint, cp], "csv").decode().splitlines()
        assert lines[1].split(",")[1] == "faint"
        assert lines[2].split(",")[1] == "cp"

    def test_json_field_names_match_csv(self, fig3):
        record = ProgramPipeline(fig3).record("cp")
        payload = json.loads(emit_report([record], "json"))
        assert isinstance(payload, list)
        assert list(payload[0]) == CSV_HEADER.split(",")
        assert payload[0]["violated"] is False
        assert payload[0]["B1"] == 25

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "xml")


def test_pipeline_reuses_metrics(fig3):
    pipeline = ProgramPipeline(fig3)
    r1 = pipeline.record("cp")
    r2 = pipeline.record("faint")
    assert r1.d == r2.d == 3
    assert r1.nodes == r2.nodes == 8


def test_pipeline_computes_delta_once(fig3, monkeypatch):
    calls = []
    original = bounds.degree_of_dependence

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bounds, "degree_of_dependence", counting)
    pipeline = ProgramPipeline(fig3)
    assert pipeline.delta("cp") == 6
    assert pipeline.record("cp").delta == 6
    assert len(calls) == 1


def test_irreducible_corpus_meets_every_bound():
    """Visiting in DFS reverse postorder keeps I within the d-based bounds.

    Id-order visits broke a bound on 78 of these 1,500 records, among
    them p0005 avail (d=2, B2=3, I=4).  The report bytes are pinned
    too: the sha256 of the CSV report over every record, by program
    and then in ANALYSIS_KINDS order, as ``dfalab corpus`` writes it.
    """
    config = GeneratorConfig(seed=7, node_budget=40, irreducible_edge_probability=0.05)
    records = []
    for program in generate_corpus(config, 300):
        pipeline = ProgramPipeline(program)
        records += [pipeline.record(kind) for kind in ANALYSIS_KINDS]
        if program.name == "p0005":
            avail = pipeline.record("avail")
            assert (avail.d, avail.b2, avail.iterations) == (2, 3, 3)
    assert [(r.program, r.analysis) for r in records if r.bound_violated] == []
    assert hashlib.sha256(emit_report(records, "csv")).hexdigest() == IRREDUCIBLE_REPORT_SHA256
