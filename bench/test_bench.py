"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import hashlib
import io
import json
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import run
import tracing

KINDS = ("cp", "faint", "avail", "reach", "live")


@pytest.fixture(scope="module")
def dfalab():
    return run.import_dfalab()


def fixture_rows(dfalab, name):
    path = Path(dfalab.fixtures.__file__).parent / f"{name}.prog"
    out = io.StringIO()
    with redirect_stdout(out):
        dfalab.cli.main(["report", str(path)]
                        + [a for k in KINDS for a in ("--analysis", k)])
    return checks.parse_report(out.getvalue())


def small_corpus(dfalab, tmp_path, count=12, **config):
    programs = dfalab.generate_corpus(dfalab.GeneratorConfig(**config), count)
    paths = []
    for program in programs:
        path = tmp_path / f"{program.name}.prog"
        path.write_text(dfalab.serialize_program(program), encoding="utf-8")
        paths.append(str(path))
    return programs, paths


# -- each check rejects a hand-corrupted record ------------------------------

def test_fig3_records_pass_every_check(dfalab):
    for name in ("fig3", "fig3_swap"):
        rows = fixture_rows(dfalab, name)
        assert checks.golden_problems(rows, name) == []
        for row in rows:
            assert checks.arithmetic_problems(row) == []
            assert checks.bound_problems(row) == []


def test_rejects_iterations_above_b2(dfalab):
    row = fixture_rows(dfalab, "fig3")[0]
    corrupt = {**row, "I": row["B2"] + 1}
    assert any("> B2" in p for p in checks.bound_problems(corrupt))


def test_rejects_nonzero_delta_on_bitvector_kind(dfalab):
    row = next(r for r in fixture_rows(dfalab, "fig3") if r["analysis"] == "avail")
    corrupt = {**row, "delta": 1, "B2": row["B2"] + 1, "dev2": row["dev2"] + 1}
    assert any("bit-vector" in p for p in checks.arithmetic_problems(corrupt))


def test_rejects_b2_arithmetic(dfalab):
    row = fixture_rows(dfalab, "fig3")[0]
    corrupt = {**row, "B2": row["B2"] + 1, "dev2": row["dev2"] + 1}
    assert any("B2=" in p for p in checks.arithmetic_problems(corrupt))


def test_rejects_fig3_cp_iterations(dfalab):
    rows = fixture_rows(dfalab, "fig3")
    corrupt = [{**r, "I": 8} if r["analysis"] == "cp" else r for r in rows]
    assert checks.golden_problems(corrupt, "fig3") != []


# -- per-program reports equal the corpus report -----------------------------

def test_per_program_rows_equal_corpus_report(dfalab, tmp_path):
    programs, paths = small_corpus(dfalab, tmp_path, seed=5)
    timed = run.measure([lambda index, argv: dfalab.cli.main(argv)], paths, KINDS, 0)[0]
    outcomes = timed.rounds[0]
    assert dfalab.cli.main(["corpus", str(tmp_path), "--out", str(tmp_path / "r")]
                           + [a for k in KINDS for a in ("--analysis", k)]) == 0
    corpus = (tmp_path / "r" / "report.csv").read_text(encoding="utf-8")
    per_program = [line for _, out, _ in outcomes for line in out.splitlines()[1:]]
    assert per_program == corpus.splitlines()[1:]
    assert run.report_sha256(programs, outcomes) == hashlib.sha256(
        corpus.encode("utf-8")).hexdigest()


def test_depth_oracle_and_dfs_agree_with_dfalab(dfalab, tmp_path):
    programs, _ = small_corpus(dfalab, tmp_path, count=20, seed=9)
    oracle = checks.Oracle(run.ROOT)
    for program in programs:
        cfg = dfalab.build_cfg(program)
        back, rpo = checks.dfs(cfg.successors, cfg.entry)
        assert back == dfalab.cfg_metrics.classify_back_edges(cfg)
        assert sorted(rpo) == sorted(program.nodes)
        assert oracle.depth(program) == dfalab.ProgramPipeline(program).depth


# -- the fault the irreducible workload keeps --------------------------------

def test_irreducible_fault_is_the_visit_order(dfalab):
    config = dfalab.GeneratorConfig(seed=7, node_budget=40,
                                    irreducible_edge_probability=0.05)
    program = dfalab.generate_program(config, 5)
    pipeline = dfalab.ProgramPipeline(program)
    rows = [pipeline.record(k).as_report_dict() for k in KINDS]
    avail = next(r for r in rows if r["analysis"] == "avail")
    assert (avail["d"], avail["B2"], avail["I"]) == (2, 3, 4)
    assert checks.order_fault(program)
    assert checks.holds_in_reverse_postorder(dfalab, program, rows)
    # The patch is undone: the same solve breaks the bound again.
    fw = dfalab.make_framework(program, "avail")
    assert dfalab.round_robin_solve(fw, dfalab.build_cfg(program)).iterations == 4


def test_reducible_programs_carry_no_order_fault(dfalab, tmp_path):
    programs, _ = small_corpus(dfalab, tmp_path, count=30, seed=11)
    assert not any(checks.order_fault(p) for p in programs)


# -- the traced run ----------------------------------------------------------

def test_tracer_counts_layers_and_restores_modules(dfalab, tmp_path):
    _, paths = small_corpus(dfalab, tmp_path, count=6, seed=3)
    original = dfalab.bounds.round_robin_solve
    plain = run.measure([lambda index, argv: dfalab.cli.main(argv)], paths, KINDS, 0)[0]
    tracer = tracing.Tracer()
    tracer.install({"cli": dfalab.cli, "bounds": dfalab.bounds,
                    "cfg_metrics": dfalab.cfg_metrics, "edg": dfalab.edg})
    try:
        traced = run.measure(
            [lambda index, argv: tracer.call("cli.report", dfalab.cli.main, argv)],
            paths, KINDS, 0)[0]
    finally:
        tracer.uninstall()
    assert dfalab.bounds.round_robin_solve is original
    assert traced.rounds == plain.rounds
    values = tracer.layer_metrics()
    assert tracer.absent == []
    assert values["bounds.records"] == len(paths) * len(KINDS)
    assert all(values[f"engine.passes.{k}"] >= len(paths) for k in KINDS)
    assert values["cfg_metrics.weight_searches"] <= values["cfg_metrics.weight_lookups"]
    assert all(values[n] >= 0 for n in values if n.endswith("_s") or "_s." in n)
    total = sum(end - start for _, label, start, end, parent in tracer.spans
                if parent == -1)
    spans = sum(v for n, v in values.items() if n.endswith("_s") or "_s." in n)
    assert spans == pytest.approx(total)


def test_missing_wrapper_target_is_reported_absent(dfalab, tmp_path):
    _, paths = small_corpus(dfalab, tmp_path, count=3, seed=4)
    plain = run.measure([lambda index, argv: dfalab.cli.main(argv)], paths, KINDS, 0)[0]
    # An edg module without the set-based reaching definitions / live uses.
    edg = types.SimpleNamespace(delta_vector=dfalab.edg.delta_vector)
    tracer = tracing.Tracer()
    tracer.install({"cli": dfalab.cli, "bounds": dfalab.bounds,
                    "cfg_metrics": dfalab.cfg_metrics, "edg": edg})
    try:
        traced = run.measure(
            [lambda index, argv: tracer.call("cli.report", dfalab.cli.main, argv)],
            paths, KINDS, 0)[0]
    finally:
        tracer.uninstall()
    assert traced.rounds == plain.rounds
    assert [a.split()[0] for a in tracer.absent] == ["analyses.renamed_sets"] * 2
    assert tracer.layer_metrics()["analyses.renamed_sets_s"] == 0.0


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == tracing.per_layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
