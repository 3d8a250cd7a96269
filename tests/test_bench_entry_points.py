"""What the benchmark under bench/ reaches in dfalab.

The benchmark's own tests are not part of this suite, so these fail
here first when a change removes or reshapes a name that the benchmark
imports, calls or patches, or an argument its tracer reads.  The
benchmark also loads ``tests/_oracles.py`` by path for its depth oracle.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import dfalab
from dfalab import bounds, cfg_metrics, cli, edg, engine, fixtures

TOP_LEVEL = ("GeneratorConfig", "ProgramPipeline", "build_cfg", "generate_corpus",
             "generate_program", "make_framework", "round_robin_solve",
             "serialize_program", "worklist_solve")
SUBMODULES = ("cli", "fixtures", "bounds", "cfg_metrics", "edg", "engine")
# Module attributes that the benchmark's tracer wraps or its checks swap
# or call.  The tracer's renamed-set wrappers target functions removed
# earlier, so the benchmark reports that layer absent; they are not here.
PATCHED = (
    (cli, "parse_program"), (cli, "emit_report"),
    (bounds, "build_cfg"), (bounds, "WeightTable"), (bounds, "make_framework"),
    (bounds, "round_robin_solve"), (bounds, "build_edg"),
    (bounds, "degree_of_dependence"), (bounds.ProgramPipeline, "record"),
    (cfg_metrics, "depth"), (cfg_metrics, "max_backedge_acyclic_weight"),
    (cfg_metrics, "classify_back_edges"), (edg, "delta_vector"),
    (engine, "traversal_order"),
)
FIG3 = Path(fixtures.__file__).parent / "fig3.prog"
ORACLES = Path(__file__).resolve().parent / "_oracles.py"


def test_names_resolve():
    for name in TOP_LEVEL:
        assert callable(getattr(dfalab, name)), name
    for name in SUBMODULES:
        assert importlib.import_module(f"dfalab.{name}") is getattr(dfalab, name)
    for owner, attr in PATCHED:
        assert callable(getattr(owner, attr)), attr


def test_library_calls(fig3):
    cfg = dfalab.build_cfg(fig3)
    solution = dfalab.round_robin_solve(dfalab.make_framework(fig3, "cp"), cfg)
    assert (solution.iterations, solution.passes_executed) == (9, 10)
    # The tracer still counts len(trace); solves record none.
    assert solution.trace == ()
    assert solution.in_values.keys() == solution.out_values.keys()
    assert dfalab.ProgramPipeline(fig3).depth == 3


def test_patched_calls_carry_what_the_tracer_reads(monkeypatch, capsys):
    seen: dict[str, list] = {}

    def spy(owner, attr, label):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            seen.setdefault(attr, []).append(label(args, result))
            return result
        monkeypatch.setattr(owner, attr, wrapper)

    class CountingWeightTable(bounds.WeightTable):
        def weight(self, frm, to):
            seen.setdefault("weight", []).append((frm, to))
            return super().weight(frm, to)

    # What the tracer reads from each call: the kind in its labels, and
    # the counts it adds up.
    labels = {
        "make_framework": lambda args, result: args[1],
        "round_robin_solve": lambda args, result: (
            args[0].kind, result.passes_executed, len(result.trace)),
        "build_edg": lambda args, result: (
            args[1].kind, len(result.nodes), len(result.edges)),
        "degree_of_dependence": lambda args, result: args[0].kind,
        "delta_vector": lambda args, result: args[0].kind,
    }
    for owner, attr in PATCHED:
        if attr != "WeightTable":
            spy(owner, attr, labels.get(attr, lambda args, result: None))
    monkeypatch.setattr(bounds, "WeightTable", CountingWeightTable)

    assert cli.main(["report", str(FIG3), "--analysis", "cp", "--analysis", "faint"]) == 0
    assert capsys.readouterr().out.count("\n") == 3

    assert set(seen["make_framework"]) == {"cp", "faint", "reach", "live"}
    assert ("cp", 10, 0) in seen["round_robin_solve"]
    assert sorted(seen["build_edg"]) == [("cp", 5, 5), ("faint", 5, 5)]
    assert sorted(seen["degree_of_dependence"]) == ["cp", "faint"]
    assert sorted(seen["delta_vector"]) == ["cp", "faint"]
    assert len(seen["record"]) == 2 and seen["weight"]
    for attr in ("parse_program", "emit_report", "build_cfg", "depth",
                 "max_backedge_acyclic_weight", "classify_back_edges",
                 "traversal_order"):
        assert seen.get(attr), attr


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_solvers_read_the_swappable_visit_order(fig3, fig3_cfg, monkeypatch, direction):
    calls = []

    def order(cfg, wanted):
        calls.append(wanted)
        return tuple(sorted(cfg.nodes))

    monkeypatch.setattr(engine, "traversal_order", order)
    fw = dfalab.make_framework(fig3, "cp" if direction == "forward" else "faint")
    dfalab.round_robin_solve(fw, fig3_cfg)
    dfalab.worklist_solve(fw, fig3_cfg)
    assert calls == [direction, direction]


def test_oracles_load_by_path(fig3_cfg):
    # As the benchmark's depth check does: a fresh module name, no sys.path.
    spec = importlib.util.spec_from_file_location("_bench_oracles_check", ORACLES)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    assert oracles.enumerate_depth(fig3_cfg, fig3_cfg.back_edges) == 3
