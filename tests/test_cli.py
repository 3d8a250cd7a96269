import json
from collections import Counter

import pytest

from dfalab import (
    ANALYSIS_KINDS,
    GeneratorConfig,
    SearchBudgetExceeded,
    bounds,
    cfg_metrics,
    cli,
    engine,
    fixtures,
    generate_corpus,
    generator,
    ir,
    serialize_program,
)
from dfalab.bounds import CSV_HEADER
from dfalab.cli import EXIT_OK, EXIT_USAGE, main

SELF_LOOP = """program loop
vars x
node 1  x = 0
node 2  x = x + 1
node 3  print x
edge 1 -> 2
edge 2 -> 2
edge 2 -> 3
"""


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.prog"
    path.write_text(fixtures.fixture_text("fig3.prog"), encoding="utf-8")
    return path


@pytest.fixture
def swap_file(tmp_path):
    path = tmp_path / "fig3_swap.prog"
    path.write_text(fixtures.fixture_text("fig3_swap.prog"), encoding="utf-8")
    return path


def rows(csv_text):
    lines = csv_text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    return [dict(zip(CSV_HEADER.split(","), line.split(","))) for line in lines[1:]]


class TestReport:
    def test_two_kinds_two_rows(self, fig3_file, capsys):
        code = main(["report", str(fig3_file), "--analysis", "cp",
                     "--analysis", "faint"])
        assert code == EXIT_OK
        table = rows(capsys.readouterr().out)
        assert [r["analysis"] for r in table] == ["cp", "faint"]
        assert table[0]["I"] == "9"
        assert table[1]["I"] == "7"

    def test_malformed_file_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.prog"
        bad.write_text("program x\nvars a\nnode 1  q = 2\n", encoding="utf-8")
        code = main(["report", str(bad)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "undeclared variable" in captured.err

    def test_exit_naming_no_node_fails_in_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.prog"
        bad.write_text("program x\nvars a\nnode 1  skip\nexit 7\n", encoding="utf-8")
        code = main(["report", str(bad)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err == f"dfalab: {bad}: line 4, column 1: exit 7 is not a declared node\n"

    def test_swap_reduces_iterations_only(self, fig3_file, swap_file, capsys):
        code = main(["report", str(fig3_file), str(swap_file), "--analysis", "cp"])
        assert code == EXIT_OK
        base, swap = rows(capsys.readouterr().out)
        assert int(swap["I"]) < int(base["I"])
        for column in ("d", "H", "B1"):
            assert base[column] == swap[column]

    def test_json_output(self, fig3_file, capsys):
        code = main(["report", str(fig3_file), "--analysis", "cp",
                     "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["program"] == "fig3"

    def test_out_file(self, fig3_file, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["report", str(fig3_file), "--analysis", "cp",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().startswith(CSV_HEADER)

    def test_non_utf8_file_fails_in_one_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.prog"
        bad.write_bytes(b"program x\nvars \xe9\n")
        code = main(["report", str(bad)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("dfalab: ") and err.count("\n") == 1
        assert "utf-8" in err

    def test_default_kinds(self, fig3_file, capsys):
        assert main(["report", str(fig3_file)]) == EXIT_OK
        assert [r["analysis"] for r in rows(capsys.readouterr().out)] == ["cp", "faint"]

    def test_repeated_calls_share_no_flags(self, fig3_file, capsys):
        # main reuses one parser; an earlier --analysis must not carry over.
        assert main(["report", str(fig3_file), "--analysis", "avail"]) == EXIT_OK
        assert [r["analysis"] for r in rows(capsys.readouterr().out)] == ["avail"]
        assert main(["report", str(fig3_file)]) == EXIT_OK
        assert [r["analysis"] for r in rows(capsys.readouterr().out)] == ["cp", "faint"]

    def test_missing_out_directory_fails_in_one_line(self, fig3_file, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "x.csv"
        assert main(["report", str(fig3_file), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"dfalab: {out}: No such file or directory\n"

    def test_failing_analysis_keeps_the_others(self, fig3_file, capsys, monkeypatch):
        message = "degree-of-dependence enumeration exceeded its step budget"
        real = bounds.degree_of_dependence

        def budgeted(edg, h_hat, **kwargs):
            if edg.kind == "faint":
                raise SearchBudgetExceeded(message)
            return real(edg, h_hat, **kwargs)

        monkeypatch.setattr(bounds, "degree_of_dependence", budgeted)
        code = main(["report", str(fig3_file), "--analysis", "faint",
                     "--analysis", "avail", "--analysis", "cp"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert [r["analysis"] for r in rows(captured.out)] == ["avail", "cp"]
        assert captured.err == f"dfalab: fig3 faint: {message}\n"

    @pytest.mark.parametrize("command", ["report", "corpus"])
    def test_self_loop_bounds_hold(self, tmp_path, capsys, command):
        # d counts the self-loop's back edge, so both bounds cover it.
        (tmp_path / "loop.prog").write_text(SELF_LOOP, encoding="utf-8")
        target = tmp_path / "loop.prog" if command == "report" else tmp_path
        out = tmp_path / "out"
        kinds = [arg for kind in ANALYSIS_KINDS for arg in ("--analysis", kind)]
        code = main([command, str(target), *kinds, "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        report = out if command == "report" else out / "report.csv"
        records = rows(report.read_text(encoding="utf-8"))
        assert [(r["analysis"], r["d"], r["violated"]) for r in records] == [
            (kind, "1", "false") for kind in ANALYSIS_KINDS]

    def test_invalid_program_lists_its_diagnostics(self, tmp_path, fig3_file, capsys):
        bad = tmp_path / "bad.prog"
        bad.write_text(SELF_LOOP + "node 4  skip\nedge 4 -> 9\n", encoding="utf-8")
        code = main(["report", str(bad), str(fig3_file), "--analysis", "cp"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == (
            f"dfalab: {bad}: undefined-node-in-edge: edge 4->9 references undefined node 9\n"
            f"dfalab: {bad}: unreachable-node: node 4 is not reachable from entry\n")
        assert [r["program"] for r in rows(captured.out)] == ["fig3"]

    def test_each_program_is_validated_once(self, fig3_file, swap_file, capsys,
                                            monkeypatch):
        calls = []
        original = ir._walk

        def counting(program):
            calls.append(program.name)
            return original(program)

        monkeypatch.setattr(ir, "_walk", counting)
        assert main(["report", str(fig3_file), str(swap_file)]) == EXIT_OK
        assert calls == ["fig3", "fig3_swap"]

    def test_one_dfs_per_report(self, fig3_file, capsys, monkeypatch):
        # build_cfg runs the DFS; the functions the benchmark patches or
        # swaps are still called.
        calls = Counter()
        for owner, attr in ((ir, "_walk"), (cfg_metrics, "classify_back_edges"),
                            (engine, "traversal_order")):
            def counting(*args, _attr=attr, _original=getattr(owner, attr)):
                calls[_attr] += 1
                return _original(*args)
            monkeypatch.setattr(owner, attr, counting)
        assert main(["report", str(fig3_file), "--analysis", "cp",
                     "--analysis", "faint"]) == EXIT_OK
        # cp and faint, plus the reach and live solves behind their EDGs.
        assert calls == {"_walk": 1, "classify_back_edges": 1, "traversal_order": 4}


class TestGenerate:
    @pytest.fixture
    def refuse_generation(self, monkeypatch):
        """Fail the test if a program is generated."""
        def refuse(config, index):
            raise AssertionError("generated a program")
        monkeypatch.setattr(generator, "generate_program", refuse)

    def test_writes_deterministic_files(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            code = main(["generate", "--seed", "1", "--count", "4",
                         "--nodes", "20", "--out", str(out)])
            assert code == EXIT_OK
        names = sorted(p.name for p in out1.glob("*.prog"))
        assert len(names) == 4
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_defaults_are_the_generator_configs(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["generate", "--count", "3", "--out", str(out)]) == EXIT_OK
        want = {f"{program.name}.prog": serialize_program(program).encode("utf-8")
                for program in generate_corpus(GeneratorConfig(), 3)}
        assert {path.name: path.read_bytes() for path in out.glob("*.prog")} == want

    def test_generated_files_reparse(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        main(["generate", "--seed", "2", "--count", "3", "--nodes", "15",
              "--out", str(out)])
        code = main(["report", *[str(p) for p in sorted(out.glob("*.prog"))],
                     "--analysis", "cp"])
        assert code == EXIT_OK
        assert len(rows(capsys.readouterr().out)) == 3

    def test_writes_the_generated_corpus(self, tmp_path):
        out = tmp_path / "corpus"
        assert main(["generate", "--seed", "42", "--count", "50",
                     "--out", str(out)]) == EXIT_OK
        written = [path.read_text(encoding="utf-8") for path in sorted(out.iterdir())]
        assert written == [serialize_program(p)
                           for p in generate_corpus(GeneratorConfig(seed=42), 50)]

    def test_out_is_a_file_fails_in_one_line(self, fig3_file, capsys, refuse_generation):
        assert main(["generate", "--count", "1", "--out", str(fig3_file)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"dfalab: {fig3_file}: File exists\n"

    @pytest.mark.parametrize("flags,message", [
        (["--count", "0"], "count must be positive"),
        (["--vars", "8-4"], "range '8-4' is empty"),
        (["--vars", "x"], "--vars expects a count"),
        (["--nodes", "0"], "node budget must be at least 1"),
        (["--loops", "-1"], "loop depth must be non-negative"),
        (["--irreducible", "2"], "irreducible edge probability must lie in [0, 1]"),
        (["--vars", "0"], "variable count must be at least 1, got 0"),
        (["--vars", "0-3"], "variable count must be at least 1, got (0, 3)"),
    ])
    def test_bad_arguments_fail_in_one_line(self, tmp_path, capsys, refuse_generation,
                                            flags, message):
        out = tmp_path / "corpus"
        code = main(["generate", *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("dfalab: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()


class TestCorpus:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        out = tmp_path / "corpus"
        main(["generate", "--seed", "11", "--count", "12", "--nodes", "25",
              "--out", str(out)])
        return out

    def test_corpus_run(self, corpus_dir, tmp_path):
        out = tmp_path / "results"
        code = main(["corpus", str(corpus_dir), "--analysis", "cp",
                     "--analysis", "faint", "--out", str(out)])
        assert code == EXIT_OK
        table = rows((out / "report.csv").read_text())
        assert len(table) == 24
        summary = json.loads((out / "summary.json").read_text())
        assert summary["records"] == 24
        assert summary["violations"] == 0

    def test_histogram_conservation(self, corpus_dir, tmp_path):
        out = tmp_path / "results"
        main(["corpus", str(corpus_dir), "--out", str(out)])
        records = len(rows((out / "report.csv").read_text()))
        for name in ("dev1_histogram.txt", "dev2_histogram.txt"):
            counts = [int(line.split()[1])
                      for line in (out / name).read_text().splitlines()]
            assert sum(counts) == records

    def test_out_is_a_file_fails_in_one_line(self, corpus_dir, fig3_file, capsys):
        assert main(["corpus", str(corpus_dir), "--out", str(fig3_file)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"dfalab: {fig3_file}: File exists\n"

    def test_empty_directory_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "void"
        empty.mkdir()
        assert main(["corpus", str(empty)]) == EXIT_USAGE
        assert "no .prog files" in capsys.readouterr().err

    def test_stdout_mode(self, corpus_dir, capsys):
        code = main(["corpus", str(corpus_dir), "--analysis", "cp"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert CSV_HEADER in out
        assert "dev1 histogram" in out

    def test_reports_are_deterministic(self, corpus_dir, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["corpus", str(corpus_dir), "--out", str(out)]) == EXIT_OK
            outs.append((out / "report.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_acyclic_corpus_records_single_pass(self, tmp_path):
        source = tmp_path / "flat"
        main(["generate", "--seed", "13", "--count", "8", "--nodes", "18",
              "--loops", "0", "--out", str(source)])
        out = tmp_path / "flat_results"
        assert main(["corpus", str(source), "--out", str(out)]) == EXIT_OK
        for record in rows((out / "report.csv").read_text()):
            assert record["d"] == "0"  # the acyclic marker
            assert record["I"] == "1"
            assert record["B2"] == "1"


def test_usage_error_exit_code(capsys):
    assert main(["report"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
