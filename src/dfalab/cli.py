"""Command-line harness.

Subcommands:

* ``report``   - analyze program files and emit one bounds record per
                 (program, analysis) pair.
* ``generate`` - write a deterministic corpus of random programs.
* ``corpus``   - analyze a directory of programs, emit the aggregate
                 report plus deviation histograms for both bounds.

Exit codes: 0 all bounds hold, 1 usage or parse/validation error,
2 at least one bound violated (a delta or solver bug, distinct from
bad input so CI can tell them apart).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator

from .analyses import ANALYSIS_KINDS, CP_KIND, FAINT_KIND
from .bounds import BoundsRecord, ProgramPipeline, emit_report
from .generator import GeneratorConfig, generate_corpus
from .ir import InvalidProgramError, ParseError, parse_program, serialize_program

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND_VIOLATION = 2


def _parse_vars(raw: str) -> int | tuple[int, int]:
    try:
        if "-" in raw.strip("-"):
            lo, hi = raw.split("-", 1)
            count: int | tuple[int, int] = (int(lo), int(hi))
        else:
            count = int(raw)
    except ValueError:
        raise ValueError(f"--vars expects a count ('6') or a range ('4-8'), "
                         f"got {raw!r}") from None
    if isinstance(count, tuple) and count[0] > count[1]:
        raise ValueError(f"--vars range {raw!r} is empty")
    return count


def _print_errors(errors: list[str]) -> None:
    for line in errors:
        print(f"dfalab: {line}", file=sys.stderr)


def _load_programs(paths: list[Path], errors: list[str]) -> Iterator[ProgramPipeline]:
    """Pipelines of the valid files, made one at a time; the others go to `errors`."""
    for path in paths:
        try:
            program = parse_program(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, ParseError) as exc:
            errors.append(f"{path}: {exc}")
            continue
        try:
            pipeline = ProgramPipeline(program)
        except InvalidProgramError as exc:
            errors.extend(f"{path}: {d}" for d in exc.diagnostics)
            continue
        # A self-loop lies on no node-simple path, so d does not see
        # the extra passes it can cost.
        for node in sorted({src for src, dst in program.edges if src == dst}):
            print(f"dfalab: warning: {path}: node {node} has a self-loop; "
                  "the pass bounds do not cover it", file=sys.stderr)
        yield pipeline


def _records_for(pipelines: Iterable[ProgramPipeline], kinds: list[str],
                 errors: list[str]) -> tuple[list[BoundsRecord], int]:
    """Successful records and the program count; failing pairs go to `errors`."""
    records: list[BoundsRecord] = []
    programs = 0
    for pipeline in pipelines:
        programs += 1
        for kind in kinds:
            try:
                records.append(pipeline.record(kind))
            except RuntimeError as exc:
                errors.append(f"{pipeline.program.name} {kind}: {exc}")
    return records, programs


def _exit_code(errors: list[str], violated: bool) -> int:
    if errors:
        return EXIT_USAGE
    return EXIT_BOUND_VIOLATION if violated else EXIT_OK


def _write_bytes(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.write(data.decode("utf-8"))
    else:
        Path(out).write_bytes(data)


def cmd_report(paths: list[str], kinds: list[str], fmt: str, out: str | None) -> int:
    errors: list[str] = []
    records, _ = _records_for(_load_programs([Path(p) for p in paths], errors),
                              kinds, errors)
    _print_errors(errors)
    _write_bytes(emit_report(records, fmt), out)
    return _exit_code(errors, any(r.bound_violated for r in records))


def cmd_generate(config: GeneratorConfig, count: int, out_dir: str) -> int:
    # A bad count leaves no directory, and a bad directory costs no corpus.
    if count < 1:
        raise ValueError("count must be positive")
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for program in generate_corpus(config, count):
        (directory / f"{program.name}.prog").write_text(
            serialize_program(program), encoding="utf-8")
    return EXIT_OK


def _histogram_text(values: list[int]) -> str:
    counts = Counter(values)
    return "".join(f"{dev} {counts[dev]}\n" for dev in sorted(counts))


def cmd_corpus(directory: str, kinds: list[str], fmt: str, out: str | None) -> int:
    base = Path(directory)
    paths = sorted(base.glob("*.prog"))
    if not paths:
        _print_errors([f"{directory}: no .prog files found"])
        return EXIT_USAGE
    errors: list[str] = []
    records, programs = _records_for(_load_programs(paths, errors), kinds, errors)
    _print_errors(errors)
    if not records:
        return EXIT_USAGE

    report = emit_report(records, fmt)
    dev1 = [r.dev1 for r in records]
    dev2 = [r.dev2 for r in records]
    summary = {
        "programs": programs,
        "records": len(records),
        "violations": sum(1 for r in records if r.bound_violated),
        "acyclic_records": sum(1 for r in records if r.acyclic),
        "median_dev1": statistics.median(dev1),
        "median_dev2": statistics.median(dev2),
    }

    if out is None:
        sys.stdout.write(report.decode("utf-8"))
        sys.stdout.write("# dev1 histogram (deviation count)\n")
        sys.stdout.write(_histogram_text(dev1))
        sys.stdout.write("# dev2 histogram (deviation count)\n")
        sys.stdout.write(_histogram_text(dev2))
        sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    else:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        ext = "csv" if fmt == "csv" else "json"
        (out_dir / f"report.{ext}").write_bytes(report)
        (out_dir / "dev1_histogram.txt").write_text(_histogram_text(dev1),
                                                    encoding="utf-8")
        (out_dir / "dev2_histogram.txt").write_text(_histogram_text(dev2),
                                                    encoding="utf-8")
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                              encoding="utf-8")

    return _exit_code(errors, summary["violations"] > 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfalab",
        description="Round-robin data-flow analysis with iteration-bound checking.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_analysis_flags(p):
        p.add_argument("--analysis", action="append", choices=ANALYSIS_KINDS,
                       help="analysis kind; repeatable (default: cp, faint)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output file (report) or directory (corpus)")

    p_report = sub.add_parser("report", help="analyze program files")
    p_report.add_argument("files", nargs="+")
    add_analysis_flags(p_report)

    # The generator flags default to GeneratorConfig's own defaults.
    defaults = {f.name: f.default for f in dataclasses.fields(GeneratorConfig)}
    variables = defaults["variable_count"]
    p_gen = sub.add_parser("generate", help="generate random programs")
    p_gen.add_argument("--seed", type=int, default=defaults["seed"])
    p_gen.add_argument("--count", type=int, default=100)
    p_gen.add_argument("--nodes", type=int, default=defaults["node_budget"],
                       help="node budget per program")
    p_gen.add_argument("--vars", default="-".join(map(str, variables))
                       if isinstance(variables, tuple) else str(variables),
                       help="variable count, fixed ('6') or range ('4-8')")
    p_gen.add_argument("--loops", type=int, default=defaults["loop_depth"],
                       help="maximum loop nesting")
    p_gen.add_argument("--irreducible", type=float,
                       default=defaults["irreducible_edge_probability"],
                       help="probability of extra arbitrary edges per node")
    p_gen.add_argument("--out", required=True, help="output directory")

    p_corpus = sub.add_parser("corpus", help="batch-verify bounds over a directory")
    p_corpus.add_argument("directory")
    add_analysis_flags(p_corpus)

    return parser


# Built once: parsing leaves the parser unchanged, so calls share it.
_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    kinds = args.analysis if getattr(args, "analysis", None) else [CP_KIND, FAINT_KIND]
    try:
        if args.command == "report":
            return cmd_report(args.files, kinds, args.format, args.out)
        if args.command == "corpus":
            return cmd_corpus(args.directory, kinds, args.format, args.out)
        try:
            config = GeneratorConfig(
                seed=args.seed, node_budget=args.nodes,
                variable_count=_parse_vars(args.vars), loop_depth=args.loops,
                irreducible_edge_probability=args.irreducible)
            return cmd_generate(config, args.count, args.out)
        except ValueError as exc:
            _print_errors([str(exc)])
            return EXIT_USAGE
    except OSError as exc:
        # Inputs are read and diagnosed per file, so this is an output path.
        _print_errors([f"{exc.filename}: {exc.strerror}"])
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
