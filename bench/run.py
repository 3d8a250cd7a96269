"""Benchmark for ``dfalab report``, standard library only.

    python3 bench/run.py --workload nonsep --seed 42 --seconds 5 --trace 0
    python3 bench/run.py --workload bitvec --seed 42 --profile

Each run generates its workload's corpus, writes one ``.prog`` file per
program under ``bench/work/``, and sends every file through the user's
entry point, ``dfalab.cli.main(["report", FILE, "--analysis", ...])``,
in this process, one program at a time.  Whole rounds of the corpus are
timed until at least ``--seconds`` have passed.  The records are then
checked outside the timed pass (see ``checks.py``).

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` every file is reported untraced
and then traced, and the line holds the per-layer metrics of the traced
calls plus their overhead.  ``--profile`` runs one round under cProfile
and prints the 15 functions with the most own time.  Results, spans
and profiles go to ``bench/out/``.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import importlib
import io
import json
import pstats
import random
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3
FIXED_POINT_SAMPLE = 60


@dataclass(frozen=True)
class Workload:
    kinds: tuple[str, ...]
    # The corpus is pinned, so that every run does the same work and no
    # program fails on one seed only; --seed sets the order of the calls.
    corpus_seed: int
    # A round times programs * passes calls, more than 1000 so that more
    # than 100 lie beyond the 90th percentile.
    programs: int = 1050
    passes: int = 1
    node_budget: int = 60
    irreducible: float = 0.0


WORKLOADS = {
    "nonsep": Workload(kinds=("cp", "faint"), corpus_seed=42),
    "bitvec": Workload(kinds=("avail", "reach", "live"), corpus_seed=42),
    "irreducible": Workload(kinds=tracing.KINDS, corpus_seed=7, programs=300, passes=4,
                            node_budget=40, irreducible=0.05),
}


@dataclass
class Setup:
    dfalab: object
    programs: list
    texts: list[str]
    seconds: float
    generate_seconds: float


@dataclass
class Pass:
    times: list[float]
    wall: float
    rounds: list[list[tuple[int, str, str]]]


def import_dfalab():
    """Import dfalab from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "dfalab" / "__init__.py").is_file():
        sys.exit(f"bench: no dfalab package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "dfalab" or m.startswith("dfalab.")]:
        del sys.modules[name]
    dfalab = importlib.import_module("dfalab")
    for name in ("cli", "fixtures"):
        importlib.import_module(f"dfalab.{name}")
    return dfalab


def set_up(workload: Workload) -> Setup:
    """Import dfalab, generate the corpus and serialise it; no disk writes."""
    start = perf_counter()
    dfalab = import_dfalab()
    config = dfalab.GeneratorConfig(
        seed=workload.corpus_seed,
        node_budget=workload.node_budget,
        irreducible_edge_probability=workload.irreducible)
    gen_start = perf_counter()
    programs = dfalab.generate_corpus(config, workload.programs)
    gen_seconds = perf_counter() - gen_start
    texts = [dfalab.serialize_program(p) for p in programs]
    return Setup(dfalab, programs, texts, perf_counter() - start, gen_seconds)


def lay_out(name: str, setup: Setup) -> list[str]:
    """Write one .prog file per program; returns their paths."""
    directory = BENCH / "work" / name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    paths = []
    for program, text in zip(setup.programs, setup.texts):
        path = directory / f"{program.name}.prog"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


def measure(callers, paths: list[str], kinds, seconds: float) -> list[Pass]:
    """Time whole rounds over `paths` until `seconds` have passed.

    Each file goes to every caller in turn, so that all callers meet the
    machine in the same state.  With one caller a pass's wall time is the
    loop's; with more, it is the sum of that caller's call times.
    """
    tail = [arg for kind in kinds for arg in ("--analysis", kind)]
    passes = [Pass([], 0.0, []) for _ in callers]
    gc.collect()  # so that set-up garbage is not charged to the first calls
    start = perf_counter()
    while not passes[0].rounds or perf_counter() - start < seconds:
        for timed in passes:
            timed.rounds.append([])
        for index, path in enumerate(paths):
            for call, timed in zip(callers, passes):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    t0 = perf_counter()
                    code = call(index, ["report", path, *tail])
                    t1 = perf_counter()
                timed.times.append(t1 - t0)
                timed.rounds[-1].append((code, out.getvalue(), err.getvalue()))
    wall = perf_counter() - start
    for timed in passes:
        timed.wall = wall if len(passes) == 1 else sum(timed.times)
    return passes


def check(dfalab, workload: Workload, programs, outcomes, seed: int):
    """Names of failed programs, and problems that make the run incorrect."""
    problems: list[str] = []
    failed: set[str] = set()
    oracle = checks.Oracle(ROOT)
    for program, (code, out, err) in zip(programs, outcomes):
        if code not in (0, 2):
            failed.add(program.name)
            problems.append(f"{program.name}: exit {code}: {err.strip()}")
            continue
        try:
            rows = checks.parse_report(out)
        except ValueError as exc:
            failed.add(program.name)
            problems.append(f"{program.name}: {exc}")
            continue
        own = checks.program_problems(program, workload.kinds, rows)
        own += [p for row in rows for p in checks.arithmetic_problems(row)]
        if rows and rows[0]["d"] != oracle.depth(program):
            own.append(f"{program.name}: d={rows[0]['d']} != exhaustive depth "
                       f"{oracle.depth(program)}")
        broken = [p for row in rows for p in checks.bound_problems(row)]
        if own or broken or code == 2:
            failed.add(program.name)
        problems += own
        if (code == 2) != bool(broken):
            problems.append(f"{program.name}: exit {code} but broken bounds {broken}")
        elif broken and not (workload.irreducible > 0
                             and checks.order_fault(program)
                             and checks.holds_in_reverse_postorder(dfalab, program, rows)):
            problems.append(f"{program.name}: {'; '.join(broken)}")

    fixtures = Path(dfalab.fixtures.__file__).parent
    for name in ("fig3", "fig3_swap"):
        out = io.StringIO()
        with redirect_stdout(out):
            code = dfalab.cli.main(["report", str(fixtures / f"{name}.prog"),
                                    "--analysis", "cp", "--analysis", "faint"])
        rows = checks.parse_report(out.getvalue())
        problems += checks.golden_problems(rows, name)
        problems += [p for row in rows for p in checks.arithmetic_problems(row)
                     + checks.bound_problems(row)]
        if code != 0:
            problems.append(f"{name}: exit {code}")

    sample = random.Random(f"fixed-point/{seed}").sample(programs, FIXED_POINT_SAMPLE)
    for program in sample:
        problems += checks.fixed_point_problems(dfalab, program, workload.kinds)
    return failed, problems


def percentile_ms(times: list[float], n: int, k: int) -> float:
    return statistics.quantiles(times, n=n)[k] * 1e3


def report_sha256(programs, outcomes) -> str:
    """sha256 of the rows in program-name order under one header, as in
    the report.csv of `dfalab corpus`."""
    rows = {p.name: out.partition("\n")[2] for p, (_, out, _) in zip(programs, outcomes)}
    text = checks.CSV_HEADER + "\n" + "".join(rows[n] for n in sorted(rows))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    setup_seconds, generate_seconds = [], []
    for _ in range(SETUP_REPEATS):
        # Drop the previous corpus first, so that peak_rss_mb holds one.
        setup = None
        gc.collect()
        setup = set_up(workload)
        setup_seconds.append(setup.seconds)
        generate_seconds.append(setup.generate_seconds)
    dfalab = setup.dfalab
    write_start = perf_counter()
    paths = lay_out(name, setup)
    write_seconds = perf_counter() - write_start

    # Each pass visits every program once, in an order drawn from --seed.
    schedule: list[int] = []
    for number in range(workload.passes):
        order = list(range(len(paths)))
        random.Random(f"order/{seed}/{number}").shuffle(order)
        schedule += order
    calls = [paths[i] for i in schedule]
    cli = dfalab.cli

    callers = [lambda index, argv: cli.main(argv)]
    if traced:
        # Each file is reported untraced, then traced: the overhead
        # compares calls made seconds apart, not passes minutes apart.
        tracer = tracing.Tracer()
        modules = {"cli": cli, "bounds": dfalab.bounds,
                   "cfg_metrics": dfalab.cfg_metrics, "edg": dfalab.edg}

        def traced_call(index, argv):
            tracer.request = index
            tracer.install(modules)
            try:
                return tracer.call("cli.report", cli.main, argv)
            finally:
                tracer.uninstall()
        callers.append(traced_call)
    passes = measure(callers, calls, workload.kinds, seconds)
    plain = passes[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcome_of: dict[int, tuple[int, str, str]] = {}
    repeatable = all(outcome_of.setdefault(i, o) == o
                     for p in passes for r in p.rounds for i, o in zip(schedule, r))
    outcomes = [outcome_of[i] for i in range(len(paths))]
    check_start = perf_counter()
    failed, problems = check(dfalab, workload, setup.programs, outcomes, seed)
    check_seconds = perf_counter() - check_start
    if not repeatable:
        problems.append("a program's report differs between calls")
    rounds = sum(len(p.rounds) for p in passes)

    times = plain.times
    end_to_end = {
        "programs_per_s": (len(times) / plain.wall, "1/s"),
        "verdict_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "verdict_ms_p90": (percentile_ms(times, 10, 8), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_seconds), "s"),
    }
    reference = {
        "verdict_ms_p99": percentile_ms(times, 100, 98),
        "setup_s_each": setup_seconds,
        "write_s": write_seconds,
        "check_s": check_seconds,
        "rounds": rounds,
        "programs": len(paths),
        "failed_programs": sorted(failed),
        "report_sha256": report_sha256(setup.programs, outcomes),
    }
    if traced:
        units = tracing.per_layer_metric_units()
        values = tracer.layer_metrics()
        values["generator.generate_s"] = statistics.median(generate_seconds)
        traced_pass = passes[1]
        values["trace.overhead_pct"] = 100 * (
            (traced_pass.wall / len(traced_pass.times)) / (plain.wall / len(times)) - 1)
        metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
        reference["absent_layers"] = tracer.absent
    else:
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in end_to_end.items()}

    result = {
        "correct": not problems,
        "attempted": len(calls) * rounds,
        "failed": len(failed) * workload.passes * rounds,
        "metrics": metrics,
    }
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    if traced:
        tracer.write_spans(out_dir / f"{stem}-spans.jsonl")
    (out_dir / f"{stem}.json").write_text(json.dumps(
        {**result, "end_to_end": {n: v for n, (v, _) in end_to_end.items()},
         "reference": reference, "problems": problems}, indent=1) + "\n",
        encoding="utf-8")

    print(f"workload {name}, seed {seed}: {len(paths)} programs x {workload.passes} "
          f"pass(es) x {rounds} round(s), "
          f"kinds {','.join(workload.kinds)}, {len(failed)} failed programs")
    for metric, (value, unit) in end_to_end.items():
        print(f"  {metric:16} {value:12.4f} {unit}")
    print(f"  {'verdict_ms_p99':16} {reference['verdict_ms_p99']:12.4f} ms (reference)")
    print(f"  {'write_s':16} {write_seconds:12.4f} s (reference, not in setup_s)")
    print(f"  report sha256 {reference['report_sha256']}")
    if traced:
        for metric, unit in tracing.per_layer_metric_units().items():
            print(f"  {metric:36} {values[metric]:14.4f} {unit}")
        if tracer.absent:
            print(f"  absent layers: {', '.join(tracer.absent)}")
    for problem in problems[:20]:
        print(f"  PROBLEM {problem}", file=sys.stderr)
    return result


def profile(name: str, seed: int) -> None:
    """Run one round under cProfile; print the top 15 functions by own time."""
    workload = WORKLOADS[name]
    setup = set_up(workload)
    paths = lay_out(name, setup)
    cli = setup.dfalab.cli
    profiler = cProfile.Profile()
    profiler.runcall(measure, [lambda index, argv: cli.main(argv)], paths,
                     workload.kinds, 0)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    profiler.dump_stats(out_dir / f"{name}-seed{seed}.pstats")
    pstats.Stats(profiler, stream=sys.stdout).sort_stats("tottime").print_stats(15)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="time whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="profile one round instead of measuring")
    args = parser.parse_args(argv)
    if args.profile:
        profile(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
