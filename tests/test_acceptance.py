"""Acceptance suite: one test per shipped criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -rA``
or ``-s``).  The corpus criteria share one pass over the default
1000-program corpus (seed 42, node budget 60, 4-8 variables) built by
the session fixture below.
"""

import hashlib
import statistics
import time

import pytest

from dfalab import (
    build_cfg,
    degree_of_dependence,
    delta_vector,
    emit_report,
    worklist_solve,
)
from dfalab.analyses import Instance
from dfalab.bounds import ProgramPipeline
from dfalab.cfg_metrics import WeightTable, classify_back_edges
from dfalab.generator import GeneratorConfig, generate_corpus

from _oracles import (
    check_monotonic_entity_dependence,
    entry_nodes,
    enumerate_degree,
    enumerate_depth,
    enumerate_pair_weight,
    plain_round_robin,
)

CORPUS_CONFIG = GeneratorConfig(seed=42, node_budget=60, variable_count=(4, 8))
CORPUS_SIZE = 1000
NONSEPARABLE = ("cp", "faint")
BITVECTOR = ("avail", "reach", "live")
# sha256 of the CSV report over every corpus record, grouped by kind in
# NONSEPARABLE + BITVECTOR order: any change to a reported number moves it.
REPORT_SHA256 = "609378a01ef598cbf1b7246664e13b768f0e98ef9c8be0f3641e013a43757770"


def announce(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="session")
def corpus():
    """One pass over the default corpus, collecting every per-criterion fact."""
    t_start = time.perf_counter()
    programs = generate_corpus(CORPUS_CONFIG, CORPUS_SIZE)
    gen_seconds = time.perf_counter() - t_start

    records = {kind: [] for kind in NONSEPARABLE + BITVECTOR}
    cond10_failures = []
    trace_records = {kind: 0 for kind in NONSEPARABLE}
    worklist_mismatches = []
    bounds_seconds = gen_seconds

    for program in programs:
        pipeline = ProgramPipeline(program)
        t0 = time.perf_counter()
        for kind in NONSEPARABLE:
            records[kind].append(pipeline.record(kind))
        bounds_seconds += time.perf_counter() - t0
        for kind in NONSEPARABLE:
            # Condition 10 reads the trace of the oracle's round robin.
            fw = pipeline.framework(kind)
            trace = plain_round_robin(fw, pipeline.cfg)[4]
            trace_records[kind] += len(trace)
            if not check_monotonic_entity_dependence(
                    pipeline.edg(kind), trace, fw.lattice):
                cond10_failures.append((program.name, kind))
        for kind in BITVECTOR:
            records[kind].append(pipeline.record(kind))
        for kind in NONSEPARABLE + BITVECTOR:
            rr = pipeline.solution(kind)
            wl = worklist_solve(pipeline.framework(kind), pipeline.cfg)
            if rr.in_values != wl.in_values or rr.out_values != wl.out_values:
                worklist_mismatches.append((program.name, kind))

    return {
        "programs": programs,
        "records": records,
        "cond10_failures": cond10_failures,
        "trace_records": trace_records,
        "worklist_mismatches": worklist_mismatches,
        "bounds_seconds": bounds_seconds,
    }


@pytest.fixture(scope="session")
def small_corpus():
    """Programs small enough for exhaustive path/structure enumeration."""
    shallow = generate_corpus(
        GeneratorConfig(seed=43, node_budget=11, variable_count=3), 90)
    nested = generate_corpus(
        GeneratorConfig(seed=44, node_budget=12, variable_count=2, loop_depth=3), 60)
    return shallow + nested


def test_criterion_1_fig3_constant_propagation(fig3):
    t0 = time.perf_counter()
    record = ProgramPipeline(fig3).record("cp")
    elapsed = time.perf_counter() - t0
    ok = (record.d == 3 and record.h_hat == 2 and record.H == 8
          and record.b1 == 25 and record.delta == 6 and record.b2 == 10
          and abs(record.iterations - 9) <= 1 and elapsed < 1.0)
    assert announce(1, ok,
                    f"cp golden: d={record.d} Hhat={record.h_hat} H={record.H} "
                    f"B1={record.b1} delta={record.delta} B2={record.b2} "
                    f"I={record.iterations} ({elapsed*1000:.0f} ms)")
    assert record.iterations == 9  # exact: I leaves out the final no-change pass


def test_criterion_2_fig3_faint_variables(fig3):
    t0 = time.perf_counter()
    record = ProgramPipeline(fig3).record("faint")
    elapsed = time.perf_counter() - t0
    ok = (record.h_hat == 1 and record.H == 4 and record.b1 == 13
          and record.delta == 6 and record.b2 == 10
          and abs(record.iterations - 7) <= 1 and elapsed < 1.0)
    assert announce(2, ok,
                    f"faint golden: Hhat={record.h_hat} H={record.H} "
                    f"B1={record.b1} delta={record.delta} B2={record.b2} "
                    f"I={record.iterations} ({elapsed*1000:.0f} ms)")
    assert record.iterations == 7


def test_criterion_3_swap_experiment(fig3, fig3_swap):
    base = ProgramPipeline(fig3)
    swapped = ProgramPipeline(fig3_swap)
    ok = True
    detail = []
    for kind in NONSEPARABLE:
        b, s = base.record(kind), swapped.record(kind)
        same_structure = (b.d == s.d and b.h_hat == s.h_hat
                          and b.H == s.H and b.b1 == s.b1)
        ok = ok and same_structure and abs(s.iterations - 5) <= 1
        detail.append(f"{kind}: I {b.iterations}->{s.iterations}")
    assert announce(3, ok, "swap keeps d/Hhat/H/B1, " + ", ".join(detail))


def test_criterion_4_edg_structure(fig3):
    pipeline = ProgramPipeline(fig3)
    cp = pipeline.edg("cp")
    fv = pipeline.edg("faint")

    def N(entity, stmt):
        return Instance(entity, stmt)

    cp_nodes_ok = cp.nodes == {N("w", 1), N("x", 5), N("y", 6), N("z", 7), N("w", 8)}
    cp_edges_ok = {(e.src, e.dst) for e in cp.edges} == {
        (N("w", 1), N("z", 7)), (N("w", 8), N("z", 7)), (N("z", 7), N("y", 6)),
        (N("y", 6), N("x", 5)), (N("x", 5), N("w", 8))}
    fv_nodes_ok = fv.nodes == {N("x", 2), N("y", 5), N("z", 6), N("w", 7), N("x", 8)}
    fv_edge_weights = {(e.src, e.dst): e.weight for e in fv.edges}
    fv_edges_ok = set(fv_edge_weights) == {
        (N("x", 2), N("y", 5)), (N("x", 8), N("y", 5)), (N("y", 5), N("z", 6)),
        (N("z", 6), N("w", 7)), (N("w", 7), N("x", 8))}
    weights_ok = (fv_edge_weights.get((N("x", 2), N("y", 5))) == 3
                  and fv_edge_weights.get((N("x", 8), N("y", 5))) == 0)
    def vector(edg, origin, h_hat):
        found = delta_vector(edg, [edg.labels.index(origin)], h_hat)
        return {edg.labels[v]: value for v, value in found.items()}

    cp_vec = vector(cp, N("w", 1), 2)
    fv_vec = vector(fv, N("x", 2), 1)
    vectors_ok = (
        cp_vec == {N("w", 1): 0, N("z", 7): 6, N("y", 6): 6, N("x", 5): 6, N("w", 8): 6}
        and fv_vec == {N("x", 2): 0, N("y", 5): 6, N("z", 6): 6, N("w", 7): 6, N("x", 8): 6})
    ok = (cp_nodes_ok and cp_edges_ok and fv_nodes_ok and fv_edges_ok
          and weights_ok and vectors_ok)
    assert announce(4, ok, "EDG nodes/edges exact, Wt(x_2->y_5)=3, "
                           "Wt(x_8->y_5)=0, delta vectors {0,6,6,6,6}")


def test_criterion_5_bitvector_corollary(corpus):
    exceptions = []
    for kind in BITVECTOR:
        for record in corpus["records"][kind]:
            if record.delta != 0 or record.iterations > 1 + record.d:
                exceptions.append((record.program, kind))
    total = sum(len(corpus["records"][k]) for k in BITVECTOR)
    ok = not exceptions
    assert announce(5, ok, f"bit-vector delta=0 and I<=1+d on {total} records, "
                           f"{len(exceptions)} exceptions")


def test_criterion_6_bound_property_run(corpus):
    violations = [
        (record.program, kind)
        for kind in NONSEPARABLE
        for record in corpus["records"][kind]
        if record.iterations > record.b2 or record.iterations > record.b1]
    elapsed = corpus["bounds_seconds"]
    ok = not violations and elapsed < 300.0
    assert announce(6, ok, f"I<=1+delta+d and I<=1+d*H over {CORPUS_SIZE} programs "
                           f"x {{cp,faint}}, {len(violations)} violations, "
                           f"{elapsed:.1f}s (< 300s)")


def test_criterion_7_oracle_equivalence(corpus, small_corpus):
    mismatches = list(corpus["worklist_mismatches"])

    metric_disagreements = []
    edg_disagreements = []
    entry_disagreements = []
    small_edgs = 0
    for program in small_corpus:
        cfg = build_cfg(program)
        assert len(cfg.nodes) <= 12
        back = classify_back_edges(cfg)
        table = WeightTable(cfg)
        if table.depth != enumerate_depth(cfg, back):
            metric_disagreements.append((program.name, "depth"))
        for a in cfg.nodes:
            for b in cfg.nodes:
                got = table.weight(a, b)
                want = 0 if a == b else enumerate_pair_weight(cfg, back, a, b)
                if got != want:
                    metric_disagreements.append((program.name, (a, b)))
        pipeline = ProgramPipeline(program)
        for kind, h_hat in (("cp", 2), ("faint", 1)):
            edg = pipeline.edg(kind)
            if edg.entries != entry_nodes(edg, pipeline.framework(kind)):
                entry_disagreements.append((program.name, kind))
            if len(edg.nodes) > 10:
                continue
            small_edgs += 1
            if degree_of_dependence(edg, h_hat) != enumerate_degree(edg, h_hat):
                edg_disagreements.append((program.name, kind))

    ok = (not mismatches and not metric_disagreements and not edg_disagreements
          and not entry_disagreements and small_edgs >= 50)
    assert announce(
        7, ok,
        f"worklist==round-robin on {CORPUS_SIZE} programs x 5 analyses "
        f"({len(mismatches)} mismatches); depth/weights vs enumeration on "
        f"{len(small_corpus)} small programs ({len(metric_disagreements)} "
        f"disagreements); delta vs enumeration on {small_edgs} EDGs "
        f"({len(edg_disagreements)} disagreements); entry nodes vs definition on "
        f"{2 * len(small_corpus)} EDGs ({len(entry_disagreements)} disagreements)")


def test_criterion_8_condition_ten(corpus):
    failures = corpus["cond10_failures"]
    traced = corpus["trace_records"]
    ok = not failures and all(traced[kind] > 0 for kind in NONSEPARABLE)
    assert announce(8, ok, f"ht(new)>=ht(operand) on every EDG-edge transition "
                           f"across {CORPUS_SIZE} programs x {{cp,faint}} "
                           f"({traced['cp']} + {traced['faint']} trace records), "
                           f"{len(failures)} violations")


def test_criterion_9_deviation_medians(corpus):
    dev1 = [r.dev1 for kind in NONSEPARABLE for r in corpus["records"][kind]]
    dev2 = [r.dev2 for kind in NONSEPARABLE for r in corpus["records"][kind]]
    m1, m2 = statistics.median(dev1), statistics.median(dev2)
    share = sum(a >= b for a, b in zip(dev1, dev2)) / len(dev1)
    ok = m2 < m1 and share >= 0.95
    assert announce(9, ok, f"median(dev2)={m2} < median(dev1)={m1}; "
                           f"dev1>=dev2 on {share:.1%} of records")


def test_report_bytes_are_pinned(corpus):
    records = [r for kind in NONSEPARABLE + BITVECTOR for r in corpus["records"][kind]]
    assert hashlib.sha256(emit_report(records, "csv")).hexdigest() == REPORT_SHA256
