import dataclasses
import random

import pytest

from dfalab import (
    SearchBudgetExceeded,
    degree_of_dependence,
    delta_vector,
    make_constant_propagation,
)
from dfalab import bounds
from dfalab import edg as edg_module
from dfalab.analyses import (
    CP_LATTICE,
    NONCONST,
    UNDEF,
    Instance,
    make_faint_variables,
)
from dfalab.bounds import ProgramPipeline
from dfalab.cfg_metrics import WeightTable
from dfalab.edg import EntityDependenceGraph
from dfalab.generator import GeneratorConfig, generate_program
from dfalab.ir import CopyAssign, stmt_target, stmt_uses

from _oracles import (
    TraceRecord,
    check_monotonic_entity_dependence,
    entry_nodes,
    enumerate_degree,
    enumerate_delta_vector,
    enumerate_pair_weight,
    plain_round_robin,
)
from conftest import chain_program


def N(entity, stmt):
    return Instance(entity, stmt)


def edge_map(edg):
    return {(e.src, e.dst): e.weight for e in edg.edges}


def labelled(edg, vector):
    """A delta vector keyed by instances instead of node indices."""
    return {edg.labels[v]: value for v, value in vector.items()}


def synthetic_edg(count, edges, entries):
    """An EDG over nodes 0..count-1 from (src, dst, weight) triples.

    Each node keeps its edges in the order given.
    """
    adj = [[] for _ in range(count)]
    for src, dst, weight in edges:
        adj[src].append((dst, weight))
    return EntityDependenceGraph("synthetic", [N(f"e{i}", i) for i in range(count)], adj,
                                 sorted(entries))


@pytest.fixture(scope="module")
def cp_edg(fig3):
    return ProgramPipeline(fig3).edg("cp")


@pytest.fixture(scope="module")
def fv_edg(fig3):
    return ProgramPipeline(fig3).edg("faint")


class TestFig3Structure:
    def test_cp_nodes_and_edges(self, cp_edg):
        assert cp_edg.nodes == {N("w", 1), N("x", 5), N("y", 6), N("z", 7), N("w", 8)}
        assert edge_map(cp_edg) == {
            (N("w", 1), N("z", 7)): 0,
            (N("w", 8), N("z", 7)): 1,
            (N("z", 7), N("y", 6)): 1,
            (N("y", 6), N("x", 5)): 1,
            (N("x", 5), N("w", 8)): 0,
        }

    def test_fv_nodes_and_edges(self, fv_edg):
        assert fv_edg.nodes == {N("x", 2), N("y", 5), N("z", 6), N("w", 7), N("x", 8)}
        assert edge_map(fv_edg) == {
            (N("x", 2), N("y", 5)): 3,
            (N("x", 8), N("y", 5)): 0,
            (N("y", 5), N("z", 6)): 1,
            (N("z", 6), N("w", 7)): 1,
            (N("w", 7), N("x", 8)): 1,
        }

    @pytest.mark.parametrize("kind", ["avail", "reach", "live"])
    def test_separable_kinds_have_no_edg_rule(self, fig3, kind):
        with pytest.raises(ValueError, match="no EDG construction rule"):
            ProgramPipeline(fig3).edg(kind)

    @pytest.mark.parametrize("kind", ["avail", "reach", "live"])
    def test_pipeline_reads_separable_delta_off_the_framework(
            self, fig3, monkeypatch, kind):
        calls = []

        def spy(name):
            original = getattr(bounds, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(bounds, name, wrapper)

        spy("build_edg")
        spy("degree_of_dependence")
        assert ProgramPipeline(fig3).record(kind).delta == 0
        assert calls == []

    def test_entry_nodes(self, cp_edg, fv_edg):
        assert [cp_edg.labels[i] for i in cp_edg.entries] == [N("w", 1)]
        assert [fv_edg.labels[i] for i in fv_edg.entries] == [N("x", 2)]

    def test_entry_nodes_have_no_predecessors(self, cp_edg, fv_edg):
        for edg in (cp_edg, fv_edg):
            targets = {v for out in edg.adj for v, _ in out}
            assert not (set(edg.entries) & targets)

    def test_copies_only_program_has_no_entries(self):
        program = chain_program([CopyAssign("a", "b"), CopyAssign("b", "a")],
                                variables=("a", "b"), name="copies")
        edg = ProgramPipeline(program).edg("cp")
        assert edg.labels
        assert edg.entries == []
        assert degree_of_dependence(edg, 2) == 0

    def test_weights_match_cfg_metric(self, cp_edg, fv_edg, fig3_cfg):
        table = WeightTable(fig3_cfg)
        for edge in cp_edg.edges:  # forward: from src stmt to dst stmt
            assert edge.weight == table.weight(edge.src.stmt, edge.dst.stmt)
        for edge in fv_edg.edges:  # backward: from dst stmt to src stmt
            assert edge.weight == table.weight(edge.dst.stmt, edge.src.stmt)

    def test_edge_weights_bounded_by_depth(self, cp_edg, fv_edg):
        assert all(e.weight <= 3 for e in cp_edg.edges)
        assert all(e.weight <= 3 for e in fv_edg.edges)

    def test_edges_view_is_sorted_adjacency(self, cp_edg, fv_edg):
        # The integer EDG is written in (statement, entity) order, so its
        # derived edges come out sorted, one per adjacency entry.
        def key(edge):
            return (edge.src.stmt, str(edge.src.var), edge.dst.stmt, str(edge.dst.var))

        for edg in (cp_edg, fv_edg):
            assert edg.edges == tuple(sorted(edg.edges, key=key))
            index = {label: i for i, label in enumerate(edg.labels)}
            assert [(index[e.src], index[e.dst], e.weight) for e in edg.edges] == [
                (u, v, w) for u, out in enumerate(edg.adj) for v, w in out]

    def test_missing_cfg_path_is_an_error(self, fig3, fig3_cfg):
        class NoPaths(WeightTable):
            def weight(self, frm, to):
                return None

        pipeline = ProgramPipeline(fig3)
        pipeline.weights = NoPaths(fig3_cfg)
        with pytest.raises(RuntimeError, match="without a CFG path from 6 to 5"):
            pipeline.edg("cp")

    @pytest.mark.parametrize("seed", range(6))
    def test_weights_match_cfg_metric_on_generated(self, seed):
        program = generate_program(GeneratorConfig(seed=seed, node_budget=30), seed)
        pipeline = ProgramPipeline(program)
        cfg, table = pipeline.cfg, pipeline.weights
        reference = WeightTable(cfg)
        for kind, forward in (("cp", True), ("faint", False)):
            edg = pipeline.edg(kind)
            for edge in edg.edges:
                pair = ((edge.src.stmt, edge.dst.stmt) if forward
                        else (edge.dst.stmt, edge.src.stmt))
                if pair[0] == pair[1]:
                    # Carried around a loop: the best simple cycle.
                    want = enumerate_pair_weight(cfg, cfg.back_edges, *pair)
                else:
                    want = reference.weight(*pair)
                assert edge.weight == want
                assert edge.weight <= table.depth


class TestNodesAreRenamedInstances:
    """The instances at statement j are the entities j's flow function
    computes, which lets EDG node i be renamed instance i."""

    @pytest.fixture(scope="class")
    def programs(self, fig3, fig3_swap):
        reducible = GeneratorConfig(seed=23, node_budget=30)
        irreducible = GeneratorConfig(seed=31, node_budget=30,
                                      irreducible_edge_probability=0.3)
        return ([fig3, fig3_swap]
                + [generate_program(reducible, i) for i in range(4)]
                + [generate_program(irreducible, i) for i in range(4)])

    @pytest.mark.parametrize("kind", ["cp", "faint"])
    def test_labels_are_the_renamed_space(self, programs, kind):
        for program in programs:
            pipeline = ProgramPipeline(program)
            instances = pipeline.framework({"cp": "reach", "faint": "live"}[kind]).space.entities
            for j, stmt in program.nodes.items():
                # cp computes the statement's target, faint its operands.
                computed = ({stmt_target(stmt)} - {None} if kind == "cp"
                            else stmt_uses(stmt))
                assert computed == {i.var for i in instances if i.stmt == j}, (program.name, j)
            assert pipeline.edg(kind).labels == list(instances), program.name


class TestKindNamesAreNotRead:
    """The EDG rule reads a framework's direction and dfpuse, not its kind."""

    @pytest.fixture(scope="class")
    def programs(self, fig3):
        return [fig3] + [generate_program(GeneratorConfig(seed=42), i) for i in range(20)]

    @pytest.mark.parametrize("kind,renamed", [("cp", "reach"), ("faint", "live")])
    def test_a_renamed_kind_builds_the_same_edg(self, programs, kind, renamed):
        for program in programs:
            pipeline = ProgramPipeline(program)
            fw = pipeline.framework(kind)
            clone = bounds.build_edg(pipeline.cfg, dataclasses.replace(fw, kind=f"{kind}-clone"),
                                     weights=pipeline.weights,
                                     renamed=pipeline.solution(renamed))
            edg = pipeline.edg(kind)
            assert (clone.labels, clone.adj, clone.entries) == (
                edg.labels, edg.adj, edg.entries), program.name
            assert edg.entries == entry_nodes(edg, fw), program.name


class TestDegreeOfDependence:
    def test_fig3_cp(self, cp_edg):
        assert degree_of_dependence(cp_edg, 2) == 6

    def test_fig3_fv(self, fv_edg):
        assert degree_of_dependence(fv_edg, 1) == 6

    def test_fig3_avail(self, fig3):
        assert ProgramPipeline(fig3).delta("avail") == 0

    def test_fig3_delta_vectors(self, cp_edg, fv_edg):
        cp_vec = delta_vector(cp_edg, [cp_edg.labels.index(N("w", 1))], 2)
        assert labelled(cp_edg, cp_vec) == {N("w", 1): 0, N("z", 7): 6, N("y", 6): 6,
                                            N("x", 5): 6, N("w", 8): 6}
        fv_vec = delta_vector(fv_edg, [fv_edg.labels.index(N("x", 2))], 1)
        assert labelled(fv_edg, fv_vec) == {N("x", 2): 0, N("y", 5): 6, N("z", 6): 6,
                                            N("w", 7): 6, N("x", 8): 6}

    def test_unknown_origin(self, cp_edg):
        for start in (len(cp_edg.labels), -1):
            with pytest.raises(IndexError):
                delta_vector(cp_edg, [start], 2)

    def test_budget_guard(self, monkeypatch):
        # Dense strongly connected core 1..8 fed by the single entry node 0.
        core = range(1, 9)
        edges = [(0, 1, 1)] + [(a, b, 1) for a in core for b in core if a != b]
        edg = synthetic_edg(9, edges, [0])
        monkeypatch.setattr(edg_module, "DEFAULT_DELTA_STEP_CAP", 50)
        with pytest.raises(SearchBudgetExceeded):
            degree_of_dependence(edg, 2)

    def test_budget_is_pooled_over_entry_nodes(self, monkeypatch):
        # Two entry nodes, each feeding its own dense core, so the sweep
        # needs about the steps of both single-origin sweeps together.
        entries, edges = [], []
        for entry in (0, 5):
            core = range(entry + 1, entry + 5)
            entries.append(entry)
            edges += [(entry, entry + 1, 1)]
            edges += [(x, y, 1) for x in core for y in core if x != y]
        edg = synthetic_edg(10, edges, entries)

        alone = max(_steps_needed(edg, [origin], 2) for origin in entries)
        assert (alone, _steps_needed(edg, entries, 2)) == (122, 244)
        monkeypatch.setattr(edg_module, "DEFAULT_DELTA_STEP_CAP", alone)
        assert degree_of_dependence(edg, 2) == enumerate_degree(edg, 2)

    def test_fig3_step_counts(self, cp_edg, fv_edg):
        # Pinned, so that a step budget keeps meaning the same work.
        assert _steps_needed(cp_edg, cp_edg.entries, 2) == 15
        assert _steps_needed(fv_edg, fv_edg.entries, 1) == 15

    def test_generated_step_counts(self):
        # Pinned on the cp/faint EDGs that the first 40 seed-42 programs
        # sweep, so that a budget keeps meaning the same work on built
        # graphs too.
        total = 0
        for index in range(40):
            pipeline = ProgramPipeline(generate_program(GeneratorConfig(seed=42), index))
            for kind in ("cp", "faint"):
                edg = pipeline.edg(kind)
                if any(edg.adj) and edg.entries:
                    total += _steps_needed(edg, edg.entries,
                                           pipeline.framework(kind).lattice.height)
        assert total == 10647

    def test_one_sweep_for_all_entry_nodes(self, monkeypatch):
        a, b, c, d, e = range(5)
        edg = synthetic_edg(5, [(a, c, 1), (b, c, 2), (c, d, 1), (d, c, 1), (b, e, 0)],
                            [a, b])
        calls = []
        original = edg_module.delta_vector

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(edg_module, "delta_vector", counting)
        assert degree_of_dependence(edg, 2) == enumerate_degree(edg, 2) == 6
        assert len(calls) == 1


def _steps_needed(edg, origins, h_hat):
    """Smallest pooled budget (the per-origin cap times origins) that fits."""
    lo, hi = 1, 1 << 20
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(edg_module, "DEFAULT_DELTA_STEP_CAP", mid)
                delta_vector(edg, origins, h_hat)
            hi = mid
        except SearchBudgetExceeded:
            lo = mid + 1
    return lo * len(origins)


def _random_edg(rng, nodes=6, density=0.35, max_weight=3):
    edges = []
    for src in range(nodes):
        for dst in range(nodes):
            if src != dst and rng.random() < density:
                edges.append((src, dst, rng.randint(0, max_weight)))
    # Self-dependences show up in real EDGs too.
    for src in range(nodes):
        if rng.random() < 0.1:
            edges.append((src, src, rng.randint(0, max_weight)))
    targets = {dst for _, dst, _ in edges}
    return synthetic_edg(nodes, edges, [n for n in range(nodes) if n not in targets])


class TestAgainstEnumeration:
    """SCC-based search must agree with brute-force structure enumeration."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("single", [True, False])
    def test_synthetic_graphs(self, seed, single):
        """Each node alone as origin, or (single=False) random origin sets.

        A sweep from several origins must give the pointwise maximum of
        their single-origin vectors.
        """
        rng = random.Random(seed)
        edg = _random_edg(rng, nodes=rng.randint(2, 7), density=rng.uniform(0.15, 0.5))
        h_hat = rng.randint(1, 3)
        nodes = list(range(len(edg.labels)))
        if single:
            origin_sets = [[n] for n in nodes]
        else:
            origin_sets = [rng.sample(nodes, rng.randint(2, len(nodes)))
                           for _ in range(6)]
        for origins in origin_sets:
            expected: dict = {}
            for origin in origins:
                for node, value in enumerate_delta_vector(edg, origin, h_hat).items():
                    expected[node] = max(value, expected.get(node, value))
            assert delta_vector(edg, origins, h_hat) == expected, (seed, origins)
        assert degree_of_dependence(edg, h_hat) == enumerate_degree(edg, h_hat)

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_program_edgs(self, seed):
        program = generate_program(GeneratorConfig(seed=seed, node_budget=12,
                                                   variable_count=3), seed)
        pipeline = ProgramPipeline(program)
        for kind, h_hat in (("cp", 2), ("faint", 1)):
            edg = pipeline.edg(kind)
            if len(edg.labels) > 10:
                continue
            assert degree_of_dependence(edg, h_hat) == enumerate_degree(edg, h_hat)

    def test_fig3(self, cp_edg, fv_edg):
        assert enumerate_degree(cp_edg, 2) == 6
        assert enumerate_degree(fv_edg, 1) == 6


class TestConditionTen:
    def test_fig3_traces_are_monotonic(self, fig3, fig3_cfg, cp_edg, fv_edg):
        for make, edg in ((make_constant_propagation, cp_edg),
                          (make_faint_variables, fv_edg)):
            fw = make(fig3)
            trace = plain_round_robin(fw, fig3_cfg)[4]
            assert check_monotonic_entity_dependence(edg, trace, fw.lattice)

    def test_synthetic_violation_detected(self, cp_edg):
        # A nonconst operand producing a constant drops in height.
        record = TraceRecord(pass_no=1, node=7, entity="z", old=UNDEF, new=3,
                             operands=(("w", NONCONST),))
        assert not check_monotonic_entity_dependence(cp_edg, [record], CP_LATTICE)

    def test_unrelated_operands_ignored(self, cp_edg):
        record = TraceRecord(pass_no=1, node=2, entity="x", old=UNDEF, new=3,
                             operands=(("w", NONCONST),))
        assert check_monotonic_entity_dependence(cp_edg, [record], CP_LATTICE)


class TestExport:
    def test_fig3_cp_golden(self, cp_edg):
        # Edges come sorted by source statement, then target statement.
        assert [(repr(e.src), repr(e.dst), e.weight) for e in cp_edg.edges] == [
            ("w_1", "z_7", 0),
            ("x_5", "w_8", 0),
            ("y_6", "x_5", 1),
            ("z_7", "y_6", 1),
            ("w_8", "z_7", 1),
        ]
