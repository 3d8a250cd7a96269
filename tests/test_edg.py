import random

import pytest

from dfalab import (
    SearchBudgetExceeded,
    build_cfg,
    build_edg,
    degree_of_dependence,
    delta_vector,
    make_constant_propagation,
    round_robin_solve,
)
from dfalab import edg as edg_module
from dfalab.analyses import (
    CP_LATTICE,
    NONCONST,
    UNDEF,
    make_bitvector_framework,
    make_faint_variables,
)
from dfalab.cfg_metrics import WeightTable, max_backedge_acyclic_weight
from dfalab.edg import (
    EdgEdge,
    EntityDependenceGraph,
    EntityNode,
    MalformedPathError,
    PathCycle,
    PathSegment,
    StructuredPath,
    path_delta,
)
from dfalab.engine import TraceRecord
from dfalab.generator import GeneratorConfig, generate_program
from dfalab.ir import CopyAssign

from _oracles import check_monotonic_entity_dependence, enumerate_degree, enumerate_delta_vector
from conftest import chain_program


def N(entity, stmt):
    return EntityNode(entity, stmt)


def edge_map(edg):
    return {(e.src, e.dst): e.weight for e in edg.edges}


@pytest.fixture(scope="module")
def cp_edg(fig3, fig3_cfg):
    return build_edg(fig3, make_constant_propagation(fig3, fig3_cfg), cfg=fig3_cfg)


@pytest.fixture(scope="module")
def fv_edg(fig3, fig3_cfg):
    return build_edg(fig3, make_faint_variables(fig3, fig3_cfg), cfg=fig3_cfg)


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

    def test_avail_edgeless(self, fig3, fig3_cfg):
        fw = make_bitvector_framework(fig3, "avail", fig3_cfg)
        edg = build_edg(fig3, fw, cfg=fig3_cfg)
        assert edg.nodes == {N("y+2", 6), N("z+3", 7), N("w-1", 1),
                             N("w-1", 8), N("x+1", 5)}
        assert edg.edges == ()

    def test_separable_kinds_never_have_edges(self, fig3, fig3_cfg):
        for kind in ("avail", "reach", "live"):
            fw = make_bitvector_framework(fig3, kind, fig3_cfg)
            assert build_edg(fig3, fw, cfg=fig3_cfg).edges == ()

    def test_entry_nodes(self, cp_edg, fv_edg):
        assert cp_edg.entry_nodes == {N("w", 1)}
        assert fv_edg.entry_nodes == {N("x", 2)}

    def test_entry_nodes_have_no_predecessors(self, cp_edg, fv_edg):
        for edg in (cp_edg, fv_edg):
            targets = {e.dst for e in edg.edges}
            assert not (edg.entry_nodes & targets)

    def test_copies_only_program_has_no_entries(self):
        program = chain_program([CopyAssign("a", "b"), CopyAssign("b", "a")],
                                variables=("a", "b"), name="copies")
        cfg = build_cfg(program)
        fw = make_constant_propagation(program, cfg)
        edg = build_edg(program, fw, cfg=cfg)
        assert edg.nodes
        assert edg.entry_nodes == frozenset()
        assert degree_of_dependence(edg, 2) == 0

    def test_weights_match_cfg_metric(self, cp_edg, fv_edg, fig3_cfg):
        for edge in cp_edg.edges:  # forward: from src stmt to dst stmt
            assert edge.weight == max_backedge_acyclic_weight(
                fig3_cfg, edge.src.stmt, edge.dst.stmt)
        for edge in fv_edg.edges:  # backward: from dst stmt to src stmt
            assert edge.weight == max_backedge_acyclic_weight(
                fig3_cfg, edge.dst.stmt, edge.src.stmt)

    def test_edge_weights_bounded_by_depth(self, cp_edg, fv_edg):
        assert all(e.weight <= 3 for e in cp_edg.edges)
        assert all(e.weight <= 3 for e in fv_edg.edges)

    @pytest.mark.parametrize("seed", range(6))
    def test_weights_match_cfg_metric_on_generated(self, seed):
        program = generate_program(GeneratorConfig(seed=seed, node_budget=30), seed)
        cfg = build_cfg(program)
        table = WeightTable(cfg)
        for make, forward in ((make_constant_propagation, True),
                              (make_faint_variables, False)):
            edg = build_edg(program, make(program, cfg), cfg=cfg, weights=table)
            for edge in edg.edges:
                pair = ((edge.src.stmt, edge.dst.stmt) if forward
                        else (edge.dst.stmt, edge.src.stmt))
                assert edge.weight == max_backedge_acyclic_weight(cfg, *pair)
                assert edge.weight <= table.depth


class TestPathDelta:
    def test_single_acyclic_edge(self, cp_edg):
        weights = edge_map(cp_edg)
        path = StructuredPath(
            origin=N("w", 1),
            elements=(PathSegment((EdgEdge(N("w", 1), N("z", 7), weights[(N("w", 1), N("z", 7))]),)),),
            target=N("z", 7))
        assert path_delta(cp_edg, path, 2) == 0

    def _cp_cycle(self, cp_edg):
        w = edge_map(cp_edg)
        return PathCycle((
            EdgEdge(N("z", 7), N("y", 6), w[(N("z", 7), N("y", 6))]),
            EdgEdge(N("y", 6), N("x", 5), w[(N("y", 6), N("x", 5))]),
            EdgEdge(N("x", 5), N("w", 8), w[(N("x", 5), N("w", 8))]),
            EdgEdge(N("w", 8), N("z", 7), w[(N("w", 8), N("z", 7))]),
        ))

    def test_pure_cycle_costs_height_times_weight(self, cp_edg):
        path = StructuredPath(origin=N("z", 7), elements=(self._cp_cycle(cp_edg),),
                              target=N("z", 7))
        assert path_delta(cp_edg, path, 2) == 6

    def test_fv_lead_in_plus_cycle_with_absorbed_target(self, fv_edg):
        w = edge_map(fv_edg)
        lead = PathSegment((EdgEdge(N("x", 2), N("y", 5), w[(N("x", 2), N("y", 5))]),))
        cycle = PathCycle((
            EdgEdge(N("y", 5), N("z", 6), w[(N("y", 5), N("z", 6))]),
            EdgEdge(N("z", 6), N("w", 7), w[(N("z", 6), N("w", 7))]),
            EdgEdge(N("w", 7), N("x", 8), w[(N("w", 7), N("x", 8))]),
            EdgEdge(N("x", 8), N("y", 5), w[(N("x", 8), N("y", 5))]),
        ))
        for target in (N("y", 5), N("z", 6), N("w", 7), N("x", 8)):
            path = StructuredPath(origin=N("x", 2), elements=(lead, cycle),
                                  target=target)
            assert path_delta(fv_edg, path, 1) == 6

    def test_unknown_edge_rejected(self, cp_edg):
        bogus = EdgEdge(N("w", 1), N("x", 5), 0)
        path = StructuredPath(origin=N("w", 1),
                              elements=(PathSegment((bogus,)),), target=N("x", 5))
        with pytest.raises(MalformedPathError):
            path_delta(cp_edg, path, 2)

    def test_overlapping_cycle_rejected(self, cp_edg):
        w = edge_map(cp_edg)
        lead = PathSegment((
            EdgEdge(N("w", 1), N("z", 7), w[(N("w", 1), N("z", 7))]),
            EdgEdge(N("z", 7), N("y", 6), w[(N("z", 7), N("y", 6))]),
        ))
        # Cycle anchored at y_6 passes through z_7, already on the path.
        cycle = PathCycle((
            EdgEdge(N("y", 6), N("x", 5), w[(N("y", 6), N("x", 5))]),
            EdgEdge(N("x", 5), N("w", 8), w[(N("x", 5), N("w", 8))]),
            EdgEdge(N("w", 8), N("z", 7), w[(N("w", 8), N("z", 7))]),
            EdgEdge(N("z", 7), N("y", 6), w[(N("z", 7), N("y", 6))]),
        ))
        path = StructuredPath(origin=N("w", 1), elements=(lead, cycle),
                              target=N("y", 6))
        with pytest.raises(MalformedPathError, match="overlapping"):
            path_delta(cp_edg, path, 2)

    def test_target_off_path_rejected(self, cp_edg):
        w = edge_map(cp_edg)
        path = StructuredPath(
            origin=N("w", 1),
            elements=(PathSegment((EdgEdge(N("w", 1), N("z", 7), w[(N("w", 1), N("z", 7))]),)),),
            target=N("x", 5))
        with pytest.raises(MalformedPathError):
            path_delta(cp_edg, path, 2)


class TestDegreeOfDependence:
    def test_fig3_cp(self, cp_edg):
        assert degree_of_dependence(cp_edg, 2) == 6

    def test_fig3_fv(self, fv_edg):
        assert degree_of_dependence(fv_edg, 1) == 6

    def test_fig3_avail(self, fig3, fig3_cfg):
        fw = make_bitvector_framework(fig3, "avail", fig3_cfg)
        edg = build_edg(fig3, fw, cfg=fig3_cfg)
        assert degree_of_dependence(edg, 1) == 0

    def test_fig3_delta_vectors(self, cp_edg, fv_edg):
        cp_vec = delta_vector(cp_edg, [N("w", 1)], 2)
        assert cp_vec == {N("w", 1): 0, N("z", 7): 6, N("y", 6): 6,
                          N("x", 5): 6, N("w", 8): 6}
        fv_vec = delta_vector(fv_edg, [N("x", 2)], 1)
        assert fv_vec == {N("x", 2): 0, N("y", 5): 6, N("z", 6): 6,
                          N("w", 7): 6, N("x", 8): 6}

    def test_unknown_origin(self, cp_edg):
        with pytest.raises(KeyError):
            delta_vector(cp_edg, [N("q", 99)], 2)

    def test_budget_guard(self):
        # Dense strongly connected core fed by a single entry node.
        core = [N(f"e{i}", i) for i in range(2, 10)]
        entry = N("e1", 1)
        edges = [EdgEdge(entry, core[0], 1)]
        edges += [EdgEdge(a, b, 1) for a in core for b in core if a != b]
        edg = EntityDependenceGraph(
            kind="synthetic", direction="forward",
            nodes=frozenset([entry] + core), edges=tuple(edges),
            entry_nodes=frozenset([entry]))
        with pytest.raises(SearchBudgetExceeded):
            degree_of_dependence(edg, 2, max_steps=50)

    def test_budget_is_pooled_over_entry_nodes(self):
        # Two entry nodes, each feeding its own dense core, so the sweep
        # needs about the steps of both single-origin sweeps together.
        entries, edges = [], []
        for tag, base in (("a", 10), ("b", 20)):
            core = [N(f"{tag}{i}", base + i) for i in range(1, 5)]
            entries.append(N(tag, base))
            edges += [EdgEdge(entries[-1], core[0], 1)]
            edges += [EdgEdge(x, y, 1) for x in core for y in core if x != y]
        edg = EntityDependenceGraph(
            kind="synthetic", direction="forward",
            nodes=frozenset(e for edge in edges for e in (edge.src, edge.dst)),
            edges=tuple(edges), entry_nodes=frozenset(entries))

        def steps_needed(origins):
            # Smallest pooled budget (max_steps times origins) that fits.
            lo, hi = 1, 1 << 20
            while lo < hi:
                mid = (lo + hi) // 2
                try:
                    delta_vector(edg, origins, 2, max_steps=mid)
                    hi = mid
                except SearchBudgetExceeded:
                    lo = mid + 1
            return lo * len(origins)

        alone = max(steps_needed([origin]) for origin in entries)
        assert steps_needed(entries) > alone
        assert (degree_of_dependence(edg, 2, max_steps=alone)
                == enumerate_degree(edg, 2))

    def test_one_sweep_for_all_entry_nodes(self, monkeypatch):
        a, b, c, d, e = (N(f"e{i}", i) for i in range(1, 6))
        edg = EntityDependenceGraph(
            kind="synthetic", direction="forward", nodes=frozenset((a, b, c, d, e)),
            edges=(EdgEdge(a, c, 1), EdgEdge(b, c, 2), EdgEdge(c, d, 1),
                   EdgEdge(d, c, 1), EdgEdge(b, e, 0)),
            entry_nodes=frozenset((a, b)))
        calls = []
        original = edg_module.delta_vector

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(edg_module, "delta_vector", counting)
        assert degree_of_dependence(edg, 2) == enumerate_degree(edg, 2) == 6
        assert len(calls) == 1


def _random_edg(rng, nodes=6, density=0.35, max_weight=3):
    node_list = [N(f"e{i}", i) for i in range(1, nodes + 1)]
    edges = []
    for src in node_list:
        for dst in node_list:
            if src != dst and rng.random() < density:
                edges.append(EdgEdge(src, dst, rng.randint(0, max_weight)))
    # Self-dependences show up in real EDGs too.
    for src in node_list:
        if rng.random() < 0.1:
            edges.append(EdgEdge(src, src, rng.randint(0, max_weight)))
    targets = {e.dst for e in edges}
    entries = frozenset(n for n in node_list if n not in targets)
    return EntityDependenceGraph(kind="synthetic", direction="forward",
                                 nodes=frozenset(node_list),
                                 edges=tuple(edges), entry_nodes=entries)


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
        nodes = sorted(edg.nodes, key=lambda n: n.stmt)
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
        cfg = build_cfg(program)
        for make, h_hat in ((make_constant_propagation, 2),
                            (make_faint_variables, 1)):
            fw = make(program, cfg)
            edg = build_edg(program, fw, cfg=cfg)
            if len(edg.nodes) > 10:
                continue
            assert degree_of_dependence(edg, h_hat) == enumerate_degree(edg, h_hat)

    def test_fig3(self, cp_edg, fv_edg):
        assert enumerate_degree(cp_edg, 2) == 6
        assert enumerate_degree(fv_edg, 1) == 6


class TestConditionTen:
    def test_fig3_traces_are_monotonic(self, fig3, fig3_cfg, cp_edg, fv_edg):
        for make, edg in ((make_constant_propagation, cp_edg),
                          (make_faint_variables, fv_edg)):
            fw = make(fig3, fig3_cfg)
            result = round_robin_solve(fw, fig3_cfg)
            assert check_monotonic_entity_dependence(edg, result.trace, fw.lattice)

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
        assert [(e.src.label(), e.dst.label(), e.weight) for e in cp_edg.edges] == [
            ("w_1", "z_7", 0),
            ("x_5", "w_8", 0),
            ("y_6", "x_5", 1),
            ("z_7", "y_6", 1),
            ("w_8", "z_7", 1),
        ]
