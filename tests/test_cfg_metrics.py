from pathlib import Path

import pytest

from dfalab import (
    ProgramPipeline, SearchBudgetExceeded, bounds, build_cfg, cfg_metrics, cli, fixtures,
)
from dfalab.cfg_metrics import (
    WeightTable,
    classify_back_edges,
    traversal_order,
)
from dfalab.generator import GeneratorConfig, generate_program
from dfalab.ir import Skip

from _oracles import enumerate_depth, enumerate_pair_weight, is_reducible
from conftest import chain_program, make_program


def test_fig3_back_edges(fig3_cfg):
    assert classify_back_edges(fig3_cfg) == frozenset({(8, 4), (4, 3), (3, 2)})


def test_acyclic_chain_has_no_back_edges():
    cfg = build_cfg(chain_program([Skip(), Skip(), Skip()]))
    assert classify_back_edges(cfg) == frozenset()


def test_self_loop_is_back_edge():
    p = make_program([Skip(), Skip()], [(1, 2), (2, 2)])
    cfg = build_cfg(p)
    assert classify_back_edges(cfg) == frozenset({(2, 2)})


def test_back_edges_subset_of_edges(fig3_cfg):
    assert classify_back_edges(fig3_cfg) <= set(fig3_cfg.program.edges)


def test_fig3_depth(fig3_cfg):
    assert WeightTable(fig3_cfg).depth == 3


def test_swap_depth(fig3_swap):
    assert WeightTable(build_cfg(fig3_swap)).depth == 3


def test_acyclic_depth_zero():
    cfg = build_cfg(chain_program([Skip()] * 5))
    assert WeightTable(cfg).depth == 0


def test_depth_bounded_by_back_edge_count(fig3_cfg):
    assert WeightTable(fig3_cfg).depth <= len(classify_back_edges(fig3_cfg))


@pytest.mark.parametrize("frm,to,expected", [
    (5, 2, 3),   # around the loop through all three back arcs
    (5, 8, 0),   # straight chain, no back arc needed
    (1, 7, 0),   # only the forward chain exists
    (4, 4, 0),   # empty path
    (8, 7, 1),
])
def test_fig3_pair_weights(fig3_cfg, frm, to, expected):
    assert WeightTable(fig3_cfg).weight(frm, to) == expected


def test_no_path_returns_none():
    p = make_program([Skip(), Skip(), Skip()], [(1, 2), (1, 3)])
    cfg = build_cfg(p)
    assert WeightTable(cfg).weight(2, 3) is None


def test_unknown_node_raises(fig3_cfg):
    with pytest.raises(KeyError):
        WeightTable(fig3_cfg).weight(1, 99)


def test_traversal_orders(fig3_cfg):
    assert traversal_order(fig3_cfg, "forward") == (1, 2, 3, 4, 5, 6, 7, 8)
    assert traversal_order(fig3_cfg, "backward") == (8, 7, 6, 5, 4, 3, 2, 1)


def test_traversal_follows_reverse_postorder():
    # The DFS reaches 3 before 2, so id order would visit 2 first.
    cfg = build_cfg(make_program([Skip()] * 4, [(1, 3), (3, 2), (2, 4)]))
    assert traversal_order(cfg, "forward") == (1, 3, 2, 4)
    assert traversal_order(cfg, "backward") == (4, 2, 3, 1)


def test_traversal_single_node(single_skip):
    cfg = build_cfg(single_skip)
    assert traversal_order(cfg, "forward") == (1,)
    assert traversal_order(cfg, "backward") == (1,)


def test_depth_equals_max_pairwise_weight(fig3_cfg):
    table = WeightTable(fig3_cfg)
    pairs = [table.weight(a, b) for a in fig3_cfg.nodes for b in fig3_cfg.nodes]
    assert table.depth == max(w for w in pairs if w is not None)


def test_node_cap_guards_large_graphs():
    with pytest.raises(SearchBudgetExceeded):
        WeightTable(build_cfg(chain_program([Skip()] * 65))).depth
    assert WeightTable(build_cfg(chain_program([Skip()] * 64))).depth == 0


@pytest.mark.parametrize("edges,back_edges,expected", [
    ([(1, 2), (2, 3), (3, 2), (3, 4), (4, 2), (4, 5)], {(3, 2), (4, 2)}, 1),
    ([(1, 2), (2, 3), (2, 4), (3, 2), (4, 5), (5, 2), (4, 2), (5, 6)],
     {(3, 2), (4, 2), (5, 2)}, 1),
    ([(1, 2), (2, 3), (3, 2), (3, 4), (4, 5), (5, 2), (5, 6)], {(3, 2), (5, 2)}, 1),
    ([(1, 2), (2, 3), (3, 4), (4, 3), (4, 5), (5, 3), (5, 6), (6, 2), (6, 7)],
     {(4, 3), (5, 3), (6, 2)}, 1),
    ([(1, 2), (2, 3), (3, 4), (4, 3), (4, 5), (5, 3), (3, 6), (6, 2), (6, 7)],
     {(4, 3), (5, 3), (6, 2)}, 2),
], ids=["two-into-one-head", "three-into-one-head", "nested-sharing-a-head",
        "nested-sharing-the-inner-head", "two-into-the-inner-head-of-two"])
def test_depth_counts_each_head_once(edges, back_edges, expected):
    # A node-simple path enters a head once, so back edges sharing a
    # head add at most one to its weight.
    cfg = build_cfg(make_program([Skip()] * max(map(max, edges)), edges))
    assert classify_back_edges(cfg) == back_edges
    assert WeightTable(cfg).depth == enumerate_depth(cfg, back_edges) == expected


class TestAgainstEnumeration:
    """Exhaustive path enumeration must agree on small programs."""

    @staticmethod
    def check(config, seed):
        program = generate_program(config, seed)
        cfg = build_cfg(program)
        assert len(cfg.nodes) <= 12
        back = classify_back_edges(cfg)
        table = WeightTable(cfg)
        assert table.depth == enumerate_depth(cfg, back)
        for a in cfg.nodes:
            for b in cfg.nodes:
                got = table.weight(a, b)
                want = 0 if a == b else enumerate_pair_weight(cfg, back, a, b)
                assert got == want, (program.name, a, b)

    @pytest.mark.parametrize("seed", range(25))
    def test_depth_and_weights(self, seed):
        self.check(GeneratorConfig(seed=seed, node_budget=11, variable_count=3), seed)

    @pytest.mark.parametrize("seed", range(25))
    def test_depth_and_weights_irreducible(self, seed):
        # Irreducible edges let a pairwise search leave and re-enter
        # loops, where pruning to reach & co-reach matters most.
        self.check(GeneratorConfig(seed=seed, node_budget=11, variable_count=3,
                                   irreducible_edge_probability=0.3), seed)

    def test_irreducible_seeds_give_irreducible_graphs(self):
        graphs = [build_cfg(generate_program(GeneratorConfig(
            seed=seed, node_budget=11, variable_count=3,
            irreducible_edge_probability=0.3), seed)) for seed in range(25)]
        assert sum(not is_reducible(cfg) for cfg in graphs) == 9

    @staticmethod
    def check_per_source(cfg, monkeypatch):
        """Every source asks for all its targets at once: one search each."""
        back = classify_back_edges(cfg)
        table = WeightTable(cfg)
        searches = []
        original = cfg_metrics._longest_paths

        def counting(table, frm, *args):
            searches.append(frm)
            return original(table, frm, *args)

        monkeypatch.setattr(cfg_metrics, "_longest_paths", counting)
        for a in cfg.nodes:
            table.expect((a, b) for b in cfg.nodes)
            for b in cfg.nodes:
                want = 0 if a == b else enumerate_pair_weight(cfg, back, a, b)
                assert table.weight(a, b) == want, (a, b)
        assert len(searches) == len(set(searches))

    @pytest.mark.parametrize("irreducible", [0.0, 0.3])
    @pytest.mark.parametrize("seed", range(25))
    def test_per_source_weights(self, seed, irreducible, monkeypatch):
        self.check_per_source(build_cfg(generate_program(GeneratorConfig(
            seed=seed, node_budget=11, variable_count=3,
            irreducible_edge_probability=irreducible), seed)), monkeypatch)

    def test_per_source_weights_fig3(self, fig3_cfg, monkeypatch):
        self.check_per_source(fig3_cfg, monkeypatch)

    def test_fig3(self, fig3_cfg):
        back = classify_back_edges(fig3_cfg)
        table = WeightTable(fig3_cfg)
        assert table.depth == enumerate_depth(fig3_cfg, back) == 3
        for a in fig3_cfg.nodes:
            for b in fig3_cfg.nodes:
                if a != b:
                    assert table.weight(a, b) == enumerate_pair_weight(fig3_cfg, back, a, b)


def test_weights_do_not_need_the_depth(fig3, fig3_cfg, monkeypatch):
    # A target's bound is its usable back-edge count, so no weight
    # search, and no EDG build, computes d.
    def no_depth(table):
        raise AssertionError("depth computed")

    monkeypatch.setattr(cfg_metrics, "depth", no_depth)
    back = classify_back_edges(fig3_cfg)
    table = WeightTable(fig3_cfg)
    for a in fig3_cfg.nodes:
        for b in fig3_cfg.nodes:
            if a != b:
                assert table.weight(a, b) == enumerate_pair_weight(fig3_cfg, back, a, b)
    assert ProgramPipeline(fig3).edg("cp").edges


def test_targets_without_usable_back_edges_need_no_search(fig3_cfg, monkeypatch):
    # Node 1 lies outside every loop, so no path from it can take a
    # back edge: each target's bound is 0.
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(cfg_metrics, "_longest_paths", no_search)
    table = WeightTable(fig3_cfg)
    table.expect((1, b) for b in fig3_cfg.nodes)
    assert [table.weight(1, b) for b in fig3_cfg.nodes] == [0] * 8


def test_fig3_report_searches_each_source_once_per_edg(monkeypatch, capsys):
    # Each kind's EDG build announces its pairs first, so it searches a
    # source once.  faint then asks source 5 for a target cp did not
    # need, (5, 2); its other pairs are already cached.
    builds = []
    original_build, original_search = bounds.build_edg, cfg_metrics.max_backedge_acyclic_weight

    def build(program, fw, **kwargs):
        builds.append((fw.kind, []))
        return original_build(program, fw, **kwargs)

    def search(table, frm, targets):
        builds[-1][1].append(frm)
        return original_search(table, frm, targets)

    monkeypatch.setattr(bounds, "build_edg", build)
    monkeypatch.setattr(cfg_metrics, "max_backedge_acyclic_weight", search)
    fig3 = Path(fixtures.__file__).parent / "fig3.prog"
    assert cli.main(["report", str(fig3), "--analysis", "cp", "--analysis", "faint"]) == 0
    capsys.readouterr()
    assert [(kind, sorted(sources)) for kind, sources in builds] == [
        ("cp", [1, 5, 6, 7, 8]), ("faint", [5])]


def test_depth_budget_error_names_the_depth_search(fig3_cfg, monkeypatch):
    monkeypatch.setattr(cfg_metrics, "DEFAULT_STEP_CAP", 3)
    with pytest.raises(SearchBudgetExceeded, match="^depth search exceeded 3 steps$"):
        WeightTable(fig3_cfg).depth


def test_weight_budget_error_names_the_source(fig3_cfg, monkeypatch):
    table = WeightTable(fig3_cfg)
    assert table.depth == 3
    monkeypatch.setattr(cfg_metrics, "DEFAULT_STEP_CAP", 3)
    with pytest.raises(SearchBudgetExceeded,
                       match="^weight search from node 5 exceeded 3 steps$"):
        table.weight(5, 2)
