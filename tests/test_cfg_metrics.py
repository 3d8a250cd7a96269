import pytest

from dfalab import SearchBudgetExceeded, build_cfg
from dfalab.cfg_metrics import (
    WeightTable,
    classify_back_edges,
    depth,
    max_backedge_acyclic_weight,
    traversal_order,
)
from dfalab.generator import GeneratorConfig, generate_program
from dfalab.ir import Skip

from _oracles import enumerate_depth, enumerate_pair_weight
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
    assert classify_back_edges(fig3_cfg) <= set(fig3_cfg.edges)


def test_fig3_depth(fig3_cfg):
    assert depth(fig3_cfg) == 3


def test_swap_depth(fig3_swap):
    assert depth(build_cfg(fig3_swap)) == 3


def test_acyclic_depth_zero():
    cfg = build_cfg(chain_program([Skip()] * 5))
    assert depth(cfg) == 0


def test_depth_bounded_by_back_edge_count(fig3_cfg):
    table = WeightTable(fig3_cfg)
    assert table.depth <= len(table.back_edges)


@pytest.mark.parametrize("frm,to,expected", [
    (5, 2, 3),   # around the loop through all three back arcs
    (5, 8, 0),   # straight chain, no back arc needed
    (1, 7, 0),   # only the forward chain exists
    (4, 4, 0),   # empty path
    (8, 7, 1),
])
def test_fig3_pair_weights(fig3_cfg, frm, to, expected):
    assert max_backedge_acyclic_weight(fig3_cfg, frm, to) == expected


def test_no_path_returns_none():
    p = make_program([Skip(), Skip(), Skip()], [(1, 2), (1, 3)])
    cfg = build_cfg(p)
    assert max_backedge_acyclic_weight(cfg, 2, 3) is None


def test_unknown_node_raises(fig3_cfg):
    with pytest.raises(KeyError):
        max_backedge_acyclic_weight(fig3_cfg, 1, 99)


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
    pairs = [max_backedge_acyclic_weight(fig3_cfg, a, b)
             for a in fig3_cfg.nodes for b in fig3_cfg.nodes]
    assert depth(fig3_cfg) == max(w for w in pairs if w is not None)


def test_node_cap_guards_large_graphs():
    with pytest.raises(SearchBudgetExceeded):
        depth(build_cfg(chain_program([Skip()] * 65)))
    assert depth(build_cfg(chain_program([Skip()] * 64))) == 0


class TestAgainstEnumeration:
    """Exhaustive path enumeration must agree on small programs."""

    @pytest.mark.parametrize("seed", range(25))
    def test_depth_and_weights(self, seed):
        program = generate_program(GeneratorConfig(seed=seed, node_budget=11,
                                                   variable_count=3), seed)
        cfg = build_cfg(program)
        assert len(cfg.nodes) <= 12
        back = classify_back_edges(cfg)
        assert depth(cfg) == enumerate_depth(cfg, back)
        for a in cfg.nodes:
            for b in cfg.nodes:
                got = max_backedge_acyclic_weight(cfg, a, b)
                want = 0 if a == b else enumerate_pair_weight(cfg, back, a, b)
                assert got == want, (program.name, a, b)

    def test_fig3(self, fig3_cfg):
        back = classify_back_edges(fig3_cfg)
        assert depth(fig3_cfg) == enumerate_depth(fig3_cfg, back) == 3
        for a in fig3_cfg.nodes:
            for b in fig3_cfg.nodes:
                if a != b:
                    assert (max_backedge_acyclic_weight(fig3_cfg, a, b)
                            == enumerate_pair_weight(fig3_cfg, back, a, b))
