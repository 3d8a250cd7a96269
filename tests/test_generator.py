import pytest

from dfalab import build_cfg, serialize_program, validate_program
from dfalab.cfg_metrics import classify_back_edges
from dfalab.generator import GeneratorConfig, generate_corpus, generate_program

from _oracles import dominators, is_reducible


def test_same_config_same_program():
    config = GeneratorConfig(seed=1, node_budget=30)
    assert generate_program(config, 3) == generate_program(config, 3)


def test_corpus_is_deterministic():
    config = GeneratorConfig(seed=1, node_budget=25)
    first = [serialize_program(p) for p in generate_corpus(config, 5)]
    second = [serialize_program(p) for p in generate_corpus(config, 5)]
    assert first == second


def test_different_indices_differ():
    config = GeneratorConfig(seed=1)
    assert generate_program(config, 0) != generate_program(config, 1)


def test_node_budget_respected():
    config = GeneratorConfig(seed=7, node_budget=60)
    for i, program in enumerate(generate_corpus(config, 40)):
        assert len(program.nodes) <= 60, i


def test_generated_programs_validate():
    config = GeneratorConfig(seed=3, node_budget=45)
    for program in generate_corpus(config, 60):
        assert validate_program(program) == []


def test_variable_count_range():
    config = GeneratorConfig(seed=9, variable_count=(4, 8))
    counts = {len(p.variables) for p in generate_corpus(config, 40)}
    assert counts <= set(range(4, 9))
    assert len(counts) > 1


def test_fixed_variable_count():
    config = GeneratorConfig(seed=9, variable_count=5)
    assert all(len(p.variables) == 5 for p in generate_corpus(config, 10))


def test_entry_is_first_node():
    for i, program in enumerate(generate_corpus(GeneratorConfig(seed=2), 10)):
        assert program.entry == 1


def test_reducible_by_default():
    # With no extra edges, every retreating edge targets a dominating
    # loop header and removing back edges leaves a DAG.
    config = GeneratorConfig(seed=4, node_budget=40)
    for program in generate_corpus(config, 50):
        cfg = build_cfg(program)
        assert is_reducible(cfg), program.name
        dom = dominators(cfg)
        for src, dst in classify_back_edges(cfg):
            assert dst in dom[src], (program.name, src, dst)


def test_irreducible_probability_adds_edges():
    base = GeneratorConfig(seed=5, node_budget=30)
    spiked = GeneratorConfig(seed=5, node_budget=30,
                             irreducible_edge_probability=0.4)
    base_edges = sum(len(p.edges) for p in generate_corpus(base, 10))
    spiked_edges = sum(len(p.edges) for p in generate_corpus(spiked, 10))
    assert spiked_edges > base_edges
    for program in generate_corpus(spiked, 10):
        assert validate_program(program) == []


def test_loop_depth_zero_is_acyclic():
    config = GeneratorConfig(seed=6, loop_depth=0, node_budget=30)
    for program in generate_corpus(config, 20):
        assert classify_back_edges(build_cfg(program)) == frozenset()


def test_count_must_be_positive():
    with pytest.raises(ValueError):
        generate_corpus(GeneratorConfig(), 0)
