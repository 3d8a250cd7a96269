import dataclasses
import hashlib

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


@pytest.mark.parametrize("config,count,digest", [
    # the benchmark's nonsep/bitvec corpus
    (GeneratorConfig(seed=42), 1050,
     "a6ea4ac4057ff19e2bf5e2a9b76d5e0b7e4efe9a54c68a42080a16f89933db89"),
    # the benchmark's irreducible corpus
    (GeneratorConfig(seed=7, node_budget=40, irreducible_edge_probability=0.05), 300,
     "9c40fd24864fbfa8474fe39f40c4c690f57e7501eba9a594f06577130a443703"),
    (GeneratorConfig(seed=3, node_budget=250, variable_count=(20, 30), loop_depth=3,
                     irreducible_edge_probability=0.05), 50,
     "e2d4a7e2ceb63afd959ae1ec868510399eb4e138055865eaec8cda7c750420dc"),
], ids=["seed42", "seed7-irreducible", "seed3-large"])
def test_corpus_bytes_are_pinned(config, count, digest):
    text = "".join(serialize_program(p) for p in generate_corpus(config, count))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("config", [
    GeneratorConfig(seed=8),
    GeneratorConfig(seed=8, node_budget=250, loop_depth=3),
    GeneratorConfig(seed=8, irreducible_edge_probability=0.05),
    GeneratorConfig(seed=8, irreducible_edge_probability=0.4),
    GeneratorConfig(seed=8, node_budget=250, irreducible_edge_probability=0.4),
], ids=["reducible", "reducible-250", "irreducible-0.05", "irreducible-0.4",
        "irreducible-0.4-250"])
def test_edges_are_distinct_and_exits_are_the_sinks(config):
    for program in generate_corpus(config, 30):
        assert len(set(program.edges)) == len(program.edges), program.name
        sources = {src for src, _ in program.edges}
        assert program.exits == set(program.nodes) - sources, program.name


@pytest.mark.parametrize("kwargs,message", [
    ({"variable_count": 0}, "variable count must be at least 1, got 0"),
    ({"variable_count": (0, 3)}, "variable count must be at least 1, got (0, 3)"),
    ({"variable_count": (8, 4)}, "variable count range (8, 4) is empty"),
], ids=["no-variables", "range-from-zero", "empty-range"])
def test_bad_config_is_rejected_when_built(kwargs, message):
    with pytest.raises(ValueError) as caught:
        GeneratorConfig(**kwargs)
    assert message in str(caught.value)


def test_config_is_frozen_and_hashable():
    config = GeneratorConfig(seed=1, node_budget=20)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = 2
    same = GeneratorConfig(seed=1, node_budget=20)
    assert hash(config) == hash(same) and config == same
    assert len({GeneratorConfig(), GeneratorConfig(), config}) == 2
