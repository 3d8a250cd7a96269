import dataclasses
import hashlib
import random

import pytest

from dfalab import build_cfg, serialize_program
from dfalab.cfg_metrics import classify_back_edges
from dfalab.generator import (
    _CUM_WEIGHTS,
    _KINDS,
    GeneratorConfig,
    _Builder,
    generate_corpus,
    generate_program,
)
from dfalab.ir import BinAssign, ConstAssign, CopyAssign, Print, ReadAssign, Skip

from _oracles import dominators, is_reducible
from conftest import diagnostics


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
        assert diagnostics(program) == []


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
        assert diagnostics(program) == []


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
     "417201f903404a166df7663b508763ffee174bb5da06639fbc1858abb64c5f79"),
    # the benchmark's irreducible corpus
    (GeneratorConfig(seed=7, node_budget=40, irreducible_edge_probability=0.05), 300,
     "612e68467db41235b7512880b9253d57ce7762c52e10e0597e2ae2f0da69384b"),
    (GeneratorConfig(seed=3, node_budget=250, variable_count=(20, 30), loop_depth=3,
                     irreducible_edge_probability=0.05), 50,
     "94c1d56a6489a96ccd0517cda9230959e055d7c5c9a3f1cd675ee3a9bf3eab34"),
    # no variable-count draw
    (GeneratorConfig(seed=11, variable_count=5), 200,
     "30264be39a4c9ab95496883075843e99ae599b47854b2142c523d0a65ad990f8"),
    (GeneratorConfig(seed=12, variable_count=(1, 30)), 200,
     "74b4e3e77af0593bcaa97d642dd3dccf0c2736c2902fff0c7ccabf8112ff155c"),
    (GeneratorConfig(seed=13, loop_depth=0), 200,
     "26876523dda81995fea2358a5b558afd4ce2fc6c67cea92ce791f57591d5d6fc"),
    # only the first statement's draws
    (GeneratorConfig(seed=14, node_budget=1), 200,
     "933ae47be1f5c9e538789c327a47802ce6a16a7d0c086ce812ecb74316da5d36"),
    # straight-line only: too small for a diamond or a loop
    (GeneratorConfig(seed=15, node_budget=3), 200,
     "3742d24655c82a57c62858c9e4504d52e0b834ce423e1cf0104358cd61efd151"),
    # an extra-edge draw at every node but the last tail
    (GeneratorConfig(seed=16, irreducible_edge_probability=1.0), 100,
     "4bb3f8331895ce9cd11971b9efbfbf733297592d461d628edacfc777aefd2689"),
], ids=["seed42", "seed7-irreducible", "seed3-large", "fixed-vars", "vars-1-30",
        "no-loops", "budget-1", "budget-3", "irreducible-1.0"])
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


def _builder(seed: int) -> _Builder:
    # A fixed variable count, so that building the builder draws nothing.
    return _Builder(random.Random(seed), GeneratorConfig(variable_count=5), "p")


@pytest.mark.parametrize("seed", [0, 1, 42, "42/0"])
def test_below_is_randrange(seed):
    builder, twin = _builder(seed), random.Random(seed)
    for n in range(1, 301):
        assert builder._below(n) == twin.randrange(n), n


@pytest.mark.parametrize("n", [0, -1])
def test_below_rejects_an_empty_range(n):
    with pytest.raises(ValueError):
        _builder(0)._below(n)


def test_statement_kind_is_the_choices_draw():
    kind_of = {ConstAssign: "const", CopyAssign: "copy", BinAssign: "binop",
               ReadAssign: "read", Print: "print", Skip: "skip"}
    seen = set()
    for seed in range(600):
        kind = kind_of[type(_builder(seed).random_stmt())]
        assert kind == random.Random(seed).choices(_KINDS, cum_weights=_CUM_WEIGHTS)[0]
        seen.add(kind)
    assert seen == set(_KINDS)


def test_generation_calls_no_random_wrapper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a random.Random wrapper was called")

    for name in ("choices", "choice", "randint", "randrange"):
        monkeypatch.setattr(random.Random, name, refuse)
    for config in (GeneratorConfig(seed=1, node_budget=120, loop_depth=3),
                   GeneratorConfig(seed=2, variable_count=(1, 30),
                                   irreducible_edge_probability=1.0)):
        assert len(generate_corpus(config, 20)) == 20
