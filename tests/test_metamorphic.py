"""The same program under other names.

dfalab numbers a CFG's depth-first search by ascending node id, so
relabelling the nodes picks another DFS, and with it another visit
order.  On a reducible CFG every DFS finds the same back edges (Hecht
& Ullman 1974), so a relabelling must leave d, delta and the pass
count I of every kind as they are.  Renaming the variables reorders
the entities and the EDG nodes, and must not move them either.  On an
irreducible CFG another DFS may find other back edges and other
numbers, but every record must still hold both bounds.
"""

import dataclasses
import random

import pytest

from dfalab import ANALYSIS_KINDS, GeneratorConfig, ProgramPipeline, engine, generate_program
from dfalab.ir import Program

# 60 of the seed-42 corpus's 1,000 programs, each relabelled twice
# and renamed once: 180 variants, 900 records.
REDUCIBLE = GeneratorConfig(seed=42)
REDUCIBLE_SAMPLE = random.Random(4201).sample(range(1000), 60)
# 100 of the first 300 programs of the seed-7 irreducible corpus, each
# relabelled twice: 200 variants, 1,000 records.
IRREDUCIBLE = GeneratorConfig(seed=7, node_budget=40, irreducible_edge_probability=0.05)
IRREDUCIBLE_SAMPLE = random.Random(701).sample(range(300), 100)


def relabel(program: Program, rng: random.Random) -> Program:
    """The program with its nodes on distinct random positive ids, entry and edges mapped along."""
    ids = rng.sample(range(1, 4 * len(program.nodes) + 1), len(program.nodes))
    new = dict(zip(program.nodes, ids))
    return Program(name=program.name, variables=program.variables,
                   nodes={new[n]: program.nodes[n] for n in sorted(program.nodes, key=new.get)},
                   edges=tuple((new[a], new[b]) for a, b in program.edges),
                   entry=new[program.entry])


def rename(program: Program, rng: random.Random) -> Program:
    """The program with its variables renamed, statements rewritten and ``variables`` permuted."""
    fresh = [f"r{i}" for i in range(len(program.variables))]
    rng.shuffle(fresh)
    new = dict(zip(program.variables, fresh))

    def rewrite(stmt):
        return dataclasses.replace(stmt, **{
            field.name: new[value] for field in dataclasses.fields(stmt)
            if isinstance(value := getattr(stmt, field.name), str) and value in new})

    return Program(name=program.name, variables=tuple(rng.sample(fresh, len(fresh))),
                   nodes={n: rewrite(stmt) for n, stmt in program.nodes.items()},
                   edges=program.edges, entry=program.entry)


def _records(program: Program):
    pipeline = ProgramPipeline(program)
    return [pipeline.record(kind) for kind in ANALYSIS_KINDS]


def _numbers(program: Program) -> list[tuple[int, int, int]]:
    return [(r.d, r.delta, r.iterations) for r in _records(program)]


def _mismatches(indices: list[int]) -> tuple[int, list]:
    """Variants checked, and those whose (d, delta, I) differ from their original's."""
    rng = random.Random(4202)
    checked, mismatches = 0, []
    for i in indices:
        program = generate_program(REDUCIBLE, i)
        expected = _numbers(program)
        for variant in (relabel(program, rng), relabel(program, rng), rename(program, rng)):
            checked += 1
            if _numbers(variant) != expected:
                mismatches.append(variant)
    return checked, mismatches


def _violations(indices: list[int]) -> tuple[int, list]:
    """Records checked, and those of relabelled programs with I > B1 or I > B2."""
    rng = random.Random(702)
    checked, violations = 0, []
    for i in indices:
        program = generate_program(IRREDUCIBLE, i)
        for variant in (relabel(program, rng), relabel(program, rng)):
            for record in _records(variant):
                checked += 1
                if record.iterations > min(record.b1, record.b2):
                    violations.append(record)
    return checked, violations


def test_relabelled_and_renamed_programs_keep_their_numbers():
    checked, mismatches = _mismatches(REDUCIBLE_SAMPLE)
    assert checked == 180
    assert not mismatches, f"{len(mismatches)} variants moved, first {mismatches[0]}"


def test_relabelled_irreducible_programs_hold_their_bounds():
    checked, violations = _violations(IRREDUCIBLE_SAMPLE)
    assert checked == 1000
    assert not violations, f"{len(violations)} violations, first {violations[0]}"


def test_both_checks_catch_an_id_order_visit(monkeypatch):
    # Visiting nodes in ascending id order, whatever the DFS, is the
    # fault both checks are there to catch.
    monkeypatch.setattr(engine, "traversal_order", lambda cfg, direction: tuple(sorted(cfg.nodes)))
    assert _mismatches(REDUCIBLE_SAMPLE[:10])[1]
    assert _violations(IRREDUCIBLE_SAMPLE[:30])[1]
