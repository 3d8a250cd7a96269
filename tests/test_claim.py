"""The pass-bound claim where it can fail.

A dependence that a statement carries around a loop, a self-loop, a
family on which ``B2`` is tight up to a constant while delta grows, a
property search over small generated programs, and a sweep over every
program of three nodes and one variable.
"""

import itertools
import re

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from dfalab import ANALYSIS_KINDS, ProgramPipeline, fixtures, parse_program, serialize_program
from dfalab.analyses import BITVECTOR_KINDS
from dfalab.edg import degree_of_dependence
from dfalab.engine import worklist_solve
from dfalab.ir import (
    BINARY_OPS,
    BinAssign,
    ConstAssign,
    CopyAssign,
    Print,
    Program,
    ReadAssign,
    Skip,
)

from _oracles import entry_nodes, enumerate_degree, enumerate_depth

# Node 3 reads the b it defined on the previous trip round 3 -> 1 -> 3.
SELFDEP = """program selfdep
vars b
node 1  skip
node 2  b = 2
node 3  b = b + 1
edge 1 -> 2
edge 2 -> 3
edge 3 -> 1
edge 1 -> 3
"""
# A property search over programs like those below shrank to this
# one: c_3 reads itself round 3 -> 2 -> 3.
SHRUNK = """program shrunk
vars a, c
node 1  c = 0
node 2  a = 1
node 3  c = a + c
edge 1 -> 2
edge 2 -> 3
edge 3 -> 1
edge 3 -> 2
"""


@pytest.mark.parametrize("text,self_edge,d,delta,b2,iterations", [
    (SELFDEP, "b_3", 1, 2, 4, 3),
    (SHRUNK, "c_3", 1, 2, 4, 3),
], ids=["selfdep", "shrunk"])
def test_a_self_dependence_weighs_its_best_loop(text, self_edge, d, delta, b2, iterations):
    # Weighed as the empty path, the self edge cost 0 and B2 read 2 < I.
    pipeline = ProgramPipeline(parse_program(text))
    record = pipeline.record("cp")
    assert (record.d, record.delta, record.b2, record.iterations) == (d, delta, b2, iterations)
    assert not record.bound_violated
    weights = {(str(e.src), str(e.dst)): e.weight for e in pipeline.edg("cp").edges}
    assert weights[self_edge, self_edge] == 1
    # The path meaning of a pair is unchanged: j to itself is empty.
    assert pipeline.weights.weight(3, 3) == 0


@pytest.mark.parametrize("kind", ["cp", "reach"])
def test_a_self_loop_counts_toward_d(kind):
    # Round robin reads the loop's OUT(1) into IN(1) only on pass 2.
    # Over node-simple paths alone, d would read 0 and B2 1 < I.
    program = Program(name="loop1", variables=("a",), nodes={1: ConstAssign("a", 0)},
                      edges=((1, 1),), entry=1)
    record = ProgramPipeline(program).record(kind)
    assert (record.d, record.b2, record.iterations) == (1, 2, 2)
    assert not record.bound_violated


def fig3_k(k: int) -> Program:
    """fig3 with its copy chain stretched to k variables v0..v(k-1).

    Nodes 5..k+4 copy against the flow, inside fig3's three back edges
    8 -> 4, 4 -> 3 and 3 -> 2 (with 8 now k+4).
    """
    v = [f"v{i}" for i in range(k)]
    statements = [ConstAssign(v[0], 2), Print(v[1]), Skip(), Skip()]
    statements += [BinAssign(v[i], v[i + 1], "+", 2 if i == 1 else 3) for i in range(1, k - 1)]
    statements += [BinAssign(v[k - 1], v[0], "-", 1), BinAssign(v[0], v[1], "+", 1)]
    n = len(statements)
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 4), (4, 3), (3, 2)]
    return Program(name=f"fig3_{k}", variables=tuple(v),
                   nodes={i + 1: stmt for i, stmt in enumerate(statements)},
                   edges=tuple(edges), entry=1)


def test_fig3_k_at_4_is_fig3_renamed():
    text = serialize_program(fixtures.fig3()).replace("program fig3", "program fig3_4")
    renamed = re.sub(r"\b[wxyz]\b", lambda m: f"v{'wxyz'.index(m[0])}", text)
    assert serialize_program(fig3_k(4)) == renamed


@pytest.mark.parametrize("k", range(3, 10))
def test_fig3_k_is_tight(k):
    """cp: delta = 2(k-1), I = 2k+1; faint: delta = k+2, I = k+3; d = 3."""
    pipeline = ProgramPipeline(fig3_k(k))
    cp, faint = pipeline.record("cp"), pipeline.record("faint")
    assert (cp.d, cp.delta, cp.iterations, cp.dev2) == (3, 2 * (k - 1), 2 * k + 1, 1)
    assert (faint.d, faint.delta, faint.iterations, faint.dev2) == (3, k + 2, k + 3, 3)


VARIABLES = ("a", "b", "c", "d")
LITERALS = st.integers(-3, 3)


@st.composite
def programs(draw) -> Program:
    """2-8 nodes on the chain 1 -> ... -> n, plus up to 2n more edges.

    Every node is reachable, loops nest freely, the CFG may be
    irreducible, and a node may have a self-loop.
    """
    n = draw(st.integers(2, 8))
    variables = VARIABLES[:draw(st.integers(1, 4))]
    var = st.sampled_from(variables)
    operand = st.one_of(var, LITERALS)
    statement = st.one_of(
        st.builds(ConstAssign, var, LITERALS),
        st.builds(CopyAssign, var, var),
        st.builds(BinAssign, var, operand, st.sampled_from(BINARY_OPS), operand),
        st.builds(ReadAssign, var),
        st.builds(Print, var),
        st.just(Skip()),
    )
    statements = draw(st.lists(statement, min_size=n, max_size=n))
    chain = [(i, i + 1) for i in range(1, n)]
    node = st.integers(1, n)
    extra = draw(st.lists(st.tuples(node, node), max_size=2 * n, unique=True))
    edges = chain + [e for e in extra if e not in chain]
    return Program(name="gen", variables=variables,
                   nodes={i + 1: stmt for i, stmt in enumerate(statements)},
                   edges=tuple(edges), entry=1)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(programs())
def test_bounds_hold_on_generated_programs(program):
    # The search is steered towards records close to B2, and towards
    # cp/faint records whose passes need more than delta1, delta with
    # each cycle charged once instead of h_hat times.
    pipeline = ProgramPipeline(program)
    assert pipeline.depth == enumerate_depth(pipeline.cfg, pipeline.cfg.back_edges)
    for kind in ANALYSIS_KINDS:
        record = pipeline.record(kind)
        target(record.iterations - record.b2, label=f"I - B2, {kind}")
        assert record.iterations <= record.b1 and record.iterations <= record.b2, record
        if kind in BITVECTOR_KINDS:
            assert record.delta == 0 and record.iterations <= 1 + record.d, record
        else:
            edg = pipeline.edg(kind)
            assert edg.entries == entry_nodes(edg, pipeline.framework(kind)), kind
            delta1 = degree_of_dependence(edg, 1)
            target(record.iterations - 1 - record.d - delta1, label=f"I - 1 - d - delta1, {kind}")
            if len(edg.labels) <= 10:
                assert record.delta == enumerate_degree(edg, record.h_hat), kind
        rr = pipeline.solution(kind)
        wl = worklist_solve(pipeline.framework(kind), pipeline.cfg)
        assert (rr.in_values, rr.out_values) == (wl.in_values, wl.out_values), kind


# Every statement over one variable v and the literal 1.
VOCABULARY = (
    ConstAssign("v", 1), CopyAssign("v", "v"), BinAssign("v", "v", "+", "v"),
    BinAssign("v", "v", "+", 1), BinAssign("v", 1, "+", "v"), ReadAssign("v"),
    Print("v"), Skip(),
)
# The edges off the chain 1 -> 2 -> 3, self-loops included.
OFF_CHAIN = ((1, 1), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))


def test_bounds_hold_on_every_three_node_program():
    """The chain 1 -> 2 -> 3 plus each subset of OFF_CHAIN, with every
    VOCABULARY statement at every node: 128 CFGs, 65,536 programs.
    """
    checked = 0
    violations = []
    for subset in range(1 << len(OFF_CHAIN)):
        edges = ((1, 2), (2, 3)) + tuple(
            edge for i, edge in enumerate(OFF_CHAIN) if subset >> i & 1)
        for statements in itertools.product(VOCABULARY, repeat=3):
            program = Program(name=f"sweep{checked}", variables=("v",),
                              nodes=dict(zip((1, 2, 3), statements)),
                              edges=edges, entry=1)
            pipeline = ProgramPipeline(program)
            for kind in ANALYSIS_KINDS:
                record = pipeline.record(kind)
                holds = record.iterations <= min(record.b1, record.b2)
                if kind in BITVECTOR_KINDS:
                    holds = holds and record.delta == 0 and record.iterations <= 1 + record.d
                else:
                    edg = pipeline.edg(kind)
                    holds = holds and edg.entries == entry_nodes(edg, pipeline.framework(kind))
                if not holds:
                    violations.append((edges, statements, record))
            checked += 1
    assert checked == 65536
    assert not violations, f"{len(violations)} violations, first {violations[0]}"
