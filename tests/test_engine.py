import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfalab import (
    ANALYSIS_KINDS,
    DivergenceError,
    build_cfg,
    engine,
    generate_corpus,
    make_constant_propagation,
    make_framework,
    round_robin_solve,
    worklist_solve,
)
from dfalab.analyses import (
    CP_LATTICE,
    FAINT,
    FV_LATTICE,
    NONCONST,
    NOT_FAINT,
    UNDEF,
    make_faint_variables,
)
from dfalab.cfg_metrics import FORWARD
from dfalab.engine import (
    EntitySpace,
    FrameworkInstance,
    MaskSpace,
    entity_space,
    product_height,
)
from dfalab.generator import GeneratorConfig, generate_program
from dfalab.ir import ConstAssign, Print, Skip

from _oracles import check_monotonicity, is_reducible, plain_round_robin
from conftest import chain_program, make_program

cp_values = st.one_of(st.just(UNDEF), st.just(NONCONST), st.integers(-5, 5))


class TestComponentLattices:
    @given(a=cp_values, b=cp_values)
    def test_meet_commutative(self, a, b):
        assert CP_LATTICE.meet(a, b) == CP_LATTICE.meet(b, a)

    @given(a=cp_values, b=cp_values, c=cp_values)
    def test_meet_associative(self, a, b, c):
        meet = CP_LATTICE.meet
        assert meet(meet(a, b), c) == meet(a, meet(b, c))

    @given(a=cp_values)
    def test_meet_idempotent(self, a):
        assert CP_LATTICE.meet(a, a) == a

    @given(a=cp_values)
    def test_top_is_identity_bottom_absorbs(self, a):
        assert CP_LATTICE.meet(a, UNDEF) == a
        assert CP_LATTICE.meet(a, NONCONST) is NONCONST

    @given(a=cp_values)
    def test_heights_follow_order(self, a):
        assert CP_LATTICE.ht(UNDEF) == 0
        assert CP_LATTICE.ht(NONCONST) == CP_LATTICE.height == 2
        below = CP_LATTICE.meet(a, NONCONST)
        assert CP_LATTICE.ht(below) >= CP_LATTICE.ht(a)


class TestProductValues:
    def test_meet_cp_examples(self):
        space = EntitySpace(("w", "x"), CP_LATTICE)
        assert space.meet((UNDEF, 3), (2, 3)) == (2, 3)

    def test_meet_conflicting_constants(self):
        space = EntitySpace(("x",), CP_LATTICE)
        assert space.meet((3,), (5,))[space.index["x"]] is NONCONST

    def test_meet_faint(self):
        space = EntitySpace(("x",), FV_LATTICE)
        assert space.meet((FAINT,), (NOT_FAINT,))[space.index["x"]] is NOT_FAINT

    def test_two_point_lattices_get_masks(self):
        space = entity_space(("x", "y"), FV_LATTICE)
        assert isinstance(space, MaskSpace) and space.top == 0
        assert space.components(space.top) == (FAINT, FAINT)
        assert space.components(space.meet(0b01, 0b10)) == (NOT_FAINT, NOT_FAINT)
        assert space.components(0b10)[space.index["y"]] is NOT_FAINT
        assert type(entity_space(("x",), CP_LATTICE)) is EntitySpace

    @given(w=cp_values, x=cp_values)
    def test_top_is_the_meet_identity(self, w, x):
        space = EntitySpace(("w", "x"), CP_LATTICE)
        assert space.top == (UNDEF, UNDEF)
        assert space.meet(space.top, (w, x)) == (w, x) == space.meet((w, x), space.top)


@pytest.mark.parametrize("h_hat,xi,expected", [(2, 4, 8), (1, 4, 4), (1, 1, 1), (0, 7, 0)])
def test_product_height(h_hat, xi, expected):
    assert product_height(h_hat, xi) == expected


class TestRoundRobinCalibration:
    """I, leaving out the final no-change pass, reproduces the fixture counts.

    fig3: 9 (cp) and 7 (faint); the swap variant: 5 for both.
    ``passes_executed``, which counts that pass, is exactly one higher.
    """

    def test_default_is_exclude(self, fig3, fig3_swap):
        for program in (fig3, fig3_swap):
            cfg = build_cfg(program)
            for make in (make_constant_propagation, make_faint_variables):
                result = round_robin_solve(make(program), cfg)
                assert result.passes_executed == result.iterations + 1

    @pytest.mark.parametrize("kind,expected", [("cp", 9), ("faint", 7)])
    def test_fig3_counts(self, fig3, fig3_cfg, kind, expected):
        fw = (make_constant_propagation if kind == "cp" else make_faint_variables)(fig3)
        result = round_robin_solve(fw, fig3_cfg)
        assert result.iterations == expected
        assert result.passes_executed == expected + 1

    @pytest.mark.parametrize("kind,expected", [("cp", 5), ("faint", 5)])
    def test_swap_counts(self, fig3_swap, kind, expected):
        cfg = build_cfg(fig3_swap)
        fw = (make_constant_propagation if kind == "cp" else make_faint_variables)(fig3_swap)
        assert round_robin_solve(fw, cfg).iterations == expected


class TestFixedPoints:
    def test_round_robin_and_worklist_agree_on_fig3(self, fig3, fig3_cfg):
        for make in (make_constant_propagation, make_faint_variables):
            fw = make(fig3)
            rr = round_robin_solve(fw, fig3_cfg)
            wl = worklist_solve(fw, fig3_cfg)
            assert rr.in_values == wl.in_values
            assert rr.out_values == wl.out_values

    def test_acyclic_single_const(self):
        program = chain_program([ConstAssign("a", 7), Skip()], name="mini")
        cfg = build_cfg(program)
        fw = make_constant_propagation(program)
        rr = round_robin_solve(fw, cfg)
        wl = worklist_solve(fw, cfg)
        assert rr.iterations == 1
        assert rr.out_values == wl.out_values
        assert rr.out_values[2][fw.space.index["a"]] == 7

    def test_all_skip_program_counts_one_pass(self):
        program = chain_program([Skip(), Skip()], name="noop")
        cfg = build_cfg(program)
        result = round_robin_solve(make_constant_propagation(program), cfg)
        assert result.iterations == 1
        assert result.passes_executed == 1

    def test_final_pass_is_stable(self, fig3, fig3_cfg):
        # Re-running one more full sweep from the solution changes nothing.
        fw = make_constant_propagation(fig3)
        first = round_robin_solve(fw, fig3_cfg)
        again = round_robin_solve(fw, fig3_cfg)
        assert first.in_values == again.in_values
        assert first.out_values == again.out_values

    def test_backward_boundary_applies_at_exit(self):
        program = make_program([Print("a"), Skip()], [(1, 2)],
                               variables=("a",), name="pb")
        cfg = build_cfg(program)
        fw = make_faint_variables(program)
        result = round_robin_solve(fw, cfg)
        a = fw.space.index["a"]
        assert fw.space.components(result.out_values[2])[a] is FAINT
        assert fw.space.components(result.in_values[1])[a] is NOT_FAINT


class TestVisitSkip:
    def test_unchanged_inputs_are_not_transferred_again(self, fig3, fig3_cfg):
        fw = make_constant_propagation(fig3)
        calls = []

        def spy(node, transfer):
            def counted(value):
                calls.append(node)
                return transfer(value)
            return counted

        spied = dataclasses.replace(
            fw, transfers={n: spy(n, t) for n, t in fw.transfers.items()})
        result = round_robin_solve(spied, fig3_cfg)
        assert result.passes_executed == 10
        assert len(calls) < result.passes_executed * len(fig3_cfg.nodes)
        assert result == round_robin_solve(fw, fig3_cfg)

    @pytest.mark.parametrize("kind", ANALYSIS_KINDS)
    def test_matches_a_round_robin_that_visits_every_node(self, fig3, fig3_swap, kind):
        reducible = GeneratorConfig(seed=23)
        irreducible = GeneratorConfig(seed=29, node_budget=30, irreducible_edge_probability=0.2)
        programs = [fig3, fig3_swap]
        programs += [generate_program(reducible, i) for i in range(12)]
        programs += [p for p in (generate_program(irreducible, i) for i in range(40))
                     if not is_reducible(build_cfg(p))][:8]
        assert len(programs) == 22
        for program in programs:
            cfg = build_cfg(program)
            fw = make_framework(program, kind)
            got = round_robin_solve(fw, cfg)
            want = plain_round_robin(fw, cfg)
            assert (got.in_values, got.out_values, got.iterations, got.passes_executed,
                    got.trace) == want, program.name

    @pytest.mark.parametrize("kind", ANALYSIS_KINDS)
    def test_three_and_four_inputs_take_the_general_merge(self, monkeypatch, kind):
        """Nodes with one or two inputs skip ``_merge``; wider ones still use it."""
        arities = []
        merge = engine._merge

        def spy(space, inputs, after):
            arities.append(len(inputs))
            return merge(space, inputs, after)
        monkeypatch.setattr(engine, "_merge", spy)
        config = GeneratorConfig(seed=7, node_budget=40, irreducible_edge_probability=0.05)
        wide_nodes = 0
        for program in generate_corpus(config, 300):
            cfg = build_cfg(program)
            fw = make_framework(program, kind)
            inputs = cfg.predecessors if fw.direction == FORWARD else cfg.successors
            wide = [node for node in cfg.nodes if len(inputs[node]) >= 3]
            if not wide:
                continue
            wide_nodes += len(wide)
            arities.clear()
            got = round_robin_solve(fw, cfg)
            # Each pass merges every wide node, and every node without inputs.
            wide_calls = [a for a in arities if a]
            assert set(wide_calls) <= {3, 4}
            assert len(wide_calls) == got.passes_executed * len(wide), program.name
            want = plain_round_robin(fw, cfg)
            assert (got.in_values, got.out_values, got.iterations, got.passes_executed,
                    got.trace) == want, program.name
            oracle = worklist_solve(fw, cfg)
            assert (got.in_values, got.out_values) == (
                oracle.in_values, oracle.out_values), program.name
        assert wide_nodes == (115 if fw.direction == FORWARD else 93)


class TestTraces:
    def test_values_descend(self, fig3, fig3_cfg):
        for make in (make_constant_propagation, make_faint_variables):
            fw = make(fig3)
            lattice = fw.lattice
            result = round_robin_solve(fw, fig3_cfg)
            assert result.trace
            for record in result.trace:
                assert lattice.ht(record.new) >= lattice.ht(record.old)
                assert lattice.meet(record.new, record.old) == record.new

    def test_operands_recorded(self, fig3, fig3_cfg):
        fw = make_constant_propagation(fig3)
        result = round_robin_solve(fw, fig3_cfg)
        for record in result.trace:
            if record.node == 7:  # z = w - 1 reads w
                assert [op for op, _ in record.operands] == ["w"]


class TestMonotonicity:
    def test_shipped_analyses_pass(self, fig3, fig3_cfg):
        for make in (make_constant_propagation, make_faint_variables):
            assert check_monotonicity(make(fig3), 300, seed=7)

    def _broken_framework(self):
        space = EntitySpace(("x",), CP_LATTICE)

        def broken(value: tuple) -> tuple:
            # Maps bottom back to top: not monotonic.
            return (UNDEF,) if value[0] is NONCONST else (NONCONST,)

        return FrameworkInstance(
            kind="broken", direction="forward", space=space,
            transfers={1: broken},
            dfpuse={1: frozenset()}, independent_sources={1: frozenset()})

    def test_broken_transfer_detected(self):
        fw = self._broken_framework()
        assert not check_monotonicity(fw, 200, seed=3)

    def test_sample_count_must_be_positive(self, fig3):
        with pytest.raises(ValueError):
            check_monotonicity(make_constant_propagation(fig3), 0, 1)


def test_divergence_guard_fires():
    program = make_program([Skip(), Skip()], [(1, 2), (2, 1)],
                           variables=("x",), name="osc")
    cfg = build_cfg(program)
    space = EntitySpace(("x",), CP_LATTICE)

    def flip(value: tuple) -> tuple:
        return ({UNDEF: 1, 1: 2, 2: UNDEF}.get(value[0], 1),)

    fw = FrameworkInstance(
        kind="oscillator", direction="forward", space=space,
        transfers={1: flip, 2: flip},
        dfpuse={1: frozenset(), 2: frozenset()},
        independent_sources={1: frozenset(), 2: frozenset()})
    with pytest.raises(DivergenceError):
        round_robin_solve(fw, cfg, record_trace=False)
