import random

import pytest

from dfalab import (
    build_cfg,
    make_constant_propagation,
    round_robin_solve,
    worklist_solve,
)
from dfalab.analyses import (
    FAINT,
    NONCONST,
    NOT_FAINT,
    UNDEF,
    DefId,
    UseId,
    cp_transfer,
    fv_transfer,
    make_bitvector_framework,
    make_faint_variables,
    program_expressions,
)
from dfalab.engine import EntitySpace
from dfalab.analyses import CP_LATTICE, FV_LATTICE
from dfalab.generator import GeneratorConfig, generate_program
from dfalab.ir import (
    BinAssign,
    ConstAssign,
    CopyAssign,
    Print,
    ReadAssign,
    Skip,
    stmt_target,
)

from _oracles import (
    check_monotonicity,
    execute_all_paths,
    live_uses,
    reaching_definitions,
    sample_component,
    strongly_live,
)
from conftest import chain_program


def apply(transfer, lattice, stmt, mapping):
    """Run `transfer` on the value that `mapping` gives per variable."""
    space = EntitySpace(tuple(mapping), lattice)
    out = transfer(stmt, tuple(mapping.values()), space.index)
    return dict(zip(space.entities, out))


def cp(stmt, mapping):
    return apply(cp_transfer, CP_LATTICE, stmt, mapping)


def fv(stmt, mapping):
    return apply(fv_transfer, FV_LATTICE, stmt, mapping)


class TestCpTransfer:
    def test_both_operands_constant(self):
        out = cp(BinAssign("x", "y", "+", "z"), {"x": UNDEF, "y": 3, "z": 4})
        assert out["x"] == 7

    def test_nonconst_absorbs(self):
        out = cp(BinAssign("x", "y", "+", 2), {"x": UNDEF, "y": NONCONST})
        assert out["x"] is NONCONST

    def test_undef_preserved_without_nonconst(self):
        out = cp(BinAssign("x", "y", "+", 2), {"x": 1, "y": UNDEF})
        assert out["x"] is UNDEF

    def test_const_read_copy_print(self):
        value = {"a": UNDEF, "b": 9}
        assert cp(ConstAssign("a", 5), value)["a"] == 5
        assert cp(ReadAssign("a"), value)["a"] is NONCONST
        assert cp(CopyAssign("a", "b"), value)["a"] == 9
        assert cp(Print("b"), value) == value
        assert cp(Skip(), value) == value

    def test_literal_only_binop(self):
        assert cp(BinAssign("a", 6, "*", 7), {"a": UNDEF})["a"] == 42

    def test_arithmetic_wraps(self):
        out = cp(BinAssign("a", "a", "+", "b"), {"a": 2**62, "b": 2**62})
        assert out["a"] == -(2**63)


class TestCpFramework:
    def test_fig3_shape(self, fig3, fig3_cfg):
        fw = make_constant_propagation(fig3, fig3_cfg)
        assert len(fw.entities) == 4
        assert fw.lattice.height == 2
        assert fw.product_lattice_height() == 8
        assert fw.direction == "forward"

    def test_fig3_dfp_sets(self, fig3, fig3_cfg):
        fw = make_constant_propagation(fig3, fig3_cfg)
        assert fw.dfpuse[7] == frozenset({"w"})
        assert fw.dfpmod[2] == frozenset()
        assert fw.dfpmod[5] == frozenset({"x"})
        assert fw.independent_sources[1] == frozenset({"w"})
        assert fw.independent_sources[5] == frozenset()

    def test_refines_concrete_execution_on_loop_free_programs(self):
        # Every constant the analysis reports must hold on every
        # concrete execution path that assigns the variable at all.
        config = GeneratorConfig(seed=11, node_budget=10, variable_count=3,
                                 loop_depth=0,
                                 stmt_weights={"const": 4, "copy": 2, "binop": 4,
                                               "read": 1, "print": 1, "skip": 1})
        for index in range(30):
            program = generate_program(config, index)
            cfg = build_cfg(program)
            fw = make_constant_propagation(program, cfg)
            solution = round_robin_solve(fw, cfg, record_trace=False)
            for node, env in execute_all_paths(cfg):
                abstract = solution.in_values[node]
                for var in program.variables:
                    claimed = abstract[fw.space.index[var]]
                    if isinstance(claimed, int) and env[var] is not None:
                        assert env[var] == claimed, (program.name, node, var)


class TestFaintVariables:
    def test_print_forces_liveness(self):
        assert fv(Print("x"), {"x": FAINT})["x"] is NOT_FAINT

    def test_assignment_to_faint_target_keeps_operands_faint(self):
        out = fv(BinAssign("x", "y", "+", 2), {"x": FAINT, "y": FAINT})
        assert out["x"] is FAINT
        assert out["y"] is FAINT

    def test_live_target_livens_operands(self):
        out = fv(BinAssign("x", "y", "+", 2), {"x": NOT_FAINT, "y": FAINT})
        assert out["x"] is FAINT
        assert out["y"] is NOT_FAINT

    def test_self_referencing_assignment(self):
        out = fv(BinAssign("x", "x", "+", 1), {"x": NOT_FAINT})
        assert out["x"] is NOT_FAINT

    def test_fig3_shape(self, fig3, fig3_cfg):
        fw = make_faint_variables(fig3, fig3_cfg)
        assert fw.direction == "backward"
        assert fw.lattice.height == 1
        assert fw.product_lattice_height() == 4
        assert fw.dfpmod[5] == frozenset({"y"})
        assert fw.dfpuse[5] == frozenset({"x"})
        assert fw.independent_sources[2] == frozenset({"x"})

    def test_fig3_no_faint_assignment(self, fig3, fig3_cfg):
        # The print keeps the whole w->z->y->x chain strongly live, so
        # no assignment writes a faint variable and nothing is removable.
        fw = make_faint_variables(fig3, fig3_cfg)
        solution = round_robin_solve(fw, fig3_cfg, record_trace=False)
        for node, stmt in fig3.nodes.items():
            target = stmt_target(stmt)
            if target is not None:
                assert solution.out_values[node][fw.space.index[target]] is NOT_FAINT, node

    def test_faint_is_complement_of_strongly_live(self, fig3, fig3_swap):
        programs = [fig3, fig3_swap]
        programs += [generate_program(GeneratorConfig(seed=5, node_budget=20), i)
                     for i in range(15)]
        for program in programs:
            cfg = build_cfg(program)
            fw = make_faint_variables(program, cfg)
            solution = round_robin_solve(fw, cfg, record_trace=False)
            live_in, live_out = strongly_live(cfg)
            for node in cfg.nodes:
                for var in program.variables:
                    i = fw.space.index[var]
                    assert (solution.in_values[node][i] is FAINT) == (
                        var not in live_in[node]), (program.name, node, var, "in")
                    assert (solution.out_values[node][i] is FAINT) == (
                        var not in live_out[node]), (program.name, node, var, "out")


class TestBitVector:
    def test_fig3_avail_entities(self, fig3, fig3_cfg):
        fw = make_bitvector_framework(fig3, "avail", fig3_cfg)
        assert set(fw.entities) == {"y+2", "z+3", "w-1", "x+1"}

    def test_literal_only_expressions_excluded(self):
        program = chain_program([BinAssign("a", 1, "+", 2), Print("a")],
                                name="lit")
        assert program_expressions(program) == ()

    def test_fig3_avail_kills(self, fig3, fig3_cfg):
        fw = make_bitvector_framework(fig3, "avail", fig3_cfg)
        assert fw.dfpmod[1] == frozenset({"w-1"})
        assert fw.dfpmod[8] == frozenset({"w-1"})
        assert fw.dfpmod[5] == frozenset({"x+1"})
        assert fw.dfpmod[6] == frozenset({"y+2"})
        assert fw.dfpmod[7] == frozenset({"z+3"})

    def test_fig3_reaching_defs_of_w_at_node7(self, fig3, fig3_cfg):
        fw = make_bitvector_framework(fig3, "reach", fig3_cfg)
        solution = round_robin_solve(fw, fig3_cfg, record_trace=False)
        reaching = {d for d, v in zip(fw.entities, solution.in_values[7])
                    if v is fw.lattice.bottom}
        assert {d for d in reaching if d.var == "w"} == {DefId("w", 1), DefId("w", 8)}

    def test_fig3_live_uses_of_x_at_exit5(self, fig3, fig3_cfg):
        fw = make_bitvector_framework(fig3, "live", fig3_cfg)
        solution = round_robin_solve(fw, fig3_cfg, record_trace=False)
        live = {u for u, v in zip(fw.entities, solution.out_values[5])
                if v is fw.lattice.bottom}
        assert {u for u in live if u.var == "x"} == {UseId("x", 2), UseId("x", 8)}

    def test_transfers_idempotent(self, fig3, fig3_cfg):
        rng = random.Random(99)
        for kind in ("avail", "reach", "live"):
            fw = make_bitvector_framework(fig3, kind, fig3_cfg)
            for node in fig3_cfg.nodes:
                f = fw.transfers[node]
                for _ in range(25):
                    x = tuple(sample_component(fw.lattice, rng) for _ in fw.entities)
                    assert f(f(x)) == f(x)

    def test_unknown_kind(self, fig3):
        with pytest.raises(ValueError):
            make_bitvector_framework(fig3, "mystery")


def test_all_five_analyses_are_monotonic(fig3, fig3_cfg):
    frameworks = [
        make_constant_propagation(fig3, fig3_cfg),
        make_faint_variables(fig3, fig3_cfg),
        make_bitvector_framework(fig3, "avail", fig3_cfg),
        make_bitvector_framework(fig3, "reach", fig3_cfg),
        make_bitvector_framework(fig3, "live", fig3_cfg),
    ]
    for fw in frameworks:
        assert check_monotonicity(fw, 1000, seed=42), fw.kind


class TestRenamedSetAnalyses:
    """The set-based reaching/live oracles match the framework solutions."""

    @pytest.mark.parametrize("seed", range(8))
    def test_reaching_definitions_match(self, seed):
        program = generate_program(GeneratorConfig(seed=seed, node_budget=18), seed)
        cfg = build_cfg(program)
        fw = make_bitvector_framework(program, "reach", cfg)
        solution = worklist_solve(fw, cfg)
        sets = reaching_definitions(cfg)
        for node in cfg.nodes:
            framework_view = {d for d, v in zip(fw.entities, solution.in_values[node])
                              if v is fw.lattice.bottom}
            assert framework_view == set(sets[node])

    @pytest.mark.parametrize("seed", range(8))
    def test_live_uses_match(self, seed):
        program = generate_program(GeneratorConfig(seed=seed, node_budget=18), seed)
        cfg = build_cfg(program)
        fw = make_bitvector_framework(program, "live", cfg)
        solution = worklist_solve(fw, cfg)
        sets = live_uses(cfg)
        for node in cfg.nodes:
            framework_view = {u for u, v in zip(fw.entities, solution.out_values[node])
                              if v is fw.lattice.bottom}
            assert framework_view == set(sets[node])

    def test_fig3_reaching(self, fig3_cfg):
        sets = reaching_definitions(fig3_cfg)
        assert {d for d in sets[7] if d.var == "w"} == {DefId("w", 1), DefId("w", 8)}

    def test_fig3_live(self, fig3_cfg):
        sets = live_uses(fig3_cfg)
        assert {u for u in sets[5] if u.var == "x"} == {UseId("x", 2), UseId("x", 8)}
