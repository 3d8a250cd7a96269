import dataclasses
import random

import pytest

from dfalab import (
    ProgramPipeline,
    build_cfg,
    make_constant_propagation,
    make_framework,
    round_robin_solve,
    worklist_solve,
)
from dfalab.analyses import (
    FAINT,
    NONCONST,
    NOT_FAINT,
    UNDEF,
    Instance,
    cp_transfer,
    make_bitvector_framework,
    make_faint_variables,
    program_expressions,
)
from dfalab.engine import EntitySpace, MaskSpace, product_height
from dfalab.analyses import CP_LATTICE
from dfalab.generator import GeneratorConfig, generate_program
from dfalab.ir import (
    BINARY_OPS,
    INT64_MAX,
    INT64_MIN,
    BinAssign,
    ConstAssign,
    CopyAssign,
    Print,
    ReadAssign,
    Skip,
    expression_key,
    stmt_target,
    stmt_uses,
)

from _oracles import (
    check_monotonicity,
    cp_transfer_reference,
    entry_nodes,
    execute_all_paths,
    is_reducible,
    live_uses,
    plain_round_robin,
    reaching_definitions,
    reference_framework,
    sample_value,
    strongly_live,
)
from conftest import chain_program


def cp(stmt, mapping):
    """Run `cp_transfer` on the value that `mapping` gives per variable."""
    space = EntitySpace(tuple(mapping), CP_LATTICE)
    out = cp_transfer(stmt, space.index)(tuple(mapping.values()))
    return dict(zip(space.entities, out))


def fv(stmt, mapping):
    """Run a one-statement faint framework's transfer on `mapping`'s mask."""
    fw = make_faint_variables(chain_program([stmt], variables=tuple(mapping)))
    space = fw.space
    mask = sum(1 << space.index[var] for var, value in mapping.items()
               if value is space.lattice.bottom)
    return dict(zip(space.entities, space.components(fw.transfers[1](mask))))


def at_bottom(space, value):
    """The entities whose component of `value` is the lattice bottom."""
    return {e for e, v in zip(space.entities, space.components(value))
            if v is space.lattice.bottom}


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

    def test_compiled_transfer_matches_the_per_call_evaluator(self):
        big = (INT64_MIN, INT64_MIN + 1, -(2**62), -1, 0, 1, 2**62, INT64_MAX - 1, INT64_MAX)
        statements = [ConstAssign("a", INT64_MIN), ConstAssign("b", INT64_MAX),
                      ReadAssign("c"), CopyAssign("a", "b"), CopyAssign("c", "c"),
                      Print("a"), Skip()]
        for op in BINARY_OPS:
            statements += [BinAssign("a", "b", op, "c"), BinAssign("b", "b", op, "b"),
                           BinAssign("c", "a", op, INT64_MAX), BinAssign("a", INT64_MIN, op, "c"),
                           BinAssign("b", 7, op, -3), BinAssign("c", INT64_MAX, op, INT64_MAX)]
        space = EntitySpace(("a", "b", "c"), CP_LATTICE)
        rng = random.Random(5)
        pool = (UNDEF, NONCONST) + big
        for stmt in statements:
            compiled = cp_transfer(stmt, space.index)
            for _ in range(60):
                value = tuple(rng.choice(pool) for _ in space.entities)
                want = cp_transfer_reference(stmt, value, space.index)
                assert compiled(value) == want, (stmt, value)
        assert cp_transfer(Print("a"), space.index) is cp_transfer(Skip(), space.index)


class TestCpFramework:
    def test_fig3_shape(self, fig3):
        fw = make_constant_propagation(fig3)
        assert len(fw.entities) == 4
        assert fw.lattice.height == 2
        assert product_height(fw.lattice.height, len(fw.space)) == 8
        assert fw.direction == "forward"

    def test_fig3_dfp_sets(self, fig3):
        fw = make_constant_propagation(fig3)
        assert fw.dfpuse[7] == frozenset({"w"})
        assert fw.dfpuse[2] == frozenset()
        # w = 2 at node 1 reads nothing; x = y + 2 at node 5 reads y.
        edg = ProgramPipeline(fig3).edg("cp")
        assert [edg.labels[i] for i in edg.entries] == [Instance("w", 1)]
        assert edg.entries == entry_nodes(edg, fw)

    def test_refines_concrete_execution_on_loop_free_programs(self):
        # Every constant the analysis reports must hold on every
        # concrete execution path that assigns the variable at all.
        config = GeneratorConfig(seed=11, node_budget=10, variable_count=3,
                                 loop_depth=0)
        for index in range(30):
            program = generate_program(config, index)
            cfg = build_cfg(program)
            fw = make_constant_propagation(program)
            solution = round_robin_solve(fw, cfg)
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

    def test_fig3_shape(self, fig3):
        fw = make_faint_variables(fig3)
        assert fw.direction == "backward"
        assert fw.lattice.height == 1
        assert product_height(fw.lattice.height, len(fw.space)) == 4
        assert fw.dfpuse[5] == frozenset({"x"})
        # print x at node 2 reads nothing and makes x not faint.
        edg = ProgramPipeline(fig3).edg("faint")
        assert [edg.labels[i] for i in edg.entries] == [Instance("x", 2)]
        assert edg.entries == entry_nodes(edg, fw)

    def test_fig3_no_faint_assignment(self, fig3, fig3_cfg):
        # The print keeps the whole w->z->y->x chain strongly live, so
        # no assignment writes a faint variable and nothing is removable.
        fw = make_faint_variables(fig3)
        solution = round_robin_solve(fw, fig3_cfg)
        for node, stmt in fig3.nodes.items():
            target = stmt_target(stmt)
            if target is not None:
                out = fw.space.components(solution.out_values[node])
                assert out[fw.space.index[target]] is NOT_FAINT, node

    def test_faint_is_complement_of_strongly_live(self, fig3, fig3_swap):
        programs = [fig3, fig3_swap]
        programs += [generate_program(GeneratorConfig(seed=5, node_budget=20), i)
                     for i in range(15)]
        for program in programs:
            cfg = build_cfg(program)
            fw = make_faint_variables(program)
            solution = round_robin_solve(fw, cfg)
            live_in, live_out = strongly_live(cfg)
            for node in cfg.nodes:
                in_value = fw.space.components(solution.in_values[node])
                out_value = fw.space.components(solution.out_values[node])
                for var in program.variables:
                    i = fw.space.index[var]
                    assert (in_value[i] is FAINT) == (
                        var not in live_in[node]), (program.name, node, var, "in")
                    assert (out_value[i] is FAINT) == (
                        var not in live_out[node]), (program.name, node, var, "out")


class TestBitVector:
    def test_fig3_avail_entities(self, fig3):
        fw = make_bitvector_framework(fig3, "avail")
        assert set(fw.entities) == {"y+2", "z+3", "w-1", "x+1"}

    def test_literal_only_expressions_excluded(self):
        program = chain_program([BinAssign("a", 1, "+", 2), Print("a")],
                                name="lit")
        assert program_expressions(program) == ()

    def test_fig3_avail_kills(self, fig3, fig3_cfg):
        # On top (all available), a transfer sets the bits of the
        # expressions its assignment kills, and no others.
        fw = make_bitvector_framework(fig3, "avail")
        bit = {e: 1 << i for e, i in fw.space.index.items()}
        kills = {1: "w-1", 5: "x+1", 6: "y+2", 7: "z+3", 8: "w-1"}
        for node in fig3_cfg.nodes:
            assert fw.transfers[node](0) == bit.get(kills.get(node), 0), node

    @pytest.mark.parametrize("kind", ["avail", "reach", "live"])
    def test_transfers_are_separable(self, fig3, kind):
        """Flipping input bit i changes at most output bit i.

        No transfer reads another entity, which is why these frameworks
        declare no dependences and a pipeline gives them delta 0.
        """
        programs = [fig3] + [
            generate_program(GeneratorConfig(seed=5, node_budget=20,
                                             irreducible_edge_probability=p), i)
            for p in (0.0, 0.3) for i in range(3)]
        rng = random.Random(17)
        for program in programs:
            fw = make_framework(program, kind)
            assert fw.separable
            for node, f in fw.transfers.items():
                for _ in range(4):
                    v = sample_value(fw.space, rng)
                    for i in range(len(fw.space)):
                        changed = f(v) ^ f(v ^ 1 << i)
                        assert not changed & ~(1 << i), (program.name, node, i)

    def test_fig3_reaching_defs_of_w_at_node7(self, fig3, fig3_cfg):
        fw = make_bitvector_framework(fig3, "reach")
        solution = round_robin_solve(fw, fig3_cfg)
        reaching = at_bottom(fw.space, solution.in_values[7])
        assert {d for d in reaching if d.var == "w"} == {Instance("w", 1), Instance("w", 8)}

    def test_fig3_live_uses_of_x_at_exit5(self, fig3, fig3_cfg):
        fw = make_bitvector_framework(fig3, "live")
        solution = round_robin_solve(fw, fig3_cfg)
        live = at_bottom(fw.space, solution.out_values[5])
        assert {u for u in live if u.var == "x"} == {Instance("x", 2), Instance("x", 8)}

    def test_transfers_idempotent(self, fig3, fig3_cfg):
        rng = random.Random(99)
        for kind in ("avail", "reach", "live"):
            fw = make_bitvector_framework(fig3, kind)
            for node in fig3_cfg.nodes:
                f = fw.transfers[node]
                for _ in range(25):
                    x = sample_value(fw.space, rng)
                    assert f(f(x)) == f(x)

    def test_unknown_kind(self, fig3):
        with pytest.raises(ValueError):
            make_bitvector_framework(fig3, "mystery")

    @pytest.mark.parametrize("kind", ["avail", "reach", "live"])
    def test_entities_follow_node_ids_not_dict_order(self, fig3, fig3_cfg, kind):
        shuffled = dataclasses.replace(fig3, nodes=dict(reversed(fig3.nodes.items())))
        assert list(shuffled.nodes) != sorted(shuffled.nodes)
        statements = sorted(fig3.nodes.items())
        want = {
            "avail": tuple(dict.fromkeys(expression_key(stmt) for _, stmt in statements
                                         if expression_key(stmt) is not None)),
            "reach": tuple(Instance(stmt_target(stmt), node) for node, stmt in statements
                           if stmt_target(stmt) is not None),
            "live": tuple(Instance(var, node) for node, stmt in statements
                          for var in sorted(stmt_uses(stmt))),
        }[kind]
        fw = make_bitvector_framework(shuffled, kind)
        assert fw.entities == make_bitvector_framework(fig3, kind).entities == want
        got = round_robin_solve(fw, build_cfg(shuffled))
        ordered = round_robin_solve(make_bitvector_framework(fig3, kind), fig3_cfg)
        assert (got.in_values, got.out_values, got.passes_executed) == (
            ordered.in_values, ordered.out_values, ordered.passes_executed)

    @pytest.mark.parametrize("kind", ["avail", "reach", "live"])
    def test_builds_share_one_lattice(self, fig3, fig3_swap, kind):
        assert (make_bitvector_framework(fig3, kind).lattice
                is make_bitvector_framework(fig3_swap, kind).lattice)


def test_all_five_analyses_are_monotonic(fig3):
    frameworks = [
        make_constant_propagation(fig3),
        make_faint_variables(fig3),
        make_bitvector_framework(fig3, "avail"),
        make_bitvector_framework(fig3, "reach"),
        make_bitvector_framework(fig3, "live"),
    ]
    for fw in frameworks:
        assert check_monotonicity(fw, 1000, seed=42), fw.kind


class TestRenamedSetAnalyses:
    """The set-based reaching/live oracles match the framework solutions."""

    @pytest.mark.parametrize("seed", range(8))
    def test_reaching_definitions_match(self, seed):
        program = generate_program(GeneratorConfig(seed=seed, node_budget=18), seed)
        cfg = build_cfg(program)
        fw = make_bitvector_framework(program, "reach")
        solution = worklist_solve(fw, cfg)
        sets = reaching_definitions(cfg)
        for node in cfg.nodes:
            framework_view = at_bottom(fw.space, solution.in_values[node])
            assert framework_view == set(sets[node])

    @pytest.mark.parametrize("seed", range(8))
    def test_live_uses_match(self, seed):
        program = generate_program(GeneratorConfig(seed=seed, node_budget=18), seed)
        cfg = build_cfg(program)
        fw = make_bitvector_framework(program, "live")
        solution = worklist_solve(fw, cfg)
        sets = live_uses(cfg)
        for node in cfg.nodes:
            framework_view = at_bottom(fw.space, solution.out_values[node])
            assert framework_view == set(sets[node])

    def test_fig3_reaching(self, fig3_cfg):
        sets = reaching_definitions(fig3_cfg)
        assert {d for d in sets[7] if d.var == "w"} == {Instance("w", 1), Instance("w", 8)}

    def test_fig3_live(self, fig3_cfg):
        sets = live_uses(fig3_cfg)
        assert {u for u in sets[5] if u.var == "x"} == {Instance("x", 2), Instance("x", 8)}


class TestMaskFrameworksMatchTupleReference:
    """Int-mask solves equal solves of the tuple-valued reference transfers.

    Values and pass counts come from ``round_robin_solve``; the traces,
    masks decoded, from the oracle round robin.
    """

    @pytest.fixture(scope="class")
    def programs(self, fig3, fig3_swap):
        reducible = GeneratorConfig(seed=23, node_budget=30)
        irreducible = GeneratorConfig(seed=31, node_budget=30,
                                      irreducible_edge_probability=0.3)
        return ([fig3, fig3_swap]
                + [generate_program(reducible, i) for i in range(12)]
                + [generate_program(irreducible, i) for i in range(8)])

    def test_programs_include_irreducible_graphs(self, programs):
        assert sum(not is_reducible(build_cfg(p)) for p in programs) >= 2

    @pytest.mark.parametrize("kind", ["faint", "avail", "reach", "live"])
    def test_values_and_pass_counts_match(self, programs, kind):
        for program in programs:
            cfg = build_cfg(program)
            fw = make_framework(program, kind)
            assert isinstance(fw.space, MaskSpace)
            reference = reference_framework(program, fw)
            got = round_robin_solve(fw, cfg)
            want = round_robin_solve(reference, cfg)
            decode = fw.space.components
            for node in cfg.nodes:
                assert decode(got.in_values[node]) == want.in_values[node], (
                    program.name, node, "in")
                assert decode(got.out_values[node]) == want.out_values[node], (
                    program.name, node, "out")
            assert (got.iterations, got.passes_executed) == (
                want.iterations, want.passes_executed), program.name
            assert (plain_round_robin(fw, cfg)[4]
                    == plain_round_robin(reference, cfg)[4]), program.name
