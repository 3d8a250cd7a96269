import pytest

from dfalab import (
    InvalidProgramError,
    ParseError,
    build_cfg,
    parse_program,
    serialize_program,
    validate_program,
)
from dfalab.generator import GeneratorConfig, generate_program
from dfalab.ir import (
    BinAssign,
    ConstAssign,
    CopyAssign,
    Diagnostic,
    Print,
    Program,
    ReadAssign,
    Skip,
    stmt_uses,
    wrap64,
)

from conftest import chain_program, make_program


class TestParse:
    def test_fig3_shape(self, fig3):
        assert len(fig3.nodes) == 8
        assert len(fig3.edges) == 10
        forward = [e for e in fig3.edges if e[1] > e[0]]
        backward = [e for e in fig3.edges if e[1] < e[0]]
        assert len(forward) == 7
        assert len(backward) == 3

    def test_fig3_statements(self, fig3):
        assert fig3.nodes[1] == ConstAssign("w", 2)
        assert fig3.nodes[2] == Print("x")
        assert fig3.nodes[3] == Skip()
        assert fig3.nodes[5] == BinAssign("x", "y", "+", 2)
        assert fig3.nodes[7] == BinAssign("z", "w", "-", 1)

    def test_statements_have_slots_not_dicts(self):
        # Statements are slotted: a corpus holds many of them.
        stmts = [ConstAssign("x", 1), CopyAssign("x", "y"), BinAssign("x", "y", "+", 2),
                 ReadAssign("x"), Print("x"), Skip()]
        assert not any(hasattr(stmt, "__dict__") for stmt in stmts)

    def test_fig3_defaults(self, fig3):
        assert fig3.entry == 1

    def test_skip_node(self):
        p = parse_program("program t\nvars a\nnode 3  skip\n")
        assert p.nodes[3] == Skip()

    def test_read_and_copy(self):
        p = parse_program("program t\nvars a, b\nnode 1  a = read()\nnode 2  b = a\nedge 1 -> 2\n")
        assert p.nodes[1] == ReadAssign("a")
        assert p.nodes[2] == CopyAssign("b", "a")

    def test_duplicate_node_id(self):
        text = "program t\nvars w\nnode 1  w = 2\nnode 1  w = 3\n"
        with pytest.raises(ParseError, match="duplicate node id 1"):
            parse_program(text)

    def test_undeclared_variable(self):
        with pytest.raises(ParseError, match="undeclared variable 'q'"):
            parse_program("program t\nvars a\nnode 1  q = 2\n")

    def test_unknown_operator(self):
        with pytest.raises(ParseError, match="unknown operator"):
            parse_program("program t\nvars a, b\nnode 1  a = b / b\n")

    def test_syntax_error_carries_line(self):
        try:
            parse_program("program t\nvars a\nnode one  skip\n")
        except ParseError as exc:
            assert exc.line == 3
        else:
            pytest.fail("expected ParseError")

    def test_second_entry_line(self):
        with pytest.raises(ParseError, match="line 5, column 1: second 'entry' line"):
            parse_program("program t\nvars a\nnode 1  skip\nentry 1\nentry 1\n")

    def test_second_program_line(self):
        with pytest.raises(ParseError, match="line 4, column 1: second 'program' line"):
            parse_program("program a\nvars x\nnode 1 x = 1\nprogram b\n")

    def test_literal_out_of_range(self):
        with pytest.raises(ParseError, match="out of 64-bit range"):
            parse_program(f"program t\nvars a\nnode 1  a = {2**63}\n")

    def test_negative_literals(self):
        p = parse_program("program t\nvars a\nnode 1  a = -5\nnode 2  a = a + -3\nedge 1 -> 2\n")
        assert p.nodes[1] == ConstAssign("a", -5)
        assert p.nodes[2] == BinAssign("a", "a", "+", -3)

    def test_comments_and_blank_lines(self):
        text = "# header\nprogram t\n\nvars a  # trailing\nnode 1  a = 1\n"
        assert parse_program(text).nodes[1] == ConstAssign("a", 1)

    def test_explicit_entry_and_exit(self):
        text = ("program t\nvars a\nnode 1  skip\nnode 2  skip\n"
                "edge 1 -> 2\nedge 2 -> 1\nentry 1\nexit 2\n")
        p = parse_program(text)
        assert p.entry == 1
        # An exit line changes no analysis value, so it is not kept.
        assert p == parse_program(text.replace("exit 2\n", ""))

    @pytest.mark.parametrize("lines,outcome", [
        ("node\t1\ta\t=\tb\t+\t1\nnode\t2\tskip\nedge\t1\t->\t2\n",
         ({1: BinAssign("a", "b", "+", 1), 2: Skip()}, ((1, 2),))),
        ("node 1 a = 1 # set a\nnode 2 print a#use\nedge 1 -> 2 # on\n",
         ({1: ConstAssign("a", 1), 2: Print("a")}, ((1, 2),))),
        ("node 1 a = b\r\nnode 2 skip\r\nedge 1 -> 2\r\n",
         ({1: CopyAssign("a", "b"), 2: Skip()}, ((1, 2),))),
        ("node 1 a = read ( )\n", ({1: ReadAssign("a")}, ())),
        ("node 1 a = 1\x002\n", (3, 12, "bad right-hand side '1\\x002'")),
        (f"node {2**63} a = 1\nnode 1 skip\nedge 1 -> {2**63}\n",
         ({1: Skip(), 2**63: ConstAssign("a", 1)}, ((1, 2**63),))),
        ("node 1 skip\nnode 2 skip\nnode 1 a = 1\n", (5, 6, "duplicate node id 1")),
        ("exit 2\nnode 1 skip\nnode 2 skip\nedge 1 -> 2\n",
         ({1: Skip(), 2: Skip()}, ((1, 2),))),
        ("node 1 skip\nexit 7\n", (4, 1, "exit 7 is not a declared node")),
    ], ids=["tabs", "trailing-comment", "crlf", "spaced-read", "nul-in-literal",
            "id-above-int64", "duplicate-id", "exit-before-its-node", "exit-names-no-node"])
    def test_node_and_edge_line_edge_cases(self, lines, outcome):
        text = "program p\nvars a, b\n" + lines
        if isinstance(outcome[0], dict):
            program = parse_program(text)
            assert (program.nodes, program.edges) == outcome
        else:
            line, column, message = outcome
            with pytest.raises(ParseError) as caught:
                parse_program(text)
            assert (caught.value.line, caught.value.column) == (line, column)
            assert str(caught.value) == f"line {line}, column {column}: {message}"

    def test_byte_order_mark_is_not_skipped(self):
        with pytest.raises(ParseError) as caught:
            parse_program("\ufeffprogram p\nvars a\nnode 1 skip\n")
        assert str(caught.value) == "line 1, column 1: unknown directive '\\ufeffprogram'"

    def test_parse_is_deterministic(self, fig3):
        from dfalab import fixtures
        assert fixtures.fig3() == fig3


class TestValidate:
    def test_fig3_clean(self, fig3):
        assert validate_program(fig3) == []

    def test_unreachable_node(self):
        p = make_program([Skip(), Skip(), Skip()], [(1, 2)])
        # node 3 has no incoming edge
        diags = validate_program(p)
        assert [d.code for d in diags] == ["unreachable-node"]
        assert diags[0].node == 3

    def test_edge_to_undefined_node(self):
        p = Program(name="t", variables=("a",), nodes={1: Skip()},
                    edges=((1, 42),), entry=1)
        diags = validate_program(p)
        assert any(d.code == "undefined-node-in-edge" and d.edge == (1, 42)
                   for d in diags)

    def test_undeclared_variable_in_constructed_program(self):
        p = chain_program([ConstAssign("zz", 1)])
        assert any(d.code == "undeclared-variable" for d in validate_program(p))

    def test_bad_entry(self):
        p = Program(name="t", variables=(), nodes={1: Skip()}, edges=(),
                    entry=9)
        assert any(d.code == "undefined-entry" for d in validate_program(p))

    def test_non_integer_node_id_is_diagnosed_not_compared(self):
        # Node 1's successors and node 2's predecessors mix int and str
        # ids, which cannot be sorted.
        p = Program(name="t", variables=(), nodes={1: Skip(), "q": Skip(), 2: Skip()},
                    edges=((1, 2), (1, "q"), ("q", 2)), entry=1)
        expected = [Diagnostic("invalid-node-id", "node id 'q' is not a positive integer",
                               node="q")]
        assert validate_program(p) == expected
        with pytest.raises(InvalidProgramError) as caught:
            build_cfg(p)
        assert caught.value.diagnostics == expected


class TestCfg:
    def test_fig3_neighbors(self, fig3_cfg):
        assert fig3_cfg.successors[8] == (4,)
        assert fig3_cfg.predecessors[4] == (3, 8)
        assert fig3_cfg.predecessors[2] == (1, 3)

    def test_single_node(self, single_skip):
        cfg = build_cfg(single_skip)
        assert cfg.successors[1] == ()
        assert cfg.entry == 1

    def test_mutual_consistency(self, fig3_cfg):
        for src, succs in fig3_cfg.successors.items():
            for dst in succs:
                assert src in fig3_cfg.predecessors[dst]
        for dst, preds in fig3_cfg.predecessors.items():
            for src in preds:
                assert dst in fig3_cfg.successors[src]

    def test_rejects_invalid_program(self):
        p = make_program([Skip(), Skip()], [])  # node 2 unreachable
        with pytest.raises(InvalidProgramError):
            build_cfg(p)


class TestSerialize:
    def test_fig3_node_line(self, fig3):
        assert "node 7  z = w - 1" in serialize_program(fig3).splitlines()

    def test_no_edges_no_edge_lines(self, single_skip):
        text = serialize_program(single_skip)
        assert not any(line.startswith("edge") for line in text.splitlines())

    def test_no_exit_lines(self, single_skip):
        text = serialize_program(single_skip)
        assert not any(line.startswith("exit") for line in text.splitlines())
        assert parse_program(text) == single_skip

    def test_fig3_round_trip(self, fig3):
        assert parse_program(serialize_program(fig3)) == fig3

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_generated(self, seed):
        config = GeneratorConfig(seed=seed, node_budget=25)
        for index in range(10):
            program = generate_program(config, index)
            assert parse_program(serialize_program(program)) == program


def test_wrap64():
    assert wrap64(2**63) == -(2**63)
    assert wrap64(-(2**63) - 1) == 2**63 - 1
    assert wrap64(41) == 41


def test_stmt_uses():
    assert stmt_uses(BinAssign("a", "b", "+", "b")) == frozenset({"b"})
    assert stmt_uses(BinAssign("a", 1, "*", 2)) == frozenset()
    assert stmt_uses(Print("c")) == frozenset({"c"})
    assert stmt_uses(ReadAssign("a")) == frozenset()
