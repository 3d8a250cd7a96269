import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dfalab import build_cfg, fixtures
from dfalab.ir import Program, Skip


@pytest.fixture(scope="session")
def fig3():
    return fixtures.fig3()


@pytest.fixture(scope="session")
def fig3_swap():
    return fixtures.fig3_swap()


@pytest.fixture(scope="session")
def fig3_cfg(fig3):
    return build_cfg(fig3)


def make_program(statements, edges, variables=("a", "b", "c"), name="tiny",
                 entry=None):
    """Assemble a Program from a statement list (node ids 1..n)."""
    nodes = {i + 1: stmt for i, stmt in enumerate(statements)}
    if entry is None:
        entry = min(nodes)
    return Program(name=name, variables=tuple(variables), nodes=nodes,
                   edges=tuple(edges), entry=entry)


def chain_program(statements, variables=("a", "b", "c"), name="chain"):
    edges = [(i, i + 1) for i in range(1, len(statements))]
    return make_program(statements, edges, variables, name)


@pytest.fixture
def single_skip():
    return chain_program([Skip()], name="one")
