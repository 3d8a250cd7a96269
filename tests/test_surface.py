"""Every public name in src/dfalab has a caller there, and every import is used.

The modules of ``src/dfalab`` other than ``__init__.py`` are parsed with
``ast``.  A public top-level function or class, or a public method,
counts as used when code outside its own body refers to its name, as a
name or as an attribute.  Re-exports in ``__init__.py`` do not count:
a name that only readers outside ``src`` reach is kept by listing it in
``KEPT`` with the reason.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dfalab"

# Public names that no module in src calls, and why they stay.
KEPT = {
    "worklist_solve": "the benchmark's fixed-point check calls it, and the "
                      "tests use it as the reference solver",
    "make_record": "the README's library use block calls it",
    "validate_program": "exported diagnostics API: the program's invariant "
                        "violations without raising",
}


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level def, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _mentions(tree: ast.Module, mentions: dict[str, list[set[int]]]) -> None:
    """Add each name or attribute name in `tree`, with the defs and classes around it."""
    def visit(node: ast.AST, around: set[int]) -> None:
        if isinstance(node, ast.Name):
            mentions.setdefault(node.id, []).append(around)
        elif isinstance(node, ast.Attribute):
            mentions.setdefault(node.attr, []).append(around)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            around = around | {id(node)}
        for child in ast.iter_child_nodes(node):
            visit(child, around)

    visit(tree, set())


@functools.cache
def _uncalled() -> frozenset[str]:
    """Qualified public names that no code outside their own body mentions."""
    modules = _modules()
    mentions: dict[str, list[set[int]]] = {}
    for tree in modules.values():
        _mentions(tree, mentions)
    return frozenset(
        qualified for tree in modules.values() for qualified, node in _definitions(tree)
        if all(id(node) in around for around in mentions.get(node.name, ())))


def test_every_public_name_has_a_caller_in_src():
    uncalled = {name for name in _uncalled() if name.rsplit(".", 1)[-1] not in KEPT}
    assert not uncalled, f"public names that nothing in src refers to: {sorted(uncalled)}"


def test_kept_names_are_still_uncalled_definitions():
    # An entry whose name is gone, or that src now calls, is stale.
    assert {name.rsplit(".", 1)[-1] for name in _uncalled()} >= set(KEPT)


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert not unused, f"imports never used: {unused}"
