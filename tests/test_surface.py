"""Every public name in src/dfalab has a caller there, and every import is used.

The modules of ``src/dfalab`` other than ``__init__.py`` are parsed with
``ast``.  A public top-level function or class, or a public method,
counts as used when code outside its own body refers to its name, as a
name or as an attribute.  Re-exports in ``__init__.py`` do not count:
a name that only readers outside ``src`` reach is kept by listing it in
``KEPT`` with the reason.

The same scan holds every defaulted parameter of a public function or
method against the calls in ``src``: a default that no call sets is a
setting nothing changes, and one that every call sets is a second way
in that only readers outside ``src`` take.  ``DEFAULTS_KEPT`` lists
the exceptions with their reasons.

Every parameter of every def and lambda, the fixtures package's
included, must be named by its body: an argument that nothing reads is
a way in that changes nothing.  ``PARAMS_KEPT`` lists the exceptions.
"""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dfalab"

# Public names that no module in src calls, and why they stay.
KEPT = {
    "worklist_solve": "the benchmark's fixed-point check calls it, and the "
                      "tests use it as the reference solver",
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


# Defaulted parameters that src calls never set, or always set, and why
# each default stays.
DEFAULTS_KEPT = {
    "main(argv)": "the command-line entry point, where None means sys.argv",
    "round_robin_solve(record_trace)": "the benchmark's fixed-point check and the "
                                       "tests solve traced by default",
    "make_framework(cfg)": "the benchmark's checks pass it",
}


def _calls() -> dict[str, list[tuple[int, set[str], bool]]]:
    """Per callee name, each src call's positional count, keywords and any unpacking."""
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    for tree in _modules().values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            unpacked = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, unpacked))
    return calls


@functools.cache
def _idle_defaults() -> dict[str, str]:
    """Each public defaulted parameter that no src call sets, or that every one does."""
    calls = _calls()
    idle: dict[str, str] = {}
    for tree in _modules().values():
        for qualified, node in _definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if "." in qualified:
                positional = positional[1:]  # self, bound by the call
            defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            for param in defaulted:
                passed = [param in keywords or unpacked or (
                              param in positional and positional.index(param) < count)
                          for count, keywords, unpacked in calls.get(node.name, [])]
                key = f"{qualified}({param})"
                if not any(passed):
                    idle[key] = "no src call sets it"
                elif all(passed):
                    idle[key] = "every src call sets it"
    return idle


def test_every_default_is_one_that_some_src_caller_relies_on():
    idle = {key: why for key, why in _idle_defaults().items() if key not in DEFAULTS_KEPT}
    assert not idle, f"defaults that src leaves idle: {idle}"


def test_kept_defaults_are_still_idle():
    assert set(_idle_defaults()) >= set(DEFAULTS_KEPT)


# Parameters that no body reads, and why each stays.
PARAMS_KEPT = {
    "make_framework(cfg)": "the benchmark's checks pass it positionally",
}


@functools.cache
def _unread_params() -> frozenset[str]:
    """``name(param)`` of each parameter, of any def or lambda in src, that its body never names.

    The fixtures package counts too.  A method's receiver is bound by
    the call, so it is not held against the body.
    """
    unread = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body if isinstance(item, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args]
            if id(node) in methods:
                params = params[1:]
            params += [a.arg for a in args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            named = {n.id for part in body for n in ast.walk(part) if isinstance(n, ast.Name)}
            name = getattr(node, "name", "<lambda>")
            unread.update(f"{name}({param})" for param in params if param not in named)
    return frozenset(unread)


def test_every_parameter_is_read():
    unread = sorted(_unread_params() - set(PARAMS_KEPT))
    assert not unread, f"parameters that their body never reads: {unread}"


def test_kept_params_are_still_unread():
    assert _unread_params() >= set(PARAMS_KEPT)
