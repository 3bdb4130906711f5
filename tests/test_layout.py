"""The package's import structure, read from its source with `ast`."""

import ast
from pathlib import Path

import hermitesof

PACKAGE = Path(hermitesof.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _package_imports(tree) -> set[str]:
    """The package modules that a module's import statements name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                out.update(a.name for a in node.names)
            elif node.level == 1 or (node.module or "").startswith("hermitesof."):
                out.add(node.module.rsplit(".", 1)[-1])
            elif node.module == "hermitesof":
                out.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("hermitesof."))
    return out & MODULES.keys()


def test_no_import_sits_inside_a_function_or_class():
    nested = []
    for name, tree in MODULES.items():
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested += [f"{name}.{scope.name}:{node.lineno}" for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested


def test_the_intra_package_import_graph_has_no_cycle():
    graph = {name: _package_imports(tree) for name, tree in MODULES.items()}
    assert graph["hermite"] >= {"stability"} and "hermite" not in graph["stability"]
    done, path = set(), []

    def visit(name):
        assert name not in path, " -> ".join(path + [name])
        if name in done:
            return
        path.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)
