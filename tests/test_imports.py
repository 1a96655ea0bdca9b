"""Every module-level import in the package is used by its module, and every
private module-level or class-level name is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "forestalg"


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module):
    """(name, node) of each module-level and class-level definition."""
    scopes = [tree.body]
    while scopes:
        for node in scopes.pop():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield node.name, node
                if isinstance(node, ast.ClassDef):
                    scopes.append(node.body)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield target.id, node


def test_no_unused_private_helpers():
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    references: dict[str, list[ast.AST]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and _private(name):
                references.setdefault(name, []).append(node)
    definitions = [(name, node) for tree in trees
                   for name, node in _definitions(tree) if _private(name)]
    assert definitions
    unused = []
    for name, node in definitions:
        inside = {id(n) for n in ast.walk(node)}  # the definition itself
        if all(id(ref) in inside for ref in references.get(name, [])):
            unused.append(f"{name} (line {node.lineno})")
    assert unused == []
