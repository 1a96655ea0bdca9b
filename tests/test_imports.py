"""Every module-level import in the package is used by its module, every
private module-level or class-level name is used somewhere in the package,
and every public module-level function or class is reachable from the
package, the demos or the benchmark harness, or computes an object the
paper names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "forestalg"


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


# public definitions that nothing outside the tests calls, each kept because
# it computes an object of the paper (or is the package's cache reset)
PAPER_OBJECTS = {
    "__init__.clear_caches":
        "the package's cache reset: answers must not depend on the caches",
    "keel.pi_from_d": "the change of basis from the divisors D_S to P_S",
    "keel.d_from_pi": "the change of basis from the generators P_S to D_S",
    "lambda_alg.basic_forest_complex_homology":
        "the homology of the basic forests under the Whitney differential",
    "operad.eta_split_roundtrip": "eta_f after its splitting is the identity",
    "poset_homology.keystone_cochain":
        "the keystone cochain of a tree, dual to its cycle",
    "series.verify_connected_monomial_equation":
        "the functional equation of the connected-monomial series C = log B",
}


def _unreached_public_definitions() -> set[str]:
    """module.name of each public module-level function or class of the
    package that no code under src/, demos/ or perfbench/ names outside
    its own definition."""
    references: dict[str, list[ast.AST]] = {}
    for top in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None:
                    references.setdefault(name, []).append(node)
    unreached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                inside = {id(n) for n in ast.walk(node)}
                if all(id(ref) in inside
                       for ref in references.get(node.name, [])):
                    unreached.add(f"{path.stem}.{node.name}")
    return unreached


def test_public_definitions_are_reachable_or_paper_objects():
    unreached = _unreached_public_definitions()
    assert sorted(unreached - PAPER_OBJECTS.keys()) == []
    # an entry whose name is gone, or that now has a caller, is stale
    assert sorted(PAPER_OBJECTS.keys() - unreached) == []
