"""The demos use only names the package defines, and every demo runs."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _package_imports(tree: ast.Module):
    """(module, name) for each ``from forestalg[.<mod>] import <name>``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "forestalg"):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = list(_package_imports(ast.parse(path.read_text())))
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), \
            f"{path.name}: {module}.{name}"


def _run(path: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


KEEL_DEMO = ROOT / "demos" / "04_keel_ring_and_bockstein.py"


def test_keel_demo_runs():
    _run(KEEL_DEMO)


@pytest.mark.parametrize("path", [p for p in DEMOS if p != KEEL_DEMO],
                         ids=lambda p: p.name)
def test_demo_runs(path):
    _run(path)
