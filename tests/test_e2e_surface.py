"""The part of ``repro`` that ``benchmarks/e2e`` reaches into must keep resolving.

The benchmark files are frozen between benchmark PRs, so a rename or removal
in ``src`` that they import (or patch by attribute name, see
``layers.targets()``) breaks the benchmark of every later PR.  This scans
their source - without importing or running them - and asserts that every
``from repro... import name``, every ``import repro...`` and every
``(owner, "attribute", ...)`` instrumentation row still resolves.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
FILES = sorted(E2E.glob("*.py"))


def _resolve(module: str, name: str | None = None):
    """The object ``from module import name`` binds (or the module itself)."""
    mod = importlib.import_module(module)
    if name is None:
        return mod
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def _repro_imports(tree: ast.AST):
    """``(local name, module, imported name or None)`` of every repro import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield alias.asname or alias.name, node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.asname or alias.name, alias.name, None


def test_the_benchmark_directory_is_where_this_test_looks():
    assert {p.name for p in FILES} >= {"run.py", "harness.py", "layers.py", "workloads.py"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_repro_import_resolves(path):
    missing = []
    for _local, module, name in _repro_imports(ast.parse(path.read_text())):
        try:
            _resolve(module, name)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{module}:{name} ({exc})")
    assert not missing, f"{path.name} imports names that no longer exist: {missing}"


def test_every_instrumentation_target_resolves():
    """``layers.targets()`` rows are patched with ``setattr(owner, attribute)``."""
    tree = ast.parse((E2E / "layers.py").read_text())
    (targets,) = [
        n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "targets"
    ]
    owners = {local: _resolve(module, name) for local, module, name in _repro_imports(targets)}
    (returned,) = [n for n in ast.walk(targets) if isinstance(n, ast.Return)]
    rows = [
        (row.elts[0].id, row.elts[1].value)
        for row in returned.value.elts
        if isinstance(row, ast.Tuple)
    ]
    assert len(rows) >= 15  # the scan found the table, not an empty list

    def defines(owner, attribute) -> bool:
        if isinstance(owner, type):  # not the metaclass's (every class has type.__call__)
            return any(attribute in vars(klass) for klass in owner.__mro__)
        return hasattr(owner, attribute)

    missing = [
        f"{owner}.{attribute}" for owner, attribute in rows if not defines(owners[owner], attribute)
    ]
    assert not missing, f"layers.targets() patches attributes that no longer exist: {missing}"
