"""The package imports nothing beyond the stdlib, numpy and requests."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "requests", "tagrec"}
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tagrec")
                 .glob("*.py"))


def imported_modules(tree: ast.Module):
    """The top-level name of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "backends.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_numpy_or_requests(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(set(imported_modules(tree)) - ALLOWED) == []
