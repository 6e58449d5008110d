"""Each module's ``__all__`` names only what the module defines, and no
private helper is left without a caller."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import tagrec

MODULES = sorted(m.name for m in pkgutil.iter_modules(tagrec.__path__, "tagrec.")
                 if not m.ispkg)


def test_modules_found():
    assert "tagrec.backends" in MODULES and "tagrec.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})


def test_star_import_of_the_package():
    namespace: dict = {}
    exec("from tagrec import *", namespace)
    assert {"load_taxonomy", "build_index", "rerank_record", "top_k"} <= set(namespace)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_defs_and_uses():
    """The private functions, methods and classes defined in ``src/tagrec``,
    and how often each name occurs there in code: as a definition, a name,
    an attribute or an import.

    A name is private when it starts with ``_`` and is no dunder; every
    method of a private class but its dunders counts as private too.
    """
    defined: set[str] = set()
    uses: Counter = Counter()
    for path in sorted(Path(tagrec.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                uses[node.name] += 1
                if _private(node.name):
                    defined.add(node.name)
                if isinstance(node, ast.ClassDef) and _private(node.name):
                    defined.update(
                        item.name for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.endswith("__"))
            elif isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif isinstance(node, ast.alias):
                uses[node.name] += 1
    return defined, uses


def test_no_private_helper_is_left_without_a_caller():
    """A shrink pass that drops a helper's last caller drops the helper too."""
    defined, uses = _private_defs_and_uses()
    assert {"_tally", "request_of"} <= defined
    assert sorted(name for name in defined if uses[name] < 2) == []
