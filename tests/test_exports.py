"""Each module's ``__all__`` names only what the module defines, no
private helper is left without a caller, and every file opened as text
names its encoding."""

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


def _unnamed_encodings(source: str) -> list[str]:
    """The text-mode ``open``, ``Path.open``, ``read_text`` and
    ``write_text`` calls in ``source`` that name no ``encoding``, each as
    ``line: code``.  A mode that is not a string literal counts as text;
    ``os.open`` takes flags, not a mode, and is no such call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or any(
                kw.arg == "encoding" for kw in node.keywords):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = node.args[1:2]
        elif isinstance(func, ast.Attribute) and func.attr == "open" and not (
                isinstance(func.value, ast.Name) and func.value.id == "os"):
            mode = node.args[:1]
        elif isinstance(func, ast.Attribute) and func.attr in ("read_text",
                                                               "write_text"):
            mode = []
        else:
            continue
        mode += [kw.value for kw in node.keywords if kw.arg == "mode"]
        if not (mode and isinstance(mode[0], ast.Constant)
                and "b" in mode[0].value):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_the_encoding_check_finds_each_kind_of_call():
    source = "\n".join([
        "open(p)", "open(p, 'w')", "open(p, mode)", "p.open()",
        "p.open(mode='a')", "p.read_text()", "p.write_text(s)",
        "open(p, 'rb')", "p.open('wb')", "open(p, mode='rb')",
        "os.open(p, flags)", "open(p, encoding='utf-8')",
        "p.open('w', encoding='utf-8')", "p.read_text(encoding='utf-8')"])
    assert [line.split(":")[0] for line in _unnamed_encodings(source)] == \
        ["1", "2", "3", "4", "5", "6", "7"]


@pytest.mark.parametrize("path", sorted(
    Path(tagrec.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_text_mode_open_names_its_encoding(path):
    """Else the locale picks it, and a non-UTF-8 locale reads other text."""
    assert _unnamed_encodings(path.read_text(encoding="utf-8")) == []
