"""Each module's ``__all__`` names only what the module defines."""

from __future__ import annotations

import importlib
import pkgutil

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
