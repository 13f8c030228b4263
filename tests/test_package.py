"""Tests for the package's public namespace."""

import ast
import types
from pathlib import Path

import taalkit

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Acceptance criterion 2 checks these against its brute-force oracle.
CALLED_ONLY_BY_TESTS = {"nw_score", "lcs_baseline_score"}


def test_every_exported_name_resolves():
    missing = [name for name in taalkit.__all__ if not hasattr(taalkit, name)]
    assert missing == []
    assert len(set(taalkit.__all__)) == len(taalkit.__all__)


def test_star_import_binds_no_module_and_no_private_name():
    namespace: dict = {}
    exec("from taalkit import *", namespace)
    del namespace["__builtins__"]
    assert namespace
    assert [k for k, v in namespace.items() if isinstance(v, types.ModuleType)] == []
    assert [k for k in namespace if k.startswith("_")] == []


def test_every_name_the_demos_import_is_exported():
    assert DEMOS
    imported = {
        alias.name
        for demo in DEMOS
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "taalkit" and node.level == 0
        for alias in node.names
    }
    assert imported
    assert sorted(imported - set(taalkit.__all__)) == []


def test_every_exported_name_has_a_caller_outside_the_tests():
    sources = [p for p in sorted((ROOT / "src" / "taalkit").glob("*.py")) if p.name != "__init__.py"]
    sources += DEMOS + sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(taalkit.__all__) - used - CALLED_ONLY_BY_TESTS) == []
