"""The test modules define each name once.

pytest collects a module's namespace, so of two top-level functions or
classes with one name, or two methods with one name in a class, it keeps
the last and drops the first without a word.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _repeated(body: list[ast.stmt]) -> list[str]:
    defined = Counter(node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    return sorted(name for name, count in defined.items() if count > 1)


def test_no_module_or_class_defines_a_name_twice():
    repeated = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        repeated += [f"{path.name}::{name}" for name in _repeated(tree.body)]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                repeated += [f"{path.name}::{node.name}::{name}" for name in _repeated(node.body)]
    assert repeated == []


def test_a_repeated_name_is_found():
    tree = ast.parse("class TestA:\n    def test(self): pass\n    def test(self): pass\nclass TestA: pass\n")
    assert _repeated(tree.body) == ["TestA"] and _repeated(tree.body[0].body) == ["test"]
