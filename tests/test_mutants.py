"""The entries of tests/mutants.py still fit the code and the tests.

Running the mutants takes minutes; these checks take a moment, so an entry
that a change to src/ or to the tests has made stale shows in tier-1.
"""

from __future__ import annotations

import ast

from mutants import MUTANTS, ROOT


def _test_names(path: str) -> set[str]:
    """The node ids pytest collects from a test file, without parametrize ids:
    "path::test" for a module function, "path::Class::test" for a method.
    A file that is gone names no tests, so an entry that names one is stale."""
    file = ROOT / path
    if not file.exists():
        return set()
    tree = ast.parse(file.read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            names.add(f"{path}::{node.name}")
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            names.update(
                f"{path}::{node.name}::{method.name}"
                for method in node.body
                if isinstance(method, ast.FunctionDef) and method.name.startswith("test")
            )
    return names


def test_each_old_text_occurs_once():
    stale = [
        f"mutant {number} ({name}): {old.strip().splitlines()[0]!r} occurs {found} times"
        for number, (name, old, _, _) in enumerate(MUTANTS, 1)
        if (found := (ROOT / "src" / "memlit" / name).read_text().count(old)) != 1
    ]
    assert not stale, "\n".join(stale)


def test_each_named_test_exists():
    named = {test for *_, tests in MUTANTS for test in tests}
    collected = set().union(*(_test_names(path) for path in {test.split("::")[0] for test in named}))
    assert sorted(named - collected) == []
