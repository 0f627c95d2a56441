"""The test suites define each class and function name once per scope.

A second `class TestX` or `def test_x` in one scope replaces the first, and
pytest then never collects the tests of the first one. The modules are only
parsed, never imported.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("bench/test_*.py"))
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def duplicate_definitions(source: str) -> list[str]:
    """'scope: name' for every class or function name defined again in the same scope."""
    found = []
    pending = [("<module>", ast.parse(source))]
    while pending:
        scope, node = pending.pop()
        seen = set()
        for child in node.body:
            if isinstance(child, DEFINITIONS):
                if child.name in seen:
                    found.append(f"{scope}: {child.name}")
                seen.add(child.name)
                pending.append((f"{scope}.{child.name}", child))
    return found


def test_the_scan_finds_a_second_class():
    source = "class A:\n    def f(self): pass\n\nclass A:\n    def f(self): pass\n    def f(self): pass\n"
    assert sorted(duplicate_definitions(source)) == ["<module>.A: f", "<module>: A"]


def test_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"test_mps.py", "test_optimizer.py", "test_bench.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_name_is_defined_twice_in_one_scope(path):
    assert duplicate_definitions(path.read_text()) == []
