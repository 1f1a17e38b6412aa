"""Every package module uses each name it imports, and imports it once.

``__init__.py`` is skipped: its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spantreecover"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def import_problems(source: str) -> list[str]:
    """Names bound by an import statement and never read, or bound by more
    than one import statement."""
    tree = ast.parse(source)
    bound: dict[str, list[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound.setdefault(name, []).append(node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    problems = []
    for name, lines in sorted(bound.items()):
        if name not in read:
            problems.append(f"{name} (line {lines[0]}) is never used")
        if len(lines) > 1:
            problems.append(f"{name} is imported on lines {lines}")
    return problems


def test_import_problems_are_found():
    source = "import os\nfrom math import inf, pi\nfrom math import pi\nprint(pi)\n"
    assert import_problems(source) == [
        "inf (line 2) is never used",
        "os (line 1) is never used",
        "pi is imported on lines [2, 3]",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    assert import_problems((PACKAGE / module).read_text(encoding="utf-8")) == []
