"""Every name that ``bench/tracing.py`` wraps exists in the package, so a
refactor that drops or renames one fails here rather than in a traced
benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_names() -> list[tuple[str, str, str]]:
    """``TRACED`` read from the tracer's source, without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED")


@pytest.mark.parametrize("name, module, attr", traced_names())
def test_traced_name_resolves(name, module, attr):
    owner = importlib.import_module(f"spantreecover.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name
