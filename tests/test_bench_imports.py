"""The benchmark scripts import only names the package still has.

The benchmark runs from its own checkout, so an API trim that drops a
name it imports would break it without failing any other test here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def imports_from_the_package():
    """(script, module, name) for each name a bench script imports from wcifano."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wcifano":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "wcifano":
                        yield path.name, alias.name, None


def test_every_name_the_benchmark_imports_resolves():
    found = list(imports_from_the_package())
    assert {script for script, _, _ in found} >= {"layers.py", "screen_pass.py"}
    for script, module, name in found:
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), f"{script}: from {module} import {name}"
