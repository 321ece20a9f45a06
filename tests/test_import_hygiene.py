"""Every name a module of the package imports is used there.

A name counts as used when the module reads it, lists it in its
``__all__``, or marks its import line ``noqa: F401`` (the imports kept
only so that a profiler can patch them in place).  Code that moves between
modules tends to leave its imports behind; this check finds them with the
standard library's ``ast`` alone.
"""

from __future__ import annotations

import ast

import pytest

from conftest import PACKAGE_DIR

MODULES = sorted(PACKAGE_DIR.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never uses, each with its line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = alias.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_a_stale_import():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from .acpf import SweepResult, sweep_feeder as sweep\n"
        "from .network import feeder_topology  # noqa: F401\n"
        "__all__ = ['SweepResult']\n"
        "import json\n"
        "class C:\n"
        "    json: str\n"
        "def f(x: os.PathLike) -> float:\n"
        "    return sweep(x)\n"
    )
    assert unused_imports(source) == ["math (line 2)", "json (line 6)"]
