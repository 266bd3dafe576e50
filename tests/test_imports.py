"""Static checks on the package source: every module-level name it imports is used."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "surfconv"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that no Name node in the source reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom math import pi as tau\nsys.exit()\n"
    assert unused_imports(source) == [(2, "os"), (3, "tau")]


def test_package_has_no_unused_imports():
    # __init__.py imports to re-export, which this scan cannot tell from dead imports
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
