"""Static checks on the package source: every module imports in its top-level
block, every name it imports is used, and every private module-level name it
defines is read somewhere in the package."""

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
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def test_package_imports_only_at_module_level():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert found == []


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(file, line, name) of every private module-level function, class or
    constant that no source reads, by name or as an attribute.

    A name imported with `from ... import` counts as read; whether the
    importer uses it is the unused-import scan's question.
    """
    defined, read = [], set()
    for fname, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [
                (fname, node.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return [entry for entry in defined if entry[2] not in read]


def test_scan_finds_an_unread_private_name():
    sources = {
        "a.py": "_USED = 1\n_DEAD: int = 2\ndef _helper():\n    return _USED\nclass _Gone:\n    pass\n"
        "def _method_only():\n    pass\n__all__ = []\n",
        "b.py": "from a import _helper\nimport a\na._method_only()\n",
    }
    assert unread_private_names(sources) == [("a.py", 2, "_DEAD"), ("a.py", 5, "_Gone")]


def test_package_has_no_unread_private_names():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = [f"{name}:{line}: {n}" for name, line, n in unread_private_names(sources)]
    assert found == []
