"""Static checks on the package source: every module imports in its top-level
block, every name it imports is used, every private module-level name it
defines is read somewhere in the package, and every public name, method or
property it defines is read by a run, an acceptance gate, a demo, the README
quickstart or the bench tracer.  Only parallel.py spawns seeded streams or
takes a sample spread."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "surfconv"


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


def names_read(tree: ast.AST) -> list[str]:
    """Every name the tree reads: a load, an attribute or a `from`-import."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append(node.id)
        elif isinstance(node, ast.Attribute):
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names]
    return found


def module_definitions(tree: ast.Module) -> list[tuple[ast.stmt, str]]:
    """(node, name) of every module-level function, class and assigned name."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node, node.name))
        elif isinstance(node, ast.Assign):
            found += [(node, t.id) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append((node, node.target.id))
    return found


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(file, line, name) of every private module-level function, class or
    constant that no source reads, by name or as an attribute.

    A name imported with `from ... import` counts as read; whether the
    importer uses it is the unused-import scan's question.
    """
    trees = {fname: ast.parse(source) for fname, source in sources.items()}
    read = {name for tree in trees.values() for name in names_read(tree)}
    return [
        (fname, node.lineno, name)
        for fname, tree in trees.items()
        for node, name in module_definitions(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def unread_public_names(sources: dict[str, str], outside: set[str]) -> list[tuple[str, int, str]]:
    """(file, line, name) of every public module-level name, and every public
    method or property of a module-level class, that no source reads and
    that is not in `outside`, the names read by code outside the sources.

    A read inside the name's own definition, such as a recursive call, does
    not count.  Like the private-name scan this goes by name alone, so a
    name defined twice counts as read for both definitions once either is.
    """
    trees = {fname: ast.parse(source) for fname, source in sources.items()}
    read = Counter(name for tree in trees.values() for name in names_read(tree))
    found = []
    for fname, tree in trees.items():
        defs = module_definitions(tree)
        defs += [
            (method, method.name)
            for node, _ in defs if isinstance(node, ast.ClassDef)
            for method in node.body if isinstance(method, ast.FunctionDef)
        ]
        found += sorted(
            (fname, node.lineno, name)
            for node, name in defs
            if not name.startswith("_") and name not in outside
            and read[name] == names_read(node).count(name)
        )
    return found


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


def test_scan_finds_an_unread_public_name():
    sources = {
        "a.py": "LIMIT = 3\nDEAD: int = 4\ndef helper():\n    return LIMIT\n"
        "def recurse(n):\n    return recurse(n - 1)\nclass Shape:\n    def area(self):\n"
        "        pass\n    @property\n    def size(self):\n        pass\n"
        "    def _private(self):\n        pass\ndef traced():\n    pass\n",
        "b.py": "from a import helper\nimport a\na.Shape().area()\n",
    }
    assert unread_public_names(sources, {"traced"}) == [
        ("a.py", 2, "DEAD"), ("a.py", 5, "recurse"), ("a.py", 11, "size"),
    ]


def _outside_reads() -> set[str]:
    """Names read by the demos, the acceptance gates, the README quickstart
    and the bench tracer.  The tracer also names its targets in strings
    such as "SurfaceMeasure.convolve_many", so each dotted part counts."""
    readme = (ROOT / "README.md").read_text()
    quickstart = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1]
    tracer = (ROOT / "bench" / "tracing.py").read_text()
    readers = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    readers += [(ROOT / "tests" / "test_acceptance.py").read_text(),
                quickstart.split("```", 1)[0], tracer]
    read = {name for source in readers for name in names_read(ast.parse(source))}
    read.update(
        part
        for node in ast.walk(ast.parse(tracer))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        for part in node.value.split(".")
    )
    return read


def test_package_has_no_unread_public_names():
    # what only unit tests read belongs in the tests, as an oracle, or nowhere
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = [f"{name}:{line}: {n}" for name, line, n in unread_public_names(sources, _outside_reads())]
    assert found == []


def sample_reductions(source: str) -> list[tuple[int, str]]:
    """(line, call) of every .var/.std call with ddof and every .spawn call:
    the spread and the stream split that seeded Monte Carlo reduces by."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            ddof = any(k.arg == "ddof" for k in node.keywords)
            if attr == "spawn" or (attr in ("var", "std") and ddof):
                found.append((node.lineno, attr))
    return found


def test_scan_finds_sample_reductions():
    source = "v.std(ddof=1)\nv.var()\nv.var(ddof=0)\nseq.spawn(4)\nnp.std(v, ddof=1)\n"
    assert sample_reductions(source) == [(1, "std"), (3, "var"), (4, "spawn"), (5, "std")]


def test_only_parallel_reduces_seeded_samples():
    # one seeded Monte Carlo path: parallel.seeded_mean spawns the streams and
    # takes every sample mean and spread
    found = [
        f"{path.name}:{line}: .{attr}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "parallel.py"
        for line, attr in sample_reductions(path.read_text())
    ]
    assert found == []
