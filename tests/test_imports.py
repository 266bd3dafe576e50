"""Static checks on the package source: every module imports in its top-level
block, every name it or a test imports is used, every private module-level
name it defines is read somewhere in the package, and every public name,
method or property it defines is read by a run, an acceptance gate, a demo,
the README quickstart or the bench tracer, as is every field of its
dataclasses.  Only parallel.py builds or spawns seeded streams or takes a
sample spread, and only suites.py gives a sampling-plan value a default."""

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


def test_tests_and_demos_have_no_unused_imports():
    # a dead import in a test or a demo would count as a read and keep a src/
    # name past the guards below
    found = [
        f"{path.parent.name}/{path.name}:{line}: {name}"
        for folder in ("tests", "demos")
        for path in sorted((ROOT / folder).glob("*.py"))
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


def dataclass_fields(tree: ast.Module) -> list[tuple[ast.AnnAssign, str]]:
    """(node, "Class.field") of every field of a module-level dataclass."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            found += [
                (item, f"{node.name}.{item.target.id}")
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
    return found


def unread_fields(
    sources: dict[str, str], outside: set[str], exempt: set[str]
) -> list[tuple[str, int, str]]:
    """(file, line, "Class.field") of every dataclass field that no source
    reads as an attribute and that is not in `outside`.

    A constructor keyword writes a field and does not count.  Classes in
    `exempt` are skipped.  Like the name scans this goes by name alone, so
    a field whose name is read as any attribute anywhere, such as `rows` or
    `y`, passes.
    """
    trees = {fname: ast.parse(source) for fname, source in sources.items()}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    } | outside
    return [
        (fname, node.lineno, name)
        for fname, tree in trees.items()
        for node, name in dataclass_fields(tree)
        if name.split(".")[0] not in exempt and name.split(".")[1] not in read
    ]


# cli._json_default encodes these, reading every field through dataclasses.fields
ENCODED = {"Verdict", "ScalingReport", "ScanReport"}


def test_scan_finds_an_unread_field():
    # Report.peak is named only by its constructor keyword; Report.rows is read
    # as an attribute of another object, which by name is enough; Verdict is skipped
    sources = {
        "a.py": "from dataclasses import dataclass\n@dataclass(frozen=True)\nclass Report:\n"
        "    peak: float\n    rows: list\n@dataclass\nclass Verdict:\n    detail: str\n"
        "def make():\n    return Report(peak=1.0, rows=[])\n",
        "b.py": "import a\ndef count(table):\n    return len(table.rows) + len(a.make().__dict__)\n",
    }
    assert unread_fields(sources, set(), ENCODED) == [("a.py", 4, "Report.peak")]


def test_package_has_no_unread_fields():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unread = unread_fields(sources, _outside_reads(), ENCODED)
    found = [f"{name}:{line}: {n}" for name, line, n in unread]
    assert found == []


def is_plan_parameter(name: str) -> bool:
    """Whether a parameter or field names a sampling-plan value: a seed, a
    config, a count n_*, a grid resolution or a cell count."""
    return name in ("seed", "cfg", "resolution", "cells") or name.startswith("n_")


def plan_defaults(source: str) -> list[tuple[int, str]]:
    """(line, name) of every plan parameter that has a default: a function
    argument, positional or keyword-only, or a dataclass field."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [(a.lineno, a.arg) for a in defaulted if is_plan_parameter(a.arg)]
    found += [
        (node.lineno, name)
        for node, name in dataclass_fields(tree)
        if node.value is not None and is_plan_parameter(name.split(".")[1])
    ]
    return sorted(found)


def test_scan_finds_a_plan_default():
    source = (
        "from dataclasses import dataclass\n@dataclass\nclass Plan:\n    seed: int = 1\n"
        "    n_y: int\n    label: str = 'x'\n"
        "def run(cfg=None, n=3, *, cells=8, resolution, n_min: int = -2, mode='a'):\n    pass\n"
        "def draw(rng, n_samples, seed=0):\n    pass\n"
    )
    assert plan_defaults(source) == [
        (4, "Plan.seed"), (7, "cells"), (7, "cfg"), (7, "n_min"), (9, "seed"),
    ]


def test_only_the_suites_choose_a_plan():
    # a run's seeds, sample counts, node counts and grid sizes come from its
    # config, read by its suite in suites.py; no estimator falls back to one
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "suites.py"
        for line, name in plan_defaults(path.read_text())
    ]
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


STREAM_NAMES = ("PCG64", "SeedSequence", "default_rng")


def random_streams(source: str) -> list[tuple[int, str]]:
    """(line, name) of every use of PCG64, SeedSequence, default_rng or
    np.random.Generator, as a name or an attribute, annotations included,
    and of every name imported from numpy.random: the pieces a random
    stream is built from."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            found += [(node.lineno, a.name) for a in node.names]
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in STREAM_NAMES or (
            name == "Generator" and isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute) and node.value.attr == "random"
        ):
            found.append((node.lineno, name))
    return sorted(found)


def test_scan_finds_random_streams():
    source = (
        "import numpy as np\nfrom numpy.random import PCG64\n"
        "g = np.random.Generator(PCG64(np.random.SeedSequence(1)))\n"
        "def draw(rng: np.random.Generator, Generator=None):\n    return np.random.default_rng(2)\n"
    )
    assert random_streams(source) == [
        (2, "PCG64"), (3, "Generator"), (3, "PCG64"), (3, "SeedSequence"), (4, "Generator"),
        (5, "default_rng"),
    ]


def test_only_parallel_builds_random_streams():
    # one stream constructor: parallel.rng pins the bit generator, so
    # seeding is decided in one place
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "parallel.py"
        for line, name in random_streams(path.read_text())
    ]
    assert found == []
