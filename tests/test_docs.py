"""The README quickstart runs as printed, the fast demos run, every name the
demos import from the package resolves in the module it names, and so does
every function the bench tracer wraps and every private name the module
docstrings and the README cite.  Every CSV the README names is written by
some run, and every batch size it quotes is the kernel's."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from surfconv import convolution
from surfconv.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quickstart_runs_and_prints_its_comments(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quickstart", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["True", "ExponentPair(inv_p=Fraction(5, 7), inv_q=Fraction(2, 7))"]
    assert f"# {lines[1]}" in block


@pytest.mark.parametrize(
    "name", ["ball_scaling", "exponent_regions", "frequency_lemma", "surface_checks"]
)
def test_fast_demo_runs(name, tmp_path):
    # each takes under a second; plane_transform_tour takes about a minute and is left out
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_demo_imports_resolve():
    # every demo, plane_transform_tour too, whose run is too slow for this suite
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    missing = []
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("surfconv"):
                assert node.module != "surfconv", f"{path.name} imports from the bare package"
                module = importlib.import_module(node.module)
                missing += [
                    f"{path.name}: {node.module}.{a.name}"
                    for a in node.names if not hasattr(module, a.name)
                ]
    assert missing == []


def test_bench_tracer_targets_resolve():
    # Tracer.install raises on a missing attribute, so a deleted target would
    # only show when the benchmark runs with --trace 1
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = []
    for module_name, path, _, _ in tracing.TARGETS:
        target = importlib.import_module(module_name)
        for attr in path.split("."):
            target = getattr(target, attr, None)
        if not callable(target):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def resolves(module_name, name):
    """name is an attribute of the package module, or of one of the classes it defines."""
    module = importlib.import_module(f"surfconv.{module_name}")
    classes = [v for v in vars(module).values()
               if isinstance(v, type) and v.__module__ == module.__name__]
    return any(hasattr(owner, name) for owner in [module, *classes])


def test_private_names_in_docs_resolve():
    # a private name a module docstring cites, and every `module._name` in the README,
    # must still exist after a rename or a deletion
    modules = sorted(p.stem for p in (ROOT / "src" / "surfconv").glob("*.py"))
    cited = []
    for name in modules:
        doc = ast.get_docstring(ast.parse((ROOT / "src" / "surfconv" / f"{name}.py").read_text()))
        cited += [(name, n) for n in re.findall(r"(?<![\w.])_[A-Za-z_]\w*", doc or "")]
    readme = (ROOT / "README.md").read_text()
    cited += re.findall(rf"\b({'|'.join(modules)})\.(_\w+)", readme)
    assert cited
    assert sorted({f"{m}.{n}" for m, n in cited if not resolves(m, n)}) == []


def test_readme_csv_names_are_written(tmp_path):
    # a shipped config writes the tables its digests record; report writes the rest
    readme = (ROOT / "README.md").read_text()
    named = set(re.findall(r"`(\w+\.csv)`", readme))
    assert named
    digests = json.loads((ROOT / "tests" / "data" / "shipped_digests.json").read_text())
    written = {f for files in digests["configs"].values() for f in files if f.endswith(".csv")}
    run = {"suite": "ball-scan", "passed": True, "verdicts": [], "results": {"report": {"rows": [
        {"delta": 0.5, "p_num": 2, "p_den": 1, "norm": 1.0, "ratio": 1.0, "center_id": 0}
    ]}}}
    (tmp_path / "payload.json").write_text(json.dumps(run))
    assert main(["report", str(tmp_path)]) == 0
    written |= {p.name for p in tmp_path.glob("*.csv")}
    assert sorted(named - written) == []


def test_readme_batch_figures_are_the_kernel_batch():
    # every figure of 1 000 or more in a sentence with the word "batch", in the README
    # and in the kernel module's docstring
    text = " ".join(((ROOT / "README.md").read_text() + convolution.__doc__).split())
    sentences = [s for s in re.split(r"(?<=\.) ", text) if re.search(r"\bbatch\b", s)]
    figures = [int(re.sub(r"\D", "", f)) for s in sentences
               for f in re.findall(r"\b\d{1,3}(?:[ ,]\d{3})+\b|\b\d{4,}\b", s)]
    assert figures and set(figures) == {convolution._BATCH_POINTS}
