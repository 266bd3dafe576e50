"""The README quickstart runs as printed, and every name the demos import
from the package resolves in the module it names."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quickstart_runs_and_prints_its_comments(capsys):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md quickstart", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["True", "ExponentPair(inv_p=Fraction(5, 7), inv_q=Fraction(2, 7))"]
    assert f"# {lines[1]}" in block


def test_demo_imports_resolve():
    # the demos run for seconds to minutes, so only their imports are checked
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
