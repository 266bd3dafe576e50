"""The shipped configs keep their output bytes.

tests/data/shipped_digests.json holds, for every configs/*.json, the sha256
of payload.json, of every CSV table and of manifest.json (report.json holds
the wall clock and stays out).  The tests run each config through the CLI
and compare: once in this process, and once in a child interpreter with one
OpenBLAS thread.  The matmul-heavy suites may round differently on another
numpy or BLAS kernel, so the file also records the numpy version and the
OpenBLAS core it was made with; a different environment fails with a message
saying so.

A change that means to move these bytes regenerates the file with

    PYTHONPATH=src python tests/test_shipped_digests.py

and says in CHANGES.md which digests moved and why.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from surfconv.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
BENCH_CONFIGS = ROOT / "bench" / "configs"
DIGESTS = Path(__file__).resolve().parent / "data" / "shipped_digests.json"


def openblas_core() -> str | None:
    """The OpenBLAS kernel numpy picked for this CPU, or None if it cannot be read."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def environment() -> dict:
    return {"numpy": np.__version__, "openblas_core": openblas_core()}


def run_digests(config: Path, out: Path) -> dict:
    """sha256 of every byte-stable output of one CLI run of `config`."""
    code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == 0, f"{config.name} exited {code}"
    names = ["payload.json", "manifest.json"] + sorted(p.name for p in out.glob("*.csv"))
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def digest_problems(tmp_path: Path) -> list[str]:
    """Every way the shipped configs' outputs, run under tmp_path, differ from
    the recorded digests; the environment is checked first."""
    recorded = json.loads(DIGESTS.read_text())
    here = environment()
    assert here == recorded["environment"], (
        f"digests were recorded under {recorded['environment']}, this is {here}: "
        "matmul rounding may differ, so the byte comparison does not apply here"
    )

    problems = []
    bench = sorted(p.name for p in BENCH_CONFIGS.glob("*.json"))
    shipped = sorted(p.name for p in CONFIGS.glob("*.json"))
    if bench != shipped:
        problems.append(f"bench/configs holds {bench}, configs holds {shipped}")
    for name in sorted(set(bench) & set(shipped)):
        if (BENCH_CONFIGS / name).read_bytes() != (CONFIGS / name).read_bytes():
            problems.append(f"bench/configs/{name} is not a byte copy of configs/{name}")

    if sorted(recorded["configs"]) != [Path(n).stem for n in shipped]:
        problems.append(f"digests cover {sorted(recorded['configs'])}, configs holds {shipped}")
    for stem, want in sorted(recorded["configs"].items()):
        got = run_digests(CONFIGS / f"{stem}.json", tmp_path / stem)
        for fname in sorted(set(want) | set(got)):
            if got.get(fname) != want.get(fname):
                problems.append(
                    f"{stem}: {fname} has digest {got.get(fname)}, recorded {want.get(fname)}"
                )
    return problems


def test_shipped_outputs_match_recorded_digests(tmp_path):
    problems = digest_problems(tmp_path)
    assert not problems, "\n".join(problems)


# a child interpreter: the same comparison, its problems as JSON on the last line
_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, {tests!r})
from test_shipped_digests import digest_problems
print(json.dumps(digest_problems(Path({out!r}))))
"""


def test_shipped_outputs_match_on_one_blas_thread(tmp_path):
    # OpenBLAS splits long products over its threads; the shipped bytes must not
    # depend on how many it has
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1")
    code = _CHILD.format(tests=str(ROOT / "tests"), out=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    problems = json.loads(proc.stdout.splitlines()[-1])
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {
            "environment": environment(),
            "configs": {
                p.stem: run_digests(p, Path(tmp) / p.stem)
                for p in sorted(CONFIGS.glob("*.json"))
            },
        }
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
