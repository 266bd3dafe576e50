#!/usr/bin/env python3
"""surfconv benchmark: time to verdict per workload, and a traced run per layer.

    python3 bench/run_bench.py --workload ball-scan-k3 [--seed N] [--seconds 35] [--trace 0|1]

Run from anywhere; the package is imported from `src/` next to this
directory (it need not be installed).  With `--trace 0` the workload's
configs run as sequential `surfconv run --threads 1` processes, one at a
time, in as many passes as fit in `--seconds`; the end-to-end metrics are
medians over passes.  With `--trace 1` one untraced pass runs as
processes, then the same configs run in this process through
`surfconv.cli.main` three times: a warm-up, a pass with span wrappers
installed (see `tracing.py`), and an untraced pass.  The per-layer metrics
come from the spans.

Every run is checked: exit code 0, every verdict true, and payload.json plus
the CSV tables byte-identical to the first run of the same config and seed.
A run that fails any check is counted in `failed`, never dropped.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Outputs go to `.bench_runs/` under the repository
root and are removed when the benchmark ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import tracing  # bench/ is on sys.path when this file runs as a script

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIGS = BENCH_DIR / "configs"
WORK_ROOT = ROOT / ".bench_runs"

HARD_LIMIT_S = 165.0  # every child is killed by then, so the benchmark ends within 180 s
SETUP_REPEATS = 3  # imports timed before the first pass, and again after the last
IMPORT_STMT = "import surfconv.cli, jsonschema"

# Workload -> shipped configs (copied into bench/configs), run in this order.
WORKLOADS = {
    "ball-scan-k3": ["ball_scan_banded"],
    "frequency-k3": ["lemma_banded", "plancherel_banded"],
    "short-suites": [
        "check_star",
        "typeset_3_5",
        "transform_paraboloid",
        "ineq6_parabola",
        "ball_scan_paraboloid",
        "restricted_paraboloid",
    ],
}

# Configs that always run at their own seed.  restricted-scan draws its
# test-set family from the seed, and the family sets the amount of work: over
# seeds 0-19 the suite took 0.8-8.0 s, so passing --seed would let the seed,
# not the code, set short-suites' wall time.
PINNED_SEED = {"restricted_paraboloid"}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "runs_ok_frac": "frac",
}


class BenchError(Exception):
    """The checkout cannot run the benchmark at all (no result is printed)."""


# ---------------------------------------------------------------------------
# child processes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SURFCONV_SEED", None)
    return env


def spawn(argv: list, log_path: Path, deadline: float) -> tuple[int, float, float]:
    """Run argv to completion: (exit code, wall seconds, max RSS in MB of this child).

    os.wait4 reports the reaped child's own rusage; RUSAGE_CHILDREN would keep
    a running maximum over every child reaped so far.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), os.kill,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child and reap it before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def warm_up(work: Path, deadline: float) -> None:
    """Import the CLI once in a fresh interpreter (this also compiles bytecode)."""
    code, _, _ = spawn([sys.executable, "-c", IMPORT_STMT], work / "setup-warmup.log", deadline)
    if code != 0:
        log = (work / "setup-warmup.log").read_text(errors="replace").strip()
        raise BenchError(f"cannot import surfconv.cli from {SRC}: {log.splitlines()[-1:]}")


def time_imports(n: int, work: Path, deadline: float) -> list:
    """Wall times of n fresh interpreters importing the CLI."""
    times = []
    for _ in range(n):
        code, wall, _ = spawn([sys.executable, "-c", IMPORT_STMT], work / "setup.log", deadline)
        if code != 0:
            raise BenchError("importing surfconv.cli failed after a successful warm-up")
        times.append(wall)
    return times


# ---------------------------------------------------------------------------
# outputs and their checks


def _cli_args(name: str, seed: int | None, out: Path) -> list:
    args = ["run", "--config", str(CONFIGS / f"{name}.json"), "--threads", "1",
            "--out", str(out)]
    if seed is None or name in PINNED_SEED:
        return args
    return args + ["--seed", str(seed)]


def digest(run_dir: Path) -> dict:
    """sha256 of payload.json and every CSV table of one run."""
    names = ["payload.json"] + sorted(p.name for p in run_dir.glob("*.csv"))
    return {n: hashlib.sha256((run_dir / n).read_bytes()).hexdigest()
            for n in names if (run_dir / n).is_file()}


def read_payload(run_dir: Path) -> dict | None:
    try:
        return json.loads((run_dir / "payload.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None


def verdicts_pass(payload: dict | None) -> bool:
    return bool(payload and payload["passed"] and all(v["passed"] for v in payload["verdicts"]))


def mc_estimates(payload: dict) -> list:
    """(estimate, stderr) of each L^q-norm and frequency-side Monte Carlo estimate.

    These are the estimators a variance change would move: lq_norm_mc (ball-scan
    norms) and the shell-frequency integral (lemma lhs, plancherel ratio).
    The ineq6 hit-rate estimates are left out: their relative variance swings
    by about a third between seeds.  Restricted-scan records no stderr.
    """
    res = payload["results"]
    suite = payload["suite"]
    if suite == "ball-scan":
        # rows repeat each (center, delta) norm once per p
        uniq = {(r["center_id"], r["delta"]): (r["norm"], r["stderr"])
                for r in res["report"]["rows"]}
        return list(uniq.values())
    if suite == "lemma-mc":
        return [(r["lhs"], r["stderr"]) for r in res["rows"]]
    if suite == "plancherel":
        return [(r["ratio"], r["stderr"]) for r in res["rows"]]
    return []


def mean_relvar(payloads: list) -> float:
    """Mean of (stderr / estimate)^2 over the nonzero MC estimates of the payloads."""
    rel = [(se / est) ** 2 for p in payloads for est, se in mc_estimates(p) if est != 0]
    return sum(rel) / len(rel) if rel else 0.0


class Gate:
    """Counts runs and failures; the first run of each config is the byte reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: dict = {}
        self.payloads: dict = {}
        self.problems: list = []

    def check(self, label: str, name: str, code: int, run_dir: Path) -> None:
        self.attempted += 1
        payload = read_payload(run_dir)
        files = digest(run_dir)
        self.reference.setdefault(name, files)
        if payload is not None:
            self.payloads.setdefault(name, payload)
        problem = None
        if code != 0:
            problem = f"exit code {code}"
        elif not verdicts_pass(payload):
            problem = "a verdict is false"
        elif files != self.reference[name]:
            problem = "payload or CSV bytes differ from the first run"
        if problem:
            self.failed += 1
            self.problems.append(f"{label} {name}: {problem}")


# ---------------------------------------------------------------------------
# untraced passes, as processes


def run_pass(configs: list, seed: int | None, work: Path, deadline: float, gate: Gate,
             label: str) -> tuple[float, float]:
    """One pass of the workload as sequential CLI processes: (wall s, peak RSS MB)."""
    out = work / label
    out.mkdir(parents=True)
    runs = []
    t0 = time.perf_counter()
    for name in configs:
        argv = [sys.executable, "-m", "surfconv"] + _cli_args(name, seed, out / name)
        code, _, rss = spawn(argv, out / f"{name}.log", deadline)
        runs.append((name, code, rss))
    wall = time.perf_counter() - t0
    for name, code, _ in runs:
        gate.check(label, name, code, out / name)
    return wall, max(rss for _, _, rss in runs)


def measure(configs: list, seed: int | None, seconds: float, work: Path, deadline: float,
            gate: Gate) -> dict:
    """Passes until the next one would end past `seconds`; at least one."""
    warm_up(work, deadline)
    setup = time_imports(SETUP_REPEATS, work, deadline)
    walls, rss = [], []
    t_start = time.monotonic()
    while not gate.failed:
        wall, peak = run_pass(configs, seed, work, deadline, gate, f"pass{len(walls)}")
        walls.append(wall)
        rss.append(peak)
        next_end = time.monotonic() + statistics.median(walls)
        if next_end - t_start > seconds or next_end > deadline:
            break
    if deadline - time.monotonic() > 10 * SETUP_REPEATS:
        setup += time_imports(SETUP_REPEATS, work, deadline)
    wall_s = statistics.median(walls)
    print(f"passes: {len(walls)}; wall per pass (s): {', '.join(f'{w:.3f}' for w in walls)}")
    print(f"setup per import (s): {', '.join(f'{t:.3f}' for t in setup)}")
    # Reported, not gated: it follows the seed by 15-25% (see README.md).
    print(f"mc_relvar_x_s = {mean_relvar(list(gate.payloads.values())) * wall_s:.6g} s")
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(rss),
        "runs_ok_frac": 1.0 - gate.failed / gate.attempted,
    }


# ---------------------------------------------------------------------------
# traced run, in process


def run_in_process(cli, configs: list, seed: int | None, work: Path, gate: Gate,
                   label: str) -> float:
    """The workload's configs through cli.main in this process: wall seconds."""
    out = work / label
    out.mkdir(parents=True)
    codes = []
    t0 = time.perf_counter()
    for name in configs:
        with open(out / f"{name}.log", "w") as log, contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            try:
                codes.append(cli.main(_cli_args(name, seed, out / name)))
            except Exception:  # a crash is a failed run, like a nonzero exit code
                traceback.print_exc()
                codes.append("traceback")
    wall = time.perf_counter() - t0
    for name, code in zip(configs, codes):
        gate.check(label, name, code, out / name)
    return wall


def src_loc() -> int:
    return sum(p.read_bytes().count(b"\n") for p in (SRC / "surfconv").glob("*.py"))


def trace(configs: list, seed: int | None, work: Path, deadline: float, gate: Gate) -> dict:
    warm_up(work, deadline)
    cli_wall, _ = run_pass(configs, seed, work, deadline, gate, "untraced-cli")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import jsonschema  # noqa: F401  (imported by `surfconv run`; part of set-up)
    import surfconv.cli as cli
    import_s = time.perf_counter() - t0

    # The first in-process pass also warms the allocator and lazy state, which
    # makes later passes faster; overhead compares the traced pass with the
    # untraced pass that follows it.
    run_in_process(cli, configs, seed, work, gate, "warm-inproc")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_in_process(cli, configs, seed, work, gate, "traced-inproc")
    finally:
        tracer.uninstall()
    untraced = run_in_process(cli, configs, seed, work, gate, "untraced-inproc")
    metrics = {"cli.import_s": import_s}
    metrics.update(tracing.layer_metrics(tracing.summarize(tracer.spans)))
    metrics["trace.overhead_s"] = traced - untraced
    metrics["mc.mean_relvar"] = mean_relvar(list(gate.payloads.values()))
    metrics["mc.relvar_x_s"] = metrics["mc.mean_relvar"] * cli_wall
    metrics["repo.src_loc"] = src_loc()
    print(f"in-process wall (s): untraced {untraced:.3f}, traced {traced:.3f}; "
          f"spans: {len(tracer.spans)}")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="passed as `surfconv run --seed`; default: each config's own seed")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measure untraced passes for this long (default 35)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    configs = WORKLOADS[args.workload]
    if not (SRC / "surfconv" / "cli.py").is_file():
        print(f"error: no surfconv package under {SRC}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    gate = Gate()
    try:
        if args.trace:
            values = trace(configs, args.seed, work, deadline, gate)
            units = {name: tracing.unit_of(name) for name in values}
        else:
            values = measure(configs, args.seed, args.seconds, work, deadline, gate)
            units = END_TO_END_UNITS
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in gate.problems:
        print(f"FAILED {problem}")
    print(f"workload {args.workload}, seed {args.seed}: {gate.attempted} runs, "
          f"{gate.failed} failed, runs_failed_frac {gate.failed / gate.attempted:.4f} frac, "
          f"{time.monotonic() - started:.1f} s in total")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
