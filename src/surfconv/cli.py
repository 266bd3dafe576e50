"""Command-line front end: gen-matrix, run, report.

Exit codes: 0 all checks passed; 1 a check failed (or matrix generation gave
up); 2 the config or arguments are invalid, with a pointer to the offending
key, or an output cannot be written.  All files are written via
write-then-rename so a crash never leaves a half-written output, and
payload.json plus the CSV tables are byte-stable across reruns of the same
config and seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from .battery import ThresholdTooHighError, generate_matrix, battery_entry
from .rationals import frac_to_pair
from .schema import first_error
from .surface import CoefficientMatrix
from .suites import run_suite


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if dataclasses.is_dataclass(o) and not isinstance(o, type):
        # shallow: json recurses into the field values itself
        return {f.name: getattr(o, f.name) for f in dataclasses.fields(o)}
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _canonical_json(obj) -> str:
    """Sorted, indented JSON; NaN and Infinity, which JSON cannot hold, raise ValueError."""
    text = json.dumps(obj, sort_keys=True, indent=1, default=_json_default, allow_nan=False)
    return text + "\n"


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class OutputError(Exception):
    """An output file cannot be written."""


def _write_atomic(path: Path, text: str) -> None:
    """Write through a uniquely named temporary file in the target directory.

    The unique name keeps concurrent runs writing into one directory from
    renaming each other's half-written files.  mkstemp creates the file
    owner-only; it is opened up to 0644 so outputs stay shareable.  Any
    OSError is raised as OutputError.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            os.fchmod(fd, 0o644)
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write output {path}: {exc}") from exc


def _csv_cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv_text(columns, rows, preamble: str = "") -> str:
    """A CSV table of dict rows after `preamble`, which is written as is.

    The header is `columns`; a row with a key outside it raises ValueError.
    """
    buf = io.StringIO()
    buf.write(preamble)
    writer = csv.DictWriter(buf, columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows({c: _csv_cell(x) for c, x in row.items()} for row in rows)
    return buf.getvalue()


def _exponent_error(params: dict) -> str | None:
    """The error for the first params.p / params.p_list entry that is not a
    rational p >= 1: a smaller p lies outside the exponent square."""
    fields = [("$.params.p", params["p"])] if "p" in params else []
    fields += [(f"$.params.p_list[{i}]", s) for i, s in enumerate(params.get("p_list", []))]
    for where, text in fields:
        try:
            admissible = Fraction(text) >= 1
        except (ValueError, ZeroDivisionError):
            admissible = False
        if not admissible:
            return f"config invalid at {where}: {text!r} is not a rational p >= 1"
    return None


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# gen-matrix


def cmd_gen_matrix(args) -> int:
    try:
        matrix, report = generate_matrix(
            args.k, args.l, seed=args.seed, min_det_threshold=args.threshold
        )
    except ValueError as exc:
        return _fail(str(exc))
    except ThresholdTooHighError as exc:
        print(f"gen-matrix failed: {exc}", file=sys.stderr)
        return 1
    doc = {
        "matrix": matrix.to_json(),
        "seed": args.seed,
        "min_det_threshold": args.threshold,
        "min_abs_det": frac_to_pair(report.min_abs_det),
        "content_hash": matrix.content_hash(),
    }
    text = _canonical_json(doc)
    if args.out:
        _write_atomic(Path(args.out), text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# run


def _load_schema() -> dict:
    return json.loads(
        resources.files("surfconv").joinpath("data/config.schema.json").read_text()
    )


def _refuse_constant(literal: str):
    # json.loads accepts NaN, Infinity and -Infinity, which are not JSON and pass every bound
    raise ValueError(f"{literal} is not a JSON number")


def _resolve_matrix(config: dict, config_dir: Path, schema: dict):
    spec = config.get("matrix")
    if spec is None:
        return None, "none"
    if "battery" in spec:
        entry = battery_entry(spec["battery"])
        return entry.matrix, f"battery:{spec['battery']}"
    if "path" not in spec:
        return CoefficientMatrix.from_json(spec), "inline"
    # a relative path is read next to the config; an absolute one stands alone
    doc = json.loads((config_dir / spec["path"]).read_text())
    # a gen-matrix file wraps the matrix; either way it must pass the inline-matrix schema
    prefix, obj = "$", doc
    if isinstance(doc, dict) and "matrix" in doc:
        prefix, obj = "$.matrix", doc["matrix"]
    inline = next(s for s in schema["properties"]["matrix"]["oneOf"] if "entries" in s["required"])
    error = first_error(obj, inline)
    if error:
        where, message = error
        raise ValueError(f"{prefix}{where[1:]}: {message}")
    return CoefficientMatrix.from_json(obj), f"path:{spec['path']}"


def cmd_run(args) -> int:
    config_path = Path(args.config)
    try:
        config = json.loads(config_path.read_text(), parse_constant=_refuse_constant)
    except OSError as exc:
        return _fail(f"cannot read config: {exc}")
    except ValueError as exc:  # JSONDecodeError, or a literal _refuse_constant refused
        return _fail(f"config is not valid JSON: {exc}")

    schema = _load_schema()
    error = first_error(config, schema)
    if error:
        where, message = error
        return _fail(f"config invalid at {where}: {message}")

    if args.seed is not None:
        seed = args.seed
        if seed < 0:
            return _fail(f"--seed must be nonnegative, got {seed}")
    else:
        seed = int(config["seed"])

    if args.threads not in (None, 1):
        return _fail(f"--threads: only 1 is supported, got {args.threads}")
    suite = config["suite"]
    params = config.get("params", {})
    exponent_error = _exponent_error(params)
    if exponent_error:
        return _fail(exponent_error)

    try:
        matrix, matrix_note = _resolve_matrix(config, config_path.parent, schema)
    except KeyError as exc:
        return _fail(f"config invalid at $.matrix.battery: {exc.args[0]}")
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        where = "$.matrix.path" if "path" in config.get("matrix", {}) else "$.matrix"
        return _fail(f"config invalid at {where}: {exc}")

    t0 = time.perf_counter()
    try:
        result = run_suite(suite, matrix, params, seed)
    except (ValueError, KeyError) as exc:
        return _fail(f"suite {suite!r} rejected the configuration: {exc}")
    except ArithmeticError as exc:  # a number of the config overflows or underflows a float
        return _fail(f"suite {suite!r} rejected the configuration: {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0

    config_hash = _config_hash(config)
    out_dir = Path(args.out) if args.out else Path("runs") / f"{suite}-{config_hash[:8]}"

    payload_doc = {
        "suite": suite,
        "seed": seed,
        "config_hash": config_hash,
        "matrix": matrix.to_json() if matrix is not None else None,
        "params": params,
        "results": result.payload,
        "verdicts": result.verdicts,
        "sample_counts": result.sample_counts,
        "passed": result.passed,
    }
    try:
        payload_text = _canonical_json(payload_doc)
    except ValueError as exc:
        return _fail(f"suite {suite!r} produced a non-finite result: {exc}")
    _write_atomic(out_dir / "payload.json", payload_text)

    matrix_json = json.dumps(matrix.to_json(), sort_keys=True) if matrix is not None else "none"
    # the matrix JSON holds commas, so these comment lines bypass the CSV quoting
    preamble = f"# config_hash {config_hash}\n# matrix {matrix_json}\n"
    csv_names = []
    for name, rows in result.tables.items():
        fname = f"{name}.csv"  # a table's columns are its rows' keys
        _write_atomic(out_dir / fname, _csv_text(list(rows[0]), rows, preamble))
        csv_names.append(fname)

    # the one unpinned file: what varies between reruns, never a result
    _write_atomic(out_dir / "report.json", _canonical_json({"wall_clock_seconds": wall}))

    stable = ["payload.json"] + sorted(csv_names)
    manifest = {
        "config": config,
        "config_hash": config_hash,
        "seed": seed,
        "matrix": matrix_note,
        "files": {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in stable
        },
    }
    _write_atomic(out_dir / "manifest.json", _canonical_json(manifest))

    n_checks = len(result.verdicts)
    if result.passed:
        print(f"PASS {suite}: {n_checks}/{n_checks} checks passed ({out_dir})")
        return 0
    failing = [v for v in result.verdicts if not v.passed]
    print(f"FAIL {suite}: {n_checks - len(failing)}/{n_checks} checks passed ({out_dir})")
    for v in failing:
        print(f"FAIL {v.check_id}: {v.detail}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# report


def _object(required: dict) -> dict:
    return {"type": "object", "required": list(required), "properties": required}


_STRING, _BOOL, _NUMBER = {"type": "string"}, {"type": "boolean"}, {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_VERDICT = _object({"check_id": _STRING, "passed": _BOOL, "detail": _STRING})
_CURVE_ROW = _object({"delta": _POSITIVE, "p_num": _NUMBER, "p_den": _POSITIVE, "norm": _NUMBER,
                      "ratio": _NUMBER, "center_id": {"type": "integer"}})
# every field of a payload.json that cmd_report reads, with the values it can use
_RUN_FILE_SCHEMA = {
    **_object({"suite": _STRING, "passed": _BOOL,
               "verdicts": {"type": "array", "items": _VERDICT}}),
    "if": {"required": ["suite"], "properties": {"suite": {"const": "ball-scan"}}},
    "then": _object({"results": _object({"report": _object(
        {"rows": {"type": "array", "items": _CURVE_ROW}}
    )})}),
}


def cmd_report(args) -> int:
    root = Path(args.run_dir)
    if not root.is_dir():
        return _fail(f"not a directory: {root}")
    paths = sorted(root.glob("**/payload.json"))
    if not paths:
        return _fail(f"no payload.json found under {root}")

    docs = []
    for path in paths:  # every file is checked before any output is written
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            return _fail(f"cannot read run file {path}: {exc}")
        error = first_error(doc, _RUN_FILE_SCHEMA)
        if error:
            return _fail(f"run file {path} is not a run report: {error[0]}: {error[1]}")
        docs.append((path, doc))

    verdict_rows, curve_rows = [], []
    suites_seen, any_fail = [], False
    for path, doc in docs:
        run_id = str(path.parent.relative_to(root)) if path.parent != root else "."
        suites_seen.append((run_id, doc["suite"], doc["passed"]))
        for v in doc["verdicts"]:
            verdict_rows.append({"run": run_id, "suite": doc["suite"], "check_id": v["check_id"],
                                 "passed": v["passed"], "detail": v["detail"]})
            any_fail = any_fail or not v["passed"]
        if doc["suite"] == "ball-scan":
            for row in doc["results"]["report"]["rows"]:
                try:
                    p = row["p_num"] / row["p_den"]
                except OverflowError as exc:  # an integer p_num beyond the float range
                    return _fail(f"run file {path} holds a p that is not a float: {exc}")
                curve_rows.append({
                    "run": run_id, "delta": row["delta"], "log2_delta": math.log2(row["delta"]),
                    "p": p, "norm": row["norm"],
                    "log2_norm": math.log2(row["norm"]) if row["norm"] > 0 else float("nan"),
                    "ratio": row["ratio"], "center_id": row["center_id"],
                })

    # verdicts.csv is written even with no rows, so it states its header
    verdict_columns = ["run", "suite", "check_id", "passed", "detail"]
    _write_atomic(root / "verdicts.csv", _csv_text(verdict_columns, verdict_rows))
    if curve_rows:
        _write_atomic(root / "curves.csv", _csv_text(list(curve_rows[0]), curve_rows))

    lines = [f"overall: {'FAIL' if any_fail else 'PASS'}"]
    lines.append(f"runs: {len(suites_seen)}, checks: {len(verdict_rows)}")
    for run_id, suite, passed in suites_seen:
        lines.append(f"  {'PASS' if passed else 'FAIL'} {suite} ({run_id})")
    failing = [r for r in verdict_rows if not r["passed"]]
    if failing:
        lines.append("failing checks:")
        for r in failing:
            lines.append(f"  {r['run']}: {r['check_id']}: {r['detail']}")
    text = "\n".join(lines) + "\n"
    _write_atomic(root / "summary.txt", text)
    sys.stdout.write(text)
    return 1 if any_fail else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfconv",
        description="Numerical experiments for convolution bounds on graph surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-matrix", help="draw a random admissible coefficient matrix")
    gen.add_argument("--k", type=int, required=True, help="surface dimension (rows)")
    gen.add_argument("--l", type=int, required=True, help="codimension (columns)")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    gen.add_argument(
        "--threshold", type=int, default=1, help="minimal |det| over row submatrices"
    )
    gen.add_argument("--out", help="write JSON here instead of stdout")
    gen.set_defaults(func=cmd_gen_matrix)

    run = sub.add_parser("run", help="run one experiment suite from a JSON config")
    run.add_argument("--config", required=True, help="path to the suite config JSON")
    run.add_argument("--seed", type=int, help="override the config's seed")
    run.add_argument("--out", help="output directory (default runs/<suite>-<hash8>)")
    run.add_argument("--threads", type=int, help="accepted for compatibility; only 1 is allowed")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("report", help="merge finished runs into one summary")
    rep.add_argument("run_dir", help="directory scanned recursively for payload.json files")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OutputError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
