"""End-to-end CLI behavior: exit codes, output files, determinism."""

import csv
import hashlib
import inspect
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from surfconv.cli import _load_schema, main
from surfconv.schema import first_error
from surfconv.suites import SUITES, SuiteResult, Verdict, run_suite


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def checkstar_config(tmp_path, **overrides):
    doc = {"suite": "check-star", "seed": 7}
    doc.update(overrides)
    return write_config(tmp_path / "config.json", doc)


def run_cli(cfg, out):
    return main(["run", "--config", cfg, "--out", str(out)])


def ballscan_config(tmp_path, tolerance, name="bs.json"):
    return write_config(
        tmp_path / name,
        {
            "suite": "ball-scan",
            "seed": 3,
            "matrix": {"battery": "paraboloid-2-1"},
            "params": {
                "deltas": [0.125, 0.0625, 0.03125],
                "n_tube": 500,
                "n_centers": 1,
                "resolution": 128,
                "tolerance": tolerance,
            },
        },
    )


class TestRun:
    def test_pass_run_writes_all_outputs(self, tmp_path, capsys):
        cfg = checkstar_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli(cfg, out) == 0
        assert capsys.readouterr().out.startswith("PASS check-star")
        for name in ("payload.json", "report.json", "manifest.json", "star.csv"):
            assert (out / name).exists(), name

        payload = json.loads((out / "payload.json").read_text())
        assert payload["passed"] is True
        assert payload["suite"] == "check-star"

        report = json.loads((out / "report.json").read_text())
        assert report["wall_clock_seconds"] > 0
        assert report["tables"] == ["star.csv"]
        assert "threads" not in report

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == json.loads((tmp_path / "config.json").read_text())
        assert len(manifest["config_hash"]) == 64
        assert set(manifest["files"]) == {"payload.json", "star.csv"}

    def test_csv_headers_carry_provenance(self, tmp_path):
        cfg = checkstar_config(tmp_path)
        out = tmp_path / "out"
        run_cli(cfg, out)
        lines = (out / "star.csv").read_text().splitlines()
        manifest = json.loads((out / "manifest.json").read_text())
        assert lines[0] == f"# config_hash {manifest['config_hash']}"
        assert lines[1] == "# matrix none"
        assert lines[2].startswith("matrix_id,k,l,holds,")

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = checkstar_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(cfg, a)
        run_cli(cfg, b)
        for name in ("payload.json", "star.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_atomic_writes_use_private_temporaries(self, tmp_path):
        cfg = checkstar_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(cfg, a)
        # another run writing into b holds temporaries under the old fixed names
        b.mkdir()
        names = sorted(p.name for p in a.iterdir())
        for name in names:
            (b / f"{name}.tmp").write_text("in flight")
        run_cli(cfg, b)
        for name in names:
            assert (b / f"{name}.tmp").read_text() == "in flight"
        leftovers = [p for p in tmp_path.rglob("*.tmp") if p.read_text() != "in flight"]
        assert leftovers == []
        for name in ("payload.json", "star.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_manifest_hashes_match_files(self, tmp_path):
        cfg = checkstar_config(tmp_path)
        out = tmp_path / "out"
        run_cli(cfg, out)
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "suite, params, report_keys",
        [
            ("ball-scan", {"deltas": [0.125, 0.0625, 0.03125], "n_tube": 500, "n_centers": 1,
                           "resolution": 128, "tolerance": 0.5},
             {"rows", "norm_exponents", "ratio_slopes", "q0", "params"}),
            ("restricted-scan", {"n_sets": 4, "n_tube": 200, "resolution": 32},
             {"rows", "sup_ratio", "max_set_id", "half_sup", "growth", "params"}),
        ],
    )
    def test_report_and_verdict_wire_format(self, tmp_path, suite, params, report_keys):
        cfg = write_config(
            tmp_path / "c.json",
            {"suite": suite, "seed": 3, "matrix": {"battery": "paraboloid-2-1"}, "params": params},
        )
        out = tmp_path / "out"
        assert run_cli(cfg, out) in (0, 1)
        payload = json.loads((out / "payload.json").read_text())
        assert set(payload["results"]["report"]) == report_keys
        assert payload["verdicts"]
        for verdict in payload["verdicts"]:
            assert set(verdict) == {"check_id", "passed", "detail"}
            assert isinstance(verdict["passed"], bool)

    def test_failing_check_exits_one(self, tmp_path, capsys):
        cfg = ballscan_config(tmp_path, tolerance=1e-6)
        assert run_cli(cfg, tmp_path / "out") == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("FAIL ball-scan")
        assert "FAIL norm-exponent" in captured.err

    def test_matrix_from_path_next_to_config(self, tmp_path):
        mfile = tmp_path / "m.json"
        assert main(["gen-matrix", "--k", "2", "--l", "1", "--seed", "4", "--out", str(mfile)]) == 0
        cfg = checkstar_config(tmp_path, matrix={"path": "m.json"})
        out = tmp_path / "out"
        assert run_cli(cfg, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["matrix"] == "path:m.json"


def _one_entry(num, den):
    """The inline 1 x 1 matrix [[num / den]]."""
    return {"k": 1, "l": 1, "entries": [[num, den]]}


_SMALL_BALL = {"n_tube": 16, "n_centers": 1}
_SMALL_QUADRATURE = {"n_y": 16, "n_radial": 4, "n_sphere": 4}


class TestConfigValidation:
    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", "--config", str(p)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_bytes(b"\xff\xfe{}")
        assert main(["run", "--config", str(p)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, literal",
        [
            (
                {"suite": "ball-scan", "seed": 3, "matrix": {"battery": "paraboloid-2-1"},
                 "params": {"tolerance": float("nan")}},
                "NaN",
            ),
            (
                {"suite": "ball-scan", "seed": 3, "matrix": {"battery": "paraboloid-2-1"},
                 "params": {"deltas": [float("nan"), 0.5, 0.25]}},
                "NaN",
            ),
            (
                {"suite": "transform-check", "seed": 3, "matrix": {"battery": "paraboloid-2-1"},
                 "params": {"y": [float("inf"), 1.0]}},
                "Infinity",
            ),
        ],
    )
    def test_non_json_number_literals(self, tmp_path, capsys, monkeypatch, doc, literal):
        # json.loads takes NaN and Infinity, and NaN passes every schema bound
        monkeypatch.setattr("surfconv.cli.run_suite", lambda *args: pytest.fail("suite ran"))
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config is not valid JSON" in err and f"{literal} is not a JSON number" in err
        assert not out.exists()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_missing_required_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"suite": "check-star"})
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "config invalid at $" in err and "seed" in err

    def test_negative_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"suite": "check-star", "seed": -1})
        assert main(["run", "--config", cfg]) == 2
        assert "$.seed" in capsys.readouterr().err

    def test_unknown_suite(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"suite": "nope", "seed": 0})
        assert main(["run", "--config", cfg]) == 2
        assert "$.suite" in capsys.readouterr().err

    def test_matrix_required_for_matrix_suites(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"suite": "ball-scan", "seed": 0})
        assert main(["run", "--config", cfg]) == 2
        assert "matrix" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, unexpected",
        [
            ({"suite": "ball-scan", "seed": 1, "matrix": {"battery": "paraboloid-2-1"},
              "params": {"deltas": [0.5, 0.25, 0.125], "n_tube": 64, "n_centers": 1, "n_w": 7}},
             "n_w"),
            ({"suite": "typeset", "seed": 0, "params": {"k": 3, "d": 5, "n_tube": 100}}, "n_tube"),
            ({"suite": "check-star", "seed": 7, "params": {"n_tube": 100}}, "n_tube"),
        ],
    )
    def test_params_the_suite_never_reads_are_refused(self, tmp_path, capsys, doc, unexpected):
        # the payload would record them under params although they had no effect
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert (
            "config invalid at $.params: Additional properties are not allowed "
            f"('{unexpected}' was unexpected)"
        ) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"suite": "lemma-mc", "seed": 1, "matrix": {"battery": "parabola-1-1"},
              "params": {"n_w": 1, "n_y": 16, "n_radial": 4, "n_sphere": 4, "rho_list": []}},
             "$.params.rho_list"),
            ({"suite": "ball-scan", "seed": 1, "matrix": {"battery": "paraboloid-2-1"},
              "params": {"deltas": [0.5, 0.25, 0.125], "n_tube": 64, "n_centers": 1,
                         "p_list": []}},
             "$.params.p_list"),
        ],
    )
    def test_empty_exponent_lists_are_refused(self, tmp_path, capsys, doc, where):
        # an empty rho_list ran the default list; an empty p_list gave no rows and no verdicts
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"config invalid at {where}: [] should be non-empty" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_denominator_matrix_entry(self, tmp_path, capsys):
        cfg = checkstar_config(tmp_path, seed=1, matrix={"k": 2, "l": 1, "entries": [[1, 0], [2, 3]]})
        assert main(["run", "--config", cfg]) == 2
        assert "config invalid at $.matrix" in capsys.readouterr().err

    def test_zero_denominator_exponent(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "suite": "restricted-scan",
                "seed": 1,
                "matrix": {"battery": "paraboloid-2-1"},
                "params": {"p": "1/0"},
            },
        )
        assert main(["run", "--config", cfg]) == 2
        assert "config invalid at $.params.p" in capsys.readouterr().err

    def test_grid_coarser_than_smallest_delta(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "suite": "ball-scan",
                "seed": 1234,
                "matrix": {"battery": "paraboloid-2-1"},
                "params": {"deltas": [0.125, 0.0625, 0.03125, 0.015625], "resolution": 16},
            },
        )
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "suite 'ball-scan' rejected the configuration" in err
        assert "coarser than the smallest delta" in err

    def test_non_finite_frequency_estimate(self, tmp_path, capsys):
        # |zeta|^400 overflows: lhs and rhs would be inf and the ratio nan.  The
        # input check refuses rho before any quadrature runs, so numpy warns of nothing.
        cfg = write_config(
            tmp_path / "c.json",
            {
                "suite": "lemma-mc",
                "seed": 11,
                "matrix": {"battery": "banded-3-2"},
                "params": {"n_w": 1, "n_y": 32, "n_radial": 8, "n_sphere": 8, "rho_list": [400]},
            },
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert "suite 'lemma-mc' rejected the configuration" in err
        assert "rho = 400.0: non-finite frequency estimate" in err

    def test_restricted_scan_refuses_a_singular_row_submatrix(self, tmp_path, capsys):
        # rows 1 and 2 of a 2 x 1 matrix are its 1 x 1 submatrices; the second is 0
        cfg = write_config(
            tmp_path / "c.json",
            {
                "suite": "restricted-scan",
                "seed": 1,
                "matrix": {"k": 2, "l": 1, "entries": [[1, 1], [0, 1]]},
                "params": {"n_sets": 3, "n_tube": 16, "resolution": 16},
            },
        )
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "suite 'restricted-scan' rejected the configuration" in err
        assert "the row-submatrix condition must hold" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "suite", ["ball-scan", "restricted-scan", "lemma-mc", "plancherel", "transform-check", "ineq6"]
    )
    def test_every_matrix_suite_refuses_a_degenerate_matrix(self, suite, tmp_path, capsys):
        # degenerate-3-2 fails the row-submatrix condition at rows 1 and 2
        cfg = write_config(
            tmp_path / "c.json",
            {"suite": suite, "seed": 9, "matrix": {"battery": "degenerate-3-2"}},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"suite '{suite}' rejected the configuration" in err
        assert "the row-submatrix condition must hold: witness rows [1, 2] (1-based)" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"suite": "ball-scan", "seed": 6, "matrix": {"battery": "banded-3-2"},
                 "params": {"deltas": [2.0, 0.5, 0.125], "n_tube": 16, "n_centers": 1}},
                "zero norm estimate on BallSet(center=(0.0, 0.0, 0.0, 0.0, 0.0), radius=0.5): "
                "none of 16 tube samples met the set; raise n_tube",
            ),
            (
                {"suite": "restricted-scan", "seed": 2, "matrix": {"battery": "paraboloid-2-1"},
                 "params": {"n_sets": 3, "n_tube": 16, "resolution": 8}},
                "zero norm estimate on BallSet(center=(-0.1907102926005469, -0.16120708526870137, "
                "0.06235814004461657), radius=0.125): none of 16 tube samples met the set; "
                "raise n_tube",
            ),
            (
                {"suite": "ineq6", "seed": 0, "matrix": {"battery": "banded-3-2"},
                 "params": {"n_sets": 2, "n_samples": 16}},
                "zero shell estimate on ball-0, box-1, sheared-box-1: no sample met the set; "
                "raise n_samples",
            ),
            (
                {"suite": "ball-scan", "seed": 6, "matrix": {"battery": "banded-3-2"},
                 "params": {"deltas": [0.5, 1.0, 1.0], "n_tube": 100, "n_centers": 1}},
                "need at least 3 distinct dyadic radii",
            ),
        ],
    )
    def test_zero_estimate_is_refused(self, tmp_path, capsys, doc, message):
        # each wrote NaN or Infinity into payload.json, which is not JSON
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"suite {doc['suite']!r} rejected the configuration" in err
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"suite": "ineq6", "seed": 9, "matrix": {"battery": "banded-3-2"},
                 "params": {"n_sets": 6, "n_samples": 20000}},
                "zero shell estimate on ball-2: no sample met the set; raise n_samples",
            ),
            (
                {"suite": "restricted-scan", "seed": 0, "matrix": {"battery": "paraboloid-2-1"},
                 "params": {"n_sets": 8, "n_tube": 16, "resolution": 64}},
                "zero norm estimate on BoxUnionSet(lows=((0.6812783287212494, -0.3559686459236736, "
                "0.028753695313569638), (-0.29508579904930976, 0.6024938336086263, "
                "-0.5911163316399165), (0.4167769534796302, -0.5691350026126861, "
                "0.5776716154592669)), highs=((0.7795587373826407, -0.21682364139371907, "
                "0.12944037913963963), (-0.15160772734640338, 0.665096135145984, "
                "-0.4162197094919068), (0.4755621587004093, -0.46871744353083705, "
                "0.6502135354934928))): none of 16 tube samples met the set; raise n_tube",
            ),
        ],
        ids=["ineq6", "restricted-scan"],
    )
    def test_zero_row_is_refused(self, tmp_path, capsys, doc, message):
        # one set of positive measure read 0 while the others did not; this exited 0
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"suite {doc['suite']!r} rejected the configuration: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "suite, matrix, params, message",
        [
            ("ball-scan", {"battery": "paraboloid-2-1"}, {**_SMALL_BALL, "p_list": ["1e-400"]},
             "config invalid at $.params.p_list[0]: '1e-400' is not a rational p >= 1"),
            ("ball-scan", {"battery": "paraboloid-2-1"}, {**_SMALL_BALL, "p_list": ["1/100"]},
             "config invalid at $.params.p_list[0]: '1/100' is not a rational p >= 1"),
            ("ball-scan", {"battery": "paraboloid-2-1"},
             {**_SMALL_BALL, "deltas": [1e103, 2e103, 4e103]}, "OverflowError"),
            ("ball-scan", _one_entry(10**300, 1), _SMALL_BALL, "OverflowError"),
            ("restricted-scan", _one_entry(10**300, 1),
             {"n_sets": 2, "n_tube": 16, "resolution": 8}, "OverflowError"),
            ("lemma-mc", _one_entry(10**300, 1), {"n_w": 1, **_SMALL_QUADRATURE},
             "ZeroDivisionError"),
            ("ineq6", _one_entry(1, 10**300), {"n_sets": 2, "n_samples": 16}, "ZeroDivisionError"),
            ("ineq6", _one_entry(1, 10**400), {"n_sets": 2, "n_samples": 16}, "ZeroDivisionError"),
            ("lemma-mc", _one_entry(10**400, 1), {"n_w": 1, **_SMALL_QUADRATURE},
             "OverflowError"),
            ("plancherel", _one_entry(10**400, 1), {"n_f": 1, **_SMALL_QUADRATURE},
             "OverflowError"),
            ("check-star", _one_entry(1, 10**400), None,
             "the comparability constant M ~ 2^1328 is not a normal float"),
            ("check-star", _one_entry(10**400, 1), None,
             "the comparability constant M ~ 2^-1329 is not a normal float"),
        ],
        ids=["p-1e-400", "p-1/100", "delta-1e103", "ball-scan-1e300", "restricted-scan-1e300",
             "lemma-mc-1e300", "ineq6-1e-300", "ineq6-1e-400", "lemma-mc-1e400",
             "plancherel-1e400", "check-star-1e-400", "check-star-1e400"],
    )
    def test_float_range_is_a_refused_configuration(self, tmp_path, capsys, suite, matrix,
                                                     params, message):
        # each ended in a traceback and exit 1, which reads as a failed check
        doc = {"suite": suite, "seed": 1, "matrix": matrix}
        if params is not None:
            doc["params"] = params
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy may warn of the overflow
            assert main(["run", "--config", write_config(tmp_path / "c.json", doc),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "num, den, constant",
        [(1, 10**200, 1e200), (1, 10**300, 1e300), (10**200, 1, 1e-200)],
        ids=["check-star-1e-200", "check-star-1e-300", "check-star-1e200"],
    )
    def test_comparability_constant_beyond_float_squares(self, tmp_path, num, den, constant):
        # M^2 leaves the float range while M does not: the first two were refused
        # with an OverflowError and the third reported M = 0.0.  M is rounded once,
        # so each is reported as the float nearest to it
        out = tmp_path / "out"
        cfg = checkstar_config(tmp_path, matrix=_one_entry(num, den))
        assert run_cli(cfg, out) == 0
        reported = json.loads((out / "payload.json").read_text())["results"]["reports"]["inline"]
        assert reported["comparability_constant"] == constant

    def test_non_finite_payload_is_never_written(self, tmp_path, capsys, monkeypatch):
        nan_result = SuiteResult({"value": float("nan")}, [Verdict("v", True, "")])
        monkeypatch.setattr("surfconv.cli.run_suite", lambda *args: nan_result)
        out = tmp_path / "out"
        assert run_cli(checkstar_config(tmp_path), out) == 2
        assert "suite 'check-star' produced a non-finite result" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_battery_id_lists_known(self, tmp_path, capsys):
        cfg = checkstar_config(tmp_path, matrix={"battery": "no-such"})
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "$.matrix.battery" in err and "banded-3-2" in err

    def test_outside_sample_count_is_refused(self, tmp_path, capsys, monkeypatch):
        # the norm estimator samples only the certified support tube: the knob is gone, not ignored
        monkeypatch.setattr("surfconv.cli.run_suite", lambda *args: pytest.fail("suite ran"))
        cfg = ballscan_config(tmp_path, tolerance=0.5)
        doc = json.loads(Path(cfg).read_text())
        doc["params"]["n_outside"] = 50
        assert main(["run", "--config", write_config(Path(cfg), doc)]) == 2
        err = capsys.readouterr().err
        assert "config invalid at $.params" in err and "'n_outside' was unexpected" in err

    def test_thread_count_key_is_refused(self, tmp_path, capsys):
        # one ordered loop runs every suite: the key is gone, not ignored
        cfg = checkstar_config(tmp_path, threads=1)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (
            "config invalid at $: Additional properties are not allowed ('threads' was unexpected)"
        ) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, where, message",
        [
            ([[1, 1], [1, 1]], "$", "is not of type 'object'"),
            ({"k": 2, "l": 1, "entries": [None, [1, 1]]}, "$.entries[0]",
             "None is not of type 'array'"),
            ({"matrix": {"k": 2, "entries": [[1, 1], [1, 1]]}}, "$.matrix",
             "'l' is a required property"),
            ({"k": 2, "l": 1, "entries": [[1.5, 2], [1, 1]]}, "$.entries[0][0]",
             "1.5 is not of type 'integer'"),
        ],
        ids=["list", "null-entry", "missing-l", "fractional-entry"],
    )
    def test_matrix_file_is_schema_checked(self, tmp_path, capsys, content, where, message):
        (tmp_path / "m.json").write_text(json.dumps(content))
        cfg = checkstar_config(tmp_path, matrix={"path": "m.json"})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config invalid at $.matrix.path: {where}: " in err and message in err
        assert not out.exists()


class TestSeedPrecedence:
    def run_seed(self, tmp_path, monkeypatch, flag=None, env=None, config_seed=7):
        cfg = checkstar_config(tmp_path, seed=config_seed)
        if env is not None:
            monkeypatch.setenv("SURFCONV_SEED", env)
        else:
            monkeypatch.delenv("SURFCONV_SEED", raising=False)
        argv = ["run", "--config", cfg, "--out", str(tmp_path / "out")]
        if flag is not None:
            argv += ["--seed", str(flag)]
        code = main(argv)
        if code != 0:
            return code, None
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        return code, manifest["seed"]

    def test_flag_beats_config_and_env_changes_nothing(self, tmp_path, monkeypatch):
        # --seed is the one override: SURFCONV_SEED is not read, valid or not
        assert self.run_seed(tmp_path, monkeypatch, flag=42, env="99") == (0, 42)
        assert self.run_seed(tmp_path, monkeypatch, env="99") == (0, 7)
        assert self.run_seed(tmp_path, monkeypatch, env="abc") == (0, 7)
        assert self.run_seed(tmp_path, monkeypatch) == (0, 7)

    def test_flag_must_be_nonnegative(self, tmp_path, monkeypatch, capsys):
        assert self.run_seed(tmp_path, monkeypatch, flag=-1) == (2, None)
        assert "--seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-2", "2"])
def test_threads_flag_accepts_only_one(tmp_path, capsys, threads):
    cfg = checkstar_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--threads", threads]) == 2
    assert f"--threads: only 1 is supported, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_threads_flag_one_changes_no_byte(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {"suite": "lemma-mc", "seed": 5, "matrix": {"battery": "banded-3-2"},
         "params": {"n_w": 2, "n_y": 48, "n_radial": 8, "n_sphere": 8, "rho_list": [0.0, 1.0]}},
    )
    plain, flagged = tmp_path / "plain", tmp_path / "flagged"
    assert run_cli(cfg, plain) in (0, 1)
    assert main(["run", "--config", cfg, "--out", str(flagged), "--threads", "1"]) in (0, 1)
    names = sorted(p.name for p in plain.iterdir() if p.name != "report.json")
    assert "manifest.json" in names and any(n.endswith(".csv") for n in names)
    assert names == sorted(p.name for p in flagged.iterdir() if p.name != "report.json")
    for name in names:
        assert (plain / name).read_bytes() == (flagged / name).read_bytes(), name


class TestGenMatrix:
    def test_frozen_output_for_seed_one(self, tmp_path):
        out = tmp_path / "m.json"
        argv = ["gen-matrix", "--k", "3", "--l", "2", "--seed", "1", "--threshold", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["matrix"]["entries"] == [[-1, 1], [0, 1], [5, 1], [9, 1], [-9, 1], [-7, 1]]
        assert doc["min_abs_det"] == [7, 1]
        assert doc["content_hash"] == "ad92a215c1"

    def test_unreachable_threshold_exits_one(self, capsys):
        assert main(["gen-matrix", "--k", "2", "--l", "1", "--threshold", "1000000"]) == 1
        assert "threshold" in capsys.readouterr().err.lower()

    def test_bad_shape_exits_two(self, capsys):
        assert main(["gen-matrix", "--k", "1", "--l", "2"]) == 2


class TestReport:
    @pytest.fixture()
    def passing_root(self, tmp_path):
        root = tmp_path / "runs"
        cfg1 = checkstar_config(tmp_path)
        run_cli(cfg1, root / "star")
        cfg2 = write_config(
            tmp_path / "ts.json",
            {"suite": "typeset", "seed": 0, "params": {"k": 3, "d": 5}},
        )
        run_cli(cfg2, root / "typeset")
        cfg3 = ballscan_config(tmp_path, tolerance=0.5)
        run_cli(cfg3, root / "scan")
        return root

    def test_merged_outputs(self, passing_root, capsys):
        assert main(["report", str(passing_root)]) == 0
        assert "overall: PASS" in capsys.readouterr().out
        verdicts = (passing_root / "verdicts.csv").read_text().splitlines()
        header, rows = verdicts[0], verdicts[1:]
        assert header == "run,suite,check_id,passed,detail"
        assert any("check-star" in r for r in rows)
        assert any("typeset" in r for r in rows)
        curves = (passing_root / "curves.csv").read_text().splitlines()
        assert curves[0] == "run,delta,log2_delta,p,norm,log2_norm,ratio,center_id"
        assert len(curves) > 3
        summary = (passing_root / "summary.txt").read_text()
        assert "runs: 3" in summary

    def test_report_is_idempotent(self, passing_root):
        names = ("verdicts.csv", "curves.csv", "summary.txt")
        main(["report", str(passing_root)])
        first = {n: (passing_root / n).read_bytes() for n in names}
        main(["report", str(passing_root)])
        second = {n: (passing_root / n).read_bytes() for n in names}
        assert first == second

    def test_failing_run_flips_overall(self, passing_root, tmp_path, capsys):
        cfg = ballscan_config(tmp_path, tolerance=1e-6, name="bad.json")
        run_cli(cfg, passing_root / "bad-scan")
        capsys.readouterr()
        assert main(["report", str(passing_root)]) == 1
        out = capsys.readouterr().out
        assert "overall: FAIL" in out and "failing checks:" in out

    def test_reads_a_report_that_records_threads(self, passing_root, capsys):
        # report.json files written before the thread path went carry a threads field
        old = passing_root / "star" / "report.json"
        doc = json.loads(old.read_text())
        old.write_text(json.dumps(dict(doc, threads=1)))
        assert main(["report", str(passing_root)]) == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_csv_cells_round_trip(self, passing_root):
        # a comma in a run id and a double quote in a detail stay inside their fields
        (passing_root / "scan").rename(passing_root / "a,b")
        star = passing_root / "star" / "report.json"
        doc = json.loads(star.read_text())
        doc["verdicts"][0]["detail"] = 'say "hi", twice'
        star.write_text(json.dumps(doc))
        assert main(["report", str(passing_root)]) == 0
        tables = {}
        for name in ("verdicts.csv", "curves.csv"):
            with open(passing_root / name, newline="") as fh:
                tables[name] = rows = list(csv.reader(fh))
            assert {len(r) for r in rows} == {len(rows[0])}, name
            assert any(r[0] == "a,b" for r in rows[1:]), name
        assert 'say "hi", twice' in [r[4] for r in tables["verdicts.csv"]]

    def test_missing_dir_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert main(["report", str(tmp_path)]) == 2  # exists but holds no runs

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"suite": "check-star", "pass', "cannot read run file"),
            ("[1, 2]", "is not a run report"),
            ('{"suite": "x", "passed": true, "verdicts": [1]}',
             "$.verdicts[0]: 1 is not of type 'object'"),
            ('{"suite": "x", "passed": true, "verdicts": 5}',
             "$.verdicts: 5 is not of type 'array'"),
            ('{"suite": "x", "passed": true, "verdicts": [{"check_id": "a", "detail": ""}]}',
             "$.verdicts[0]: 'passed' is a required property"),
            ('{"suite": "x", "passed": "yes", "verdicts": []}',
             "$.passed: 'yes' is not of type 'boolean'"),
            ('{"suite": "ball-scan", "passed": true, "verdicts": [], "results": {"report": {}}}',
             "$.results.report: 'rows' is a required property"),
            ('{"suite": "ball-scan", "passed": true, "verdicts": [], '
             '"results": {"report": {"rows": [1]}}}',
             "$.results.report.rows[0]: 1 is not of type 'object'"),
            ('{"suite": "ball-scan", "passed": true, "verdicts": [], '
             '"results": {"report": {"rows": [{"delta": 0, "p_num": 1, "p_den": 1, "norm": 1.0, '
             '"ratio": 1.0, "center_id": 0}]}}}',
             "$.results.report.rows[0].delta: 0 is less than or equal to the minimum of 0"),
            ('{"suite": "ball-scan", "passed": true, "verdicts": [], '
             '"results": {"report": {"rows": [{"delta": 0.5, "p_num": 1' + "0" * 400 + ', '
             '"p_den": 1, "norm": 1.0, "ratio": 1.0, "center_id": 0}]}}}',
             "holds a p that is not a float"),
        ],
        ids=["truncated", "list", "verdict-not-object", "verdicts-not-list", "verdict-missing-key",
             "passed-not-bool", "ball-scan-without-rows", "curve-row-not-object", "zero-delta",
             "p-beyond-float"],
    )
    def test_bad_run_file_exits_two(self, tmp_path, capsys, text, message):
        root = tmp_path / "runs"
        run_cli(checkstar_config(tmp_path), root / "star")
        bad = root / "broken" / "report.json"
        bad.parent.mkdir()
        bad.write_text(text)
        capsys.readouterr()
        assert main(["report", str(root)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert message in err and str(bad) in err
        assert not (root / "summary.txt").exists() and not (root / "verdicts.csv").exists()


def _src_env() -> dict:
    """The environment with the checkout's src first on PYTHONPATH, for child interpreters."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "surfconv", "--help"], capture_output=True, text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert "gen-matrix" in proc.stdout


@pytest.mark.parametrize("command", ["run", "gen-matrix"])
def test_unwritable_output_exits_two_without_a_traceback(tmp_path, command):
    # a regular file where the output directory (run) or its parent (gen-matrix) must go
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    if command == "run":
        argv = ["run", "--config", checkstar_config(tmp_path), "--out", str(blocker)]
    else:
        argv = ["gen-matrix", "--k", "2", "--l", "1", "--out", str(blocker / "m.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "surfconv", *argv], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 2
    assert "error: cannot write output" in proc.stderr and "Traceback" not in proc.stderr
    assert blocker.read_text() == ""


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _json_nulls(node, path="$"):
    if node is None:
        return [path]
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _json_nulls(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _json_nulls(v, f"{path}[{i}]")]
    return []


@pytest.mark.parametrize("name", ["ball_scan_banded", "ball_scan_paraboloid"])
def test_ball_scan_payloads_hold_no_null(tmp_path, name):
    out = tmp_path / "out"
    assert main(["run", "--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
    assert _json_nulls(json.loads((out / "payload.json").read_text())) == []


def _reject_constant(name):
    raise ValueError(f"payload holds {name}")


_BATTERY_MATRIX = st.fixed_dictionaries({"battery": st.sampled_from(
    ["banded-3-2", "parabola-1-1", "paraboloid-2-1", "random-4-3", "degenerate-3-2"]
)})
_EXPONENT = st.sampled_from(["1", "5/4", "3/2", "5/3", "2", "7/3", "3", "0", "-1", "1/0", "x",
                             "1/100", "1e-400", "1e400"])
# small entries, and numerators and denominators at and beyond the float range
_INLINE_MATRIX = st.fixed_dictionaries({
    "k": st.integers(1, 3),
    "l": st.integers(1, 3),
    "entries": st.lists(
        st.lists(st.one_of(st.integers(-9, 9), st.sampled_from([1, 10**200, 10**300, 10**400])),
                 min_size=2, max_size=2),
        max_size=9,
    ),
})
_ANY_MATRIX = st.one_of(_BATTERY_MATRIX, _INLINE_MATRIX)
_SEED = st.integers(min_value=0, max_value=2**32)


def _suite_configs(suite, required, optional=None, matrix=_BATTERY_MATRIX):
    """Schema-valid configs of one suite: `required` and `optional` map param names to strategies."""
    doc = {
        "suite": st.just(suite),
        "seed": _SEED,
        "params": st.fixed_dictionaries(required, optional=optional or {}),
    }
    if matrix is not None:
        doc["matrix"] = matrix
    return st.fixed_dictionaries(doc)


_RHO = st.one_of(
    st.floats(min_value=-3.0, max_value=6.0),
    st.sampled_from([-1.5, -0.95, 0.0, 40.0, 400.0, 1e6]),
)
_QUADRATURE_PARAMS = {
    "n_y": st.integers(min_value=16, max_value=48),
    "n_radial": st.integers(min_value=4, max_value=8),
    "n_sphere": st.integers(min_value=4, max_value=8),
}
# each suite draws only the params it reads: the schema refuses the others
_FREQUENCY_CONFIGS = st.one_of(
    _suite_configs("lemma-mc", {"n_w": st.integers(1, 2), **_QUADRATURE_PARAMS},
                   {"rho_list": st.lists(_RHO, min_size=1, max_size=3)}, matrix=_ANY_MATRIX),
    _suite_configs("plancherel", {"n_f": st.integers(1, 2), **_QUADRATURE_PARAMS}),
)


def test_tiny_negative_rho_in_one_dimension(tmp_path):
    # the 1-d check divides by the oracle (1 - 2^-rho) / rho, which must not cancel to 0
    cfg = write_config(
        tmp_path / "c.json",
        {
            "suite": "lemma-mc",
            "seed": 5,
            "matrix": {"battery": "parabola-1-1"},
            "params": {"n_w": 1, "n_y": 25, "n_radial": 8, "n_sphere": 6,
                       "rho_list": [0.0, -6.13e-110]},
        },
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) in (0, 1)


def _check_exit_contract(doc):
    assert first_error(doc, _load_schema()) is None  # the contract covers schema-valid configs
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "c.json", doc)
        code = main(["run", "--config", cfg, "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        if code in (0, 1):
            text = (Path(tmp) / "out" / "payload.json").read_text()
            json.loads(text, parse_constant=_reject_constant)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_FREQUENCY_CONFIGS)
def test_frequency_suites_keep_the_exit_contract(doc):
    _check_exit_contract(doc)


_SUITE_CONFIGS = {
    "check-star": st.fixed_dictionaries(
        {"suite": st.just("check-star"), "seed": _SEED}, optional={"matrix": _ANY_MATRIX},
    ),
    "typeset": _suite_configs(
        "typeset", {"k": st.integers(1, 8), "d": st.integers(2, 12)}, matrix=None
    ),
    "ball-scan": _suite_configs(
        "ball-scan",
        {"n_tube": st.integers(16, 200), "n_centers": st.integers(1, 2)},
        {
            "deltas": st.lists(st.sampled_from([2.0, 1.0, 0.5, 0.25, 0.125, 1e103]),
                               min_size=3, max_size=4),
            "p_list": st.lists(_EXPONENT, min_size=1, max_size=3),
            "resolution": st.integers(8, 64),
            "tolerance": st.floats(min_value=0.01, max_value=2.0),
        },
        matrix=_ANY_MATRIX,
    ),
    "restricted-scan": _suite_configs(
        "restricted-scan",
        {"n_sets": st.integers(2, 3), "n_tube": st.integers(16, 200), "resolution": st.integers(8, 64)},
        {"p": _EXPONENT},
    ),
    "ineq6": _suite_configs(
        "ineq6", {"n_sets": st.integers(2, 3), "n_samples": st.integers(16, 200)},
        matrix=_ANY_MATRIX,
    ),
}
_TRANSFORM_CONFIGS = _suite_configs(
    "transform-check",
    {"cells": st.integers(8, 24)},
    {"n_f": st.integers(1, 2), "y": st.lists(st.floats(-3.0, 3.0), max_size=4)},
)


@pytest.mark.parametrize("suite", sorted(_SUITE_CONFIGS))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_other_suites_keep_the_exit_contract(suite, data):
    _check_exit_contract(data.draw(_SUITE_CONFIGS[suite]))


# fewer examples: at k = 3 the oscillatory check alone takes about 2.5 s, whatever the params
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_TRANSFORM_CONFIGS)
def test_transform_check_keeps_the_exit_contract(doc):
    _check_exit_contract(doc)


_TRACED_MODULES = [
    f"surfconv.{name}"
    for name in ["cli", "suites", "convolution", "gaussians", "pullback", "surface", "transform",
                 "parallel"]
]


def test_suites_take_matrix_params_seed():
    for name, fn in SUITES.items():
        assert list(inspect.signature(fn).parameters) == ["matrix", "params", "seed"], name
    assert list(inspect.signature(run_suite).parameters) == ["name", "matrix", "params", "seed"]


def test_run_suite_refuses_an_unknown_suite():
    with pytest.raises(KeyError, match="unknown suite 'nope'"):
        run_suite("nope", None, {}, 0)


def test_tracer_targets_exist():
    # bench/tracing.py wraps package functions by name; a rename must fail here, not under --trace
    import importlib.util

    importlib.import_module("surfconv.cli")  # loads every module the tracer patches

    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("surfconv_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_package_import_loads_no_layer():
    # the package holds only its docstring; each name is imported from its module
    script = (
        "import json, sys\n"
        "import surfconv\n"
        "bare = sorted(sys.modules)\n"
        "import surfconv.cli\n"
        "print(json.dumps([bare, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_src_env())
    bare, with_cli = json.loads(proc.stdout)
    assert [m for m in bare if m.startswith("surfconv.") or m == "numpy"] == []
    assert set(_TRACED_MODULES) <= set(with_cli)


@pytest.mark.parametrize(
    "doc",
    [
        {"suite": "check-star", "seed": 1, "matrix": {"battery": "parabola-1-1"}},
        {"suite": "lemma-mc", "seed": 1, "matrix": {"battery": "parabola-1-1"},
         "params": {"n_w": 1, "n_y": 16, "n_radial": 4, "n_sphere": 4, "rho_list": [0.0]}},
    ],
)
def test_single_thread_run_skips_heavy_imports(tmp_path, doc):
    # start-up is a large share of a short run: jsonschema and concurrent.futures
    # are not needed, and the modules the benchmark tracer patches must be loaded
    cfg = write_config(tmp_path / "c.json", doc)
    argv = ["run", "--config", cfg, "--out", str(tmp_path / "out")]
    script = (
        "import json, sys\n"
        "from surfconv.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_src_env())
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code in (0, 1)
    assert "jsonschema" not in modules
    assert "concurrent.futures" not in modules
    assert set(_TRACED_MODULES) <= set(modules)
