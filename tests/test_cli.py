"""End-to-end CLI behavior: exit codes, output files, determinism."""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from surfconv.cli import main


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
                "n_outside": 50,
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

    @pytest.mark.parametrize(
        "suite, params",
        [
            ("lemma-mc", {"n_w": 2, "n_y": 48, "n_radial": 8, "n_sphere": 8, "rho_list": [0.0, 1.0]}),
            ("plancherel", {"n_f": 2, "n_y": 48, "n_radial": 8, "n_sphere": 8}),
        ],
    )
    def test_thread_count_does_not_change_bytes(self, tmp_path, suite, params):
        cfg = write_config(
            tmp_path / "c.json",
            {"suite": suite, "seed": 5, "matrix": {"battery": "banded-3-2"}, "params": params},
        )
        outs = {}
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            assert main(["run", "--config", cfg, "--out", str(out), "--threads", str(threads)]) in (0, 1)
            outs[threads] = {p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"}
            outs[threads]["payload.json"] = (out / "payload.json").read_bytes()
        assert len(outs[1]) >= 2
        assert outs[1] == outs[2]

    def test_manifest_hashes_match_files(self, tmp_path):
        cfg = checkstar_config(tmp_path)
        out = tmp_path / "out"
        run_cli(cfg, out)
        manifest = json.loads((out / "manifest.json").read_text())
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

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


class TestConfigValidation:
    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", "--config", str(p)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

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
        # |zeta|^400 overflows: lhs and rhs would be inf and the ratio nan
        cfg = write_config(
            tmp_path / "c.json",
            {
                "suite": "lemma-mc",
                "seed": 11,
                "matrix": {"battery": "banded-3-2"},
                "params": {"n_w": 1, "n_y": 32, "n_radial": 8, "n_sphere": 8, "rho_list": [400]},
            },
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "suite 'lemma-mc' rejected the configuration" in err
        assert "non-finite frequency estimate" in err

    def test_unknown_battery_id_lists_known(self, tmp_path, capsys):
        cfg = checkstar_config(tmp_path, matrix={"battery": "no-such"})
        assert main(["run", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "$.matrix.battery" in err and "banded-3-2" in err


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

    def test_flag_beats_env_beats_config(self, tmp_path, monkeypatch):
        assert self.run_seed(tmp_path, monkeypatch, flag=42, env="99") == (0, 42)
        assert self.run_seed(tmp_path, monkeypatch, env="99") == (0, 99)
        assert self.run_seed(tmp_path, monkeypatch) == (0, 7)

    def test_env_must_be_a_nonnegative_integer(self, tmp_path, monkeypatch):
        code, _ = self.run_seed(tmp_path, monkeypatch, env="abc")
        assert code == 2
        code, _ = self.run_seed(tmp_path, monkeypatch, env="-5")
        assert code == 2


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

    def test_missing_dir_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert main(["report", str(tmp_path)]) == 2  # exists but holds no runs


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "surfconv", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "gen-matrix" in proc.stdout


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


_RHO = st.one_of(
    st.floats(min_value=-3.0, max_value=6.0),
    st.sampled_from([-1.5, -0.95, 0.0, 40.0, 400.0, 1e6]),
)
_FREQUENCY_CONFIGS = st.fixed_dictionaries(
    {
        "suite": st.sampled_from(["lemma-mc", "plancherel"]),
        "seed": st.integers(min_value=0, max_value=2**32),
        "threads": st.integers(min_value=1, max_value=2),
        "matrix": st.fixed_dictionaries(
            {"battery": st.sampled_from(
                ["banded-3-2", "parabola-1-1", "paraboloid-2-1", "random-4-3", "degenerate-3-2"]
            )}
        ),
        "params": st.fixed_dictionaries(
            {
                "n_w": st.integers(min_value=1, max_value=2),
                "n_f": st.integers(min_value=1, max_value=2),
                "n_y": st.integers(min_value=16, max_value=48),
                "n_radial": st.integers(min_value=4, max_value=8),
                "n_sphere": st.integers(min_value=4, max_value=8),
            },
            optional={"rho_list": st.lists(_RHO, max_size=3)},
        ),
    }
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


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_FREQUENCY_CONFIGS)
def test_frequency_suites_keep_the_exit_contract(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "c.json", doc)
        code = main(["run", "--config", cfg, "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        if code in (0, 1):
            text = (Path(tmp) / "out" / "payload.json").read_text()
            json.loads(text, parse_constant=_reject_constant)
