"""The shipped Monte Carlo verdicts pass at seeds other than the shipped ones.

Each Monte Carlo config in configs/ runs through the CLI at three fixed
seeds, none of them a config's own.  A change that passes only at the
shipped seed fails here.  The seeds were fixed before any run was looked at;
a seed that fails is a finding to record, not a seed to swap.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from surfconv.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MONTE_CARLO = [
    "ball_scan_banded",
    "ball_scan_paraboloid",
    "ineq6_parabola",
    "lemma_banded",
    "plancherel_banded",
    "restricted_paraboloid",
]
SEEDS = (101, 202, 303)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stem", MONTE_CARLO)
def test_verdicts_pass_at_other_seeds(tmp_path, stem, seed):
    config = CONFIGS / f"{stem}.json"
    assert json.loads(config.read_text())["seed"] != seed
    code = main(["run", "--config", str(config), "--seed", str(seed), "--out", str(tmp_path)])
    verdicts = json.loads((tmp_path / "payload.json").read_text())["verdicts"]
    failed = [v for v in verdicts if not v["passed"]]
    assert code == 0 and verdicts and not failed, failed
