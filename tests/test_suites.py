"""Every table a suite returns is a list of dict rows with one key order, and
where the payload holds rows they are the table's own row objects."""

import json
from pathlib import Path

import pytest

from surfconv.battery import battery_entry
from surfconv.suites import run_suite

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_suites_return_named_rows(config):
    doc = json.loads(config.read_text())
    matrix = battery_entry(doc["matrix"]["battery"]).matrix if "matrix" in doc else None
    result = run_suite(doc["suite"], matrix, doc.get("params", {}), doc["seed"])
    assert result.tables
    for name, rows in result.tables.items():
        assert rows and all(type(row) is dict for row in rows), name
        columns = list(rows[0])
        assert [list(row) for row in rows] == [columns] * len(rows), name

    payload = result.payload
    payload_rows = payload["rows"] if "rows" in payload else getattr(payload.get("report"), "rows", None)
    if payload_rows is not None:
        table = result.tables[doc["suite"].replace("-", "_")]
        assert len(payload_rows) == len(table)
        assert all(a is b for a, b in zip(payload_rows, table))
