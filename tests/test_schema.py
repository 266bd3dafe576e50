"""The stdlib config validator against jsonschema, which serves as the oracle."""

import copy
import json
import math
import re
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from surfconv.cli import _RUN_FILE_SCHEMA, _load_schema
from surfconv.schema import KEYWORDS, SKIPPED, first_error

SCHEMA = _load_schema()
ORACLE = jsonschema.Draft202012Validator(SCHEMA)
SHIPPED = [
    json.loads(p.read_text())
    for p in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
]


def oracle_first_error(doc):
    errors = sorted(ORACLE.iter_errors(doc), key=lambda e: (len(e.path), e.json_path))
    return (errors[0].json_path, errors[0].message) if errors else None


def _schema_keys(schema):
    names = set()
    for node in [schema["properties"], schema["properties"]["params"]["properties"]]:
        names |= set(node)
    for branch in schema["properties"]["matrix"]["oneOf"]:
        names |= set(branch["properties"])
    return sorted(names)


_KEYS = st.sampled_from(_schema_keys(SCHEMA) + ["bogus", ""])
_VALUES = st.one_of(
    st.sampled_from(
        [math.nan, math.inf, -math.inf, True, False, None, 1.0, -0.0, 0, -1, 1, 16, 2.5, 1e300,
         "x", "1/2", "check-star", "typeset", "banded-3-2"]
    ),
    st.integers(min_value=-3, max_value=300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.one_of(st.integers(-2, 20), st.floats(-1.0, 3.0)), max_size=4),
    st.lists(st.lists(st.integers(-2, 3), max_size=3), max_size=3),
    st.dictionaries(_KEYS, st.integers(-1, 20), max_size=2),
)


def _containers(node, path=()):
    """Paths of every object and array in a JSON document, the root included."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        if isinstance(child, (dict, list)):
            yield from _containers(child, path + (key,))


@st.composite
def mutated_configs(draw):
    """A shipped config after 1-3 edits: keys added, dropped or retyped, items swapped."""
    doc = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        for key in draw(st.sampled_from(list(_containers(doc)))):
            node = node[key]
        op = draw(st.sampled_from(["add", "drop", "retype"]))
        if isinstance(node, dict):
            if op == "add" or not node:
                node[draw(_KEYS)] = draw(_VALUES)
            elif op == "drop":
                del node[draw(st.sampled_from(sorted(node)))]
            else:
                node[draw(st.sampled_from(sorted(node)))] = draw(_VALUES)
        elif op == "add" or not node:
            node.append(draw(_VALUES))
        elif op == "drop":
            del node[draw(st.integers(0, len(node) - 1))]
        else:
            node[draw(st.integers(0, len(node) - 1))] = draw(_VALUES)
    return doc


def test_shipped_configs_are_valid():
    for doc in SHIPPED:
        assert first_error(doc, SCHEMA) is None
        assert oracle_first_error(doc) is None


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"suite": "check-star", "seed": 1.0}, None),
        ({"suite": "check-star", "seed": True}, "$.seed"),
        ({"suite": "check-star", "seed": 0, "threads": 1}, "$"),
        ({"suite": "typeset", "seed": 0}, "$"),
        ({"suite": "typeset", "seed": 0, "params": {"k": 3}}, "$.params"),
        ({"suite": "ball-scan", "seed": 0, "matrix": {"battery": "banded-3-2"},
          "params": {"deltas": [math.nan, 0.5, 0.25]}}, None),
        ({"suite": "ball-scan", "seed": 0, "matrix": {"battery": "banded-3-2"},
          "params": {"deltas": [-math.inf, 0.5, 0.25]}}, "$.params.deltas[0]"),
        ({"suite": "check-star", "seed": 0, "matrix": {"battery": "x", "path": "y"}}, "$.matrix"),
        ({"suite": "check-star", "seed": 0,
          "matrix": {"k": 1, "l": 1, "entries": [[1, 1, 1]]}}, "$.matrix"),
        ({"suite": "check-star", "seed": 0, "bogus": 1}, "$"),
    ],
)
def test_edge_cases_agree_with_the_oracle(doc, where):
    mine = first_error(doc, SCHEMA)
    assert (mine and mine[0]) == where
    assert mine == oracle_first_error(doc)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=mutated_configs())
def test_validator_agrees_with_jsonschema(doc):
    mine, oracle = first_error(doc, SCHEMA), oracle_first_error(doc)
    assert (mine is None) == (oracle is None)
    if oracle is not None:
        assert mine[0] == oracle[0]


def _keywords(schema):
    """Every (keyword, value) pair of a schema, walking into its subschemas."""
    for key, value in schema.items():
        yield key, value
        if key == "properties":
            subschemas = list(value.values())
        elif key in ("oneOf", "allOf", "prefixItems"):
            subschemas = value
        elif key in ("items", "if", "then"):
            subschemas = [value]
        else:
            subschemas = []
        for sub in subschemas:
            yield from _keywords(sub)


def test_schema_uses_only_implemented_keywords():
    pairs = list(_keywords(SCHEMA))
    assert {key for key, _ in pairs} - set(KEYWORDS) - SKIPPED == set()
    assert all(value is False for key, value in pairs if key == "additionalProperties")
    assert all(isinstance(value, str) for key, value in pairs if key == "type")


@pytest.mark.parametrize(
    "schema,message",
    [
        ({"anyOf": [{"type": "object"}]}, "schema keyword 'anyOf' is not implemented"),
        ({"additionalProperties": True}, "only 'additionalProperties: false' is implemented"),
    ],
)
def test_unimplemented_keyword_raises(schema, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        first_error({}, schema)


_ROW = {"delta": 0.5, "p_num": 1, "p_den": 1, "norm": 1.0, "ratio": 1.0, "center_id": 0}


@pytest.mark.parametrize(
    "doc",
    [
        {"suite": "x", "passed": True,
         "verdicts": [{"check_id": "a", "passed": False, "detail": ""}]},
        {"suite": "x", "passed": 1, "verdicts": []},
        {"suite": "x", "passed": True, "verdicts": [1, {"check_id": "a"}]},
        {"suite": "ball-scan", "passed": True, "verdicts": []},
        {"suite": "ball-scan", "passed": True, "verdicts": [],
         "results": {"report": {"rows": [_ROW]}}},
        {"suite": "ball-scan", "passed": True, "verdicts": [],
         "results": {"report": {"rows": [dict(_ROW, p_den=0, center_id=0.5)]}}},
        {"passed": True, "verdicts": []},
        [],
    ],
)
def test_run_file_schema_agrees_with_the_oracle(doc):
    # surfconv report checks every report.json against this schema before writing anything
    errors = sorted(jsonschema.Draft202012Validator(_RUN_FILE_SCHEMA).iter_errors(doc),
                    key=lambda e: (len(e.path), e.json_path))
    mine = first_error(doc, _RUN_FILE_SCHEMA)
    assert (mine is None) == (not errors)
    if errors:
        assert mine == (errors[0].json_path, errors[0].message)
