"""The config schema and its validator: the shipped configs pass, the verdicts
match an independent draft-07 implementation, unimplemented keywords are
refused, and no single-field change makes ``validate`` raise."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from altproj import cli
from altproj.cli import ConfigError, load_config, main

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
SCHEMA_FILE = Path(cli.__file__).with_name("schema.json")

# Values put in place of one field; integral floats and non-finite numbers are
# left out here because the validator rejects them on purpose (tested below).
MUTATIONS = [None, True, False, 0, -1, 1, 3, 0.5, -2.5, 1e-9, "x", "", [], [1.0], [[0.0, 1.0]],
             {}, {"kind": "ball"}]


def _paths(doc, prefix=()):
    """Every field path in doc, containers included; list items by index."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


_REMOVE = object()


def _replaced(doc, path, value):
    """A copy of doc with the field at path set to value, or removed for _REMOVE."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _REMOVE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _accepts(doc) -> bool:
    try:
        cli._check(doc, cli.config_schema())
    except ConfigError:
        return False
    return True


@pytest.fixture(scope="module")
def oracle():
    jsonschema = pytest.importorskip("jsonschema")
    return jsonschema.Draft7Validator(json.loads(SCHEMA_FILE.read_text()))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_loads(path):
    assert load_config(path)["kind"] == json.loads(path.read_text())["kind"]


def test_validator_agrees_with_jsonschema_on_single_field_changes(oracle):
    verdicts, disagreements = [], []
    for config in CONFIGS:
        doc = json.loads(config.read_text())
        paths = list(_paths(doc))
        mutants = ([doc] + [_replaced(doc, path, value)
                            for path in paths for value in MUTATIONS + [_REMOVE]]
                   + [_replaced(doc, path[:-1] + ("bogus",), 1)
                      for path in paths if isinstance(path[-1], str)])
        for mutant in mutants:
            verdict = _accepts(mutant)
            verdicts.append(verdict)
            if verdict != oracle.is_valid(mutant):
                disagreements.append((config.stem, mutant))
    assert not disagreements[:5]
    assert sum(verdicts) > 100 and len(verdicts) - sum(verdicts) > 1000


@pytest.mark.parametrize("value", [2.0, 1.0, 1e3])
def test_integral_float_is_not_an_integer(oracle, value):
    doc = {"kind": "example51", "params": {"n_blocks": value}}
    assert oracle.is_valid(doc) and not _accepts(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10 ** 400])
def test_non_finite_number_is_not_a_number(oracle, value):
    doc = {"kind": "probe", "params": {"probe": "separation", "M": 0.5, "omega": value}}
    assert oracle.is_valid(doc) and not _accepts(doc)


@pytest.mark.parametrize("schema", [
    {"type": "object", "oneOf": [{"type": "object"}]},
    {"properties": {"x": {"pattern": "a+"}}},
    {"additionalProperties": {"type": "string"}},
    {"items": [{"type": "number"}]},
    {"$ref": "#/definitions/missing"},
    {"allOf": [{"if": {"const": 1}, "then": {}, "else": {}}]},
    {"definitions": {"v": {"type": "array", "maxItems": 3}}},
    {"properties": {"x": True}},
])
def test_unimplemented_schema_keyword_raises(schema):
    with pytest.raises(ValueError, match="not implemented"):
        cli._check_schema(schema, schema.get("definitions", {}))


# Integers stay small: n_blocks, d and H set how much work a dry run does, and
# sizing is not what this test is about.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_validate_never_raises_on_one_changed_field(tmp_path_factory, data):
    config = data.draw(st.sampled_from(CONFIGS), label="config")
    doc = json.loads(config.read_text())
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    target = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    target.write_text(json.dumps(_replaced(doc, path, data.draw(JSON_VALUES, label="value"))))
    assert main(["validate", "--config", str(target), "--out", str(target.parent),
                 "--quiet"]) in (0, 1, 2)
