"""`cli.validate_document` against jsonschema, the reference it must match.

The CLI proves a document valid by walking its schema file and asks
jsonschema only about a document it cannot prove. These tests pin the pair
to jsonschema's verdict and message on mutations of valid documents, and pin
the walker to the keywords the schema files use.
"""

import copy
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import exceptions, validators

from refstokes import cli
from refstokes.errors import SchemaError

SCHEMAS = Path(importlib.import_module("refstokes").__file__).parent / "schemas"
UNIT_BOX = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]

VALID = {
    "config.schema.json": {
        "seed": 5,
        "cloud": {"kind": "rsa", "box": UNIT_BOX, "n": 10, "a": 0.01, "dmin": 0.08},
        "strain": [0.1, 0.2, 0.3, 0.4, 0.5],
        "solver": {"tol": 1e-9, "max_iter": 17, "fixed_n": 3, "gate": 0.02,
                   "force": True, "deterministic": True},
        "grid": {"n": 16, "padding": 0.5},
        "sweep": {"phis": [1e-3, 2e-3]},
        "compare": {"p": 1.3, "coefficient": 5.0},
    },
    "cloud.schema.json": {
        "a": 0.01, "box": UNIT_BOX,
        "centers": [[0.2, 0.2, 0.2], [0.5, 0.5, 0.5]],
        "mobilities": [[float(k) for k in range(25)], [0.5] * 25],
    },
    "solution.schema.json": {
        "a_hat": [[1.0, 0.0, 0.0, 0.0, 0.0], [0.5, -0.5, 0.0, 1e-3, 2.0]],
        "iterations": 3, "converged": True, "residual": 1e-12,
        "norm_history": [1.0, 0.1, 0.01],
    },
    "compare.schema.json": {
        "p": 1.2, "theta": 0.17, "grid_n": 16,
        "entries": [{"phi": 1e-3, "phi_local": 2e-3, "a": 0.01, "n_particles": 10,
                     "hminus1": 0.1, "lp_proxy": 0.2, "local_term": 0.3,
                     "meff_sup_sq": 0.4, "bound_sum": 0.8}],
    },
}

# bools and integral floats for numbers and integers, NaN and infinities,
# the bounds the schemas use (0, 1, 2) from both sides, numpy scalars and
# values of every other JSON type
VALUES = [True, False, 0, 1, 2, 3, -1, 0.0, -0.0, 1.0, 2.0, 0.5, -0.5, 5e-324,
          math.nan, math.inf, -math.inf, np.float64(0.0), np.float64(0.5), np.float64(1.0),
          np.float64(math.nan), np.int64(1), "rsa", "lattice", "x", None, [],
          [1.0, 2.0, 3.0], [1.0, 2.0], {}, {"a": 1.0}]
KEYS = ["n", "a", "extra", "mobilities", "fixed_n", "bound_sum", "deterministic"]


def reference(doc, name):
    """The message of jsonschema's best error for doc, or None if it is valid."""
    schema = json.loads((SCHEMAS / name).read_text())
    error = exceptions.best_match(
        validators.validator_for(schema)(schema).iter_errors(doc))
    return None if error is None else error.message


def verdict(doc, name):
    try:
        cli.validate_document(doc, name)
    except SchemaError as exc:
        return str(exc)
    return None


def mutate(data, doc):
    """doc with one value, key or row replaced, dropped or added, at a drawn depth."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        parent, node = node, node[key]
    op = data.draw(st.sampled_from(["replace", "drop", "add", "repeat"]))
    value = data.draw(st.sampled_from(VALUES))
    if op == "replace" and parent is not None:
        parent[key] = copy.deepcopy(value)
    elif op == "drop" and isinstance(node, dict) and node:
        del node[data.draw(st.sampled_from(sorted(node)))]      # a missing key
    elif op == "drop" and isinstance(node, list) and node:
        node.pop()                                              # a row too short
    elif op == "add" and isinstance(node, dict):
        node[data.draw(st.sampled_from(KEYS))] = copy.deepcopy(value)
    elif op in ("add", "repeat") and isinstance(node, list):
        node.append(copy.deepcopy(node[-1] if op == "repeat" and node else value))
    return doc


@pytest.mark.parametrize("name", sorted(VALID))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_validate_document_agrees_with_jsonschema(name, data):
    doc = copy.deepcopy(VALID[name])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(data, doc)
    expected = reference(doc, name)
    assert verdict(doc, name) == expected
    # the walker never proves valid what jsonschema rejects
    assert not cli._proven(doc, cli._schema(name)) or expected is None


@pytest.mark.parametrize("name", sorted(VALID))
def test_walker_proves_valid_documents(name):
    # valid documents, numpy.float64 numbers included, never need jsonschema
    doc = VALID[name]
    assert cli._proven(doc, cli._schema(name))
    floats = json.loads(json.dumps(doc), parse_float=np.float64)
    assert cli._proven(floats, cli._schema(name)) and reference(floats, name) is None


@pytest.mark.parametrize("name, path, value, proven", [
    ("solution.schema.json", ["iterations"], True, False),         # a bool for an integer
    ("solution.schema.json", ["iterations"], 3.0, False),          # valid to jsonschema
    ("solution.schema.json", ["residual"], 0, True),               # at `minimum`
    ("solution.schema.json", ["residual"], math.nan, True),        # NaN passes a bound
    ("solution.schema.json", ["residual"], -5e-324, False),
    ("cloud.schema.json", ["a"], 0.0, False),                      # at `exclusiveMinimum`
    ("cloud.schema.json", ["a"], math.inf, True),
    ("cloud.schema.json", ["centers", 1, 2], False, False),        # a bool for a number
    ("config.schema.json", ["solver", "fixed_n"], None, True),
    ("config.schema.json", ["solver", "fixed_n"], 0, False),       # below `minimum`
    ("config.schema.json", ["cloud", "kind"], "lattices", False),
    ("compare.schema.json", ["entries", 0, "note"], "extra", True),  # additionalProperties
    ("compare.schema.json", ["note"], "extra", False),
])
def test_walker_edge_cases(name, path, value, proven):
    doc = copy.deepcopy(VALID[name])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert cli._proven(doc, cli._schema(name)) is proven
    assert verdict(doc, name) == reference(doc, name)


def schema_keywords(schema):
    """Every keyword in schema and in the subschemas the walker descends into."""
    if isinstance(schema, dict):
        yield from schema
        for sub in [schema.get("items"), schema.get("additionalProperties"),
                    *schema.get("properties", {}).values()]:
            yield from schema_keywords(sub)


def test_schema_files_use_only_walked_keywords():
    paths = sorted(SCHEMAS.glob("*.json"))
    assert [p.name for p in paths] == sorted(VALID)
    for path in paths:
        schema = json.loads(path.read_text())
        assert schema["$schema"] == "https://json-schema.org/draft/2020-12/schema"
        assert set(schema_keywords(schema)) <= cli._KEYWORDS, path.name


@pytest.mark.parametrize("schema, good, bad, message", [
    ({"type": "string", "pattern": "^x"}, "xy", "yx", "'yx' does not match '^x'"),
    ({"type": "array", "items": {"type": "number", "multipleOf": 2}}, [2, 4], [3],
     "3 is not a multiple of 2"),
    # no `type`: jsonschema bounds any numbers.Number, numpy.int64 included
    ({"minimum": 1}, 2, np.int64(0), "np.int64(0) is less than the minimum of 1"),
])
def test_unmodelled_schema_falls_through_to_jsonschema(monkeypatch, schema, good, bad, message):
    monkeypatch.setattr(cli, "_schema", lambda name: schema)
    assert not cli._proven(good, schema) and not cli._proven(bad, schema)
    cli.validate_document(good, "synthetic")
    with pytest.raises(SchemaError) as exc:
        cli.validate_document(bad, "synthetic")
    assert str(exc.value) == message
