"""reports.validate against the reference JSON Schema implementation.

The hand-written validator covers the subset of JSON Schema the shipped
schemas use.  On the documents a real run writes, and on mutations of them,
it must accept exactly what ``jsonschema`` accepts.
"""

import copy
import io
import json
import re
from contextlib import redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nehari.cli import EXIT_OK, main
from nehari.reports import SchemaError, load_schema, validate

jsonschema = pytest.importorskip("jsonschema")

CONFIG = {
    "grid": {"dim": 1, "extents": [1.0], "points": [49]},
    "coefficients": {"lam1": 1.0, "lam2": 1.0, "mu1": 1.0, "mu2": 1.0, "beta": 0.5},
    "sources": {
        "f": {"kind": "eigen", "amplitude": 1.0},
        "g": {"kind": "gaussian", "center": [0.5], "width": 0.1, "amplitude": 1.0},
        "autoscale": {"rho": 0.5},
    },
    "solver": {"max_iters": 50000, "grad_tol": 1e-8},
    "seed": 0,
    "branch_seeds": [0, 1],
}

# one value of each JSON type.  JSON Schema counts an integral float such as
# 5.0 as an integer, and reports.validate does not, since a report never
# writes one where an integer belongs; so no float here is integral.
JSON_VALUES = {
    "null": None,
    "boolean": True,
    "string": "text",
    "integer": 7,
    "number": 2.5,
    "array": [0.5, "a"],
    "object": {"k": 0.5},
}


def json_type(value) -> str:
    for name, example in JSON_VALUES.items():
        if type(value) is type(example):
            return name
    raise TypeError(type(value))


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """(document, schema name) pairs of a 1D 49 solve, threshold and fibering run."""
    tmp = tmp_path_factory.mktemp("run")
    cfg, out = str(tmp / "config.json"), tmp / "out"
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(CONFIG, fh)
    assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["threshold", "--config", cfg, "--out", str(tmp / "threshold")]) == EXIT_OK
    fibering = io.StringIO()
    with redirect_stdout(fibering):
        assert main(["fibering", "--config", cfg]) == EXIT_OK
    files = [
        (out / "threshold.json", "threshold_report"),
        (out / "ground_state.json", "solve_report"),
        (out / "bound_state.json", "solve_report"),
        (out / "checks.json", "checks"),
        (tmp / "threshold" / "threshold.json", "threshold_report"),
        (tmp / "config.json", "problem_config"),
    ]
    docs = [(json.loads(path.read_text(encoding="utf-8")), name) for path, name in files]
    return docs + [(json.loads(fibering.getvalue()), "fibering_analysis")]


def paths(doc, at=()):
    """The path of every value in doc, doc itself first."""
    yield at
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, at + (key,))


def locate(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc):
    """doc after one to three mutations: a key dropped, a key added, or a
    value swapped for one of another JSON type."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        every = list(paths(doc))
        objects = [p for p in every if isinstance(locate(doc, p), dict)]
        kind = draw(st.sampled_from(["drop", "add", "swap"]))
        if kind == "drop":
            obj = locate(doc, draw(st.sampled_from(objects)))
            if obj:
                del obj[draw(st.sampled_from(sorted(obj)))]
        elif kind == "add":
            obj = locate(doc, draw(st.sampled_from(objects)))
            obj["unexpected"] = copy.deepcopy(JSON_VALUES[draw(st.sampled_from(sorted(JSON_VALUES)))])
        elif len(every) > 1:
            path = draw(st.sampled_from(every[1:]))
            parent, key = locate(doc, path[:-1]), path[-1]
            others = sorted(set(JSON_VALUES) - {json_type(parent[key])})
            parent[key] = copy.deepcopy(JSON_VALUES[draw(st.sampled_from(others))])
    return doc


def accepts(doc, schema) -> bool:
    try:
        validate(doc, schema)
    except SchemaError:
        return False
    return True


def test_validate_names_a_value_outside_its_enum():
    doc = copy.deepcopy(CONFIG)
    doc["grid"]["dim"] = 3
    schema = load_schema("problem_config")
    assert not jsonschema.Draft202012Validator(schema).is_valid(doc)
    with pytest.raises(SchemaError, match=re.escape("$.grid.dim: 3 not in [1, 2]")):
        validate(doc, schema)


def test_run_documents_pass_both_validators(documents):
    for doc, name in documents:
        schema = load_schema(name)
        jsonschema.validate(doc, schema)
        validate(doc, schema)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_validate_rejects_exactly_what_jsonschema_rejects(documents, data):
    doc, name = data.draw(st.sampled_from(documents))
    schema = load_schema(name)
    bad = data.draw(mutated(doc))
    reference = jsonschema.Draft202012Validator(schema).is_valid(bad)
    assert accepts(bad, schema) == reference, (name, bad)
