"""Deterministic JSON reading and writing, and lightweight schema validation.

Every JSON document the package writes or reads is validated against its
named schema here.  Reports must be byte-identical for identical inputs:
``json.dumps`` keeps insertion order and writes each float as its shortest
repr, which reads back as the same float (and ``1.0`` stays a float).  NaN
and infinities are not JSON, so they raise instead of being written, and a
document that holds them, or a number too large for a float, is not read.
Each report kind has a schema file shipped under ``nehari/schemas``, whose
``required`` list gives its keys in the order they are written; the validator
below covers the subset of JSON Schema those files use (type, properties,
required, items, enum, additionalProperties, and $ref to a definition under
the root's $defs).
"""

from __future__ import annotations

import functools
import json
import sys
from importlib import resources

__all__ = ["dumps", "write_json", "read_json", "load_schema", "validate", "SchemaError"]


class SchemaError(ValueError):
    pass


def dumps(obj, schema: str) -> str:
    """Indented JSON text of a report valid under the named schema; a schema
    violation raises SchemaError, NaN and infinities ValueError."""
    validate(obj, load_schema(schema))
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def write_json(obj, schema: str, path) -> None:
    """Write dumps(obj, schema) to path; a report that cannot be dumped leaves no file."""
    text = dumps(obj, schema)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path, schema: str):
    """The document in path, finite and valid under the named schema; a
    ValueError (not UTF-8, not JSON, a non-finite number, not valid) names
    path, as an OSError does."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
            bad = [f"{at}: non-finite number" for at in _non_finite(doc, "$")]
            if bad:
                raise ValueError("; ".join(bad))
            validate(doc, load_schema(schema))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return doc


def _non_finite(obj, path):
    """The path of every number in obj that is not a finite float: Python's
    json reads the NaN and Infinity tokens, 1e400 as inf, and a 400-digit
    integer as an int that float() cannot convert."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _non_finite(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _non_finite(value, f"{path}[{i}]")
    elif isinstance(obj, (int, float)) and not abs(obj) <= sys.float_info.max:
        yield path  # abs(nan) <= max is false; an int compares exactly


@functools.lru_cache(maxsize=None)
def _schema_text(name: str) -> str:
    return resources.files("nehari.schemas").joinpath(f"{name}.schema.json").read_text()


def load_schema(name: str) -> dict:
    """The named schema, read once per process; each call returns a fresh dict."""
    return json.loads(_schema_text(name))


_TYPES = {
    "object": dict,
    "array": (list, tuple),
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
    "null": type(None),
}


def _check(obj, schema, path, errors, root):
    if "$ref" in schema:  # only the form "#/$defs/<name>"; any other is a KeyError
        schema = root["$defs"][schema["$ref"].removeprefix("#/$defs/")]
    typ = schema.get("type")
    allowed = [] if typ is None else typ if isinstance(typ, list) else [typ]
    if allowed and not any(  # a bool is not a number
        isinstance(obj, _TYPES[name]) and not (isinstance(obj, bool) and name != "boolean")
        for name in allowed
    ):
        errors.append(f"{path}: expected {typ}, got {type(obj).__name__}")
        return
    if "enum" in schema and obj not in schema["enum"]:
        errors.append(f"{path}: {obj!r} not in {schema['enum']}")
    if isinstance(obj, dict):
        for key in schema.get("required", []):
            if key not in obj:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        for key, value in obj.items():
            if key in props:
                _check(value, props[key], f"{path}.{key}", errors, root)
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(obj, (list, tuple)) and "items" in schema:
        for i, value in enumerate(obj):
            _check(value, schema["items"], f"{path}[{i}]", errors, root)


def validate(obj, schema) -> None:
    """Raise SchemaError listing every violation, or return quietly."""
    errors: list[str] = []
    _check(obj, schema, "$", errors, schema)
    if errors:
        raise SchemaError("; ".join(errors))
