"""Deterministic JSON report emission and lightweight schema validation.

Reports must be byte-identical for identical inputs: ``json.dumps`` keeps
insertion order and writes each float as its shortest repr, which reads back
as the same float (and ``1.0`` stays a float).  NaN and infinities are not
JSON, so they raise instead of being written.  Each report kind has a schema
file shipped under ``nehari/schemas``, whose ``required`` list gives its keys
in the order they are written; the validator below covers the subset of JSON
Schema those files use (type, properties, required, items, enum,
additionalProperties).
"""

from __future__ import annotations

import json
from importlib import resources

__all__ = ["dumps", "write_json", "load_schema", "validate", "SchemaError"]


class SchemaError(ValueError):
    pass


def dumps(obj) -> str:
    """Indented JSON text of a report; NaN and infinities raise ValueError."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def write_json(obj, path) -> None:
    """Write dumps(obj) to path; a report that cannot be dumped leaves no file."""
    text = dumps(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_schema(name: str) -> dict:
    text = resources.files("nehari.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


_TYPES = {
    "object": dict,
    "array": (list, tuple),
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
    "null": type(None),
}


def _check(obj, schema, path, errors):
    typ = schema.get("type")
    if typ is not None:
        allowed = typ if isinstance(typ, list) else [typ]
        ok = False
        for name in allowed:
            pytype = _TYPES[name]
            if isinstance(obj, pytype) and not (
                name in ("integer", "number") and isinstance(obj, bool)
            ):
                ok = True
                break
        if not ok:
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
                _check(value, props[key], f"{path}.{key}", errors)
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(obj, (list, tuple)) and "items" in schema:
        for i, value in enumerate(obj):
            _check(value, schema["items"], f"{path}[{i}]", errors)


def validate(obj, schema) -> None:
    """Raise SchemaError listing every violation, or return quietly."""
    errors: list[str] = []
    _check(obj, schema, "$", errors)
    if errors:
        raise SchemaError("; ".join(errors))
