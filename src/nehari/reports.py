"""Deterministic JSON report emission and lightweight schema validation.

Reports must be byte-identical for identical inputs, so floats are always
serialized with fixed 17-significant-digit formatting and keys keep their
insertion order.  Each report kind has a schema file shipped under
``nehari/schemas``; the validator below covers the subset of JSON Schema
those files use (type, properties, required, items, enum,
additionalProperties).
"""

from __future__ import annotations

import json
import math
from importlib import resources

__all__ = ["dumps", "write_json", "load_schema", "validate", "SchemaError"]


class SchemaError(ValueError):
    pass


def _format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text  # "-0" would read back as the integer 0


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + _emit(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _emit(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps(obj) -> str:
    return _emit(obj, 0) + "\n"


def write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


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
