"""JSON schemas for the command-line surface, plus a small validator.

The validator supports the subset of JSON Schema used here: ``type``,
``properties`` / ``required`` / ``additionalProperties``, ``items``,
``enum``, and ``anyOf``. Every CLI result object validates against its
subcommand's schema in ``SCHEMAS``; tests enforce this. JSON input is
checked against ``INPUT_SCHEMAS``, and an error names the JSON path, as in
``$.orders[0][1]: expected integer, got str``.
"""

from __future__ import annotations

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "boolean": bool,
    "null": type(None),
}


def validate_json(value, schema, path="$"):
    """Raise ValueError at the first schema violation."""
    if "anyOf" in schema:
        errors = []
        for option in schema["anyOf"]:
            try:
                validate_json(value, option, path)
                return
            except ValueError as err:
                errors.append(str(err))
        raise ValueError(f"{path}: no anyOf branch matched ({'; '.join(errors)})")
    expected = schema.get("type")
    if expected is not None:
        py_type = _TYPES[expected]
        if py_type is int and isinstance(value, bool):
            raise ValueError(f"{path}: expected integer, got boolean")
        if not isinstance(value, py_type):
            raise ValueError(f"{path}: expected {expected}, got {type(value).__name__}")
    if "enum" in schema and value not in schema["enum"]:
        raise ValueError(f"{path}: {value!r} not in enum")
    if expected == "object":
        for key in schema.get("required", ()):
            if key not in value:
                raise ValueError(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, sub in properties.items():
            if key in value:
                validate_json(value[key], sub, f"{path}.{key}")
        if schema.get("additionalProperties") is False:
            extras = set(value) - set(properties)
            if extras:
                raise ValueError(f"{path}: unexpected keys {sorted(extras)}")
    if expected == "array" and "items" in schema:
        for i, item in enumerate(value):
            validate_json(item, schema["items"], f"{path}[{i}]")


_INT_ARRAY = {"type": "array", "items": {"type": "integer"}}
_INT_ROWS = {"type": "array", "items": _INT_ARRAY}
_STRING_ARRAY = {"type": "array", "items": {"type": "string"}}


def _nullable(schema):
    return {"anyOf": [schema, {"type": "null"}]}


_NULLABLE_INT_ARRAY = _nullable(_INT_ARRAY)


SCHEMAS = {
    "winners": {
        "type": "object",
        "required": ["m", "n", "rule", "scores", "winners"],
        "properties": {
            "m": {"type": "integer"},
            "n": {"type": "integer"},
            "rule": {"type": "string"},
            "scores": _INT_ARRAY,
            "winners": _INT_ARRAY,
            "condorcet_winner": {"anyOf": [{"type": "integer"}, {"type": "null"}]},
            "labels": _STRING_ARRAY,
        },
        "additionalProperties": False,
    },
    "kemeny": {
        "type": "object",
        "required": ["score", "ranking", "d_a"],
        "properties": {
            "score": {"type": "integer"},
            "ranking": _INT_ARRAY,
            "d_a": {"type": "integer"},
            "method": {"type": "string", "enum": ["dp", "brute-force"]},
        },
        "additionalProperties": False,
    },
    "dodgson": {
        "anyOf": [
            {
                "type": "object",
                "required": ["target", "score"],
                "properties": {
                    "target": {"type": "integer"},
                    "score": {"type": "integer"},
                },
                "additionalProperties": False,
            },
            {
                "type": "object",
                "required": ["scores"],
                "properties": {"scores": _INT_ARRAY},
                "additionalProperties": False,
            },
        ]
    },
    "ccdv": {
        "type": "object",
        "required": ["yes", "deleted", "target", "d", "k"],
        "properties": {
            "yes": {"type": "boolean"},
            "deleted": _NULLABLE_INT_ARRAY,
            "target": {"type": "integer"},
            "d": {"type": "integer"},
            "k": {"type": "integer"},
        },
        "additionalProperties": False,
    },
    "bribe": {
        "type": "object",
        "required": ["yes", "flavor", "cost", "bribed"],
        "properties": {
            "yes": {"type": "boolean"},
            "flavor": {
                "type": "string",
                "enum": ["unit", "priced", "swap", "shift"],
            },
            "cost": {"anyOf": [{"type": "integer"}, {"type": "null"}]},
            "bribed": _NULLABLE_INT_ARRAY,
        },
        "additionalProperties": False,
    },
    "structure": {
        "anyOf": [
            {
                "type": "object",
                "required": ["single_peaked", "axis"],
                "properties": {
                    "single_peaked": {"type": "boolean"},
                    "axis": _NULLABLE_INT_ARRAY,
                },
                "additionalProperties": False,
            },
            {
                "type": "object",
                "required": ["single_crossing", "max_crossings"],
                "properties": {
                    "single_crossing": {"type": "boolean"},
                    "max_crossings": {"type": "integer"},
                },
                "additionalProperties": False,
            },
            {
                "type": "object",
                "required": ["separable", "groups"],
                "properties": {
                    "separable": {"type": "boolean"},
                    "groups": {
                        "anyOf": [
                            {"type": "array", "items": _INT_ARRAY},
                            {"type": "null"},
                        ]
                    },
                },
                "additionalProperties": False,
            },
            {
                "type": "object",
                "required": ["distance", "witness", "mode"],
                "properties": {
                    "distance": {"type": "integer"},
                    "witness": _INT_ARRAY,
                    "mode": {"type": "string", "enum": ["voters", "alternatives"]},
                },
                "additionalProperties": False,
            },
        ]
    },
    "mab": {
        "type": "object",
        "required": ["yes", "ballot"],
        "properties": {
            "yes": {"type": "boolean"},
            "ballot": _NULLABLE_INT_ARRAY,
        },
        "additionalProperties": False,
    },
    "wcs": {
        "anyOf": [
            {
                "type": "object",
                "required": ["yes", "assignment"],
                "properties": {
                    "yes": {"type": "boolean"},
                    "assignment": {
                        "anyOf": [_STRING_ARRAY, {"type": "null"}]
                    },
                    "weight": {"type": "integer"},
                },
                "additionalProperties": False,
            },
            {
                "type": "object",
                "required": ["weft", "depth"],
                "properties": {
                    "weft": {"type": "integer"},
                    "depth": {"type": "integer"},
                },
                "additionalProperties": False,
            },
        ]
    },
    "cake": {
        "type": "object",
        "required": [
            "protocol",
            "division",
            "values",
            "proportional",
            "envy_free",
            "equitable",
            "equal_valued",
            "utilitarian",
            "egalitarian",
        ],
        "properties": {
            "protocol": {
                "type": "string",
                "enum": ["cut-and-choose", "last-diminisher"],
            },
            "division": {
                "type": "array",
                "items": {"type": "array", "items": _STRING_ARRAY},
            },
            "values": {"type": "array", "items": _STRING_ARRAY},
            "proportional": {"type": "boolean"},
            "envy_free": {"type": "boolean"},
            "equitable": {"type": "boolean"},
            "equal_valued": {"type": "boolean"},
            "utilitarian": {"type": "string"},
            "egalitarian": {"type": "string"},
        },
        "additionalProperties": False,
    },
    "gen": {
        "type": "object",
        "required": ["m", "n", "model", "seed", "orders"],
        "properties": {
            "m": {"type": "integer"},
            "n": {"type": "integer"},
            "model": {"type": "string"},
            "seed": {"type": "integer"},
            "orders": _INT_ROWS,
            "axis": _INT_ARRAY,
            "positions": {
                "type": "object",
                "required": ["alternatives", "voters"],
                "properties": {
                    "alternatives": _STRING_ARRAY,
                    "voters": _STRING_ARRAY,
                },
                "additionalProperties": False,
            },
        },
        "additionalProperties": False,
    },
}


# JSON read by the command line. A null ``labels``, ``swap_prices`` or
# ``shift_tariffs`` means the key is absent.
INPUT_SCHEMAS = {
    "election": {
        "type": "object",
        "required": ["orders"],
        "properties": {"orders": _INT_ROWS, "labels": _nullable({"type": "array"})},
    },
    "prices": {
        "type": "object",
        "properties": {
            "voter_prices": _INT_ARRAY,
            "swap_prices": _nullable({"type": "array", "items": _INT_ROWS}),
            "shift_tariffs": _nullable(_INT_ROWS),
        },
    },
    "mab": {
        "type": "object",
        "required": ["m", "ballots"],
        "properties": {"m": {"type": "integer"}, "ballots": _INT_ROWS, "agenda": _INT_ARRAY},
    },
}
