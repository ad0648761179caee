"""`ConfigError`, and the check of a config's JSON object before the config
is built. Each config is a frozen dataclass that checks its ranges in
`__post_init__`, which `dataclasses.replace` runs too: a config that exists
has passed its check."""

import dataclasses
import json
import sys

import numpy as np


class ConfigError(ValueError):
    """Bad or inconsistent configuration input."""


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_number_list(v):
    """A list of numbers or of such lists, to any depth, ragged or not."""
    return isinstance(v, list) and all(_is_number(e) or _is_number_list(e) for e in v)


# field annotation -> (what its JSON value must be, the test of a value)
_JSON_TYPES = {
    int: ("an integer", _is_int),
    float: ("a finite number", lambda v: _is_number(v) and abs(v) <= sys.float_info.max),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of integers",
            lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
    np.ndarray | None: ("null or a list of numbers", lambda v: v is None or _is_number_list(v)),
}
_OBJECT = ("a JSON object", lambda v: isinstance(v, dict))


def _shown(value, limit=40):
    text = json.dumps(value, default=repr)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def json_fields(cls, d, **extra):
    """A copy of the JSON object `d` whose keys are fields of the dataclass
    `cls`, or keys of `extra` (name -> annotation), checked before `cls` is
    built.

    Every field without a default must be present, and every value of the
    JSON type its annotation names; a nested config must be an object.
    Raises ConfigError naming `cls` and the field at fault.
    """
    name = cls.__name__
    if not isinstance(d, dict):
        raise ConfigError(f"{name}: expected a JSON object, got {_shown(d)}")
    fields = dataclasses.fields(cls)
    types = {f.name: f.type for f in fields} | extra
    unknown = set(d) - set(types)
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    missing = [f.name for f in fields if f.name not in d
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{name}: missing keys {missing}")
    for key, value in d.items():
        kind = types[key]
        what, ok = _OBJECT if dataclasses.is_dataclass(kind) else _JSON_TYPES[kind]
        if not ok(value):
            raise ConfigError(f"{name}: {key} must be {what}, got {_shown(value)}")
    return dict(d)
