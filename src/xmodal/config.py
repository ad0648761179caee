"""The JSON boundary: `ConfigError`; `read_json`, the one reader of config
and checkpoint files; `build_config`, which checks a config's JSON object
and builds the config; and `json_text`, the one writer of checkpoints and
reports. Each config is a frozen dataclass that checks its ranges in
`__post_init__`, which `dataclasses.replace` runs too: a config that exists
has passed its check, and `dataclasses.asdict` gives its JSON object."""

import dataclasses
import json
import sys


class ConfigError(ValueError):
    """Bad or inconsistent configuration input."""


def read_json(path, header=None):
    """The JSON value in the file at `path`, whose first line must be
    `header` if one is given. Raises ConfigError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            if header is not None:
                line = fh.readline().rstrip("\n")
                if line != header:
                    raise ConfigError(f"{path}: expected header {header!r}, got {line!r}")
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def json_text(obj):
    """`obj` as indented JSON with sorted keys, so that equal values give
    equal bytes; a tuple is written as a list."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# field annotation -> (what its JSON value must be, the test of a value)
_JSON_TYPES = {
    int: ("an integer", _is_int),
    float: ("a finite number", lambda v: _is_number(v) and abs(v) <= sys.float_info.max),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of integers",
            lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
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


def build_config(cls, d, **extra):
    """The config `cls` built from its JSON object `d`, checked by
    `json_fields`: a nested config is built the same way, and a tuple field
    is made a tuple.

    Each keyword of `extra` names a key `d` may hold beside the fields of
    `cls`, and gives its default, whose type is the key's JSON type; the
    result is then (config, *the values of those keys).
    """
    d = json_fields(cls, d, **{key: type(default) for key, default in extra.items()})
    values = [d.pop(key, default) for key, default in extra.items()]
    for f in dataclasses.fields(cls):
        if f.name in d and dataclasses.is_dataclass(f.type):
            d[f.name] = build_config(f.type, d[f.name])
        elif f.name in d and f.type is tuple:
            d[f.name] = tuple(d[f.name])
    config = cls(**d)
    return (config, *values) if extra else config
