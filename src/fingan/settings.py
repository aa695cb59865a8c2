"""Typed settings: one parser from JSON objects to settings dataclasses.

A settings class is a dataclass whose fields are exactly the keys of its
JSON object, with their defaults. Its ``__post_init__`` calls
``check_fields``, which rejects a value that has no JSON type of the
field's annotation or is a non-finite float, and then checks ranges, so a settings object built
directly is checked the same way as one parsed from JSON.
"""

import math
from dataclasses import fields, is_dataclass
from typing import get_args

TOP_LEVEL = "top-level"  # the root section; its sections are named by their key alone

# the JSON types a setting takes, by its declared type
JSON_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
              float: ((int, float), "a number"), str: ((str,), "a string"),
              dict: ((dict,), "an object"), list: ((list,), "a list")}


def check_type(key, value, declared):
    """Reject value unless it has a JSON type of declared, a type or a union
    of types such as float | str, and a float unless it is finite."""
    wanted = [JSON_TYPES[t] for t in get_args(declared) or (declared,)]
    if not any(type(value) in types for types, _ in wanted):
        raise ValueError(f"{key} must be "
                         f"{' or '.join(name for _, name in wanted)}, got {value!r}")
    if type(value) is float and not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")


def check_fields(settings):
    """Type-check each field of a settings dataclass by its annotation; a
    nested settings field has checked its own."""
    for f in fields(settings):
        if not is_dataclass(f.type):
            check_type(f.name, getattr(settings, f.name), f.type)


def check_at_least_1(settings, *names):
    for name in names:
        if getattr(settings, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(settings, name)!r}")


def parse_settings(cls, section, d):
    """cls built from the JSON object d, defaults filled in.

    A key that is not a field of cls is rejected. A field typed by a
    settings class is parsed the same way from its own object (an absent one
    is empty) as section "<section>.<field>". Every ValueError names its
    section and key: "<section>: <key> must be ...", or "unknown <section>
    setting(s): '<key>'".
    """
    if not isinstance(d, dict):
        raise ValueError(f"{section} must be an object, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {section} setting(s): {', '.join(map(repr, unknown))}")
    values = dict(d)
    for f in fields(cls):
        if is_dataclass(f.type):
            sub = d.get(f.name, {})
            if not isinstance(sub, dict):
                raise ValueError(f"{section}: {f.name} must be an object, got {sub!r}")
            child = f.name if section == TOP_LEVEL else f"{section}.{f.name}"
            values[f.name] = parse_settings(f.type, child, sub)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{section}: {exc}") from None
