"""The one conversion between strings and typed config records.

Config files, bench rows, CLI flags and checkpoint meta lines all carry
strings. `from_strings` types each value by its record field: int, float,
str, bool, an enum's value, or a tuple written as a comma list. A bool is
exactly one of 1/0, true/false, yes/no or on/off, in any case. Every other value, and every
ValueError the record itself raises, is a ConfigError naming the key.
`to_strings` writes the fields back in forms `from_strings` reads.
"""

from __future__ import annotations

import enum
import typing

from .errors import ConfigError

BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
              "0": False, "false": False, "no": False, "off": False}


def _parse(kind, text: str):
    if kind is bool:
        return BOOL_WORDS[text.strip().lower()]
    if typing.get_origin(kind) is tuple:
        args = typing.get_args(kind)
        parts = text.split(",")
        if args[-1] is not Ellipsis and len(parts) != len(args):
            raise ValueError(f"expected {len(args)} values")
        return tuple(args[0](part) for part in parts)
    return kind(text)


def _describe(kind) -> str:
    if kind is bool:
        return "one of " + "/".join(BOOL_WORDS)
    if isinstance(kind, enum.EnumMeta):
        return "one of " + "/".join(member.value for member in kind)
    if typing.get_origin(kind) is tuple:
        return f"comma-separated {typing.get_args(kind)[0].__name__} values"
    return kind.__name__


def from_strings(cls, values: dict[str, str], **typed):
    """Build the record `cls` (a NamedTuple) from string values. `typed`
    gives fields that need no parsing (such as an embedding table) and wins
    over `values`."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, text in values.items():
        if key not in cls._fields:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _parse(hints[key], text)
        except (KeyError, ValueError):
            raise ConfigError(
                f"{key} = {text!r}: expected {_describe(hints[key])}"
            ) from None
    kwargs.update(typed)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {cls.__name__}: {exc}") from exc


def to_strings(obj) -> dict[str, str]:
    """Field name -> string, in field order; an enum becomes its value and a
    tuple a comma list."""
    return {name: ",".join(map(str, value)) if isinstance(value, tuple)
            else value.value if isinstance(value, enum.Enum) else str(value)
            for name, value in zip(obj._fields, obj)}
