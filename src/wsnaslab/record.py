"""Strict JSON codec for the configuration dataclasses and table entries.

A dataclass that subclasses Record gets `to_dict` and `from_dict`. JSON keys
are the field names. A missing key takes the field's default and an unknown
key raises, so a typo never silently runs with defaults. Each value is
checked against its field's annotation: an int field takes only ints (not
bools or floats), a float field takes ints or floats and keeps the value as
given, bool and str fields take only their own type, `X | None` also takes
null, tuple fields take lists whose items follow the same rules, and a
nested Record parses from an object.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing


class _Mismatch(Exception):
    pass


def _decode(value, hint):
    """`value` as the annotation `hint` holds it; _Mismatch if it does not fit."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise _Mismatch
        return tuple(_decode(v, args[0]) for v in value)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _decode(value, hint)
    if issubclass(hint, Record):
        if not isinstance(value, dict):
            raise _Mismatch
        return hint.from_dict(value)
    if hint is float:
        fits = isinstance(value, (int, float)) and not isinstance(value, bool)
    elif hint is int:
        fits = isinstance(value, int) and not isinstance(value, bool)
    else:
        fits = isinstance(value, hint)
    if not fits:
        raise _Mismatch
    return value


def _describe(hint) -> str:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        return f"a list of {_describe(args[0])}"
    if origin in (typing.Union, types.UnionType):
        return " or ".join("null" if a is type(None) else _describe(a) for a in args)
    return "an object" if issubclass(hint, Record) else hint.__name__


def _encode(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


@functools.cache
def _fields(cls) -> tuple[tuple[str, ...], dict]:
    """Field names and resolved annotations of a Record class, resolved once."""
    return tuple(f.name for f in dataclasses.fields(cls)), typing.get_type_hints(cls)


class Record:
    """Base of a persisted dataclass; `label` names it in error messages."""

    def __init_subclass__(cls, label: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._label = label

    def to_dict(self) -> dict:
        return {name: _encode(getattr(self, name)) for name in _fields(type(self))[0]}

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise ValueError(f"{cls._label} must be an object, got {d!r}")
        names, hints = _fields(cls)
        unknown = set(d) - set(names)
        if unknown:
            raise ValueError(f"unknown {cls._label} keys: {sorted(unknown)}")
        kwargs = {}
        for name in names:
            if name in d:
                try:
                    kwargs[name] = _decode(d[name], hints[name])
                except _Mismatch:
                    raise ValueError(
                        f"{cls._label}.{name} must be {_describe(hints[name])}, got {d[name]!r}"
                    ) from None
        return cls(**kwargs)
