"""Dict form of the report dataclasses, for ``--json`` output and round trips."""

from __future__ import annotations

import dataclasses
import enum
import functools
import types
import typing

# Values returned as they are, recognised by exact type before any other check.
_PLAIN = frozenset({bool, int, float, str, type(None)})


def to_dict(report) -> dict:
    """A dataclass as a dict in field order, nested dataclasses included; enums become values.

    Fields are walked directly, with no deep copy: a nested dataclass becomes a
    dict, a tuple stays a tuple of its converted elements, and every other
    value is returned as it is.
    """
    return {name: _dump(getattr(report, name)) for name in _field_names(type(report))}


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _dump(value):
    if type(value) in _PLAIN:
        return value
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return tuple(_dump(v) for v in value)
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    return value


def from_dict(cls, data: dict):
    """Rebuild a dataclass from `to_dict` output or its JSON round trip.

    Values are converted by following the field type hints: tuples of
    dataclasses are rebuilt element by element, enums from their values, and
    ``X | None`` fields accept None.
    """
    hints = typing.get_type_hints(cls)
    return cls(**{name: _load(hint, data[name]) for name, hint in hints.items() if name in data})


def _load(hint, value):
    if value is None:
        return None
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    if typing.get_origin(hint) is tuple:
        return tuple(_load(typing.get_args(hint)[0], v) for v in value)
    if dataclasses.is_dataclass(hint):
        return from_dict(hint, value)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint(value)
    return value
