"""Dict form of the report dataclasses, for ``--json`` output."""

from __future__ import annotations

import dataclasses
import enum
import functools

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
