"""Dict form of the report dataclasses, for ``--json`` output and round trips."""

from __future__ import annotations

import dataclasses
import enum
import types
import typing


def _enum_values(pairs: list[tuple[str, object]]) -> dict:
    return {k: v.value if isinstance(v, enum.Enum) else v for k, v in pairs}


def to_dict(report) -> dict:
    """A dataclass as a dict in field order, nested dataclasses included; enums become values."""
    return dataclasses.asdict(report, dict_factory=_enum_values)


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
