"""One counter primitive for the accounting dataclasses.

A stats class is a ``@dataclass`` of numbers and ``{key: count}`` dicts
with :class:`Counters` mixed in.  Hot paths increment its fields
directly (``stats.hits += 1``); the methods below, derived from the
fields, run once per report.  Fields of other types (tuples, flags) are
state: copied by ``snapshot``/``delta``, skipped by ``add``.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import Any, Dict, TypeVar

C = TypeVar("C", bound="Counters")


def _is_count(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Counters:
    """Mixin deriving snapshot/delta/add/bump/reset/to_dict from fields."""

    def snapshot(self: C) -> C:
        """A copy that later increments (dict fields included) miss."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return type(self)(**{name: dict(v) if isinstance(v, dict) else v
                             for name, v in values.items()})

    def delta(self: C, before: C) -> C:
        """What was counted since *before*, a :meth:`snapshot` of this."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            now, then = getattr(self, f.name), getattr(before, f.name)
            if isinstance(now, dict):
                now = {key: n - then.get(key, 0) for key, n in now.items()}
            elif _is_count(now):
                now = now - then
            out[f.name] = now
        return type(self)(**out)

    def add(self, other: "Counters") -> None:
        """Sum every counter of *other* into this object."""
        for f in fields(self):
            value = getattr(other, f.name)
            if isinstance(value, dict):
                for key, n in value.items():
                    self.bump(f.name, key, n)
            elif _is_count(value):
                setattr(self, f.name, getattr(self, f.name) + value)

    def bump(self, field: str, key: str, n: int = 1) -> None:
        """Count *n* more under *key* of the dict field *field*."""
        counts = getattr(self, field)
        counts[key] = counts.get(key, 0) + n

    def reset(self) -> None:
        """Every field back to its declared default."""
        for f in fields(self):
            setattr(self, f.name, f.default if f.default_factory is MISSING
                    else f.default_factory())

    def to_dict(self) -> Dict[str, Any]:
        """Fields in declaration order; dict keys sorted, tuples as lists."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = dict(sorted(value.items()))
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out
