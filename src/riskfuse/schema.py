"""Declared JSON config keys, each with its type, default and range, checked by
one walk; every failure is a ``ConfigError`` naming the dotted key."""

import operator
import sys
from dataclasses import dataclass
from types import MappingProxyType

from .errors import ConfigError

REQUIRED = object()  # the default of a key every config must set

_KINDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string", tuple: "a list of strings"}
_BOUNDS = ((">=", "ge", operator.ge), (">", "gt", operator.gt), ("<=", "le", operator.le), ("<", "lt", operator.lt))


@dataclass(frozen=True)
class Key:
    """One config leaf of kind int, float (any finite number), bool, str or
    tuple (a list of strings). Numbers must meet the bounds that are set, and
    a list must hold at least ``min_len`` items, none of them twice. ``choices``
    are the strings a str key takes or a list may hold, or that a float key
    takes besides numbers. null is accepted only when ``null`` is set."""

    kind: type
    default: object = REQUIRED
    ge: float | None = None
    gt: float | None = None
    le: float | None = None
    lt: float | None = None
    choices: tuple = ()
    null: bool = False
    min_len: int = 0

    def read(self, raw, name: str):
        """The JSON value ``raw`` as this key's value; a ConfigError names ``name``."""
        if raw is None and self.null or self.kind is float and raw in self.choices:
            return raw
        number = type(raw) in (int, float) and abs(raw) <= sys.float_info.max
        if not {int: type(raw) is int, float: number, bool: type(raw) is bool, str: type(raw) is str,
                tuple: type(raw) is list and all(type(x) is str for x in raw)}[self.kind]:
            alternatives = [_KINDS[self.kind], *(repr(c) for c in self.choices if self.kind is float)]
            raise ConfigError(f"{name} must be {' or '.join(alternatives + ['null'] * self.null)}, got {raw!r}")
        for sign, attr, holds in _BOUNDS:
            if getattr(self, attr) is not None and not holds(raw, getattr(self, attr)):
                raise ConfigError(f"{name} must be {sign} {getattr(self, attr)}, got {raw!r}")
        if self.kind is tuple and len(raw) < self.min_len:
            raise ConfigError(f"{name} must hold at least {self.min_len} item(s), got {raw!r}")
        if self.kind is str and self.choices and raw not in self.choices:
            raise ConfigError(f"{name} must be one of {', '.join(self.choices)}, got {raw!r}")
        for i, item in enumerate(raw if self.kind is tuple else ()):
            if self.choices and item not in self.choices:
                raise ConfigError(f"{name} holds {item!r}; expected one of {', '.join(self.choices)}")
            if item in raw[:i]:
                raise ConfigError(f"{name} must not repeat {item!r}")
        return float(raw) if self.kind is float else tuple(raw) if self.kind is tuple else raw


def read(schema: dict, raw, name: str = "") -> MappingProxyType:
    """The checked values of one config section, with defaults for the keys it
    omits, as a read-only mapping (its subsections too)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name or 'config'} must be a JSON object, got {raw!r}")
    path = f"{name}.{{}}" if name else "{}"
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key {path.format(key)!r}; expected one of {', '.join(schema)}")
    values = {}
    for key, spec in schema.items():
        if isinstance(spec, dict):
            values[key] = read(spec, raw.get(key, {}), path.format(key))
        elif key in raw:
            values[key] = spec.read(raw[key], path.format(key))
        elif spec.default is REQUIRED:
            raise ConfigError(f"config is missing required key {path.format(key)!r}")
        else:
            values[key] = spec.default
    return MappingProxyType(values)


def write(schema: dict, values: dict) -> dict:
    """Checked values as JSON, in the schema's key order."""
    return {key: write(spec, values[key]) if isinstance(spec, dict) else
            list(values[key]) if isinstance(values[key], tuple) else values[key] for key, spec in schema.items()}
