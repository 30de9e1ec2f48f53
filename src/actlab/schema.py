"""Strict JSON documents for frozen dataclasses: the dataclasses are the schema.

A dataclass's fields, their annotated types and their defaults are the only
declaration of what its JSON object may hold. ``parse`` reads them through
``dataclasses.fields`` and ``typing.get_type_hints``:

- ``int``, ``float``, ``str`` and ``bool`` are checked leaves (a bool is not
  an integer, and a number must be finite in float64);
- ``tuple[X, ...]`` is a list whose items get indexed paths (``a.b[2]``);
- ``X | None`` is ``null`` or an ``X``;
- a dataclass is a nested object, and a field with no default a required key.

Parsing is closed-world: an unknown key is an error. Every complaint is a
``ConfigError`` carrying the full dotted path of the offending field, and a
``ContractViolation`` from a dataclass's own checks becomes one at the path of
its object. ``to_plain`` is the inverse: the fields in order, tuples as lists.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing

from .errors import ConfigError, ContractViolation


def _fail(path, message):
    raise ConfigError(path or "<root>", message)


def _int(v, path):
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(path, f"expected an integer, got {v!r}")
    return v


def _num(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(path, f"expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        _fail(path, "number is out of float64 range")
    if not math.isfinite(x):
        _fail(path, f"expected a finite number, got {v!r}")
    return x


def _str(v, path):
    if not isinstance(v, str):
        _fail(path, f"expected a string, got {v!r}")
    return v


def _bool(v, path):
    if not isinstance(v, bool):
        _fail(path, f"expected true/false, got {v!r}")
    return v


_LEAVES = {int: _int, float: _num, str: _str, bool: _bool}


def _parser_for(tp):
    """The value parser for one annotated field type."""
    if tp in _LEAVES:
        return _LEAVES[tp]
    if dataclasses.is_dataclass(tp):
        return _object_parser(tp)
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = _parser_for(args[0])

        def parse_list(v, path):
            if not isinstance(v, (list, tuple)):
                _fail(path, f"expected a list, got {v!r}")
            return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(v))
        return parse_list
    if typing.get_origin(tp) in (types.UnionType, typing.Union) and len(args) == 2 \
            and type(None) in args:
        inner = _parser_for(args[0] if args[1] is type(None) else args[1])
        return lambda v, path: None if v is None else inner(v, path)
    raise TypeError(f"no JSON parser for field type {tp!r}")


@functools.cache
def _object_parser(cls):
    """Closed-world parser for dataclass `cls`, built once on first use."""
    hints = typing.get_type_hints(cls)
    fields = [(f.name, _parser_for(hints[f.name]),
               f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
              for f in dataclasses.fields(cls)]
    known = {name for name, _, _ in fields}

    def parse_object(v, path):
        if not isinstance(v, dict):
            _fail(path, f"expected an object, got {type(v).__name__}")
        unknown = sorted(set(v) - known)
        if unknown:
            where = f"{path}.{unknown[0]}" if path else unknown[0]
            rest = f" (and {len(unknown) - 1} more)" if len(unknown) > 1 else ""
            _fail(where, f"unknown key{rest}")
        kwargs = {}
        for key, item, required in fields:
            sub = f"{path}.{key}" if path else key
            if key in v:
                kwargs[key] = item(v[key], sub)
            elif required:
                _fail(sub, "missing required key")
        try:
            return cls(**kwargs)
        except ContractViolation as e:
            raise ConfigError(path or "<root>", str(e)) from e
    return parse_object


def parse(cls, doc, path=""):
    """Build dataclass `cls` from JSON document `doc`; `path` prefixes error paths."""
    return _object_parser(cls)(doc, path)


def to_plain(value):
    """A dataclass as a JSON-ready document: its fields in order, tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: to_plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [to_plain(x) for x in value]
    return value
