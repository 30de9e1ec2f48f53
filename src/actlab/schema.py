"""Strict JSON documents for frozen dataclasses: the dataclasses are the schema.

A dataclass's fields, their annotated types and their defaults are the only
declaration of what its JSON object may hold. ``parse`` reads them through
``dataclasses.fields`` and ``typing.get_type_hints``:

- ``int``, ``float``, ``str`` and ``bool`` are checked leaves (a bool is not
  an integer, and a number must be finite in float64);
- ``Annotated[X, rule]`` (a ``Bound`` such as ``Positive``, or a ``Match``)
  and ``Literal`` string choices carry a rule, which ``check_fields`` applies;
- ``tuple[X, ...]`` is a list whose items get indexed paths (``a.b[2]``);
- ``X | None`` is ``null`` or an ``X``;
- a dataclass is a nested object, and a field with no default a required key;
  a key omitted inside a block takes its value from the enclosing field's
  default block, so each key has one default.

Parsing is closed-world: an unknown key is an error. Every complaint is a
``ConfigError`` carrying the full dotted path of the offending field, and a
``ContractViolation`` from a dataclass's own cross-field checks becomes one
at the path of its object. ``to_plain`` is the inverse: the fields in order,
tuples as lists.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
import types
import typing
from typing import Annotated

from .errors import ConfigError, ContractViolation


@dataclasses.dataclass(frozen=True)
class Bound:
    """Numbers from `lo` to `hi`, each end included unless marked open; never NaN."""

    lo: float
    hi: float = math.inf
    open_lo: bool = False
    open_hi: bool = False

    def complaint(self, x):
        if (self.lo < x if self.open_lo else self.lo <= x) and \
                (x < self.hi if self.open_hi else x <= self.hi):
            return None
        where = (f"{'>' if self.open_lo else '>='} {self.lo}" if self.hi == math.inf else
                 f"in {'[('[self.open_lo]}{self.lo}, {self.hi}{'])'[self.open_hi]}")
        return f"must be {where}, got {x!r}"


@dataclasses.dataclass(frozen=True)
class Match:
    """Strings that the regular expression `pattern` matches in full."""

    pattern: str

    def complaint(self, s):
        return None if re.fullmatch(self.pattern, s, re.DOTALL) else \
            f"must match {self.pattern!r}, got {s!r}"


Positive = Annotated[float, Bound(0, open_lo=True)]
NonNegative = Annotated[float, Bound(0)]
Fraction = Annotated[float, Bound(0, 1, open_hi=True)]
Probability = Annotated[float, Bound(0, 1)]
Natural = Annotated[int, Bound(0)]
Count = Annotated[int, Bound(1)]
Classes = Annotated[int, Bound(2)]


def _rule(tp):
    """(plain type, complaint function) of a field type that carries a rule, else None."""
    if typing.get_origin(tp) is Annotated:
        return tp.__origin__, tp.__metadata__[0].complaint
    if typing.get_origin(tp) is typing.Literal:
        choices = typing.get_args(tp)
        return str, lambda s: None if s in choices else \
            f"must be one of {', '.join(map(repr, choices))}, got {s!r}"
    return None


@functools.cache
def _rules(cls):
    hints = typing.get_type_hints(cls, include_extras=True)
    return [(f.name, rule[1]) for f in dataclasses.fields(cls) if (rule := _rule(hints[f.name]))]


def check_fields(obj):
    """Refuse a field of dataclass `obj` outside its annotated range or choices."""
    for name, complaint in _rules(type(obj)):
        if (problem := complaint(getattr(obj, name))) is not None:
            raise ContractViolation(f"{name}: {problem}")


def _fail(path, message):
    raise ConfigError(path or "<root>", message)


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


def _exact(kind, noun):
    """Parser for a leaf that must be a `kind` itself (a bool is not an int)."""
    def parse_leaf(v, path):
        if type(v) is not kind:
            _fail(path, f"expected {noun}, got {v!r}")
        return v
    return parse_leaf


_LEAVES = {int: _exact(int, "an integer"), float: _num, str: _exact(str, "a string"),
           bool: _exact(bool, "true/false")}


def _parser_for(tp):
    """The value parser for one annotated field type."""
    if tp in _LEAVES:
        return _LEAVES[tp]
    if dataclasses.is_dataclass(tp):
        return _object_parser(tp)
    ruled = _rule(tp)
    if ruled is not None:  # its rule is checked by the enclosing object's parser
        return _parser_for(ruled[0])
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
    hints = typing.get_type_hints(cls, include_extras=True)
    fields = {f.name: (_parser_for(hints[f.name]), dataclasses.is_dataclass(hints[f.name]),
                       f.default_factory() if callable(f.default_factory) else f.default)
              for f in dataclasses.fields(cls)}

    def parse_object(v, path, base=dataclasses.MISSING):
        """`base`, if given, is the default block that omitted keys come from."""
        if not isinstance(v, dict):
            _fail(path, f"expected an object, got {type(v).__name__}")
        unknown = sorted(set(v) - fields.keys())
        if unknown:
            where = f"{path}.{unknown[0]}" if path else unknown[0]
            rest = f" (and {len(unknown) - 1} more)" if len(unknown) > 1 else ""
            _fail(where, f"unknown key{rest}")
        kwargs = {}
        for key, (item, nested, own_default) in fields.items():
            sub = f"{path}.{key}" if path else key
            default = own_default if base is dataclasses.MISSING else getattr(base, key)
            if key in v:
                kwargs[key] = item(v[key], sub, default) if nested else item(v[key], sub)
            elif default is dataclasses.MISSING:
                _fail(sub, "missing required key")
            else:
                kwargs[key] = default
        for key, complaint in _rules(cls):
            if (problem := complaint(kwargs[key])) is not None:
                _fail(f"{path}.{key}" if path else key, problem)
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
