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

A public function's arguments are declared the same way, in its annotations,
and the decorator ``checked`` applies the same rules to them.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import inspect
import math
import numbers
import re
import sys
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
        return type(choices[0]), lambda s: None if s in choices else \
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


def _integer(v):
    if type(v) is int or type(v) is not bool and isinstance(v, numbers.Integral):
        return None
    return "an integer"


def _number(v):
    if type(v) not in (float, int) and (type(v) is bool or not isinstance(v, numbers.Real)):
        return "a number"
    # an int is compared, not converted: float() may overflow
    finite = abs(v) <= sys.float_info.max if isinstance(v, int) else math.isfinite(v)
    return None if finite else "a finite number"


# The leaf rules of fields and arguments alike: None, or what the value should be.
# A bool is not an integer, nor a number. The exact types are tested first, since
# an isinstance check against a numbers ABC is slow.
_LEAVES = {int: _integer, float: _number,
           str: lambda v: None if type(v) is str else "a string",
           bool: lambda v: None if type(v) is bool else "true/false"}


def _leaf_parser(kind):
    """Parser for a leaf of type `kind`: its rule, then a float leaf's value as a float."""
    rule = _LEAVES[kind]

    def parse_leaf(v, path):
        if (noun := rule(v)) is not None:
            _fail(path, f"expected {noun}, got {v!r}")
        return float(v) if kind is float else v
    return parse_leaf


def _optional(tp):
    """X of a type `X | None`, else None."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (types.UnionType, typing.Union) and len(args) == 2 \
            and type(None) in args:
        return args[0] if args[1] is type(None) else args[1]
    return None


def _parser_for(tp):
    """The value parser for one annotated field type."""
    if tp in _LEAVES:
        return _leaf_parser(tp)
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
    if (inner := _optional(tp)) is not None:
        inner = _parser_for(inner)
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


def _arg_rule(tp):
    """complaint(v) of an argument annotated `tp`, or None if `tp` carries no rule.

    A complaint is None, or what follows the argument's name: " must be ...".
    """
    kind, rule = _rule(tp) or (tp, None)
    if kind in _LEAVES:
        leaf = _LEAVES[kind]

        def complaint(v):
            if (noun := leaf(v)) is not None:
                return f" must be {noun}, got {v!r}"
            if rule is not None and (problem := rule(v)) is not None:
                return f" {problem}"
            return None
        return complaint
    if (inner := _optional(tp)) and (inner_rule := _arg_rule(inner)):
        return lambda v: None if v is None else inner_rule(v)
    if typing.get_origin(tp) is collections.abc.Sequence and (item := _arg_rule(tp.__args__[0])):
        def each(v):
            if not isinstance(v, (list, tuple)):
                return f" must be a list or tuple, got {v!r}"
            return next((f"[{i}]{problem}" for i, x in enumerate(v) if (problem := item(x))),
                        None)
        return each
    return None


def checked(fn):
    """`fn`, refusing an argument outside the rule its annotation carries.

    The rules are ``parse``'s, read from `fn`'s annotations once, here: leaf
    types, ``Bound`` and ``Match`` aliases, ``Literal`` choices, ``X | None``
    and ``Sequence[X]`` (a list or tuple, each item an X). A call checks each
    such argument it passes, by position or keyword, before `fn` runs, and
    refuses a bad one with a ContractViolation such as "seed must be >= 0, got
    -1". A default is not checked.
    """
    hints = typing.get_type_hints(fn, include_extras=True)
    checks = [(math.inf if p.kind is p.KEYWORD_ONLY else i, p.name, p.default, complaint)
              for i, p in enumerate(inspect.signature(fn).parameters.values())
              if (complaint := _arg_rule(hints.get(p.name)))]

    @functools.wraps(fn)
    def check_args(*args, **kwargs):
        for i, name, default, complaint in checks:
            v = args[i] if i < len(args) else kwargs.get(name, default)
            if v is not default and (problem := complaint(v)):
                raise ContractViolation(name + problem)
        return fn(*args, **kwargs)
    return check_args


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
