"""Annotations as contracts: one checker per annotated type, three users.

The annotations of a dataclass's fields, and their defaults, are the only
declaration of what it and its JSON object may hold; a public function's
annotations are the only one of what its arguments may be. ``_checker`` turns
one annotation into one check, which returns a value in normal form or refuses
it, saying where and what:

- ``int``, ``float``, ``str`` and ``bool`` are leaves. A bool is not an
  integer, nor a number; an integer (numpy's too) is kept as an ``int``, of no
  more digits than ``json.dumps`` (so ``config_hash``) prints, 4300 by default;
  a number is kept as a ``float``, which must be finite;
- ``Annotated[X, rule]`` (a ``Bound`` such as ``Positive``, or a ``Match``)
  and ``Literal`` choices add their rule to their leaf's;
- ``tuple[X, ...]`` and ``Sequence[X]`` are a list or tuple, kept as a tuple,
  whose items get indexed paths (``a.b[2]``); ``X | None`` is None or an X;
- a dataclass is an instance of it.

``check_fields``, as a dataclass's ``__post_init__``, refuses a bad field with
a ``ContractViolation`` ("hidden_dims[0]: must be >= 1, got 0") and stores the
rest in normal form, so a config built in Python equals its parsed document
and serializes as it. ``parse`` builds a dataclass from a JSON document: a
nested dataclass is a nested object, a field with no default a required key,
and a key omitted inside a block takes its value from the enclosing field's
default block, so each key has one default. Parsing is closed-world: an
unknown key is an error. Every complaint is a ``ConfigError`` carrying the
full dotted path of the offending field, and a ``ContractViolation`` from a
dataclass's own cross-field checks becomes one at the path of its object.
``to_plain`` is the inverse: the fields in order, tuples as lists. The
decorator ``checked`` checks a public function's arguments that are not
dataclasses ("seed must be >= 0, got -1").
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
        return (f"must be {'>' if self.open_lo else '>='} {self.lo}" if self.hi == math.inf else
                f"must be in {'[('[self.open_lo]}{self.lo}, {self.hi}{'])'[self.open_hi]}")


@dataclasses.dataclass(frozen=True)
class Match:
    """Strings that the regular expression `pattern` matches in full."""

    pattern: str

    def complaint(self, s):
        return None if re.fullmatch(self.pattern, s, re.DOTALL) else f"must match {self.pattern!r}"


Positive = Annotated[float, Bound(0, open_lo=True)]
NonNegative = Annotated[float, Bound(0)]
Fraction = Annotated[float, Bound(0, 1, open_hi=True)]
Probability = Annotated[float, Bound(0, 1)]
Natural = Annotated[int, Bound(0)]
Count = Annotated[int, Bound(1)]
Classes = Annotated[int, Bound(2)]


def _shown(v):
    """repr(v), or its type where repr fails, as it does for an int of over 4300 digits."""
    try:
        return repr(v)
    except Exception:
        return f"<unprintable {type(v).__name__}>"


class _Refused(Exception):
    """`value`, at `where` inside the value checked ("" or an index such as
    "[2]"), is not `noun` (a leaf type's) or breaks `rule` ("must be >= 0")."""

    def __init__(self, value, noun=None, rule=None):
        self.value, self.noun, self.rule, self.where = value, noun, rule, ""

    def says(self, expected="expected"):
        """What is wrong: "expected an integer, got 1.5", or "must be >= 0, got -1"."""
        return f"{self.rule or f'{expected} {self.noun}'}, got {_shown(self.value)}"


# What a leaf of each type should be. A check tests the exact type first, since
# an isinstance check against a numbers ABC is slow.
_NOUNS = {int: "an integer", float: "a number", str: "a string", bool: "true/false"}
# The most digits Python prints of an int; 0, or a Python before 3.10.7: no limit.
_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_INT_LIMIT = 10 ** (_DIGITS or math.inf)


def _normal(kind, v):
    """`v`, not of exact type `kind` (a leaf type or a dataclass), a float that is not
    finite or an int too long to print, as a `kind`, or refused."""
    if kind is int and type(v) is not bool and isinstance(v, numbers.Integral):
        if abs(n := int(v)) < _INT_LIMIT:
            return n
        raise _Refused(v, f"an integer of at most {_DIGITS} digits")
    if kind is float and type(v) is not bool and isinstance(v, numbers.Real):
        try:
            x = float(v)
        except OverflowError:  # an int beyond float64
            x = math.inf
        if math.isfinite(x):
            return x
        raise _Refused(v, "a finite number")
    if kind not in _NOUNS and isinstance(v, kind):  # an instance of a dataclass's subclass
        return v
    raise _Refused(v, _NOUNS.get(kind, f"an instance of {kind.__name__}"))


def _leaf(kind, rule=None):
    """Check of a leaf type or dataclass `kind` whose normal form `rule`, a complaint, accepts."""
    def check(v):
        if type(v) is not kind or kind is float and not -math.inf < v < math.inf \
                or kind is int and abs(v) >= _INT_LIMIT:
            v = _normal(kind, v)
        if rule is not None and (problem := rule(v)) is not None:
            raise _Refused(v, rule=problem)
        return v
    return check


def _checker(tp):
    """check(v) of annotation `tp`, which returns `v` in normal form or raises _Refused;
    None for a type that carries no rule, such as an array or no annotation."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp in _NOUNS or dataclasses.is_dataclass(tp):
        return _leaf(tp)
    if origin is Annotated:
        return _leaf(args[0], tp.__metadata__[0].complaint)
    if origin is typing.Literal:
        return _leaf(type(args[0]), lambda v: None if v in args else
                     f"must be one of {', '.join(map(repr, args))}")
    if origin is collections.abc.Sequence or origin is tuple and args[1:] == (Ellipsis,):
        item = _checker(args[0])

        def items(v):
            if not isinstance(v, (list, tuple)):
                raise _Refused(v, "a list or tuple")
            out = []
            for i, x in enumerate(v):
                try:
                    out.append(item(x))
                except _Refused as e:
                    e.where = f"[{i}]{e.where}"
                    raise
            return tuple(out)
        return item and items
    if origin in (types.UnionType, typing.Union) and len(args) == 2 and type(None) in args:
        inner = _checker(args[args[0] is type(None)])
        return inner and (lambda v: None if v is None else inner(v))
    return None


@functools.cache
def _field_checks(cls):
    hints = typing.get_type_hints(cls, include_extras=True)
    return [(f.name, check) for f in dataclasses.fields(cls) if (check := _checker(hints[f.name]))]


def check_fields(obj):
    """Refuse a field of dataclass `obj` its annotation refuses; keep the rest in normal form."""
    for name, check in _field_checks(type(obj)):
        v = getattr(obj, name)
        try:
            normal = check(v)
        except _Refused as e:
            raise ContractViolation(f"{name}{e.where}: {e.says()}") from None
        if normal is not v:
            object.__setattr__(obj, name, normal)  # a frozen dataclass's fields too


def _fail(path, message):
    raise ConfigError(path or "<root>", message)


def _parser_for(tp):
    """The value parser for one annotated field type."""
    if dataclasses.is_dataclass(tp):
        return _object_parser(tp)
    if (check := _checker(tp)) is None:
        raise TypeError(f"no JSON parser for field type {tp!r}")

    def parse_value(v, path):
        try:
            return check(v)
        except _Refused as e:
            _fail(path + e.where, e.says())
    return parse_value


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
        try:
            return cls(**kwargs)
        except ContractViolation as e:
            raise ConfigError(path or "<root>", str(e)) from e
    return parse_object


def checked(fn):
    """`fn`, refusing an argument that its annotation's check refuses.

    The checks are read from `fn`'s annotations once, here, one for each
    argument whose annotation carries a rule and is not a dataclass. A call
    checks each such argument it passes, by position or keyword, before `fn`
    runs, and passes the argument on as given. A bad one raises a
    ContractViolation such as "seed must be >= 0, got -1" or "data_seeds[0]
    must be an integer, got 1.5". A default is not checked.
    """
    hints = typing.get_type_hints(fn, include_extras=True)
    checks = [(math.inf if p.kind is p.KEYWORD_ONLY else i, p.name, p.default, check)
              for i, p in enumerate(inspect.signature(fn).parameters.values())
              if not dataclasses.is_dataclass(tp := hints.get(p.name)) and (check := _checker(tp))]

    @functools.wraps(fn)
    def check_args(*args, **kwargs):
        for i, name, default, check in checks:
            v = args[i] if i < len(args) else kwargs.get(name, default)
            if v is not default:
                try:
                    check(v)
                except _Refused as e:
                    raise ContractViolation(f"{name}{e.where} {e.says('must be')}") from None
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
