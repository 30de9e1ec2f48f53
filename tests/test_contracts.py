"""Contracts read from annotations: `schema.checked` on the public functions,
and `schema.check_fields` on the dataclasses.

The rules a decorated argument must keep are read here from its annotation,
independently of `schema`, and each kind of value the rule refuses is drawn:
a bool, a non-integral or non-finite number, a string, None, a value outside
the bound, a choice outside the `Literal`, and for a sequence an item of those
or a value that is not a list.
"""

import dataclasses
import importlib
import inspect
import json
import math
import pkgutil
import re
import types
import typing
from collections.abc import Sequence
from typing import Annotated, Literal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import actlab
from actlab.config import ExperimentConfig
from actlab.data import AugmentPolicy, LabeledSet, rng_stream
from actlab.errors import ContractViolation
from actlab.losses import LossWeights
from actlab.optim import SgdConfig, lr_at
from actlab.pipeline import AdaptConfig, PretrainConfig
from actlab.schema import Count, Natural, check_fields, checked, parse, to_plain

MODULES = [importlib.import_module(f"actlab.{m.name}")
           for m in pkgutil.iter_modules(actlab.__path__)]


def rule_of(tp):
    """(a value the rule of argument type `tp` takes, a strategy of values it
    refuses), or None if `tp` is none of the scalar forms that public functions use:
    int and float leaves, `Bound` aliases, `Literal`, `X | None` and `Sequence[X]`."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        inner = rule_of(next(a for a in args if a is not type(None)))
        return inner and (None, inner[1].filter(lambda v: v is not None))
    if origin is Sequence:
        inner = rule_of(args[0])
        return inner and ([inner[0]], st.one_of(
            inner[1].map(lambda v: [inner[0], v]), inner[1].map(lambda v: (v,)),
            st.sampled_from([inner[0], "0", None, {inner[0]}])))
    if origin is Literal:
        first = args[0]
        outside = [max(args) + 1, float(first), True] if type(first) is int else \
            [first + "!", first.upper(), 0]
        return first, st.sampled_from([*outside, None, math.nan])
    kind, bound = (args[0], tp.__metadata__[0]) if origin is Annotated else (tp, None)
    lo, hi = (-math.inf, math.inf) if bound is None else (bound.lo, bound.hi)
    if kind is int:
        valid = 0 if lo == -math.inf else lo + bound.open_lo
        bad = [st.sampled_from([True, False, np.True_, valid + 0.5, float(valid), "1", None,
                                math.nan, math.inf])]
        if lo > -math.inf:
            bad.append(st.integers(max_value=valid - 1))
        if hi < math.inf:
            bad.append(st.integers(min_value=hi + (not bound.open_hi)))
        return valid, st.one_of(bad)
    if kind is float:
        valid = 0.0 if bound is None else \
            lo if not bound.open_lo else lo + 1.0 if hi == math.inf else (lo + hi) / 2
        bad = [st.sampled_from([True, False, np.True_, "1", None, math.nan, math.inf,
                                -math.inf, np.float64("nan"), 10 ** 400])]
        if lo > -math.inf:
            bad.append(st.floats(max_value=lo, exclude_max=not bound.open_lo,
                                 allow_infinity=False))
        if hi < math.inf:
            bad.append(st.floats(min_value=hi, exclude_min=not bound.open_hi,
                                 allow_infinity=False))
        return valid, st.one_of(bad)
    return None


def hints(fn):
    return typing.get_type_hints(fn, include_extras=True)


def ruled_params(fn):
    """The parameters of `fn` whose annotations carry a rule, in order."""
    return [name for name in inspect.signature(fn).parameters
            if rule_of(hints(fn).get(name)) is not None]


CHECK_ARGS = checked(lambda: None).__code__  # the code of every checked function


def public_functions():
    """{qualified name: function} of every public function of the package's modules,
    and every public method of their public classes."""
    found = {}
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, fn in members:
                if inspect.isfunction(fn) and not (attr or "").startswith("_"):
                    found[fn.__qualname__ if attr else name] = fn
    return found


PUBLIC = public_functions()
DECORATED = {qualname: fn for qualname, fn in PUBLIC.items() if fn.__code__ is CHECK_ARGS}
CASES = [(qualname, name) for qualname, fn in DECORATED.items() for name in ruled_params(fn)]


def test_every_public_function_with_a_ruled_argument_is_checked():
    unchecked = [qualname for qualname, fn in PUBLIC.items()
                 if fn.__code__ is not CHECK_ARGS and ruled_params(fn)]
    assert unchecked == []
    assert {"rng_stream", "batches", "sample_support", "lr_at", "evaluate", "seed_sweep",
            "forward_head", "ModelBundle.named_params", "scalar_mul", "Tensor.log_shifted",
            "rotation_matrix_2d"} <= set(DECORATED)
    assert {"load_config", "to_plain", "Bound.complaint"} <= set(PUBLIC)
    assert len(CASES) >= 20


@pytest.mark.parametrize("qualname", sorted(DECORATED))
def test_a_checked_function_keeps_its_name_module_and_signature(qualname):
    # bench/tracer.py finds public functions by module and name
    fn = DECORATED[qualname]
    assert fn.__qualname__ == fn.__wrapped__.__qualname__ == qualname
    assert fn.__module__ == fn.__wrapped__.__module__
    assert inspect.signature(fn) == inspect.signature(fn.__wrapped__)


@pytest.mark.parametrize("qualname, name", CASES, ids=[f"{q}-{n}" for q, n in CASES])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_each_argument_refuses_what_its_rule_refuses(qualname, name, data, tmp_path,
                                                     monkeypatch):
    fn = DECORATED[qualname]
    monkeypatch.chdir(tmp_path)
    params = inspect.signature(fn).parameters
    # every other ruled argument valid, and the rest None: the checks run before fn
    kwargs = {p: (rule[0] if (rule := rule_of(hints(fn).get(p))) else None) for p in params}
    kwargs[name] = data.draw(rule_of(hints(fn)[name])[1], label=name)
    with pytest.raises(ContractViolation) as exc:
        if data.draw(st.booleans(), label="positional"):
            fn(*kwargs.values())
        else:
            fn(**kwargs)
    assert re.match(rf"{name}(\[\d+\])? must be ", str(exc.value)), str(exc.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("qualname", sorted(DECORATED))
def test_the_values_taken_as_valid_reach_the_function(qualname):
    # so the property above refuses its drawn value, not another argument's
    fn, calls = DECORATED[qualname], []

    def record(*args, **kwargs):
        calls.append(kwargs)

    record.__signature__, record.__annotations__ = inspect.signature(fn), hints(fn)
    kwargs = {p: (rule[0] if (rule := rule_of(hints(fn).get(p))) else None)
              for p in inspect.signature(fn).parameters}
    checked(record)(**kwargs)
    assert calls == [kwargs]


def test_keyword_only_arguments_defaults_and_missing_arguments():
    @checked
    def f(a: Natural, *, b: Count = 1, c: Natural | None = None):
        return a, b, c

    assert f(0) == (0, 1, None) and f(a=2, b=3, c=None) == (2, 3, None)
    with pytest.raises(ContractViolation, match="^b must be >= 1, got 0$"):
        f(0, b=0)
    with pytest.raises(ContractViolation, match=r"^c must be an integer, got 1\.5$"):
        f(0, c=1.5)
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'a'"):
        f()


def test_numpy_scalars_are_numbers_and_integers():
    assert lr_at(np.float32(1.0), np.int64(0)) == 1.0
    np.testing.assert_array_equal(rng_stream(np.int64(3), "batch", index=np.uint8(2)).random(2),
                                  rng_stream(3, "batch", index=2).random(2))


def test_a_call_reads_no_signature(monkeypatch):
    # the checks are built when a function is decorated, never per call
    def no_signature(*args, **kwargs):
        raise AssertionError("inspect.signature called")

    monkeypatch.setattr(inspect, "signature", no_signature)
    rng_stream(1, "batch", index=2)
    assert lr_at(1.0, 0.0) == 1.0


def test_a_value_too_large_to_print_is_refused_by_name():
    # repr refuses an int of over 4300 digits; the refusal must not
    with pytest.raises(ContractViolation, match="^eta0 must be a finite number, got "):
        lr_at(10 ** 5000, 0.5)
    with pytest.raises(ContractViolation, match="^lr: expected a finite number, got "):
        SgdConfig(lr=10 ** 5000)


def test_an_integer_too_long_to_print_is_refused_by_name():
    # json.dumps, and so config_hash, refuses an int of over 4300 digits
    with pytest.raises(ContractViolation,
                       match="^seed: expected an integer of at most 4300 digits, got "):
        PretrainConfig(seed=10 ** 5000)
    with pytest.raises(ContractViolation, match="^seed must be an integer of at most 4300 digits"):
        rng_stream(10 ** 5000, "batch")
    with pytest.raises(ContractViolation, match="^seed: expected an integer of at most 4300 "):
        PretrainConfig(seed=-10 ** 4300)  # 4301 digits
    longest = PretrainConfig(seed=10 ** 4300 - 1)
    assert json.loads(json.dumps(to_plain(longest))) == to_plain(longest)


# -- dataclass fields ------------------------------------------------------------------


@pytest.mark.parametrize("build, field", [
    (lambda: SgdConfig(lr=float("inf")), "lr"),
    (lambda: PretrainConfig(epochs=2.5), "epochs"),
    (lambda: PretrainConfig(seed=True), "seed"),
    (lambda: AdaptConfig(fresh_batch_per_step="no"), "fresh_batch_per_step"),
    (lambda: AdaptConfig(schedule=None), "schedule"),
    (lambda: AugmentPolicy(weak=None), "weak"),
    (lambda: LossWeights(lambda_e="a"), "lambda_e"),
    (lambda: actlab.MlpSpec(2, (16, 0), 8, 3), "hidden_dims[1]"),
    (lambda: actlab.MlpSpec(2, 16, 8, 3), "hidden_dims"),
    (lambda: actlab.ShiftSpec(translation=(0.5, math.nan)), "translation[1]"),
    (lambda: actlab.StrongTier(scale_range=(0.5, "1")), "scale_range[1]"),
    (lambda: actlab.DomainSpec("two_moons", 2, 2, (5, 0)), "samples_per_class[1]"),
    (lambda: actlab.DomainSpec("gaussian_blobs", 2, 3, (5, 5, 5), label_space_mode="partial_set",
                               target_classes=(0, -1)), "target_classes[1]"),
], ids=lambda v: v if isinstance(v, str) else "build")
def test_a_field_built_in_python_is_refused_as_its_document_would_be(build, field):
    with pytest.raises(ContractViolation, match=f"^{re.escape(field)}: "):
        build()


def test_an_instance_of_a_subclass_is_an_instance():
    class Weights(LossWeights):
        pass

    weights = Weights(lambda_e=0.5)
    assert AdaptConfig(weights=weights).weights is weights


def test_a_field_with_no_rule_has_no_json_parser():
    # a LabeledSet's arrays have no JSON form, so no document can describe one
    with pytest.raises(TypeError, match="^no JSON parser for field type "):
        parse(LabeledSet, {})


def test_fields_are_stored_in_normal_form():
    spec = actlab.MlpSpec(np.int64(2), [np.uint8(16)], 8, 3, init_seed=np.int32(4))
    assert spec == actlab.MlpSpec(2, (16,), 8, 3, init_seed=4)
    assert [type(v) for v in (spec.input_dim, *spec.hidden_dims, spec.init_seed)] == [int] * 3
    assert type(SgdConfig(lr=1).lr) is float and type(SgdConfig(lr=np.float64(0.5)).lr) is float


def package_dataclasses():
    return [obj for module in MODULES for obj in vars(module).values()
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__]


def carries_rule(tp):
    """Whether annotation `tp` holds a `Bound`/`Match` alias or a `Literal`, at any depth."""
    if typing.get_origin(tp) in (Annotated, Literal):
        return True
    return any(carries_rule(arg) for arg in typing.get_args(tp))


def config_classes(cls=ExperimentConfig):
    """`cls` and every dataclass its fields nest, at any depth."""
    nested = [tp for tp in hints(cls).values() if dataclasses.is_dataclass(tp)]
    return {cls}.union(*map(config_classes, nested))


def runs_check_fields(cls):
    post = getattr(cls, "__post_init__", None)
    return post is check_fields or inspect.isfunction(post) and \
        "check_fields" in post.__code__.co_names


def test_every_dataclass_with_a_ruled_field_and_every_config_runs_check_fields():
    ruled = {cls for cls in package_dataclasses()
             if any(carries_rule(tp) for tp in hints(cls).values())}
    assert len(ruled) >= 14 and len(config_classes()) == 15
    assert sorted(cls.__name__ for cls in ruled | config_classes()
                  if not runs_check_fields(cls)) == []
