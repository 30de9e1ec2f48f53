import dataclasses
import json
import math
import pickle
import re
import typing
from typing import Annotated, Literal

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, reject, settings
from hypothesis import strategies as st

from actlab.config import (ExperimentConfig, config_hash, config_to_dict,
                           load_config, parse_config)
from actlab.errors import ConfigError, ContractViolation, ParseError
from actlab.optim import SgdConfig
from actlab.pipeline import PretrainConfig
from actlab.schema import parse, to_plain


def minimal_doc(**kw):
    doc = {
        "run_id": "demo",
        "output_dir": "out",
        "n_way": 3,
        "k_shot": 5,
        "domain": {"generator": "gaussian_blobs", "dim": 2, "num_classes": 3,
                   "samples_per_class": [40, 40, 40]},
        "model": {"input_dim": 2, "hidden_dims": [16], "feature_dim": 8,
                  "num_classes": 3},
    }
    doc.update(kw)
    return doc


class TestParsing:
    def test_minimal_doc_takes_defaults(self):
        cfg = parse_config(minimal_doc())
        assert cfg.split_seed == 0
        assert cfg.adapt.total_iterations == 2000
        assert cfg.adapt.sam.rho == 0.05
        assert cfg.adapt.schedule.head_multiplier == pytest.approx(10.0 / 3.0)
        assert cfg.pretrain.sgd.momentum == 0.9
        assert cfg.augment.strong.jitter_sigma >= cfg.augment.weak.jitter_sigma

    def test_nested_values_land(self):
        doc = minimal_doc(adapt={"total_iterations": 17,
                                 "sam": {"rho": 0.0, "base": {"beta1": 0.01}},
                                 "weights": {"lambda_cdd": 0.5}})
        cfg = parse_config(doc)
        assert cfg.adapt.total_iterations == 17
        assert cfg.adapt.sam.rho == 0.0
        assert cfg.adapt.sam.base.beta1 == 0.01
        assert cfg.adapt.weights.lambda_cdd == 0.5
        assert cfg.adapt.weights.lambda_lsce == 1.0

    def test_round_trip_through_canonical_dict(self):
        cfg = parse_config(minimal_doc(split_seed=9))
        again = parse_config(config_to_dict(cfg))
        assert again == cfg

    def test_canonical_dict_is_json_clean(self):
        doc = config_to_dict(parse_config(minimal_doc()))
        assert json.loads(json.dumps(doc)) == doc
        assert doc["model"]["hidden_dims"] == [16]

    def test_unknown_root_key_names_itself(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_doc(frobnicate=1))
        assert exc.value.path == "frobnicate"

    def test_unknown_nested_key_carries_full_path(self):
        doc = minimal_doc(adapt={"sam": {"rho_typo": 0.1}})
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == "adapt.sam.rho_typo"

    def test_missing_required_key(self):
        doc = minimal_doc()
        del doc["domain"]
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == "domain"
        assert "missing" in str(exc.value)

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_doc(n_way=3.5))
        assert exc.value.path == "n_way"
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_doc(n_way=True))  # bools are not integers here
        assert exc.value.path == "n_way"
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_doc(adapt={"step_pattern": 12}))
        assert exc.value.path == "adapt.step_pattern"

    @pytest.mark.parametrize("adapt, path, got", [(5, "adapt", "int"),
                                                  ({"sam": [0.05]}, "adapt.sam", "list")])
    def test_a_block_that_is_not_an_object_names_its_path(self, adapt, path, got):
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_doc(adapt=adapt))
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: expected an object, got {got}"

    def test_list_items_get_indexed_paths(self):
        doc = minimal_doc()
        doc["domain"]["samples_per_class"] = [40, "many", 40]
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == "domain.samples_per_class[1]"

    def test_config_error_survives_pickling(self):
        # a sweep worker's error reaches the caller through pickle
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_doc(adapt={"sam": {"rho": "big"}}))
        again = pickle.loads(pickle.dumps(exc.value))
        assert type(again) is ConfigError
        assert again.path == "adapt.sam.rho"
        assert str(again) == str(exc.value) == "adapt.sam.rho: expected a number, got 'big'"

    def test_semantic_violations_become_config_errors_with_path(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_doc(adapt={"step_pattern": "13"}))
        assert exc.value.path == "adapt.step_pattern"
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_doc(model={"input_dim": 5, "hidden_dims": [16],
                                            "feature_dim": 8, "num_classes": 3}))
        assert exc.value.path == "<root>"  # cross-field check at the top level

    def test_omitted_key_takes_the_enclosing_default_block(self):
        # PretrainConfig's default sgd block is not SgdConfig's own defaults
        cfg = parse_config(minimal_doc(pretrain={"sgd": {"lr": 0.05}}))
        assert cfg.pretrain.sgd == SgdConfig(lr=0.05, momentum=0.9, weight_decay=5e-4)
        cfg = parse_config(minimal_doc(pretrain={"epochs": 3, "sgd": {}}))
        assert cfg.pretrain.sgd == PretrainConfig().sgd
        assert config_hash(cfg) == config_hash(parse_config(config_to_dict(cfg)))

    def test_unused_sam_base_lr_is_refused(self):
        # adaptation takes every rate from adapt.schedule
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal_doc(adapt={"sam": {"base": {"lr": 0.01}}}))
        assert exc.value.path == "adapt"
        assert "from schedule (eta0, head_multiplier)" in str(exc.value)
        assert parse_config(minimal_doc(adapt={"sam": {"base": {"lr": 1e-3}}})) == \
            parse_config(minimal_doc())


def _numeric_leaves(doc, path=""):
    """Dotted paths of every int/float leaf, in the parser's path syntax."""
    if isinstance(doc, dict):
        items = [(f"{path}.{k}" if path else k, v) for k, v in doc.items()]
    elif isinstance(doc, list):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(doc)]
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return [path]
    else:
        return []
    return [leaf for sub, v in items for leaf in _numeric_leaves(v, sub)]


def _set_leaf(doc, path, value):
    keys = [int(k) if k.isdigit() else k
            for k in path.replace("[", ".").replace("]", "").split(".")]
    for k in keys[:-1]:
        doc = doc[k]
    doc[keys[-1]] = value


FULL_DOC = config_to_dict(parse_config(minimal_doc()))
NUMERIC_LEAVES = _numeric_leaves(FULL_DOC)


# Written out by hand rather than read from the dataclasses, so that the
# properties below check the parser against an independent list.
REQUIRED_KEYS = {
    "run_id", "output_dir", "n_way", "k_shot", "domain", "model",
    "domain.generator", "domain.dim", "domain.num_classes", "domain.samples_per_class",
    "model.input_dim", "model.hidden_dims", "model.feature_dim", "model.num_classes",
}


def _object_keys(doc, path=""):
    """Dotted path of every key of every object, parents before children."""
    keys = []
    for k, v in doc.items():
        sub = f"{path}.{k}" if path else k
        keys.append(sub)
        if isinstance(v, dict):
            keys += _object_keys(v, sub)
    return keys


def _get(doc, path):
    for k in path.split(".") if path else []:
        doc = doc[k]
    return doc


def _delete(doc, path):
    """Delete the key at `path` if its object is still there; whether it was."""
    parent, _, key = path.rpartition(".")
    try:
        node = _get(doc, parent)
    except KeyError:
        return False
    if key not in node:
        return False
    del node[key]
    return True


FULL_CFG = parse_config(minimal_doc())
OPTIONAL_KEYS = [k for k in _object_keys(FULL_DOC)
                 if k not in REQUIRED_KEYS]
OBJECT_NODES = [""] + [k for k in _object_keys(FULL_DOC) if isinstance(_get(FULL_DOC, k), dict)]


class TestDocumentProperties:
    @settings(max_examples=80, deadline=None)
    @given(dropped=st.sets(st.sampled_from(OPTIONAL_KEYS)),
           required=st.none() | st.sampled_from(sorted(REQUIRED_KEYS)))
    def test_optional_keys_take_their_defaults(self, dropped, required):
        doc = json.loads(json.dumps(FULL_DOC))
        for path in dropped:
            _delete(doc, path)
        cfg = parse_config(doc)
        assert cfg == FULL_CFG
        assert parse_config(config_to_dict(cfg)) == cfg
        if required is not None and _delete(doc, required):
            with pytest.raises(ConfigError) as exc:
                parse_config(doc)
            assert exc.value.path == required
            assert str(exc.value) == f"{required}: missing required key"

    @settings(max_examples=80, deadline=None)
    @given(node=st.sampled_from(OBJECT_NODES), key=st.text(min_size=1, max_size=8))
    def test_unknown_key_anywhere_is_named_by_its_full_path(self, node, key):
        doc = json.loads(json.dumps(FULL_DOC))
        obj = _get(doc, node)
        assume(key not in obj)
        obj[key] = 1
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == (f"{node}.{key}" if node else key)


class TestNonFinite:
    @pytest.mark.parametrize("path", ["adapt.sam.rho", "adapt.schedule.eta0",
                                      "pretrain.sgd.lr", "domain.shift.noise_sigma"])
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    def test_json_non_finite_is_rejected_at_its_path(self, tmp_path, path, text):
        doc = json.loads(json.dumps(FULL_DOC))
        _set_leaf(doc, path, "@@")
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(doc).replace('"@@"', text))
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert exc.value.path == path
        assert "finite" in str(exc.value)

    def test_leaf_walk_covers_nested_and_listed_numbers(self):
        assert {"adapt.sam.rho", "adapt.sam.base.eps_adam", "model.hidden_dims[0]",
                "augment.strong.scale_range[1]", "n_way"} <= set(NUMERIC_LEAVES)

    @settings(max_examples=60, deadline=None)
    @given(path=st.sampled_from(NUMERIC_LEAVES),
           value=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_any_numeric_leaf_rejects_non_finite(self, path, value):
        doc = json.loads(json.dumps(FULL_DOC))
        _set_leaf(doc, path, value)
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == path

    def test_huge_integer_for_a_float_field_is_a_config_error(self):
        doc = json.loads(json.dumps(FULL_DOC))
        _set_leaf(doc, "adapt.sam.rho", 10 ** 400)
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == "adapt.sam.rho"


class TestNegativeSeeds:
    @pytest.mark.parametrize("path", ["split_seed", "domain.seed", "model.init_seed",
                                      "pretrain.seed", "adapt.seed"])
    def test_negative_seed_is_rejected_at_its_owner(self, path):
        doc = json.loads(json.dumps(FULL_DOC))
        _set_leaf(doc, path, -1)
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: must be >= 0, got -1"

    def test_zero_seeds_are_accepted(self):
        doc = json.loads(json.dumps(FULL_DOC))
        for path in ("split_seed", "domain.seed", "model.init_seed",
                     "pretrain.seed", "adapt.seed"):
            _set_leaf(doc, path, 0)
        assert parse_config(doc).adapt.seed == 0


TINY = math.ulp(0.0)
BELOW_ONE = math.nextafter(1.0, 0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)

# Written out by hand rather than read from the annotations: each bounded
# leaf with the first value outside its range at one end, and the value at
# that end that is inside it.
NUMERIC_BOUNDS = [
    ("n_way", 1, 2), ("k_shot", 0, 1), ("split_seed", -1, 0),
    ("domain.dim", 1, 2), ("domain.num_classes", 1, 2), ("domain.seed", -1, 0),
    ("domain.shift.noise_sigma", -TINY, 0.0),
    ("model.input_dim", 0, 1), ("model.feature_dim", 0, 1), ("model.num_classes", 1, 2),
    ("model.init_seed", -1, 0),
    ("pretrain.epochs", -1, 0), ("pretrain.batch_size", 0, 1),
    ("pretrain.sgd.lr", 0.0, TINY), ("pretrain.sgd.momentum", -TINY, 0.0),
    ("pretrain.sgd.momentum", 1.0, BELOW_ONE), ("pretrain.sgd.weight_decay", -TINY, 0.0),
    ("pretrain.lr_multiplier_heads", 0.0, TINY), ("pretrain.alpha_smooth", -TINY, 0.0),
    ("pretrain.alpha_smooth", 1.0, BELOW_ONE), ("pretrain.seed", -1, 0),
    ("adapt.total_iterations", 0, 1), ("adapt.batch_size", 0, 1),
    ("adapt.weights.lambda_lsce", -TINY, 0.0), ("adapt.weights.lambda_e", -TINY, 0.0),
    ("adapt.weights.lambda_rce", -TINY, 0.0), ("adapt.weights.lambda_cdd", -TINY, 0.0),
    ("adapt.smoothing.alpha_smooth", -TINY, 0.0),
    ("adapt.smoothing.alpha_smooth", 1.0, BELOW_ONE),
    ("adapt.smoothing.eps_log", 0.0, TINY), ("adapt.smoothing.eps_log", 1.0, BELOW_ONE),
    ("adapt.sam.rho", -TINY, 0.0), ("adapt.sam.base.lr", 0.0, TINY),
    ("adapt.sam.base.beta1", -TINY, 0.0), ("adapt.sam.base.beta1", 1.0, BELOW_ONE),
    ("adapt.sam.base.beta2", -TINY, 0.0), ("adapt.sam.base.beta2", 1.0, BELOW_ONE),
    ("adapt.sam.base.eps_adam", 0.0, TINY),
    ("adapt.schedule.eta0", 0.0, TINY), ("adapt.schedule.head_multiplier", 0.0, TINY),
    ("adapt.seed", -1, 0),
    ("augment.weak.jitter_sigma", -TINY, 0.0), ("augment.weak.flip_axis_prob", -TINY, 0.0),
    ("augment.weak.flip_axis_prob", ABOVE_ONE, 1.0),
    ("augment.strong.jitter_sigma", -TINY, 0.0),
    ("augment.strong.feature_drop_prob", -TINY, 0.0),
    ("augment.strong.feature_drop_prob", ABOVE_ONE, 1.0), ("augment.strong.num_ops", -1, 0),
]
NUMERIC_PATHS = [p for p, _, _ in NUMERIC_BOUNDS]
STRING_RULES = [
    ("run_id", "bad/run", "r"), ("run_id", "-lead", "0"), ("output_dir", "", "o"),
    ("domain.generator", "spiral", "two_moons"),
    ("domain.label_space_mode", "open_set", "closed_set"), ("model.activation", "tanh", "relu"),
    ("adapt.cdd_sign", "sideways", "flipped"), ("adapt.step_pattern", "13", "2"),
    ("adapt.step_pattern", "", "1"), ("adapt.view_mode", "mirrored", "both_to_both"),
    ("adapt.eval_head", "c_t2", "mean_of_heads"),
]
# two classes, so that every edge above is consistent with the cross-field checks
RANGE_DOC = config_to_dict(parse_config(minimal_doc(
    n_way=2,
    domain={"generator": "gaussian_blobs", "dim": 2, "num_classes": 2,
            "samples_per_class": [40, 40]},
    model={"input_dim": 2, "hidden_dims": [16], "feature_dim": 8, "num_classes": 2})))
RANGE_CFG = parse_config(RANGE_DOC)


def _with_leaf(path, value):
    doc = json.loads(json.dumps(RANGE_DOC))
    _set_leaf(doc, path, value)
    return doc


def _owner(path):
    """(owner path, owning config object, field name) of leaf `path`."""
    owner_path, _, name = path.rpartition(".")
    obj = RANGE_CFG
    for key in owner_path.split(".") if owner_path else []:
        obj = getattr(obj, key)
    return owner_path, obj, name


class TestParsingAndConstructionAgree:
    @pytest.mark.parametrize("path, bad", [(p, b) for p, b, _ in NUMERIC_BOUNDS + STRING_RULES]
                             + [(p, math.nan) for p in dict.fromkeys(NUMERIC_PATHS)])
    def test_outside_the_range_both_refuse_at_the_field(self, path, bad):
        with pytest.raises(ConfigError) as exc:
            parse_config(_with_leaf(path, bad))
        assert exc.value.path == path
        _, owner, name = _owner(path)
        with pytest.raises(ContractViolation) as exc:
            dataclasses.replace(owner, **{name: bad})
        assert str(exc.value).startswith(f"{name}: ")

    @pytest.mark.parametrize("path, edge", [(p, e) for p, _, e in NUMERIC_BOUNDS + STRING_RULES])
    def test_the_edge_inside_the_range_passes_both(self, path, edge):
        owner_path, owner, name = _owner(path)
        assert getattr(dataclasses.replace(owner, **{name: edge}), name) == edge
        block = _with_leaf(path, edge)
        for key in owner_path.split(".") if owner_path else []:
            block = block[key]
        assert getattr(parse(type(owner), block, owner_path), name) == edge

    def test_messages_name_the_range(self):
        with pytest.raises(ConfigError, match=re.escape(
                "adapt.smoothing.eps_log: must be in (0, 1), got 0.0")):
            parse_config(_with_leaf("adapt.smoothing.eps_log", 0.0))
        with pytest.raises(ContractViolation, match=re.escape(
                "view_mode: must be one of 'asymmetric', 'both_to_both', got 'x'")):
            dataclasses.replace(RANGE_CFG.adapt, view_mode="x")


class TestCrossChecks:
    def test_n_way_must_match_domain_classes(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_doc(n_way=2))

    def test_model_classes_must_match_domain_classes(self):
        doc = minimal_doc()
        doc["model"]["num_classes"] = 4
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == "<root>"
        assert str(exc.value) == "<root>: model num_classes 4 != domain num_classes 3"

    def test_partial_set_counts_target_classes(self):
        doc = minimal_doc(n_way=2)
        doc["domain"]["label_space_mode"] = "partial_set"
        doc["domain"]["target_classes"] = [0, 2]
        cfg = parse_config(doc)
        assert cfg.n_way == 2

    def test_run_id_is_filesystem_safe(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_doc(run_id="bad/run"))
        with pytest.raises(ContractViolation):
            ExperimentConfig(run_id="", output_dir="out", n_way=3, k_shot=5,
                             domain=parse_config(minimal_doc()).domain,
                             model=parse_config(minimal_doc()).model)


class TestHash:
    def test_hash_is_stable_and_hex(self):
        a = config_hash(parse_config(minimal_doc()))
        b = config_hash(parse_config(config_to_dict(parse_config(minimal_doc()))))
        assert a == b
        assert len(a) == 64
        int(a, 16)

    def test_hash_tracks_content(self):
        a = config_hash(parse_config(minimal_doc()))
        b = config_hash(parse_config(minimal_doc(k_shot=6)))
        assert a != b

    def test_explicit_defaults_hash_identically(self):
        # writing a default out loud must not change the canonical form
        a = config_hash(parse_config(minimal_doc()))
        b = config_hash(parse_config(minimal_doc(split_seed=0)))
        assert a == b


class TestLoad:
    def test_load_from_file(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(minimal_doc()))
        assert load_config(p) == parse_config(minimal_doc())

    def test_bad_json_is_a_parse_error(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_config(p)

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "nope.json")

    def test_undecodable_file_is_a_parse_error(self, tmp_path):
        p = tmp_path / "exp.json"
        p.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError, match="cannot read config"):
            load_config(p)


# -- configs built in Python -------------------------------------------------------


def _same_value(v):
    """`v` as it may come from Python code: as given, as a numpy scalar, and a
    whole float also as an int."""
    if type(v) is int:
        small = [np.uint8(v)] if 0 <= v < 256 else []
        return st.sampled_from([v, np.int64(v), np.int32(v), *small])
    if type(v) is float:
        whole = [int(v), np.int64(v)] if v.is_integer() else []
        return st.sampled_from([v, np.float64(v), *whole])
    return st.just(v)


def _fresh(tp):
    """Values that the annotation `tp` of a leaf allows, read from its `Bound`,
    `Match` or `Literal`, each as `_same_value` gives it."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Literal:
        return st.sampled_from(args)
    kind, rule = (args[0], tp.__metadata__[0]) if origin is Annotated else (tp, None)
    if kind is bool:
        return st.booleans()
    if kind is str:
        return st.from_regex(rule.pattern, fullmatch=True)
    lo, hi = (-1e6, 1e6) if rule is None else (rule.lo, min(rule.hi, 1e6))
    first, last = math.ceil(lo), math.floor(hi)
    first += rule is not None and rule.open_lo and first == lo
    last -= rule is not None and rule.open_hi and last == hi
    ints = st.integers(first, min(last, first + 100)) if first <= last else st.nothing()
    if kind is int:
        return ints.flatmap(_same_value)
    floats = st.floats(lo, hi, exclude_min=rule is not None and rule.open_lo,
                       exclude_max=rule is not None and rule.open_hi)
    return st.one_of(floats, ints).flatmap(_same_value)


@st.composite
def _rebuilt(draw, base):
    """Config object `base` built again in Python: each leaf as `_same_value` gives
    it or, one time in four, drawn afresh, and a tuple field as a list or a tuple."""
    hints = typing.get_type_hints(type(base), include_extras=True)
    changes = {}
    for f in dataclasses.fields(base):
        v, tp = getattr(base, f.name), hints[f.name]
        if isinstance(v, tuple):
            listed = typing.get_args(tp)[0] if type(None) in typing.get_args(tp) else tp
            item = typing.get_args(listed)[0]
            items = [draw(_same_value(x) if draw(st.integers(0, 3)) else _fresh(item))
                     for x in v]
            changes[f.name] = draw(st.sampled_from([items, tuple(items)]))
        elif v is not None and not dataclasses.is_dataclass(v):
            changes[f.name] = draw(_same_value(v) if draw(st.integers(0, 3)) else _fresh(tp))
    try:
        return dataclasses.replace(base, **changes)
    except ContractViolation:  # a cross-field check, such as n_way against the domain
        reject()


def _config_objects(obj):
    """Every config object that `obj` nests, and `obj`, innermost first."""
    nested = [_config_objects(getattr(obj, f.name)) for f in dataclasses.fields(obj)
              if dataclasses.is_dataclass(getattr(obj, f.name))]
    return [o for objs in nested for o in objs] + [obj]


def _leaves(doc):
    if isinstance(doc, dict):
        return [x for v in doc.values() for x in _leaves(v)]
    if isinstance(doc, list):
        return [x for v in doc for x in _leaves(v)]
    return [doc]


PARTIAL_DOC = minimal_doc(n_way=2)
PARTIAL_DOC["domain"].update(label_space_mode="partial_set", target_classes=[2, 0],
                             shift={"translation": [1, -0.5]})
BASES = list({(type(o), json.dumps(to_plain(o))): o for cfg in
              (FULL_CFG, parse_config(PARTIAL_DOC)) for o in _config_objects(cfg)}.values())


class TestBuiltInPython:
    @pytest.mark.parametrize("base", BASES, ids=lambda o: type(o).__name__)
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_a_config_built_in_python_is_its_parsed_document(self, base, data):
        # the same document means the same config_hash, which hashes it
        obj = data.draw(_rebuilt(base), label="config")
        plain = to_plain(obj)
        text = json.dumps(plain, sort_keys=True)
        assert {type(x) for x in _leaves(plain)} <= {int, float, str, bool, type(None)}
        again = parse(type(obj), plain)
        assert again == obj
        assert json.dumps(to_plain(again), sort_keys=True) == text
        if isinstance(obj, ExperimentConfig):
            assert config_hash(again) == config_hash(obj)

    def test_an_int_in_a_float_field_hashes_as_its_float(self):
        cfg = dataclasses.replace(FULL_CFG, pretrain=dataclasses.replace(
            FULL_CFG.pretrain, sgd=SgdConfig(lr=1), epochs=np.int64(3)))
        assert config_hash(cfg) == config_hash(parse_config(json.loads(
            json.dumps(config_to_dict(cfg)))))
        assert config_to_dict(cfg)["pretrain"]["sgd"]["lr"] == 1.0
