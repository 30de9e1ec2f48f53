import base64
import copy
import json
import math
import pickle
import re
import tempfile
import tracemalloc
from collections.abc import Mapping
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actlab.errors import ContractViolation, ParseError
from actlab.models import (CHECKPOINT_CHUNK, MlpSpec, _stack_backward, _stack_forward, build,
                           bundle_from_params, clone_for_adaptation, forward_features,
                           forward_head, forward_target, load_checkpoint,
                           params_fingerprint, save_checkpoint, trainable_params)
from actlab.tensor import Tensor, backward

import oracles


def small_spec(seed=7):
    return MlpSpec(input_dim=2, hidden_dims=(16,), feature_dim=8, num_classes=3,
                   init_seed=seed)


def set_param(bundle, name, value):
    """Write `value` into `bundle`'s parameter `name` through its vector, the one writer."""
    values = bundle.vector.data.copy()
    bundle.vector.split(values)[list(bundle.params).index(name)][...] = value
    bundle.vector.data = values


def checkpoint_doc(bundle, version):
    """`bundle`'s checkpoint document in format `version`: each parameter's data is a
    flat list of numbers (1) or the base64 text of its little-endian float64 bytes (2)."""
    def data(a):
        if version == 1:
            return a.ravel().tolist()
        return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")
    return {"format_version": version, "spec": asdict(bundle.spec),
            "params": {name: {"shape": list(a.shape), "data": data(a)}
                       for name, a in bundle.named_params()}}


def write_doc(path, doc):
    """Write `doc` as save_checkpoint lays a document out: sorted keys, one line."""
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


def fingerprint(bundle):
    return params_fingerprint(trainable_params(bundle, "all_target"))


# a random MLP with 0-3 hidden layers
SPECS = st.builds(MlpSpec, input_dim=st.integers(1, 6),
                  hidden_dims=st.lists(st.integers(1, 12), max_size=3).map(tuple),
                  feature_dim=st.integers(1, 8), num_classes=st.integers(2, 5),
                  init_seed=st.integers(0, 2**32 - 1))


class TestBuild:
    def test_parameter_counts(self):
        bundle = build(small_spec())
        extractor_n = sum(w.size + b.size for w, b in bundle.extractor)
        assert extractor_n == 2 * 16 + 16 + 16 * 8 + 8 == 184
        for head in (bundle.head1, bundle.head2):
            (w, b), = head
            assert w.size + b.size == 8 * 3 + 3 == 27

    def test_build_is_deterministic(self):
        a, b = build(small_spec(7)), build(small_spec(7))
        assert params_fingerprint(trainable_params(a, "all_target")) == \
               params_fingerprint(trainable_params(b, "all_target"))

    def test_different_seeds_differ(self):
        a, b = build(small_spec(7)), build(small_spec(8))
        assert params_fingerprint(trainable_params(a, "all_target")) != \
               params_fingerprint(trainable_params(b, "all_target"))

    def test_heads_start_identical(self):
        bundle = build(small_spec())
        np.testing.assert_array_equal(bundle.head1[0][0], bundle.head2[0][0])

    def test_biases_start_zero(self):
        bundle = build(small_spec())
        for _, b in bundle.extractor:
            np.testing.assert_array_equal(b, 0.0)

    def test_kaiming_bound(self):
        bundle = build(small_spec())
        w0 = bundle.extractor[0][0]  # fan_in 2
        assert np.all(np.abs(w0) <= np.sqrt(6.0 / 2))

    @settings(max_examples=100, deadline=None)
    @given(SPECS)
    def test_draw_matches_the_spelled_out_oracle_bit_for_bit(self, spec):
        got = build(spec).named_params()
        want = oracles.drawn_params(spec)
        assert [name for name, _ in got] == [name for name, _ in want]
        for (_, a), (_, b) in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        heads = dict(got)
        assert not np.shares_memory(heads["head1.weight"], heads["head2.weight"])

    def test_rejects_single_class(self):
        with pytest.raises(ContractViolation):
            MlpSpec(2, (16,), 8, 1)


class TestForward:
    def test_shapes(self):
        bundle = build(small_spec())
        l1, l2 = forward_target(bundle, np.zeros((4, 2)))
        assert l1.shape == (4, 3) and l2.shape == (4, 3)

    def test_input_dim_checked(self):
        bundle = build(small_spec())
        with pytest.raises(ContractViolation):
            forward_target(bundle, np.zeros((4, 3)))

    @pytest.mark.parametrize("bad", [
        Tensor(np.zeros((4, 2))), np.array([["a", "b"]]), np.ones((4, 2), dtype=bool),
        np.zeros((4, 2), dtype=complex), [[0.0, 1.0], [2.0]], None])
    def test_non_numeric_input_is_a_contract_violation(self, bad):
        bundle = build(small_spec())
        with pytest.raises(ContractViolation, match="^input must be an array of real numbers"):
            forward_target(bundle, bad)
        with pytest.raises(ContractViolation,
                           match="^features must be an array of real numbers"):
            forward_head(bundle, bad, 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_input_is_refused(self, value):
        # the ReLU mapped NaN to 0, so an all-NaN batch was scored with no error
        bundle = build(small_spec())
        with pytest.raises(ContractViolation, match="^input must be finite"):
            forward_target(bundle, np.full((3, 2), value))
        with pytest.raises(ContractViolation, match="^features must be finite"):
            forward_head(bundle, np.where(np.arange(8) == 5, value, 0.0)[None], 2)

    def test_target_is_features_then_heads(self):
        bundle = build(small_spec())
        set_param(bundle, "head2.weight", bundle.params["head2.weight"] + 1.0)  # heads differ
        x = np.random.default_rng(0).normal(size=(5, 2))
        l1, l2 = forward_target(bundle, x)
        feats = forward_features(bundle, x)
        assert feats.shape == (5, 8)
        np.testing.assert_array_equal(l1, forward_head(bundle, feats, 1))
        np.testing.assert_array_equal(l2, forward_head(bundle, feats, 2))
        assert not np.array_equal(l1, l2)

    def test_head_branch_checked(self):
        bundle = build(small_spec())
        feats = forward_features(bundle, np.zeros((4, 2)))
        with pytest.raises(ContractViolation):
            forward_head(bundle, feats, 3)

    def test_scopes(self):
        bundle = build(small_spec())
        assert len(trainable_params(bundle, "all_target")) == 8
        assert len(trainable_params(bundle, "classifiers_only")) == 4
        with pytest.raises(ContractViolation):
            trainable_params(bundle, "everything")

    def test_only_the_target_side_exists(self):
        bundle = build(small_spec())
        assert [n for n, _ in bundle.named_params()] == \
            [n for n, _ in bundle.named_params("target")]
        with pytest.raises(ContractViolation):
            bundle.named_params("source")


class TestLayout:
    @settings(max_examples=30, deadline=None)
    @given(SPECS, st.sampled_from([None, 3]))
    def test_no_parameter_can_be_rebound_or_written(self, spec, cells):
        # a parameter's values live in the bundle's vector alone: no name can be bound
        # to another array, no layer entry replaced, and no view written through
        bundle = clone_for_adaptation(build(spec), cells)
        before = bundle.vector.data.copy()
        for name, view in bundle.named_params():
            with pytest.raises(TypeError):
                bundle.params[name] = view.copy()
        with pytest.raises(TypeError):
            bundle.extractor[0] = bundle.head1[0]
        layers = bundle.extractor + bundle.head1 + bundle.head2 + bundle.branch_heads
        for view in [*bundle.params.values(), *bundle.head_vector.views,
                     *trainable_params(bundle, "classifiers_only"),
                     *(a for layer in layers for a in layer)]:
            with pytest.raises(ValueError, match="read-only"):
                view[...] = 1.0
        assert bundle.vector.data.tobytes() == before.tobytes()

    @pytest.mark.parametrize("cells", [None, 3])
    def test_the_only_tensors_a_bundle_holds_are_its_vectors_leaves(self, cells):
        bundle = clone_for_adaptation(build(small_spec()), cells)
        found, todo, seen = [], [bundle], set()
        while todo:  # every object reachable through attributes, mappings and sequences
            obj = todo.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, Tensor):
                found.append(obj)
            elif isinstance(obj, Mapping):
                todo += obj.values()
            elif isinstance(obj, (list, tuple)):
                todo += obj
            elif hasattr(obj, "__dict__"):
                todo += vars(obj).values()
        assert sorted(map(id, found)) == sorted(map(id, (bundle.vector.leaf,
                                                         bundle.head_vector.leaf)))

    @settings(max_examples=100, deadline=None)
    @given(SPECS)
    def test_every_view_follows_param_shapes(self, spec):
        bundle = build(spec)
        named = bundle.named_params()
        assert [(name, t.shape) for name, t in named] == spec.param_shapes()
        tensors = [t for _, t in named]
        layers = bundle.extractor + bundle.head1 + bundle.head2
        assert all(a is b for a, b in zip([t for layer in layers for t in layer], tensors,
                                          strict=True))
        assert all(a is b for a, b in zip(trainable_params(bundle, "all_target"), tensors,
                                          strict=True))
        heads = [(name, t) for name, t in named if name.startswith(("head1.", "head2."))]
        assert [name for name, _ in heads] == ["head1.weight", "head1.bias",
                                               "head2.weight", "head2.bias"]
        assert all(a is b for a, b in zip(trainable_params(bundle, "classifiers_only"),
                                          [t for _, t in heads], strict=True))

    @settings(max_examples=50, deadline=None)
    @given(SPECS, st.sampled_from([None, 3]))
    def test_entry_rates_give_the_heads_their_own(self, spec, cells):
        bundle = clone_for_adaptation(build(spec), cells)
        is_head = np.concatenate([np.full(math.prod(shape), name.startswith("head"))
                                  for name, shape in spec.param_shapes()])
        for lr_extractor, lr_heads in ((0.001, 0.0033), (1, 3)):  # ints become float64
            rates, heads = bundle.rate_vector()
            rates.fill(lr_extractor)
            heads.fill(lr_heads)
            assert rates.dtype == np.float64
            assert rates.tobytes() == np.where(is_head, float(lr_heads),
                                               float(lr_extractor)).tobytes()

    def test_names_and_shapes_checked(self):
        spec = small_spec()
        params = {name: np.zeros(shape) for name, shape in spec.param_shapes()}
        renamed = {("head3.bias" if name == "head2.bias" else name): a
                   for name, a in params.items()}
        with pytest.raises(ContractViolation, match=re.escape(
                "missing ['head2.bias'], unexpected ['head3.bias']")):
            bundle_from_params(spec, renamed)
        with pytest.raises(ContractViolation, match=re.escape(
                "head1.bias: expected shape (3,), got (2,)")):
            bundle_from_params(spec, {**params, "head1.bias": np.zeros(2)})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_are_refused(self, value):
        # they were kept, though save_checkpoint and load_checkpoint refuse them
        spec = small_spec()
        params = {name: np.zeros(shape) for name, shape in spec.param_shapes()}
        params["head2.weight"] = np.where(np.arange(24).reshape(8, 3) == 7, value, 0.0)
        with pytest.raises(ContractViolation,
                           match="^parameter 'head2.weight' has a non-finite value$"):
            bundle_from_params(spec, params)


def reencoded(text, edit):
    """Base64 `text` with its decoded bytes `edit`ed."""
    return base64.b64encode(edit(base64.b64decode(text))).decode("ascii")


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        bundle = build(small_spec())
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(bundle, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    # its first weight ends on a chunk boundary, after two chunks; its second spans
    # two chunks and ends inside the second
    CHUNKED = MlpSpec(4, (CHECKPOINT_CHUNK // 2, 3), 5, 2)
    # -0.0, two subnormals, the least normal, ±max, and repr's exponent and plain forms
    EDGES = [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
             -1.7976931348623157e308, 1e16, -1.5e-05, 0.1]

    @classmethod
    def drawn(cls, spec, seed):
        """`build(spec)`; with a `seed`, holding any finite float64: random bit
        patterns, the EDGES first and each non-finite pattern replaced by its index."""
        bundle = build(spec)
        if seed is not None:
            size = bundle.vector.data.size
            bits = np.random.default_rng(seed).integers(0, 2**64, size, dtype=np.uint64)
            values = bits.view(np.float64)
            values[:len(cls.EDGES)] = cls.EDGES[:size]
            bundle.vector.data = np.where(np.isfinite(values), values, np.arange(size))
        return bundle

    @settings(max_examples=50, deadline=None)
    @given(spec=SPECS | st.just(CHUNKED), seed=st.none() | st.integers(0, 2**32 - 1))
    @example(spec=CHUNKED, seed=0)
    def test_bytes_are_the_sorted_json_document(self, spec, seed):
        """A version 1 document, each value as decimal text, loads every bit, and its
        re-save is the version 2 document."""
        bundle = self.drawn(spec, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = write_doc(Path(tmp) / "m.ckpt", checkpoint_doc(bundle, 1))
            loaded = load_checkpoint(path)
            assert fingerprint(loaded) == fingerprint(bundle)
            save_checkpoint(loaded, path)
            doc = checkpoint_doc(bundle, 2)
            assert path.read_bytes() == (json.dumps(doc, sort_keys=True) + "\n").encode()

    @settings(max_examples=50, deadline=None)
    @given(spec=SPECS | st.just(CHUNKED), seed=st.none() | st.integers(0, 2**32 - 1))
    @example(spec=CHUNKED, seed=0)
    def test_version_2_bytes_are_the_sorted_json_document_with_base64_data(self, spec, seed):
        bundle = self.drawn(spec, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.ckpt"
            save_checkpoint(bundle, path)
            doc = checkpoint_doc(bundle, 2)
            assert path.read_bytes() == (json.dumps(doc, sort_keys=True) + "\n").encode()
            assert fingerprint(load_checkpoint(path)) == fingerprint(bundle)

    def test_a_save_holds_one_chunk_of_text_at_a_time(self, tmp_path):
        # 65,536 floats in extractor.1.weight: 7 MB of strings when json encodes it whole
        bundle = build(MlpSpec(8, (256, 256), 64, 8))
        tracemalloc.start()
        try:
            save_checkpoint(bundle, tmp_path / "m.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_records_seed(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build(small_spec(seed=7)), path)
        assert json.loads(path.read_text())["spec"]["init_seed"] == 7

    def test_loaded_values_exact(self, tmp_path):
        bundle = build(small_spec())
        path = tmp_path / "m.ckpt"
        save_checkpoint(bundle, path)
        loaded = load_checkpoint(path)
        for (_, a), (_, b) in zip(bundle.named_params("target"),
                                  loaded.named_params("target")):
            np.testing.assert_array_equal(a, b)

    def test_truncated_file_is_parse_error(self, tmp_path):
        bundle = build(small_spec())
        path = tmp_path / "m.ckpt"
        save_checkpoint(bundle, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @staticmethod
    def edited(tmp_path, edit, hidden=12, version=2):
        """A saved 2-`hidden`-8 model, 2 classes, seed 1, whose document `edit` changed;
        given `version` 1, the test writes the version 1 document itself."""
        path = tmp_path / "m.ckpt"
        bundle = build(MlpSpec(2, (hidden,), 8, 2, init_seed=1))
        save_checkpoint(bundle, path)
        doc = json.loads(path.read_text()) if version == 2 else checkpoint_doc(bundle, 1)
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @classmethod
    def edited_spec(cls, tmp_path, edit):
        """The same model, with its spec block `edit` changed."""
        return cls.edited(tmp_path, lambda doc: edit(doc["spec"]))

    # True and 1.0 compare equal to 1, and 2.0 to 2, so a plain `in (1, 2)` test
    # lets them through; 3 is no format
    @pytest.mark.parametrize("value", [True, 1.0, 2.0, 3])
    def test_format_version_must_be_the_integer_one_or_two(self, tmp_path, value):
        path = self.edited(tmp_path, lambda doc: doc.update(format_version=value))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: unsupported "
                                             f"format_version {re.escape(repr(value))}$"):
            load_checkpoint(path)

    def test_format_versions_one_and_two_load(self, tmp_path):
        for version in (1, 2):
            path = self.edited(tmp_path, lambda doc: None, version=version)
            assert json.loads(path.read_text())["format_version"] == version
            assert load_checkpoint(path).spec == MlpSpec(2, (12,), 8, 2, init_seed=1)

    @pytest.mark.parametrize("value", [[], None, "params"])
    def test_params_block_must_be_an_object(self, tmp_path, value):
        path = self.edited(tmp_path, lambda doc: doc.update(params=value))
        with pytest.raises(ParseError, match=re.escape(f"{path}: params must be an object")):
            load_checkpoint(path)

    # each would pass np.array(..., dtype=float64) and a reshape
    @pytest.mark.parametrize("edit", [
        lambda data: [str(v) for v in data],
        lambda data: [v > 0 for v in data],
        lambda data: [True] + data[1:],
        lambda data: [data[:8], data[8:]],
    ], ids=["strings", "bools", "one_bool", "nested"])
    def test_data_must_be_a_flat_list_of_numbers(self, tmp_path, edit):
        def edit_doc(doc):
            entry = doc["params"]["head1.weight"]
            entry["data"] = edit(entry["data"])
        path = self.edited(tmp_path, edit_doc, version=1)
        with pytest.raises(ParseError, match=re.escape(f"{path}: bad parameter 'head1.weight'")):
            load_checkpoint(path)

    # head1.weight is [8, 2]: 16 floats, 128 bytes, 172 base64 characters
    @pytest.mark.parametrize("edit, why", [
        (lambda text: list(text), "data must be base64 text"),
        (lambda text: 0.5, "data must be base64 text"),
        (lambda text: None, "data must be base64 text"),
        (lambda text: text[:40] + "*" + text[41:], "data is not base64: Only base64 data"),
        (lambda text: text[:40] + "\u00e9" + text[41:], "data is not base64: string argument"),
        (lambda text: text[:-1], "data is not base64: Incorrect padding"),
        (lambda text: text[:40] + "\n" + text[40:], "data is not base64: Only base64 data"),
        (lambda text: reencoded(text, lambda raw: raw[:-8]),
         "data holds 120 bytes, not the 128 of 16 float64 values"),
        (lambda text: reencoded(text, lambda raw: raw + raw[:8]),
         "data holds 136 bytes, not the 128 of 16 float64 values"),
        (lambda text: reencoded(text, lambda raw: raw[:-1]),
         "data holds 127 bytes, not the 128 of 16 float64 values"),
    ], ids=["list", "number", "none", "outside_alphabet", "not_ascii", "bad_padding",
            "whitespace", "one_float_short", "one_float_long", "one_byte_short"])
    def test_version_2_data_must_be_base64_of_every_float(self, tmp_path, edit, why):
        def edit_doc(doc):
            entry = doc["params"]["head1.weight"]
            entry["data"] = edit(entry["data"])
        path = self.edited(tmp_path, edit_doc)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: bad parameter "
                                             f"'head1.weight' \\({re.escape(why)}"):
            load_checkpoint(path)

    # a quiet and a signalling NaN, and both infinities, as little-endian bit patterns
    @pytest.mark.parametrize("bits", [0x7FF8000000000000, 0x7FF0000000000001,
                                      0x7FF0000000000000, 0xFFF0000000000000],
                             ids=["nan", "signalling_nan", "inf", "-inf"])
    def test_a_version_2_non_finite_value_is_refused_naming_its_parameter(self, tmp_path,
                                                                         bits):
        def edit_doc(doc):
            entry = doc["params"]["head1.weight"]
            entry["data"] = reencoded(entry["data"],
                                      lambda raw: raw[:24] + bits.to_bytes(8, "little")
                                      + raw[32:])
        path = self.edited(tmp_path, edit_doc)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: parameter "
                                             f"'head1.weight' has a non-finite value$"):
            load_checkpoint(path)

    def test_stated_shape_must_be_the_layouts(self, tmp_path):
        # a reshape to the stated [-1, 2] would infer the right shape and load
        path = self.edited(tmp_path, lambda doc: doc["params"]["head1.weight"].update(
            shape=[-1, 2]))
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: bad parameter 'head1.weight' (expected an object with shape [8, 2])")):
            load_checkpoint(path)

    # each equals the layout's shape under `==`: [2] for head1.bias, [1] for
    # extractor.0.bias of a model whose hidden layer has one unit
    @pytest.mark.parametrize("name, shape", [("head1.bias", [2.0]),
                                             ("extractor.0.bias", [True])])
    def test_stated_shape_items_must_be_integers(self, tmp_path, name, shape):
        path = self.edited(tmp_path, lambda doc: doc["params"][name].update(shape=shape),
                           hidden=1)
        with pytest.raises(ParseError, match=re.escape(f"{path}: bad parameter {name!r}")):
            load_checkpoint(path)

    def test_unknown_key_in_a_parameter_entry_is_refused(self, tmp_path):
        path = self.edited(tmp_path, lambda doc: doc["params"]["head1.bias"].update(extra=1))
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: bad parameter 'head1.bias' (unknown key 'extra')")):
            load_checkpoint(path)

    def test_root_must_be_an_object(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_text("[]")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: checkpoint root must be "
                                             f"an object$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["spec", "params"])
    def test_spec_and_params_are_required(self, tmp_path, key):
        path = self.edited(tmp_path, lambda doc: doc.pop(key))
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: missing {key!r}')}$"):
            load_checkpoint(path)

    def test_unknown_top_level_key_is_refused(self, tmp_path):
        path = self.edited(tmp_path, lambda doc: doc.update(formt_version=1))
        with pytest.raises(ParseError, match=re.escape(f"{path}: unknown key 'formt_version'")):
            load_checkpoint(path)

    def test_indented_files_still_load(self, tmp_path):
        # checkpoints written by older versions are indented
        bundle = build(small_spec())
        path = tmp_path / "m.ckpt"
        save_checkpoint(bundle, path)
        path.write_text(json.dumps(json.loads(path.read_text()), indent=1, sort_keys=True) + "\n")
        assert params_fingerprint(trainable_params(load_checkpoint(path), "all_target")) == \
            params_fingerprint(trainable_params(bundle, "all_target"))

    # each value would pass a cast to the saved one: the spec is parsed like a
    # config's model block, not coerced
    @pytest.mark.parametrize("key, value, where", [
        ("input_dim", 2.7, "spec.input_dim"),
        ("hidden_dims", [12.9], "spec.hidden_dims[0]"),
        ("init_seed", True, "spec.init_seed"),
        ("num_classes", "2", "spec.num_classes"),
        ("init_sed", 1, "spec.init_sed"),
    ])
    def test_spec_block_is_parsed_strictly(self, tmp_path, key, value, where):
        path = self.edited_spec(tmp_path, lambda spec: spec.update({key: value}))
        with pytest.raises(ParseError, match=re.escape(where)):
            load_checkpoint(path)

    def test_spec_without_init_seed_is_parse_error(self, tmp_path):
        path = self.edited_spec(tmp_path, lambda spec: spec.pop("init_seed"))
        with pytest.raises(ParseError, match="init_seed"):
            load_checkpoint(path)

    def test_spec_without_activation_loads_as_relu(self, tmp_path):
        path = self.edited_spec(tmp_path, lambda spec: spec.pop("activation"))
        assert load_checkpoint(path).spec == MlpSpec(2, (12,), 8, 2, init_seed=1)

    def test_spec_mismatch_is_contract_violation(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build(small_spec()), path)
        other = MlpSpec(2, (16,), 8, 4, init_seed=7)
        with pytest.raises(ContractViolation):
            load_checkpoint(path, expect_spec=other)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_parameter_is_parse_error(self, tmp_path, value):
        path = tmp_path / "m.ckpt"
        doc = checkpoint_doc(build(small_spec()), 1)
        doc["params"]["head1.weight"]["data"][0] = "@@"
        path.write_text(json.dumps(doc).replace('"@@"', value))
        with pytest.raises(ParseError, match="head1.weight"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_is_refused_before_any_write(self, tmp_path, value):
        bundle = build(small_spec())
        set_param(bundle, "extractor.1.bias", np.where(np.arange(8) == 3, value, 0.0))
        path = tmp_path / "m.ckpt"
        with pytest.raises(ContractViolation, match="extractor.1.bias"):
            save_checkpoint(bundle, path)
        assert list(tmp_path.iterdir()) == []

    def test_stacked_bundle_is_refused_before_any_write(self, tmp_path):
        # load_checkpoint would refuse its [3, ...] parameters
        stacked = clone_for_adaptation(build(small_spec()), cells=3)
        with pytest.raises(ContractViolation,
                           match=r"^extractor\.0\.weight: expected shape \(\d+, \d+\), got \(3, "):
            save_checkpoint(stacked, tmp_path / "m.ckpt")
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=60, deadline=None)
    @given(SPECS, st.sampled_from([None, 1, 2]), st.data())
    def test_a_save_refuses_what_a_load_refuses_and_writes_every_bit(self, spec, cells, data):
        bundle = build(spec) if cells is None else clone_for_adaptation(build(spec), cells=cells)
        vector = bundle.vector.data.copy()
        for i in data.draw(st.lists(st.integers(0, vector.size - 1), max_size=3, unique=True)):
            vector.flat[i] = data.draw(st.floats(allow_nan=True, allow_infinity=True))
        bundle.vector.data = vector
        try:  # what load_checkpoint would run on the file
            bundle_from_params(spec, bundle.params)
            refusal = None
        except ContractViolation as e:
            refusal = str(e)
        assert (refusal is None) == (cells is None and np.isfinite(vector).all())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.ckpt"
            if refusal is not None:
                with pytest.raises(ContractViolation, match=f"^{re.escape(refusal)}$"):
                    save_checkpoint(bundle, path)
                assert list(Path(tmp).iterdir()) == []
            else:
                save_checkpoint(bundle, path)
                assert params_fingerprint(trainable_params(load_checkpoint(path), "all_target")) \
                    == params_fingerprint(trainable_params(bundle, "all_target"))

    def test_refused_save_keeps_the_existing_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build(small_spec()), path)
        before = path.read_bytes()
        bad = build(small_spec(seed=8))
        set_param(bad, "head2.weight", bad.params["head2.weight"] * np.nan)
        with pytest.raises(ContractViolation, match="head2.weight"):
            save_checkpoint(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_save_replaces_through_a_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build(small_spec()), path)
        before = path.read_bytes()

        def crash(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(json, "dumps", crash)  # dies halfway through the write
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(build(small_spec(seed=8)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_bad_shape_is_parse_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        doc = checkpoint_doc(build(small_spec()), 1)
        doc["params"]["head1.bias"]["data"] = [1.0, 2.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_checkpoint(path)


class TestClone:
    def test_clone_copies_target_into_both_sides(self):
        # the two sides of an adaptation: the trainable clone, and the
        # original, which adapt() reads as the frozen source model
        bundle = build(small_spec())
        for name in ("extractor.0.weight", "extractor.1.weight"):
            set_param(bundle, name, bundle.params[name] + 1.0)  # pretend training happened
        clone = clone_for_adaptation(bundle)
        assert params_fingerprint(trainable_params(clone, "all_target")) == \
            params_fingerprint(trainable_params(bundle, "all_target"))

    def test_views_are_read_only_and_only_the_vector_writes_its_buffer(self):
        # the vector's data, its tail's and every parameter are read-only views of one
        # buffer that only the vector writes, by assignment; so a snapshot (sam_step's
        # w, adaptation's last_good) is a copy
        bundle = build(small_spec())
        before = bundle.vector.data.copy()
        for array in (bundle.vector.data, bundle.head_vector.data,
                      bundle.extractor[0][0], bundle.head2[0][1]):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 1.0
        views = list(bundle.params.values())
        bundle.vector.data = bundle.vector.data + 1.0  # assigning writes into the buffer
        assert all(a is view for a, view in zip(bundle.params.values(), views, strict=True))
        assert not bundle.vector.data.flags.writeable
        assert not bundle.extractor[0][0].flags.writeable
        np.testing.assert_array_equal(bundle.vector.data, before + 1.0)

    def test_clone_is_independent_storage(self):
        bundle = build(small_spec())
        clone = clone_for_adaptation(bundle)
        set_param(clone, "extractor.0.weight", clone.extractor[0][0] + 5.0)
        assert not np.array_equal(clone.extractor[0][0], bundle.extractor[0][0])

    @pytest.mark.parametrize("cells", [None, 3], ids=["plain", "stacked"])
    @pytest.mark.parametrize("copier", ["pickle", "deepcopy", "copy"])
    def test_a_copy_owns_a_vector_that_its_views_see(self, cells, copier):
        # a sweep ships pretrained bundles to its workers by pickle
        bundle = clone_for_adaptation(build(small_spec()), cells)
        copied = {"pickle": lambda b: pickle.loads(pickle.dumps(b)),
                  "deepcopy": copy.deepcopy, "copy": copy.copy}[copier](bundle)
        assert copied.spec == bundle.spec and list(copied.params) == list(bundle.params)
        assert copied.vector.data.shape == bundle.vector.data.shape
        assert params_fingerprint(trainable_params(copied, "all_target")) == \
            params_fingerprint(trainable_params(bundle, "all_target"))
        assert not np.shares_memory(copied.vector.data, bundle.vector.data)
        layers = copied.extractor + copied.head1 + copied.head2 + copied.branch_heads
        for view in [*copied.params.values(), copied.head_vector.data,
                     *(a for layer in layers for a in layer)]:
            assert np.shares_memory(view, copied.vector.data) and not view.flags.writeable
        before = bundle.vector.data.copy()
        copied.vector.data = copied.vector.data + 1.0
        assert copied.vector.flat(list(copied.params.values())).tobytes() == \
            copied.vector.data.tobytes() == (before + 1.0).tobytes()
        assert bundle.vector.data.tobytes() == before.tobytes()

    def test_a_non_integral_cell_count_is_refused(self):
        # a bare TypeError from np.broadcast_to before
        with pytest.raises(ContractViolation, match=r"^cells must be an integer, got 2\.5$"):
            clone_for_adaptation(build(small_spec()), 2.5)

    @pytest.mark.parametrize("cells", [0, -1])
    def test_fewer_than_one_cell_is_refused(self, cells):
        with pytest.raises(ContractViolation, match=f"^cells must be >= 1, got {cells}$"):
            clone_for_adaptation(build(small_spec()), cells)


# -- the layer-stack kernels against the composed tape ------------------------------

# how the two heads see the extractor: two views through one shared extractor
# (adaptation step 1), one feature tensor read by both heads (pretraining on the
# tape, tests/oracles.py), or features detached into constants (adaptation step 2)
WIRINGS = ("two_views", "shared_features", "constant_features")


@st.composite
def stack_cases(draw):
    """A random MLP with 0-3 hidden layers, its parameters, inputs and a readout."""
    spec = draw(SPECS)
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = {name: rng.normal(size=a.shape)
              for name, a in build(spec).named_params()}
    k = spec.num_classes
    return {
        "spec": spec, "params": params,
        "x1": rng.normal(size=(n, spec.input_dim)), "x2": rng.normal(size=(n, spec.input_dim)),
        "c1": rng.normal(size=(n, k)), "c2": rng.normal(size=(n, k)),
        "input_grad": draw(st.booleans()), "wiring": draw(st.sampled_from(WIRINGS)),
    }


def run_stack(case):
    """Logits, then the gradient of every parameter and input, after one backward
    of sum(l1 * c1) + sum(l2 * c2) on the composed tape."""
    params = oracles.tape_params(bundle_from_params(case["spec"], case["params"]))
    x1 = Tensor(case["x1"].copy(), requires_grad=case["input_grad"])
    x2 = Tensor(case["x2"].copy(), requires_grad=case["input_grad"])
    features, head = oracles.tape_forward_features, oracles.tape_forward_head
    if case["wiring"] == "two_views":
        l1 = head(params, features(params, x1), 1)
        l2 = head(params, features(params, x2), 2)
    else:
        feats = features(params, x1)
        if case["wiring"] == "constant_features":
            feats = Tensor(feats.data)
        l1, l2 = head(params, feats, 1), head(params, feats, 2)
    backward((l1 * Tensor(case["c1"])).sum() + (l2 * Tensor(case["c2"])).sum())
    return [l1.data, l2.data] + [t.grad for t in params.values()] + [x1.grad, x2.grad]


def run_kernels(case):
    """`run_stack`'s numbers from `_stack_forward` and `_stack_backward`, chained
    by hand; d/dl1 = c1 and d/dl2 = c2. None stands for a gradient nothing
    takes, as the tape leaves it."""
    bundle = bundle_from_params(case["spec"], case["params"])
    extractor, input_grad = bundle.extractor, case["input_grad"]
    if case["wiring"] == "two_views":
        passes = [_stack_forward(case["x1"], extractor), _stack_forward(case["x2"], extractor)]
    else:
        passes = [_stack_forward(case["x1"], extractor)] * 2
    logits, head_grads, feat_grads = [], [], []
    for (feats, _), head, c in zip(passes, (bundle.head1, bundle.head2),
                                   (case["c1"], case["c2"])):
        out, inputs = _stack_forward(feats, head)
        *grads, g_f = _stack_backward(c, head, inputs, input_grad=True)
        logits.append(out)
        head_grads += grads
        feat_grads.append(g_f)
    ext_grads, input_grads = [None] * (2 * len(extractor)), [None, None]
    if case["wiring"] == "two_views":  # the extractor's gradient: view 1's plus view 2's
        g1, g2 = (_stack_backward(g, extractor, inputs, input_grad)
                  for g, (_, inputs) in zip(feat_grads, passes))
        ext_grads = [a + b for a, b in zip(g1, g2)][:len(ext_grads)]
        if input_grad:
            input_grads = [g1[-1], g2[-1]]
    elif case["wiring"] == "shared_features":  # the features' gradient: head 1's plus head 2's
        _, inputs = passes[0]
        grads = _stack_backward(feat_grads[0] + feat_grads[1], extractor, inputs, input_grad)
        ext_grads = grads[:len(ext_grads)]
        if input_grad:
            input_grads[0] = grads[-1]
    return logits + ext_grads + head_grads + input_grads


class TestFusedLayerStack:
    @settings(max_examples=200, deadline=None)
    @given(stack_cases())
    def test_matches_the_composed_tape_bit_for_bit(self, case):
        got, want = run_kernels(case), run_stack(case)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            if b is None:
                assert a is None
            else:
                assert type(a) is np.ndarray and np.array_equal(a, b)

    def test_input_gradient_only_when_asked(self):
        spec = MlpSpec(input_dim=2, hidden_dims=(5, 4), feature_dim=3, num_classes=2)
        layers = build(spec).extractor
        out, inputs = _stack_forward(np.ones((3, 2)), layers)
        g = np.random.default_rng(0).normal(size=out.shape)
        without = _stack_backward(g, layers, inputs)
        with_input = _stack_backward(g, layers, inputs, input_grad=True)
        assert len(without) == 2 * len(layers) == 6
        assert len(with_input) == 2 * len(layers) + 1
        assert with_input[-1].shape == (3, 2)
        for a, b in zip(without, with_input):
            assert np.array_equal(a, b)

    # every kind of float64: ±0.0, ±NaN, ±inf, ±the smallest subnormal, ±a subnormal,
    # ±the largest float and ±1
    SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
               np.finfo(np.float64).max, -np.finfo(np.float64).max, 1.0, -1.0]

    @staticmethod
    def special_stack(b0):
        """A 3-layer stack, its input, and layer 0's pre-activations [3, b0.size],
        each row of which is `b0`: every product in x @ w0 underflows to -0.0, and
        -0.0 + b0 is b0, -0.0 included."""
        rng = np.random.default_rng(5)
        x, w0 = np.full((3, 3), -1e-200), np.full((3, b0.size), 1e-200)
        layers = [(w0, b0), (rng.normal(size=(b0.size, 5)), rng.normal(size=5)),
                  (rng.normal(size=(5, 2)), rng.normal(size=2))]
        pre = x @ w0 + b0
        assert pre.tobytes() == np.broadcast_to(b0, pre.shape).tobytes()
        return layers, x, pre

    def test_relu_is_bitwise_where_on_every_kind_of_float(self):
        # each kind alone over 2-17 columns: numpy's fmax treats some positions of an
        # array (the first past its last full SIMD block) apart from the rest
        for value in self.SPECIAL:
            for width in range(2, 18):
                layers, x, pre = self.special_stack(np.full(width, value))
                with np.errstate(all="ignore"):
                    _, inputs = _stack_forward(x, layers)
                    pre1 = np.where(pre > 0, pre, 0.0) @ layers[1][0] + layers[1][1]
                assert inputs[1].tobytes() == np.where(pre > 0, pre, 0.0).tobytes(), value
                assert inputs[2].tobytes() == np.where(pre1 > 0, pre1, 0.0).tobytes()

    def test_backward_masks_where_the_pre_activation_is_positive(self):
        layers, x, pre0 = self.special_stack(np.array(self.SPECIAL))
        (w0, _), (w1, b1), (w2, _) = layers
        g = np.random.default_rng(6).normal(size=(3, 2))
        with np.errstate(all="ignore"):
            _, inputs = _stack_forward(x, layers)
            a1 = np.where(pre0 > 0, pre0, 0.0)
            pre1 = a1 @ w1 + b1
            a2 = np.where(pre1 > 0, pre1, 0.0)
            got = _stack_backward(g, layers, inputs, input_grad=True)
            g1 = (g @ w2.T) * (pre1 > 0)
            g0 = (g1 @ w1.T) * (pre0 > 0)
            want = [x.T @ g0, g0.sum(axis=0), a1.T @ g1, g1.sum(axis=0), a2.T @ g, g.sum(axis=0),
                    g0 @ w0.T]
        assert np.array_equal(inputs[1] > 0.0, pre0 > 0)
        assert np.array_equal(inputs[2] > 0.0, pre1 > 0)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("layout", ["plain", "branch_stacked", "stacked_bundle"])
    def test_writes_no_array_of_the_caller(self, layout):
        # [n, d] and [2, S, n, d] inputs through a plain bundle, and [2, S, n, d] through
        # a stacked one: each activation and gradient is written in place, and only those
        rng = np.random.default_rng(8)
        bundle = build(MlpSpec(input_dim=3, hidden_dims=(5, 4), feature_dim=4, num_classes=3))
        if layout == "stacked_bundle":
            bundle = clone_for_adaptation(bundle, cells=3)
        bundle.vector.data = rng.normal(size=bundle.vector.data.shape)  # some ReLUs clip
        x = rng.normal(size=(6, 3) if layout == "plain" else (2, 3, 6, 3))
        layers = bundle.extractor + bundle.head1
        arrays = [x, bundle.vector.data] + [a for layer in layers for a in layer]
        before = [a.tobytes() for a in arrays]
        out, inputs = _stack_forward(x, layers)
        assert inputs[0] is x and out.shape == x.shape[:-1] + (3,)
        g = rng.normal(size=out.shape)
        arrays += [out, g] + inputs[1:]
        before += [a.tobytes() for a in arrays[len(before):]]
        grads = _stack_backward(g, layers, inputs, input_grad=True)
        for a, b in zip(arrays, before, strict=True):
            assert a.tobytes() == b
        assert not any(np.shares_memory(grad, a) for grad in grads for a in arrays)
        assert not any(np.shares_memory(a, b) for a in [out] + inputs[1:] for b in arrays[:2])

    def test_gradients_match_finite_differences(self):
        spec = MlpSpec(input_dim=3, hidden_dims=(5, 4), feature_dim=4, num_classes=3)
        rng = np.random.default_rng(59)
        names = [name for name, _ in build(spec).named_params()]
        arrays = [rng.normal(size=a.shape) for _, a in build(spec).named_params()]
        arrays += [rng.normal(size=(6, 3)), rng.normal(size=(6, 3))]
        c1, c2 = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))

        def loss(*arrs):
            bundle = bundle_from_params(spec, dict(zip(names, arrs[:-2])))
            l1 = forward_head(bundle, forward_features(bundle, arrs[-2]), 1)
            l2 = forward_head(bundle, forward_features(bundle, arrs[-1]), 2)
            return float((l1 * c1).sum() + (l2 * c2).sum())

        case = {"spec": spec, "params": dict(zip(names, arrays[:-2])), "x1": arrays[-2],
                "x2": arrays[-1], "c1": c1, "c2": c2, "input_grad": True,
                "wiring": "two_views"}
        analytic = run_kernels(case)[2:]
        numeric = oracles.fd_grad(loss, [a.copy() for a in arrays])
        assert oracles.max_rel_err(analytic, numeric) < 1e-4


class TestPlainForward:
    @settings(max_examples=200, deadline=None)
    @given(stack_cases())
    def test_matches_the_tape_path_bit_for_bit(self, case):
        bundle = bundle_from_params(case["spec"], case["params"])
        x = case["x1"]
        feats = forward_features(bundle, x)
        params = oracles.tape_params(bundle)
        tape_feats = oracles.tape_forward_features(params, Tensor(x))
        assert type(feats) is np.ndarray
        assert np.array_equal(feats, tape_feats.data)
        for branch, logits in zip((1, 2), forward_target(bundle, x)):
            assert type(logits) is np.ndarray
            assert np.array_equal(logits, forward_head(bundle, feats, branch))
            assert np.array_equal(logits,
                                  oracles.tape_forward_head(params, tape_feats, branch).data)

    def test_a_forward_without_backward_keeps_no_layer_inputs(self):
        # 2000 rows of 128 + 128 + 64 float64 activations: 5.12 MB held at once if each
        # layer's input were kept; two at a time, as evaluation needs, peak near 4.1 MB
        bundle = build(MlpSpec(8, (128, 128), 64, 8))
        x = np.random.default_rng(0).normal(size=(2000, 8))
        tracemalloc.start()
        try:
            feats = forward_features(bundle, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert feats.shape == (2000, 64)
        assert peak < 2000 * (128 + 128 + 64) * 8

    def test_shapes_and_branch_checked(self):
        bundle = build(small_spec())
        with pytest.raises(ContractViolation, match="input must be"):
            forward_features(bundle, np.zeros((4, 3)))
        with pytest.raises(ContractViolation, match="features must be"):
            forward_head(bundle, np.zeros((4, 2)), 1)
        with pytest.raises(ContractViolation, match="branch"):
            forward_head(bundle, np.zeros((4, 8)), 3)
