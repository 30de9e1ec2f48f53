import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actlab.errors import ContractViolation, ParseError
from actlab.models import (MlpSpec, build, bundle_from_params, clone_for_adaptation,
                           forward_features, forward_head, forward_target,
                           load_checkpoint, params_fingerprint, plain_features,
                           plain_head, save_checkpoint, trainable_params)
from actlab.tensor import Tensor, backward

import oracles


def small_spec(seed=7):
    return MlpSpec(input_dim=2, hidden_dims=(16,), feature_dim=8, num_classes=3,
                   init_seed=seed)


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
        np.testing.assert_array_equal(bundle.head1[0][0].data, bundle.head2[0][0].data)

    def test_biases_start_zero(self):
        bundle = build(small_spec())
        for _, b in bundle.extractor:
            np.testing.assert_array_equal(b.data, 0.0)

    def test_kaiming_bound(self):
        bundle = build(small_spec())
        w0 = bundle.extractor[0][0].data  # fan_in 2
        assert np.all(np.abs(w0) <= np.sqrt(6.0 / 2))

    @settings(max_examples=100, deadline=None)
    @given(SPECS)
    def test_draw_matches_the_spelled_out_oracle_bit_for_bit(self, spec):
        got = [(name, t.data) for name, t in build(spec).named_params()]
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
        l1, l2 = forward_target(bundle, Tensor(np.zeros((4, 2))))
        assert l1.shape == (4, 3) and l2.shape == (4, 3)

    def test_input_dim_checked(self):
        bundle = build(small_spec())
        with pytest.raises(ContractViolation):
            forward_target(bundle, Tensor(np.zeros((4, 3))))

    def test_target_is_features_then_heads(self):
        bundle = build(small_spec())
        for w, _ in bundle.head2:
            w.data = w.data + 1.0  # so the two heads differ
        x = np.random.default_rng(0).normal(size=(5, 2))
        l1, l2 = forward_target(bundle, Tensor(x))
        feats = forward_features(bundle, x)
        assert feats.shape == (5, 8)
        np.testing.assert_array_equal(l1.data, forward_head(bundle, feats, 1).data)
        np.testing.assert_array_equal(l2.data, forward_head(bundle, feats, 2).data)
        assert not np.array_equal(l1.data, l2.data)

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


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        bundle = build(small_spec())
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(bundle, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

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
            np.testing.assert_array_equal(a.data, b.data)

    def test_truncated_file_is_parse_error(self, tmp_path):
        bundle = build(small_spec())
        path = tmp_path / "m.ckpt"
        save_checkpoint(bundle, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ParseError):
            load_checkpoint(path)

    @staticmethod
    def edited(tmp_path, edit, hidden=12):
        """A saved 2-`hidden`-8 model, 2 classes, seed 1, whose document `edit` changed."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(build(MlpSpec(2, (hidden,), 8, 2, init_seed=1)), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @classmethod
    def edited_spec(cls, tmp_path, edit):
        """The same model, with its spec block `edit` changed."""
        return cls.edited(tmp_path, lambda doc: edit(doc["spec"]))

    # both compare equal to 1, so a plain `!= 1` test lets them through
    @pytest.mark.parametrize("value", [True, 1.0])
    def test_format_version_must_be_the_integer_one(self, tmp_path, value):
        path = self.edited(tmp_path, lambda doc: doc.update(format_version=value))
        with pytest.raises(ParseError, match=re.escape(f"{path}: unsupported format_version")):
            load_checkpoint(path)

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
        path = self.edited(tmp_path, edit_doc)
        with pytest.raises(ParseError, match=re.escape(f"{path}: bad parameter 'head1.weight'")):
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
        save_checkpoint(build(small_spec()), path)
        doc = json.loads(path.read_text())
        doc["params"]["head1.weight"]["data"][0] = "@@"
        path.write_text(json.dumps(doc).replace('"@@"', value))
        with pytest.raises(ParseError, match="head1.weight"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_is_refused_before_any_write(self, tmp_path, value):
        bundle = build(small_spec())
        bundle.extractor[1][1].data = np.where(np.arange(8) == 3, value, 0.0)
        path = tmp_path / "m.ckpt"
        with pytest.raises(ContractViolation, match="extractor.1.bias"):
            save_checkpoint(bundle, path)
        assert list(tmp_path.iterdir()) == []

    def test_refused_save_keeps_the_existing_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build(small_spec()), path)
        before = path.read_bytes()
        bad = build(small_spec(seed=8))
        bad.head2[0][0].data = bad.head2[0][0].data * np.nan
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
        save_checkpoint(build(small_spec()), path)
        doc = json.loads(path.read_text())
        doc["params"]["head1.bias"]["data"] = [1.0, 2.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_checkpoint(path)


class TestClone:
    def test_clone_copies_target_into_both_sides(self):
        # the two sides of an adaptation: the trainable clone, and the
        # original, which adapt() reads as the frozen source model
        bundle = build(small_spec())
        for w, _ in bundle.extractor:
            w.data = w.data + 1.0  # pretend training happened
        clone = clone_for_adaptation(bundle)
        assert params_fingerprint(trainable_params(clone, "all_target")) == \
            params_fingerprint(trainable_params(bundle, "all_target"))

    def test_clone_is_independent_storage(self):
        bundle = build(small_spec())
        clone = clone_for_adaptation(bundle)
        clone.extractor[0][0].data = clone.extractor[0][0].data + 5.0
        assert not np.array_equal(clone.extractor[0][0].data,
                                  bundle.extractor[0][0].data)


# -- the fused layer-stack node against the composed tape --------------------------

# how the two heads see the extractor: two views through one shared extractor
# (adaptation step 1), one feature tensor read by both heads (pretraining), or
# features detached into constants (adaptation step 2)
WIRINGS = ("two_views", "shared_features", "constant_features")


@st.composite
def stack_cases(draw):
    """A random MLP with 0-3 hidden layers, its parameters, inputs and a readout."""
    spec = draw(SPECS)
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = {name: rng.normal(size=t.shape)
              for name, t in build(spec).named_params()}
    k = spec.num_classes
    return {
        "spec": spec, "params": params,
        "x1": rng.normal(size=(n, spec.input_dim)), "x2": rng.normal(size=(n, spec.input_dim)),
        "c1": rng.normal(size=(n, k)), "c2": rng.normal(size=(n, k)),
        "input_grad": draw(st.booleans()), "wiring": draw(st.sampled_from(WIRINGS)),
    }


def run_stack(case, features, head):
    """Logits, then the gradient of every parameter and input, after one backward."""
    bundle = bundle_from_params(case["spec"], case["params"])
    x1 = Tensor(case["x1"].copy(), requires_grad=case["input_grad"])
    x2 = Tensor(case["x2"].copy(), requires_grad=case["input_grad"])
    if case["wiring"] == "two_views":
        l1 = head(bundle, features(bundle, x1), 1)
        l2 = head(bundle, features(bundle, x2), 2)
    else:
        feats = features(bundle, x1)
        if case["wiring"] == "constant_features":
            feats = Tensor(feats.data)
        l1, l2 = head(bundle, feats, 1), head(bundle, feats, 2)
    backward((l1 * Tensor(case["c1"])).sum() + (l2 * Tensor(case["c2"])).sum())
    return [l1.data, l2.data] + [t.grad for _, t in bundle.named_params()] + [x1.grad, x2.grad]


class TestFusedLayerStack:
    @settings(max_examples=200, deadline=None)
    @given(stack_cases())
    def test_matches_the_composed_tape_bit_for_bit(self, case):
        fused = run_stack(case, forward_features, forward_head)
        composed = run_stack(case, oracles.tape_forward_features, oracles.tape_forward_head)
        for got, want in zip(fused, composed):
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got, want)

    def test_input_gradient_only_when_asked(self):
        bundle = build(small_spec())
        x = Tensor(np.ones((3, 2)))
        feats = forward_features(bundle, x)
        assert all(p is not x for p in feats._parents)
        backward(forward_head(bundle, feats, 1).sum())
        assert x.grad is None

    def test_gradients_match_finite_differences(self):
        spec = MlpSpec(input_dim=3, hidden_dims=(5, 4), feature_dim=4, num_classes=3)
        rng = np.random.default_rng(59)
        names = [name for name, _ in build(spec).named_params()]
        arrays = [rng.normal(size=t.shape) for _, t in build(spec).named_params()]
        arrays += [rng.normal(size=(6, 3)), rng.normal(size=(6, 3))]
        c1, c2 = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))

        def loss(*arrs, requires_grad=False):
            bundle = bundle_from_params(spec, dict(zip(names, arrs[:-2])))
            for _, t in bundle.named_params():
                t.requires_grad = requires_grad
            x1, x2 = (Tensor(a, requires_grad=requires_grad) for a in arrs[-2:])
            l1 = forward_head(bundle, forward_features(bundle, x1), 1)
            l2 = forward_head(bundle, forward_features(bundle, x2), 2)
            return bundle, (x1, x2), (l1 * Tensor(c1)).sum() + (l2 * Tensor(c2)).sum()

        bundle, xs, total = loss(*[a.copy() for a in arrays], requires_grad=True)
        backward(total)
        analytic = [t.grad for _, t in bundle.named_params()] + [x.grad for x in xs]
        numeric = oracles.fd_grad(lambda *arrs: loss(*arrs)[2].item(),
                                  [a.copy() for a in arrays])
        assert oracles.max_rel_err(analytic, numeric) < 1e-4


class TestPlainForward:
    @settings(max_examples=200, deadline=None)
    @given(stack_cases())
    def test_matches_the_tape_path_bit_for_bit(self, case):
        bundle = bundle_from_params(case["spec"], case["params"])
        x = case["x1"]
        feats = plain_features(bundle, x)
        tape_feats = forward_features(bundle, Tensor(x))
        assert type(feats) is np.ndarray
        assert np.array_equal(feats, tape_feats.data)
        for branch in (1, 2):
            logits = plain_head(bundle, feats, branch)
            assert type(logits) is np.ndarray
            assert np.array_equal(logits, forward_head(bundle, tape_feats, branch).data)

    def test_shapes_and_branch_checked(self):
        bundle = build(small_spec())
        with pytest.raises(ContractViolation, match="input must be"):
            plain_features(bundle, np.zeros((4, 3)))
        with pytest.raises(ContractViolation, match="features must be"):
            plain_head(bundle, np.zeros((4, 2)), 1)
        with pytest.raises(ContractViolation, match="branch"):
            plain_head(bundle, np.zeros((4, 8)), 3)
