import json

import numpy as np
import pytest

from actlab.errors import ContractViolation, ParseError
from actlab.models import (MlpSpec, build, clone_for_adaptation, forward_features,
                           forward_head, forward_target, load_checkpoint,
                           params_fingerprint, save_checkpoint, trainable_params)
from actlab.tensor import Tensor


def small_spec(seed=7):
    return MlpSpec(input_dim=2, hidden_dims=(16,), feature_dim=8, num_classes=3,
                   init_seed=seed)


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
