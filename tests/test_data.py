import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actlab.data import (AugmentPolicy, DomainSpec, LabeledSet, ShiftSpec,
                         StrongTier, WeakTier, _augment_apply, _augment_draws,
                         augment, augment_batch, batches,
                         load_labeled_set, make_domain_pair, rng_stream,
                         rotation_matrix_2d, sample_support, save_labeled_set)
from actlab.errors import ContractViolation, ParseError

import oracles


def blob_spec(**kw):
    base = dict(generator="gaussian_blobs", dim=2, num_classes=3,
                samples_per_class=(50, 50, 50), seed=9)
    base.update(kw)
    return DomainSpec(**base)


def moons_spec(**kw):
    base = dict(generator="two_moons", dim=2, num_classes=2,
                samples_per_class=(80, 80), seed=9)
    base.update(kw)
    return DomainSpec(**base)


class TestGenerators:
    def test_counts_match_exactly(self):
        src, tgt = make_domain_pair(blob_spec(samples_per_class=(40, 10, 25)))
        np.testing.assert_array_equal(src.class_counts(), [40, 10, 25])
        np.testing.assert_array_equal(tgt.class_counts(), [40, 10, 25])

    def test_deterministic_per_seed(self):
        a = make_domain_pair(blob_spec())
        b = make_domain_pair(blob_spec())
        np.testing.assert_array_equal(a[0].xs, b[0].xs)
        np.testing.assert_array_equal(a[1].xs, b[1].xs)

    def test_seed_changes_draw(self):
        a = make_domain_pair(blob_spec(seed=1))
        b = make_domain_pair(blob_spec(seed=2))
        assert not np.array_equal(a[0].xs, b[0].xs)

    def test_source_and_target_are_independent_draws(self):
        src, tgt = make_domain_pair(blob_spec())
        assert not np.array_equal(src.xs, tgt.xs)

    def test_zero_shift_matches_distribution(self):
        """No shift: both domains share the generating parameters."""
        src, tgt = make_domain_pair(blob_spec(samples_per_class=(4000, 4000, 4000)))
        for c in range(3):
            mu_s = src.xs[src.ys == c].mean(axis=0)
            mu_t = tgt.xs[tgt.ys == c].mean(axis=0)
            np.testing.assert_allclose(mu_s, mu_t, atol=0.1)

    def test_rotation_rotates_the_mean(self):
        """Rotated target mean equals the rotation applied to the unshifted draw."""
        plain = make_domain_pair(moons_spec())[1]
        rotated = make_domain_pair(moons_spec(shift=ShiftSpec(rotation_deg=30.0)))[1]
        expect = plain.xs.mean(axis=0) @ rotation_matrix_2d(30.0).T
        np.testing.assert_allclose(rotated.xs.mean(axis=0), expect, atol=1e-9)

    def test_translation_shifts_the_mean_exactly(self):
        plain = make_domain_pair(blob_spec())[1]
        moved = make_domain_pair(blob_spec(shift=ShiftSpec(translation=(1.5, -2.0))))[1]
        np.testing.assert_allclose(moved.xs, plain.xs + np.array([1.5, -2.0]), atol=1e-12)

    def test_noise_adds_spread(self):
        plain = make_domain_pair(blob_spec())[1]
        noisy = make_domain_pair(blob_spec(shift=ShiftSpec(noise_sigma=0.5)))[1]
        resid = noisy.xs - plain.xs
        assert 0.4 < resid.std() < 0.6

    def test_moons_interleave(self):
        src, _ = make_domain_pair(moons_spec(samples_per_class=(500, 500)))
        c0, c1 = src.xs[src.ys == 0], src.xs[src.ys == 1]
        assert c0[:, 1].max() > 0.9 and c1[:, 1].min() < -0.4
        assert abs(c0[:, 0].mean()) < 0.1 and abs(c1[:, 0].mean() - 1.0) < 0.1

    def test_partial_set_restricts_target_only(self):
        spec = blob_spec(label_space_mode="partial_set", target_classes=(0, 2))
        src, tgt = make_domain_pair(spec)
        assert set(np.unique(src.ys)) == {0, 1, 2}
        assert set(np.unique(tgt.ys)) == {0, 2}
        assert tgt.num_classes == 3

    def test_validation(self):
        with pytest.raises(ContractViolation):
            blob_spec(generator="spiral")
        with pytest.raises(ContractViolation):
            moons_spec(num_classes=3, samples_per_class=(10, 10, 10))
        with pytest.raises(ContractViolation):
            blob_spec(samples_per_class=(10, 10))
        with pytest.raises(ContractViolation):
            blob_spec(shift=ShiftSpec(translation=(1.0, 2.0, 3.0)))
        with pytest.raises(ContractViolation):
            blob_spec(shift=ShiftSpec(noise_sigma=-0.1))
        with pytest.raises(ContractViolation):
            blob_spec(label_space_mode="partial_set", target_classes=(0, 1, 2))
        with pytest.raises(ContractViolation):
            blob_spec(label_space_mode="open_set")


class TestSupportSplit:
    def test_split_invariants(self):
        _, tgt = make_domain_pair(blob_spec(samples_per_class=(30, 20, 25)))
        split = sample_support(tgt, n_way=3, k_shot=5, seed=13)
        assert len(split.support) == 15
        assert len(split.test) == len(tgt) - 15
        np.testing.assert_array_equal(split.support.class_counts(), [5, 5, 5])
        # disjoint and exhaustive: every target row lands in exactly one side
        rows = {tuple(r) for r in tgt.xs}
        srows = {tuple(r) for r in split.support.xs}
        trows = {tuple(r) for r in split.test.xs}
        assert srows | trows == rows and not (srows & trows)

    def test_deterministic(self):
        _, tgt = make_domain_pair(blob_spec())
        a = sample_support(tgt, 3, 5, seed=13)
        b = sample_support(tgt, 3, 5, seed=13)
        np.testing.assert_array_equal(a.support.xs, b.support.xs)

    def test_seed_matters(self):
        _, tgt = make_domain_pair(blob_spec())
        a = sample_support(tgt, 3, 5, seed=13)
        b = sample_support(tgt, 3, 5, seed=14)
        assert not np.array_equal(a.support.xs, b.support.xs)

    def test_k_too_large_names_class(self):
        _, tgt = make_domain_pair(blob_spec(samples_per_class=(30, 4, 30)))
        with pytest.raises(ContractViolation, match="class 1"):
            sample_support(tgt, 3, 5, seed=13)

    def test_n_way_must_cover_present_classes(self):
        _, tgt = make_domain_pair(blob_spec())
        with pytest.raises(ContractViolation):
            sample_support(tgt, 2, 5, seed=13)

    def test_a_negative_seed_is_refused(self):
        _, tgt = make_domain_pair(blob_spec())
        with pytest.raises(ContractViolation, match="seed must be >= 0, got -1"):
            sample_support(tgt, 3, 5, seed=-1)

    def test_a_non_integral_k_shot_is_refused(self):
        # it raised a bare TypeError from inside numpy's choice
        _, tgt = make_domain_pair(blob_spec())
        with pytest.raises(ContractViolation, match=r"^k_shot must be an integer, got 2\.5$"):
            sample_support(tgt, 3, 2.5, 0)

    def test_a_support_of_every_row_is_refused(self):
        _, tgt = make_domain_pair(blob_spec(samples_per_class=(5, 5, 5)))
        with pytest.raises(ContractViolation, match="no test rows"):
            sample_support(tgt, 3, 5, seed=13)
        _, tgt = make_domain_pair(blob_spec(samples_per_class=(5, 6, 5)))
        assert len(sample_support(tgt, 3, 5, seed=13).test) == 1


class TestAugment:
    def test_deterministic_given_stream(self):
        policy = AugmentPolicy()
        x = np.array([1.0, -2.0, 0.5])
        a = augment(x, policy, "strong", rng_stream(3, "augment"))
        b = augment(x, policy, "strong", rng_stream(3, "augment"))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2, 2)])
    def test_a_batch_is_rows_of_vectors(self, shape):
        with pytest.raises(ContractViolation, match=f"^augment takes vectors, got rows of shape "
                                                    f"{re.escape(str(shape[1:]))}$"):
            augment_batch(np.zeros(shape), AugmentPolicy(), "weak", rng_stream(0, "augment"))

    def test_identity_policy_is_exact(self):
        policy = AugmentPolicy(
            weak=WeakTier(jitter_sigma=0.0, flip_axis_prob=0.0),
            strong=StrongTier(jitter_sigma=0.0, scale_range=(1.0, 1.0),
                              feature_drop_prob=0.0, num_ops=3))
        x = np.array([0.3, -1.7])
        rng = rng_stream(5, "augment")
        np.testing.assert_array_equal(augment(x, policy, "weak", rng), x)
        np.testing.assert_array_equal(augment(x, policy, "strong", rng), x)

    def test_weak_flip_negates_one_axis(self):
        policy = AugmentPolicy(weak=WeakTier(jitter_sigma=0.0, flip_axis_prob=1.0))
        x = np.array([1.0, 2.0, 3.0])
        out = augment(x, policy, "weak", rng_stream(7, "augment"))
        flipped = out != x
        assert flipped.sum() == 1
        assert out[flipped][0] == -x[flipped][0]

    def test_weak_jitter_scale(self):
        policy = AugmentPolicy(weak=WeakTier(jitter_sigma=0.2, flip_axis_prob=0.0),
                               strong=StrongTier(jitter_sigma=0.4))
        rng = rng_stream(11, "augment")
        x = np.zeros(2)
        draws = np.array([augment(x, policy, "weak", rng) for _ in range(4000)])
        np.testing.assert_allclose(draws.std(), 0.2, atol=0.01)

    def test_strong_jitter_must_dominate(self):
        with pytest.raises(ContractViolation):
            AugmentPolicy(weak=WeakTier(jitter_sigma=0.2),
                          strong=StrongTier(jitter_sigma=0.1))

    def test_unknown_tier(self):
        with pytest.raises(ContractViolation):
            augment(np.zeros(2), AugmentPolicy(), "medium", rng_stream(0, "augment"))

    @pytest.mark.parametrize("cells", [None, 3])
    @pytest.mark.parametrize("flip", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("num_ops", [0, 1, 2, 3])
    @pytest.mark.parametrize("tier", ["weak", "strong"])
    def test_batch_draws_what_rows_draw(self, tier, num_ops, flip, cells):
        policy = AugmentPolicy(WeakTier(jitter_sigma=0.1, flip_axis_prob=flip),
                               StrongTier(jitter_sigma=0.2, scale_range=(0.5, 1.5),
                                          feature_drop_prob=0.3, num_ops=num_ops))
        # 7 rows: one integers draw per row (a flip, or one op) leaves PCG64 a cached
        # 32-bit half, which the state comparison below then checks
        xs = np.random.default_rng(1).normal(size=(7, 4) if cells is None else (7, cells, 4))
        batch_rng, row_rng = rng_stream(9, "augment"), rng_stream(9, "augment")
        got, states = [], []
        for _ in range(3):
            got.append(augment_batch(xs, policy, tier, batch_rng))
            states.append(batch_rng.bit_generator.state)
        if (tier == "weak" and flip == 1.0) or (tier == "strong" and num_ops % 2):
            assert states[0]["has_uint32"] == 1
        rows = [np.stack([augment(x, policy, tier, row_rng) for x in xs]) for _ in range(3)]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in rows]
        # each cell's [n, d] slice is, byte for byte, what the row-at-a-time loop gives
        for cell in [(...,)] if cells is None else [(slice(None), s) for s in range(cells)]:
            oracle_rng = rng_stream(9, "augment")
            for batch, state in zip(got, states):
                old = np.stack([oracles.augment_row(x, policy, tier, oracle_rng)
                                for x in xs[cell]])
                assert batch[cell].tobytes() == old.tobytes()
                assert oracle_rng.bit_generator.state == state
        assert batch_rng.random() == row_rng.random()

    @pytest.mark.parametrize("cells", [None, 3])
    @pytest.mark.parametrize("tier", ["weak", "strong"])
    def test_apply_over_a_block_is_each_batch_alone(self, tier, cells):
        policy = AugmentPolicy(WeakTier(jitter_sigma=0.1, flip_axis_prob=0.5),
                               StrongTier(jitter_sigma=0.2, scale_range=(0.5, 1.5),
                                          feature_drop_prob=0.3, num_ops=3))
        # a block of 5 batches of 7 rows: [5, 7, 4], or [5, 7, S, 4] for S cells
        xs = np.random.default_rng(2).normal(size=(5, 7, 4) if cells is None
                                             else (5, 7, cells, 4))
        block_rng, batch_rng = rng_stream(9, "augment"), rng_stream(9, "augment")
        draws = [_augment_draws(7, 4, policy, tier, block_rng) for _ in xs]
        block = _augment_apply(xs, [np.array(d) for d in zip(*draws)], policy, tier)
        assert block.shape == xs.shape
        for got, rows in zip(block, xs):
            assert got.tobytes() == augment_batch(rows, policy, tier, batch_rng).tobytes()
        assert block_rng.bit_generator.state == batch_rng.bit_generator.state


class TestAugmentBits:
    """The strong tier decodes PCG64's raw words; every bit and the generator's state
    are still those of one Generator call per draw."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 70), d=st.integers(1, 12), num_ops=st.integers(0, 4),
           flip=st.sampled_from([0.0, 0.5, 1.0]), held=st.integers(0, 2),
           calls=st.lists(st.tuples(st.sampled_from(["draws", "batch"]),
                                    st.sampled_from(["weak", "strong"])), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    @example(n=7, d=4, num_ops=3, flip=0.5, held=1,
             calls=[("draws", "strong"), ("batch", "weak"), ("batch", "strong")], seed=9)
    def test_draws_and_batches_are_the_row_loops_bit_for_bit(self, n, d, num_ops, flip, held,
                                                             calls, seed):
        policy = AugmentPolicy(WeakTier(jitter_sigma=0.1, flip_axis_prob=flip),
                               StrongTier(jitter_sigma=0.2, scale_range=(0.5, 1.5),
                                          feature_drop_prob=0.3, num_ops=num_ops))
        xs = np.random.default_rng(seed).normal(size=(n, d))
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        for g in (rng, oracle):  # an odd number of integers(2) leaves a 32-bit half held
            g.integers(2, size=held)
        for how, tier in calls:
            if how == "draws":
                got = _augment_draws(n, d, policy, tier, rng)
                want = oracles.augment_draws(n, d, policy, tier, oracle)
            else:
                got = [augment_batch(xs, policy, tier, rng)]
                want = [np.stack([oracles.augment_row(x, policy, tier, oracle) for x in xs])]
            assert [(a.dtype, a.shape, a.tobytes()) for a in got] == \
                [(a.dtype, a.shape, a.tobytes()) for a in want]
            assert rng.bit_generator.state == oracle.bit_generator.state
        assert rng.integers(2) == oracle.integers(2)
        assert rng.integers(1000) == oracle.integers(1000)
        assert rng.random() == oracle.random()

    @pytest.mark.parametrize("tier", ["weak", "strong"])
    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
    def test_a_generator_that_is_not_pcg64_is_refused_before_any_draw(self, bit_generator,
                                                                       tier):
        rng = np.random.Generator(bit_generator(5))
        with pytest.raises(ContractViolation, match=bit_generator.__name__):
            _augment_draws(3, 2, AugmentPolicy(), tier, rng)
        assert rng.random() == np.random.Generator(bit_generator(5)).random()


class TestBatches:
    def test_partition_retains_short_tail(self):
        ls = LabeledSet(np.zeros((10, 2)), np.zeros(10, dtype=int), 2, "x")
        bs = batches(ls, 4, shuffle_seed=1, epoch=0)
        assert [len(b) for b in bs] == [4, 4, 2]
        np.testing.assert_array_equal(np.sort(np.concatenate(bs)), np.arange(10))

    def test_epoch_reshuffles(self):
        ls = LabeledSet(np.zeros((32, 2)), np.zeros(32, dtype=int), 2, "x")
        e0 = np.concatenate(batches(ls, 8, 1, epoch=0))
        e1 = np.concatenate(batches(ls, 8, 1, epoch=1))
        assert not np.array_equal(e0, e1)
        np.testing.assert_array_equal(np.sort(e0), np.sort(e1))

    def test_same_epoch_identical(self):
        ls = LabeledSet(np.zeros((32, 2)), np.zeros(32, dtype=int), 2, "x")
        np.testing.assert_array_equal(np.concatenate(batches(ls, 8, 1, 3)),
                                      np.concatenate(batches(ls, 8, 1, 3)))

    def test_a_bool_batch_size_is_refused(self):
        # True made one-row batches, as batch size 1
        ls = LabeledSet(np.zeros((4, 2)), np.zeros(4, dtype=int), 2, "x")
        with pytest.raises(ContractViolation, match="^batch_size must be an integer, got True$"):
            batches(ls, True, 0, 0)

    def test_oversized_batch_is_one_batch(self):
        ls = LabeledSet(np.zeros((5, 2)), np.zeros(5, dtype=int), 2, "x")
        bs = batches(ls, 100, 1, 0)
        assert len(bs) == 1 and len(bs[0]) == 5


class TestLabeledSet:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_feature_is_refused_naming_set_and_row(self, value):
        xs = np.zeros((4, 2))
        xs[2, 1] = value
        xs[3, 0] = value
        with pytest.raises(ContractViolation,
                           match="^set 'demo': row 2 has a NaN or infinite feature$"):
            LabeledSet(xs, [0, 1, 0, 1], 2, "demo")


    @pytest.mark.parametrize("xs, ys", [(np.zeros(4), [0, 1, 0, 1]),
                                        (np.zeros((4, 2)), [[0, 1, 0, 1]]),
                                        (np.zeros((4, 2)), [0, 1, 0])],
                             ids=["flat-rows", "nested-labels", "one-label-short"])
    def test_rows_and_labels_must_be_a_matrix_and_a_vector_of_one_length(self, xs, ys):
        message = f"bad labeled set shapes {np.shape(xs)} / {np.shape(ys)}"
        with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
            LabeledSet(xs, ys, 2, "demo")


class TestExport:
    def test_round_trip_exact(self, tmp_path):
        _, tgt = make_domain_pair(blob_spec(shift=ShiftSpec(noise_sigma=0.3)))
        path = tmp_path / "target.csv"
        save_labeled_set(tgt, path)
        back = load_labeled_set(path)
        np.testing.assert_array_equal(back.xs, tgt.xs)
        np.testing.assert_array_equal(back.ys, tgt.ys)
        assert back.num_classes == tgt.num_classes and back.name == tgt.name

    def test_header_format(self, tmp_path):
        ls = LabeledSet([[1.0, 2.0]], [0], 2, "demo")
        path = tmp_path / "d.csv"
        save_labeled_set(ls, path)
        assert path.read_text().splitlines()[0] == "2,2,demo"

    def test_rows_are_written_with_17_significant_digits(self, tmp_path):
        ls = LabeledSet([[0.1, -0.0, 5e-324], [1e300, -2.5, 1.0 / 3.0]], [1, 0], 2, "demo")
        path = tmp_path / "d.csv"
        save_labeled_set(ls, path)
        assert path.read_bytes() == (b"3,2,demo\n"
                                     b"0.10000000000000001,-0,4.9406564584124654e-324,1\n"
                                     b"1.0000000000000001e+300,-2.5,0.33333333333333331,0\n")

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,2,demo\n1.0,2.0\n")
        with pytest.raises(ParseError):
            load_labeled_set(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,2,demo\n1.0,2.0,7\n")
        with pytest.raises(ParseError):
            load_labeled_set(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_non_finite_feature_is_a_parse_error(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"2,2,demo\n1.0,2.0,0\n1.0,{value},1\n")
        with pytest.raises(ParseError) as exc:
            load_labeled_set(path)
        assert str(exc.value) == f"{path}: set 'demo': row 1 has a NaN or infinite feature"

    @pytest.mark.parametrize("dim", [-1, 0])
    def test_header_dim_below_one_rejected(self, tmp_path, dim):
        path = tmp_path / "bad.csv"
        path.write_text(f"{dim},2,x\n")
        with pytest.raises(ParseError, match="dim must be >= 1"):
            load_labeled_set(path)

    @pytest.mark.parametrize("header, message", [
        ("2,2", "header must be dim,num_classes,name"),
        ("2,2,demo,x", "header must be dim,num_classes,name"),
        ("two,2,demo", "bad header (invalid literal for int() with base 10: 'two')"),
    ], ids=["two-fields", "four-fields", "not-an-integer"])
    def test_malformed_header_rejected(self, tmp_path, header, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\n1.0,2.0,0\n")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_labeled_set(path)

    @pytest.mark.parametrize("row, message", [
        ("1.0,x,0", "could not convert string to float: 'x'"),
        ("1.0,2.0,1.5", "invalid literal for int() with base 10: '1.5'"),
    ], ids=["feature", "label"])
    def test_a_value_that_is_not_a_number_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"2,2,demo\n1.0,2.0,0\n{row}\n")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            load_labeled_set(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("2,2,demo\n1.0,2.0,0\n\n3.0,4.0,1\n\n")
        back = load_labeled_set(path)
        np.testing.assert_array_equal(back.xs, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(back.ys, [0, 1])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_labeled_set(path)

    # line separators (Cc holds \n, \r, \v, \f, \x1c-\x1e and \x85) and lone
    # surrogates (Cs), which UTF-8 cannot encode, mixed into any text
    @settings(max_examples=300, deadline=None)
    @given(st.text(st.one_of(st.characters(categories=["Cc", "Cs", "Zl", "Zp"]),
                             st.characters())))
    @example("a\rb")
    @example("a\x85b")
    @example("a,b")
    @example("a\ud800")
    def test_a_saved_name_loads_back_and_a_refused_one_writes_nothing(self, name):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            try:
                save_labeled_set(LabeledSet([[1.0, 2.0]], [0], 2, name), path)
            except ContractViolation:
                assert list(Path(tmp).iterdir()) == []
            else:
                assert load_labeled_set(path).name == name


class TestRngStreams:
    def test_purposes_are_independent(self):
        a = rng_stream(5, "source").normal(size=4)
        b = rng_stream(5, "target").normal(size=4)
        assert not np.array_equal(a, b)

    def test_reproducible(self):
        np.testing.assert_array_equal(rng_stream(5, "split").normal(size=4),
                                      rng_stream(5, "split").normal(size=4))

    def test_indexed_streams_differ(self):
        a = rng_stream(5, "batch", index=0).normal(size=4)
        b = rng_stream(5, "batch", index=1).normal(size=4)
        assert not np.array_equal(a, b)

    def test_unknown_purpose(self):
        with pytest.raises(ContractViolation):
            rng_stream(5, "coffee")

    def test_negative_seed_or_index_refused(self):
        ls = LabeledSet(np.zeros((4, 2)), np.zeros(4, dtype=int), 2, "x")
        with pytest.raises(ContractViolation, match="seed must be >= 0, got -1"):
            rng_stream(-1, "batch")
        with pytest.raises(ContractViolation, match="index must be >= 0, got -2"):
            rng_stream(1, "batch", index=-2)
        with pytest.raises(ContractViolation, match="seed must be >= 0, got -3"):
            batches(ls, 2, -3, 0)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_a_float_or_bool_seed_is_refused(self, seed):
        # each drew seed 1's stream
        with pytest.raises(ContractViolation, match=f"^seed must be an integer, got {seed}$"):
            rng_stream(seed, "batch")

    def test_a_string_seed_is_a_contract_violation(self):
        # a bare TypeError from SeedSequence before
        with pytest.raises(ContractViolation, match="^seed must be an integer, got 'a'$"):
            rng_stream("a", "batch")
