import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actlab.errors import ContractViolation
from actlab.losses import (LossWeights, SmoothingParams, _branch_objective, _lsce_targets,
                           _lsce_term, batch_targets, cdd_batch, cdd_pair, cond_entropy,
                           lsce, rce, step1_objective, step2_objective)
from actlab.tensor import Tensor, _softmax, backward, scalar_mul

import oracles


def cdd_enumeration(p1, p2):
    """Independent oracle: off-diagonal sum of the K x K relevance matrix."""
    a = np.outer(p1, p2)
    return a.sum() - np.trace(a)


def random_simplex(rng, k):
    e = rng.exponential(size=k)
    return e / e.sum()


class TestLsce:
    def test_pinned_value(self):
        loss = lsce(Tensor([[2.0, 0.0, 0.0]]), np.array([0]), 0.1)
        np.testing.assert_allclose(loss.item(), oracles.LSCE_200_A01, atol=1e-12)

    def test_alpha_zero_is_plain_ce(self):
        loss = lsce(Tensor([[2.0, 0.0, 0.0]]), np.array([0]), 0.0)
        np.testing.assert_allclose(loss.item(), oracles.CE_200, atol=1e-12)

    def test_alpha_zero_matches_ce_oracle_on_random_batches(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, k = int(rng.integers(1, 9)), int(rng.integers(2, 6))
            logits = rng.uniform(-3, 3, size=(n, k))
            labels = rng.integers(0, k, size=n)
            # independent log-softmax oracle
            z = logits - logits.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            expect = -logp[np.arange(n), labels].mean()
            got = lsce(Tensor(logits), labels, 0.0).item()
            np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_uniform_logits_give_ln_k(self):
        for k in range(2, 11):
            for alpha in (0.0, 0.1, 0.5):
                loss = lsce(Tensor(np.zeros((3, k))), np.zeros(3, dtype=int), alpha)
                np.testing.assert_allclose(loss.item(), np.log(k), atol=1e-12)

    def test_constant_logit_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.uniform(-3, 3, size=(5, 4))
        labels = rng.integers(0, 4, size=5)
        a = lsce(Tensor(logits), labels, 0.1).item()
        b = lsce(Tensor(logits + 7.5), labels, 0.1).item()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_label_out_of_range_names_row(self):
        with pytest.raises(ContractViolation, match="row 1"):
            lsce(Tensor(np.zeros((2, 3))), np.array([0, 3]), 0.1)

    def test_float_labels_rejected(self):
        with pytest.raises(ContractViolation):
            lsce(Tensor(np.zeros((2, 3))), np.array([0.0, 1.0]), 0.1)


class TestCondEntropy:
    def test_pinned_value(self):
        logits = Tensor(np.log(np.array([[0.7, 0.3]])))
        np.testing.assert_allclose(cond_entropy(logits, 1e-5).item(),
                                   oracles.COND_ENTROPY_73, atol=1e-12)

    def test_one_hot_rows_dip_slightly_negative(self):
        h = cond_entropy(Tensor([[60.0, 0.0]]), 1e-5).item()
        np.testing.assert_allclose(h, oracles.COND_ENTROPY_ONEHOT, atol=1e-12)
        assert h < 0.0

    def test_uniform_rows_hit_shifted_maximum(self):
        for k in range(2, 11):
            h = cond_entropy(Tensor(np.zeros((4, k))), 1e-5).item()
            expect = -k * (1.0 / k) * np.log(1.0 / k + 1e-5)
            np.testing.assert_allclose(h, expect, atol=1e-12)

    def test_uniform_maximizes_over_random_rows(self):
        rng = np.random.default_rng(5)
        k = 5
        top = cond_entropy(Tensor(np.zeros((1, k))), 1e-5).item()
        for _ in range(200):
            h = cond_entropy(Tensor(rng.uniform(-3, 3, size=(1, k))), 1e-5).item()
            assert h <= top + 1e-12


class TestRce:
    def test_pinned_value(self):
        logits = Tensor(np.log(np.array([[0.7, 0.3]])))
        q = np.array([[1.0, 0.0]])
        np.testing.assert_allclose(rce(logits, q, 1e-5).item(),
                                   oracles.RCE_73_ONEHOT, atol=1e-12)

    def test_no_gradient_into_source_probs(self):
        logits = Tensor([[0.4, -0.2]], requires_grad=True)
        q = np.array([[0.6, 0.4]])
        backward(rce(logits, q, 1e-5))
        assert logits.grad is not None  # only path that differentiates

    def test_simplex_violation_rejected(self):
        with pytest.raises(ContractViolation):
            rce(Tensor([[0.0, 0.0]]), np.array([[0.9, 0.3]]), 1e-5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            rce(Tensor([[0.0, 0.0]]), np.array([[1.0, 0.0], [1.0, 0.0]]), 1e-5)


class TestCddPair:
    def test_pinned_value(self):
        np.testing.assert_allclose(cdd_pair([0.6, 0.4], [0.3, 0.7]), 0.54, atol=1e-12)

    def test_matching_one_hot_is_exactly_zero(self):
        assert cdd_pair([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == 0.0

    def test_orthogonal_one_hot_is_exactly_one(self):
        assert cdd_pair([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]) == 1.0

    def test_closed_form_matches_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            k = int(rng.integers(2, 11))
            p1, p2 = random_simplex(rng, k), random_simplex(rng, k)
            got = cdd_pair(p1, p2)
            np.testing.assert_allclose(got, cdd_enumeration(p1, p2), atol=1e-12)
            assert -1e-12 <= got <= 1.0 + 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        p1, p2 = random_simplex(rng, 6), random_simplex(rng, 6)
        assert cdd_pair(p1, p2) == cdd_pair(p2, p1)

    def test_identical_distribution_bound(self):
        """cdd(p, p) = 1 - sum p^2, maximized at 1 - 1/K by the uniform row."""
        rng = np.random.default_rng(29)
        for k in (2, 4, 8):
            for _ in range(50):
                p = random_simplex(rng, k)
                v = cdd_pair(p, p)
                np.testing.assert_allclose(v, 1.0 - (p * p).sum(), atol=1e-12)
                assert 0.0 <= v <= 1.0 - 1.0 / k + 1e-12

    def test_rejects_non_simplex(self):
        with pytest.raises(ContractViolation):
            cdd_pair([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ContractViolation):
            cdd_pair([1.2, -0.2], [0.5, 0.5])

    def test_rejects_vectors_of_unequal_length(self):
        message = "cdd_pair needs two equal-length vectors, got (2,) and (3,)"
        with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
            cdd_pair([0.5, 0.5], [0.2, 0.3, 0.5])


class TestCddBatch:
    def test_equals_mean_of_pairs(self):
        rng = np.random.default_rng(31)
        l1, l2 = rng.uniform(-3, 3, size=(6, 4)), rng.uniform(-3, 3, size=(6, 4))
        got = cdd_batch(Tensor(l1), Tensor(l2)).item()
        p1, p2 = oracles.softmax_np(l1), oracles.softmax_np(l2)
        expect = np.mean([cdd_pair(p1[i], p2[i]) for i in range(6)])
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_identical_logits_positive_disparity(self):
        rng = np.random.default_rng(37)
        l = rng.uniform(-3, 3, size=(4, 3))
        assert cdd_batch(Tensor(l), Tensor(l)).item() > 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            cdd_batch(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


class TestGradients:
    """Every loss differentiates exactly (checked against central differences)."""

    def _fd_check(self, value_fn, tensors_arrays, seed_msg=""):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in tensors_arrays]
        backward(value_fn(*tensors))
        analytic = [t.grad for t in tensors]
        numeric = oracles.fd_grad(
            lambda *arrs: value_fn(*[Tensor(a) for a in arrs]).item(),
            [a.copy() for a in tensors_arrays])
        assert oracles.max_rel_err(analytic, numeric) < 1e-4, seed_msg

    def test_all_losses(self):
        rng = np.random.default_rng(41)
        n, k = 5, 4
        logits1 = rng.uniform(-3, 3, size=(n, k))
        logits2 = rng.uniform(-3, 3, size=(n, k))
        labels = rng.integers(0, k, size=n)
        q1 = oracles.softmax_np(rng.uniform(-3, 3, size=(n, k)))
        q2 = oracles.softmax_np(rng.uniform(-3, 3, size=(n, k)))
        w = LossWeights(1.0, 0.3, 0.3, 1.0)
        sm = SmoothingParams(0.1, 1e-5)

        self._fd_check(lambda z: lsce(z, labels, 0.1), [logits1], "lsce")
        self._fd_check(lambda z: cond_entropy(z, 1e-5), [logits1], "entropy")
        self._fd_check(lambda z: rce(z, q1, 1e-5), [logits1], "rce")
        self._fd_check(lambda a, b: cdd_batch(a, b), [logits1, logits2], "cdd")
        targets = batch_targets(labels, q1, q2, sm)
        self._fd_check(lambda a, b: step1_objective(a, b, targets, w)[0],
                       [logits1, logits2], "step1")
        self._fd_check(lambda a, b: step2_objective(a, b, targets, w)[0],
                       [logits1, logits2], "step2")


class TestStepObjectives:
    def setup_method(self):
        rng = np.random.default_rng(43)
        self.n, self.k = 6, 3
        self.l1 = Tensor(rng.uniform(-3, 3, size=(self.n, self.k)))
        self.l2 = Tensor(rng.uniform(-3, 3, size=(self.n, self.k)))
        self.labels = rng.integers(0, self.k, size=self.n)
        self.q1 = oracles.softmax_np(rng.uniform(-3, 3, size=(self.n, self.k)))
        self.q2 = oracles.softmax_np(rng.uniform(-3, 3, size=(self.n, self.k)))
        self.sm = SmoothingParams(0.1, 1e-5)
        self.targets = batch_targets(self.labels, self.q1, self.q2, self.sm)

    def test_step1_composition(self):
        w = LossWeights(0.7, 0.2, 0.4, 1.3)
        total, comps = step1_objective(self.l1, self.l2, self.targets, w)
        expect = 0.7 * comps["lsce"] + 0.2 * comps["entropy"] + 0.4 * comps["rce"]
        np.testing.assert_allclose(total.item(), expect, atol=1e-12)

    def test_step2_subtracts_cdd_as_printed(self):
        w = LossWeights(1.0, 0.3, 0.3, 0.8)
        t1, comps = step1_objective(self.l1, self.l2, self.targets, w)
        t2, _ = step2_objective(self.l1, self.l2, self.targets, w, "as_printed")
        np.testing.assert_allclose(t2.item(), t1.item() - 0.8 * comps["cdd"], atol=1e-12)

    def test_step2_flipped_adds_cdd(self):
        w = LossWeights(1.0, 0.3, 0.3, 0.8)
        t1, comps = step1_objective(self.l1, self.l2, self.targets, w)
        t2, _ = step2_objective(self.l1, self.l2, self.targets, w, "flipped")
        np.testing.assert_allclose(t2.item(), t1.item() + 0.8 * comps["cdd"], atol=1e-12)

    def test_components_always_reported(self):
        w = LossWeights(0.0, 0.0, 0.0, 0.0)
        total, comps = step1_objective(self.l1, self.l2, self.targets, w)
        assert set(comps) == {"lsce", "entropy", "rce", "cdd", "total"}
        assert all(np.isfinite(comps[name]) and comps[name] != 0.0
                   for name in ("lsce", "entropy", "rce", "cdd"))
        assert total.item() == comps["total"] == 0.0

    def test_all_zero_weights_give_exactly_zero_gradients(self):
        w = LossWeights(0.0, 0.0, 0.0, 0.0)
        l1 = Tensor(self.l1.data.copy(), requires_grad=True)
        l2 = Tensor(self.l2.data.copy(), requires_grad=True)
        total, _ = step2_objective(l1, l2, self.targets, w)
        backward(total)
        np.testing.assert_array_equal(l1.grad, 0.0)
        np.testing.assert_array_equal(l2.grad, 0.0)

    def test_permutation_equivariance(self):
        """Relabeling classes consistently leaves every loss unchanged."""
        rng = np.random.default_rng(47)
        perm = rng.permutation(self.k)
        w = LossWeights()
        a, ca = step2_objective(self.l1, self.l2, self.targets, w)
        permuted = batch_targets(np.argsort(perm)[self.labels], self.q1[:, perm],
                                 self.q2[:, perm], self.sm)
        b, cb = step2_objective(Tensor(self.l1.data[:, perm]), Tensor(self.l2.data[:, perm]),
                                permuted, w)
        np.testing.assert_allclose(a.item(), b.item(), atol=1e-12)
        for key in ca:
            np.testing.assert_allclose(ca[key], cb[key], atol=1e-12)

    def test_bad_cdd_sign(self):
        with pytest.raises(ContractViolation):
            step2_objective(self.l1, self.l2, self.targets, LossWeights(), "upside_down")

    def test_negative_weight_rejected(self):
        with pytest.raises(ContractViolation):
            LossWeights(lambda_lsce=-0.1)

    def test_bad_smoothing_rejected(self):
        with pytest.raises(ContractViolation):
            SmoothingParams(alpha_smooth=1.0)
        with pytest.raises(ContractViolation):
            SmoothingParams(eps_log=0.0)


class TestBatchTargets:
    def setup_method(self):
        self.q = oracles.softmax_np(np.random.default_rng(61).normal(size=(4, 3)))
        self.labels = np.array([0, 2, 1, 2])
        self.sm = SmoothingParams(0.1, 1e-5)

    def test_holds_the_smoothed_labels_and_log_source(self):
        t = batch_targets(self.labels, self.q, self.q[::-1], self.sm)
        np.testing.assert_array_equal(t.smoothed.argmax(axis=1), self.labels)
        np.testing.assert_allclose(t.smoothed.sum(axis=1), 1.0, atol=1e-15)
        np.testing.assert_array_equal(t.log_q[1], np.log(self.q[::-1] + 1e-5))

    @pytest.mark.parametrize("labels, match", [([0, 1, 3, 0], "outside"),
                                               ([0, 1, 2], "labels must be")])
    def test_rejects_bad_labels(self, labels, match):
        with pytest.raises(ContractViolation, match=match):
            batch_targets(np.array(labels), self.q, self.q, self.sm)

    def test_names_the_bad_source_array(self):
        with pytest.raises(ContractViolation, match="source_probs2: row 0 sums"):
            batch_targets(self.labels, self.q, self.q * 2.0, self.sm)
        with pytest.raises(ContractViolation, match="source_probs2: shape"):
            batch_targets(self.labels, self.q, self.q[:3], self.sm)

    def test_a_block_of_batches_is_each_batch_alone(self):
        # [B, S, n, K]: a block of 4 batches of 3 cells' 5 rows
        rng = np.random.default_rng(5)
        q1, q2 = (oracles.softmax_np(rng.normal(size=(60, 3))).reshape(4, 3, 5, 3)
                  for _ in range(2))
        labels = rng.integers(0, 3, size=(4, 3, 5))
        block = batch_targets(labels, q1, q2, self.sm)
        assert block.smoothed.shape == q1.shape and block.log_q.shape == (2,) + q1.shape
        for b in range(4):
            alone = batch_targets(labels[b], q1[b], q2[b], self.sm)
            assert block.smoothed[b].tobytes() == alone.smoothed.tobytes()
            assert block.log_q[:, b].tobytes() == alone.log_q.tobytes()

    def test_a_block_keeps_the_checks(self):
        q = np.array([[[self.q] * 3] * 2])  # [1, 2, 3, 4, 3]
        labels = np.array([[[self.labels] * 3] * 2])
        bad = labels.copy()
        bad[0, 1, 2, 3] = 3  # row (1 * 3 + 2) * 4 + 3 of the block
        with pytest.raises(ContractViolation, match=r"label at row 23 is 3, outside \[0, 3\)"):
            batch_targets(bad, q, q, self.sm)
        with pytest.raises(ContractViolation, match="labels must be of shape"):
            batch_targets(labels[..., :3], q, q, self.sm)
        off = q.copy()
        off[0, 1, 0, 2] *= 2.0
        with pytest.raises(ContractViolation, match="source_probs2: row 14 sums"):
            batch_targets(labels, q, off, self.sm)
        with pytest.raises(ContractViolation, match="source_probs2: shape"):
            batch_targets(labels, q, q[:, :1], self.sm)
        with pytest.raises(ContractViolation, match="source_probs must be"):  # n = 0
            batch_targets(labels[..., :0], q[..., :0, :], q[..., :0, :], self.sm)

    def test_objective_rejects_targets_of_another_batch(self):
        t = batch_targets(self.labels, self.q, self.q, self.sm)
        logits = Tensor(np.zeros((5, 3)))
        with pytest.raises(ContractViolation, match="batch targets shape"):
            step1_objective(logits, logits, t, LossWeights())

    @pytest.mark.parametrize("objective", [step1_objective, step2_objective])
    def test_objectives_refuse_stacked_cells(self, objective):
        # S cells' [S, n, K] logits are scored only inside adaptation's step node
        t = batch_targets(np.array([self.labels] * 2), np.array([self.q] * 2),
                          np.array([self.q] * 2), self.sm)
        logits = Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(ContractViolation, match=r"needs \[n, K\] logits$"):
            objective(logits, logits, t, LossWeights())


class TestErrorPaths:
    """A softmax entry that underflows to 0 has no finite log; the checks must fire."""

    UNDERFLOW = [[0.0, 800.0]]  # softmax gives exactly [0, 1]

    def test_lsce_rejects_an_underflowed_probability(self):
        with pytest.raises(ContractViolation, match="not positive"):
            lsce(Tensor(self.UNDERFLOW), np.array([1]), 0.1)

    @pytest.mark.parametrize("objective", [step1_objective, step2_objective])
    def test_step_objectives_reject_an_underflowed_probability(self, objective):
        q = np.array([[0.5, 0.5]])
        with pytest.raises(ContractViolation, match="not positive"):
            objective(Tensor(self.UNDERFLOW), Tensor([[0.0, 0.0]]),
                      batch_targets(np.array([1]), q, q, SmoothingParams()), LossWeights())

    def test_cond_entropy_rejects_a_negative_eps(self):
        with pytest.raises(ContractViolation, match="nonnegative"):
            cond_entropy(Tensor([[0.3, -0.2]]), -1e-3)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 1)])
    def test_degenerate_logits_are_refused(self, shape):
        message = f"cond_entropy: degenerate logits shape {shape}"
        with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
            cond_entropy(Tensor(np.zeros(shape)), 1e-5)


@st.composite
def finite_logits(draw, shape):
    """Logits of `shape` of any magnitude up to 1e300: a common offset plus entries that
    are all close together, or some far apart, so that a softmax entry is sometimes 0."""
    near = st.floats(-50.0, 50.0)
    entries = draw(st.sampled_from([near, st.one_of(st.floats(-5e299, 5e299), near)]))
    values = draw(st.lists(entries, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return draw(st.floats(-5e299, 5e299)) + np.array(values).reshape(shape)


class TestRefusalsOfFiniteLogits:
    """Pretraining and adaptation name a divergence where lsce refuses a softmax entry,
    and rely on these two facts to keep no check past it."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_an_lsce_that_accepts_its_softmax_has_a_finite_value(self, data):
        n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 5))
        logits = data.draw(finite_logits((n, k)))
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
        smoothed = _lsce_targets((n, k), labels, data.draw(st.floats(0.0, 1.0, exclude_max=True)))
        try:
            s, _ = _lsce_term(_softmax(logits), smoothed)
        except ContractViolation:
            return
        v = (-1.0 / n) * s  # pretraining's loss is v + v, lsce of two equal heads
        assert np.isfinite(v) and np.isfinite(v + v)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_refused_step_objective_has_a_softmax_entry_of_zero(self, data):
        cells = data.draw(st.sampled_from([(), (1,), (3,)]))
        n, k = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 4))
        logits = data.draw(finite_logits((2, *cells, n, k)))
        rows = int(np.prod(cells)) * n
        labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=rows,
                                             max_size=rows))).reshape(*cells, n)
        q = _softmax(data.draw(finite_logits((*cells, n, k))))
        smoothing = SmoothingParams(data.draw(st.floats(0.0, 0.5)),
                                    data.draw(st.floats(1e-12, 0.5)))
        cdd_sign = data.draw(st.sampled_from([None, "as_printed", "flipped"]))
        zero = (_softmax(logits) == 0.0).any()
        try:
            _branch_objective(logits, batch_targets(labels, q, q[::-1], smoothing), LossWeights(),
                              cdd_sign)
        except ContractViolation:
            assert zero
        else:  # lsce takes ln of every entry, unshifted
            assert not zero


@st.composite
def loss_cases(draw):
    """Random logits, labels, source probs, weights and smoothing for one batch."""
    n, k = draw(st.integers(1, 64)), draw(st.integers(2, 8))
    scale = draw(st.floats(0.0, 30.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    return {
        "l1": rng.normal(size=(n, k)) * scale,
        "l2": rng.normal(size=(n, k)) * scale,
        "labels": rng.integers(0, k, size=n),
        "q1": oracles.softmax_np(rng.normal(size=(n, k)) * scale),
        "q2": oracles.softmax_np(rng.normal(size=(n, k)) * scale),
        "weights": LossWeights(*(draw(weight) for _ in range(4))),
        "smoothing": SmoothingParams(
            draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_max=True))),
            draw(st.floats(1e-8, 0.1))),
        "upstream": draw(st.one_of(st.just(1.0), st.floats(0.1, 3.0))),
    }


class TestBitwiseAgainstTape:
    """Each fused loss node equals the same loss composed from generic tape ops,
    bit for bit: its value, its components and both logits' gradients."""

    @staticmethod
    def _run(fn, arrays, upstream):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = fn(*tensors)
        node, comps = out if isinstance(out, tuple) else (out, None)
        # a node that is not the root sees an upstream gradient other than 1
        backward(node if upstream == 1.0 else scalar_mul(upstream, node))
        return node.item(), comps, [t.grad for t in tensors]

    def _same(self, fused, tape, arrays, upstream):
        value, comps, grads = self._run(fused, arrays, upstream)
        ref_value, ref_comps, ref_grads = self._run(tape, arrays, upstream)
        assert value == ref_value
        assert comps == ref_comps
        for g, ref in zip(grads, ref_grads):
            assert np.array_equal(g, ref)

    @settings(max_examples=150, deadline=None)
    @given(loss_cases())
    def test_losses_and_objectives_match_the_composed_tape(self, case):
        l1, l2, labels = case["l1"], case["l2"], case["labels"]
        q1, q2, w, sm = case["q1"], case["q2"], case["weights"], case["smoothing"]
        a, eps, up = sm.alpha_smooth, sm.eps_log, case["upstream"]
        self._same(lambda z: lsce(z, labels, a),
                   lambda z: oracles.tape_lsce(z, labels, a), [l1], up)
        self._same(lambda z: cond_entropy(z, eps),
                   lambda z: oracles.tape_cond_entropy(z, eps), [l1], up)
        self._same(lambda z: rce(z, q1, eps),
                   lambda z: oracles.tape_rce(z, q1, eps), [l1], up)
        self._same(cdd_batch, oracles.tape_cdd_batch, [l1, l2], up)
        targets = batch_targets(labels, q1, q2, sm)
        self._same(lambda x, y: step1_objective(x, y, targets, w),
                   lambda x, y: oracles.tape_step1_objective(x, y, labels, q1, q2, w, sm),
                   [l1, l2], up)
        for sign in ("as_printed", "flipped"):
            self._same(lambda x, y: step2_objective(x, y, targets, w, sign),
                       lambda x, y: oracles.tape_step2_objective(x, y, labels, q1, q2,
                                                                 w, sm, sign),
                       [l1, l2], up)

    def test_scaled_lsce_under_a_sum(self):
        """Two lsce nodes under a sum, with an upstream gradient of 0.7 rather than 1."""
        rng = np.random.default_rng(53)
        l1, l2 = rng.normal(size=(9, 3)) * 4.0, rng.normal(size=(9, 3)) * 4.0
        labels = rng.integers(0, 3, size=9)
        self._same(lambda x, y: lsce(x, labels, 0.1) + lsce(y, labels, 0.1),
                   lambda x, y: (oracles.tape_lsce(x, labels, 0.1)
                                 + oracles.tape_lsce(y, labels, 0.1)),
                   [l1, l2], 0.7)
