import numpy as np
import pytest

from actlab.errors import ContractViolation
from actlab.tensor import Tensor, _result, backward, scalar_mul, zero_grad

import oracles


class TestForwardValues:
    def test_log_shifted_at_zero(self):
        t = Tensor([0.0]).log_shifted(1e-5)
        np.testing.assert_allclose(t.data, [oracles.LOG_SHIFTED_ZERO_1E5], atol=1e-12)

    def test_softmax_pinned_row(self):
        p = Tensor([[1.0, 2.0, 3.0]]).softmax_rows()
        np.testing.assert_allclose(p.data[0], oracles.SOFTMAX_123, atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(42)
        logits = Tensor(rng.uniform(-3, 3, size=(64, 7)))
        rows = logits.softmax_rows().data.sum(axis=1)
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-3, 3, size=(16, 5))
        base = Tensor(x).softmax_rows().data
        shifted = Tensor(x + 11.25).softmax_rows().data
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_scalar_mul_by_zero(self):
        x = Tensor([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(scalar_mul(0.0, x).data, [0.0, 0.0, 0.0])

    def test_everything_is_float64(self):
        x = Tensor([1, 2, 3])
        assert x.data.dtype == np.float64
        assert (x * 2).data.dtype == np.float64
        assert x.relu().data.dtype == np.float64


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward((x * x).sum())
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_accumulation_without_zero_grad(self):
        """Two backward passes on the same graph leave exactly twice the gradient."""
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        backward(loss)
        once = x.grad.copy()
        backward(loss)
        np.testing.assert_array_equal(x.grad, 2.0 * once)

    def test_zero_grad_resets(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        backward(loss)
        zero_grad([x])
        assert x.grad is None
        backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_relu_subgradient_at_zero(self):
        x = Tensor([0.0, -1.0, 2.0], requires_grad=True)
        backward(x.relu().sum())
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_matmul_gradients(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        b = Tensor([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
        backward(a.matmul(b).sum())
        # d/dA sum(AB) = 1 B^T, d/dB = A^T 1
        np.testing.assert_array_equal(a.grad, np.ones((2, 2)) @ b.data.T)
        np.testing.assert_array_equal(b.grad, a.data.T @ np.ones((2, 2)))

    def test_reused_tensor_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        backward((x * x).sum())
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_frozen_inputs_stay_off_the_tape(self):
        frozen = Tensor([[1.0, 2.0]])
        w = Tensor([[1.0], [1.0]])
        out = frozen.matmul(w)
        assert not out.requires_grad
        assert out._backward is None

    def test_grad_populated_for_every_requires_grad_ancestor(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        mid = x * 3.0
        loss = mid.sum()
        backward(loss)
        assert mid.grad is not None and x.grad is not None and loss.grad is not None


class TestFiniteDifference:
    """Analytic gradients match central differences on inputs in [-3, 3]."""

    def _check(self, build, *shapes, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.uniform(-3, 3, size=s) for s in shapes]

        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        loss = build(*tensors)
        backward(loss)
        analytic = [t.grad for t in tensors]

        numeric = oracles.fd_grad(lambda *xs: build(*[Tensor(x) for x in xs]).item(),
                                  [a.copy() for a in arrays])
        assert oracles.max_rel_err(analytic, numeric) < 1e-4

    def test_affine_relu_chain(self):
        self._check(lambda x, w, b: x.matmul(w).add_bias(b).relu().sum(),
                    (4, 3), (3, 5), (5,), seed=0)

    def test_softmax_log_chain(self):
        # 1/24: the mean over all 6 x 4 entries
        self._check(lambda x: scalar_mul(1 / 24, (x.softmax_rows().log_shifted(1e-5)
                                                  * -0.5).sum()),
                    (6, 4), seed=1)

    def test_elementwise_and_scalar_broadcast(self):
        self._check(lambda a, s: ((a * s) * (a + 0.5)).sum(),
                    (5, 2), (1,), seed=3)

    def test_two_layer_net(self):
        def net(x, w1, b1, w2, b2):
            h = x.matmul(w1).add_bias(b1).relu()
            p = h.matmul(w2).add_bias(b2).softmax_rows()
            return (p * p).sum()
        self._check(net, (4, 2), (2, 6), (6,), (6, 3), (3,), seed=4)


class TestContracts:
    def test_add_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])

    def test_matmul_rank(self):
        with pytest.raises(ContractViolation):
            Tensor([1.0, 2.0]).matmul(Tensor([[1.0], [2.0]]))

    def test_matmul_inner_dims(self):
        with pytest.raises(ContractViolation):
            Tensor([[1.0, 2.0]]).matmul(Tensor([[1.0, 2.0]]))

    def test_log_shifted_names_offending_index(self):
        with pytest.raises(ContractViolation, match="entry 2"):
            Tensor([1.0, 2.0, -3.0]).log_shifted(1e-5)

    def test_log_shifted_rejects_negative_eps(self):
        with pytest.raises(ContractViolation):
            Tensor([1.0]).log_shifted(-1e-5)

    def test_backward_needs_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractViolation):
            backward(x * x)

    def test_softmax_needs_rank2(self):
        with pytest.raises(ContractViolation):
            Tensor([1.0, 2.0]).softmax_rows()

    def test_item_needs_a_size_one_tensor(self):
        assert Tensor([[2.5]]).item() == 2.5
        with pytest.raises(ContractViolation,
                           match=r"^item\(\) needs a size-1 tensor, got shape \(2,\)$"):
            Tensor([1.0, 2.0]).item()

    def test_add_bias_needs_a_row_and_a_matching_vector(self):
        with pytest.raises(ContractViolation,
                           match=r"^add_bias needs \[n,k\] and \[k\], got \(2, 3\) and \(2,\)$"):
            Tensor(np.ones((2, 3))).add_bias(Tensor(np.ones(2)))

    def test_an_operand_that_is_not_a_number_is_refused(self):
        with pytest.raises(ContractViolation, match="^cannot use str as a tensor operand$"):
            Tensor([1.0]) * "2"

    def test_repr_shows_shape_and_requires_grad(self):
        assert repr(Tensor(np.ones((2, 3)), requires_grad=True)) == \
            "Tensor(shape=(2, 3), requires_grad=True)"


class TestRuleContract:
    """A node's rule returns one gradient per parent, in the order `_result` got them."""

    @pytest.mark.parametrize("op, shapes", [
        (lambda a, b: a + b, [(3, 2), (3, 2)]),
        (lambda a, b: a * b, [(3, 2), (1,)]),
        (lambda a: a * 2.0, [(3, 2)]),
        (lambda a, b: a.matmul(b), [(3, 2), (2, 4)]),
        (lambda a, b: a.add_bias(b), [(3, 2), (2,)]),
        (lambda a: a.relu(), [(3, 2)]),
        (lambda a: a.log_shifted(4.0), [(3, 2)]),
        (lambda a: a.sum(), [(3, 2)]),
        (lambda a: a.softmax_rows(), [(3, 2)]),
    ], ids=["add", "mul", "mul-scalar", "matmul", "add_bias", "relu", "log_shifted", "sum",
            "softmax_rows"])
    def test_every_op_returns_one_gradient_per_parent(self, op, shapes):
        rng = np.random.default_rng(0)
        out = op(*[Tensor(rng.uniform(-3, 3, size=s), requires_grad=True) for s in shapes])
        grads = out._backward(np.ones(out.shape))
        assert len(grads) == len(out._parents)
        assert [g.shape for g in grads] == [p.shape for p in out._parents]

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_a_rule_with_the_wrong_count_raises(self, count):
        a, b = Tensor([1.0], requires_grad=True), Tensor([2.0], requires_grad=True)
        node = _result(np.float64(3.0), (a, b), lambda g: (g,) * count)
        with pytest.raises(ValueError):
            backward(node)
