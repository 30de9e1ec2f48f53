import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from actlab.errors import ContractViolation
from actlab.losses import lsce
from actlab.models import build, trainable_params
from actlab.optim import (AdamConfig, AdamState, ParamVector, SamConfig,
                          SamState, SgdConfig, SgdState, adam_step,
                          lr_at, sam_step, sgd_step)
from actlab.tensor import Tensor, _result, backward, scalar_mul, zero_grad

import oracles
from test_models import SPECS


class TestSgd:
    def test_two_steps_pinned(self):
        """momentum 0.9, g = 1, lr = 0.1, w0 = 0: after two steps w = -0.29."""
        w = Tensor([0.0], requires_grad=True)
        state = SgdState()
        cfg = SgdConfig(lr=0.1, momentum=0.9, weight_decay=0.0)
        for _ in range(2):
            sgd_step([w], [np.array([1.0])], state, cfg)
        np.testing.assert_allclose(w.data, [-0.29], atol=1e-12)

    def test_weight_decay_couples_into_velocity(self):
        w = Tensor([1.0], requires_grad=True)
        sgd_step([w], [np.array([0.0])], SgdState(),
                 SgdConfig(lr=1.0, momentum=0.0, weight_decay=0.1))
        np.testing.assert_allclose(w.data, [0.9], atol=1e-15)

    def test_zero_momentum_is_plain_sgd(self):
        w = Tensor([2.0], requires_grad=True)
        sgd_step([w], [np.array([3.0])], SgdState(), SgdConfig(lr=0.1, momentum=0.0))
        np.testing.assert_allclose(w.data, [1.7], atol=1e-15)

    @pytest.mark.parametrize("kind", ["tensor", "0-d tensor", "vector"])
    def test_a_held_velocity_sees_later_steps(self, kind):
        w = {"tensor": Tensor([1.0, -2.0]), "0-d tensor": Tensor(1.5),
             "vector": ParamVector([np.array([1.0, -2.0]), np.array([[0.5]])])}[kind]
        state, cfg = SgdState(), SgdConfig(lr=0.1, momentum=0.9, weight_decay=0.01)
        g = np.full(w.data.shape, 0.3)
        sgd_step([w], [g], state, cfg)
        held = state.velocity[w]
        expected = held.copy()
        for _ in range(3):
            before = w.data.copy()
            sgd_step([w], [g], state, cfg)
            expected = 0.9 * expected + (g + 0.01 * before)
            assert state.velocity[w] is held
            assert held.tobytes() == expected.tobytes()
            assert w.data.tobytes() == np.asarray(before - 0.1 * expected).tobytes()
        if kind == "vector":  # the step is written into the buffer its views view
            assert all(np.shares_memory(view, w.data) for view in w.views)
            assert w.flat(w.views).tobytes() == w.data.tobytes()

    @pytest.mark.parametrize("lr", [0.25, 1, np.float64(0.25), np.float32(0.25), Fraction(1, 4)])
    def test_a_scalar_rate_of_any_number_type_is_every_params_rate(self, lr):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0])
        sgd_step([a, b], [np.ones(2), np.ones(1)], SgdState(), SgdConfig(lr=0.1, momentum=0.0),
                 lr_override=lr)
        rate = float(lr)
        assert (a.data.tolist(), b.data.tolist()) == ([1.0 - rate, 2.0 - rate], [3.0 - rate])


class TestAdam:
    def test_first_step_magnitude_is_about_lr(self):
        """First-step displacement is lr * g / (|g| + eps), essentially lr."""
        for g0 in (0.3, -2.0, 40.0):
            w = Tensor([1.0], requires_grad=True)
            adam_step([w], [np.array([g0])], AdamState(), AdamConfig(lr=0.01))
            delta = w.data[0] - 1.0
            np.testing.assert_allclose(abs(delta), 0.01, rtol=1e-6)
            assert np.sign(delta) == -np.sign(g0)

    def test_three_steps_match_hand_reference(self):
        cfg = AdamConfig(lr=0.05, beta1=0.9, beta2=0.999, eps_adam=1e-8)
        w = Tensor([0.5], requires_grad=True)
        state = AdamState()
        grads = [0.4, -0.3, 0.25]

        # independent reference on plain floats
        ref_w, m, v = 0.5, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref_w -= 0.05 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)

        for g in grads:
            adam_step([w], [np.array([g])], state, cfg)
        np.testing.assert_allclose(w.data, [ref_w], rtol=1e-12)

    def test_state_is_keyed_per_parameter(self):
        """Swapping the update order of two params cannot change the result."""
        a1, b1 = Tensor([1.0], requires_grad=True), Tensor([2.0], requires_grad=True)
        a2, b2 = Tensor([1.0], requires_grad=True), Tensor([2.0], requires_grad=True)
        ga, gb = np.array([0.3]), np.array([-0.7])
        s1, s2 = AdamState(), AdamState()
        for _ in range(5):
            adam_step([a1, b1], [ga, gb], s1, AdamConfig(lr=0.01))
            adam_step([b2, a2], [gb, ga], s2, AdamConfig(lr=0.01))
        np.testing.assert_array_equal(a1.data, a2.data)
        np.testing.assert_array_equal(b1.data, b2.data)

    def test_lr_override_scalar_and_per_param(self):
        a = Tensor([0.0], requires_grad=True)
        b = Tensor([0.0], requires_grad=True)
        g = np.array([1.0])
        adam_step([a, b], [g, g], AdamState(), AdamConfig(lr=1.0),
                  lr_override=[0.1, 0.4])
        np.testing.assert_allclose(abs(a.data[0]), 0.1, rtol=1e-6)
        np.testing.assert_allclose(abs(b.data[0]), 0.4, rtol=1e-6)

        c = Tensor([0.0], requires_grad=True)
        adam_step([c], [g], AdamState(), AdamConfig(lr=1.0), lr_override=0.2)
        np.testing.assert_allclose(abs(c.data[0]), 0.2, rtol=1e-6)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["plain", "stacked"])
    def test_moments_are_updated_in_place(self, lead):
        rng = np.random.default_rng(5)
        vec = ParamVector([rng.normal(size=lead + (4, 2)), rng.normal(size=lead + (5,))],
                          stacked=bool(lead))
        ref = Tensor(vec.data.copy())
        state, ref_state, cfg = AdamState(), AdamState(), AdamConfig(lr=0.01)
        for step in range(3):
            g = rng.normal(size=vec.data.shape)
            g.flags.writeable = False
            before = g.copy()
            adam_step([vec], [g], state, cfg)
            oracles.adam_step([ref], [g], ref_state, cfg, [cfg.lr])
            np.testing.assert_array_equal(g, before)
            if step == 0:
                moments = state.m[vec], state.v[vec]
            assert state.m[vec] is moments[0] and state.v[vec] is moments[1]
            for got, want in ((vec.data, ref.data), (state.m[vec], ref_state.m[ref]),
                              (state.v[vec], ref_state.v[ref])):
                assert got.tobytes() == want.tobytes()

    def test_a_scalar_parameter_steps_as_a_vector_of_one(self):
        # a 0-d product is a numpy scalar, which an in-place update would only rebind
        w0, w1, s0, s1 = Tensor(0.5), Tensor([0.5]), AdamState(), AdamState()
        for g in (0.4, -0.3, 0.25):
            adam_step([w0], [np.array(g)], s0, AdamConfig(lr=0.05))
            adam_step([w1], [np.array([g])], s1, AdamConfig(lr=0.05))
        assert w0.data.shape == () and w0.data.tobytes() == w1.data.tobytes()

    def test_missing_grad_rejected(self):
        w = Tensor([0.0], requires_grad=True)
        with pytest.raises(ContractViolation):
            adam_step([w], [None], AdamState(), AdamConfig())

    def test_grad_shape_mismatch_rejected(self):
        w = Tensor([0.0, 1.0], requires_grad=True)
        with pytest.raises(ContractViolation):
            adam_step([w], [np.zeros(3)], AdamState(), AdamConfig())

    @pytest.mark.parametrize("grad, shape", [(np.zeros(3), "(3,)"), ([0.0, 0.0, 0.0], "(3,)"),
                                             (0.5, "()"), (np.zeros((2, 1)), "(2, 1)")],
                             ids=["array", "list", "float", "column"])
    def test_a_grad_of_another_shape_is_refused_by_both_shapes(self, grad, shape):
        w = Tensor([0.0, 1.0], requires_grad=True)
        with pytest.raises(ContractViolation,
                           match=f"^param 0: grad shape {re.escape(shape)} != \\(2,\\)$"):
            adam_step([w], [grad], AdamState(), AdamConfig())
        adam_step([w], [[0.5, -0.5]], AdamState(), AdamConfig())  # a list of its shape is a grad
        assert w.data[0] < 0.0 < 1.0 < w.data[1]

    def test_one_grad_per_param(self):
        w = Tensor([0.0], requires_grad=True)
        with pytest.raises(ContractViolation, match="^1 params but 2 grads$"):
            adam_step([w], [np.zeros(1), np.zeros(1)], AdamState(), AdamConfig())
        np.testing.assert_array_equal(w.data, [0.0])

    def test_one_lr_override_per_param(self):
        w = Tensor([0.0], requires_grad=True)
        with pytest.raises(ContractViolation, match="^1 params but 2 lr overrides$"):
            adam_step([w], [np.ones(1)], AdamState(), AdamConfig(), lr_override=[0.1, 0.2])
        np.testing.assert_array_equal(w.data, [0.0])


class TestSam:
    def test_quadratic_pinned(self):
        """f(w) = w^2/2 at w=1, rho=0.1, plain-SGD base lr 0.1 lands on 0.89."""
        w = Tensor([1.0], requires_grad=True)
        sgd_state = SgdState()

        def base(params, grads):
            sgd_step(params, grads, sgd_state, SgdConfig(lr=0.1, momentum=0.0))

        loss = sam_step([w], lambda: scalar_mul(0.5, (w * w).sum()),
                        SamState(), SamConfig(rho=0.1), base_step=base)
        np.testing.assert_allclose(w.data, [0.89], atol=1e-12)
        assert loss == 0.5  # loss at the unperturbed point

    def test_ascent_uses_global_norm(self):
        """The perturbation normalizes by the norm over ALL params jointly."""
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        seen = []

        def closure():
            seen.append((a.data.copy(), b.data.copy()))
            # grads: dA = 3, dB = 4 -> global norm 5
            return scalar_mul(3.0, a.sum()) + scalar_mul(4.0, b.sum())

        sam_step([a, b], closure, SamState(), SamConfig(rho=0.5))
        (a0, b0), (a_adv, b_adv) = seen
        np.testing.assert_allclose(a_adv - a0, [0.5 * 3.0 / 5.0], atol=1e-9)
        np.testing.assert_allclose(b_adv - b0, [0.5 * 4.0 / 5.0], atol=1e-9)

    def test_restore_is_bitwise(self):
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        before = w.data.copy()
        x = Tensor(rng.normal(size=(2, 4)))

        state, captured = SamState(), []

        def base(params, grads):
            captured.append(params[0].data.copy())  # value SAM restored to

        sam_step([w], lambda: (x.matmul(w) * x.matmul(w)).sum(),
                 state, SamConfig(rho=0.3), base_step=base)
        np.testing.assert_array_equal(captured[0], before)

    def test_rho_zero_bitwise_equals_adam(self):
        """SAM(rho=0) and plain Adam walk bitwise-identical trajectories."""
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 3))
        labels = rng.integers(0, 2, size=6)
        w_init = rng.normal(size=(3, 2))
        b_init = np.zeros(2)

        def make_params():
            return (Tensor(w_init.copy(), requires_grad=True),
                    Tensor(b_init.copy(), requires_grad=True))

        def loss_of(w, b):
            return lsce(Tensor(x).matmul(w).add_bias(b), labels, 0.1)

        # plain-Adam trajectory
        wa, ba = make_params()
        adam_state = AdamState()
        cfg = AdamConfig(lr=0.01)
        for _ in range(100):
            zero_grad([wa, ba])
            backward(loss_of(wa, ba))
            adam_step([wa, ba], [wa.grad, ba.grad], adam_state, cfg)

        # SAM(rho=0) trajectory
        ws, bs = make_params()
        sam_state = SamState()
        for _ in range(100):
            sam_step([ws, bs], lambda: loss_of(ws, bs), sam_state, SamConfig(rho=0.0, base=cfg))

        np.testing.assert_array_equal(wa.data, ws.data)
        np.testing.assert_array_equal(ba.data, bs.data)

    def test_untouched_param_gets_zero_grad_not_crash(self):
        used = Tensor([1.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        sam_step([used, unused], lambda: (used * used).sum(),
                 SamState(), SamConfig(rho=0.05))
        np.testing.assert_array_equal(unused.data, [5.0])

    def test_the_first_pass_is_dropped_before_the_second(self):
        """The first closure's node, and what its rule holds, are gone when SAM
        calls the closure again: the second pass never runs beside the first."""
        w = Tensor([1.0, 2.0], requires_grad=True)
        held, alive = [], []

        def closure():  # w . w, whose rule holds an array as a layer input would be held
            alive.append([ref() is not None for ref in held])
            twice_w = 2.0 * w.data
            held.append(weakref.ref(twice_w))
            return _result(np.array(w.data @ w.data), (w,), lambda g: (g * twice_w,))

        assert sam_step([w], closure, SamState(), SamConfig(rho=0.1)) == 5.0
        assert alive == [[], [False]]

    def test_lr_override_with_base_step_refused(self):
        w = Tensor([1.0], requires_grad=True)
        calls = []

        def closure():
            calls.append(None)
            return (w * w).sum()

        with pytest.raises(ContractViolation, match="lr_override"):
            sam_step([w], closure, SamState(), SamConfig(), lr_override=0.5,
                     base_step=lambda params, grads: None)
        assert calls == []
        np.testing.assert_array_equal(w.data, [1.0])

    @pytest.mark.parametrize("loss", [None, Tensor([1.0, 2.0])], ids=["none", "two-entries"])
    def test_a_closure_that_returns_no_scalar_tensor_is_refused(self, loss):
        w = Tensor([1.0], requires_grad=True)
        with pytest.raises(ContractViolation, match="^loss closure must return a scalar tensor$"):
            sam_step([w], lambda: loss, SamState(), SamConfig())
        np.testing.assert_array_equal(w.data, [1.0])

    def test_no_parameters_is_refused(self):
        with pytest.raises(ContractViolation, match="^ParamVector needs one or more arrays$"):
            ParamVector([])

    @pytest.mark.parametrize("kind", ["empty", "array-then-tensor", "tensor-then-array"])
    def test_a_list_that_is_not_one_or_more_tensors_is_refused(self, kind):
        t = Tensor([3.0], requires_grad=True)
        data, calls = t.data, []
        params = {"empty": [], "array-then-tensor": [np.array([1.0, 2.0]), t],
                  "tensor-then-array": [t, np.array([1.0, 2.0])]}[kind]
        with pytest.raises(ContractViolation,
                           match="^sam_step needs a ParamVector or one or more Tensors$"):
            sam_step(params, lambda: calls.append(None), SamState(), SamConfig())
        assert calls == []
        assert t.data is data and t.data.tolist() == [3.0]  # neither rebound nor moved

    def test_a_vector_copies_its_arrays_and_refuses_a_loss_that_misses_its_leaf(self):
        a, b = np.array([1.0, 2.0]), np.array([[3.0]])
        vec = ParamVector([a, b])
        assert not any(np.shares_memory(x, vec.data) for x in (a, b))
        assert [v.tolist() for v in vec.views] == [[1.0, 2.0], [[3.0]]]
        # a loss that never reached the leaf is refused, not taken for a zero gradient
        # that would step nothing
        with pytest.raises(ContractViolation,
                           match="^the loss does not depend on the vector's leaf$"):
            sam_step(vec, lambda: (Tensor([1.0], requires_grad=True) * 2.0).sum(), SamState(),
                     SamConfig())
        assert vec.data.tolist() == [1.0, 2.0, 3.0]

    def test_a_second_pass_that_misses_the_leaf_is_refused_by_the_base_step(self):
        vec, passes = ParamVector([np.array([1.0, 2.0])]), []

        def closure():  # w . w, then a loss that no longer reaches the leaf
            w = vec.data.copy()
            passes.append(w)
            if len(passes) > 1:
                return (Tensor([1.0], requires_grad=True) * 2.0).sum()
            return _result(np.array(w @ w), (vec.leaf,), lambda g: (2.0 * g * w,))

        with pytest.raises(ContractViolation, match="^param 0 has no gradient$"):
            sam_step(vec, closure, SamState(), SamConfig(rho=0.1))
        assert len(passes) == 2 and vec.data.tolist() == [1.0, 2.0]  # restored, not stepped

    def test_negative_rho_rejected(self):
        with pytest.raises(ContractViolation):
            SamConfig(rho=-0.1)


class TestVectorStepsMatchPerParameterLoops:
    """A bundle's vector stepped at once, with a rate for the extractor and one for
    the heads, against the per-parameter loops in oracles on a twin bundle's Tensors."""

    SCOPES = {"1": "all_target", "2": "classifiers_only"}

    @staticmethod
    def rates(bundle, scope, lr_ext, lr_head):
        """(the rates as adapt passes them to a vector step, one rate per parameter)"""
        trained = trainable_params(bundle, scope)
        heads = [not name.startswith("extractor.")
                 for name, _ in bundle.named_params()[-len(trained):]]
        if scope == "classifiers_only":
            return lr_head, [lr_head] * len(heads)
        mask = np.concatenate([np.full(a.size, head) for a, head in zip(trained, heads)])
        return [np.where(mask, lr_head, lr_ext)], [lr_head if h else lr_ext for h in heads]

    @staticmethod
    def assert_same_bits(vector, loose):
        assert vector.data.tobytes() == np.concatenate(
            [t.data for t in loose.values()], axis=None).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(spec=SPECS, seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 4))
    def test_sgd_and_adam(self, spec, seed, steps):
        rng = np.random.default_rng(seed)
        for step, oracle, state, cfg in (
                (sgd_step, oracles.sgd_step, SgdState, SgdConfig(0.02, 0.9, 5e-4)),
                (adam_step, oracles.adam_step, AdamState, AdamConfig())):
            flat, loose = build(spec), oracles.tape_params(build(spec))
            states = state(), state()
            for _ in range(steps):
                g = rng.normal(size=flat.vector.data.size) * rng.uniform(0.1, 10.0)
                rates, lrs = self.rates(flat, "all_target", *rng.uniform(1e-3, 1e-1, 2))
                step([flat.vector], [g], states[0], cfg, lr_override=rates)
                oracle(list(loose.values()), [a.copy() for a in flat.vector.split(g)],
                       states[1], cfg, lrs)
                self.assert_same_bits(flat.vector, loose)

    @settings(max_examples=30, deadline=None)
    @given(spec=SPECS, seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from("12"), min_size=1, max_size=5))
    def test_sam_over_both_scopes(self, spec, seed, kinds):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(6, spec.input_dim)))
        y = rng.integers(0, spec.num_classes, size=6)
        cfg = SamConfig(rho=0.1)
        bundle = build(spec)  # its layout; the stepped vectors are over Tensors of its values
        flat, vector, heads = oracles.tape_vectors(bundle)
        loose = oracles.tape_params(build(spec))
        states = {kind: (SamState(), SamState()) for kind in self.SCOPES}

        def closure(params):
            def loss():
                feats = oracles.tape_forward_features(params, x)
                l1 = oracles.tape_forward_head(params, feats, 1)
                l2 = oracles.tape_forward_head(params, feats, 2)
                return lsce(l1, y, 0.1) + lsce(l2, y, 0.1)
            return loss

        for kind in kinds:
            scope = self.SCOPES[kind]
            rates, lrs = self.rates(bundle, scope, *rng.uniform(1e-3, 1e-1, 2))
            trained = vector if kind == "1" else heads
            tensors = list(flat.values())[-len(trained.views):]
            got = sam_step(trained, oracles.on_leaf(trained, tensors, closure(flat)),
                           states[kind][0], cfg, lr_override=rates)
            want = oracles.sam_step(list(loose.values())[-len(trained.views):], closure(loose),
                                    states[kind][1], cfg, lrs)
            assert got == want
            self.assert_same_bits(vector, loose)


class TestLrSchedule:
    def test_progress_zero_is_eta0_exactly(self):
        assert lr_at(0.01, 0.0) == 0.01

    def test_progress_one_pinned(self):
        np.testing.assert_allclose(lr_at(1.0, 1.0), oracles.POLY_LR_AT_ONE, atol=1e-15)

    def test_closed_form_anywhere(self):
        for p in (0.1, 0.37, 0.5, 0.93):
            np.testing.assert_allclose(lr_at(0.4, p),
                                       0.4 * np.exp(-0.75 * np.log1p(10.0 * p)),
                                       rtol=1e-12)

    def test_strictly_decreasing(self):
        grid = [lr_at(1.0, p) for p in np.linspace(0, 1, 101)]
        assert all(a > b for a, b in zip(grid, grid[1:]))

    def test_progress_out_of_range(self):
        for p in (-0.01, 1.01):
            with pytest.raises(ContractViolation):
                lr_at(1.0, p)

    def test_a_bool_eta0_is_refused(self):
        # True was taken as 1 and gave 0.261
        with pytest.raises(ContractViolation, match="^eta0 must be a number, got True$"):
            lr_at(True, 0.5)

    def test_bad_configs_rejected(self):
        for eta0 in (0.0, -1.0, float("nan")):
            with pytest.raises(ContractViolation):
                lr_at(eta0, 0.5)
        with pytest.raises(ContractViolation):
            SgdConfig(lr=0.1, momentum=1.0)
        with pytest.raises(ContractViolation):
            AdamConfig(beta2=1.0)
