import concurrent.futures
import gc
import json
import math
import re
import time
import tracemalloc
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from actlab import pipeline
from actlab.data import (AugmentPolicy, DomainSpec, LabeledSet, ShiftSpec, StrongTier,
                         SupportSplit, WeakTier,
                         make_domain_pair, sample_support)
from actlab.errors import ContractViolation, DivergenceError
from actlab.losses import LossWeights, SmoothingParams, batch_targets
from actlab.models import (MlpSpec, _branch_heads, build, bundle_from_params,
                           clone_for_adaptation, params_fingerprint, trainable_params)
from actlab.optim import AdamConfig, AdamState, SamConfig, SamState, SgdConfig, lr_at, sam_step
from actlab.pipeline import (AdaptConfig, PretrainConfig, ScheduleConfig,
                             adapt, adapt_cells, evaluate, pretrain_source, seed_sweep)
from actlab.tensor import backward, zero_grad

import oracles
from test_acceptance import BLOBS, BLOBS_MODEL, MOONS, MOONS_MODEL, PRETRAIN
from test_models import SPECS

SPEC = MlpSpec(input_dim=2, hidden_dims=(16,), feature_dim=8, num_classes=3,
               init_seed=7)

DOMAIN = DomainSpec(generator="gaussian_blobs", dim=2, num_classes=3,
                    samples_per_class=(40, 40, 40),
                    shift=ShiftSpec(rotation_deg=25.0, translation=(0.5, -0.3),
                                    noise_sigma=0.05),
                    seed=3)


def small_adapt_cfg(**kw):
    base = dict(total_iterations=4, batch_size=16,
                schedule=ScheduleConfig(eta0=1e-3), seed=11)
    base.update(kw)
    return AdaptConfig(**base)


@pytest.fixture(scope="module")
def domain_pair():
    return make_domain_pair(DOMAIN)


@pytest.fixture(scope="module")
def pretrained(domain_pair):
    source, _ = domain_pair
    cfg = PretrainConfig(epochs=30, batch_size=32, seed=5)
    return pretrain_source(source, SPEC, cfg)


@pytest.fixture(scope="module")
def split(domain_pair):
    _, target = domain_pair
    return sample_support(target, n_way=3, k_shot=5, seed=21)


class TestPretrain:
    def test_reaches_high_train_accuracy(self, pretrained):
        _, history = pretrained
        assert history[-1]["train_accuracy"] >= 0.95

    def test_history_one_record_per_epoch(self, pretrained):
        _, history = pretrained
        assert len(history) == 30
        assert [h["epoch"] for h in history] == list(range(30))
        assert all(np.isfinite(h["mean_loss"]) for h in history)

    def test_loss_decreases_overall(self, pretrained):
        _, history = pretrained
        assert history[-1]["mean_loss"] < history[0]["mean_loss"]

    def test_deterministic(self, domain_pair):
        source, _ = domain_pair
        cfg = PretrainConfig(epochs=3, seed=5)
        a, _ = pretrain_source(source, SPEC, cfg)
        b, _ = pretrain_source(source, SPEC, cfg)
        assert params_fingerprint(trainable_params(a, "all_target")) == \
            params_fingerprint(trainable_params(b, "all_target"))

    def test_zero_epochs_is_the_initialization(self, domain_pair):
        source, _ = domain_pair
        bundle, history = pretrain_source(source, SPEC, PretrainConfig(epochs=0))
        assert history == []
        assert params_fingerprint(trainable_params(bundle, "all_target")) == \
            params_fingerprint(trainable_params(build(SPEC), "all_target"))

    def test_class_count_mismatch_rejected(self, domain_pair):
        source, _ = domain_pair
        spec = MlpSpec(input_dim=2, hidden_dims=(16,), feature_dim=8, num_classes=4)
        with pytest.raises(ContractViolation):
            pretrain_source(source, spec, PretrainConfig(epochs=1))

    def test_divergence_aborts_with_context(self, domain_pair):
        source, _ = domain_pair
        cfg = PretrainConfig(epochs=2, sgd=SgdConfig(lr=1e200, momentum=0.0))
        with pytest.raises(DivergenceError) as exc:
            pretrain_source(source, SPEC, cfg)
        assert exc.value.iteration == 0
        assert str(exc.value) == "pretraining diverged at epoch 0: non-finite logits"
        assert math.isnan(exc.value.last_loss)

    @pytest.mark.parametrize("lr", [1.0, 100.0, 1e100])
    def test_a_saturated_softmax_is_divergence(self, domain_pair, lr):
        # the logits stay finite, but a softmax entry underflows to 0, which lsce refuses
        source, _ = domain_pair
        cfg = PretrainConfig(epochs=2, sgd=SgdConfig(lr=lr, momentum=0.0))
        with pytest.raises(DivergenceError, match="^pretraining diverged at epoch 0$") as exc:
            pretrain_source(source, SPEC, cfg)
        assert exc.value.iteration == 0 and math.isnan(exc.value.last_loss)

    def test_an_empty_source_set_is_refused(self):
        empty = LabeledSet(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 3, "empty")
        with pytest.raises(ContractViolation, match="^source set 'empty' has no rows$"):
            pretrain_source(empty, SPEC, PretrainConfig(epochs=1))

    @pytest.mark.parametrize("case", ["moons", "blobs", "blobs_32x32", "one_row_tail"])
    def test_matches_the_tape_loop_bit_for_bit(self, case):
        domain, spec, cfg = {
            "moons": (MOONS, MOONS_MODEL, PRETRAIN),
            "blobs": (BLOBS, BLOBS_MODEL, PRETRAIN),
            "blobs_32x32": (BLOBS, replace(BLOBS_MODEL, hidden_dims=(32, 32)), PRETRAIN),
            "one_row_tail": (MOONS, MOONS_MODEL, replace(PRETRAIN, epochs=8, batch_size=7)),
        }[case]
        source, _ = make_domain_pair(domain)
        if case == "one_row_tail":
            assert len(source) % cfg.batch_size == 1
        bundle, history = pretrain_source(source, spec, cfg)
        ref_bundle, ref_history = oracles.tape_pretrain_source(source, spec, cfg)
        assert repr(history) == repr(ref_history)  # repr tells every float bit apart
        ref = dict(ref_bundle.named_params())
        for name, a in bundle.named_params():
            assert a.tobytes() == ref[name].tobytes(), name
        for (w1, b1), (w2, b2) in zip(bundle.head1, bundle.head2):
            assert w1.tobytes() == w2.tobytes()
            assert b1.tobytes() == b2.tobytes()

    @pytest.mark.parametrize("case", ["moons", "short_tail", "zero_epochs"])
    def test_the_sweeps_pretraining_gives_pretrain_sources_parameters(self, case):
        # seed_sweep's round one drives the same loop, scoring no epoch
        cfg = {"moons": PRETRAIN, "short_tail": replace(PRETRAIN, epochs=8, batch_size=7),
               "zero_epochs": replace(PRETRAIN, epochs=0)}[case]
        source, _ = make_domain_pair(MOONS)
        if case == "short_tail":
            assert len(source) % cfg.batch_size == 1
        swept = pipeline._pretrain_bundle(source, MOONS_MODEL, cfg, 8)
        bundle, history = pretrain_source(source, replace(MOONS_MODEL, init_seed=8),
                                          replace(cfg, seed=8))
        assert len(history) == cfg.epochs
        assert swept.spec == bundle.spec  # the model seed is its init_seed
        assert list(swept.params) == [name for name, _ in bundle.named_params()]
        for name, a in bundle.named_params():
            assert swept.params[name].tobytes() == a.tobytes(), name


@st.composite
def scored_sets(draw):
    """A K-class model whose logits are small integers, so argmax ties are
    common, and a test set whose labels may leave classes out."""
    k = draw(st.integers(2, 10))
    n = draw(st.integers(1, 40))
    present = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    ys = draw(st.lists(st.sampled_from(present), min_size=n, max_size=n))
    xs = draw(st.lists(st.lists(st.integers(0, 2), min_size=k, max_size=k),
                       min_size=n, max_size=n))
    heads = [np.array(draw(st.lists(st.integers(-1, 1), min_size=k * k, max_size=k * k)),
                      dtype=np.float64).reshape(k, k) for _ in range(2)]
    spec = MlpSpec(input_dim=k, hidden_dims=(k,), feature_dim=k, num_classes=k)
    eye, zeros = np.eye(k), np.zeros(k)  # the extractor passes the inputs through
    bundle = bundle_from_params(spec, {
        "extractor.0.weight": eye, "extractor.0.bias": zeros,
        "extractor.1.weight": eye, "extractor.1.bias": zeros,
        "head1.weight": heads[0], "head1.bias": zeros,
        "head2.weight": heads[1], "head2.bias": zeros})
    return bundle, LabeledSet(np.array(xs, dtype=np.float64), ys, k, "scored")


class TestEvaluate:
    def test_a_stacked_bundle_is_refused(self, domain_pair):
        with pytest.raises(ContractViolation, match="^bundle is stacked: evaluate scores one"):
            evaluate(clone_for_adaptation(build(SPEC), 3), domain_pair[1])

    def test_zeroed_heads_predict_class_zero(self, domain_pair):
        # all-zero logits tie on every row; ties must resolve to index 0
        source, _ = domain_pair
        bundle = build(SPEC)
        bundle.head_vector.data = np.zeros_like(bundle.head_vector.data)  # both one-layer heads
        result = evaluate(bundle, source)
        assert result.accuracy == pytest.approx(1.0 / 3.0)
        assert result.per_class_accuracy == [1.0, 0.0, 0.0]
        assert result.macro_accuracy == pytest.approx(1.0 / 3.0)
        np.testing.assert_array_equal(np.array(result.confusion_matrix)[:, 0],
                                      source.class_counts())

    def test_confusion_rows_sum_to_class_counts(self, pretrained, domain_pair):
        bundle, _ = pretrained
        source, _ = domain_pair
        result = evaluate(bundle, source)
        np.testing.assert_array_equal(np.array(result.confusion_matrix).sum(axis=1),
                                      source.class_counts())
        assert np.sum(result.confusion_matrix) == result.num_test == len(source)

    def test_absent_class_gets_none_and_skips_macro(self, pretrained):
        bundle, _ = pretrained
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(20, 2))
        ys = np.array([0, 1] * 10)
        result = evaluate(bundle, LabeledSet(xs, ys, 3, "partial"))
        assert result.per_class_accuracy[2] is None
        present = [v for v in result.per_class_accuracy if v is not None]
        assert result.macro_accuracy == pytest.approx(float(np.mean(present)))

    def test_mean_of_heads_equals_head1_when_heads_identical(self, domain_pair):
        source, _ = domain_pair
        bundle = build(SPEC)  # fresh build: heads are bitwise copies
        a = evaluate(bundle, source, "c_t1")
        b = evaluate(bundle, source, "mean_of_heads")
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(a.confusion_matrix, b.confusion_matrix)

    @settings(max_examples=150, deadline=None)
    @given(scored_sets(), st.sampled_from(pipeline.EVAL_HEADS))
    def test_scores_match_the_per_class_loop(self, case, eval_head):
        bundle, test = case
        result = evaluate(bundle, test, eval_head)
        # repr tells every float bit apart, and an int from an np.int64
        assert repr(result) == repr(oracles.evaluate_by_class(bundle, test, eval_head))

    def test_bad_inputs_rejected(self, pretrained, domain_pair):
        bundle, _ = pretrained
        source, _ = domain_pair
        with pytest.raises(ContractViolation):
            evaluate(bundle, source, "softvote")
        with pytest.raises(ContractViolation):
            evaluate(bundle, LabeledSet(np.zeros((0, 2)), np.zeros(0, dtype=int),
                                        3, "empty"))
        with pytest.raises(ContractViolation):
            evaluate(bundle, LabeledSet(np.zeros((4, 2)),
                                        np.zeros(4, dtype=int), 5, "wrongk"))


class TestAdapt:
    def test_deterministic_end_to_end(self, pretrained, split):
        bundle, _ = pretrained
        cfg = small_adapt_cfg()
        policy = AugmentPolicy()
        a_bundle, a_rep = adapt(bundle, split, policy, cfg)
        b_bundle, b_rep = adapt(bundle, split, policy, cfg)
        assert params_fingerprint(trainable_params(a_bundle, "all_target")) == \
            params_fingerprint(trainable_params(b_bundle, "all_target"))
        assert a_rep.accuracy == b_rep.accuracy
        assert [r.loss_total for r in a_rep.trace] == \
            [r.loss_total for r in b_rep.trace]

    def test_source_model_is_not_touched(self, pretrained, split):
        bundle, _ = pretrained
        before = params_fingerprint(trainable_params(bundle, "all_target"))
        adapt(bundle, split, AugmentPolicy(), small_adapt_cfg())
        assert params_fingerprint(trainable_params(bundle, "all_target")) == before

    def test_trace_layout(self, pretrained, split):
        bundle, _ = pretrained
        cfg = small_adapt_cfg(total_iterations=3)
        _, report = adapt(bundle, split, AugmentPolicy(), cfg)
        assert len(report.trace) == 6
        assert [r.step_kind for r in report.trace] == ["step1", "step2"] * 3
        assert [r.iteration for r in report.trace] == [0, 0, 1, 1, 2, 2]
        lrs = [r.lr for r in report.trace[::2]]
        assert lrs == sorted(lrs, reverse=True)  # poly decay
        for r in report.trace:
            for f in ("loss_total", "loss_lsce", "loss_entropy",
                      "loss_rce", "loss_cdd"):
                assert np.isfinite(getattr(r, f))

    def test_step2_only_moves_heads_not_extractor(self, pretrained, split):
        bundle, _ = pretrained
        cfg = small_adapt_cfg(step_pattern="2", total_iterations=3)
        adapted, _ = adapt(bundle, split, AugmentPolicy(), cfg)
        ext_before = params_fingerprint(
            [t for _, t in bundle.named_params("target") if "extractor" in _])
        ext_after = params_fingerprint(
            [t for _, t in adapted.named_params("target") if "extractor" in _])
        assert ext_before == ext_after
        heads_before = params_fingerprint(trainable_params(bundle, "classifiers_only"))
        heads_after = params_fingerprint(trainable_params(adapted, "classifiers_only"))
        assert heads_before != heads_after

    def test_zero_weights_is_a_bitwise_no_op(self, pretrained, split):
        bundle, _ = pretrained
        cfg = small_adapt_cfg(weights=LossWeights(0.0, 0.0, 0.0, 0.0))
        adapted, report = adapt(bundle, split, AugmentPolicy(), cfg)
        assert params_fingerprint(trainable_params(adapted, "all_target")) == \
            params_fingerprint(trainable_params(bundle, "all_target"))
        assert all(r.loss_total == 0.0 for r in report.trace)

    def test_heads_drift_apart(self, pretrained, split):
        # they start as bitwise copies; distinct views + the CDD push split them
        bundle, _ = pretrained
        adapted, _ = adapt(bundle, split, AugmentPolicy(),
                           small_adapt_cfg(total_iterations=3))
        h1 = {n: t for n, t in adapted.named_params("target") if n.startswith("head1")}
        h2 = {n: t for n, t in adapted.named_params("target") if n.startswith("head2")}
        assert not np.array_equal(h1["head1.weight"], h2["head2.weight"])

    def test_view_modes_and_batch_reuse_run(self, pretrained, split):
        bundle, _ = pretrained
        for kw in (dict(view_mode="both_to_both"),
                   dict(fresh_batch_per_step=False),
                   dict(cdd_sign="flipped"),
                   dict(step_pattern="112"),
                   dict(eval_head="mean_of_heads"),
                   dict(sam=SamConfig(rho=0.0))):
            _, report = adapt(bundle, split, AugmentPolicy(),
                              small_adapt_cfg(total_iterations=2, **kw))
            assert 0.0 <= report.accuracy <= 1.0

    def test_batch_reuse_changes_the_trajectory(self, pretrained, split):
        bundle, _ = pretrained
        _, fresh = adapt(bundle, split, AugmentPolicy(),
                         small_adapt_cfg(fresh_batch_per_step=True))
        _, reused = adapt(bundle, split, AugmentPolicy(),
                          small_adapt_cfg(fresh_batch_per_step=False))
        assert [r.loss_total for r in fresh.trace] != \
            [r.loss_total for r in reused.trace]

    def test_report_is_json_ready(self, pretrained, split):
        # the report holds only what adaptation computed; provenance is the caller's
        bundle, _ = pretrained
        _, report = adapt(bundle, split, AugmentPolicy(), small_adapt_cfg())
        doc = json.loads(json.dumps(asdict(report)))
        assert set(doc) == {"trace", "accuracy", "per_class_accuracy", "macro_accuracy",
                            "confusion_matrix", "no_adapt_accuracy",
                            "no_adapt_per_class_accuracy", "no_adapt_macro_accuracy"}
        assert doc["no_adapt_accuracy"] is not None
        assert [set(r) for r in doc["trace"]] == \
            [{f.name for f in fields(r)} for r in report.trace]
        assert doc["trace"] == [r.to_dict() for r in report.trace]

    def test_a_records_dict_is_asdict_in_field_order(self, pretrained, split):
        _, report = adapt(pretrained[0], split, AugmentPolicy(),
                          small_adapt_cfg(total_iterations=1))
        for record in report.trace:
            assert list(record.to_dict().items()) == list(asdict(record).items())
            assert not hasattr(record, "__dict__")  # slots: no dict per record

    @pytest.mark.parametrize("cells", [1, 2])
    def test_no_optimizer_state_is_alive_at_the_final_evaluation(self, pretrained, split,
                                                                 monkeypatch, cells):
        live = []  # AdamStates alive at each evaluate call: the baselines', then the finals'

        def counting_evaluate(*args, **kwargs):
            gc.collect()
            live.append(sum(isinstance(o, AdamState) for o in gc.get_objects()))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(pipeline, "evaluate", counting_evaluate)
        adapt_cells(pretrained[0], [split] * cells, AugmentPolicy(),
                    small_adapt_cfg(total_iterations=2))
        assert live == [live[0]] * (2 * cells)

    def test_a_wide_adaptation_holds_each_array_only_while_a_later_step_reads_it(self):
        # the wide benchmark model, whose parameter vector is 26,960 floats (216 KB), on
        # an 8-row support, so parameter-sized arrays make the peak, at step 1's perturbed
        # backward: 2,058,156 bytes as measured (Python 3.11, numpy 2.4). One more such
        # array alive through that pass exceeds the bound, as sam_step's unperturbed
        # gradient did when it was kept to the end of the step
        rng = np.random.default_rng(0)

        def labeled(per_class, name):
            return LabeledSet(rng.normal(size=(8 * per_class, 8)),
                              np.repeat(np.arange(8), per_class), 8, name)

        split = SupportSplit(labeled(1, "support"), labeled(4, "test"), 8, 1, 0)
        source = build(MlpSpec(8, (128, 128), 64, 8, init_seed=7))
        cfg = small_adapt_cfg(total_iterations=2, batch_size=8)
        adapt(source, split, AugmentPolicy(), cfg)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            adapt(source, split, AugmentPolicy(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.10 * 2_058_156

    def test_shape_and_class_mismatches_rejected(self, pretrained, split):
        bundle, _ = pretrained
        bad_support = LabeledSet(split.support.xs, split.support.ys, 5, "bad")
        from actlab.data import SupportSplit
        bad_split = SupportSplit(bad_support, split.test, 3, 5, 21)
        with pytest.raises(ContractViolation):
            adapt(bundle, bad_split, AugmentPolicy(), small_adapt_cfg())

    def test_a_support_of_another_dimension_is_refused(self, pretrained, split):
        support = LabeledSet(np.zeros((len(split.support), 3)), split.support.ys, 3, "3-d")
        with pytest.raises(ContractViolation, match="^support dim 3 != model input dim 2$"):
            adapt(pretrained[0], SupportSplit(support, split.test, 3, 5, 21), AugmentPolicy(),
                  small_adapt_cfg())

    @pytest.mark.parametrize("cells", [1, 2])
    def test_an_empty_test_set_is_refused_before_any_step(self, pretrained, split,
                                                          monkeypatch, cells):
        bundle, _ = pretrained
        empty = LabeledSet(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 3, "empty")
        splits = [split] * (cells - 1) + [SupportSplit(split.support, empty, 3, 5, 21)]
        steps = []
        monkeypatch.setattr(pipeline, "sam_step", lambda *args, **kwargs: steps.append(args))
        with pytest.raises(ContractViolation, match="empty test set"):
            adapt_cells(bundle, splits, AugmentPolicy(), small_adapt_cfg())
        assert steps == []

    @pytest.mark.parametrize("schedule_extractor", [True, False])
    @pytest.mark.parametrize("schedule_heads", [True, False])
    def test_lr_switches_set_each_groups_rate(self, pretrained, split, monkeypatch,
                                              schedule_extractor, schedule_heads):
        schedule = ScheduleConfig(eta0=2e-3, head_multiplier=2.5,
                                  schedule_extractor=schedule_extractor,
                                  schedule_heads=schedule_heads)
        calls, sam_step = [], pipeline.sam_step

        def recording(params, closure, state, cfg, lr_override=None):
            # the step's rates (an array over its vector, or one rate) cut per parameter
            rates = lr_override[0] if isinstance(lr_override, list) else lr_override
            rates = params.split(np.broadcast_to(rates, params.data.shape))
            calls.append([(a, set(r.ravel().tolist())) for a, r in zip(params.views, rates)])
            return sam_step(params, closure, state, cfg, lr_override=lr_override)

        monkeypatch.setattr(pipeline, "sam_step", recording)
        adapted, report = adapt(pretrained[0], split, AugmentPolicy(),
                                small_adapt_cfg(total_iterations=3, schedule=schedule))
        names = {id(a): name for name, a in adapted.named_params()}
        assert len(calls) == 6
        for i, rates in enumerate(calls):
            eta = lr_at(2e-3, (i // 2) / 3)
            want_ext = eta if schedule_extractor else 2e-3
            want_head = (eta if schedule_heads else 2e-3) * 2.5
            got = [(names[id(t)].startswith("head"), r) for t, r in rates]
            assert len(got) == (len(names) if i % 2 == 0 else 4)  # step 1, step 2
            assert got == [(head, {want_head if head else want_ext}) for head, _ in got]
        # the trace logs the extractor rate step 1 applied, on both steps' records
        applied = [min(next(r for t, r in rates if not names[id(t)].startswith("head")))
                   for rates in calls[::2]]
        assert [r.lr for r in report.trace[::2]] == applied
        assert [r.lr for r in report.trace[1::2]] == applied

    def test_divergence_aborts_with_last_good_params(self, pretrained, split):
        self.assert_aborts_with_the_source(
            pretrained[0], split, small_adapt_cfg(sam=SamConfig(rho=1e200)), step=1)

    # rho 1e200 or 1e300 only saturates a softmax, and the logits stay finite
    def test_step2_divergence_aborts_with_last_good_params(self, pretrained, split):
        cfg = small_adapt_cfg(step_pattern="2", sam=SamConfig(rho=1e308))
        self.assert_aborts_with_the_source(pretrained[0], split, cfg, step=2)

    # 15-row batches make blocks of 17 batches, so iteration 20 (batches 40 and 41)
    # runs in the third block, with later steps' batches already prepared
    @pytest.mark.parametrize("iteration, iterations", [(2, 4), (20, 24)])
    def test_late_divergence_keeps_the_last_completed_step(self, pretrained, split,
                                                           monkeypatch, iteration, iterations):
        # step 1's loss turns NaN from `iteration` on, so its perturbed logits are NaN
        objective, sam_step = pipeline._branch_objective, pipeline.sam_step
        evals, views, snapshots = [], [], []

        def poisoned(logits, targets, weights, cdd_sign):
            value, comps, grad = objective(logits, targets, weights, cdd_sign)
            if cdd_sign is not None:  # step 2's objective is left as it is
                return value, comps, grad
            evals.append(None)
            if len(evals) <= 2 * iteration:  # SAM evaluates it twice per step
                return value, comps, grad
            return value * float("nan"), comps, lambda g: grad(g * float("nan"))

        def recording(params, *args, **kwargs):
            views[:] = views or params.views  # step 1 comes first and trains them all
            loss = sam_step(params, *args, **kwargs)
            snapshots.append([a.copy() for a in views])
            return loss

        monkeypatch.setattr(pipeline, "_branch_objective", poisoned)
        monkeypatch.setattr(pipeline, "sam_step", recording)
        with pytest.raises(DivergenceError,
                           match=f"iteration {iteration} .step 1.: non-finite") as exc:
            adapt(pretrained[0], split, AugmentPolicy(),
                  small_adapt_cfg(total_iterations=iterations))
        err = exc.value
        assert err.iteration == iteration and len(snapshots) == 2 * iteration
        assert math.isnan(err.last_loss)
        source = dict(pretrained[0].named_params())
        assert list(err.last_good_params) == list(source)
        for (name, value), after in zip(err.last_good_params.items(), snapshots[-1]):
            assert value.tobytes() == after.tobytes(), name
        assert any(after.tobytes() != source[name].tobytes()
                   for name, after in zip(source, snapshots[-1]))

    def test_a_step_total_that_overflows_is_divergence(self, pretrained, split):
        # finite weights and finite terms, whose weighted sum overflows float64
        cfg = small_adapt_cfg(weights=LossWeights(lambda_e=1.7e308, lambda_rce=1.7e308))
        with pytest.raises(DivergenceError, match=r"^adaptation diverged at iteration 0 "
                                                  r"\(step 1\)$") as exc:
            adapt(pretrained[0], split, AugmentPolicy(), cfg)
        assert exc.value.iteration == 0 and exc.value.last_loss == math.inf
        source = dict(pretrained[0].named_params())
        for name, value in exc.value.last_good_params.items():
            assert value.tobytes() == source[name].tobytes(), name

    def test_a_source_model_that_changes_during_adaptation_is_an_error(self, pretrained, split,
                                                                       monkeypatch):
        # a clone that is the source itself: each step then moves the source model
        source = clone_for_adaptation(pretrained[0])
        monkeypatch.setattr(pipeline, "clone_for_adaptation", lambda bundle, cells=None: bundle)
        with pytest.raises(RuntimeError, match="^source model changed during adaptation$"):
            adapt(source, split, AugmentPolicy(), small_adapt_cfg())

    def test_a_saturated_softmax_is_divergence(self, pretrained, split):
        # eta0 1.0 moves iteration 0 so far that iteration 1's logits are finite
        # but a softmax entry underflows to 0, which lsce refuses
        cfg = small_adapt_cfg(step_pattern="1", schedule=ScheduleConfig(eta0=1.0))
        with pytest.raises(DivergenceError, match=r"^adaptation diverged at iteration 1 "
                                                  r"\(step 1\)$") as exc:
            adapt(pretrained[0], split, AugmentPolicy(), cfg)
        err = exc.value
        assert err.iteration == 1 and math.isnan(err.last_loss)
        # the parameters after iteration 0 are those of a one-iteration run
        one, _ = adapt(pretrained[0], split, AugmentPolicy(), replace(cfg, total_iterations=1))
        assert list(err.last_good_params) == [name for name, _ in one.named_params()]
        for name, a in one.named_params():
            assert err.last_good_params[name].tobytes() == a.tobytes(), name

    @staticmethod
    def assert_aborts_with_the_source(bundle, split, cfg, step):
        message = f"adaptation diverged at iteration 0 (step {step}): non-finite logits"
        with pytest.raises(DivergenceError, match=re.escape(message)) as exc:
            adapt(bundle, split, AugmentPolicy(), cfg)
        err = exc.value
        assert err.iteration == 0
        assert err.last_good_params is not None
        assert all(np.isfinite(v).all() for v in err.last_good_params.values())
        # nothing was applied yet, so the snapshot is the source model bitwise;
        # it is a copy, so this breaks if a step's write into the vector reaches it
        source = dict(bundle.named_params())
        assert list(err.last_good_params) == list(source)
        for name, value in err.last_good_params.items():
            assert value.tobytes() == source[name].tobytes(), name


def fingerprint(bundle):
    return params_fingerprint(trainable_params(bundle, "all_target"))


class InlinePool:
    """A stand-in for the sweep's process pool: no process starts, tasks run in this one."""

    @staticmethod
    def recording(sizes):  # the pool class, appending each pool's max_workers to `sizes`
        return lambda max_workers: sizes.append(max_workers) or InlinePool()

    def map(self, fn, *iterables):
        return map(fn, *iterables)

    def shutdown(self, cancel_futures):
        pass


@st.composite
def lockstep_cases(draw):
    """A model, 1-3 splits of one support size (test sets of any size), a policy
    and an adaptation config reaching every branch of the loop."""
    spec = draw(st.one_of(st.just(MlpSpec(2, (32, 32), 16, 4, init_seed=7)), SPECS))
    k, size = spec.num_classes, draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def labeled(n, name):
        return LabeledSet(rng.normal(size=(n, spec.input_dim)) * 2.0,
                          rng.integers(0, k, size=n), k, name)

    splits = [SupportSplit(labeled(size, "support"), labeled(draw(st.integers(1, 9)), "test"),
                           k, 1, seed) for seed in range(draw(st.integers(1, 3)))]
    policy = AugmentPolicy(WeakTier(0.05, draw(st.sampled_from([0.0, 0.5]))),
                           StrongTier(0.15, (0.8, 1.2), draw(st.sampled_from([0.0, 0.3])),
                                      draw(st.integers(0, 3))))
    cfg = AdaptConfig(
        total_iterations=draw(st.integers(1, 3)), batch_size=draw(st.integers(1, size + 1)),
        sam=SamConfig(rho=draw(st.sampled_from([0.0, 0.05]))),
        schedule=ScheduleConfig(eta0=draw(st.sampled_from([1e-3, 1e-2]))),
        cdd_sign=draw(st.sampled_from(["as_printed", "flipped"])),
        step_pattern=draw(st.sampled_from(["12", "1", "2", "1221"])),
        fresh_batch_per_step=draw(st.booleans()),
        view_mode=draw(st.sampled_from(["asymmetric", "both_to_both"])),
        eval_head=draw(st.sampled_from(["c_t1", "mean_of_heads"])),
        seed=draw(st.integers(0, 2**16)))
    return build(spec), splits, policy, cfg


def one_row_cells():
    """Two one-row supports on the [32, 32] blobs model: one-row matmuls are where
    a stacked vector laid out column-major gave other bits than a cell alone."""
    def split(xs, ys, seed):
        return SupportSplit(LabeledSet(np.array([xs]), np.array([ys]), 4, "support"),
                            LabeledSet(np.array([[0.2, -1.1]]), np.array([0]), 4, "test"),
                            4, 1, seed)

    return (build(MlpSpec(2, (32, 32), 16, 4, init_seed=7)),
            [split([0.25, -0.26], 1, 0), split([0.72, 2.61], 3, 1)],
            AugmentPolicy(),
            small_adapt_cfg(total_iterations=1, batch_size=1, step_pattern="2"))


def one_input_cells():
    """Two cells of a model with one input and one feature. Step 1's weight gradient is
    then a dot product over the batch rows, which numpy sums in another order when the
    rows are strided, as a block's cells interleaved them before its views were copied
    into C order."""
    rng = np.random.default_rng(0)

    def split(seed):
        return SupportSplit(LabeledSet(rng.normal(size=(8, 1)), rng.integers(0, 2, size=8), 2,
                                       "support"),
                            LabeledSet(rng.normal(size=(1, 1)), np.array([1]), 2, "test"),
                            2, 1, seed)

    return (build(MlpSpec(1, (), 1, 2, init_seed=1)), [split(0), split(1)], AugmentPolicy(),
            small_adapt_cfg(total_iterations=1, batch_size=8, step_pattern="1"))


class TestLockstep:
    @settings(max_examples=60, deadline=None)
    @given(lockstep_cases())
    @example(one_row_cells())
    @example(one_input_cells())
    def test_cells_in_lockstep_are_their_solo_runs_bit_for_bit(self, case):
        model, splits, policy, cfg = case
        runs = adapt_cells(model, splits, policy, cfg)
        assert len(runs) == len(splits)
        for split, (bundle, report) in zip(splits, runs):
            alone, alone_report = adapt(model, split, policy, cfg)
            assert fingerprint(bundle) == fingerprint(alone)
            # repr tells every float bit apart (0.0 from -0.0 too): each StepRecord and field
            assert repr(asdict(report)) == repr(asdict(alone_report))

    def test_splits_must_share_one_support_size(self, pretrained, domain_pair):
        _, target = domain_pair
        splits = [sample_support(target, 3, 5, seed=1), sample_support(target, 3, 4, seed=2)]
        with pytest.raises(ContractViolation, match=re.escape("one support size, got sizes "
                                                              "[12, 15]")):
            adapt_cells(pretrained[0], splits, AugmentPolicy(), small_adapt_cfg())
        with pytest.raises(ContractViolation, match=re.escape("got sizes []")):
            adapt_cells(pretrained[0], [], AugmentPolicy(), small_adapt_cfg())

    def test_divergence_names_the_cell_and_keeps_its_parameters(self, pretrained, split,
                                                                 domain_pair):
        bad = sample_support(domain_pair[1], 3, 5, seed=2)
        bad.support.xs = np.full_like(bad.support.xs, np.nan)
        message = "adaptation diverged at iteration 0 (step 1) in cell 1: non-finite logits"
        with pytest.raises(DivergenceError, match=re.escape(message)) as exc:
            adapt_cells(pretrained[0], [split, bad, split], AugmentPolicy(), small_adapt_cfg())
        source = dict(pretrained[0].named_params())
        assert list(exc.value.last_good_params) == list(source)
        for name, value in exc.value.last_good_params.items():
            assert value.tobytes() == source[name].tobytes(), name

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_logits_come_before_a_saturated_softmax(self, pretrained, domain_pair,
                                                               value):
        # a NaN input reaches the logits only without a hidden layer: the ReLU maps it to 0
        model = pretrained[0] if value == "inf" else build(MlpSpec(2, (), 8, 3, init_seed=7))
        saturated, non_finite = (sample_support(domain_pair[1], 3, 5, seed=s) for s in (2, 3))
        saturated.support.xs = saturated.support.xs * 1e4
        non_finite.support.xs = np.full_like(non_finite.support.xs, float(value))
        cfg = small_adapt_cfg()
        # each cell fails at the first closure call, so the rule picks the message
        with pytest.raises(DivergenceError, match=r"^adaptation diverged at iteration 0 "
                                                  r"\(step 1\)$"):
            adapt(model, saturated, AugmentPolicy(), cfg)
        message = "adaptation diverged at iteration 0 (step 1) in cell 1: non-finite logits"
        with pytest.raises(DivergenceError, match=f"^{re.escape(message)}$"):
            adapt_cells(model, [saturated, non_finite], AugmentPolicy(), cfg)

    def test_a_saturated_softmax_names_the_cell(self, pretrained, split, domain_pair):
        # scaled inputs give cell 2 finite logits whose softmax underflows at once
        bad = sample_support(domain_pair[1], 3, 5, seed=2)
        bad.support.xs = bad.support.xs * 1e4
        message = "adaptation diverged at iteration 0 (step 1) in cell 2"
        with pytest.raises(DivergenceError, match=re.escape(message) + "$") as exc:
            adapt_cells(pretrained[0], [split, split, bad], AugmentPolicy(), small_adapt_cfg())
        source = dict(pretrained[0].named_params())
        assert list(exc.value.last_good_params) == list(source)
        for name, value in exc.value.last_good_params.items():
            assert value.tobytes() == source[name].tobytes(), name


@st.composite
def preparation_cases(draw):
    """A source model with two distinct heads, S in {1, 3} cells' support rows, a batch
    size that may leave a short tail, a policy, a config of either view mode, fresh or
    reused batches and step pattern 12, 112 or 2, and a row budget that gives blocks
    of one batch or of many."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spec = draw(SPECS)
    # the drawn model, every parameter moved a little, so that head1 != head2
    source = bundle_from_params(spec, {name: a + 0.1 * rng.normal(size=a.shape)
                                       for name, a in build(spec).named_params()})
    size, cells = draw(st.integers(1, 9)), draw(st.sampled_from([1, 3]))
    lead = (size, cells) if cells > 1 else (size,)
    xs = rng.normal(size=lead + (spec.input_dim,)) * 2.0
    ys = rng.integers(0, spec.num_classes, size=lead)
    policy = AugmentPolicy(WeakTier(0.05, draw(st.sampled_from([0.0, 0.5]))),
                           StrongTier(0.15, (0.8, 1.2), draw(st.sampled_from([0.0, 0.3])),
                                      draw(st.integers(0, 3))))
    cfg = AdaptConfig(
        total_iterations=draw(st.integers(1, 8)), batch_size=draw(st.integers(1, size)),
        smoothing=SmoothingParams(draw(st.sampled_from([0.0, 0.1])), 1e-5),
        step_pattern=draw(st.sampled_from(["12", "112", "2"])),
        fresh_batch_per_step=draw(st.booleans()),
        view_mode=draw(st.sampled_from(["asymmetric", "both_to_both"])),
        seed=draw(st.integers(0, 2**16)))
    return source, xs, ys, policy, cfg, draw(st.sampled_from([1, 24, 100, 512]))


def prepare(producer, source, xs, ys, policy, cfg):
    """`producer`'s steps on the support rows, with the batch stream and
    augmentation stream it drew from."""
    support = LabeledSet(xs if xs.ndim == 2 else xs[:, 0], ys if ys.ndim == 1 else ys[:, 0],
                         source.spec.num_classes, "support")
    stream = pipeline._batch_stream(support, cfg.batch_size, cfg.seed)
    aug_rng = pipeline.rng_stream(cfg.seed, "augment")
    return list(producer(source, xs, ys, stream, policy, cfg, aug_rng)), stream, aug_rng


class TestPreparedBatches:
    @settings(max_examples=80, deadline=None)
    @given(preparation_cases())
    def test_blocks_give_each_step_its_batch_prepared_alone(self, case):
        *inputs, block_rows = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "BLOCK_ROWS", block_rows)
            steps, stream, aug_rng = prepare(pipeline._prepared_batches, *inputs)
        ref_steps, ref_stream, ref_aug_rng = prepare(oracles.prepared_steps, *inputs)
        assert len(steps) == len(ref_steps)
        for (views, targets), (ref_views, ref_targets) in zip(steps, ref_steps):
            for got, ref in ((views, ref_views), (targets.smoothed, ref_targets.smoothed),
                             (targets.log_q, ref_targets.log_q)):
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
            assert targets.smoothing == ref_targets.smoothing
        assert aug_rng.bit_generator.state == ref_aug_rng.bit_generator.state
        # and no batch was taken from the stream beyond those the steps used
        assert next(stream).tobytes() == next(ref_stream).tobytes()

    @pytest.mark.parametrize("size, batch_size, cells, view_mode, pattern, fresh, "
                             "iterations, blocks", [
        (10, 32, 1, "asymmetric", "12", True, 30, [25, 25, 10]),  # the moons reference
        (10, 4, 1, "asymmetric", "12", True, 3, [2, 1, 2, 1]),  # batches 4, 4, 2 per epoch
        (10, 10, 3, "both_to_both", "12", True, 5, [4, 4, 2]),  # 120 view rows a batch
        (10, 10, 1, "asymmetric", "112", False, 7, [7]),  # one batch per iteration
        (64, 64, 1, "asymmetric", "12", True, 5, [4, 4, 2]),  # 128 view rows, as in wide_cli
        (300, 300, 1, "asymmetric", "2", True, 2, [1, 1]),  # 600 rows: over the budget
    ])
    def test_block_rule(self, monkeypatch, size, batch_size, cells, view_mode, pattern,
                        fresh, iterations, blocks):
        recorded, targets = [], pipeline.batch_targets
        monkeypatch.setattr(pipeline, "batch_targets",
                            lambda labels, *args: recorded.append(len(labels))
                            or targets(labels, *args))
        rng = np.random.default_rng(0)
        lead = (size, cells) if cells > 1 else (size,)
        cfg = small_adapt_cfg(total_iterations=iterations, batch_size=batch_size,
                              view_mode=view_mode, step_pattern=pattern,
                              fresh_batch_per_step=fresh)
        steps, *_ = prepare(pipeline._prepared_batches, build(SPEC),
                            rng.normal(size=lead + (2,)), rng.integers(0, 3, size=lead),
                            AugmentPolicy(), cfg)
        assert recorded == blocks and len(steps) == sum(blocks)


@st.composite
def step_cases(draw, cells=st.sampled_from([1, 3])):
    """A source model with 0-2 hidden layers and two distinct heads, S in {1, 3} cells'
    views of either view mode, their batch targets, the weights and the SAM config."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    spec = MlpSpec(draw(st.integers(1, 4)), tuple(draw(st.lists(st.integers(1, 12),
                                                                 max_size=2))),
                   draw(st.integers(1, 8)), draw(st.integers(2, 4)), init_seed=seed)
    # the drawn model, every parameter moved a little, so that head1 != head2
    source = bundle_from_params(spec, {name: a + 0.1 * rng.normal(size=a.shape)
                                       for name, a in build(spec).named_params()})
    cells = draw(cells)
    lead, n = ((cells,) if cells > 1 else ()), draw(st.integers(1, 5))
    weak, strong = (rng.normal(size=lead + (n, spec.input_dim)) * 2.0 for _ in range(2))
    labels = rng.integers(0, spec.num_classes, size=lead + (n,))
    if draw(st.sampled_from(["asymmetric", "both_to_both"])) == "asymmetric":
        view1, view2 = weak, strong
    else:  # both views to both heads
        view1 = view2 = np.concatenate([weak, strong], axis=-2)
        labels = np.concatenate([labels, labels], axis=-1)
    q1, q2 = (oracles.softmax_np(rng.normal(size=(labels.size, spec.num_classes)))
              .reshape(labels.shape + (-1,)) for _ in range(2))
    weights = LossWeights(*(draw(st.sampled_from([0.0, 0.3, 1.0])) for _ in range(4)))
    return (source, cells, view1, view2, labels, q1, q2, weights,
            SmoothingParams(draw(st.sampled_from([0.0, 0.1])), 1e-5),
            draw(st.sampled_from(["as_printed", "flipped"])),
            SamConfig(rho=draw(st.sampled_from([0.0, 0.05, 2.0]))))


class TestStepNode:
    @settings(max_examples=80, deadline=None)
    @given(step_cases())
    def test_one_sam_step_of_each_kind_is_the_composed_tape_bit_for_bit(self, case):
        source, cells, view1, view2, labels, q1, q2, weights, smoothing, cdd_sign, sam = case
        stacked = clone_for_adaptation(source, cells if cells > 1 else None)
        alone = [clone_for_adaptation(source) for _ in range(cells)]
        views = np.array((view1, view2))
        targets = batch_targets(labels, q1, q2, smoothing)
        rate, head_rate = source.rate_vector()
        rate.fill(0.005)
        head_rate.fill(0.02)
        rates = {"1": [rate], "2": 0.02}
        cell = (lambda a, c: a[c]) if cells > 1 else (lambda a, c: a)  # cell c's slice
        for step_kind in "12":
            evals = []
            closure = pipeline._step_closure(stacked, step_kind, views, targets, weights,
                                             cdd_sign, lambda *why: AssertionError(why), evals)
            vector = stacked.vector if step_kind == "1" else stacked.head_vector
            loss = sam_step(vector, closure, SamState(), sam, lr_override=rates[step_kind])
            tape = [oracles.tape_adapt_step(b, step_kind, cell(view1, c), cell(view2, c),
                                            cell(labels, c), cell(q1, c), cell(q2, c),
                                            weights, smoothing, cdd_sign, sam,
                                            rates[step_kind])
                    for c, b in enumerate(alone)]
            if cells > 1:  # the node is worth the sum of the cells' totals
                assert loss == np.array([t[1]["total"] for t in tape]).sum()
                expected = {name: [t[1][name] for t in tape] for name in tape[0][1]}
            else:
                assert loss == tape[0][0]
                expected = tape[0][1]
            # repr tells every float bit apart (0.0 from -0.0 too)
            assert repr(sorted(evals[0].items())) == repr(sorted(expected.items()))
            for c, b in enumerate(alone):
                assert cell(stacked.vector.data, c).tobytes() == b.vector.data.tobytes()

    @pytest.mark.parametrize("cells", [1, 3], ids=["plain", "stacked"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_the_node_is_over_the_leaf_with_the_tapes_gradient(self, cells, data):
        # its one parent is the trained vector's leaf, whose gradient is, cell by cell,
        # the composed tape's per-Tensor gradients concatenated in layout order
        source, cells, view1, view2, labels, q1, q2, weights, smoothing, cdd_sign, _ = \
            data.draw(step_cases(st.just(cells)))
        stacked = clone_for_adaptation(source, cells if cells > 1 else None)
        targets = batch_targets(labels, q1, q2, smoothing)
        cell = (lambda a, c: a[c]) if cells > 1 else (lambda a, c: a)  # cell c's slice
        for step_kind, scope in (("1", "all_target"), ("2", "classifiers_only")):
            vector = stacked.vector if step_kind == "1" else stacked.head_vector
            node = pipeline._step_closure(stacked, step_kind, np.array((view1, view2)), targets,
                                          weights, cdd_sign, lambda *why: AssertionError(why),
                                          [])()
            assert len(node._parents) == 1 and node._parents[0] is vector.leaf
            zero_grad([vector.leaf])
            backward(node)
            for c in range(cells):
                params = oracles.tape_params(source)
                trained = list(params.values())[-len(vector.views):]
                zero_grad(trained)
                backward(oracles.tape_step_closure(
                    params, step_kind, cell(view1, c), cell(view2, c), cell(labels, c),
                    cell(q1, c), cell(q2, c), weights, smoothing, cdd_sign, [])())
                want = np.concatenate([t.grad for t in trained], axis=None)
                assert cell(vector.leaf.grad, c).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cells, cell_axis", [(None, False), (3, False), (None, True)],
                             ids=["plain", "stacked", "plain-source-under-cells"])
    def test_branch_heads_are_read_only_views_of_the_stepped_heads(self, cells, cell_axis):
        rng = np.random.default_rng(3)
        bundle = clone_for_adaptation(build(SPEC), cells)
        lead, k = ((cells,) if cells else ()), SPEC.num_classes
        views = rng.normal(size=(2,) + lead + (4, SPEC.input_dim))
        q = oracles.softmax_np(rng.normal(size=(math.prod(lead) * 4, k))).reshape(lead + (4, k))
        targets = batch_targets(rng.integers(0, k, size=lead + (4,)), q, q, SmoothingParams())
        for step_kind in "12":
            closure = pipeline._step_closure(bundle, step_kind, views, targets, LossWeights(),
                                             "flipped", lambda *why: AssertionError(why), [])
            vector = bundle.vector if step_kind == "1" else bundle.head_vector
            sam_step(vector, closure, SamState(), SamConfig(rho=0.1), lr_override=0.05)
        # a plain model's heads under S cells are its tail with a leading axis of 1
        (w, b), = _branch_heads(bundle.head_vector.data[None], SPEC) if cell_axis \
            else bundle.branch_heads
        for got, i in ((w, 0), (b, 1)):
            want = np.array((bundle.head1[0][i], bundle.head2[0][i]))
            want = want[:, None] if cell_axis else want
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not got.flags.writeable and np.shares_memory(got, bundle.vector.data)


class TestAdaptConfigValidation:
    def test_bad_fields_rejected(self):
        with pytest.raises(ContractViolation):
            AdaptConfig(total_iterations=0)
        with pytest.raises(ContractViolation):
            AdaptConfig(step_pattern="13")
        with pytest.raises(ContractViolation):
            AdaptConfig(step_pattern="")
        with pytest.raises(ContractViolation):
            AdaptConfig(cdd_sign="upside_down")
        with pytest.raises(ContractViolation):
            AdaptConfig(view_mode="mirrored")
        with pytest.raises(ContractViolation):
            AdaptConfig(eval_head="c_t3")
        with pytest.raises(ContractViolation):
            ScheduleConfig(eta0=0.0)

    def test_sam_base_lr_is_refused(self):
        # every step passes the schedule's rates, so the base rate would be ignored
        with pytest.raises(ContractViolation, match=re.escape("from schedule (eta0")):
            AdaptConfig(sam=SamConfig(base=AdamConfig(lr=0.01)))
        assert AdaptConfig(sam=SamConfig(base=AdamConfig(beta1=0.5))).sam.base.beta1 == 0.5


class TestSeedSweep:
    def sweep(self, jobs=1, k_shot=5):
        return seed_sweep(
            DOMAIN, SPEC,
            PretrainConfig(epochs=8, seed=5),
            small_adapt_cfg(total_iterations=2),
            AugmentPolicy(), n_way=3, k_shot=k_shot,
            data_seeds=[1, 2], model_seeds=[5, 6], jobs=jobs)

    def test_grid_is_complete_and_sorted(self):
        report = self.sweep()
        assert [(c.data_seed, c.model_seed) for c in report.cells] == \
            [(1, 5), (1, 6), (2, 5), (2, 6)]
        assert all(c.status == "ok" for c in report.cells)

    def test_aggregates_follow_from_cells(self):
        report = self.sweep()
        accs = [c.adapted_accuracy for c in report.cells]
        assert report.mean_adapted == pytest.approx(np.mean(accs))
        ds_means = [np.mean(accs[0:2]), np.mean(accs[2:4])]
        assert report.spread_adapted == pytest.approx(max(ds_means) - min(ds_means))
        assert report.variance_adapted == pytest.approx(np.var(ds_means))

    def test_failed_cells_are_recorded_not_raised(self):
        report = self.sweep(k_shot=1000)
        assert all(c.status.startswith("error: ContractViolation")
                   for c in report.cells)
        assert report.mean_adapted is None
        assert report.spread_adapted is None

    def test_a_support_of_every_row_is_a_failed_cell_with_no_training(self, monkeypatch):
        # DOMAIN has 40 rows per class: K=40 leaves no test row
        steps = []
        monkeypatch.setattr(pipeline, "sam_step", lambda *args, **kwargs: steps.append(args))
        report = self.sweep(k_shot=40)
        assert all(c.status.startswith("error: ContractViolation: K=40 takes every row")
                   for c in report.cells)
        assert steps == []

    def test_divergence_is_recorded_as_a_failed_cell(self, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("loss went non-finite", iteration=0)

        monkeypatch.setattr(pipeline, "adapt_cells", diverge)
        report = self.sweep()
        assert all(c.status == "error: DivergenceError: loss went non-finite"
                   for c in report.cells)
        assert report.mean_adapted is None

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("adapt() got an unexpected keyword argument")

        monkeypatch.setattr(pipeline, "adapt_cells", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            self.sweep()

    def test_parallel_matches_serial(self):
        # jobs=3 is more workers than model seeds
        serial = self.sweep(jobs=1).to_dict()
        for jobs in (2, 3):
            assert self.sweep(jobs=jobs).to_dict() == serial

    def test_a_serial_sweep_scores_each_cell_twice_and_no_pretraining_epoch(self, monkeypatch):
        real_evaluate, real_pretrain = pipeline.evaluate, pipeline._pretrain_bundle
        scored, phase = [], ["adaptation"]

        def evaluate(*args, **kwargs):
            scored.append(phase[0])
            return real_evaluate(*args, **kwargs)

        def pretrain(*args):
            phase[0] = "pretraining"
            try:
                return real_pretrain(*args)
            finally:
                phase[0] = "adaptation"

        monkeypatch.setattr(pipeline, "evaluate", evaluate)
        monkeypatch.setattr(pipeline, "_pretrain_bundle", pretrain)
        report = self.sweep(jobs=1)
        assert [c.status for c in report.cells] == ["ok"] * 4
        assert scored == ["adaptation"] * 8  # each cell's source model, then its adapted one

    def test_a_diverging_pretraining_raises_pretrain_sources_error_and_no_warning(self):
        cfg = PretrainConfig(epochs=2, sgd=SgdConfig(lr=1e200, momentum=0.0), seed=5)
        source, _ = make_domain_pair(DOMAIN)
        with pytest.raises(DivergenceError) as alone:
            pretrain_source(source, replace(SPEC, init_seed=5), cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError) as swept:
                seed_sweep(DOMAIN, SPEC, cfg, small_adapt_cfg(), AugmentPolicy(), 3, 5,
                           data_seeds=[1, 2], model_seeds=[5])
        assert str(swept.value) == str(alone.value) == \
            "pretraining diverged at epoch 0: non-finite logits"
        assert swept.value.iteration == 0 and math.isnan(swept.value.last_loss)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    # Pool workers are forked inside seed_sweep, after these monkeypatches, so
    # the patched functions are the ones that run in the workers.

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("error", [
        lambda: DivergenceError("pretraining diverged", iteration=3, last_loss=7.5),
        lambda: ContractViolation("source has 2 classes"),
    ], ids=["DivergenceError", "ContractViolation"])
    def test_pretraining_error_propagates(self, monkeypatch, jobs, error):
        def fail(*args, **kwargs):
            raise error()

        monkeypatch.setattr(pipeline, "_pretrain_epochs", fail)
        with pytest.raises(type(error()), match=str(error())) as exc:
            self.sweep(jobs=jobs)
        assert vars(exc.value) == vars(error())  # iteration, last_loss, ...

    def test_programming_error_in_a_worker_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("adapt() got an unexpected keyword argument")

        monkeypatch.setattr(pipeline, "adapt_cells", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            self.sweep(jobs=2)

    def test_divergence_in_a_worker_is_a_recorded_cell(self, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("loss went non-finite", iteration=0)

        monkeypatch.setattr(pipeline, "adapt_cells", diverge)
        report = self.sweep(jobs=2)
        assert [(c.data_seed, c.model_seed) for c in report.cells] == \
            [(1, 5), (1, 6), (2, 5), (2, 6)]
        assert all(c.status == "error: DivergenceError: loss went non-finite"
                   for c in report.cells)

    def test_an_error_in_a_cell_cancels_queued_cells(self, monkeypatch, tmp_path):
        # each seed's one group of 24 cells fails at once, which queues 48 cells,
        # one task of 50 ms each, on two workers; the first of them, data seed 0
        # of model seed 5, raises a programming error after 0.1 s, so most cells
        # never start
        def slow_cells(pretrained, splits, policy, cfg):
            if len(splits) > 1:
                raise DivergenceError("group stop", iteration=0)
            cell = (splits[0].seed, pretrained.spec.init_seed)
            (tmp_path / f"cell-{cell[0]}-{cell[1]}").touch()
            if cell == (0, 5):
                time.sleep(0.1)
                raise TypeError("cell (0, 5) broke")
            time.sleep(0.05)
            raise DivergenceError("stop", iteration=0)

        monkeypatch.setattr(pipeline, "adapt_cells", slow_cells)
        with pytest.raises(TypeError, match=re.escape("cell (0, 5) broke")):
            seed_sweep(DOMAIN, SPEC, PretrainConfig(epochs=2, seed=5),
                       small_adapt_cfg(), AugmentPolicy(), n_way=3, k_shot=5,
                       data_seeds=list(range(24)), model_seeds=[5, 6], jobs=2)
        started = len(list(tmp_path.iterdir()))
        assert started < 48
        time.sleep(0.2)  # the pool is shut down: nothing starts afterwards
        assert len(list(tmp_path.iterdir())) == started

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_first_error_in_task_order_is_raised(self, monkeypatch, jobs):
        # model seed 5's group is the first task of its round, and it raises last
        def broken(pretrained, splits, policy, cfg):
            if pretrained.spec.init_seed == 5:
                time.sleep(0.3)
                raise TypeError("seed 5's group broke")
            raise ValueError("seed 6's group broke")

        monkeypatch.setattr(pipeline, "adapt_cells", broken)
        with pytest.raises(TypeError, match="seed 5's group broke"):
            self.sweep(jobs=jobs)

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected_before_pretraining(self, monkeypatch, jobs):
        def pretrain(*args, **kwargs):
            raise AssertionError("pretraining started")

        monkeypatch.setattr(pipeline, "_pretrain_epochs", pretrain)
        with pytest.raises(ContractViolation, match=f"jobs must be >= 1, got {jobs}"):
            self.sweep(jobs=jobs)

    @pytest.mark.parametrize("data_seeds, model_seeds, message", [
        ([1, 1, 2], [5], "data seed 1 is repeated"),
        ([2, 0, 1, 0, 2], [5], "data seed 0 is repeated"),
        ([1, 2], [6, 5, 6], "model seed 6 is repeated"),
        ([2, -1, -3], [5], "data_seeds[1] must be >= 0, got -1"),
        ([1, 2], [5, -1], "model_seeds[1] must be >= 0, got -1"),
    ], ids=["data", "data-first-repeat", "model", "negative-data", "negative-model"])
    def test_repeated_seeds_rejected_before_pretraining(self, monkeypatch, data_seeds,
                                                        model_seeds, message):
        def pretrain(*args, **kwargs):
            raise AssertionError("pretraining started")

        monkeypatch.setattr(pipeline, "_pretrain_epochs", pretrain)
        with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
            seed_sweep(DOMAIN, SPEC, PretrainConfig(epochs=1), small_adapt_cfg(),
                       AugmentPolicy(), 3, 5, data_seeds, model_seeds)

    @pytest.mark.parametrize("data_seeds, model_seeds, message", [
        ([1.5, 1], [5], "data_seeds[0] must be an integer, got 1.5"),
        ([1, True], [5], "data_seeds[1] must be an integer, got True"),
        ([1], [5, 6.0], "model_seeds[1] must be an integer, got 6.0"),
        ([1], 5, "model_seeds must be a list or tuple, got 5"),
    ], ids=["float-data", "bool-data", "float-model", "not-a-list"])
    def test_a_seed_that_is_not_an_integer_is_refused_before_pretraining(
            self, monkeypatch, data_seeds, model_seeds, message):
        # [1.5, 1] gave two cells of data seed 1
        def pretrain(*args, **kwargs):
            raise AssertionError("pretraining started")

        monkeypatch.setattr(pipeline, "_pretrain_epochs", pretrain)
        with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
            seed_sweep(DOMAIN, SPEC, PretrainConfig(epochs=1), small_adapt_cfg(),
                       AugmentPolicy(), 3, 5, data_seeds, model_seeds)

    def test_pool_has_at_most_one_worker_per_cell(self, monkeypatch):
        sizes = []
        serial = self.sweep(jobs=1).to_dict()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool.recording(sizes))
        assert self.sweep(jobs=64).to_dict() == serial
        assert self.sweep(jobs=3).to_dict() == serial
        assert sizes == [4, 3]  # 2 data seeds x 2 model seeds

    def test_a_one_cell_sweep_starts_no_pool(self, monkeypatch):
        def one_cell(jobs):
            return seed_sweep(DOMAIN, SPEC, PretrainConfig(epochs=8, seed=5),
                              small_adapt_cfg(total_iterations=2), AugmentPolicy(), n_way=3,
                              k_shot=5, data_seeds=[1], model_seeds=[5], jobs=jobs).to_dict()

        def no_pool(max_workers):
            raise AssertionError(f"a pool of {max_workers} started")

        serial = one_cell(jobs=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert one_cell(jobs=2) == serial
        assert [c["status"] for c in serial["cells"]] == ["ok"]

    def test_a_cell_that_diverges_in_a_group_keeps_its_solo_row(self, monkeypatch):
        # data seed 2's support is all NaN, so its cells diverge at iteration 0
        real_draw, real_cells = pipeline.sample_support, pipeline.adapt_cells
        groups = []  # the number of cells of each adapt_cells call made in this process

        def draw(target, n_way, k_shot, seed):
            split = real_draw(target, n_way, k_shot, seed=seed)
            if seed == 2:
                split.support.xs = np.full_like(split.support.xs, np.nan)
            return split

        def recording(model, splits, *args):
            groups.append(len(splits))
            return real_cells(model, splits, *args)

        monkeypatch.setattr(pipeline, "sample_support", draw)
        monkeypatch.setattr(pipeline, "adapt_cells", recording)
        grouped = self.sweep(jobs=1).to_dict()
        assert sorted(groups) == [1, 1, 1, 1, 2, 2]  # each seed's group fails, then its cells
        in_workers = self.sweep(jobs=2).to_dict()  # one group per seed, in two workers
        groups.clear()
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool.recording([]))
        alone = self.sweep(jobs=4).to_dict()  # every cell its own group: solo runs
        assert groups == [1, 1, 1, 1]
        assert grouped == in_workers == alone
        assert [c["status"] for c in alone["cells"]] == ["ok", "ok"] + 2 * [
            "error: DivergenceError: adaptation diverged at iteration 0 (step 1): "
            "non-finite logits"]

    def test_a_saturated_cell_is_recorded_as_divergence(self, monkeypatch):
        # data seed 2's support is scaled so far that its softmax underflows at once
        real_draw = pipeline.sample_support

        def draw(target, n_way, k_shot, seed):
            split = real_draw(target, n_way, k_shot, seed=seed)
            if seed == 2:
                split.support.xs = split.support.xs * 1e4
            return split

        monkeypatch.setattr(pipeline, "sample_support", draw)
        report = self.sweep(jobs=1).to_dict()
        assert [c["status"] for c in report["cells"]] == ["ok", "ok"] + 2 * [
            "error: DivergenceError: adaptation diverged at iteration 0 (step 1)"]

    def test_empty_seed_lists_rejected(self):
        with pytest.raises(ContractViolation):
            seed_sweep(DOMAIN, SPEC, PretrainConfig(epochs=1),
                       small_adapt_cfg(), AugmentPolicy(), 3, 5, [], [5])
