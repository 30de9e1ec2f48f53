import json
import re
import time
from dataclasses import asdict, fields

import numpy as np
import pytest

from actlab import pipeline
from actlab.data import (AugmentPolicy, DomainSpec, LabeledSet, ShiftSpec,
                         make_domain_pair, sample_support)
from actlab.errors import ContractViolation, DivergenceError
from actlab.losses import LossWeights
from actlab.models import MlpSpec, build, params_fingerprint, trainable_params
from actlab.optim import AdamConfig, SamConfig, SgdConfig, lr_at
from actlab.pipeline import (AdaptConfig, PretrainConfig, ScheduleConfig,
                             adapt, evaluate, pretrain_source, seed_sweep)

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


class TestEvaluate:
    def test_zeroed_heads_predict_class_zero(self, domain_pair):
        # all-zero logits tie on every row; ties must resolve to index 0
        source, _ = domain_pair
        bundle = build(SPEC)
        for layers in (bundle.head1, bundle.head2):
            for t in layers[0]:
                t.data[...] = 0.0
        result = evaluate(bundle, source)
        assert result.accuracy == pytest.approx(1.0 / 3.0)
        assert result.per_class == [1.0, 0.0, 0.0]
        assert result.macro_accuracy == pytest.approx(1.0 / 3.0)
        np.testing.assert_array_equal(result.confusion[:, 0],
                                      source.class_counts())

    def test_confusion_rows_sum_to_class_counts(self, pretrained, domain_pair):
        bundle, _ = pretrained
        source, _ = domain_pair
        result = evaluate(bundle, source)
        np.testing.assert_array_equal(result.confusion.sum(axis=1),
                                      source.class_counts())
        assert result.confusion.sum() == result.num_test == len(source)

    def test_absent_class_gets_none_and_skips_macro(self, pretrained):
        bundle, _ = pretrained
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(20, 2))
        ys = np.array([0, 1] * 10)
        result = evaluate(bundle, LabeledSet(xs, ys, 3, "partial"))
        assert result.per_class[2] is None
        present = [v for v in result.per_class if v is not None]
        assert result.macro_accuracy == pytest.approx(float(np.mean(present)))

    def test_mean_of_heads_equals_head1_when_heads_identical(self, domain_pair):
        source, _ = domain_pair
        bundle = build(SPEC)  # fresh build: heads are bitwise copies
        a = evaluate(bundle, source, "c_t1")
        b = evaluate(bundle, source, "mean_of_heads")
        assert a.accuracy == b.accuracy
        np.testing.assert_array_equal(a.confusion, b.confusion)

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
        assert not np.array_equal(h1["head1.weight"].data, h2["head2.weight"].data)

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
        assert set(doc) == {"trace", "accuracy", "per_class", "macro_accuracy",
                            "confusion", "no_adapt_accuracy", "no_adapt_per_class",
                            "no_adapt_macro_accuracy"}
        assert doc["no_adapt_accuracy"] is not None
        assert [set(r) for r in doc["trace"]] == \
            [{f.name for f in fields(r)} for r in report.trace]
        assert doc["trace"] == [r.to_dict() for r in report.trace]

    def test_shape_and_class_mismatches_rejected(self, pretrained, split):
        bundle, _ = pretrained
        bad_support = LabeledSet(split.support.xs, split.support.ys, 5, "bad")
        from actlab.data import SupportSplit
        bad_split = SupportSplit(bad_support, split.test, 3, 5, 21)
        with pytest.raises(ContractViolation):
            adapt(bundle, bad_split, AugmentPolicy(), small_adapt_cfg())

    @pytest.mark.parametrize("schedule_extractor", [True, False])
    @pytest.mark.parametrize("schedule_heads", [True, False])
    def test_lr_switches_set_each_groups_rate(self, pretrained, split, monkeypatch,
                                              schedule_extractor, schedule_heads):
        schedule = ScheduleConfig(eta0=2e-3, head_multiplier=2.5,
                                  schedule_extractor=schedule_extractor,
                                  schedule_heads=schedule_heads)
        calls, sam_step = [], pipeline.sam_step

        def recording(params, closure, state, cfg, lr_override=None):
            calls.append((params, lr_override))
            return sam_step(params, closure, state, cfg, lr_override=lr_override)

        monkeypatch.setattr(pipeline, "sam_step", recording)
        adapted, report = adapt(pretrained[0], split, AugmentPolicy(),
                                small_adapt_cfg(total_iterations=3, schedule=schedule))
        names = {id(t): name for name, t in adapted.named_params()}
        assert len(calls) == 6
        for i, (params, lrs) in enumerate(calls):
            eta = lr_at(2e-3, (i // 2) / 3)
            want_ext = eta if schedule_extractor else 2e-3
            want_head = (eta if schedule_heads else 2e-3) * 2.5
            got = [(names[id(p)].startswith("head"), lr) for p, lr in zip(params, lrs)]
            assert len(got) == (len(names) if i % 2 == 0 else 4)  # step 1, step 2
            assert got == [(head, want_head if head else want_ext) for head, _ in got]
        # the trace logs the extractor rate step 1 applied, on both steps' records
        applied = [next(lr for p, lr in zip(params, lrs) if not names[id(p)].startswith("head"))
                   for params, lrs in calls[::2]]
        assert [r.lr for r in report.trace[::2]] == applied
        assert [r.lr for r in report.trace[1::2]] == applied

    def test_divergence_aborts_with_last_good_params(self, pretrained, split):
        self.assert_aborts_with_the_source(
            pretrained[0], split, small_adapt_cfg(sam=SamConfig(rho=1e200)), step=1)

    # rho 1e200 or 1e300 only underflows a softmax entry, which lsce refuses
    def test_step2_divergence_aborts_with_last_good_params(self, pretrained, split):
        cfg = small_adapt_cfg(step_pattern="2", sam=SamConfig(rho=1e308))
        self.assert_aborts_with_the_source(pretrained[0], split, cfg, step=2)

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
        # it holds references, so this breaks if a step writes p.data in place
        source = dict(bundle.named_params())
        assert list(err.last_good_params) == list(source)
        for name, value in err.last_good_params.items():
            assert value.tobytes() == source[name].data.tobytes(), name


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

    def test_divergence_is_recorded_as_a_failed_cell(self, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("loss went non-finite", iteration=0)

        monkeypatch.setattr(pipeline, "adapt", diverge)
        report = self.sweep()
        assert all(c.status == "error: DivergenceError: loss went non-finite"
                   for c in report.cells)
        assert report.mean_adapted is None

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("adapt() got an unexpected keyword argument")

        monkeypatch.setattr(pipeline, "adapt", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            self.sweep()

    def test_parallel_matches_serial(self):
        # jobs=3 is more workers than model seeds
        serial = self.sweep(jobs=1).to_dict()
        for jobs in (2, 3):
            assert self.sweep(jobs=jobs).to_dict() == serial

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

        monkeypatch.setattr(pipeline, "pretrain_source", fail)
        with pytest.raises(type(error()), match=str(error())) as exc:
            self.sweep(jobs=jobs)
        assert vars(exc.value) == vars(error())  # iteration, last_loss, ...

    def test_programming_error_in_a_worker_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("adapt() got an unexpected keyword argument")

        monkeypatch.setattr(pipeline, "adapt", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            self.sweep(jobs=2)

    def test_divergence_in_a_worker_is_a_recorded_cell(self, monkeypatch):
        def diverge(*args, **kwargs):
            raise DivergenceError("loss went non-finite", iteration=0)

        monkeypatch.setattr(pipeline, "adapt", diverge)
        report = self.sweep(jobs=2)
        assert [(c.data_seed, c.model_seed) for c in report.cells] == \
            [(1, 5), (1, 6), (2, 5), (2, 6)]
        assert all(c.status == "error: DivergenceError: loss went non-finite"
                   for c in report.cells)

    def test_pretraining_error_cancels_queued_cells(self, monkeypatch, tmp_path):
        # seed 5 pretrains normally and queues 24 cells of 50 ms each on the
        # one free worker; seed 6 fails after 0.3 s, so most cells never start
        real_pretrain = pipeline.pretrain_source

        def pretrain(source, spec, cfg):
            if spec.init_seed == 6:
                time.sleep(0.3)
                raise DivergenceError("seed 6 diverged", iteration=1)
            return real_pretrain(source, spec, cfg)

        def slow_cell(pretrained, split, policy, cfg):
            (tmp_path / f"cell-{split.seed}").touch()
            time.sleep(0.05)
            raise DivergenceError("stop", iteration=0)

        monkeypatch.setattr(pipeline, "pretrain_source", pretrain)
        monkeypatch.setattr(pipeline, "adapt", slow_cell)
        with pytest.raises(DivergenceError, match="seed 6 diverged"):
            seed_sweep(DOMAIN, SPEC, PretrainConfig(epochs=2, seed=5),
                       small_adapt_cfg(), AugmentPolicy(), n_way=3, k_shot=5,
                       data_seeds=list(range(24)), model_seeds=[5, 6], jobs=2)
        started = len(list(tmp_path.iterdir()))
        assert started < 24
        time.sleep(0.2)  # the pool is shut down: nothing starts afterwards
        assert len(list(tmp_path.iterdir())) == started

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected_before_pretraining(self, monkeypatch, jobs):
        def pretrain(*args, **kwargs):
            raise AssertionError("pretraining started")

        monkeypatch.setattr(pipeline, "pretrain_source", pretrain)
        with pytest.raises(ContractViolation, match=f"jobs must be >= 1, got {jobs}"):
            self.sweep(jobs=jobs)

    def test_empty_seed_lists_rejected(self):
        with pytest.raises(ContractViolation):
            seed_sweep(DOMAIN, SPEC, PretrainConfig(epochs=1),
                       small_adapt_cfg(), AugmentPolicy(), 3, 5, [], [5])
