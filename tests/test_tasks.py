"""Tests for the synthetic few-shot task generator."""

import numpy as np
import pytest

from taalkit.autodiff import Tensor, grad
from taalkit.surrogate import class_weights_from_labels, sgd_step, wce_loss
from taalkit.tasks import MAX_ARRAY_VALUES, FewShotTask, SyntheticTaskConfig, synth_task_source, take_tasks


class TestFewShotTask:
    def test_valid_task(self):
        t = FewShotTask(
            support_x=np.zeros((4, 3)),
            support_y=np.zeros(4, dtype=np.int64),
            query_x=np.zeros((2, 3)),
            query_y=np.ones(2, dtype=np.int64),
            n_classes=2,
        )
        assert (t.n_classes, t.task_id) == (2, 0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FewShotTask(
                support_x=np.zeros((4, 3)),
                support_y=np.zeros(4, dtype=np.int64),
                query_x=np.zeros((2, 5)),
                query_y=np.zeros(2, dtype=np.int64),
                n_classes=2,
            )

    def test_label_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FewShotTask(
                support_x=np.zeros((4, 3)),
                support_y=np.zeros(3, dtype=np.int64),
                query_x=np.zeros((2, 3)),
                query_y=np.zeros(2, dtype=np.int64),
                n_classes=2,
            )

    def test_labels_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FewShotTask(
                support_x=np.zeros((1, 3)),
                support_y=np.array([5]),
                query_x=np.zeros((1, 3)),
                query_y=np.array([0]),
                n_classes=2,
            )


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = SyntheticTaskConfig()
        assert cfg.stroke_classes == 6
        assert cfg.support_size == 32
        assert cfg.query_size == 8

    def test_stroke_classes_must_fit_bank(self):
        assert SyntheticTaskConfig(stroke_classes=12, bank_size=12).stroke_classes == 12
        with pytest.raises(ValueError, match="must fit in bank of 12"):
            SyntheticTaskConfig(stroke_classes=13, bank_size=12)
        with pytest.raises(ValueError, match="must fit in bank"):
            SyntheticTaskConfig(stroke_classes=0)

    @pytest.mark.parametrize(
        "field, value",
        [("stroke_classes", 2.5), ("stroke_classes", 3.0), ("stroke_classes", True), ("support_size", 3.0),
         ("query_size", 8.0), ("n_features", 20.0), ("bank_size", 12.0), ("seed", 7.0), ("seed", -1),
         ("seed", "7"), ("seed", False)],
    )
    def test_rejects_non_integer_counts(self, field, value):
        # Each was accepted once, and the first task drawn then raised a numpy TypeError.
        with pytest.raises(ValueError, match=f"{field} must be a non-negative integer"):
            SyntheticTaskConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = SyntheticTaskConfig(stroke_classes=np.int64(3), support_size=np.uint8(4), seed=np.int32(7))
        assert next(synth_task_source(cfg)).n_classes == 4

    def test_sizes_positive(self):
        with pytest.raises(ValueError):
            SyntheticTaskConfig(support_size=0)
        with pytest.raises(ValueError):
            SyntheticTaskConfig(n_features=0)
        with pytest.raises(ValueError):
            SyntheticTaskConfig(decay_rate=0.0)

    def test_frames_beyond_cap_rejected_before_allocation(self):
        # One task's (support + query) x n_features frames may hold at most
        # MAX_ARRAY_VALUES values.
        cap = MAX_ARRAY_VALUES
        assert SyntheticTaskConfig(n_features=1, support_size=cap - 8, query_size=8).n_features == 1
        with pytest.raises(ValueError, match=f"exceed {cap} values"):
            SyntheticTaskConfig(n_features=1, support_size=cap - 7, query_size=8)
        for size in ("n_features", "support_size", "query_size"):
            with pytest.raises(ValueError, match=f"exceed {cap} values"):
                SyntheticTaskConfig(**{size: 10**12})


class TestTaskStream:
    def test_deterministic_by_seed(self):
        cfg = SyntheticTaskConfig(seed=42)
        a = take_tasks(synth_task_source(cfg), 3)
        b = take_tasks(synth_task_source(cfg), 3)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.support_x, tb.support_x)
            assert np.array_equal(ta.support_y, tb.support_y)
            assert np.array_equal(ta.query_x, tb.query_x)
            assert np.array_equal(ta.query_y, tb.query_y)

    def test_different_seeds_differ(self):
        a = next(synth_task_source(SyntheticTaskConfig(seed=1)))
        b = next(synth_task_source(SyntheticTaskConfig(seed=2)))
        assert not np.array_equal(a.support_x, b.support_x)

    def test_shapes_and_ranges(self):
        cfg = SyntheticTaskConfig(n_features=10, support_size=20, query_size=5, seed=3)
        for task in take_tasks(synth_task_source(cfg), 5):
            assert task.support_x.shape == (20, 10)
            assert task.query_x.shape == (5, 10)
            assert task.n_classes == 7  # 6 stroke classes + No-stroke
            assert task.support_y.min() >= 0
            assert task.support_y.max() < 7

    def test_task_ids_consecutive(self):
        tasks = take_tasks(synth_task_source(SyntheticTaskConfig(seed=4)), 4)
        assert [t.task_id for t in tasks] == [0, 1, 2, 3]

    def test_class_count_range_respected(self):
        # Every task of a stream has the config's class count, over a range of counts.
        for c in (1, 2, 5, 12):
            cfg = SyntheticTaskConfig(stroke_classes=c, seed=5, include_no_stroke=False)
            tasks = take_tasks(synth_task_source(cfg), 10)
            assert {t.n_classes for t in tasks} == {c}
            assert {int(y) for t in tasks for y in t.support_y} <= set(range(c))

    def test_no_stroke_toggle(self):
        base = dict(stroke_classes=3, seed=6)
        with_ns = next(synth_task_source(SyntheticTaskConfig(include_no_stroke=True, **base)))
        without = next(synth_task_source(SyntheticTaskConfig(include_no_stroke=False, **base)))
        assert with_ns.n_classes == 4
        assert without.n_classes == 3
        assert without.support_y.max() < 3

    def test_weak_decay_never_produces_no_stroke(self):
        # amp = exp(-0.5*u) >= exp(-0.5) ~ 0.61, far above the 3% threshold.
        cfg = SyntheticTaskConfig(decay_rate=0.5, seed=7)
        for task in take_tasks(synth_task_source(cfg), 10):
            assert task.support_y.max() < 6
            assert task.query_y.max() < 6

    def test_strong_decay_produces_no_stroke(self):
        # With decay 20, amp < 0.03 for ~82% of draws.
        cfg = SyntheticTaskConfig(decay_rate=20.0, seed=8)
        ys = np.concatenate(
            [t.support_y for t in take_tasks(synth_task_source(cfg), 10)]
        )
        frac_ns = np.mean(ys == 6)
        assert 0.6 < frac_ns < 0.95

    def test_fixed_members_reuse_prototypes_across_tasks(self):
        # With fixed members and no jitter/noise, the class-k rows of every
        # task are built from the same prototype, so per-class means agree
        # across tasks (up to amplitude mixing toward the No-stroke vector).
        cfg = SyntheticTaskConfig(
            stroke_classes=3, jitter_scale=0.0, noise_scale=0.0,
            decay_rate=1e-9, include_no_stroke=False, seed=11,
        )
        t1, t2 = take_tasks(synth_task_source(cfg), 2)
        for k in range(3):
            a = t1.support_x[t1.support_y == k]
            b = t2.support_x[t2.support_y == k]
            if len(a) and len(b):
                assert np.allclose(a[0], b[0], atol=1e-6)


class TestLinearSeparability:
    def test_one_step_reaches_full_support_accuracy(self):
        # Noise-free, jitter-free tasks are linearly separable; one
        # sufficiently large gradient step on a linear model fits the
        # support set exactly.
        cfg = SyntheticTaskConfig(
            stroke_classes=3,
            noise_scale=0.0,
            jitter_scale=0.0,
            decay_rate=0.5,
            include_no_stroke=False,
            support_size=24,
            query_size=8,
            seed=13,
        )
        task = next(synth_task_source(cfg))
        w = Tensor(np.zeros((cfg.n_features, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)

        def logits(params):
            return Tensor(task.support_x) @ params[0] + params[1]

        weights = class_weights_from_labels(task.support_y, 3)
        params = [w, b]
        for _ in range(2):
            loss = wce_loss(logits(params), task.support_y, weights)
            gs = grad(loss, params)
            params = sgd_step(params, gs, lr=20.0)
        pred = np.argmax(logits(params).data, axis=1)
        assert np.mean(pred == task.support_y) == 1.0
