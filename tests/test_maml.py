"""Tests for the two-level meta-optimization loop."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import taalkit.autodiff
import taalkit.maml
from gradcheck import central_difference, flatten_params, param_shapes, unflatten_params
from taalkit.autodiff import Tensor, grad
from taalkit.cli import step_values
from taalkit.maml import (
    AdaptResult,
    _pair_seed,
    DivergenceError,
    MamlConfig,
    inner_adapt,
    meta_gradients,
    meta_test_adapt,
    meta_train,
    meta_update,
    paired_few_shot_eval,
    query_objective,
)
from taalkit.surrogate import (
    SurrogateModel,
    class_weights_from_labels,
    head_logits,
    head_n_classes,
    init_head,
    sgd_step,
    stack_heads,
    unstack_head,
    wce_loss,
    with_new_head_output,
)
from taalkit.tasks import FewShotTask, SyntheticTaskConfig, synth_task_source, take_tasks


def tiny_model(seed=0, n_features=4, hidden=4, n_classes=3):
    return SurrogateModel.create(n_features, hidden, n_classes, np.random.default_rng(seed))


def easy_task_config(**overrides):
    base = dict(
        n_features=8,
        stroke_classes=3,
        bank_size=6,
        noise_scale=0.05,
        jitter_scale=0.05,
        decay_rate=0.5,
        include_no_stroke=False,
        support_size=24,
        query_size=12,
        seed=0,
    )
    base.update(overrides)
    return SyntheticTaskConfig(**base)


def chained_tasks(tcfg, stroke_classes, n_each):
    """``n_each`` tasks from one stream per stroke-class count, chained and
    numbered in order: a task list whose class counts differ."""
    tasks = [
        task
        for c in stroke_classes
        for task in take_tasks(synth_task_source(dataclasses.replace(tcfg, stroke_classes=c)), n_each)
    ]
    return [dataclasses.replace(task, task_id=i) for i, task in enumerate(tasks)]


class TestConfig:
    def test_defaults(self):
        cfg = MamlConfig()
        assert cfg.alpha == 0.001
        assert cfg.beta == 0.001
        assert cfg.inner_steps == 3
        assert cfg.adapt_iters == 10
        assert cfg.tasks_per_batch == 4
        assert cfg.order == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            MamlConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            MamlConfig(order=3)
        with pytest.raises(ValueError):
            MamlConfig(tasks_per_batch=0)
        with pytest.raises(ValueError):
            MamlConfig(epochs=-1)

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", float("nan")), ("alpha", float("inf")), ("beta", float("nan")), ("beta", float("inf")),
         ("seed", -1), ("seed", 1.5), ("seed", "7")],
    )
    def test_rejects_non_finite_rates_and_bad_seeds(self, field, value):
        with pytest.raises(ValueError, match=field if field == "seed" else "learning rates"):
            MamlConfig(**{field: value})

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    def test_rejects_rates_with_no_finite_float_value(self, field):
        with pytest.raises(ValueError, match="learning rates"):
            MamlConfig(**{field: 10**400})
        # A large integer that a float holds is kept as given.
        assert getattr(MamlConfig(**{field: 10**300}), field) == 10**300

    @pytest.mark.parametrize(
        "field, value",
        [("inner_steps", 2.5), ("epochs", 1.5), ("adapt_iters", 1.0), ("tasks_per_batch", 4.0),
         ("order", 2.0), ("order", "1"), ("order", True), ("seed", False), ("epochs", -1)],
    )
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a non-negative integer"):
            MamlConfig(**{field: value})

    def test_with_overrides(self):
        cfg = dataclasses.replace(MamlConfig(), alpha=0.5, epochs=7)
        assert cfg.alpha == 0.5
        assert cfg.epochs == 7
        assert cfg.beta == 0.001  # untouched


def path_losses(h, y, w, path):
    """Support loss before each step of an ``inner_adapt`` path: floats for
    one head, per-task lists for a batch."""
    return [wce_loss(head_logits(h, p), y, w).data.tolist() for p in path[:-1]]


class TestInnerAdapt:
    def _setup(self, seed=0, n=8, hidden=4, classes=2):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(n, hidden))
        y = rng.integers(0, classes, n)
        head = init_head(rng, hidden, classes)
        w = class_weights_from_labels(y, classes)
        return h, y, head, w

    def test_zero_alpha_is_identity(self):
        h, y, head, w = self._setup()
        path = inner_adapt(h, y, head, w, alpha=0.0, steps=3, second_order=False)
        out, losses = path[-1], path_losses(h, y, w, path)
        for p, q in zip(head, out):
            assert np.array_equal(p.data, q.data)
        assert len(losses) == 3
        assert losses[0] == losses[1] == losses[2]

    def test_single_step_equals_manual_sgd(self):
        h, y, head, w = self._setup(seed=1)
        path = inner_adapt(h, y, head, w, alpha=0.05, steps=1, second_order=False)
        out, losses = path[-1], path_losses(h, y, w, path)
        loss = wce_loss(head_logits(h, head), y, w)
        manual = sgd_step(head, grad(loss, head), 0.05)
        for p, q in zip(manual, out):
            assert np.array_equal(p.data, q.data)
        assert losses == [loss.item()]

    def test_loss_decreases(self):
        h, y, head, w = self._setup(seed=2, n=16)
        path = inner_adapt(h, y, head, w, alpha=0.5, steps=5, second_order=False)
        out, losses = path[-1], path_losses(h, y, w, path)
        final = wce_loss(head_logits(h, out), y, w).item()
        assert final < losses[0]
        assert losses == sorted(losses, reverse=True)

    @pytest.mark.parametrize("second_order", [False, True])
    def test_step_sort_does_not_grow_with_earlier_steps(self, monkeypatch, second_order):
        # Each step's parameters chain back through every earlier step, and
        # at order 2 sgd_step's scaled gradients come after them; the sort
        # must keep only the nodes between the loss and the parameters.
        sorted_lengths = []
        original = taalkit.autodiff._toposort

        def recording(root, inputs):
            order, live = original(root, inputs)
            sorted_lengths.append(len(order))
            return order, live

        monkeypatch.setattr(taalkit.autodiff, "_toposort", recording)
        h, y, head, w = self._setup(seed=3)
        inner_adapt(h, y, head, w, alpha=0.05, steps=30, second_order=second_order)
        assert len(sorted_lengths) == 30
        assert min(sorted_lengths) > 0
        assert len(set(sorted_lengths)) == 1

    def test_zero_steps(self):
        h, y, head, w = self._setup()
        path = inner_adapt(h, y, head, w, alpha=0.1, steps=0, second_order=True)
        out, losses = path[-1], path_losses(h, y, w, path)
        assert losses == []
        for p, q in zip(head, out):
            assert np.array_equal(p.data, q.data)

    def test_divergence_raises_with_step_index(self):
        h, y, head, _ = self._setup(seed=3)
        big_w = np.full(2, 50.0)
        # The absurd step size overflows the parameters to infinity; the
        # resulting numpy overflow warning is the expected mechanism here.
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError) as exc:
                inner_adapt(h, y, head, big_w, alpha=1e308, steps=10, second_order=False)
        assert exc.value.step >= 1
        assert "diverged at inner step" in str(exc.value)

    @staticmethod
    def _saturated_head(rng, h):
        # The tanh layer saturates and the finite output layer sums to
        # beyond the float64 range, so the support logits overflow.
        head = init_head(rng, 4, 2)
        head[0] = Tensor(np.abs(head[0].data) * 100, requires_grad=True)
        head[2] = Tensor(np.full((4, 2), 1e308), requires_grad=True)
        return h, head

    @staticmethod
    def _steep_head(rng, h):
        # Zero logits give a finite loss, but the gradient of the first
        # layer sums frames of order 1e308 and overflows.
        w2 = np.tile([1.7e308, -1.7e308], (4, 1))
        head = [Tensor(a, requires_grad=True) for a in (np.zeros((4, 4)), np.zeros(4), w2, np.zeros(2))]
        return 3 * rng.normal(size=h.shape), head

    @pytest.mark.parametrize("make_head", ["_saturated_head", "_steep_head"])
    def test_overflow_in_logits_or_gradient_is_a_divergence(self, make_head):
        h, _, _, _ = self._setup(seed=5)
        h, head = getattr(self, make_head)(np.random.default_rng(5), h)
        y = np.arange(8) % 2
        w = class_weights_from_labels(y, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                inner_adapt(h, y, head, w, alpha=0.1, steps=3, second_order=False)
        assert exc.value.step == 1

    def test_second_order_keeps_graph(self):
        h, y, head, w = self._setup(seed=4)
        adapted = inner_adapt(h, y, head, w, alpha=0.1, steps=2, second_order=True)[-1]
        probe = sum((p * p).sum() for p in adapted)
        gs = grad(probe, head)
        assert any(np.abs(g.data).max() > 0 for g in gs)


def reference_query_objective(model, head, tasks, cfg):
    """The per-task loop: one graph per task, losses added in task order."""
    total = None
    for task in tasks:
        sh = model.feature_map.apply(task.support_x)
        qh = model.feature_map.apply(task.query_x)
        w = class_weights_from_labels(task.support_y, task.n_classes)
        adapted = inner_adapt(
            sh, task.support_y, head, w, cfg.alpha, cfg.inner_steps, cfg.order == 2
        )[-1]
        qloss = wce_loss(head_logits(qh, adapted), task.query_y, w)
        total = qloss if total is None else total + qloss
    return total * (1.0 / len(tasks))


def relative_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def _resized(task, support, query):
    return FewShotTask(
        task.support_x[:support], task.support_y[:support],
        task.query_x[:query], task.query_y[:query], task.n_classes, task.task_id,
    )


class TestBatchedObjective:
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("sizes", [None])  # every task keeps the stream's sizes
    def test_equals_per_task_loop(self, order, sizes):
        tcfg = SyntheticTaskConfig(n_features=20, support_size=32, query_size=8, seed=order)
        model = SurrogateModel.create(20, 16, 7, np.random.default_rng(order))
        tasks = take_tasks(synth_task_source(tcfg), 5)
        cfg = MamlConfig(alpha=0.3, inner_steps=3, order=order)
        batched = query_objective(model, model.head, tasks, cfg)
        loop = reference_query_objective(model, model.head, tasks, cfg)
        assert relative_error(batched.data, loop.data) < 1e-12
        gb, lb = meta_gradients(model, model.head, tasks, cfg)
        gl = grad(loop, model.head)
        assert lb == batched.item()
        for a, b in zip(gb, gl):
            assert relative_error(a.data, b.data) < 1e-12

    @pytest.mark.parametrize("sizes", [(20, 8), (32, 5)])
    def test_mixed_sizes_fail_before_adapting(self, sizes, monkeypatch):
        # A batch shares the first task's support and query sizes; another
        # size is refused, naming the task, before any graph is built.
        calls = []
        monkeypatch.setattr(taalkit.maml, "inner_adapt", lambda *args: calls.append(args))
        tcfg = SyntheticTaskConfig(n_features=20, support_size=32, query_size=8, seed=1)
        model = SurrogateModel.create(20, 16, 7, np.random.default_rng(1))
        tasks = take_tasks(synth_task_source(tcfg), 4)
        tasks[2] = _resized(tasks[2], *sizes)
        cfg = MamlConfig(alpha=0.3, inner_steps=3)
        msg = rf"task {tasks[2].task_id} has support and query sizes other than the batch's \(32, 8\)"
        with pytest.raises(ValueError, match=msg):
            query_objective(model, model.head, tasks, cfg)
        assert calls == []

    @pytest.mark.parametrize("order", [1, 2])
    def test_mixed_class_counts_fail_as_in_the_loop(self, order):
        # A task whose class count differs from the head's cannot be scored
        # by it; the batched objective refuses such a batch as the loop does.
        tcfg = SyntheticTaskConfig(
            n_features=6, bank_size=6, include_no_stroke=False, support_size=10, query_size=4, seed=3,
        )
        tasks = chained_tasks(tcfg, (5, 3, 4), 3)
        assert [t.n_classes for t in tasks] == [5] * 3 + [3] * 3 + [4] * 3
        model = SurrogateModel.create(6, 5, 5, np.random.default_rng(3))
        cfg = MamlConfig(alpha=0.1, inner_steps=2, order=order)
        with pytest.raises(ValueError, match="weights shape"):
            reference_query_objective(model, model.head, tasks, cfg)
        with pytest.raises(ValueError, match=r"task \d+ has [34] classes but the head has 5"):
            query_objective(model, model.head, tasks, cfg)
        # The tasks that match the head's class count score as in the loop.
        fives = [t for t in tasks if t.n_classes == 5]
        assert fives
        batched = query_objective(model, model.head, fives, cfg)
        loop = reference_query_objective(model, model.head, fives, cfg)
        assert relative_error(batched.data, loop.data) < 1e-12

    @staticmethod
    def _query_overflow_setup():
        # One step of size 1.37e308 leaves the one-unit head finite on the
        # support frame, but its query logits overflow.
        tcfg = SyntheticTaskConfig(n_features=1, support_size=1, query_size=1)
        rng = np.random.default_rng(np.random.SeedSequence([0, 99]))
        model = SurrogateModel.create(1, 1, tcfg.task_classes(6), rng)
        return model, take_tasks(synth_task_source(tcfg), 1)

    @pytest.mark.parametrize("order", [1, 2])
    def test_query_logit_overflow_is_a_divergence(self, order):
        model, tasks = self._query_overflow_setup()
        cfg = MamlConfig(alpha=1.3732021482183925e308, inner_steps=1, order=order)
        task = tasks[0]
        w = class_weights_from_labels(task.support_y, task.n_classes)
        with np.errstate(over="ignore", invalid="ignore"):
            path = inner_adapt(model.feature_map.apply(task.support_x), task.support_y,
                               model.head, w, cfg.alpha, 1, False)
            assert all(np.isfinite(p.data).all() for p in path[-1])
            with pytest.raises(DivergenceError) as exc:
                query_objective(model, model.head, tasks, cfg)
        assert exc.value.step == 1

    @pytest.mark.parametrize("paired", [False, True])
    def test_query_logit_overflow_in_test_time_adaptation_is_a_divergence(self, paired):
        # The same overflow at test time raises as in meta-training; no
        # trace row or loss is NaN.
        model, tasks = self._query_overflow_setup()
        cfg = MamlConfig(alpha=1.3732021482183925e308, inner_steps=1, adapt_iters=1)
        runs = [lambda: paired_few_shot_eval(model, tasks, cfg)] if paired else [
            lambda: meta_test_adapt(model, tasks[0], cfg),
            lambda: reference_meta_test_adapt(model, tasks[0], cfg),
        ]
        for run in runs:
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DivergenceError) as exc:
                    run()
            assert exc.value.step == 1

    def test_inner_adapt_batch_equals_each_task(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(3, 9, 5))
        y = rng.integers(0, 3, size=(3, 9))
        w = np.stack([class_weights_from_labels(t, 3) for t in y])
        heads = [init_head(rng, 5, 3) for _ in range(3)]
        path = inner_adapt(h, y, stack_heads(heads), w, 0.4, 3, False)
        out, losses = path[-1], path_losses(h, y, w, path)
        assert len(losses) == 3 and all(len(step) == 3 for step in losses)
        for i, head in enumerate(heads):
            ref_path = inner_adapt(h[i], y[i], head, w[i], 0.4, 3, False)
            ref, ref_losses = ref_path[-1], path_losses(h[i], y[i], w[i], ref_path)
            assert [step[i] for step in losses] == ref_losses
            for p, q in zip(out, ref):
                assert np.array_equal(p.data[i].reshape(q.shape), q.data)

    def test_batch_divergence_reports_earliest_task_step(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(3, 8, 4))
        y = rng.integers(0, 2, size=(3, 8))
        w = np.stack([class_weights_from_labels(t, 2) for t in y])
        # Huge class weights overflow the loss or the step of one task only.
        w *= np.array([1.0, 10.0**306.8, 10.0**307.9])[:, None]
        heads = [init_head(rng, 4, 2) for _ in range(3)]

        def divergence_step(*args):
            try:
                inner_adapt(*args, 1.0, 6, False)
            except DivergenceError as e:
                return e.step
            return None

        with np.errstate(over="ignore", invalid="ignore"):
            single = [divergence_step(h[i], y[i], heads[i], w[i]) for i in range(3)]
            assert single[0] is None and single[1] > single[2]
            for batch in ([0, 1], [0, 1, 2], [2, 0]):
                got = divergence_step(h[batch], y[batch], stack_heads([heads[i] for i in batch]), w[batch])
                assert got == min(single[i] for i in batch if single[i] is not None)


class TestMetaGradients:
    @pytest.mark.parametrize("inner_steps", [1, 2, 3])
    def test_second_order_matches_finite_differences(self, inner_steps):
        model = tiny_model(seed=inner_steps)
        tcfg = SyntheticTaskConfig(
            n_features=4, stroke_classes=3, bank_size=4, support_size=6,
            query_size=4, include_no_stroke=False, seed=inner_steps,
        )
        tasks = take_tasks(synth_task_source(tcfg), 2)
        cfg = MamlConfig(alpha=0.05, inner_steps=inner_steps, order=2)
        shapes = param_shapes(model.head)

        def f(vec):
            head = unflatten_params(vec, shapes)
            return query_objective(model, head, tasks, cfg).item()

        vec0 = flatten_params(model.head)
        gs, _ = meta_gradients(model, model.head, tasks, cfg)
        analytic = np.concatenate([g.data.ravel() for g in gs])
        fd = central_difference(f, vec0, eps=1e-5)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30)
        assert rel < 1e-4

    def test_orders_agree_when_alpha_zero(self):
        model = tiny_model(seed=9)
        tcfg = SyntheticTaskConfig(
            n_features=4, stroke_classes=3, bank_size=4, support_size=6,
            query_size=4, include_no_stroke=False, seed=9,
        )
        tasks = take_tasks(synth_task_source(tcfg), 2)
        g1, l1 = meta_gradients(model, model.head, tasks, MamlConfig(alpha=0.0, order=1))
        g2, l2 = meta_gradients(model, model.head, tasks, MamlConfig(alpha=0.0, order=2))
        assert l1 == l2
        for a, b in zip(g1, g2):
            assert np.array_equal(a.data, b.data)
        # With no inner adaptation the meta-gradient is the plain gradient
        # of the mean query loss at the initialization.
        direct = None
        for task in tasks:
            qh = model.feature_map.apply(task.query_x)
            w = class_weights_from_labels(task.support_y, task.n_classes)
            ql = wce_loss(head_logits(qh, model.head), task.query_y, w)
            direct = ql if direct is None else direct + ql
        expected = grad(direct * 0.5, model.head)
        for a, b in zip(g1, expected):
            assert np.allclose(a.data, b.data, atol=1e-12)

    def test_orders_differ_with_adaptation(self):
        model = tiny_model(seed=10)
        tcfg = SyntheticTaskConfig(
            n_features=4, stroke_classes=3, bank_size=4, support_size=8,
            query_size=6, include_no_stroke=False, seed=10,
        )
        tasks = take_tasks(synth_task_source(tcfg), 2)
        g1, _ = meta_gradients(model, model.head, tasks, MamlConfig(alpha=0.5, order=1))
        g2, _ = meta_gradients(model, model.head, tasks, MamlConfig(alpha=0.5, order=2))
        diffs = [np.abs(a.data - b.data).max() for a, b in zip(g1, g2)]
        assert max(diffs) > 1e-8


class TestMetaUpdateAndTrain:
    def test_zero_beta_keeps_values(self):
        model = tiny_model(seed=11)
        tasks = take_tasks(synth_task_source(SyntheticTaskConfig(
            n_features=4, stroke_classes=3, bank_size=4, support_size=6,
            query_size=4, include_no_stroke=False, seed=11,
        )), 2)
        new_head, loss = meta_update(model, model.head, tasks, MamlConfig(beta=0.0))
        assert np.isfinite(loss)
        for p, q in zip(model.head, new_head):
            assert np.array_equal(p.data, q.data)
            assert q is not p

    def test_zero_epochs_is_identity(self):
        model = tiny_model(seed=12)
        before = [p.data.copy() for p in model.head]
        result = meta_train(model, synth_task_source(easy_task_config()), MamlConfig(epochs=0))
        assert result.curve == []
        for p, q in zip(before, model.head):
            assert np.array_equal(p, q.data)

    def test_feature_map_frozen(self):
        tcfg = easy_task_config(seed=13)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(13))
        w_before = model.feature_map.weight.copy()
        b_before = model.feature_map.bias.copy()
        meta_train(model, synth_task_source(tcfg),
                   MamlConfig(epochs=10, alpha=0.05, beta=0.05, inner_steps=2))
        assert np.array_equal(model.feature_map.weight, w_before)
        assert np.array_equal(model.feature_map.bias, b_before)

    def test_deterministic(self):
        def run():
            tcfg = easy_task_config(seed=14)
            model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(14))
            result = meta_train(model, synth_task_source(tcfg),
                                MamlConfig(epochs=15, alpha=0.05, beta=0.05, inner_steps=2))
            return result, model

        (a, model_a), (b, model_b) = run(), run()
        assert a.curve == b.curve
        for p, q in zip(model_a.head, model_b.head):
            assert np.array_equal(p.data, q.data)

    @pytest.mark.parametrize("order", [1, 2])
    def test_both_orders_learn(self, order):
        tcfg = easy_task_config(seed=15)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(15))
        cfg = MamlConfig(epochs=200, alpha=0.05, beta=0.05, inner_steps=2, order=order)
        result = meta_train(model, synth_task_source(tcfg), cfg)
        assert len(result.curve) == 200
        first = np.mean([q for _, q in result.curve[:20]])
        last = np.mean([q for _, q in result.curve[-20:]])
        assert last < first

    def test_orders_produce_different_heads(self):
        heads = []
        for order in (1, 2):
            tcfg = easy_task_config(seed=16)
            model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(16))
            cfg = MamlConfig(epochs=30, alpha=0.1, beta=0.05, inner_steps=2, order=order)
            meta_train(model, synth_task_source(tcfg), cfg)
            heads.append(model.head)
        assert any(
            not np.array_equal(p.data, q.data) for p, q in zip(heads[0], heads[1])
        )


class TestMetaTestAdapt:
    def test_trace_shape_and_determinism(self):
        tcfg = easy_task_config(seed=17)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(17))
        task = next(synth_task_source(tcfg))
        cfg = MamlConfig(alpha=0.1, inner_steps=3, adapt_iters=4)
        a = meta_test_adapt(model, task, cfg)
        b = meta_test_adapt(model, task, cfg)
        assert len(a.trace) == 4 * 3 + 1
        assert a.trace == b.trace
        assert not a.redimensioned
        assert 0.0 <= a.query_accuracy <= 1.0

    def test_zero_iters_returns_base(self):
        tcfg = easy_task_config(seed=18)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(18))
        task = next(synth_task_source(tcfg))
        out = meta_test_adapt(model, task, MamlConfig(adapt_iters=0))
        assert len(out.trace) == 1
        for p, q in zip(model.head, out.head):
            assert np.array_equal(p.data, q.data)

    def test_base_head_not_mutated(self):
        tcfg = easy_task_config(seed=19)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(19))
        before = [p.data.copy() for p in model.head]
        task = next(synth_task_source(tcfg))
        meta_test_adapt(model, task, MamlConfig(alpha=0.2, inner_steps=3, adapt_iters=5))
        for p, q in zip(before, model.head):
            assert np.array_equal(p, q.data)

    def test_support_loss_decreases(self):
        tcfg = easy_task_config(seed=20)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(20))
        task = next(synth_task_source(tcfg))
        out = meta_test_adapt(model, task, MamlConfig(alpha=0.3, inner_steps=3, adapt_iters=10))
        assert out.trace[-1][1] < out.trace[0][1]

    def test_redimensioning(self):
        tcfg = easy_task_config(seed=21, stroke_classes=4, bank_size=6)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(21))
        task = next(synth_task_source(tcfg))  # 4 classes vs 3-class head
        out = meta_test_adapt(model, task, MamlConfig(adapt_iters=0), redim_seed=5)
        assert out.redimensioned
        assert out.head[2].shape == (8, 4)
        # First layer carried over unchanged at zero adaptation.
        assert np.array_equal(out.head[0].data, model.head[0].data)
        # Redimensioning is reproducible given the seed.
        again = meta_test_adapt(model, task, MamlConfig(adapt_iters=0), redim_seed=5)
        assert np.array_equal(out.head[2].data, again.head[2].data)
        other = meta_test_adapt(model, task, MamlConfig(adapt_iters=0), redim_seed=6)
        assert not np.array_equal(out.head[2].data, other.head[2].data)

    @staticmethod
    def _overflowing_setup():
        # With a zero first layer and a large output layer the support
        # gradient is big enough that one step of size 1e308 overflows W1.
        tcfg = easy_task_config(seed=1, support_size=12, query_size=6)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(1))
        task = next(synth_task_source(tcfg))
        rng = np.random.default_rng(1)
        head = [
            Tensor(np.zeros((8, 8)), requires_grad=True),
            Tensor(np.zeros(8), requires_grad=True),
            Tensor(rng.normal(0.0, 10.0, size=(8, 3)), requires_grad=True),
            Tensor(np.zeros(3), requires_grad=True),
        ]
        return model, task, head

    def test_divergence_step_counts_across_repetitions(self):
        # Step 1 overflows the head.  The next step, the first of the second
        # repetition, detects it and must report the running step, not its
        # step within the repetition.
        model, task, head = self._overflowing_setup()
        cfg = MamlConfig(alpha=1e308, inner_steps=1, adapt_iters=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                meta_test_adapt(model, task, cfg, head=[head])
        assert exc.value.step == 2
        assert "diverged at inner step 2" in str(exc.value)

    def test_divergence_in_the_last_step_is_detected(self):
        # No later step looks at the head the only step overflowed; the
        # final check reports that step.  The saturated tanh kept the query
        # loss finite, so nothing else would notice the infinite W1.
        model, task, head = self._overflowing_setup()
        cfg = MamlConfig(alpha=1e308, inner_steps=1, adapt_iters=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                meta_test_adapt(model, task, cfg, head=[head])
        assert exc.value.step == 1

    def test_adaptation_on_training_distribution_reaches_high_accuracy(self):
        # Meta-train on an easy separable family, then adapt on a fresh task
        # from the same stream: the query set should be nearly solved.
        tcfg = easy_task_config(seed=22, noise_scale=0.02)
        model = SurrogateModel.create(tcfg.n_features, 16, 3, np.random.default_rng(22))
        stream = synth_task_source(tcfg)
        cfg = MamlConfig(epochs=150, alpha=0.2, beta=0.05, inner_steps=2,
                         adapt_iters=15, tasks_per_batch=4)
        meta_train(model, stream, cfg)
        accs = [meta_test_adapt(model, t, cfg).query_accuracy for t in take_tasks(stream, 3)]
        assert np.mean(accs) >= 0.95


def reference_meta_test_adapt(model, task, cfg, head=None, redim_seed=None, trace=True):
    """Test-time adaptation one plain gradient step at a time, scoring the
    trace after each step with its own forward passes; without ``trace``,
    only the final heads are scored.

    Divergence is numbered by the rule in ``inner_adapt``'s docstring: step
    k fails when the parameters, support logits, loss or gradients are not
    finite at its start, and non-finite final parameters fail the last step.
    Non-finite support or query logits on the trace fail step max(1, k) for
    the earliest such step k.
    """
    bases = [model.head] if head is None else list(head)
    rng = None
    starts = []
    for base in bases:
        if task.n_classes != head_n_classes(base):
            if rng is None:
                rng = np.random.default_rng(cfg.seed if redim_seed is None else redim_seed)
            base = with_new_head_output(base, rng, task.n_classes)
        starts.append(base)
    params = stack_heads(starts)

    n = len(bases)
    sh = model.feature_map.apply(task.support_x)
    qh = model.feature_map.apply(task.query_x)
    w = np.tile(class_weights_from_labels(task.support_y, task.n_classes), (n, 1))
    sy = np.tile(task.support_y, (n, 1))
    qy = np.tile(task.query_y, (n, 1))

    def losses(k, p):
        s_logits, q_logits = head_logits(sh, p).data, head_logits(qh, p).data
        if not (np.isfinite(s_logits).all() and np.isfinite(q_logits).all()):
            raise DivergenceError(max(1, k))
        return k, wce_loss(s_logits, sy, w).data, wce_loss(q_logits, qy, w).data

    def finite(*tensors):
        return all(np.isfinite(t.data).all() for t in tensors)

    steps = cfg.adapt_iters * cfg.inner_steps
    path = [params]
    for step in range(1, steps + 1):
        logits = head_logits(sh, params)
        if not finite(*params, logits):
            raise DivergenceError(step)
        loss = wce_loss(logits, sy, w)
        grads = grad(loss, params, grad_output=Tensor(np.ones(n)))
        if not finite(loss, *grads):
            raise DivergenceError(step)
        params = sgd_step(params, grads, cfg.alpha)
        path.append(params)
    if steps and not finite(*params):
        raise DivergenceError(steps)
    # The trace is scored once the steps are done, so a divergence among
    # them is reported before a non-finite trace row.
    rows = [losses(k, p) for k, p in enumerate(path) if trace or k == steps]

    predicted = np.argmax(head_logits(qh, params).data, axis=-1)
    results = [
        AdaptResult(
            head=unstack_head(params, i),
            trace=[(k, float(sup[i]), float(q[i])) for k, sup, q in rows],
            query_loss=float(rows[-1][2][i]),
            query_accuracy=float(np.mean(predicted[i] == task.query_y)),
            redimensioned=start is not base,
        )
        for i, (base, start) in enumerate(zip(bases, starts))
    ]
    return results[0] if head is None else results


def assert_same_adaptation(a, b):
    """Bitwise equality of two ``AdaptResult``s, NaN included."""
    assert np.array(a.trace).tobytes() == np.array(b.trace).tobytes()
    assert np.float64(a.query_loss).tobytes() == np.float64(b.query_loss).tobytes()
    assert a.query_accuracy == b.query_accuracy
    assert a.redimensioned == b.redimensioned
    for p, q in zip(a.head, b.head, strict=True):
        assert p.shape == q.shape
        assert p.data.tobytes() == q.data.tobytes()


class TestAgainstStepwiseReference:
    @pytest.mark.parametrize("adapt_iters, inner_steps", [(0, 3), (1, 1), (3, 2)])
    @pytest.mark.parametrize("task_classes", [3, 4])
    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_equals_stepwise_reference(self, adapt_iters, inner_steps, task_classes, n_heads):
        tcfg = easy_task_config(seed=28, stroke_classes=task_classes)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(28))
        task = next(synth_task_source(tcfg))
        cfg = MamlConfig(alpha=0.2, inner_steps=inner_steps, adapt_iters=adapt_iters)
        other = init_head(np.random.default_rng(29), 8, 3)
        head = None if n_heads == 1 else [model.head, other]
        got = meta_test_adapt(model, task, cfg, head=head, redim_seed=4)
        ref = reference_meta_test_adapt(model, task, cfg, head=head, redim_seed=4)
        if n_heads == 1:
            got, ref = [got], [ref]
        assert len(got) == len(ref) == n_heads
        assert got[0].redimensioned == (task_classes != 3)
        for a, b in zip(got, ref):
            assert len(a.trace) == adapt_iters * inner_steps + 1
            assert_same_adaptation(a, b)

    def test_divergence_step_equals_stepwise_reference(self):
        # Step 1 overflows W1; both report it at step 2, whose start sees it.
        model, task, head = TestMetaTestAdapt._overflowing_setup()
        cfg = MamlConfig(alpha=1e308, inner_steps=1, adapt_iters=3)
        for adapt in (meta_test_adapt, reference_meta_test_adapt):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DivergenceError) as exc:
                    adapt(model, task, cfg, head=[head])
            assert exc.value.step == 2

    @pytest.mark.parametrize("seed", [7, 1])
    def test_paired_eval_equals_stepwise_reference(self, seed, monkeypatch):
        tcfg = easy_task_config(seed=seed)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(seed))
        tasks = chained_tasks(tcfg, (2, 3, 4), 2)
        cfg = MamlConfig(alpha=0.2, inner_steps=3, adapt_iters=2)
        got = paired_few_shot_eval(model, tasks, cfg, baseline_seed=seed)
        monkeypatch.setattr(taalkit.maml, "meta_test_adapt", reference_meta_test_adapt)
        ref = paired_few_shot_eval(model, tasks, cfg, baseline_seed=seed)
        assert got.outcomes == ref.outcomes

    def test_one_inner_adapt_call_per_adaptation(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[5])
            return inner_adapt(*args)

        monkeypatch.setattr(taalkit.maml, "inner_adapt", counting)
        tcfg = easy_task_config(seed=30)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(30))
        task = next(synth_task_source(tcfg))
        cfg = MamlConfig(alpha=0.2, inner_steps=3, adapt_iters=4)
        meta_test_adapt(model, task, cfg)
        assert calls == [12]
        meta_test_adapt(model, task, cfg, head=[model.head, init_head(np.random.default_rng(31), 8, 3)])
        assert calls == [12, 12]
        paired_few_shot_eval(model, [task, task], cfg)
        assert calls == [12, 12, 12, 12]

    def test_paired_eval_scores_only_the_adapted_heads(self, monkeypatch):
        # Each wce_loss call in meta_test_adapt scores one stacked pass; its
        # leading axis counts the heads scored.  inner_adapt's steps apply
        # prebuilt loss targets instead.
        scored = []

        def counting(logits, labels, weights):
            scored.append(np.shape(logits)[0])
            return wce_loss(logits, labels, weights)

        monkeypatch.setattr(taalkit.maml, "wce_loss", counting)
        tcfg = easy_task_config(seed=30)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(30))
        task = next(synth_task_source(tcfg))
        cfg = MamlConfig(alpha=0.2, inner_steps=3, adapt_iters=4)
        meta_test_adapt(model, task, cfg, head=[model.head, init_head(np.random.default_rng(31), 8, 3)])
        assert scored == [(4 * 3 + 1) * 2] * 2
        scored.clear()
        paired_few_shot_eval(model, [task, task], cfg)
        assert scored == [2] * 4  # support and query, two heads, per task


class TestStackedAdaptation:
    @pytest.mark.parametrize("task_classes", [3, 4])
    def test_equals_separate_calls(self, task_classes):
        tcfg = easy_task_config(seed=25, stroke_classes=task_classes)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(25))
        task = next(synth_task_source(tcfg))
        cfg = MamlConfig(alpha=0.2, inner_steps=2, adapt_iters=3)
        other = init_head(np.random.default_rng(26), 8, task.n_classes)
        both = meta_test_adapt(model, task, cfg, head=[model.head, other], redim_seed=4)
        separate = [
            meta_test_adapt(model, task, cfg, redim_seed=4),
            *meta_test_adapt(model, task, cfg, head=[other]),
        ]
        assert both[0].redimensioned == (task_classes != 3)
        assert not both[1].redimensioned
        for a, b in zip(both, separate):
            assert a.trace == b.trace
            assert a.query_loss == b.query_loss
            assert a.query_accuracy == b.query_accuracy
            assert a.redimensioned == b.redimensioned
            for p, q in zip(a.head, b.head):
                assert p.shape == q.shape
                assert np.array_equal(p.data, q.data)

    def test_divergence_of_one_head_stops_the_batch(self):
        tcfg = easy_task_config(seed=1, support_size=12, query_size=6)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(1))
        task = next(synth_task_source(tcfg))
        rng = np.random.default_rng(1)
        wild = [
            Tensor(np.zeros((8, 8)), requires_grad=True),
            Tensor(np.zeros(8), requires_grad=True),
            Tensor(rng.normal(0.0, 10.0, size=(8, 3)), requires_grad=True),
            Tensor(np.zeros(3), requires_grad=True),
        ]
        cfg = MamlConfig(alpha=1e308, inner_steps=1, adapt_iters=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                meta_test_adapt(model, task, cfg, head=[model.head, wild])
        assert exc.value.step == 2


class TestUntracedAdaptation:
    @pytest.mark.parametrize("adapt_iters, inner_steps", [(0, 3), (3, 2)])
    @pytest.mark.parametrize("task_classes", [3, 4], ids=["same-classes", "redrawn-output"])
    @pytest.mark.parametrize("n_heads", [1, 2])
    def test_equals_traced_run(self, adapt_iters, inner_steps, task_classes, n_heads):
        tcfg = easy_task_config(seed=32, stroke_classes=task_classes)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(32))
        task = next(synth_task_source(tcfg))
        cfg = MamlConfig(alpha=0.2, inner_steps=inner_steps, adapt_iters=adapt_iters)
        head = None if n_heads == 1 else [model.head, init_head(np.random.default_rng(33), 8, 3)]
        runs = [meta_test_adapt(model, task, cfg, head=head, redim_seed=4, trace=trace) for trace in (True, False)]
        refs = [reference_meta_test_adapt(model, task, cfg, head=head, redim_seed=4, trace=trace)
                for trace in (True, False)]
        traced, untraced, _, ref_untraced = [[r] if n_heads == 1 else r for r in runs + refs]
        assert untraced[0].redimensioned == (task_classes != 3)
        for a, b, ref in zip(traced, untraced, ref_untraced, strict=True):
            assert b.trace == [a.trace[-1]]
            assert b.trace[0][0] == adapt_iters * inner_steps
            assert_same_adaptation(dataclasses.replace(a, trace=b.trace), b)
            assert_same_adaptation(b, ref)

    @pytest.mark.parametrize("adapt_iters, step", [(1, 1), (2, 2)])
    def test_divergence_step_equals_traced_run(self, adapt_iters, step):
        # One step leaves finite parameters whose query logits overflow:
        # scored as the final heads, at step 1; a second step diverges in
        # inner_adapt, before any head is scored.
        model, tasks = TestBatchedObjective._query_overflow_setup()
        cfg = MamlConfig(alpha=1.3732021482183925e308, inner_steps=1, adapt_iters=adapt_iters)
        for adapt in (meta_test_adapt, reference_meta_test_adapt):
            for trace in (True, False):
                with np.errstate(over="ignore", invalid="ignore"):
                    with pytest.raises(DivergenceError) as exc:
                        adapt(model, tasks[0], cfg, trace=trace)
                assert exc.value.step == step

    def test_untraced_run_reports_final_logits_at_the_last_step(self):
        # The unit is 0 on the support frame and near 1 on the query frame,
        # so the huge output layer overflows only the query logits.  No
        # step moves the head (alpha 0): a traced run reports its first
        # head, an untraced one its final head at step 4.
        model, tasks = TestBatchedObjective._query_overflow_setup()
        task = tasks[0]
        hs, hq = model.feature_map.apply(task.support_x)[0, 0], model.feature_map.apply(task.query_x)[0, 0]
        k = 50.0 * np.sign(hq - hs) / abs(hq - hs)
        big = np.full((1, task.n_classes), 1.7e308)
        head = [Tensor(a, requires_grad=True) for a in (np.array([[k]]), np.array([-k * hs]), big, big[0])]
        cfg = MamlConfig(alpha=0.0, inner_steps=2, adapt_iters=2)
        for adapt in (meta_test_adapt, reference_meta_test_adapt):
            for trace, step in ((True, 1), (False, 4)):
                with np.errstate(over="ignore", invalid="ignore"):
                    with pytest.raises(DivergenceError) as exc:
                        adapt(model, task, cfg, head=[head], trace=trace)
                assert exc.value.step == step


def reference_paired_eval(model, tasks, cfg, baseline_seed):
    """Both arms adapted by separate single-head calls."""
    rows = []
    for task in tasks:
        meta = meta_test_adapt(model, task, cfg, redim_seed=_pair_seed(baseline_seed, task.task_id, 0))
        rng = np.random.default_rng(_pair_seed(baseline_seed, task.task_id, 1))
        (rand,) = meta_test_adapt(model, task, cfg, head=[init_head(rng, model.hidden, task.n_classes)])
        rows.append((meta.query_loss, rand.query_loss, meta.query_accuracy, rand.query_accuracy))
    return rows


class TestPairedEval:
    @pytest.mark.parametrize("stroke_classes", [(3,), (2, 3, 4)], ids=["one-count", "mixed-counts"])
    def test_equals_separate_arms(self, stroke_classes):
        tcfg = easy_task_config(seed=27)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(27))
        tasks = chained_tasks(tcfg, stroke_classes, 6 // len(stroke_classes))
        cfg = MamlConfig(alpha=0.2, inner_steps=2, adapt_iters=3)
        got = paired_few_shot_eval(model, tasks, cfg, baseline_seed=3)
        rows = [(o.meta_loss, o.random_loss, o.meta_accuracy, o.random_accuracy) for o in got.outcomes]
        assert rows == reference_paired_eval(model, tasks, cfg, baseline_seed=3)

    def test_structure_and_determinism(self):
        tcfg = easy_task_config(seed=23)
        model = SurrogateModel.create(tcfg.n_features, 8, 3, np.random.default_rng(23))
        tasks = take_tasks(synth_task_source(tcfg), 5)
        cfg = MamlConfig(alpha=0.1, inner_steps=2, adapt_iters=3)
        a = paired_few_shot_eval(model, tasks, cfg, baseline_seed=1)
        b = paired_few_shot_eval(model, tasks, cfg, baseline_seed=1)
        assert a.n_tasks == 5
        assert [o.task_id for o in a.outcomes] == [t.task_id for t in tasks]
        assert a.wins == sum(o.meta_loss < o.random_loss for o in a.outcomes)
        assert a.win_rate == a.wins / 5
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert oa.meta_loss == ob.meta_loss
            assert oa.random_loss == ob.random_loss

    def test_trained_init_beats_random_on_easy_family(self):
        tcfg = easy_task_config(seed=24, noise_scale=0.02)
        model = SurrogateModel.create(tcfg.n_features, 16, 3, np.random.default_rng(24))
        stream = synth_task_source(tcfg)
        cfg = MamlConfig(epochs=150, alpha=0.2, beta=0.05, inner_steps=2,
                         adapt_iters=5, tasks_per_batch=4)
        meta_train(model, stream, cfg)
        comparison = paired_few_shot_eval(model, take_tasks(stream, 10), cfg, baseline_seed=24)
        assert comparison.win_rate >= 0.8
        assert comparison.mean_meta_loss < comparison.mean_random_loss


def count_tensors(monkeypatch):
    """Count ``Tensor.__init__`` calls from now on; returns the running count."""
    built = [0]
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    return built


class TestBudgets:
    """Work and memory limits in the maml-demo configuration at seed 7.

    The tensor counts are exact and do not depend on the machine; a change
    that moves one says so.
    """

    @staticmethod
    def _demo(hidden=32, features=20, support=32, query=8):
        # Seeded as maml-demo seeds its model and tasks; 6 + 1 classes.
        task_cfg = SyntheticTaskConfig(n_features=features, support_size=support, query_size=query, seed=7)
        rng = np.random.default_rng(np.random.SeedSequence([7, 99]))
        model = SurrogateModel.create(features, hidden, task_cfg.task_classes(task_cfg.stroke_classes), rng)
        return model, synth_task_source(task_cfg)

    @pytest.mark.parametrize("order, budget", [(2, 173), (1, 107)])
    def test_tensors_per_epoch(self, monkeypatch, order, budget):
        model, source = self._demo()
        built = count_tensors(monkeypatch)
        per_epoch = []
        update = taalkit.maml.meta_update

        def counted(*args):
            start = built[0]
            out = update(*args)
            per_epoch.append(built[0] - start)
            return out

        monkeypatch.setattr(taalkit.maml, "meta_update", counted)
        meta_train(model, source, MamlConfig(epochs=3, order=order, seed=7))
        assert len(per_epoch) == 3
        assert max(per_epoch) <= budget

    def test_tensors_per_paired_task(self, monkeypatch):
        model, source = self._demo()
        tasks = take_tasks(source, 2)
        built = count_tensors(monkeypatch)
        for task in tasks:
            start = built[0]
            paired_few_shot_eval(model, [task], MamlConfig(seed=7), baseline_seed=7)
            assert built[0] - start <= 756

    @pytest.mark.parametrize(
        "hidden, features, support, query, inner_steps",
        # At hidden 1 and 8, 40 task-steps make the peaks grow with steps
        # rather than sit on a call's fixed objects.
        [(1, 1, 1, 1, 10), (8, 1, 1, 1, 10), (128, 1, 1, 1, 3), (32, 20, 32, 8, 3)],
        ids=["hidden-1", "hidden-8", "hidden-128", "default"],
    )
    def test_peak_memory_within_the_cli_caps(self, hidden, features, support, query, inner_steps):
        # maml-demo caps these products of a step's values.  On Linux x86-64
        # (Python 3.11, numpy 2.4) the peaks were 5.8-7.2 and 1.1-2.9 times
        # 8 B times each product.
        model, source = self._demo(hidden=hidden, features=features, support=support, query=query)
        cfg = MamlConfig(inner_steps=inner_steps, seed=7)
        step = step_values(hidden, head_n_classes(model.head), support + query)
        batch, (task,) = take_tasks(source, cfg.tasks_per_batch), take_tasks(source, 1)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        meta_batch = peak(lambda: meta_update(model, model.head, batch, cfg))
        assert meta_batch <= 8.0 * 8 * cfg.inner_steps * cfg.tasks_per_batch * step
        paired = peak(lambda: paired_few_shot_eval(model, [task], cfg, baseline_seed=7))
        assert paired <= 3.3 * 8 * (cfg.adapt_iters * cfg.inner_steps + 1) * 2 * step
