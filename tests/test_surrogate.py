"""Tests for the surrogate classifier, weighted loss, and SGD helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import central_difference, flatten_params, param_shapes, unflatten_params
from taalkit.autodiff import Tensor, grad
from taalkit.surrogate import (
    PROB_FLOOR,
    FrozenFeatureMap,
    SurrogateModel,
    class_weights,
    class_weights_from_labels,
    head_logits,
    head_n_classes,
    init_head,
    sgd_step,
    stack_heads,
    tile_head,
    unstack_head,
    wce_from_targets,
    wce_loss,
    wce_targets,
    with_new_head_output,
)


def model_logits(model, x):
    return head_logits(model.feature_map.apply(x), model.head)


def softmax(z):
    """Row-wise softmax in plain numpy, stabilized by the row maximum."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestFeatureMap:
    def test_deterministic_by_seed(self):
        a = FrozenFeatureMap.create(np.random.default_rng(7), 5, 8)
        b = FrozenFeatureMap.create(np.random.default_rng(7), 5, 8)
        assert np.array_equal(a.weight, b.weight)
        assert np.array_equal(a.bias, b.bias)

    def test_output_shape_and_range(self):
        fmap = FrozenFeatureMap.create(np.random.default_rng(0), 5, 8)
        out = fmap.apply(np.random.default_rng(1).normal(size=(10, 5)))
        assert out.shape == (10, 8)
        assert np.all(np.abs(out) <= 1.0)

    def test_wrong_width_rejected(self):
        fmap = FrozenFeatureMap.create(np.random.default_rng(0), 5, 8)
        with pytest.raises(ValueError):
            fmap.apply(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            fmap.apply(np.zeros(5))


class TestHead:
    def test_init_shapes(self):
        params = init_head(np.random.default_rng(0), hidden=8, n_classes=3)
        assert [p.shape for p in params] == [(8, 8), (8,), (8, 3), (3,)]
        assert np.all(params[1].data == 0)
        assert np.all(params[3].data == 0)
        assert all(p.requires_grad for p in params)
        assert head_n_classes(params) == 3

    def test_n_classes_of_a_stacked_head(self):
        # A stacked head's output weight is (B, hidden, n_classes).
        head = init_head(np.random.default_rng(7), hidden=8, n_classes=3)
        assert head_n_classes(head) == 3
        assert head_n_classes(stack_heads([head, head])) == 3

    def test_forward_matches_numpy(self):
        rng = np.random.default_rng(1)
        params = init_head(rng, 6, 4)
        h = rng.normal(size=(5, 6))
        out = head_logits(h, params).data
        w1, b1, w2, b2 = (p.data for p in params)
        ref = np.tanh(h @ w1 + b1) @ w2 + b2
        assert np.allclose(out, ref)

    def test_stack_and_unstack_copy(self):
        rng = np.random.default_rng(2)
        heads = [init_head(rng, 4, 2), init_head(rng, 4, 2)]
        for p in heads[1]:
            p.data[...] = rng.normal(size=p.shape)
        stacked = stack_heads(heads)
        assert [p.shape for p in stacked] == [(2, 4, 4), (2, 1, 4), (2, 4, 2), (2, 1, 2)]
        assert all(p.requires_grad for p in stacked)
        for i, head in enumerate(heads):
            back = unstack_head(stacked, i)
            for p, q in zip(head, back):
                assert q.shape == p.shape
                assert np.array_equal(p.data, q.data)
            back[0].data[0, 0] += 100.0
            stacked[2].data[i, 0, 0] += 100.0
            assert head[0].data[0, 0] != back[0].data[0, 0]
            assert head[2].data[0, 0] != stacked[2].data[i, 0, 0]

    def test_batched_forward_equals_each_head(self):
        rng = np.random.default_rng(5)
        heads = [init_head(rng, 6, 3) for _ in range(3)]
        for head in heads:
            head[1].data[...] = rng.normal(size=6)
        shared = rng.normal(size=(5, 6))
        per_task = rng.normal(size=(3, 5, 6))
        stacked = stack_heads(heads)
        both = head_logits(shared, stacked).data
        each = head_logits(per_task, stacked).data
        assert both.shape == each.shape == (3, 5, 3)
        for i, head in enumerate(heads):
            assert np.array_equal(both[i], head_logits(shared, head).data)
            assert np.array_equal(each[i], head_logits(per_task[i], head).data)

    def test_tiled_head_gradients_reach_the_shared_head(self):
        rng = np.random.default_rng(6)
        head = init_head(rng, 4, 3)
        h = rng.normal(size=(2, 5, 4))
        tiled = tile_head(head, 2)
        assert [p.shape for p in tiled] == [(2, 4, 4), (2, 1, 4), (2, 4, 3), (2, 1, 3)]
        shared = grad(head_logits(h, tiled).tanh().sum(), head)
        loop = [grad(head_logits(h[i], head).tanh().sum(), head) for i in range(2)]
        for g, g0, g1 in zip(shared, *loop):
            assert np.allclose(g.data, g0.data + g1.data, rtol=1e-12, atol=1e-15)

    def test_with_new_head_output(self):
        params = init_head(np.random.default_rng(3), 4, 2)
        redim = with_new_head_output(params, np.random.default_rng(4), 6)
        assert np.array_equal(redim[0].data, params[0].data)
        assert np.array_equal(redim[1].data, params[1].data)
        assert redim[2].shape == (4, 6)
        assert np.all(redim[3].data == 0)
        assert head_n_classes(redim) == 6


class TestClassWeights:
    def test_balanced_counts_give_unit_weights(self):
        assert np.allclose(class_weights(np.array([10, 10])), [1.0, 1.0])

    def test_three_to_one_imbalance(self):
        assert np.allclose(class_weights(np.array([30, 10])), [0.5, 1.5])

    def test_zero_count_gets_max_weight(self):
        w = class_weights(np.array([5, 0]))
        # The absent class inherits the largest computed weight; after
        # normalization both end up at 1.
        assert np.allclose(w, [1.0, 1.0])

    def test_zero_count_with_three_classes(self):
        w = class_weights(np.array([10, 30, 0]))
        assert w[2] == max(w)
        assert np.mean(w) == pytest.approx(1.0)
        assert w[0] > w[1]

    def test_nine_to_one_ratio(self):
        w = class_weights(np.array([90, 10]))
        assert w[1] / w[0] == pytest.approx(9.0)
        assert np.mean(w) == pytest.approx(1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            class_weights(np.array([0, 0]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            class_weights(np.array([3, -1]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_weights(np.array([], dtype=np.int64))

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=9).filter(lambda v: any(v)))
    @settings(max_examples=200, deadline=None)
    def test_mean_is_always_one(self, counts):
        w = class_weights(np.asarray(counts))
        assert np.mean(w) == pytest.approx(1.0)
        assert np.all(w > 0)

    def test_from_labels(self):
        labels = np.array([0, 0, 0, 1])
        assert np.allclose(class_weights_from_labels(labels, 2), class_weights(np.array([3, 1])))
        # 90/10 labels weigh 1:9, inverting the imbalance.
        w = class_weights_from_labels(np.array([0] * 90 + [1] * 10), 2)
        assert w[1] / w[0] == pytest.approx(9.0)
        # Classes beyond the observed max still count as absent classes.
        w = class_weights_from_labels(np.array([0, 0]), 3)
        assert len(w) == 3


class TestWceLoss:
    def test_uniform_logits_give_log_c(self):
        logits = np.zeros((5, 4))
        labels = np.array([0, 1, 2, 3, 0])
        loss = wce_loss(logits, labels, np.ones(4))
        assert loss.item() == pytest.approx(np.log(4.0))

    def test_weighted_hand_example(self):
        # Two frames, two classes; p(correct) = [0.8, 0.2]; weights [2, 1]:
        # mean(2*(-ln 0.8), 1*(-ln 0.2)*0)... frame 1: w=2, -ln 0.8;
        # frame 2: w=1, -ln 0.2 -> (2*0.22314 + 1*1.60944)/2 = 0.44628*2...
        p = np.array([[0.8, 0.2], [0.2, 0.8]])
        logits = np.log(p)
        labels = np.array([0, 0])
        loss = wce_loss(logits, labels, np.array([2.0, 1.0]))
        expected = (2.0 * -np.log(0.8) + 2.0 * -np.log(0.2)) / 2.0
        assert loss.item() == pytest.approx(expected)

    def test_spec_value_for_single_frame(self):
        # One frame with p = [0.8, 0.2], true class 0, weights [2, 1]:
        # loss = 2 * -ln(0.8) = 0.4463.
        logits = np.log(np.array([[0.8, 0.2]]))
        loss = wce_loss(logits, np.array([0]), np.array([2.0, 1.0]))
        assert loss.item() == pytest.approx(0.44628710262841953)

    def test_confident_correct_is_near_zero(self):
        logits = np.array([[50.0, 0.0], [0.0, 50.0]])
        loss = wce_loss(logits, np.array([0, 1]), np.ones(2))
        assert 0.0 <= loss.item() < 1e-12

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            logits = rng.normal(scale=5.0, size=(6, 3))
            labels = rng.integers(0, 3, 6)
            w = class_weights_from_labels(labels, 3)
            assert wce_loss(logits, labels, w).item() >= 0.0

    def test_probability_floor_bounds_loss(self):
        logits = np.array([[-2000.0, 2000.0]])
        loss = wce_loss(logits, np.array([0]), np.ones(2))
        assert loss.item() <= -np.log(PROB_FLOOR) + 1e-9
        assert np.isfinite(loss.item())

    def test_nan_and_inf_rejected(self):
        labels = np.array([0])
        with pytest.raises(ValueError):
            wce_loss(np.array([[np.nan, 0.0]]), labels, np.ones(2))
        with pytest.raises(ValueError):
            wce_loss(np.array([[np.inf, 0.0]]), labels, np.ones(2))
        with pytest.raises(ValueError):
            wce_loss(np.array([[0.0, 0.0]]), labels, np.array([np.nan, 1.0]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            wce_loss(np.zeros((2, 3)), np.array([0]), np.ones(3))
        with pytest.raises(ValueError):
            wce_loss(np.zeros((2, 3)), np.array([0, 1]), np.ones(2))
        with pytest.raises(ValueError):
            wce_loss(np.zeros((2, 3)), np.array([0, 3]), np.ones(3))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        logits0 = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 2])
        weights = class_weights_from_labels(labels, 3)

        def f_np(z):
            return wce_loss(z, labels, weights).item()

        zt = Tensor(logits0, requires_grad=True)
        (g,) = grad(wce_loss(zt, labels, weights), [zt])
        fd = central_difference(f_np, logits0, eps=1e-5)
        rel = np.linalg.norm(g.data - fd) / max(np.linalg.norm(fd), 1e-30)
        assert rel < 1e-6

    @staticmethod
    def _gradcheck_case(batched):
        # Frame 0 has extreme logits but a live label; frame 1 sits far
        # below the probability floor, so its gradient must vanish.
        rng = np.random.default_rng(9)
        lead = (2,) if batched else ()
        z = rng.normal(scale=2.0, size=lead + (5, 3))
        y = rng.integers(0, 3, size=lead + (5,))
        z[..., 0, :] = [1e3, 1e3 - 1.0, -1e3]
        y[..., 0] = 1
        z[..., 1, :] = [-1e3, 1e3, 0.0]
        y[..., 1] = 0
        w = np.stack([class_weights_from_labels(row, 3) for row in y.reshape(-1, 5)])
        return z, y, w.reshape(lead + (3,))

    @pytest.mark.parametrize("batched", [False, True], ids=["2d", "batched"])
    def test_first_derivative_matches_central_differences(self, batched):
        z0, y, w = self._gradcheck_case(batched)
        zt = Tensor(z0, requires_grad=True)
        (g,) = grad(wce_loss(zt, y, w).sum(), [zt])
        fd = central_difference(lambda z: wce_loss(z, y, w).sum().item(), z0)
        assert np.allclose(g.data, fd, rtol=1e-6, atol=1e-9)
        assert np.array_equal(g.data[..., 1, :], np.zeros_like(z0[..., 1, :]))
        assert np.abs(g.data[..., 0, :]).max() > 0.01

    @pytest.mark.parametrize("batched", [False, True], ids=["2d", "batched"])
    def test_second_derivative_matches_central_differences(self, batched):
        # Hessian-vector products through the loss node's backward rule
        # against central differences of its first derivative.
        z0, y, w = self._gradcheck_case(batched)
        v = np.random.default_rng(10).normal(size=z0.shape)

        def gdotv(z):
            zt = Tensor(z, requires_grad=True)
            (g,) = grad(wce_loss(zt, y, w).sum(), [zt])
            return float((g.data * v).sum())

        zt = Tensor(z0, requires_grad=True)
        (g1,) = grad(wce_loss(zt, y, w).sum(), [zt], create_graph=True)
        (hv,) = grad((g1 * Tensor(v)).sum(), [zt])
        assert np.allclose(hv.data, central_difference(gdotv, z0), rtol=1e-5, atol=1e-8)
        assert np.array_equal(hv.data[..., 1, :], np.zeros_like(z0[..., 1, :]))
        assert np.abs(hv.data[..., 0, :]).max() > 0.01

    def test_batched_equals_each_task(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(scale=3.0, size=(3, 7, 4))
        labels = rng.integers(0, 4, size=(3, 7))
        weights = np.stack([class_weights_from_labels(y, 4) for y in labels])
        zt = Tensor(logits, requires_grad=True)
        batched = wce_loss(zt, labels, weights)
        assert batched.shape == (3,)
        (g,) = grad(batched, [zt], grad_output=Tensor(np.ones(3)))
        for i in range(3):
            zi = Tensor(logits[i], requires_grad=True)
            single = wce_loss(zi, labels[i], weights[i])
            assert single.shape == ()
            assert batched.data[i] == single.item()
            assert np.array_equal(g.data[i], grad(single, [zi])[0].data)

    def test_batched_shape_validation(self):
        with pytest.raises(ValueError):
            wce_loss(np.zeros((2, 3, 4)), np.zeros(3, dtype=int), np.ones((2, 4)))
        with pytest.raises(ValueError):
            wce_loss(np.zeros((2, 3, 4)), np.zeros((2, 3), dtype=int), np.ones(4))
        with pytest.raises(ValueError):
            wce_loss(np.zeros((1, 2, 3, 4)), np.zeros((1, 2, 3), dtype=int), np.ones((1, 2, 4)))

    @staticmethod
    def _loss_and_grads(loss, z, create_graph):
        """The loss value, its vjp under ones, and at order 2 the vjp of
        that gradient's sum of squares, as arrays."""
        (g,) = grad(loss, [z], grad_output=Tensor(np.ones(loss.shape)), create_graph=create_graph)
        out = [loss.data, g.data]
        if create_graph:
            out.append(grad((g * g).sum(), [z])[0].data)
        return out

    @given(
        lead=st.sampled_from([(), (1,), (3,)]),
        frames=st.integers(1, 6),
        classes=st.integers(1, 4),
        scale=st.sampled_from([1.0, 30.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
        create_graph=st.booleans(),
    )
    @settings(max_examples=150)
    def test_targets_built_once_equal_wce_loss(self, lead, frames, classes, scale, seed, create_graph):
        # Targets are built once and applied to several logits, as in
        # `inner_adapt`; each application equals a fresh `wce_loss` bitwise.
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, classes, size=lead + (frames,))
        weights = rng.uniform(0.1, 5.0, size=lead + (classes,))
        targets = wce_targets(lead + (frames, classes), labels, weights)
        for _ in range(3):
            z0 = rng.normal(scale=scale, size=lead + (frames, classes))
            za, zb = Tensor(z0, requires_grad=True), Tensor(z0, requires_grad=True)
            got = self._loss_and_grads(wce_from_targets(za, targets), za, create_graph)
            want = self._loss_and_grads(wce_loss(zb, labels, weights), zb, create_graph)
            for a, b in zip(got, want, strict=True):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_targets_check_as_wce_loss_does(self):
        cases = [
            ((2, 3), np.array([0]), np.ones(3)),
            ((2, 3), np.array([0, 1]), np.ones(2)),
            ((2, 3), np.array([0, 3]), np.ones(3)),
            ((2, 3), np.array([0, 1]), np.array([np.nan, 1.0, 1.0])),
            ((2, 3, 4), np.zeros(3, dtype=int), np.ones((2, 4))),
            ((1, 2, 3, 4), np.zeros((1, 2, 3), dtype=int), np.ones((1, 2, 4))),
        ]
        for shape, labels, weights in cases:
            with pytest.raises(ValueError) as built:
                wce_targets(shape, labels, weights)
            with pytest.raises(ValueError) as loss:
                wce_loss(np.zeros(shape), labels, weights)
            assert str(built.value) == str(loss.value)

    def test_targets_reject_logits_of_another_shape(self):
        targets = wce_targets((2, 3), np.array([0, 1]), np.ones(3))
        with pytest.raises(ValueError, match="do not match loss targets"):
            wce_from_targets(Tensor(np.zeros((3, 3))), targets)


class TestWceLossProbs:
    def test_matches_logit_form(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, 5)
        weights = class_weights_from_labels(labels, 3)
        probs = softmax(logits)  # (T, C)
        onehot = np.zeros((3, 5))
        onehot[labels, np.arange(5)] = 1.0
        a = wce_loss(logits, labels, weights).item()
        logp = np.log(np.clip(probs.T, PROB_FLOOR, None))
        b = float(-(weights[:, None] * onehot * logp).sum() / 5)
        assert b == pytest.approx(a, rel=1e-9)

    def test_hand_example(self):
        # Log-probabilities as logits: softmax gives back [0.8, 0.2].
        out = wce_loss(np.log([[0.8, 0.2]]), np.array([0]), np.array([2.0, 1.0])).item()
        assert out == pytest.approx(0.44628710262841953)


class TestSgdStep:
    def test_hand_example(self):
        params = [Tensor(np.array([1.0, 2.0]), requires_grad=True)]
        grads = [Tensor(np.array([1.0, -1.0]))]
        (out,) = sgd_step(params, grads, lr=0.5)
        assert np.allclose(out.data, [0.5, 2.5])

    def test_zero_lr_identity(self):
        params = [Tensor(np.array([3.0]), requires_grad=True)]
        (out,) = sgd_step(params, [Tensor(np.array([9.0]))], lr=0.0)
        assert np.allclose(out.data, params[0].data)

    def test_geometric_decay_on_quadratic(self):
        # For loss |p|^2/2 the gradient is p, so p_k = (1-lr)^k p_0.
        p = [Tensor(np.array([2.0, -4.0]), requires_grad=True)]
        lr = 0.25
        for _ in range(5):
            p = sgd_step(p, [Tensor(p[0].data)], lr)
        assert np.allclose(p[0].data, (1 - lr) ** 5 * np.array([2.0, -4.0]))

    def test_functional_and_differentiable(self):
        # sgd_step must not mutate its inputs, and the update must stay
        # attached to the graph so meta-gradients can flow through it.
        p0 = Tensor(np.array([1.0]), requires_grad=True)
        g0 = Tensor(np.array([2.0])) * p0  # grads that depend on p0
        (out,) = sgd_step([p0], [g0], 0.1)
        assert out is not p0
        assert np.allclose(p0.data, [1.0])
        (meta,) = grad(out.sum(), [p0])
        assert meta.item() == pytest.approx(1.0 - 0.1 * 2.0)


class TestParamFlattening:
    def test_round_trip(self):
        params = init_head(np.random.default_rng(8), 5, 3)
        vec = flatten_params(params)
        shapes = param_shapes(params)
        back = unflatten_params(vec, shapes)
        for p, q in zip(params, back):
            assert np.array_equal(p.data, q.data)
            assert q.requires_grad

    def test_wrong_size_rejected(self):
        params = init_head(np.random.default_rng(8), 5, 3)
        with pytest.raises(ValueError):
            unflatten_params(np.zeros(3), param_shapes(params))


class TestSurrogateModel:
    def test_create_and_predict(self):
        model = SurrogateModel.create(6, 8, 3, np.random.default_rng(9))
        x = np.random.default_rng(10).normal(size=(4, 6))
        assert model_logits(model, x).shape == (4, 3)

    def test_probabilities_sum_to_one(self):
        model = SurrogateModel.create(6, 8, 3, np.random.default_rng(11))
        x = np.random.default_rng(12).normal(scale=30.0, size=(16, 6))
        probs = softmax(model_logits(model, x).data)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)

    def test_deterministic_by_seed(self):
        a = SurrogateModel.create(6, 8, 3, np.random.default_rng(13))
        b = SurrogateModel.create(6, 8, 3, np.random.default_rng(13))
        assert np.array_equal(a.head[2].data, b.head[2].data)
        x = np.zeros((2, 6))
        assert np.array_equal(model_logits(a, x).data, model_logits(b, x).data)
