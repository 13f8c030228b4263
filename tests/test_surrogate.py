"""Tests for the surrogate classifier, weighted loss, and SGD helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import central_difference, flatten_params, param_shapes, unflatten_params
from taalkit.autodiff import Tensor, grad, softmax
from taalkit.surrogate import (
    PROB_FLOOR,
    FrozenFeatureMap,
    SurrogateModel,
    class_weights,
    class_weights_from_labels,
    clone_head,
    head_logits,
    head_n_classes,
    init_head,
    load_model,
    save_model,
    sgd_step,
    wce_loss,
    with_new_head_output,
)


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

    def test_forward_matches_numpy(self):
        rng = np.random.default_rng(1)
        params = init_head(rng, 6, 4)
        h = rng.normal(size=(5, 6))
        out = head_logits(h, params).data
        w1, b1, w2, b2 = (p.data for p in params)
        ref = np.tanh(h @ w1 + b1) @ w2 + b2
        assert np.allclose(out, ref)

    def test_clone_is_independent(self):
        params = init_head(np.random.default_rng(2), 4, 2)
        cloned = clone_head(params)
        cloned[0].data[0, 0] += 100.0
        assert params[0].data[0, 0] != cloned[0].data[0, 0]

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


class TestWceLossProbs:
    def test_matches_logit_form(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, 5)
        weights = class_weights_from_labels(labels, 3)
        probs = softmax(Tensor(logits), axis=1).data  # (T, C)
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

    def test_nonfinite_gradient_rejected(self):
        params = [Tensor(np.array([1.0]), requires_grad=True)]
        with pytest.raises(ValueError, match="non-finite"):
            sgd_step(params, [Tensor(np.array([np.nan]))], 0.1)
        with pytest.raises(ValueError, match="non-finite"):
            sgd_step(params, [Tensor(np.array([np.inf]))], 0.1)


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
        logits = model.logits(x)
        assert logits.shape == (4, 3)
        pred = model.predict(x)
        assert pred.shape == (4,)
        assert set(pred) <= {0, 1, 2}
        acc = model.accuracy(x, pred)
        assert acc == 1.0

    def test_probabilities_sum_to_one(self):
        model = SurrogateModel.create(6, 8, 3, np.random.default_rng(11))
        x = np.random.default_rng(12).normal(scale=30.0, size=(16, 6))
        probs = softmax(model.logits(x), axis=1).data
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9)

    def test_deterministic_by_seed(self):
        a = SurrogateModel.create(6, 8, 3, np.random.default_rng(13))
        b = SurrogateModel.create(6, 8, 3, np.random.default_rng(13))
        assert np.array_equal(a.head[2].data, b.head[2].data)
        x = np.zeros((2, 6))
        assert np.array_equal(a.logits(x).data, b.logits(x).data)

    def test_save_load_round_trip(self, tmp_path):
        model = SurrogateModel.create(6, 8, 3, np.random.default_rng(14))
        path = str(tmp_path / "model.bin")
        save_model(path, model)
        back = load_model(path)
        assert np.array_equal(back.feature_map.weight, model.feature_map.weight)
        assert np.array_equal(back.feature_map.bias, model.feature_map.bias)
        for p, q in zip(model.head, back.head):
            assert np.array_equal(p.data, q.data)
        x = np.random.default_rng(15).normal(size=(3, 6))
        assert np.array_equal(back.logits(x).data, model.logits(x).data)

    def test_save_is_byte_deterministic(self, tmp_path):
        model = SurrogateModel.create(4, 4, 2, np.random.default_rng(16))
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        save_model(p1, model)
        save_model(p2, model)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_load_rejects_bad_format(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            load_model(str(path))

    def test_load_rejects_truncated(self, tmp_path):
        model = SurrogateModel.create(4, 4, 2, np.random.default_rng(17))
        path = str(tmp_path / "model.bin")
        save_model(path, model)
        blob = open(path, "rb").read()
        trunc = tmp_path / "trunc.bin"
        trunc.write_bytes(blob[:-16])
        with pytest.raises(ValueError):
            load_model(str(trunc))
