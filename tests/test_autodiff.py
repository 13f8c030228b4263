"""Tests for the reverse-mode autodiff engine."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import central_difference
from taalkit.autodiff import Tensor, grad, zeros_like
from taalkit.maml import inner_adapt
from taalkit.surrogate import (
    PROB_FLOOR,
    SurrogateModel,
    class_weights_from_labels,
    head_logits,
    wce_loss,
)


def t(data, rg=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestForwardValues:
    def test_arithmetic(self):
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        assert np.allclose((a + b).data, [4, 6])
        assert np.allclose((a - b).data, [-2, -2])
        assert np.allclose((a * b).data, [3, 8])
        assert np.allclose((a * b.recip()).data, [1 / 3, 0.5])
        assert np.allclose((-a).data, [-1, -2])
        assert np.allclose((a * a * a).data, [1, 8])

    def test_scalars_broadcast(self):
        a = t([1.0, 2.0])
        assert np.allclose((a + 1.0).data, [2, 3])
        assert np.allclose((2.0 * a).data, [2, 4])
        assert np.allclose((1.0 - a).data, [0, -1])

    def test_unary_functions(self):
        a = t([0.5, 1.5])
        assert np.allclose(a.exp().data, np.exp([0.5, 1.5]))
        assert np.allclose(a.recip().data, [2.0, 1.0 / 1.5])
        assert np.allclose(a.tanh().data, np.tanh([0.5, 1.5]))

    def test_matmul_and_transpose(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        b = t([[5.0], [6.0]])
        assert np.allclose((a @ b).data, [[17], [39]])
        assert np.allclose(a.mT.data, [[1, 3], [2, 4]])

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            t([1.0, 2.0]) @ t([[1.0], [1.0]])

    def test_reductions(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        assert a.sum().item() == 10.0
        assert np.allclose(a.sum(axis=0).data, [4, 6])
        assert np.allclose(a.sum(axis=1).data, [3, 7])
        assert a.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_clip_min_const(self):
        # The loss floors each picked probability at PROB_FLOOR: a frame far
        # below it costs exactly -log(PROB_FLOOR), the other its true -log p.
        logits = np.array([[-2000.0, 2000.0], [np.log(0.5), np.log(0.5)]])
        loss = wce_loss(logits, np.array([0, 0]), np.ones(2)).item()
        assert loss == pytest.approx((-np.log(PROB_FLOOR) - np.log(0.5)) / 2, rel=1e-12)

    def test_introspection(self):
        a = t([[1.0, 2.0]])
        assert a.shape == (1, 2)
        assert a.ndim == 2
        assert a.size == 2
        assert "requires_grad" in repr(a)


class TestFirstOrderGradients:
    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(size=(3, 4))

        def f_np(x):
            xt = Tensor(x)
            out = ((xt * 2.0 + 1.0).tanh() * xt.exp()).sum() * (1.0 / 7.0)
            return out.item()

        xt = t(x0)
        out = ((xt * 2.0 + 1.0).tanh() * xt.exp()).sum() * (1.0 / 7.0)
        (g,) = grad(out, [xt])
        fd = central_difference(f_np, x0)
        assert np.allclose(g.data, fd, rtol=1e-6, atol=1e-8)

    def test_broadcast_gradients(self):
        a = t(np.ones((3, 1)))
        b = t(np.ones((1, 4)))
        out = (a * b).sum()
        ga, gb = grad(out, [a, b])
        assert ga.shape == (3, 1)
        assert gb.shape == (1, 4)
        assert np.allclose(ga.data, 4.0)
        assert np.allclose(gb.data, 3.0)

    def test_matmul_gradients_match_fd(self):
        rng = np.random.default_rng(1)
        w0 = rng.normal(size=(4, 3))
        x = rng.normal(size=(2, 4))

        def f_np(w):
            return float(((Tensor(x) @ Tensor(w)).tanh()).sum().data)

        wt = t(w0)
        out = (Tensor(x) @ wt).tanh().sum()
        (g,) = grad(out, [wt])
        assert np.allclose(g.data, central_difference(f_np, w0), rtol=1e-6, atol=1e-8)

    def test_batched_matmul_gradients_match_fd(self):
        # A (2, 3, 4) stack against one shared (4, 5) matrix: the gradient
        # of the shared operand sums over the task axis.
        rng = np.random.default_rng(3)
        a0, b0 = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))

        def f_np(a, b):
            return float(((Tensor(a) @ Tensor(b)).tanh()).sum().data)

        at, bt = t(a0), t(b0)
        out = (at @ bt).tanh().sum()
        assert (at @ bt).shape == (2, 3, 5)
        ga, gb = grad(out, [at, bt])
        assert ga.shape == a0.shape and gb.shape == b0.shape
        assert np.allclose(ga.data, central_difference(lambda a: f_np(a, b0), a0), rtol=1e-6, atol=1e-8)
        assert np.allclose(gb.data, central_difference(lambda b: f_np(a0, b), b0), rtol=1e-6, atol=1e-8)

    def test_batched_matmul_slices_equal_2d(self):
        rng = np.random.default_rng(4)
        a0, b0 = rng.normal(size=(3, 6, 5)), rng.normal(size=(3, 5, 2))
        at, bt = t(a0), t(b0)
        ga, gb = grad(((at @ bt).tanh()).sum(), [at, bt])
        for i in range(3):
            ai, bi = t(a0[i]), t(b0[i])
            ref_a, ref_b = grad(((ai @ bi).tanh()).sum(), [ai, bi])
            assert np.array_equal((at @ bt).data[i], (ai @ bi).data)
            assert np.array_equal(ga.data[i], ref_a.data)
            assert np.array_equal(gb.data[i], ref_b.data)

    def test_shared_subexpression_accumulates(self):
        a, b = t(3.0), t(5.0)
        prod = a * b
        out = prod + prod
        ga, gb = grad(out, [a, b])
        assert ga.item() == 10.0
        assert gb.item() == 6.0

    def test_unreachable_input_gets_zeros(self):
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        out = a.sum()
        _, gb = grad(out, [a, b])
        assert np.allclose(gb.data, 0.0)
        assert gb.shape == b.shape

    def test_nonscalar_output_needs_grad_output(self):
        a = t([1.0, 2.0])
        with pytest.raises(ValueError):
            grad(a * 2.0, [a])
        (g,) = grad(a * 2.0, [a], grad_output=Tensor([1.0, 1.0]))
        assert np.allclose(g.data, 2.0)

    def test_detach_blocks_gradient(self):
        a = t([1.0, 2.0])
        out = (Tensor(a.data) * a).sum()
        (g,) = grad(out, [a])
        assert np.allclose(g.data, a.data)  # only the attached factor counts

    def test_clip_gradient_mask(self):
        # Gradient passes only where the floor does not hold: the floored
        # frame gets exactly zero, the other its unweighted softmax term.
        z = t([[-2000.0, 2000.0], [0.0, 0.0]])
        (g,) = grad(wce_loss(z, np.array([0, 0]), np.ones(2)), [z])
        assert np.array_equal(g.data[0], [0.0, 0.0])
        assert np.allclose(g.data[1], [-0.25, 0.25])

    def test_deep_chain_no_recursion_limit(self):
        x = t(1.0)
        out = x
        for _ in range(5000):
            out = out + 1.0
        (g,) = grad(out, [x])
        assert g.item() == 1.0

    def test_mean_axis_gradient(self):
        a = t(np.arange(6.0).reshape(2, 3))
        m = a.sum(axis=1) * (1.0 / 3.0)
        out = (m * m).sum()

        def f_np(x):
            m = Tensor(x).sum(axis=1) * (1.0 / 3.0)
            return (m * m).sum().item()

        (g,) = grad(out, [a])
        assert np.allclose(g.data, central_difference(f_np, a.data), rtol=1e-6)


class TestHigherOrder:
    def test_second_derivative_of_cubic(self):
        x = t([1.0, 2.0, -1.5])
        out = (x * x * x).sum()
        (g1,) = grad(out, [x], create_graph=True)
        (g2,) = grad(g1.sum(), [x])
        assert np.allclose(g2.data, 6.0 * x.data)

    def test_third_derivative(self):
        x = t(2.0)
        out = (x * x) * (x * x)
        (g1,) = grad(out, [x], create_graph=True)
        (g2,) = grad(g1, [x], create_graph=True)
        (g3,) = grad(g2, [x])
        assert g3.item() == pytest.approx(24.0 * 2.0)

    def test_second_order_mixed_matches_fd_of_grad(self):
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=4)
        v = rng.normal(size=4)

        def gradient(x):
            xt = t(x)
            out = ((xt * xt).sum() * xt.tanh().sum())
            (g,) = grad(out, [xt])
            return g.data

        def gdotv(x):
            return float(gradient(x) @ v)

        xt = t(x0)
        out = ((xt * xt).sum() * xt.tanh().sum())
        (g1,) = grad(out, [xt], create_graph=True)
        (hv,) = grad((g1 * Tensor(v)).sum(), [xt])
        fd = central_difference(gdotv, x0)
        assert np.allclose(hv.data, fd, rtol=1e-5, atol=1e-7)


    def test_higher_order_graph_is_freed_without_the_cycle_collector(self):
        # The backward rules of exp, tanh and recip need their own output;
        # holding it strongly would make each such node a reference cycle.
        gc.disable()
        try:
            x = t([0.3, -0.7, 1.1])
            th, ex = x.tanh(), x.exp()
            rc = (th + 2.0).recip()
            out = (rc * ex).sum()
            (g,) = grad(out, [x], create_graph=True)
            (g2,) = grad(g.sum(), [x])
            assert np.isfinite(g2.data).all()
            nodes = [weakref.ref(n) for n in (th, ex, rc, out)]
            del th, ex, rc, out, g, g2
            assert [n() is None for n in nodes] == [True] * 4
        finally:
            gc.enable()


def random_expression(data):
    """A random expression over every primitive and the loss node.

    Returns the output, the inputs to differentiate it by (every leaf, one
    leaf it does not depend on and maybe an interior node) and, for a
    non-scalar output or on a coin flip, an explicit ``grad_output``.
    Values stay bounded, so every gradient is finite.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    inputs = []

    def leaf(shape):
        x = t(rng.uniform(-1.0, 1.0, size=shape))
        inputs.append(x)
        return x

    def broadcastable(shape):
        """A leaf shape that broadcasts against ``shape``."""
        drop = data.draw(st.integers(0, len(shape)))
        return tuple(1 if data.draw(st.booleans()) else d for d in shape[drop:])

    dims = st.integers(1, 3)
    shape = tuple(data.draw(dims) for _ in range(data.draw(st.integers(2, 3))))
    out = leaf(shape)
    for _ in range(data.draw(st.integers(1, 6))):
        op = data.draw(st.sampled_from(
            ["add", "sub", "rsub", "neg", "mul", "square", "matmul", "rmatmul", "mT",
             "recip", "exp", "tanh", "reshape", "broadcast_to", "sum", "wce"]
        ))
        if op == "add":
            out = out + leaf(broadcastable(out.shape))
        elif op == "sub":
            out = out - leaf(broadcastable(out.shape))
        elif op == "rsub":
            out = leaf(broadcastable(out.shape)) - out if data.draw(st.booleans()) else 1.0 - out
        elif op == "neg":
            out = -out
        elif op == "mul":
            out = out * leaf(broadcastable(out.shape)) if data.draw(st.booleans()) else 0.5 * out
        elif op == "square":  # a shared subexpression
            out = out * out
        elif op == "matmul" and out.ndim >= 2:
            lead = out.shape[:-2] if data.draw(st.booleans()) else ()
            out = out @ leaf(lead + (out.shape[-1], data.draw(dims)))
        elif op == "rmatmul" and out.ndim >= 2:
            out = leaf((data.draw(dims), out.shape[-2])) @ out
        elif op == "mT" and out.ndim >= 2:
            out = out.mT
        elif op == "recip":
            out = (out * out + 1.0).recip()
        elif op == "exp":  # tanh keeps the exponent bounded
            out = out.tanh().exp()
        elif op == "tanh":
            out = out.tanh()
        elif op == "reshape":
            out = out.reshape(out.shape[::-1])
        elif op == "broadcast_to":
            out = out.broadcast_to((data.draw(dims),) + out.shape)
        elif op == "sum" and out.ndim >= 1:
            axis = data.draw(st.one_of(
                st.none(), st.integers(-out.ndim, out.ndim - 1),
                st.sets(st.integers(0, out.ndim - 1), min_size=1).map(tuple),
            ))
            out = out.sum(axis=axis, keepdims=data.draw(st.booleans()))
        elif op == "wce" and out.ndim in (2, 3):
            # A large scale puts some frames at the probability floor.
            logits = out * data.draw(st.sampled_from([1.0, 100.0]))
            *lead, frames, classes = out.shape
            labels = rng.integers(0, classes, size=(*lead, frames))
            out = wce_loss(logits, labels, rng.uniform(0.5, 2.0, size=(*lead, classes)))
        if data.draw(st.integers(0, 9)) == 0:
            inputs.append(out)
    inputs.insert(data.draw(st.integers(0, len(inputs))), t(rng.normal(size=(2,))))
    grad_output = None
    if out.size != 1 or data.draw(st.booleans()):
        grad_output = Tensor(rng.normal(size=out.shape))
    return out, inputs, grad_output


def reference_grad(output, inputs, grad_output=None, create_graph=False):
    """Back-propagation in two passes: sort every node above the floor that
    needs a gradient, then mark the nodes with a parent whose gradient is
    needed, and run the backward rules through those only."""

    def toposort(root, floor):
        order, seen, stack = [], set(), [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen or node._index < floor:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p._needs and p not in seen:
                    stack.append((p, False))
        return order

    if grad_output is None:
        grad_output = Tensor(np.ones(output.shape))
    wanted = {t for t in inputs if t._needs}
    order = toposort(output, min((t._index for t in wanted), default=float("inf")))
    through = set()
    for node in order:
        for p in node._parents:
            if p in wanted or p in through:
                through.add(node)
                break
    gmap = {output: grad_output if create_graph else grad_output.data}
    for node in reversed(order):
        g = gmap.get(node)
        if g is None or node not in through:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not (parent in wanted or parent in through):
                continue
            held = gmap.get(parent)
            gmap[parent] = pg if held is None else held + pg
    results = []
    for inp in inputs:
        g = gmap.get(inp)
        if g is None:
            g = zeros_like(inp)
        elif not create_graph:
            g = Tensor(g)
        results.append(g)
    return results


class TestAgainstReference:
    @pytest.mark.parametrize("create_graph", [False, True])
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_bit_for_bit_on_any_inputs(self, create_graph, data):
        # Partial and interior input lists are where the two sorts differ.
        out, inputs, grad_output = random_expression(data)
        picks = data.draw(st.lists(st.sampled_from(range(len(inputs))), min_size=1, unique=True))
        chosen = [inputs[i] for i in picks]
        got = grad(out, chosen, grad_output=grad_output, create_graph=create_graph)
        want = reference_grad(out, chosen, grad_output=grad_output, create_graph=create_graph)
        for g, r, x in zip(got, want, chosen):
            assert g.shape == r.shape == x.shape
            assert g.data.tobytes() == r.data.tobytes()


class TestBareBackward:
    """Without ``create_graph`` the backward rules run on bare arrays."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_graph_backward_bit_for_bit(self, data):
        out, inputs, grad_output = random_expression(data)
        bare = grad(out, inputs, grad_output=grad_output)
        graph = [Tensor(g.data) for g in grad(out, inputs, grad_output=grad_output, create_graph=True)]
        for b, g, x in zip(bare, graph, inputs):
            assert b.shape == g.shape == x.shape
            assert b.data.dtype == g.data.dtype == np.float64
            assert np.array_equal(b.data, g.data)
            assert not b.requires_grad and b.data.flags.writeable

    @pytest.mark.parametrize("batched", [False, True])
    def test_loss_node_equals_graph_backward(self, batched):
        rng = np.random.default_rng(5)
        lead = (3,) if batched else ()
        z = t(rng.normal(scale=30.0, size=(*lead, 6, 4)))
        labels = rng.integers(0, 4, size=(*lead, 6))
        loss = wce_loss(z, labels, rng.uniform(0.5, 2.0, size=(*lead, 4)))
        go = Tensor(rng.normal(size=loss.shape))
        (bare,) = grad(loss, [z], grad_output=go)
        (graph,) = grad(loss, [z], grad_output=go, create_graph=True)
        assert np.array_equal(bare.data, graph.data)
        assert (bare.data == 0.0).all(axis=-1).any()  # some frame sits at the floor

    def _support(self, seed=0):
        # The maml-demo configuration: 20 features, hidden 32, 6 + 1 classes
        # and 32 support frames.
        rng = np.random.default_rng(seed)
        model = SurrogateModel.create(20, 32, 7, rng)
        h = model.feature_map.apply(rng.normal(size=(32, 20)))
        y = rng.integers(0, 7, 32)
        return h, y, model.head, class_weights_from_labels(y, 7)

    def test_first_order_grad_builds_no_graph(self, monkeypatch):
        h, y, head, w = self._support()
        loss = wce_loss(head_logits(h, head), y, w)
        built = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        grads = grad(loss, head)
        monkeypatch.undo()
        # One tensor per result, plus the default grad_output.
        assert len(built) <= len(head) + 1
        for g, p in zip(grads, head):
            assert g.shape == p.shape
            assert not g.requires_grad and g.data.flags.writeable

    def test_first_order_adaptation_is_freed_without_the_cycle_collector(self):
        h, y, head, w = self._support(seed=1)
        gc.collect()
        gc.disable()
        try:
            path = inner_adapt(h, y, head, w, alpha=0.05, steps=30, second_order=False)
            assert len(path) == 31
            del path
            assert gc.collect() == 0
        finally:
            gc.enable()


def np_softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestSoftmaxFamily:
    """The loss node's log-sum-exp forward pass and softmax backward rule.

    With one frame and unit weights, ``wce_loss`` is logsumexp(z) - z[y]
    and its gradient is softmax(z) - onehot(y).
    """

    def test_logsumexp_value_and_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]])
        labels = np.array([2, 0])
        loss = wce_loss(x, labels, np.ones(3)).item()
        ref = np.mean(np.log(np.exp(x).sum(axis=1)) - x[[0, 1], labels])
        assert loss == pytest.approx(ref, rel=1e-12)
        assert wce_loss(x + 100.0, labels, np.ones(3)).item() == pytest.approx(ref, rel=1e-12)

    def test_logsumexp_handles_extreme_values(self):
        loss = wce_loss(np.array([[1000.0, 999.0]]), np.array([0]), np.ones(2))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(np.log(1 + np.exp(-1.0)))

    def test_logsumexp_gradient_is_softmax(self):
        x = t([[0.5, -1.0, 2.0]])
        (g,) = grad(wce_loss(x, np.array([1]), np.ones(3)), [x])
        assert np.allclose(g.data + [0.0, 1.0, 0.0], np_softmax(x.data))

    def test_logsumexp_second_order_matches_fd(self):
        # The detached running maximum must be derivative-exact at second
        # order too: compare Hessian-vector products with finite differences
        # of the analytic gradient.
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=5)
        v = rng.normal(size=5)

        def loss(xt):
            return wce_loss(xt.reshape((1, 5)), np.array([2]), np.ones(5))

        def gdotv(x):
            xt = t(x)
            (g,) = grad(loss(xt), [xt])
            return float(g.data @ v)

        xt = t(x0)
        (g1,) = grad(loss(xt), [xt], create_graph=True)
        (hv,) = grad((g1 * Tensor(v)).sum(), [xt])
        assert np.allclose(hv.data, central_difference(gdotv, x0), rtol=1e-5, atol=1e-8)

    def test_softmax_rows_sum_to_one(self):
        # Each frame's gradient is (softmax - onehot) / T; recover softmax.
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = t(rng.normal(scale=rng.uniform(0.1, 50.0), size=(3, 7)))
            labels = rng.integers(0, 7, 3)
            (g,) = grad(wce_loss(x, labels, np.ones(7)), [x])
            s = 3.0 * g.data + np.eye(7)[labels]
            assert np.all(np.abs(s.sum(axis=1) - 1.0) < 1e-9)
            assert np.all(s >= -1e-15)

    def test_log_softmax_nonpositive(self):
        x = np.array([[5.0, -3.0, 0.0]])
        for label in range(3):
            assert wce_loss(x, np.array([label]), np.ones(3)).item() >= -1e-15


class TestCentralDifference:
    def test_does_not_mutate_input(self):
        x = np.array([1.0, 2.0])
        snapshot = x.copy()
        central_difference(lambda v: float((v ** 2).sum()), x)
        assert np.array_equal(x, snapshot)

    def test_quadratic_gradient(self):
        x = np.array([1.0, -2.0, 3.0])
        fd = central_difference(lambda v: float((v ** 2).sum()), x)
        assert np.allclose(fd, 2 * x, rtol=1e-7)
