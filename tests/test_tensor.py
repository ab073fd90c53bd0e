import sys
import warnings
import weakref

import numpy as np
import pytest

from bct.rng import Rng
from bct.tensor import DomainError, ShapeError, Tensor, no_grad, topo_order

from conftest import check_gradients


class TestConstruction:
    def test_defaults_float32(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.dtype == np.float32
        assert t.shape == (2, 2)
        assert not t.requires_grad and t.grad is None

    def test_float64_opt_in(self):
        t = Tensor([1.0], dtype=np.float64)
        assert t.dtype == np.float64

    def test_rejects_non_float(self):
        with pytest.raises(TypeError):
            Tensor([1, 2], dtype=np.int32)

    def test_owns_its_storage(self):
        src = np.ones(3, dtype=np.float32)
        t = Tensor(src)
        src[0] = 99.0
        assert t.data[0] == 1.0

    def test_item_scalar_only(self):
        assert Tensor(2.5).item() == 2.5
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()


class TestForward:
    def test_arithmetic_values(self):
        a = Tensor([1.0, 2.0, 3.0])
        b = Tensor([4.0, 5.0, 6.0])
        np.testing.assert_allclose((a + b).data, [5, 7, 9])
        np.testing.assert_allclose((a * b).data, [4, 10, 18])
        np.testing.assert_allclose((2.0 + a).data, [3, 4, 5])
        np.testing.assert_allclose((-1.0 * a).data, [-1, -2, -3])
        np.testing.assert_allclose((a ** 2).data, [1, 4, 9])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]) * Tensor([[1.0, 2.0]])

    def test_mixed_dtype_raises(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) + Tensor([1.0], dtype=np.float64)

    def test_domain_errors(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(DomainError):
                Tensor([0.0]) ** -1.0
            with pytest.raises(DomainError):
                Tensor([-1.0]) ** 0.5
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_reductions(self):
        t = Tensor([[1.0, 5.0], [2.0, 2.0]])
        assert t.sum().item() == 10.0
        np.testing.assert_allclose(t.sum(axis=0).data, [3, 7])

    def test_argmax_ties_take_lowest_index(self):
        t = Tensor([[0.5, 0.5], [0.25, 0.75]])
        np.testing.assert_array_equal(t.argmax(axis=1), [0, 1])
        assert Tensor([3.0, 3.0, 3.0]).argmax() == 0

    def test_reshape_roundtrip(self):
        t = Tensor(np.arange(6, dtype=np.float32))
        assert t.reshape(2, 3).shape == (2, 3)
        with pytest.raises(ShapeError):
            t.reshape(4, 2)

    @pytest.mark.parametrize("shape", [(2**62 + 1, 4), (2, 2**63), (np.int64(2**62 + 1), np.int64(4))])
    def test_reshape_rejects_a_size_that_wraps_in_int64(self, shape):
        # the first and last sizes wrap to 4 in int64, the second overflows it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError):
                Tensor(np.zeros(4)).reshape(shape)

    def test_forward_purity(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        snap_a, snap_b = a.data.copy(), b.data.copy()
        _ = (a * b + a).sum()
        np.testing.assert_array_equal(a.data, snap_a)
        np.testing.assert_array_equal(b.data, snap_b)


class TestFirstGradient:
    """The first accumulate_grad stores 0 + g, exactly as zeros += g did."""

    def test_negative_zero_becomes_positive_zero(self):
        t = Tensor(np.ones(3), requires_grad=True)
        g = np.array([-0.0, 1.5, -0.0], np.float32)
        t.accumulate_grad(g)
        assert t.grad.tobytes() == np.array([0.0, 1.5, 0.0], np.float32).tobytes()
        g[1] = 7.0
        assert t.grad[1] == 1.5  # a fresh array, not a view of g

    def test_float64_grad_rounds_once_into_float32(self):
        t = Tensor(np.ones(3), requires_grad=True)
        g = np.array([1.0 + 2.0**-30, 0.1, -1e-50])
        t.accumulate_grad(g)
        assert t.grad.dtype == np.float32
        assert t.grad.tobytes() == g.astype(np.float32).tobytes()

    def test_broadcast_grad_expands(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        t.accumulate_grad(np.array([1.0, -0.0, 3.0], np.float32))
        assert t.grad.tobytes() == np.array([[1.0, 0.0, 3.0]] * 2, np.float32).tobytes()
        s = Tensor(np.ones((2, 2)), requires_grad=True)
        s.accumulate_grad(np.float32(2.5))
        np.testing.assert_array_equal(s.grad, np.full((2, 2), 2.5, np.float32))

    def test_first_write_lands_in_the_grad_view(self):
        # an Optimizer points grad_view into its flat store; the bytes stay 0 + g
        store = np.full(8, 9.0, np.float32)
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        t.grad_view = store[1:7].reshape(2, 3)
        t.accumulate_grad(np.array([-0.0, 1.0 + 2.0**-30, -2.0]))
        assert t.grad is t.grad_view
        assert store.tobytes() == np.array([9, 0, 1, -2, 0, 1, -2, 9], np.float32).tobytes()
        t.accumulate_grad(np.ones(3, np.float32))
        assert t.grad is t.grad_view and store[1:7].tolist() == [1, 2, -1, 1, 2, -1]


class TestBackward:
    def test_simple_chain(self, f64):
        x = f64([3.0])
        y = (x * 2.0 + 1.0).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_fanout_accumulates(self, f64):
        # y = x*x via two uses of x: dy/dx = 2x
        x = f64([3.0])
        y = (x * x).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_diamond_graph(self, f64):
        # z = (x + x*2) ** 2 summed; dz/dx = 2*3x*3 = 18x
        x = f64([1.0, -2.0])
        z = ((x + x * 2.0) ** 2).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, 18.0 * x.data)

    def test_backward_requires_scalar(self, f64):
        x = f64([1.0, 2.0])
        with pytest.raises(ShapeError):
            (x * 2.0).backward()

    def test_seed_gradient_is_one(self, f64):
        x = f64([5.0])
        y = x.sum()
        y.backward()
        assert y.grad == np.ones(())

    def test_second_backward_on_a_spent_graph_raises(self, f64):
        x = f64([1.0])
        y = ((x * 2.0) * 5.0).sum()
        y.backward()
        with pytest.raises(ValueError, match="already walked"):
            y.backward()
        np.testing.assert_array_equal(x.grad, [10.0])
        assert y.grad == np.ones(())

    def test_new_graph_through_a_spent_node_raises(self, f64):
        x = f64([1.0])
        a = x * 2.0
        a.sum().backward()
        with pytest.raises(ValueError, match="already walked"):
            (a * 3.0).sum().backward()

    def test_walk_frees_an_interior_node_before_the_nodes_below_it(self, f64):
        # x -> probe -> mid -> root; probe's closure runs after mid's, and by then
        # mid, which nothing outside the tape holds, is gone with its output and gradient
        x = f64([1.0, 2.0])
        refs, dead = [], []

        def probe_backward(g):
            dead.extend(r() is None for r in refs)
            x.accumulate_grad(g * 2.0)

        def mid_backward(g):
            refs.append(weakref.ref(g))
            probe.accumulate_grad(g * 3.0)

        probe = Tensor.from_op(x.data * 2.0, (x,), probe_backward)
        mid = Tensor.from_op(probe.data * 3.0, (probe,), mid_backward)
        refs.append(weakref.ref(mid.data))
        root = mid.sum()
        del mid
        root.backward()
        assert dead == [True, True]
        np.testing.assert_array_equal(x.grad, [6.0, 6.0])
        assert root.grad == np.ones(())

    def test_walk_frees_a_node_before_its_own_closure_returns(self, f64):
        # the walk lets go of mid before it calls mid's closure, so mid's output is
        # gone while the closure runs; from CPython 3.11 the call moves mid's gradient
        # in, so the closure frees it by dropping its argument. The leaf x is not spent
        x = f64([1.0, 2.0])
        seen = {}

        def mid_backward(g):
            seen["output freed"] = output() is None
            gradient = weakref.ref(g)
            x.accumulate_grad(g * 3.0)
            del g
            seen["gradient freed"] = gradient() is None

        mid = Tensor.from_op(x.data * 3.0, (x,), mid_backward)
        output = weakref.ref(mid.data)
        root = mid.sum()
        del mid
        root.backward()
        assert seen == {"output freed": True, "gradient freed": sys.version_info >= (3, 11)}
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])
        (x * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [5.0, 5.0])

    def test_tape_topological_order(self, f64):
        x = f64([1.0])
        a = x * 2.0
        b = a + 1.0
        c = a * 3.0
        root = (b * c).sum()
        nodes = topo_order(root)
        pos = {id(t): i for i, t in enumerate(nodes)}
        for node in nodes:
            for parent in node._parents:
                if id(parent) in pos:
                    assert pos[id(parent)] < pos[id(node)]

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True, dtype=np.float64)
        with no_grad():
            y = (x * 3.0).sum()
        assert not y.requires_grad
        with pytest.raises(ValueError):
            y.backward()


class TestGradientOracle:
    """Central-difference checks for every primitive, randomized over shapes."""

    SHAPES = [(1,), (3,), (2, 3), (4, 1), (3, 3), (2, 2, 2), (5, 4)]

    def _rand(self, rng, shape, lo=-2.0, hi=2.0):
        return rng.uniform(int(np.prod(shape)), lo, hi).reshape(shape)

    def test_binary_ops(self, f64):
        rng = Rng(11)
        for shape in self.SHAPES:
            a = f64(self._rand(rng, shape))
            b = f64(self._rand(rng, shape, 0.5, 2.0))
            w = self._rand(rng, shape)  # fixed weights make the scalar generic
            for op in [
                lambda: ((a + b) * Tensor(w, dtype=np.float64)).sum(),
                lambda: ((a * b) * Tensor(w, dtype=np.float64)).sum(),
            ]:
                check_gradients(op, [a, b])

    def test_scalar_operand_ops(self, f64):
        rng = Rng(12)
        a = f64(self._rand(rng, (3, 4), 0.5, 2.0))
        for op in [
            lambda: (a + 1.5).sum(),
            lambda: (2.5 + a).sum(),
            lambda: (a * -3.0).sum(),
            lambda: (0.5 * a).sum(),
            lambda: (a ** 3).sum(),
            lambda: (a ** 0.5).sum(),
            lambda: (a ** 0).sum(),
        ]:
            check_gradients(op, [a])

    def test_reductions_and_reshape(self, f64):
        rng = Rng(16)
        a = f64(self._rand(rng, (3, 4)))
        for op in [
            lambda: a.sum(),
            lambda: (a.sum(axis=0) ** 2).sum(),
            lambda: (a.sum(axis=1) ** 2).sum(),
            lambda: (a.reshape(2, 6) ** 2).sum(axis=1).sum(),
        ]:
            check_gradients(op, [a])

    def test_composite_expression(self, f64):
        # one deeper composite touching most primitives at once
        rng = Rng(17)
        x = f64(self._rand(rng, (4, 3), 0.2, 1.5))
        w = f64(self._rand(rng, (4, 3)))

        def loss():
            h = (x * w + 1.0) ** 2  # x also feeds the second factor below
            z = h.sum(axis=1) * (h.reshape(3, 4).sum(axis=0) + x.sum(axis=1) * 0.5)
            return (z ** -1.0).sum() * (1 / z.size)  # the mean of 1 / z

        check_gradients(loss, [x, w])
