import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bct.losses import (
    LOSS_KINDS,
    REDUCTIONS,
    SCORE_FLOOR,
    LossSpec,
    binary_cross_entropy,
    cross_entropy,
    focal_loss,
    make_loss,
)
from bct.layers import softmax
from bct.rng import Rng
from bct.tensor import DomainError, ShapeError, Tensor, topo_order

from conftest import check_gradients


def batch(scores, targets, dtype=np.float64):
    return (
        Tensor(np.asarray(scores, dtype), dtype=dtype),
        Tensor(np.asarray(targets, dtype), dtype=dtype),
    )


class TestHandValues:
    def test_uniform_scores(self):
        s, t = batch([[0.5, 0.5]], [[1.0, 0.0]])
        assert cross_entropy(s, t).item() == pytest.approx(0.6931471805599453, rel=1e-12)
        assert binary_cross_entropy(s, t).item() == pytest.approx(0.6931471805599453, rel=1e-12)

    def test_confident_right_and_wrong(self):
        right, t = batch([[0.9, 0.1]], [[1.0, 0.0]])
        assert cross_entropy(right, t).item() == pytest.approx(0.10536051565782628, rel=1e-12)
        wrong, _ = batch([[0.1, 0.9]], [[1.0, 0.0]])
        assert cross_entropy(wrong, t).item() == pytest.approx(2.302585092994046, rel=1e-12)

    def test_focal_hand_values(self):
        s, t = batch([[0.9, 0.1]], [[1.0, 0.0]])
        # (1-0.9)^2 * -log(0.9)
        assert focal_loss(s, t, gamma=2.0).item() == pytest.approx(1.0536051565782628e-3, rel=1e-9)
        s5, _ = batch([[0.5, 0.5]], [[1.0, 0.0]])
        assert focal_loss(s5, t, gamma=2.0).item() == pytest.approx(0.25 * 0.6931471805599453, rel=1e-9)
        assert focal_loss(s5, t, gamma=1.0).item() == pytest.approx(0.5 * 0.6931471805599453, rel=1e-9)

    def test_perfect_prediction_zero_loss_finite_grad(self):
        s = Tensor([[1.0, 0.0]], requires_grad=True, dtype=np.float64)
        t = Tensor([[1.0, 0.0]], dtype=np.float64)
        loss = cross_entropy(s, t)
        assert loss.item() == 0.0
        loss.backward()
        assert np.all(np.isfinite(s.grad))
        assert s.grad[0, 0] == pytest.approx(-1.0)  # d(-log s)/ds at s=1

    def test_certain_wrong_clamped_not_inf(self):
        s, t = batch([[0.0, 1.0]], [[1.0, 0.0]])
        loss = cross_entropy(s, t)
        assert loss.item() == pytest.approx(-np.log(1e-12), rel=1e-9)
        assert np.isfinite(loss.item())

    def test_mean_vs_sum_reduction(self):
        s, t = batch([[0.5, 0.5], [0.9, 0.1]], [[1.0, 0.0], [1.0, 0.0]])
        total = cross_entropy(s, t, reduction="sum").item()
        assert total == pytest.approx(0.6931471805599453 + 0.10536051565782628, rel=1e-12)
        assert cross_entropy(s, t, reduction="mean").item() == pytest.approx(total / 2, rel=1e-12)


class TestFocalEqualsBce:
    def test_gamma_zero_bitwise_identical(self):
        # not merely close: identical graph, identical float result
        rng = Rng(21)
        for _ in range(50):
            n = 1 + rng.randint(16)
            p = rng.uniform(n, 1e-6, 1 - 1e-6)
            scores = np.stack([p, 1 - p], axis=1)
            labels = [rng.randint(2) for _ in range(n)]
            onehot = np.eye(2)[labels]
            s, t = batch(scores, onehot)
            fl = focal_loss(s, t, gamma=0.0).item()
            bce = binary_cross_entropy(s, t).item()
            assert fl == bce

    def test_gamma_zero_gradients_identical(self):
        s1 = Tensor([[0.3, 0.7], [0.8, 0.2]], requires_grad=True, dtype=np.float64)
        s2 = Tensor([[0.3, 0.7], [0.8, 0.2]], requires_grad=True, dtype=np.float64)
        t = Tensor([[0.0, 1.0], [1.0, 0.0]], dtype=np.float64)
        focal_loss(s1, t, gamma=0.0).backward()
        binary_cross_entropy(s2, t).backward()
        np.testing.assert_array_equal(s1.grad, s2.grad)

    def test_gamma_monotone_for_misclassified(self):
        # fixed s_true < 0.5: loss strictly decreasing in gamma
        s, t = batch([[0.3, 0.7]], [[1.0, 0.0]])
        vals = [focal_loss(s, t, gamma=g).item() for g in [0.0, 0.5, 1.0, 2.0, 5.0]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_well_classified_term_vanishes_with_gamma(self):
        s, t = batch([[0.99, 0.01]], [[1.0, 0.0]])
        v2 = focal_loss(s, t, gamma=2.0).item()
        v8 = focal_loss(s, t, gamma=8.0).item()
        assert v8 < v2 < binary_cross_entropy(s, t).item()
        assert v8 < 1e-17


class TestValidation:
    def test_shape_mismatch(self):
        s, _ = batch([[0.5, 0.5]], [[1.0, 0.0]])
        t3 = Tensor([[1.0, 0.0, 0.0]], dtype=np.float64)
        with pytest.raises(ShapeError):
            cross_entropy(s, t3)

    def test_binary_losses_need_two_classes(self):
        s = Tensor(np.full((1, 3), 1 / 3), dtype=np.float64)
        t = Tensor([[1.0, 0.0, 0.0]], dtype=np.float64)
        assert cross_entropy(s, t).item() == pytest.approx(np.log(3.0), rel=1e-6)
        with pytest.raises(ShapeError):
            binary_cross_entropy(s, t)
        with pytest.raises(ShapeError):
            focal_loss(s, t)

    def test_scores_must_be_normalized(self):
        s, t = batch([[0.7, 0.7]], [[1.0, 0.0]])
        with pytest.raises(DomainError):
            cross_entropy(s, t)

    @pytest.mark.parametrize("loss", [cross_entropy, binary_cross_entropy, focal_loss])
    @pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 0.5], [1.0, np.nan]])
    def test_nan_scores_rejected(self, loss, row):
        s, t = batch([row, [0.3, 0.7]], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            loss(s, t)

    def test_targets_must_be_onehot(self):
        s, _ = batch([[0.5, 0.5]], [[1.0, 0.0]])
        bad = Tensor([[0.5, 0.5]], dtype=np.float64)
        with pytest.raises(DomainError):
            cross_entropy(s, bad)

    def test_negative_gamma_rejected(self):
        s, t = batch([[0.5, 0.5]], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            focal_loss(s, t, gamma=-1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LossSpec(kind="hinge").validate()
        with pytest.raises(ValueError):
            LossSpec(kind="focal", gamma=-0.5).validate()
        with pytest.raises(ValueError):
            LossSpec(reduction="max").validate()
        LossSpec().validate()

    def test_make_loss_dispatch(self):
        s, t = batch([[0.5, 0.5]], [[1.0, 0.0]])
        for kind in ("cross_entropy", "binary_cross_entropy"):
            fn = make_loss(LossSpec(kind=kind))
            assert fn(s, t).item() == pytest.approx(0.6931471805599453, rel=1e-12)
        fn = make_loss(LossSpec(kind="focal", gamma=2.0))
        assert fn(s, t).item() == pytest.approx(0.25 * 0.6931471805599453, rel=1e-9)


class TestLossGradients:
    """FD oracle through softmax: gradients w.r.t. pre-softmax logits."""

    def _logit_case(self, seed, n):
        rng = Rng(seed)
        logits = Tensor(
            rng.uniform(n * 2, -2, 2).reshape(n, 2), requires_grad=True, dtype=np.float64
        )
        labels = [rng.randint(2) for _ in range(n)]
        targets = Tensor(np.eye(2)[labels], dtype=np.float64)
        return logits, targets

    def test_cross_entropy_through_softmax(self):
        for seed, n in [(31, 1), (32, 4), (33, 9)]:
            logits, targets = self._logit_case(seed, n)
            check_gradients(lambda: cross_entropy(softmax(logits), targets), [logits])

    def test_bce_through_softmax(self):
        for seed, n in [(34, 2), (35, 6)]:
            logits, targets = self._logit_case(seed, n)
            check_gradients(lambda: binary_cross_entropy(softmax(logits), targets), [logits])

    def test_focal_through_softmax_gamma_sweep(self):
        for gamma in [0.0, 0.5, 1.0, 2.0]:
            logits, targets = self._logit_case(36, 5)
            check_gradients(
                lambda: focal_loss(softmax(logits), targets, gamma=gamma), [logits]
            )

    def test_sum_reduction_gradients(self):
        logits, targets = self._logit_case(37, 3)
        check_gradients(
            lambda: cross_entropy(softmax(logits), targets, reduction="sum"), [logits]
        )


# ---- the one loss kernel against the composed Tensor-op chain it replaces
#
# The chain also used clamp, log, scalar - tensor, negation and division by a
# scalar, which bct.tensor does not define since nothing in the package calls
# them. They keep their original forward and backward code here, so the
# chain's bytes are the ones the kernel reproduces.


def clamp(self, lo, hi):
    a_data = self.data
    out_data = np.clip(a_data, self.dtype.type(lo), self.dtype.type(hi))
    inside = (a_data >= lo) & (a_data <= hi)

    def backward(g):
        self.accumulate_grad(g * inside)

    return Tensor.from_op(out_data, (self,), backward)


def log(self):
    a_data = self.data
    out_data = np.log(a_data)

    def backward(g):
        self.accumulate_grad(g / a_data)

    return Tensor.from_op(out_data, (self,), backward)


def rsub(self, other):
    """other - self for a python scalar other."""
    _, od = self._coerce(other, "sub")  # casts the scalar to the tensor's dtype
    out_data = od - self.data

    def backward(g):
        self.accumulate_grad(-g)

    return Tensor.from_op(out_data, (self,), backward)


def neg(self):
    out_data = -self.data

    def backward(g):
        self.accumulate_grad(-g)

    return Tensor.from_op(out_data, (self,), backward)


def div(self, other):
    """self / other for a python scalar other."""
    _, od = self._coerce(other, "div")
    out_data = self.data / od

    def backward(g):
        self.accumulate_grad(g / od)

    return Tensor.from_op(out_data, (self,), backward)


def chain_loss(scores, targets, gamma=0.0, reduction="mean"):
    """The losses as they were composed from Tensor ops, one tape node per op."""
    logs = log(clamp(scores, SCORE_FLOOR, 1.0))
    weighted = targets * logs
    if gamma != 0:
        weighted = rsub(scores, 1.0) ** gamma * weighted
    total = neg(weighted.sum())
    return div(total, float(scores.shape[0])) if reduction == "mean" else total


def kernel_loss(scores, targets, gamma, reduction):
    return focal_loss(scores, targets, gamma=gamma, reduction=reduction)


def value_and_grad(fn, rows, labels, dtype, gamma, reduction, preset=None, upstream=1.0):
    """The loss and scores.grad after backpropagating through loss * upstream.

    The multiply's first gradient write turns an upstream -0.0 into +0.0, so
    the loss node sees g in {1, -1, +0.0, 0.25} for the values drawn below.
    """
    s = Tensor(np.asarray(rows, dtype), requires_grad=True, dtype=dtype)
    t = Tensor(np.eye(2, dtype=dtype)[labels], dtype=dtype)
    if preset is not None:  # scores already hold a gradient, say from a second consumer
        s.grad = np.full(s.shape, preset, dtype)
    loss = fn(s, t, gamma, reduction)
    (loss * upstream).backward()
    return np.asarray(loss.data), s.grad


# near the score floor, at it, below it, and ordinary values
_FIRST = st.one_of(
    st.sampled_from([0.0, 1e-13, SCORE_FLOOR, 2e-12, 1e-9, 1e-6, 0.5]),
    st.floats(1e-6, 1.0 - 1e-3),
)


@st.composite
def score_rows(draw, saturated):
    """(rows, labels) of 2-class scores; with saturated=False no score is 1.

    A row's second score is 1 - p, held at most 1 - 4e-6 when unsaturated, so
    the row still sums to 1 within the loss's 1e-5 tolerance.
    """
    n = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        p = draw(_FIRST)
        q = 1.0 - p if saturated else min(1.0 - p, 1.0 - 4e-6)
        rows.append([p, q] if draw(st.booleans()) else [q, p])
    if saturated:
        rows[draw(st.integers(0, n - 1))] = draw(st.sampled_from([[1.0, 0.0], [0.0, 1.0]]))
    return rows, draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))


GAMMAS = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), st.floats(0.0, 3.0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("reduction", ["mean", "sum"])
class TestLossKernelProperties:
    @settings(max_examples=200, deadline=None)
    @given(case=score_rows(saturated=False), gamma=GAMMAS, preset=st.sampled_from([None, -0.0, 0.0, 0.25]),
           upstream=st.sampled_from([1.0, -1.0, 0.0, -0.0, 0.25]))
    def test_bytes_equal_the_composed_chain(self, dtype, reduction, case, gamma, preset, upstream):
        rows, labels = case
        got = value_and_grad(kernel_loss, rows, labels, dtype, gamma, reduction, preset, upstream)
        want = value_and_grad(chain_loss, rows, labels, dtype, gamma, reduction, preset, upstream)
        assert np.isfinite(want[1]).all()
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes(), (g, w)

    @settings(max_examples=120, deadline=None)
    @given(case=score_rows(saturated=True), gamma=GAMMAS)
    def test_saturated_scores_give_finite_gradients(self, dtype, reduction, case, gamma):
        rows, labels = case
        value, grad = value_and_grad(kernel_loss, rows, labels, dtype, gamma, reduction)
        assert np.isfinite(value) and np.isfinite(grad).all()
        # with gamma > 0 (in the dtype), a row whose true class scores 1 passes no gradient
        for row, label, g in zip(rows, labels, grad):
            if dtype(gamma) > 0 and row[label] == 1.0:
                assert (g == 0).all() and not np.signbit(g).any()


@pytest.mark.parametrize("first", [[1.0, 0.0], [0.0, 1.0]])
def test_focal_saturation_gradient_is_finite(first):
    # the composed chain gave loss 0.0977 and a NaN gradient (0 * 0 ** -0.5)
    rows = [first, [0.3, 0.7]]
    s = Tensor(rows, requires_grad=True, dtype=np.float64)
    t = Tensor([first, [0.0, 1.0]], dtype=np.float64)
    loss = focal_loss(s, t, gamma=0.5)
    assert loss.item() == pytest.approx(0.0977, abs=5e-5)
    loss.backward()
    assert np.isfinite(s.grad).all()
    assert (s.grad[0] == 0).all()
    s2 = Tensor(rows, requires_grad=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        chain_loss(s2, t, gamma=0.5).backward()
    assert np.isnan(s2.grad[0]).any()
    np.testing.assert_array_equal(s.grad[1], s2.grad[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0, 1e30, float(np.finfo(np.float32).max)])
@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_loss_value_is_finite_when_the_true_class_scores_zero(kind, reduction, gamma, dtype):
    # train() keeps no loss check: the clamp at SCORE_FLOOR bounds every term. Only the value is
    # asserted; at gamma = float32 max the focal score gradient is infinite, which Optimizer.step reports.
    rows = [[0.0, 1.0], [1.0, 0.0]] * 32 + [[0.5, 0.5], [1.0, 0.0]]
    targets = [[1.0, 0.0], [0.0, 1.0]] * 32 + [[1.0, 0.0], [1.0, 0.0]]
    s, t = batch(rows, targets, dtype)
    value = make_loss(LossSpec(kind=kind, gamma=gamma, reduction=reduction))(s, t).item()
    assert np.isfinite(value) and value > 0


def test_loss_is_one_tape_node():
    s = Tensor([[0.2, 0.8], [0.6, 0.4]], requires_grad=True, dtype=np.float64)
    t = Tensor([[1.0, 0.0], [0.0, 1.0]], dtype=np.float64)
    for loss in (cross_entropy(s, t), binary_cross_entropy(s, t), focal_loss(s, t, gamma=2.0)):
        assert loss._parents == (s,)
        assert topo_order(loss) == [s, loss]


def test_mixed_dtypes_rejected():
    s = Tensor([[0.5, 0.5]], dtype=np.float32)
    t = Tensor([[1.0, 0.0]], dtype=np.float64)
    with pytest.raises(TypeError):
        cross_entropy(s, t)
