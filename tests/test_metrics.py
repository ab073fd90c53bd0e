import itertools
from dataclasses import asdict

import numpy as np
import pytest

from bct.metrics import ConfusionCounts, accumulate, compute_metrics, count_batch


class TestAccumulate:
    def test_each_cell_increments_once(self):
        c = ConfusionCounts()
        c = accumulate(c, predicted=1, actual=1)
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 0, 0, 0)
        c = accumulate(c, predicted=0, actual=0)
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)
        c = accumulate(c, predicted=1, actual=0)
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 1, 0)
        c = accumulate(c, predicted=0, actual=1)
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 1, 1)
        assert c.total == 4

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            accumulate(ConfusionCounts(), 2, 0)
        with pytest.raises(ValueError):
            accumulate(ConfusionCounts(), 0, -1)

    def test_count_batch(self):
        c = count_batch(ConfusionCounts(), [1, 0, 1, 1], [1, 0, 0, 1])
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 1, 0)
        with pytest.raises(ValueError):
            count_batch(ConfusionCounts(), [1], [1, 0])


class TestComputeMetrics:
    def test_hand_worked_example(self):
        # tp=3 fn=1 fp=0 tn=0: recall 0.75, precision 1.0, f1 6/7, accuracy 0.75
        r = compute_metrics(ConfusionCounts(tp=3, tn=0, fp=0, fn=1))
        assert r.recall == pytest.approx(0.75)
        assert r.precision == pytest.approx(1.0)
        assert r.f1 == pytest.approx(6.0 / 7.0)
        assert r.accuracy == pytest.approx(0.75)
        assert r.degenerate == ()

    def test_perfect_and_inverted(self):
        perfect = compute_metrics(ConfusionCounts(tp=5, tn=5, fp=0, fn=0))
        assert (perfect.recall, perfect.precision, perfect.f1, perfect.accuracy) == (1, 1, 1, 1)
        inverted = compute_metrics(ConfusionCounts(tp=0, tn=0, fp=5, fn=5))
        assert inverted.accuracy == 0.0
        assert inverted.recall == 0.0 and inverted.precision == 0.0

    def test_constant_negative_predictor_flags(self):
        # all predictions 0 on an all-negative split: no positives anywhere
        r = compute_metrics(ConfusionCounts(tp=0, tn=10, fp=0, fn=0))
        assert r.accuracy == 1.0
        assert r.recall == 0.0 and r.precision == 0.0 and r.f1 == 0.0
        assert set(r.degenerate) == {"recall", "precision", "f1"}

    def test_empty_counts_raise(self):
        with pytest.raises(ValueError):
            compute_metrics(ConfusionCounts())

    def test_epochs_passthrough_and_dict(self):
        r = compute_metrics(ConfusionCounts(tp=1, tn=1), epochs_to_converge=23)
        assert r.epochs_to_converge == 23
        d = asdict(r)
        assert d["epochs_to_converge"] == 23 and d["accuracy"] == 1.0

    def test_exhaustive_recount_six_samples(self):
        # every (predicted, actual) assignment over 6 samples, 4^6 cases,
        # checked against direct recounts of the four definitions
        for combo in itertools.product([(0, 0), (0, 1), (1, 0), (1, 1)], repeat=6):
            preds = [p for p, _ in combo]
            actual = [a for _, a in combo]
            c = count_batch(ConfusionCounts(), preds, actual)
            tp = sum(1 for p, a in combo if p == 1 and a == 1)
            tn = sum(1 for p, a in combo if p == 0 and a == 0)
            fp = sum(1 for p, a in combo if p == 1 and a == 0)
            fn = sum(1 for p, a in combo if p == 0 and a == 1)
            assert (c.tp, c.tn, c.fp, c.fn) == (tp, tn, fp, fn)
            r = compute_metrics(c)
            assert r.recall == (tp / (tp + fn) if tp + fn else 0.0)
            assert r.precision == (tp / (tp + fp) if tp + fp else 0.0)
            pr, rc = r.precision, r.recall
            assert r.f1 == (2 * pr * rc / (pr + rc) if pr + rc else 0.0)
            assert r.accuracy == (tp + tn) / 6
            assert 0.0 <= min(r.recall, r.precision, r.f1, r.accuracy)
            assert max(r.recall, r.precision, r.f1, r.accuracy) <= 1.0


def fold_accumulate(counts, predicted, actual):
    for p, a in zip(predicted, actual):
        counts = accumulate(counts, int(p), int(a))
    return counts


class TestCountBatchVectorised:
    def test_matches_a_fold_of_accumulate(self):
        rng = np.random.default_rng(5)
        start = ConfusionCounts(tp=3, tn=1, fp=4, fn=1)
        for n in [0, 1, 2, 7, 64, 1000]:
            preds, labels = rng.integers(0, 2, n), rng.integers(0, 2, n)
            for p, a in [(preds, labels), (preds.tolist(), labels.tolist()),
                         (preds.astype(np.float32), labels.astype(np.int64))]:
                got = count_batch(start, p, a)
                assert got == fold_accumulate(start, p, a)
                assert all(type(v) is int for v in (got.tp, got.tn, got.fp, got.fn))

    @pytest.mark.parametrize("predicted, actual", [([0, 1, 2], [0, 1, 1]), ([0, 1], [1, -1]),
                                                   (np.array([1, 3]), np.array([0, 0]))])
    def test_rejects_labels_outside_zero_one(self, predicted, actual):
        with pytest.raises(ValueError, match="class labels must be 0 or 1"):
            count_batch(ConfusionCounts(), predicted, actual)
