"""Confusion counting, metric identities, and report rendering."""

import json

import numpy as np
import pytest

from seishet.errors import DimensionError, LabelError
from seishet.metrics import (
    ConfusionCounts,
    confusion_counts,
    evaluate,
    format_table,
    report_from_counts,
    to_json,
)
from seishet.numcore import Prng


def _mask(shape, frac, seed):
    return (Prng(seed).uniform(0.0, 1.0, size=shape) < frac).astype(np.uint8)


def test_confusion_counts_exhaustive_on_small_case():
    pred = np.array([[1, 1, 0], [0, 1, 0]])
    truth = np.array([[1, 0, 0], [1, 1, 0]])
    c = confusion_counts(pred, truth)
    assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 2)
    assert c.total == 6


def test_identical_nonempty_masks_score_one():
    m = _mask((8, 8), 0.3, seed=2)
    assert m.any()
    r = evaluate(m, m)
    assert r.iou == r.precision == r.recall == r.f1 == 1.0


def test_disjoint_nonempty_masks_score_zero():
    pred = np.zeros((4, 4), np.uint8)
    truth = np.zeros((4, 4), np.uint8)
    pred[0, :] = 1
    truth[2, :] = 1
    r = evaluate(pred, truth)
    assert r.iou == r.precision == r.recall == r.f1 == 0.0


def test_four_four_two_overlap_example():
    pred = np.zeros((4, 4), np.uint8)
    truth = np.zeros((4, 4), np.uint8)
    pred.flat[[0, 1, 2, 3]] = 1
    truth.flat[[2, 3, 8, 9]] = 1
    r = evaluate(pred, truth)
    assert abs(r.iou - 2.0 / 6.0) < 1e-12
    assert r.precision == 0.5 and r.recall == 0.5 and r.f1 == 0.5


def test_both_empty_means_perfect_agreement():
    z = np.zeros((5, 5), np.uint8)
    r = evaluate(z, z)
    assert r.iou == r.precision == r.recall == r.f1 == 1.0


def test_one_sided_empty_zeroes_affected_ratios():
    z = np.zeros((5, 5), np.uint8)
    ones = np.ones((5, 5), np.uint8)
    r = evaluate(z, ones)   # nothing predicted
    assert r.iou == 0.0 and r.recall == 0.0 and r.f1 == 0.0
    r = evaluate(ones, z)   # everything predicted, nothing true
    assert r.iou == 0.0 and r.precision == 0.0 and r.f1 == 0.0


def test_iou_symmetry_and_precision_recall_swap():
    a = _mask((16, 16), 0.3, seed=3)
    b = _mask((16, 16), 0.4, seed=4)
    ra = evaluate(a, b)
    rb = evaluate(b, a)
    assert ra.iou == rb.iou
    assert ra.precision == rb.recall
    assert ra.recall == rb.precision


def test_adding_a_correct_pixel_never_hurts_iou():
    pred = _mask((12, 12), 0.3, seed=5)
    truth = _mask((12, 12), 0.3, seed=6)
    improvable = np.flatnonzero((truth == 1) & (pred == 0))
    assert improvable.size
    before = evaluate(pred, truth).iou
    pred2 = pred.copy()
    pred2.flat[improvable[0]] = 1
    assert evaluate(pred2, truth).iou >= before


def test_f1_identity_on_random_reports():
    for seed in range(10):
        r = evaluate(_mask((10, 10), 0.4, seed), _mask((10, 10), 0.4, seed + 50))
        if r.precision + r.recall > 0:
            expect = 2 * r.precision * r.recall / (r.precision + r.recall)
            assert abs(r.f1 - expect) < 1e-9


def test_micro_average_equals_concatenated_masks():
    preds = [_mask((9, 9), 0.3, s) for s in range(20, 26)]
    truths = [_mask((9, 9), 0.35, s) for s in range(40, 46)]
    acc = ConfusionCounts()
    for p, t in zip(preds, truths):
        acc = acc + confusion_counts(p, t)
    merged = report_from_counts(acc)
    whole = evaluate(np.stack(preds), np.stack(truths))
    assert merged.counts == whole.counts
    assert merged.iou == whole.iou
    assert merged.f1 == whole.f1


def test_input_validation():
    with pytest.raises(DimensionError):
        confusion_counts(np.zeros((3, 3)), np.zeros((3, 4)))
    with pytest.raises(LabelError):
        confusion_counts(np.full((3, 3), 2), np.zeros((3, 3)))
    with pytest.raises(LabelError):
        confusion_counts(np.zeros((3, 3)), np.full((3, 3), 0.5))


def test_report_renderings():
    pred = np.zeros((4, 4), np.uint8)
    truth = np.zeros((4, 4), np.uint8)
    pred.flat[[0, 1, 2, 3]] = 1
    truth.flat[[2, 3, 8, 9]] = 1
    r = evaluate(pred, truth)
    table = format_table(r)
    assert "iou" in table and "0.333333" in table
    assert "tp=2 fp=2 fn=2 tn=10" in table
    payload = json.loads(to_json(r))
    assert set(payload) == {"iou", "precision", "recall", "f1",
                            "tp", "fp", "fn", "tn"}
    assert payload["tp"] == 2 and abs(payload["iou"] - 1.0 / 3.0) < 1e-12
