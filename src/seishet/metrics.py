"""Pixelwise binary segmentation metrics: IoU, precision, recall, F1.

Counts accumulate globally (micro-averaging): evaluating a set of patches
is identical to evaluating their concatenation. Degenerate conventions:
when truth and prediction are both empty every metric is 1; when a ratio's
denominator is zero otherwise, that ratio is 0.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, LabelError


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __add__(self, other):
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp,
            self.fn + other.fn, self.tn + other.tn,
        )

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class MetricsReport:
    iou: float
    precision: float
    recall: float
    f1: float
    counts: ConfusionCounts


def _as_binary(mask, what):
    mask = np.asarray(mask)
    if mask.dtype != bool and not (np.equal(mask, 0) | np.equal(mask, 1)).all():
        raise LabelError("%s mask contains values other than 0 and 1" % what)
    return mask.astype(bool)


def confusion_counts(pred, truth):
    """Global confusion counts between two binary masks of equal shape."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise DimensionError(
            "mask shapes differ: %s vs %s" % (pred.shape, truth.shape)
        )
    p = _as_binary(pred, "predicted")
    t = _as_binary(truth, "truth")
    tp = int(np.count_nonzero(p & t))
    fp = int(np.count_nonzero(p & ~t))
    fn = int(np.count_nonzero(~p & t))
    tn = int(np.count_nonzero(~p & ~t))
    return ConfusionCounts(tp, fp, fn, tn)


def report_from_counts(counts):
    """Derive the four metrics from counts under the documented conventions."""
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    if tp + fp + fn == 0:
        return MetricsReport(1.0, 1.0, 1.0, 1.0, counts)
    iou = tp / (tp + fp + fn)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall else 0.0
    )
    return MetricsReport(iou, precision, recall, f1, counts)


def evaluate(pred, truth, threshold=0.5):
    """MetricsReport for a [0, 1] confidence map against a ground-truth mask.

    A pixel is predicted positive when its confidence is at or above
    `threshold`, so a 0/1 mask scores as itself.
    """
    if not 0.0 <= threshold <= 1.0:  # also false for nan
        raise ConfigError("threshold must lie in [0, 1], got %g" % threshold)
    pred = np.asarray(pred)
    if not ((pred >= 0) & (pred <= 1)).all():  # also false for nan
        raise LabelError("predicted confidence values must lie in [0, 1]")
    return report_from_counts(confusion_counts(pred >= threshold, truth))


def format_table(report):
    """Aligned text rendering of a report."""
    c = report.counts
    lines = [
        "metric     value",
        "iou        %.6f" % report.iou,
        "precision  %.6f" % report.precision,
        "recall     %.6f" % report.recall,
        "f1         %.6f" % report.f1,
        "counts     tp=%d fp=%d fn=%d tn=%d" % (c.tp, c.fp, c.fn, c.tn),
    ]
    return "\n".join(lines)


def to_json(report):
    """Machine-readable rendering with fixed field names."""
    c = report.counts
    return json.dumps(
        {
            "iou": report.iou,
            "precision": report.precision,
            "recall": report.recall,
            "f1": report.f1,
            "tp": c.tp,
            "fp": c.fp,
            "fn": c.fn,
            "tn": c.tn,
        },
        sort_keys=True,
    )
