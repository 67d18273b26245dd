"""Adam optimizer and the base/fine-tune training loop.

Training is fully deterministic given seeds: the epoch shuffle for epoch
e comes from Prng(shuffle_seed).derive(e), batches walk the permutation
in order, and each gradient reduction runs in an order fixed by batch
shape alone. A step walks fixed 8-patch chunks at one OpenBLAS thread,
fanned out over the CPUs, and sums their gradients in chunk order
(`HetNet.loss_and_grads`), so checkpoints and epoch logs are the same on
one or two OpenBLAS threads. Frozen parameters are skipped entirely by
the optimizer, moments included.

The leading steps a freeze prefix leaves without a trainable parameter
map every patch to the same features in every epoch, so train() runs
them once per call and starts each step and each evaluation from those
features. In float32 and in float64 every step gives a patch the same
bits alone as in any batch, so the checkpoint and epoch log equal those
of running the whole network per step.

The cached features and each evaluation go through `HetNet.forward`, so
they also run patch-parallel; their logits and features keep the serial
walk's bytes.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, DimensionError, EvaluationError
from .metrics import ConfusionCounts, confusion_counts, report_from_counts
from .model import channel_softmax
from .numcore import Prng


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 1e-3
    shuffle_seed: int = 0
    freeze_prefix: int = 0
    pos_weight: Optional[float] = None

    def validate(self):
        if self.epochs < 1:
            raise DataError("epochs must be at least 1, got %d" % self.epochs)
        if self.batch_size < 1:
            raise DataError("batch size must be at least 1, got %d"
                            % self.batch_size)
        if not 0.0 < self.learning_rate < np.inf:
            raise DataError("learning rate must be positive and finite")
        if self.pos_weight is not None and not 0.0 < self.pos_weight < np.inf:
            raise DataError("positive-class weight must be positive and finite")
        return self


# The transfer recipe: 30 epochs with stage 1's two convolutions frozen.
FINETUNE_RECIPE = TrainConfig(epochs=30, freeze_prefix=2)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    iou: float
    precision: float
    recall: float
    f1: float
    counts: ConfusionCounts = field(default=None, compare=False)

    def format_line(self):
        return "epoch %d loss %.6f iou %.6f precision %.6f recall %.6f f1 %.6f" % (
            self.epoch, self.loss, self.iou, self.precision, self.recall, self.f1,
        )


# Adam's moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, params, learning_rate):
        self.lr = float(learning_rate)
        self.t = 0
        self.m = {name: np.zeros_like(p) for name, p in params.items()}
        self.v = {name: np.zeros_like(p) for name, p in params.items()}


def adam_step(state, params, grads, freeze=None):
    """One bias-corrected Adam update, in place on the parameter arrays."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name, p in params.items():
        if freeze is not None and freeze.get(name, False):
            continue
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(
                "gradient for %s has shape %s, parameter is %s"
                % (name, g.shape, p.shape)
            )
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params


def split_dataset(samples, fraction=0.8, seed=0):
    """Seeded shuffle then prefix/suffix split into train and test lists.

    `fraction`, in (0, 1), is the training share; each side keeps at
    least one sample.
    """
    if not 0.0 < fraction < 1.0:  # also false for nan
        raise ConfigError("split fraction must lie in (0, 1), got %r" % fraction)
    n = len(samples)
    if n < 2:
        raise DataError("need at least 2 samples to split, got %d" % n)
    perm = Prng(seed).permutation(n)
    n_train = min(max(int(n * fraction), 1), n - 1)
    train = [samples[i] for i in perm[:n_train]]
    test = [samples[i] for i in perm[n_train:]]
    return train, test


def stack_samples(samples):
    """Samples -> (images (N,1,P,P) float32, masks (N,P,P) uint8).

    Each array is built once, in its final dtype, never copied by a cast.
    """
    x = np.stack([s.image for s in samples], dtype=np.float32)[:, None]
    y = np.stack([s.mask for s in samples], dtype=np.uint8)
    return x, y


def evaluate_batched(model, x, y, batch_size, start=0):
    """Micro-averaged metrics of the model's predictions thresholded at 0.5.

    x is the activation entering step `start` of the model's walk.
    """
    counts = ConfusionCounts()
    for i in range(0, x.shape[0], batch_size):
        prob = channel_softmax(model.forward(x[i:i + batch_size], start=start))
        pred = (prob[:, 1] >= 0.5).astype(np.uint8)
        counts = counts + confusion_counts(pred, y[i:i + batch_size])
    return report_from_counts(counts)


def _frozen_features(model, samples, stop, batch_size):
    """(features entering step `stop`, masks), computed batch_size at a time.

    Each chunk is written straight into one array, so no list of chunks
    ever sits in memory beside the result.
    """
    x, y = stack_samples(samples)
    if not stop:
        return x, y
    first = model.forward(x[:batch_size], stop=stop)
    out = np.empty((x.shape[0],) + first.shape[1:], dtype=first.dtype)
    out[:batch_size] = first
    for i in range(batch_size, x.shape[0], batch_size):
        out[i:i + batch_size] = model.forward(x[i:i + batch_size], stop=stop)
    return out, y


def train(model, samples, config, heldout=None, on_epoch=None):
    """Run the optimization loop; returns (model, list of EpochStats).

    Per-epoch metrics come from `heldout` samples when given, otherwise
    from the training set itself. `on_epoch` is called with each EpochStats
    as it is produced. The frozen steps run once here, batch_size patches
    at a time; the stacked patches are dropped once their features exist.
    """
    config.validate()
    if not samples:
        raise DataError("training set is empty")
    model.set_freeze_prefix(config.freeze_prefix)
    boundary = model.frozen_steps()
    x, y = _frozen_features(model, samples, boundary, config.batch_size)
    if heldout:
        hx, hy = _frozen_features(model, heldout, boundary, config.batch_size)
    else:
        hx, hy = x, y
    params = model.named_parameters()
    state = AdamState(params, config.learning_rate)
    shuffle_master = Prng(config.shuffle_seed)
    n = x.shape[0]
    stats = []
    for epoch in range(1, config.epochs + 1):
        perm = shuffle_master.derive(epoch).permutation(n)
        loss_sum = 0.0
        for bi, start in enumerate(range(0, n, config.batch_size)):
            take = perm[start:start + config.batch_size]
            loss, _, grads = model.loss_and_grads(
                x[take], y[take], config.pos_weight, boundary
            )
            if not np.isfinite(loss):
                raise EvaluationError(
                    "non-finite loss %r at epoch %d batch %d" % (loss, epoch, bi)
                )
            adam_step(state, params, grads, model.freeze)
            loss_sum += loss * len(take)
        report = evaluate_batched(model, hx, hy, max(config.batch_size, 16),
                                  start=boundary)
        entry = EpochStats(
            epoch, loss_sum / n, report.iou, report.precision,
            report.recall, report.f1, report.counts,
        )
        stats.append(entry)
        if on_epoch is not None:
            on_epoch(entry)
    return model, stats


def finetune(model, samples, config=None, heldout=None, on_epoch=None):
    """Transfer-learning loop: freeze the leading layers, retrain the rest.

    Without a config it runs FINETUNE_RECIPE, which `seishet finetune`
    also starts from. Optimizer moments start fresh rather than carrying
    over from base training.
    """
    return train(model, samples, config or FINETUNE_RECIPE, heldout=heldout,
                 on_epoch=on_epoch)
