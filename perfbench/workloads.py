"""The four benchmark workloads, each a closed loop with one caller.

A workload writes its input files (untimed, outside set-up time), sets up
through seishet's own calls (timed as set-up), then repeats `call` until
the run's time is spent. One call is one user request: a train()/
finetune() call whose epochs are the operations, one predict-plus-eval
request on a SEG-Y inline, or one ingest round. Every operation is checked;
one that raises or fails a check counts as failed and the loop goes on.
"""

import dataclasses
import hashlib
import json
import math
import os
import time

import numpy as np

import inputs

EVAL_KEYS = {"iou", "precision", "recall", "f1", "tp", "fp", "fn", "tn"}

FULL = {
    "train_self": {"sections": 40, "epochs": 4},
    "finetune_se": {"inlines": 2, "samples": 50, "traces": 50, "epochs": 4},
    "predict_segy": {"inlines": 6, "samples": 85, "traces": 125},
    "ingest": {"sections": 8, "inlines": 316, "crosslines": 316, "samples": 64,
               "lines_per_round": 12},
}

TINY = {
    "train_self": {"sections": 10, "epochs": 1},
    "finetune_se": {"inlines": 1, "samples": 44, "traces": 44, "epochs": 1},
    "predict_segy": {"inlines": 2, "samples": 45, "traces": 45},
    "ingest": {"sections": 1, "inlines": 8, "crosslines": 8, "samples": 16,
               "lines_per_round": 2},
}


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class Record:
    """What one pass measured: latencies of good operations, failures,
    per-call work rates and the named values of each call."""

    def __init__(self):
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.op_ms = []
        self.work = []
        self.named = {}
        self.errors = []

    def op(self, ms, error=None):
        self.attempted += 1
        if error is None:
            self.op_ms.append(ms)
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("%s: %s" % (type(error).__name__, error))

    def add(self, name, value):
        self.named.setdefault(name, []).append(value)


class Workload:
    name = ""

    def __init__(self, modules, size, seed, workdir):
        self.m = modules
        self.size = size
        self.seed = seed
        self.workdir = workdir
        self.pass_name = "untraced"
        self.expected = {}
        self.cross_checked = 0

    def path(self, name):
        return os.path.join(self.workdir, name)

    def check_repeat(self, key, value):
        """Outputs of one input must repeat bit for bit, in every pass."""
        ref, where = self.expected.setdefault(key, (value, self.pass_name))
        if where != self.pass_name:
            self.cross_checked += 1
        check(ref == value, "%s differs from the %s pass" % (key, where))

    def write_inputs(self):
        pass

    def synthetic_sections(self, count, height, width):
        cfg = self.m.synthgen.SyntheticConfig(height=height, width=width,
                                              seed=self.seed)
        master = self.m.numcore.Prng(self.seed)
        pairs = [self.m.synthgen.generate_section(cfg, master.derive(i))
                 for i in range(count)]
        return [inputs.quantize(s) for s, _ in pairs], [m for _, m in pairs]


class _Training(Workload):
    """Shared loop of train_self and finetune_se: epochs are operations."""

    def _fit(self, model, config):
        epoch_ms, losses = [], []
        marks = [time.perf_counter()]

        def on_epoch(stats):
            now = time.perf_counter()
            epoch_ms.append((now - marks[-1]) * 1e3)
            marks.append(now)
            losses.append(stats.loss)

        error = None
        try:
            self.fit_function()(model, self.samples, config,
                                heldout=self.heldout, on_epoch=on_epoch)
        except Exception as exc:  # counted as a failed operation
            error = exc
        return epoch_ms, losses, time.perf_counter() - marks[0], error

    def warm_up(self):
        _, _, _, error = self._fit(self.new_model(),
                                   dataclasses.replace(self.config, epochs=1))
        if error is not None:
            raise error

    def call(self, record, index):
        try:
            model = self.new_model()
            before = self.frozen_bytes(model)
        except Exception as exc:  # counted as a failed operation
            record.op(None, exc)
            return
        epoch_ms, losses, wall, error = self._fit(model, self.config)
        if error is None:
            try:
                check(len(losses) == self.config.epochs, "missing epochs")
                check(all(math.isfinite(v) for v in losses),
                      "non-finite training loss %r" % (losses,))
                check(self.frozen_bytes(model) == before,
                      "a frozen tensor changed during training")
                self.check_repeat("losses", tuple(losses))
            except CheckFailed as exc:
                error = exc
        for ms in epoch_ms:
            record.op(ms, error)
        if len(epoch_ms) < self.config.epochs:
            record.op(None, error)
        if error is None:
            record.work.append(len(self.samples) * self.config.epochs / wall)
            record.add("train.patches_per_s", record.work[-1])
            record.add("train.loss_final", losses[-1])

    def frozen_bytes(self, model):
        return {}


class TrainSelf(_Training):
    name = "train_self"

    def fit_function(self):
        return self.m.train.train

    def new_model(self):
        prng = self.m.numcore.Prng(self.seed).derive(0)
        return self.m.model.build_network("self_attention", prng)

    def setup(self):
        sg, tr = self.m.synthgen, self.m.train
        cfg = sg.SyntheticConfig(sections=self.size["sections"], seed=self.seed,
                                 height=44, width=44, noise=(0.0, 0.02),
                                 mask_dilation=3, throw=(8, 15),
                                 dip_degrees=(60, 85))
        master = self.m.numcore.Prng(self.seed)
        self.samples, self.heldout = tr.split_dataset(
            sg.generate_dataset(cfg), 0.8, seed=master.derive(1).seed)
        self.config = tr.TrainConfig(epochs=self.size["epochs"], batch_size=32,
                                     shuffle_seed=master.derive(2).seed)
        self.warm_up()


class FinetuneSe(_Training):
    name = "finetune_se"
    heldout = None

    def fit_function(self):
        return self.m.train.finetune

    def write_inputs(self):
        s = self.size
        self.sections, self.masks = self.synthetic_sections(
            s["inlines"], s["samples"], s["traces"])
        inputs.write_sections_segy(self.path("volume_ieee.sgy"), self.sections, 5)

    def new_model(self):
        return self.m.model.load_checkpoint(self.path("se.ckpt"))

    def frozen_bytes(self, model):
        return {name: arr.tobytes()
                for name, arr in model.named_parameters().items()
                if name.startswith("stage1.")}

    def setup(self):
        mdl, segy = self.m.model, self.m.segy
        master = self.m.numcore.Prng(self.seed)
        mdl.save_checkpoint(mdl.build_network("se", master.derive(0)),
                            self.path("se.ckpt"))
        check(len(self.frozen_bytes(self.new_model())) > 0,
              "checkpoint has no stage1 tensors to freeze")
        volume = segy.open_volume(self.path("volume_ieee.sgy"))
        samples = []
        for i, line in enumerate(volume.lines("inline")):
            section = segy.read_section(volume, "inline", line)
            check(np.array_equal(section.amplitudes, self.sections[i]),
                  "inline %d amplitudes differ from those written" % line)
            samples.extend(segy.real_patches(section.amplitudes, self.masks[i]))
        self.samples = samples
        self.config = self.m.train.TrainConfig(
            epochs=self.size["epochs"], batch_size=32, freeze_prefix=2,
            shuffle_seed=master.derive(2).seed)
        self.warm_up()


class PredictSegy(Workload):
    """`seishet predict --segy` then `seishet eval`, one inline per request."""

    name = "predict_segy"

    def write_inputs(self):
        s = self.size
        self.sections, masks = self.synthetic_sections(
            s["inlines"], s["samples"], s["traces"])
        inputs.write_sections_segy(self.path("volume_ibm.sgy"), self.sections, 1)
        self.lines = list(range(1, len(self.sections) + 1))
        for line, mask in zip(self.lines, masks):
            inputs.write_pgm(self.path("mask_inline%d.pgm" % line), mask * 255)

    def volume_path(self, index):
        return self.path("volume_ibm.sgy")

    def setup(self):
        prng = self.m.numcore.Prng(self.seed).derive(0)
        self.m.model.save_checkpoint(
            self.m.model.build_network("self_attention", prng),
            self.path("self.ckpt"))
        self.call(Record(), 0)

    def call(self, record, index):
        m = self.m
        k = index % len(self.lines)
        line = self.lines[k]
        map_path = self.path("map.pgm")
        try:
            start = time.perf_counter()
            model = m.model.load_checkpoint(self.path("self.ckpt"))
            windows = count_rows(model)
            volume = m.segy.open_volume(self.volume_path(index))
            section = m.segy.read_section(volume, "inline", line)
            prob = m.segy.tile_predict(model, section.amplitudes, batch_size=64)
            m.segy.export_map(prob, map_path)
            pred = m.pgm.read_pgm(map_path).astype(np.float64) / 255.0
            truth = m.pgm.read_pgm(self.path("mask_inline%d.pgm" % line)) > 0
            report = m.metrics.evaluate((pred >= 0.5).astype(np.uint8),
                                        truth.astype(np.uint8))
            m.metrics.format_table(report)
            summary = m.metrics.to_json(report)
            ms = (time.perf_counter() - start) * 1e3
            check(np.array_equal(section.amplitudes, self.sections[k]),
                  "inline %d amplitudes differ from those written" % line)
            check(prob.shape == self.sections[k].shape,
                  "map %s for section %s" % (prob.shape, self.sections[k].shape))
            check(np.isfinite(prob).all() and prob.min() >= 0.0
                  and prob.max() <= 1.0, "map values outside [0, 1]")
            check(set(json.loads(summary)) == EVAL_KEYS,
                  "eval JSON keys %s" % summary)
            check(windows[0] > 0, "tile_predict ran no windows")
            with open(map_path, "rb") as fh:
                self.check_repeat(("map", line), hashlib.sha256(fh.read()).hexdigest())
        except Exception as exc:  # counted as a failed operation
            record.op(None, exc)
            return
        record.op(ms)
        record.work.append(windows[0] / (ms / 1e3))
        record.add("predict.windows_per_s", record.work[-1])
        record.add("predict.windows", windows[0])


def count_rows(model):
    """Count the rows that pass through model.forward, at the boundary."""
    counter = [0]
    forward = model.forward

    def counting(x):
        counter[0] += len(x)
        return forward(x)

    model.forward = counting
    return counter


class Ingest(Workload):
    """Corpus generation, dataset round trip and a SEG-Y scan, per round."""

    name = "ingest"

    def write_inputs(self):
        s = self.size
        inputs.write_scan_volume(self.path("scan_ibm.sgy"), self.seed,
                                 s["inlines"], s["crosslines"], s["samples"])

    def setup(self):
        self.call(Record(), -1)

    def scan(self, index):
        s = self.size
        k = s["lines_per_round"]
        first = (index * k) % s["inlines"]
        out = [("inline", (first + j) % s["inlines"] + 1) for j in range(k)]
        first = (index * k) % s["crosslines"]
        out += [("crossline", (first + j) % s["crosslines"] + 1) for j in range(k)]
        return out

    def expected_section(self, axis, line):
        s = self.size
        if axis == "inline":
            xl = np.arange(1, s["crosslines"] + 1)
            il = np.full_like(xl, line)
        else:
            il = np.arange(1, s["inlines"] + 1)
            xl = np.full_like(il, line)
        return inputs.scan_amplitudes(self.seed, il, xl, s["samples"]).T

    def call(self, record, index):
        m, s = self.m, self.size
        # Rounds overwrite one dataset directory in place: deleting and
        # recreating hundreds of files each round made the round time
        # follow the file system's metadata work rather than seishet's.
        data_dir = self.path("dataset")
        cfg = m.synthgen.SyntheticConfig(sections=s["sections"],
                                         seed=self.seed * 1000003 + index + 1)
        try:
            t0 = time.perf_counter()
            samples = m.synthgen.generate_dataset(cfg)
            t1 = time.perf_counter()
            m.synthgen.write_dataset(samples, data_dir, cfg)
            back, _ = m.synthgen.read_dataset(data_dir)
            t2 = time.perf_counter()
            volume = m.segy.open_volume(self.path("scan_ibm.sgy"))
            t3 = time.perf_counter()
            lines = self.scan(index)
            sections = [m.segy.read_section(volume, axis, line) for axis, line in lines]
            t4 = time.perf_counter()
            check(len(back) == len(samples), "dataset lost samples")
            for a, b in zip(samples, back):
                check(a.image.dtype == b.image.dtype and a.image.tobytes() == b.image.tobytes()
                      and np.array_equal(a.mask, b.mask), "dataset round trip changed a sample")
            self.check_repeat(("dataset", index),
                              digest(*[x.image for x in back], *[x.mask for x in back]))
            check(volume.n_traces == s["inlines"] * s["crosslines"],
                  "indexed %d traces" % volume.n_traces)
            for (axis, line), section in zip(lines, sections):
                check(np.array_equal(section.amplitudes, self.expected_section(axis, line)),
                      "%s %d amplitudes differ from those written" % (axis, line))
        except Exception as exc:  # counted as a failed operation
            record.op(None, exc)
            return
        traces = sum(sec.amplitudes.shape[1] for sec in sections)
        record.op((t4 - t0) * 1e3)
        record.work.append(traces / (t4 - t3))
        record.add("gen.sections_per_s", s["sections"] / (t1 - t0))
        record.add("dataset.patches_per_s", len(samples) / (t2 - t1))
        record.add("segy.index_traces_per_s", volume.n_traces / (t3 - t2))
        record.add("segy.read_traces_per_s", record.work[-1])


WORKLOADS = {cls.name: cls for cls in (TrainSelf, FinetuneSe, PredictSegy, Ingest)}
