"""Span tracing around seishet's public functions and layer methods.

Spans are recorded from the benchmark's side only: module functions are
replaced, by identity, in every loaded seishet module namespace, and the
layer objects of each model that `build_network` or `load_checkpoint`
returns get instance-level wrappers on forward/forward_cols/forward_cache/
backward/backward_cols. A span is (name, start, end, parent, op, rows,
flops), where rows is the batch size of an array first argument.
A call that re-enters a span of the same name (Conv2d.forward calling
forward_cols) records nothing new, so totals never double count.
"""

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYER_FORWARD = ("forward", "forward_cols", "forward_cache")
LAYER_BACKWARD = ("backward", "backward_cols")


def _first_rows(args):
    return len(args[0]) if args and isinstance(args[0], np.ndarray) else 0


def _count_gelu(args, result, tracer):
    tracer.count("numcore.gelu.elements", np.asarray(args[0]).size)


def _count_volume(args, result, tracer):
    tracer.count("segy.traces_indexed", result.n_traces)


def _count_section(args, result, tracer):
    tracer.count("segy.traces_read", result.amplitudes.shape[1])
    tracer.count("segy.bytes_read", result.amplitudes.nbytes)


def _count_map(args, result, tracer):
    tracer.count("predict.covered_pixels", int(np.count_nonzero(result)))
    tracer.count("predict.total_pixels", result.size)


def _count_fit(args, result, tracer):
    model = result[0]
    tracer.gauges["train.updated_tensors"] = sum(
        1 for flag in model.freeze.values() if not flag)


def _instrument_result(args, result, tracer):
    tracer.instrument(result)


# (module, function, span name, counter hook)
FUNCTIONS = [
    ("numcore", "gelu_cache", "numcore.gelu.fwd", _count_gelu),
    ("numcore", "gelu", "numcore.gelu.fwd", _count_gelu),
    ("numcore", "gelu_grad_cached", "numcore.gelu.bwd", None),
    ("numcore", "gelu_grad", "numcore.gelu.bwd", None),
    ("layers", "maxpool2d", "layers.maxpool.fwd", None),
    ("layers", "maxpool2d_backward", "layers.maxpool.bwd", None),
    ("layers", "cross_entropy_2class", "layers.loss", None),
    ("model", "build_network", "model.build_network", _instrument_result),
    ("model", "load_checkpoint", "model.load_checkpoint", _instrument_result),
    ("model", "save_checkpoint", "model.save_checkpoint", None),
    ("train", "train", "train.train", _count_fit),
    ("train", "finetune", "train.finetune", _count_fit),
    ("train", "adam_step", "train.adam_step", None),
    ("train", "evaluate_batched", "train.evaluate", None),
    ("synthgen", "generate_dataset", "synthgen.generate_dataset", None),
    ("synthgen", "generate_section", "synthgen.generate_section", None),
    ("synthgen", "apply_fold", "synthgen.apply_fold", None),
    ("synthgen", "apply_shear", "synthgen.apply_shear", None),
    ("synthgen", "apply_faults", "synthgen.apply_faults", None),
    ("synthgen", "convolve_traces", "synthgen.convolve_traces", None),
    ("synthgen", "add_noise", "synthgen.add_noise", None),
    ("synthgen", "extract_patches", "synthgen.extract_patches", None),
    ("synthgen", "write_dataset", "synthgen.write_dataset", None),
    ("synthgen", "read_dataset", "synthgen.read_dataset", None),
    ("pgm", "write_pgm", "pgm.write_pgm", None),
    ("pgm", "read_pgm", "pgm.read_pgm", None),
    ("segy", "open_volume", "segy.open_volume", _count_volume),
    ("segy", "read_section", "segy.read_section", _count_section),
    ("segy", "real_patches", "segy.real_patches", None),
    ("segy", "tile_predict", "segy.tile_predict", _count_map),
    ("segy", "export_map", "segy.export_map", None),
    ("metrics", "evaluate", "metrics.evaluate", None),
]


def _param_prefix(names):
    """Longest dotted prefix shared by parameter names, minus the leaf."""
    parts = [n.split(".")[:-1] for n in names]
    common = []
    for level in zip(*parts):
        if len(set(level)) != 1:
            break
        common.append(level[0])
    return ".".join(common)


def layer_objects(model):
    """Map dotted layer prefix -> the object that owns those parameters.

    Found by walking the model's attributes and matching each object's
    params() arrays to model.named_parameters() by identity, so the
    benchmark needs no knowledge of attribute names.
    """
    by_id = {id(arr): name for name, arr in model.named_parameters().items()}
    found = {}
    seen = set()

    def visit(obj, depth):
        if id(obj) in seen or depth > 6 or isinstance(obj, np.ndarray):
            return
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item, depth + 1)
            return
        if not hasattr(obj, "__dict__"):
            return
        params = getattr(obj, "params", None)
        if callable(params):
            names = [by_id.get(id(arr)) for _, arr in params()]
            if names and all(names):
                found.setdefault(_param_prefix(names), obj)
        for value in vars(obj).values():
            visit(value, depth + 1)

    for value in vars(model).values():
        visit(value, 0)
    return found


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores.

    `op` is the id of the call in progress; set-up runs as op -1. Analysis
    takes one phase at a time: "ops" (op >= 0) or "setup" (op < 0).
    """

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.op = 0
        self.counters = {"ops": Counter(), "setup": Counter()}
        self.gauges = {}
        self.unmeasured = set()
        self._patched = []
        self._summaries = {}

    def phase(self, op):
        return "ops" if op >= 0 else "setup"

    def count(self, name, n):
        self.counters[self.phase(self.op)][name] += n

    def wrap(self, name, fn, hook=None, flops_per_row=0):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = stack[-1] if stack else -1
            rows = _first_rows(args)
            tracer.spans.append([name, 0.0, 0.0, parent, tracer.op, rows,
                                 flops_per_row * rows])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx][1] = start
                tracer.spans[idx][2] = end
            if hook is not None:
                hook(args, result, tracer)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        loaded = [m for name, m in sys.modules.items()
                  if name == "seishet" or name.startswith("seishet.")]
        for mod_name, fn_name, span, hook in FUNCTIONS:
            original = getattr(getattr(self.modules, mod_name), fn_name, None)
            if original is None:
                self.unmeasured.add(span)
                continue
            wrapper = self.wrap(span, original, hook)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def instrument(self, model):
        """Wrap one model's layer methods and its forward/loss_and_grads."""
        flops = {row[0]: row[2] for row in self.modules.model.flops_table(model)}
        self.gauges.setdefault("model.flops_per_patch", sum(flops.values()))
        layers = layer_objects(model)
        targets = [("layers." + name, layers.get(name), flops[name]) for name in flops]
        rel = [obj for prefix, obj in layers.items()
               if any(n == "rel_w" for n, _ in obj.params())]
        if rel:
            targets.append(("attention.rel_attn", rel[0], 0))
        for span, obj, fl in targets:
            methods = [m for m in LAYER_FORWARD + LAYER_BACKWARD
                       if obj is not None and callable(getattr(obj, m, None))]
            if not any(m in LAYER_FORWARD for m in methods):
                self.unmeasured.add(span + ".fwd")
            if not any(m in LAYER_BACKWARD for m in methods):
                self.unmeasured.add(span + ".bwd")
            for m in methods:
                kind = ".fwd" if m in LAYER_FORWARD else ".bwd"
                setattr(obj, m, self.wrap(span + kind, getattr(obj, m), None,
                                          fl if kind == ".fwd" else 0))
        for m, span in (("forward", "model.forward"),
                        ("loss_and_grads", "model.loss_and_grads")):
            if callable(getattr(model, m, None)):
                setattr(model, m, self.wrap(span, getattr(model, m)))
            else:
                self.unmeasured.add(span)

    # ------------------------------------------------------------ analysis

    def closed(self, phase=None):
        return [s for s in self.spans
                if s[2] > 0.0 and phase in (None, self.phase(s[4]))]

    def summary(self, phase):
        """name -> dict(total, self, count, flops); times in seconds."""
        key = (phase, len(self.spans))
        if key not in self._summaries:
            self._summaries[key] = self._summarize(phase)
        return self._summaries[key]

    def _summarize(self, phase):
        child = defaultdict(float)
        for s in self.closed():
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = defaultdict(lambda: {"total": 0.0, "self": 0.0, "count": 0,
                                   "flops": 0})
        for idx, s in enumerate(self.spans):
            if s[2] <= 0.0 or self.phase(s[4]) != phase:
                continue
            d = s[2] - s[1]
            rec = out[s[0]]
            rec["total"] += d
            rec["self"] += d - child.get(idx, 0.0)
            rec["count"] += 1
            rec["flops"] += s[6]
        return out

    def steps(self, phase):
        """Durations of loss_and_grads start to the following adam_step end."""
        out, start = [], None
        for s in self.closed(phase):
            if s[0] == "model.loss_and_grads":
                start = s[1]
            elif s[0] == "train.adam_step" and start is not None:
                out.append(s[2] - start)
                start = None
        return out

    def children_rows(self, parent_name, child_name, phase):
        """Rows passed to child spans whose parent is a `parent_name` span."""
        total = 0
        for s in self.closed(phase):
            if s[0] == child_name and s[3] >= 0 \
                    and self.spans[s[3]][0] == parent_name:
                total += s[5]
        return total

    def dump(self, path):
        """One JSON line per span; `parent` is the id of the enclosing span."""
        with open(path, "w") as fh:
            for idx, s in enumerate(self.spans):
                if s[2] > 0.0:
                    fh.write(json.dumps({"id": idx, "name": s[0], "start": s[1],
                                         "end": s[2], "parent": s[3],
                                         "op": s[4]}) + "\n")
