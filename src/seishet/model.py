"""The full patch-segmentation network and its checkpoint format.

Architecture for a (B,1,44,44) batch:

    stage 1: conv 1->20, conv 20->20 (3x3, gelu after each), max pool -> 22x22
    stage 2: conv 20->50, conv 50->50, max pool -> 11x11
    stage 3: conv 50->50, conv 50->50; the two activation maps are
             concatenated to 100 channels at 11x11
    attention: either SE channel+spatial gating (variant "se") or an
             attention-augmented convolution (variant "self_attention"),
             100 channels in and out
    decoder: two stride-2 transposed 3x3 convs 100->20->10 (gelu after
             each) back to 44x44, then a pointwise conv to 2 logits

Parameters are enumerated in a fixed order under dotted names
("stage1.conv1.weight", "attention.attn.wq", ...). That order also defines
the checkpoint record order and the freeze-prefix layer list.

Every batch, float32 or float64, runs patch-parallel, in inference and in
training, on a thread pool of one worker per OpenBLAS thread, with
OpenBLAS held at one thread meanwhile. `HetNet.forward` cuts it into
near-equal chunks of at most _CHUNK patches. Their count is the smallest
multiple of the worker count that allows this, capped at the batch size,
so that a small batch still keeps every worker busy. Every step gives a
patch the same bits alone as in any batch, so the logits equal those of
one walk over the whole batch at one OpenBLAS thread (a float32 walk
gives them at any thread count). `HetNet.loss_and_grads` cuts it into fixed
chunks of _CHUNK patches, walks each forward and back at one OpenBLAS
thread and sums the gradients in chunk order, so a training step, and
with it a checkpoint, is the same on one or two OpenBLAS threads and with
or without the pool. Each fan-out opens its own pool and joins it before
returning, so no worker thread outlives a call and a forked child needs
nothing special. A batch of one chunk, a run with one worker and a
model with a layer method replaced on the instance (a hook or a
profiler's wrapper, which may not be safe to call from two threads) run
the same chunks on the calling thread, still at one OpenBLAS thread.
"""

import contextvars
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .attention import AugmentedAttentionConv, SeAttention
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    FormatError,
    IntegrityError,
)
from .layers import (
    Conv2d,
    TransposedConv2d,
    cross_entropy_2class,
    loss_normalizer,
    maxpool2d,
    maxpool2d_backward,
)
from .numcore import (
    blas_threads,
    gelu,
    gelu_cache,
    gelu_grad_cached,
    set_blas_threads,
)

PATCH = 44  # network input side: every synthetic patch and upscaled real window
GRID = PATCH // 4
VARIANTS = ("se", "self_attention")

# Largest se_ratio, heads, d_k or d_v that NetConfig accepts; it keeps a
# damaged checkpoint header from sizing a huge model.
MAX_ATTENTION_SIZE = 4096

CHECKPOINT_MAGIC = b"SHNCKPT1"
CHECKPOINT_VERSION = 1
_VARIANT_CODE = {"se": 0, "self_attention": 1}
_VARIANT_NAME = {code: name for name, code in _VARIANT_CODE.items()}

FLOP_CONVENTION = (
    "multiply-accumulate = 2 flops, bias add = 1, elementwise gate multiply"
    " = 1; activations, softmax and pooling excluded; one %dx%d patch"
    % (PATCH, PATCH)
)

# Figures reported for the originally published configuration, shown for
# comparison only; its attention hyperparameters were never specified, so
# this build's counts legitimately differ.
REFERENCE_PARAM_COUNT = 92827
REFERENCE_KFLOPS = 791.356


@dataclass
class NetConfig:
    """Attention hyperparameters; the conv trunk is fixed."""
    se_ratio: int = 4
    heads: int = 4
    d_k: int = 32
    d_v: int = 32

    def validate(self):
        for name, value in vars(self).items():
            if not 1 <= value <= MAX_ATTENTION_SIZE:
                raise ConfigError("%s must be at least 1 and at most %d, got %d"
                                  % (name, MAX_ATTENTION_SIZE, value))
        return self


# Patches per chunk of a patch-parallel forward or training step: small, so
# that each worker's activations and tape stay small and peak memory falls
# rather than rises.
_CHUNK = 8

# One fan-out at a time holds OpenBLAS at one thread.
_FANOUT_LOCK = threading.Lock()


def _hooked(layer):
    """Whether a method of layer, or of a sub-layer it holds, is set on
    the instance: layers keep only arrays, numbers and sub-layers there."""
    return any(callable(v) or (hasattr(v, "params") and _hooked(v))
               for v in vars(layer).values())


# The parameter-free steps: 2x2 max pooling, and the stage-3 concat skip,
# which puts the map entering _SKIP in front of the map reaching _CONCAT.
_POOL = "pool"
_SKIP = "skip"
_CONCAT = "concat"


class HetNet:
    """Heterogeneity segmentation net with a pluggable attention block.

    The network is one ordered step list: the ten named layers, each with
    a flag for the GeLU that follows it, the max-pool steps and the concat
    skip. `walk` runs it on the calling thread, keeping nothing or each
    step's cache on a tape, and `backward` walks such a tape backwards;
    `forward` runs it patch-parallel, chunk by chunk; `loss_and_grads`
    walks each chunk with a tape and back. All can start at a later step
    from the activation that enters it, such as the frozen-prefix features
    `frozen_steps` marks.
    """

    def __init__(self, variant, prng=None, config=None, dtype=np.float32):
        if variant not in VARIANTS:
            raise ConfigError(
                "unknown variant %r, expected one of %s" % (variant, VARIANTS)
            )
        self.variant = variant
        self.config = (config or NetConfig()).validate()
        self.dtype = dtype
        cfg = self.config
        # built in this order, which fixes the initial-weight draws
        self._steps = [
            ("stage1.conv1", Conv2d(1, 20, prng=prng, dtype=dtype), True),
            ("stage1.conv2", Conv2d(20, 20, prng=prng, dtype=dtype), True), _POOL,
            ("stage2.conv1", Conv2d(20, 50, prng=prng, dtype=dtype), True),
            ("stage2.conv2", Conv2d(50, 50, prng=prng, dtype=dtype), True), _POOL,
            ("stage3.conv1", Conv2d(50, 50, prng=prng, dtype=dtype), True), _SKIP,
            ("stage3.conv2", Conv2d(50, 50, prng=prng, dtype=dtype), True), _CONCAT,
            ("attention", SeAttention(100, cfg.se_ratio, prng, dtype)
             if variant == "se" else AugmentedAttentionConv(
                 100, 100, GRID, GRID, cfg.heads, cfg.d_k, cfg.d_v, prng, dtype),
             False),
            ("up1", TransposedConv2d(100, 20, prng, dtype), True),
            ("up2", TransposedConv2d(20, 10, prng, dtype), True),
            ("head", Conv2d(10, 2, kernel=1, prng=prng, dtype=dtype), False),
        ]
        self._layers = [step[:2] for step in self._steps
                        if step not in (_POOL, _SKIP, _CONCAT)]
        self.freeze = {name: False for name in self.named_parameters()}

    def named_parameters(self):
        """Dict of dotted name -> parameter array, in canonical order."""
        out = {}
        for lname, layer in self._layers:
            for pname, arr in layer.params():
                out[lname + "." + pname] = arr
        return out

    def set_freeze_prefix(self, count):
        """Freeze all parameters of the first `count` layers, thaw the rest."""
        count = int(count)
        if not 0 <= count <= len(self._layers):
            raise DataError("freeze prefix must lie in [0, %d], got %d"
                            % (len(self._layers), count))
        for i, (lname, layer) in enumerate(self._layers):
            for pname, _ in layer.params():
                self.freeze[lname + "." + pname] = i < count

    def frozen_steps(self):
        """Number of leading steps that hold no trainable parameter.

        Parameter-free steps count as frozen. A count that would split the
        stage-3 skip from its concat backs off to the _SKIP step, so a walk
        from it still sees both maps; with every layer frozen it is the
        whole step list.
        """
        count = 0
        for step in self._steps:
            if step not in (_POOL, _SKIP, _CONCAT):
                name, layer, _ = step
                if not all(self.freeze[name + "." + pname]
                           for pname, _ in layer.params()):
                    break
            count += 1
        skip = self._steps.index(_SKIP)
        return skip if skip < count <= self._steps.index(_CONCAT) else count

    def _checked(self, x):
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != (1, PATCH, PATCH):
            raise DimensionError(
                "network expects (B,1,%d,%d), got %s" % (PATCH, PATCH, (x.shape,)))
        return x

    def walk(self, x, tape=None, start=0, stop=None):
        """Run steps start..stop-1 on x; with a tape, append one cache per step.

        x is the activation entering step `start`, checked as network input
        when that is the first step. Without a tape no cache is kept. This
        is the serial walk: it runs on the calling thread at the OpenBLAS
        thread count in effect.
        """
        if start == 0:
            x = self._checked(x)
        for step in self._steps[start:stop]:
            if step is _POOL:
                x, cache = maxpool2d(x)
            elif step is _SKIP:
                skip, cache = x, None
            elif step is _CONCAT:
                x, cache = np.concatenate([skip, x], axis=1), skip.shape[1]
            elif tape is None:
                _, layer, act = step
                x = gelu(layer.forward(x)) if act else layer.forward(x)
                continue
            else:
                _, layer, act = step
                x, cache = layer.forward_cache(x)
                if act:
                    x, derivative = gelu_cache(x)
                    cache = (cache, derivative)
            if tape is not None:
                tape.append(cache)
        return x

    def _in_chunks(self, task, cut):
        """[task(*args) for args in cut(workers)] at one OpenBLAS thread,
        in order.

        The chunks run on a pool of min(OpenBLAS threads, usable CPUs)
        workers, a count `cut` may use to make them. The pool is opened for
        this call and joined before it returns, also when a chunk raises,
        so no worker thread outlives the call. With one chunk, one worker,
        or a layer method replaced on the instance (a hook or a profiler's
        wrapper, which need not be thread-safe), the chunks run on the
        calling thread instead. One lock lets one caller hold OpenBLAS at
        one thread at a time; the count is restored afterwards, also when
        a chunk raises. Workers run under the caller's `np.errstate`.
        """
        hooked = any(_hooked(layer) for _, layer in self._layers)
        with _FANOUT_LOCK:
            threads = blas_threads()
            workers = min(threads, len(os.sched_getaffinity(0)))
            chunks = cut(workers)
            if not any(len(args[0]) for args in chunks):
                raise DimensionError("the batch holds no patch")
            set_blas_threads(1)
            try:
                if hooked or workers == 1 or len(chunks) == 1:
                    return [task(*args) for args in chunks]
                with ThreadPoolExecutor(workers, "seishet-forward") as pool:
                    # a copy of the caller's context carries its np.errstate
                    parts = [pool.submit(contextvars.copy_context().run,
                                         task, *args) for args in chunks]
                return [p.result() for p in parts]
            finally:
                set_blas_threads(threads)

    def forward(self, x, start=0, stop=None):
        """Steps start..stop-1 on x, the activation entering step `start`.

        By default: logits (B,2,44,44) for a batch of normalized patches.
        The batch is walked in near-equal chunks of at most _CHUNK
        patches, as many as the smallest multiple of the worker count that
        allows, capped at the batch size (see `_in_chunks`), with OpenBLAS
        held at one thread until they finish. That count is process-wide:
        while a fan-out runs, a direct `walk` on another thread also gets
        one OpenBLAS thread, and its float64 results may then differ in the
        last bits.
        """
        if start == 0:
            x = self._checked(x)

        def cut(workers):
            count = min(len(x), -(-len(x) // (_CHUNK * workers)) * workers)
            return [(b, None, start, stop)
                    for b in np.array_split(x, max(count, 1))]

        return np.concatenate(self._in_chunks(self.walk, cut))

    def loss_and_grads(self, x, target, pos_weight=None, start=0):
        """One training step's forward+backward from step `start` on.

        x is the activation entering step `start`: normalized patches by
        default, or features cached up to `frozen_steps()`. Returns (loss,
        logits, grads) where grads maps the name of every parameter the
        walk passed, and only those, to its gradient.

        The batch is cut into consecutive chunks of _CHUNK patches (the
        last may be smaller), whatever the worker count. Each chunk is
        walked, scored against the whole batch's loss normalizer and walked
        back at one OpenBLAS thread, on a pool opened for the call or on the
        calling thread (see `_in_chunks`), and its tape is freed when its
        backward walk ends. Losses and gradients are summed in chunk order,
        so the result depends on neither the thread count nor the pool.
        """
        if start == 0:
            x = self._checked(x)
        target = np.asarray(target)
        norm = loss_normalizer((len(x), 2, PATCH, PATCH), target, pos_weight)
        chunks = [(x[i:i + _CHUNK], target[i:i + _CHUNK], pos_weight, norm,
                   start) for i in range(0, len(x), _CHUNK)]
        parts = self._in_chunks(self._step, lambda workers: chunks)
        loss, grads = 0.0, {}
        for part, _, part_grads in parts:
            loss += part
            for name, g in part_grads.items():
                grads[name] = grads[name] + g if name in grads else g
        return loss, np.concatenate([p[1] for p in parts]), grads

    def _step(self, x, target, pos_weight, norm, start):
        """Walk, score and walk back one batch; its tape dies with the call."""
        tape = []
        logits = self.walk(x, tape, start)
        loss, g = cross_entropy_2class(logits, target, pos_weight, norm)
        return loss, logits, self.backward(tape, g, start)

    def backward(self, tape, g, start=0):
        """Walk a tape that `walk` filled from step `start` backwards.

        g is the loss gradient with respect to the walk's output. Returns
        the gradients of the parameters the walk passed, by name. Each
        step's cache is popped off the tape once used, so it is freed as
        the walk goes.
        """
        grads = {}
        for i in reversed(range(start, start + len(tape))):
            step, cache = self._steps[i], tape.pop()
            if step is _POOL:
                g = maxpool2d_backward(g, cache)
            elif step is _SKIP:
                g = g_skip + g
            elif step is _CONCAT:
                g_skip, g = g[:, :cache], g[:, cache:]
            else:
                name, layer, act = step
                if act:
                    cache, derivative = cache
                    g = gelu_grad_cached(g, derivative)
                g, *pgrads = layer.backward(cache, g, input_grad=i > start)
                grads.update((name + "." + pname, pg)
                             for (pname, _), pg in zip(layer.params(), pgrads))
        return grads


def channel_softmax(logits):
    """Softmax over axis 1 of (B,2,H,W) logits."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=1, keepdims=True)


def build_network(variant, prng, config=None, dtype=np.float32):
    return HetNet(variant, prng=prng, config=config, dtype=dtype)


def _affine_flops(layer):
    """Flops of one output position of a Dense or Conv2d: MACs plus bias."""
    return 2 * layer.weight.size + layer.bias.size


def _attention_flops(block, n):
    """Flops of an attention block over n grid positions."""
    if isinstance(block, SeAttention):
        ch = block.fc1.in_dim
        fl = ch * n + ch                               # squeeze mean
        fl += _affine_flops(block.fc1) + _affine_flops(block.fc2)
        fl += ch * n                                   # channel gate multiply
        fl += n * _affine_flops(block.spatial)         # spatial 1x1 conv
        fl += ch * n                                   # spatial gate multiply
        return fl
    a = block.attn
    fl = n * _affine_flops(block.conv)                 # conv branch
    fl += 2 * n * (a.wq.size + a.wk.size + a.wv.size)  # q, k, v projections
    fl += 2 * n * n * a.d_k                            # content logits
    fl += 2 * n * a.d_k * (len(a.rel_w) + len(a.rel_h))  # relative embeddings
    fl += 2 * a.heads * n * n                          # adding both rel terms
    fl += a.heads * n * n                              # logit scaling
    fl += 2 * n * n * a.d_v                            # value mixing
    fl += 2 * n * a.wo.size                            # output projection
    return fl


def flops_table(model):
    """(layer, params, flops) rows for one PATCH x PATCH forward pass.

    Convention: see FLOP_CONVENTION. Counts are exact under that convention,
    not a hardware estimate. The sizes come from the model's own step list
    and layers: the grid side halves at each pool and doubles after each
    transposed convolution. Parameter counts are the layers' tensor sizes.
    """
    side, rows = PATCH, []
    for step in model._steps:
        if step is _POOL:
            side //= 2
        elif step not in (_SKIP, _CONCAT):
            name, layer, _ = step
            n = side * side
            if isinstance(layer, TransposedConv2d):
                # MACs per input pixel, a bias add per each of its 2x2 outputs
                fl = n * (2 * layer.weight.size + 4 * layer.bias.size)
                side *= 2
            elif isinstance(layer, Conv2d):
                fl = n * _affine_flops(layer)
            else:
                fl = _attention_flops(layer, n)
            rows.append((name, sum(arr.size for _, arr in layer.params()), fl))
    return rows


def count_params_flops(model):
    """Total trainable parameter count and forward-pass flops for one patch."""
    total_params = sum(p.size for p in model.named_parameters().values())
    total_flops = sum(fl for _, _, fl in flops_table(model))
    return total_params, total_flops


def parameter_table(model):
    """(name, shape, size, frozen) rows for every parameter."""
    return [
        (name, tuple(arr.shape), arr.size, model.freeze[name])
        for name, arr in model.named_parameters().items()
    ]


def save_checkpoint(model, path):
    """Write the model to the binary checkpoint format.

    Layout (little-endian): magic "SHNCKPT1"; u32 version; u8 variant code
    (0 = se, 1 = self_attention); u32 se ratio, heads, d_k, d_v; then one
    record per parameter in canonical order (u32 name length, UTF-8 name,
    u32 rank, u32 dims, float32 data); then one freeze entry per parameter
    (u32 name length, name, u8 flag).
    """
    cfg = model.config
    parts = [CHECKPOINT_MAGIC]
    parts.append(struct.pack(
        "<IBIIII", CHECKPOINT_VERSION, _VARIANT_CODE[model.variant],
        cfg.se_ratio, cfg.heads, cfg.d_k, cfg.d_v,
    ))
    params = model.named_parameters()
    for name, arr in params.items():
        nb = name.encode("utf-8")
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack("<%dI" % arr.ndim, *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    for name in params:
        nb = name.encode("utf-8")
        parts.append(struct.pack("<I", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", 1 if model.freeze[name] else 0))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def _read_exact(fh, n, what):
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError("checkpoint truncated while reading %s" % what)
    return buf


def _read_name(fh, what):
    (ln,) = struct.unpack("<I", _read_exact(fh, 4, what + " name length"))
    if ln > 4096:
        raise FormatError("implausible %s name length %d" % (what, ln))
    try:
        return _read_exact(fh, ln, what + " name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("%s name is not valid UTF-8: %s" % (what, exc))


def load_checkpoint(path):
    """Rebuild a model from a checkpoint written by save_checkpoint."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise FormatError("not a checkpoint file (bad magic)")
        header = _read_exact(fh, struct.calcsize("<IBIIII"), "header")
        version, vcode, ratio, heads, d_k, d_v = struct.unpack("<IBIIII", header)
        if version != CHECKPOINT_VERSION:
            raise FormatError("unsupported checkpoint version %d" % version)
        if vcode not in _VARIANT_NAME:
            raise FormatError("unknown attention variant code %d" % vcode)
        config = NetConfig(se_ratio=ratio, heads=heads, d_k=d_k, d_v=d_v)
        try:
            model = HetNet(_VARIANT_NAME[vcode], prng=None, config=config)
        except ConfigError as exc:
            raise IntegrityError("checkpoint hyperparameters invalid: %s" % exc)
        expected = model.named_parameters()
        seen = set()
        for _ in range(len(expected)):
            name = _read_name(fh, "tensor")
            if name not in expected:
                raise IntegrityError("unexpected tensor %r for this variant" % name)
            if name in seen:
                raise IntegrityError("duplicate tensor %r" % name)
            seen.add(name)
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, "tensor rank"))
            if rank > 8:
                raise FormatError("implausible tensor rank %d" % rank)
            dims = struct.unpack(
                "<%dI" % rank, _read_exact(fh, 4 * rank, "tensor dims")
            )
            want = expected[name].shape
            if tuple(dims) != want:
                raise IntegrityError(
                    "tensor %s has shape %s, expected %s" % (name, dims, want)
                )
            count = int(np.prod(dims, dtype=np.int64)) if rank else 1
            raw = _read_exact(fh, 4 * count, "tensor data")
            arr = np.frombuffer(raw, dtype="<f4").reshape(dims)
            if not np.isfinite(arr).all():
                raise IntegrityError("tensor %s has non-finite values" % name)
            expected[name][...] = arr
        seen = set()
        for _ in range(len(expected)):
            name = _read_name(fh, "freeze")
            if name not in expected:
                raise IntegrityError("freeze flag for unknown tensor %r" % name)
            if name in seen:
                raise IntegrityError("duplicate freeze flag for %r" % name)
            seen.add(name)
            (flag,) = struct.unpack("<B", _read_exact(fh, 1, "freeze flag"))
            if flag > 1:
                raise FormatError("freeze flag for %s is %d, not 0 or 1"
                                  % (name, flag))
            model.freeze[name] = bool(flag)
        if fh.read(1):
            raise FormatError("trailing bytes after checkpoint data")
    return model
