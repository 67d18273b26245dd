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
"""

import struct
from dataclasses import dataclass

import numpy as np

from .attention import AugmentedAttentionConv, SeAttention
from .errors import ConfigError, DimensionError, FormatError, IntegrityError
from .layers import (
    Conv2d,
    TransposedConv2d,
    cross_entropy_2class,
    maxpool2d,
    maxpool2d_backward,
)
from .numcore import gelu, gelu_cache, gelu_grad_cached

PATCH = 44
GRID = 11
VARIANTS = ("se", "self_attention")

# Largest se_ratio, heads, d_k or d_v that train accepts and a checkpoint
# may declare; it keeps a damaged header from sizing a huge model.
MAX_ATTENTION_SIZE = 4096

CHECKPOINT_MAGIC = b"SHNCKPT1"
CHECKPOINT_VERSION = 1
_VARIANT_CODE = {"se": 0, "self_attention": 1}
_VARIANT_NAME = {code: name for name, code in _VARIANT_CODE.items()}

FLOP_CONVENTION = (
    "multiply-accumulate = 2 flops, bias add = 1, elementwise gate multiply"
    " = 1; activations, softmax and pooling excluded; one 44x44 patch"
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


class HetNet:
    """Heterogeneity segmentation net with a pluggable attention block."""

    def __init__(self, variant, prng=None, config=None, dtype=np.float32):
        if variant not in VARIANTS:
            raise ConfigError(
                "unknown variant %r, expected one of %s" % (variant, VARIANTS)
            )
        self.variant = variant
        self.config = config or NetConfig()
        self.dtype = dtype
        cfg = self.config
        self.conv11 = Conv2d(1, 20, prng=prng, dtype=dtype)
        self.conv12 = Conv2d(20, 20, prng=prng, dtype=dtype)
        self.conv21 = Conv2d(20, 50, prng=prng, dtype=dtype)
        self.conv22 = Conv2d(50, 50, prng=prng, dtype=dtype)
        self.conv31 = Conv2d(50, 50, prng=prng, dtype=dtype)
        self.conv32 = Conv2d(50, 50, prng=prng, dtype=dtype)
        if variant == "se":
            self.attention = SeAttention(100, cfg.se_ratio, prng, dtype)
        else:
            self.attention = AugmentedAttentionConv(
                100, 100, GRID, GRID, cfg.heads, cfg.d_k, cfg.d_v, prng, dtype
            )
        self.up1 = TransposedConv2d(100, 20, prng=prng, dtype=dtype)
        self.up2 = TransposedConv2d(20, 10, prng=prng, dtype=dtype)
        self.head = Conv2d(10, 2, kernel=1, padding=0, prng=prng, dtype=dtype)
        self._layers = [
            ("stage1.conv1", self.conv11),
            ("stage1.conv2", self.conv12),
            ("stage2.conv1", self.conv21),
            ("stage2.conv2", self.conv22),
            ("stage3.conv1", self.conv31),
            ("stage3.conv2", self.conv32),
            ("attention", self.attention),
            ("up1", self.up1),
            ("up2", self.up2),
            ("head", self.head),
        ]
        self.freeze = {name: False for name in self.named_parameters()}

    def layer_names(self):
        return [name for name, _ in self._layers]

    def named_parameters(self):
        """Dict of dotted name -> parameter array, in canonical order."""
        out = {}
        for lname, layer in self._layers:
            for pname, arr in layer.params():
                out[lname + "." + pname] = arr
        return out

    def set_parameter(self, name, value):
        params = self.named_parameters()
        if name not in params:
            raise IntegrityError("unknown parameter %r" % name)
        target = params[name]
        if target.shape != value.shape:
            raise IntegrityError(
                "parameter %s has shape %s, got %s"
                % (name, target.shape, value.shape)
            )
        target[...] = value

    def set_freeze_prefix(self, count):
        """Freeze all parameters of the first `count` layers, thaw the rest."""
        frozen_layers = set(self.layer_names()[:max(0, int(count))])
        for lname, layer in self._layers:
            flag = lname in frozen_layers
            for pname, _ in layer.params():
                self.freeze[lname + "." + pname] = flag

    def _check_input(self, x):
        if x.ndim != 4 or x.shape[1] != 1:
            raise DimensionError(
                "network expects (B,1,%d,%d), got %s" % (PATCH, PATCH, (x.shape,))
            )
        if x.shape[2] != PATCH or x.shape[3] != PATCH:
            raise DimensionError(
                "network is built for %dx%d patches, got %dx%d"
                % (PATCH, PATCH, x.shape[2], x.shape[3])
            )

    def forward(self, x):
        """Logits (B,2,44,44) for a batch of normalized patches."""
        x = np.asarray(x, dtype=self.dtype)
        self._check_input(x)
        a = gelu(self.conv11.forward(x))
        a = gelu(self.conv12.forward(a))
        a, _ = maxpool2d(a)
        a = gelu(self.conv21.forward(a))
        a = gelu(self.conv22.forward(a))
        a, _ = maxpool2d(a)
        s31 = gelu(self.conv31.forward(a))
        s32 = gelu(self.conv32.forward(s31))
        a = np.concatenate([s31, s32], axis=1)
        a = self.attention.forward(a)
        a = gelu(self.up1.forward(a))
        a = gelu(self.up2.forward(a))
        return self.head.forward(a)

    def predict_proba(self, x):
        """Per-pixel class probabilities (B,2,44,44), softmax over channels."""
        return channel_softmax(self.forward(x))

    def loss_and_grads(self, x, target, pos_weight=None):
        """One training step's forward+backward.

        Returns (loss, logits, grads) where grads maps every parameter name
        to its gradient. Frozen flags are not consulted here; the optimizer
        decides what to apply.
        """
        x = np.asarray(x, dtype=self.dtype)
        self._check_input(x)
        z11, cols11 = self.conv11.forward_cols(x)
        a11, c11 = gelu_cache(z11)
        z12, cols12 = self.conv12.forward_cols(a11)
        a12, c12 = gelu_cache(z12)
        p1, idx1 = maxpool2d(a12)
        z21, cols21 = self.conv21.forward_cols(p1)
        a21, c21 = gelu_cache(z21)
        z22, cols22 = self.conv22.forward_cols(a21)
        a22, c22 = gelu_cache(z22)
        p2, idx2 = maxpool2d(a22)
        z31, cols31 = self.conv31.forward_cols(p2)
        a31, c31 = gelu_cache(z31)
        z32, cols32 = self.conv32.forward_cols(a31)
        a32, c32 = gelu_cache(z32)
        cc = np.concatenate([a31, a32], axis=1)
        at, att_cache = self.attention.forward_cache(cc)
        zu1 = self.up1.forward(at)
        au1, cu1 = gelu_cache(zu1)
        zu2 = self.up2.forward(au1)
        au2, cu2 = gelu_cache(zu2)
        logits, colsh = self.head.forward_cols(au2)
        loss, gl = cross_entropy_2class(logits, target, pos_weight)

        gau2, gwh, gbh = self.head.backward_cols(colsh, au2.shape, gl)
        gzu2 = gau2 * gelu_grad_cached(zu2, cu2)
        gau1, gwu2, gbu2 = self.up2.backward(au1, gzu2)
        gzu1 = gau1 * gelu_grad_cached(zu1, cu1)
        gat, gwu1, gbu1 = self.up1.backward(at, gzu1)
        gcc, att_grads = self.attention.backward(att_cache, gat)
        ga31 = gcc[:, :50]
        gz32 = gcc[:, 50:] * gelu_grad_cached(z32, c32)
        g31b, gw32, gb32 = self.conv32.backward_cols(cols32, a31.shape, gz32)
        gz31 = (ga31 + g31b) * gelu_grad_cached(z31, c31)
        gp2, gw31, gb31 = self.conv31.backward_cols(cols31, p2.shape, gz31)
        gz22 = maxpool2d_backward(gp2, idx2) * gelu_grad_cached(z22, c22)
        ga21, gw22, gb22 = self.conv22.backward_cols(cols22, a21.shape, gz22)
        gz21 = ga21 * gelu_grad_cached(z21, c21)
        gp1, gw21, gb21 = self.conv21.backward_cols(cols21, p1.shape, gz21)
        gz12 = maxpool2d_backward(gp1, idx1) * gelu_grad_cached(z12, c12)
        ga11, gw12, gb12 = self.conv12.backward_cols(cols12, a11.shape, gz12)
        gz11 = ga11 * gelu_grad_cached(z11, c11)
        _, gw11, gb11 = self.conv11.backward_cols(cols11, x.shape, gz11,
                                                  input_grad=False)

        grads = {
            "stage1.conv1.weight": gw11, "stage1.conv1.bias": gb11,
            "stage1.conv2.weight": gw12, "stage1.conv2.bias": gb12,
            "stage2.conv1.weight": gw21, "stage2.conv1.bias": gb21,
            "stage2.conv2.weight": gw22, "stage2.conv2.bias": gb22,
            "stage3.conv1.weight": gw31, "stage3.conv1.bias": gb31,
            "stage3.conv2.weight": gw32, "stage3.conv2.bias": gb32,
            "up1.weight": gwu1, "up1.bias": gbu1,
            "up2.weight": gwu2, "up2.bias": gbu2,
            "head.weight": gwh, "head.bias": gbh,
        }
        for name, g in att_grads.items():
            grads["attention." + name] = g
        return loss, logits, grads


def channel_softmax(logits):
    """Softmax over axis 1 of (B,2,H,W) logits."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    return e / e.sum(axis=1, keepdims=True)


def build_network(variant, prng, config=None, dtype=np.float32):
    return HetNet(variant, prng=prng, config=config, dtype=dtype)


def forward(model, batch):
    return model.forward(batch)


def _conv_flops(in_ch, out_ch, k, oh, ow):
    return oh * ow * out_ch * (2 * in_ch * k * k + 1)


def _tconv_flops(in_ch, out_ch, k, ih, iw, oh, ow):
    return 2 * ih * iw * in_ch * out_ch * k * k + out_ch * oh * ow


def flops_table(model):
    """(layer, params, flops) rows for one 44x44 forward pass.

    Convention: see FLOP_CONVENTION. Counts are exact under that convention,
    not a hardware estimate.
    """
    cfg = model.config
    g = GRID
    n = g * g
    rows = [
        ("stage1.conv1", 200, _conv_flops(1, 20, 3, 44, 44)),
        ("stage1.conv2", 3620, _conv_flops(20, 20, 3, 44, 44)),
        ("stage2.conv1", 9050, _conv_flops(20, 50, 3, 22, 22)),
        ("stage2.conv2", 22550, _conv_flops(50, 50, 3, 22, 22)),
        ("stage3.conv1", 22550, _conv_flops(50, 50, 3, g, g)),
        ("stage3.conv2", 22550, _conv_flops(50, 50, 3, g, g)),
    ]
    if model.variant == "se":
        ch = 100
        mid = ch // cfg.se_ratio
        fl = ch * n + ch                       # squeeze mean
        fl += 2 * ch * mid + mid               # fc1
        fl += 2 * mid * ch + ch                # fc2
        fl += ch * n                           # channel gate multiply
        fl += _conv_flops(ch, 1, 1, g, g)      # spatial 1x1 conv
        fl += ch * n                           # spatial gate multiply
        pcount = (mid * ch + mid) + (ch * mid + ch) + (ch + 1)
        rows.append(("attention", pcount, fl))
    else:
        f_in, f_out = 100, 100
        dk, dv = cfg.d_k, cfg.d_v
        conv_out = f_out - dv
        fl = _conv_flops(f_in, conv_out, 3, g, g)
        fl += 2 * n * f_in * (dk + dk + dv)    # q, k, v projections
        fl += 2 * n * n * dk                   # content logits
        fl += 2 * n * dk * (2 * g - 1) * 2     # relative embedding products
        fl += 2 * model.attention.attn.heads * n * n  # adding both rel terms
        fl += model.attention.attn.heads * n * n      # logit scaling
        fl += 2 * n * n * dv                   # value mixing
        fl += 2 * n * dv * dv                  # output projection
        dkh = dk // model.attention.attn.heads
        pcount = conv_out * f_in * 9 + conv_out
        pcount += f_in * dk * 2 + f_in * dv + dv * dv
        pcount += (2 * g - 1) * dkh * 2
        rows.append(("attention", pcount, fl))
    rows.extend([
        ("up1", 100 * 20 * 9 + 20, _tconv_flops(100, 20, 3, g, g, 22, 22)),
        ("up2", 20 * 10 * 9 + 10, _tconv_flops(20, 10, 3, 22, 22, 44, 44)),
        ("head", 10 * 2 + 2, _conv_flops(10, 2, 1, 44, 44)),
    ])
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
        if not all(1 <= v <= MAX_ATTENTION_SIZE for v in (ratio, heads, d_k, d_v)):
            raise IntegrityError(
                "implausible attention hyperparameters: se_ratio=%d heads=%d"
                " d_k=%d d_v=%d" % (ratio, heads, d_k, d_v))
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
            arr = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
            if not np.isfinite(arr).all():
                raise IntegrityError("tensor %s has non-finite values" % name)
            model.set_parameter(name, arr)
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
