"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with plain pytest; the ACCEPTANCE lines bypass output capture so the
verdicts are visible in any log. The two training criteria (3 and 4) carry
real compute budgets and dominate the suite's runtime.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from conftest import (
    finite_difference_grad,
    relative_error,
    self_attention_head,
    write_raw_section,
    write_segy,
)
from seishet.attention import (
    AugmentedAttentionConv,
    RelativeSelfAttention2d,
    SeAttention,
    relative_logits,
    se_squeeze,
)
from seishet.errors import FormatError
from seishet.layers import (
    Conv2d,
    Dense,
    TransposedConv2d,
    cross_entropy_2class,
    maxpool2d,
    maxpool2d_backward,
)
from seishet.metrics import (
    ConfusionCounts,
    confusion_counts,
    evaluate,
    report_from_counts,
)
from seishet.model import NetConfig, build_network, save_checkpoint
from seishet.numcore import Prng
from seishet.pgm import read_pgm, write_pgm
from seishet.segy import ibm_to_ieee, open_volume
from seishet.synthgen import SyntheticConfig, generate_dataset, generate_section
from seishet.train import TrainConfig, split_dataset, train


def _report(capsys, num, passed, detail):
    with capsys.disabled():
        print("ACCEPTANCE %2d %s %s" % (num, "PASS" if passed else "FAIL", detail),
              flush=True)
    assert passed, "criterion %d: %s" % (num, detail)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("SEISHET_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "seishet.cli"] + [str(a) for a in args],
        capture_output=True, text=True, env=env,
    )


# ------------------------------------------------------------- criterion 1

def _fd_for_param(arr, compute, h=1e-6):
    """Central-difference gradient of compute() w.r.t. an owned array."""
    saved = arr.copy()

    def f(v):
        arr[...] = v
        return compute()

    grad = finite_difference_grad(f, saved, h)
    arr[...] = saved
    return grad


def _randomize(block, prng, scale=0.5):
    for _, arr in block.params():
        arr[...] = prng.uniform(-scale, scale, arr.shape)


def test_criterion_01_gradient_checks(capsys):
    t0 = time.monotonic()
    prng = Prng(2024)
    worst = 0.0

    def track(analytic, numeric):
        nonlocal worst
        worst = max(worst, relative_error(analytic, numeric))

    # plain 3x3 convolution
    conv = Conv2d(3, 4, prng=prng, dtype=np.float64)
    x = prng.uniform(-1.0, 1.0, (2, 3, 5, 5))
    y, cache = conv.forward_cache(x)
    gx, gw, gb = conv.backward(cache, y)
    loss = lambda: 0.5 * float((conv.forward(x) ** 2).sum())
    track(gw, _fd_for_param(conv.weight, loss))
    track(gb, _fd_for_param(conv.bias, loss))
    track(gx, finite_difference_grad(
        lambda v: 0.5 * float((conv.forward(v) ** 2).sum()), x, 1e-6))

    # fully connected layer
    dense = Dense(7, 4, prng=prng, dtype=np.float64)
    xd = prng.uniform(-1.0, 1.0, (3, 7))
    y, cache = dense.forward_cache(xd)
    gx, gw, gb = dense.backward(cache, y)
    loss = lambda: 0.5 * float((dense.forward(xd) ** 2).sum())
    track(gw, _fd_for_param(dense.weight, loss))
    track(gb, _fd_for_param(dense.bias, loss))
    track(gx, finite_difference_grad(
        lambda v: 0.5 * float((dense.forward(v) ** 2).sum()), xd, 1e-6))

    # strided transposed convolution
    tconv = TransposedConv2d(4, 3, prng=prng, dtype=np.float64)
    xt = prng.uniform(-1.0, 1.0, (2, 4, 5, 5))
    y, cache = tconv.forward_cache(xt)
    gx, gw, gb = tconv.backward(cache, y)
    loss = lambda: 0.5 * float((tconv.forward(xt) ** 2).sum())
    track(gw, _fd_for_param(tconv.weight, loss))
    track(gb, _fd_for_param(tconv.bias, loss))
    track(gx, finite_difference_grad(
        lambda v: 0.5 * float((tconv.forward(v) ** 2).sum()), xt, 1e-6))

    # max pooling (h small enough not to flip any argmax)
    xp = prng.uniform(-1.0, 1.0, (2, 3, 6, 6))
    yp, idx = maxpool2d(xp)
    track(maxpool2d_backward(yp, idx), finite_difference_grad(
        lambda v: 0.5 * float((maxpool2d(v)[0] ** 2).sum()), xp, 1e-7))

    # two-class cross-entropy w.r.t. logits
    logits = prng.uniform(-1.0, 1.0, (2, 2, 4, 4))
    target = (prng.uniform(0.0, 1.0, (2, 4, 4)) > 0.5).astype(np.uint8)
    track(cross_entropy_2class(logits, target)[1], finite_difference_grad(
        lambda v: cross_entropy_2class(v, target)[0], logits, 1e-6))

    # squeeze-excite block with its spatial gate
    se = SeAttention(8, ratio=4, prng=prng, dtype=np.float64)
    _randomize(se, prng)
    xs = prng.uniform(-1.0, 1.0, (2, 8, 3, 3))
    y, cache = se.forward_cache(xs)
    gx, *grads = se.backward(cache, y)
    compute = lambda: 0.5 * float((se.forward(xs) ** 2).sum())
    for (_, arr), grad in zip(se.params(), grads):
        track(grad, _fd_for_param(arr, compute))
    track(gx, finite_difference_grad(
        lambda v: 0.5 * float((se.forward(v) ** 2).sum()), xs, 1e-6))

    # relative self-attention, two heads on a 4x4 grid
    mha = RelativeSelfAttention2d(5, 4, 4, heads=2, d_k=4, d_v=4,
                                  prng=prng, dtype=np.float64)
    _randomize(mha, prng)
    xm = prng.uniform(-1.0, 1.0, (2, 5, 4, 4))
    y, cache = mha.forward_cache(xm)
    gx, *grads = mha.backward(cache, y)
    compute = lambda: 0.5 * float((mha.forward(xm) ** 2).sum())
    for (_, arr), grad in zip(mha.params(), grads):
        track(grad, _fd_for_param(arr, compute))
    track(gx, finite_difference_grad(
        lambda v: 0.5 * float((mha.forward(v) ** 2).sum()), xm, 1e-6))

    # augmented convolution: conv branch concatenated with the above
    aac = AugmentedAttentionConv(5, 7, 4, 4, heads=2, d_k=4, d_v=4,
                                 prng=prng, dtype=np.float64)
    _randomize(aac, prng)
    xa = prng.uniform(-1.0, 1.0, (2, 5, 4, 4))
    y, cache = aac.forward_cache(xa)
    gx, *grads = aac.backward(cache, y)
    compute = lambda: 0.5 * float((aac.forward(xa) ** 2).sum())
    for (_, arr), grad in zip(aac.params(), grads):
        track(grad, _fd_for_param(arr, compute))
    track(gx, finite_difference_grad(
        lambda v: 0.5 * float((aac.forward(v) ** 2).sum()), xa, 1e-6))

    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _report(capsys, 1, ok,
            "layer+attention gradients: max rel err %.2e (< 1e-4), %.1f s (< 60)"
            % (worst, elapsed))


# ------------------------------------------------------------- criterion 2

def _gelu_ref(t):
    return 0.5 * t * (1.0 + math.erf(t / math.sqrt(2.0)))


def _sigmoid_ref(t):
    return 1.0 / (1.0 + math.exp(-t))


def _loop_rel_logits(q, k, rel_w, rel_h, height, width):
    n, d = q.shape
    out = np.zeros((n, n))
    for i in range(n):
        iy, ix = divmod(i, width)
        for j in range(n):
            jy, jx = divmod(j, width)
            s = float(np.dot(q[i], k[j]))
            s += float(np.dot(q[i], rel_w[jx - ix + width - 1]))
            s += float(np.dot(q[i], rel_h[jy - iy + height - 1]))
            out[i, j] = s / math.sqrt(d)
    return out


def _loop_head(q, k, v, rel_w, rel_h, height, width):
    logits = _loop_rel_logits(q, k, rel_w, rel_h, height, width)
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        e = np.exp(logits[i] - logits[i].max())
        w = e / e.sum()
        for j in range(q.shape[0]):
            out[i] += w[j] * v[j]
    return out


def _loop_mha(attn, x):
    b, c, h, w = x.shape
    n = h * w
    out = np.zeros((b, attn.d_v, h, w))
    for bi in range(b):
        xt = x[bi].reshape(c, n).T
        cat = np.zeros((n, attn.d_v))
        for hd in range(attn.heads):
            ks = slice(hd * attn.dk_head, (hd + 1) * attn.dk_head)
            vs = slice(hd * attn.dv_head, (hd + 1) * attn.dv_head)
            q = xt @ attn.wq[:, ks]
            k = xt @ attn.wk[:, ks]
            v = xt @ attn.wv[:, vs]
            cat[:, vs] = _loop_head(q, k, v, attn.rel_w, attn.rel_h, h, w)
        out[bi] = (cat @ attn.wo).T.reshape(attn.d_v, h, w)
    return out


def _loop_conv3x3(weight, bias, x):
    b, c, h, w = x.shape
    oc = weight.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((b, oc, h, w))
    for bi in range(b):
        for o in range(oc):
            for y in range(h):
                for xi in range(w):
                    acc = bias[o]
                    for ci in range(c):
                        for ky in range(3):
                            for kx in range(3):
                                acc += weight[o, ci, ky, kx] * xp[bi, ci, y + ky, xi + kx]
                    out[bi, o, y, xi] = acc
    return out


def test_criterion_02_equation_loop_oracles(capsys):
    prng = Prng(404)
    worst = 0.0

    def track(a, b):
        nonlocal worst
        worst = max(worst, float(np.abs(np.asarray(a) - np.asarray(b)).max()))

    # channel squeeze: per-channel spatial mean
    x = prng.uniform(-1.0, 1.0, (2, 6, 3, 4))
    z = np.zeros((2, 6))
    for bi in range(2):
        for c in range(6):
            z[bi, c] = x[bi, c].sum() / 12.0
    track(se_squeeze(x), z)

    # SE block: the sigmoid(fc2(gelu(fc1(z)))) channel gate applied to x,
    # then the per-pixel sigmoid of the 1x1 spatial conv times that map
    block = SeAttention(8, ratio=4, prng=prng, dtype=np.float64)
    _randomize(block, prng)
    xs = prng.uniform(-1.0, 1.0, (2, 8, 3, 3))
    zs = se_squeeze(xs)
    expected = np.zeros_like(xs)
    for bi in range(2):
        hidden = [_gelu_ref(float(np.dot(block.fc1.weight[j], zs[bi])
                                  + block.fc1.bias[j]))
                  for j in range(2)]
        gated = np.zeros((8, 3, 3))
        for c in range(8):
            gate = _sigmoid_ref(float(np.dot(block.fc2.weight[c], hidden)
                                      + block.fc2.bias[c]))
            gated[c] = xs[bi, c] * gate
        for i in range(3):
            for j in range(3):
                s = float(block.spatial.bias[0])
                for c in range(8):
                    s += float(block.spatial.weight[0, c, 0, 0]) * gated[c, i, j]
                expected[bi, :, i, j] = _sigmoid_ref(s) * gated[:, i, j]
    track(block.forward(xs), expected)

    # relative position logits on a 3x3 grid
    q = prng.uniform(-1.0, 1.0, (9, 3))
    k = prng.uniform(-1.0, 1.0, (9, 3))
    rw = prng.uniform(-1.0, 1.0, (5, 3))
    rh = prng.uniform(-1.0, 1.0, (5, 3))
    track(relative_logits(q, k, rw, rh), _loop_rel_logits(q, k, rw, rh, 3, 3))

    # one attention head: softmax over keys then value mixing
    v = prng.uniform(-1.0, 1.0, (9, 4))
    track(self_attention_head(q, k, v, rw, rh), _loop_head(q, k, v, rw, rh, 3, 3))

    # multi-head attention with output projection
    mha = RelativeSelfAttention2d(4, 3, 3, heads=2, d_k=4, d_v=4,
                                  prng=prng, dtype=np.float64)
    _randomize(mha, prng)
    xm = prng.uniform(-1.0, 1.0, (2, 4, 3, 3))
    track(mha.forward(xm), _loop_mha(mha, xm))

    # augmented convolution: conv channels then attention channels
    aac = AugmentedAttentionConv(4, 7, 3, 3, heads=2, d_k=4, d_v=4,
                                 prng=prng, dtype=np.float64)
    _randomize(aac, prng)
    xa = prng.uniform(-1.0, 1.0, (2, 4, 3, 3))
    expected = np.concatenate(
        [_loop_conv3x3(aac.conv.weight, aac.conv.bias, xa), _loop_mha(aac.attn, xa)],
        axis=1,
    )
    track(aac.forward(xa), expected)

    ok = worst < 1e-6
    _report(capsys, 2, ok,
            "squeeze/se-attention/logits/head/mha/augmented-conv vs loop oracles:"
            " max abs dev %.2e (< 1e-6)" % worst)


# ------------------------------------------------------------- criterion 3

def test_criterion_03_overfit_smoke(capsys):
    t0 = time.monotonic()
    config = SyntheticConfig(sections=16, seed=5, height=44, width=44,
                             noise=(0.0, 0.02), mask_dilation=3,
                             throw=(8, 15), dip_degrees=(60, 85))
    samples = generate_dataset(config)
    assert len(samples) == 16
    master = Prng(3)
    model = build_network("self_attention", master.derive(0), NetConfig())
    tc = TrainConfig(epochs=300, batch_size=32,
                     shuffle_seed=master.derive(2).seed)
    model, history = train(model, samples, tc, heldout=samples)
    elapsed = time.monotonic() - t0
    hit = next((s.epoch for s in history if s.loss < 0.05 and s.iou > 0.95), None)
    ok = hit is not None and elapsed < 300.0
    _report(capsys, 3, ok,
            "16-patch overfit: loss<0.05 and IoU>0.95 %s (500-epoch budget),"
            " %.0f s (< 300)"
            % ("at epoch %d" % hit if hit else "never reached", elapsed))


# ------------------------------------------------------------- criterion 4

def test_criterion_04_desk_scale_experiment(capsys):
    t0 = time.monotonic()
    config = SyntheticConfig(sections=400, seed=101, height=44, width=44,
                             noise=(0.0, 0.02), mask_dilation=3,
                             throw=(8, 15), dip_degrees=(60, 85))
    samples = generate_dataset(config)
    scores = {}
    for variant in ("self_attention", "se"):
        master = Prng(7)
        train_set, held = split_dataset(samples, 0.8, seed=master.derive(1).seed)
        model = build_network(variant, master.derive(0), NetConfig())
        tc = TrainConfig(epochs=50, batch_size=32,
                         shuffle_seed=master.derive(2).seed)
        _, history = train(model, train_set, tc, heldout=held)
        scores[variant] = history[-1].iou
    elapsed = time.monotonic() - t0
    ordering = scores["self_attention"] >= scores["se"]
    ok = scores["self_attention"] >= 0.60 and elapsed <= 900.0
    _report(capsys, 4, ok,
            "400 sections, 80/20, 50 epochs, batch 32: self-attention IoU %.4f"
            " (>= 0.60), se IoU %.4f, expected ordering self>=se: %s"
            " [informational], %.0f s (<= 900)"
            % (scores["self_attention"], scores["se"],
               "yes" if ordering else "no", elapsed))


# ------------------------------------------------------------- criterion 5

def test_criterion_05_freeze_contract(capsys, tmp_path):
    data = tmp_path / "data"
    base = tmp_path / "base.ckpt"
    tuned = tmp_path / "tuned.ckpt"
    for args in (
        ("gen", "--out", data, "--count", "4", "--seed", "7",
         "--height", "88", "--width", "88"),
        ("train", "--data", data, "--out", base, "--attention", "se",
         "--epochs", "1", "--seed", "3"),
        ("finetune", "--ckpt", base, "--data", data, "--out", tuned,
         "--epochs", "1", "--freeze-prefix", "2", "--seed", "9"),
    ):
        r = run_cli(*args)
        assert r.returncode == 0, r.stderr
    diff = run_cli("info", "--ckpt", base, "--diff", tuned)
    assert diff.returncode == 0
    equal, changed = set(), set()
    for line in diff.stdout.splitlines():
        if line.startswith("equal "):
            equal.add(line.split(" ", 1)[1])
        elif line.startswith("differs "):
            changed.add(line.split(" ", 1)[1])
    stage1 = {n for n in equal | changed if n.startswith("stage1.")}
    ok = (stage1 and stage1 <= equal and len(changed) >= 1)
    _report(capsys, 5, ok,
            "finetune freeze-prefix 2: %d stage-1 tensors bit-identical,"
            " %d later tensors changed (diff via info)"
            % (len(stage1), len(changed)))


# ------------------------------------------------------------- criterion 6

def test_criterion_06_bitwise_determinism(capsys, tmp_path):
    artifacts = []
    # the third run holds OpenBLAS at one thread
    for run, env in (("r1", None), ("r2", None),
                     ("r3", {"OPENBLAS_NUM_THREADS": "1"})):
        d = tmp_path / run
        r = run_cli("gen", "--out", d / "data", "--count", "4", "--seed", "7",
                    "--height", "88", "--width", "88", env_extra=env)
        assert r.returncode == 0, r.stderr
        r = run_cli("train", "--data", d / "data", "--out", d / "m.ckpt",
                    "--attention", "se", "--epochs", "2", "--seed", "3",
                    "--log", d / "train.log", env_extra=env)
        assert r.returncode == 0, r.stderr
        artifacts.append(((d / "m.ckpt").read_bytes(),
                          (d / "train.log").read_bytes()))
    same_ckpt = artifacts[0][0] == artifacts[1][0]
    same_log = artifacts[0][1] == artifacts[1][1]
    one_thread = artifacts[2] == artifacts[0]
    ok = same_ckpt and same_log and one_thread
    _report(capsys, 6, ok,
            "two gen->train runs, same seeds: checkpoints identical=%s,"
            " epoch logs identical=%s (%d-byte checkpoint); a third at"
            " OPENBLAS_NUM_THREADS=1 identical=%s"
            % (same_ckpt, same_log, len(artifacts[0][0]), one_thread))


# ------------------------------------------------------------- criterion 7

def test_criterion_07_segy_parser(capsys, tmp_path):
    failures = []

    # IBM words against manual bit arithmetic
    for word, label in ((0x00000000, "zero"), (0x4276A000, "+118.625"),
                        (0xC276A000, "-118.625"), (0x41100000, "one"),
                        (0x40800000, "half")):
        sign = -1.0 if (word >> 31) & 1 else 1.0
        frac = (word & 0xFFFFFF) / float(1 << 24)
        manual = sign * frac * 16.0 ** (((word >> 24) & 0x7F) - 64)
        if ibm_to_ieee(word) != manual:
            failures.append("ibm %s" % label)

    # malformed fixtures must raise descriptive format errors, never crash
    traces = [(1, 1, [0.5, 1.5]), (1, 2, [2.5, 3.5])]
    short = tmp_path / "short.sgy"
    short.write_bytes(b"\x00" * 100)
    cases = [
        ("short header", short, "too short"),
        ("bad format code",
         write_segy(tmp_path / "fmt.sgy", traces, fmt=3), "format code 3"),
        ("truncated trace",
         write_segy(tmp_path / "trunc.sgy", traces, extra_tail=b"\x01"),
         "trace 3"),
    ]
    for label, path, needle in cases:
        try:
            open_volume(path)
            failures.append("%s: no error" % label)
        except FormatError as exc:
            if needle not in str(exc):
                failures.append("%s: message lacks %r" % (label, needle))
        except Exception as exc:  # anything else counts as a crash
            failures.append("%s: %s" % (label, type(exc).__name__))

    ok = not failures
    _report(capsys, 7, ok,
            "IBM vectors exact, malformed files rejected cleanly"
            if ok else "; ".join(failures))


# ------------------------------------------------------------- criterion 8

def test_criterion_08_metrics_identities(capsys):
    failures = []

    # pinned example: 4 predicted, 4 true, 2 overlapping pixels
    pred = np.zeros((4, 4), dtype=np.uint8)
    truth = np.zeros((4, 4), dtype=np.uint8)
    pred.flat[[0, 1, 2, 3]] = 1
    truth.flat[[2, 3, 8, 9]] = 1
    rep = evaluate(pred, truth)
    if not (abs(rep.iou - 2.0 / 6.0) < 1e-15 and rep.precision == 0.5
            and rep.recall == 0.5 and rep.f1 == 0.5):
        failures.append("2/6-overlap example")

    prng = Prng(88)
    for trial in range(20):
        a = (prng.uniform(0.0, 1.0, (9, 11)) > 0.6).astype(np.uint8)
        b = (prng.uniform(0.0, 1.0, (9, 11)) > 0.6).astype(np.uint8)
        ra, rb = evaluate(a, b), evaluate(b, a)
        if abs(ra.iou - rb.iou) > 1e-15:
            failures.append("iou symmetry")
        if abs(ra.precision - rb.recall) > 1e-15 or abs(ra.recall - rb.precision) > 1e-15:
            failures.append("precision/recall swap")
        denom = ra.precision + ra.recall
        if denom and abs(ra.f1 - 2 * ra.precision * ra.recall / denom) > 1e-12:
            failures.append("f1 consistency")

    # micro-average over shards == single pass over the concatenation
    for trial in range(5):
        shards = []
        for _ in range(4):
            h = int(prng.randint(2, 8))
            w = int(prng.randint(2, 8))
            shards.append(((prng.uniform(0, 1, (h, w)) > 0.5).astype(np.uint8),
                           (prng.uniform(0, 1, (h, w)) > 0.5).astype(np.uint8)))
        summed = sum((confusion_counts(p, t) for p, t in shards),
                     ConfusionCounts())
        cat_p = np.concatenate([p.ravel() for p, _ in shards])[None]
        cat_t = np.concatenate([t.ravel() for _, t in shards])[None]
        joint = confusion_counts(cat_p, cat_t)
        if (summed.tp, summed.fp, summed.fn, summed.tn) != (
                joint.tp, joint.fp, joint.fn, joint.tn):
            failures.append("micro vs concatenated counts")
        ra, rb = report_from_counts(summed), report_from_counts(joint)
        if abs(ra.iou - rb.iou) > 1e-15:
            failures.append("micro vs concatenated iou")

    ok = not failures
    _report(capsys, 8, ok,
            "symmetry, F1 identity, 2/6 example, micro==concat all hold"
            if ok else "; ".join(sorted(set(failures))))


# ------------------------------------------------------------- criterion 9

def test_criterion_09_parameter_reporting(capsys, tmp_path):
    # closed-form totals from the layer shapes, written out independently
    trunk = ((20 * 1 * 9 + 20) + (20 * 20 * 9 + 20)
             + (50 * 20 * 9 + 50) + (50 * 50 * 9 + 50)
             + (50 * 50 * 9 + 50) + (50 * 50 * 9 + 50))
    decoder = (100 * 20 * 9 + 20) + (20 * 10 * 9 + 10) + (2 * 10 + 2)
    se_total = trunk + ((25 * 100 + 25) + (100 * 25 + 100) + (100 + 1)) + decoder
    attn_total = trunk + (
        (68 * 100 * 9 + 68)
        + 100 * 32 + 100 * 32 + 100 * 32 + 32 * 32
        + 21 * 8 + 21 * 8
    ) + decoder

    failures = []
    for variant, expected in (("se", se_total), ("self_attention", attn_total)):
        path = tmp_path / (variant + ".ckpt")
        save_checkpoint(build_network(variant, Prng(1)), path)
        r = run_cli("info", "--ckpt", path)
        if r.returncode != 0:
            failures.append("%s: exit %d" % (variant, r.returncode))
            continue
        if ("total trainable parameters: %d" % expected) not in r.stdout:
            failures.append("%s: total != %d" % (variant, expected))
        if "92827" not in r.stdout or "differs because" not in r.stdout:
            failures.append("%s: reference figure not explained" % variant)
    ok = not failures
    _report(capsys, 9, ok,
            "info totals match closed-form oracles (se %d, self-attention %d),"
            " 92827 shown as reference" % (se_total, attn_total)
            if ok else "; ".join(failures))


# ------------------------------------------------------------- criterion 10

def test_criterion_10_end_to_end_pipeline(capsys, tmp_path):
    t0 = time.monotonic()
    section, mask = generate_section(
        SyntheticConfig(height=64, width=64, sections=1, seed=0,
                        mask_dilation=3), Prng(99))
    raw = tmp_path / "section.f32"
    truth = tmp_path / "truth.pgm"
    write_raw_section(section, raw)
    write_pgm(truth, mask * 255)

    data = tmp_path / "data"
    ckpt = tmp_path / "model.ckpt"
    pred = tmp_path / "map.pgm"
    steps = [
        ("gen", "--out", data, "--count", "4", "--seed", "7",
         "--height", "88", "--width", "88"),
        ("train", "--data", data, "--out", ckpt, "--attention", "se",
         "--epochs", "1", "--seed", "3"),
        ("predict", "--ckpt", ckpt, "--raw", raw, "--height", "64",
         "--width", "64", "--out", pred),
        ("eval", "--pred", pred, "--truth", truth),
    ]
    failures = []
    payload = {}
    for args in steps:
        r = run_cli(*args)
        if r.returncode != 0:
            failures.append("%s: exit %d (%s)"
                            % (args[0], r.returncode, r.stderr.strip()))
            break
        if args[0] == "eval":
            payload = json.loads(r.stdout.splitlines()[-1])
    if not failures:
        if read_pgm(pred).shape != (64, 64):
            failures.append("confidence map dims")
        if set(payload) != {"iou", "precision", "recall", "f1",
                            "tp", "fp", "fn", "tn"}:
            failures.append("metrics json schema")
    elapsed = time.monotonic() - t0
    if elapsed >= 180.0:
        failures.append("%.0f s exceeds budget" % elapsed)
    ok = not failures
    _report(capsys, 10, ok,
            "gen->train->predict->eval clean: 64x64 PGM map, metrics JSON"
            " (iou %.3f), %.0f s (< 180)" % (payload.get("iou", -1.0), elapsed)
            if ok else "; ".join(failures))
