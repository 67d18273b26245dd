"""Optimizer algebra, split/shuffle determinism, and the training loops."""

import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import forward_chunks, reference_train, spy_on_walks
from seishet.errors import ConfigError, DataError, DimensionError, EvaluationError
from seishet.layers import cross_entropy_2class
from seishet.model import build_network, save_checkpoint
from seishet.numcore import Prng, set_blas_threads
from seishet.synthgen import SyntheticConfig, generate_dataset
from seishet.train import (
    AdamState,
    TrainConfig,
    adam_step,
    evaluate_batched,
    finetune,
    split_dataset,
    stack_samples,
    train,
)


def _tiny_dataset(n_sections=4, seed=3):
    cfg = SyntheticConfig(height=44, width=44, sections=n_sections, seed=seed)
    return generate_dataset(cfg)


@pytest.mark.parametrize("field,value", [
    ("learning_rate", 0.0), ("learning_rate", -1e-3),
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("pos_weight", 0.0), ("pos_weight", -1.0), ("pos_weight", float("nan")),
])
def test_config_rejects_bad_rate_and_weight(field, value):
    with pytest.raises(DataError):
        TrainConfig(**{field: value}).validate()


def test_config_accepts_positive_rate_and_weight():
    TrainConfig(learning_rate=0.5, pos_weight=2.0).validate()
    TrainConfig(pos_weight=None).validate()


def test_split_sizes_and_determinism():
    samples = list(range(10))
    tr, te = split_dataset(samples, 0.8, seed=5)
    assert len(tr) == 8 and len(te) == 2
    tr2, te2 = split_dataset(samples, 0.8, seed=5)
    assert tr == tr2 and te == te2
    assert sorted(tr + te) == samples
    assert split_dataset(samples, 0.8, seed=6)[0] != tr


def test_split_rejects_tiny_input():
    with pytest.raises(DataError):
        split_dataset([1], 0.8, seed=0)


@pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -1.0, float("nan")])
def test_split_rejects_a_fraction_outside_the_open_unit_interval(fraction):
    with pytest.raises(ConfigError, match="split fraction must lie in"
                       r" \(0, 1\), got %r" % fraction):
        split_dataset(list(range(10)), fraction, seed=0)


def test_split_never_empties_either_side():
    tr, te = split_dataset(list(range(3)), 0.99, seed=1)
    assert len(tr) == 2 and len(te) == 1
    tr, te = split_dataset(list(range(3)), 0.01, seed=1)
    assert len(tr) == 1 and len(te) == 2


def test_adam_first_step_is_signed_learning_rate():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    grads = {"w": np.array([0.5, -0.25, 4.0])}
    state = AdamState(params, learning_rate=1e-3)
    before = params["w"].copy()
    adam_step(state, params, grads)
    delta = params["w"] - before
    np.testing.assert_allclose(
        delta, -1e-3 * np.sign(grads["w"]), atol=1e-3 * 1e-3)
    assert state.t == 1


def test_adam_zero_gradient_keeps_params_and_decays_moments():
    params = {"w": np.array([1.0, 2.0])}
    state = AdamState(params, learning_rate=1e-3)
    adam_step(state, params, {"w": np.array([1.0, -1.0])})
    m1 = state.m["w"].copy()
    v1 = state.v["w"].copy()
    before = params["w"].copy()
    adam_step(state, params, {"w": np.zeros(2)})
    np.testing.assert_allclose(state.m["w"], 0.9 * m1)
    np.testing.assert_allclose(state.v["w"], 0.999 * v1)
    # the decayed first moment still nudges parameters; sizes stay bounded
    assert np.abs(params["w"] - before).max() <= 1e-3 + 1e-12


def test_adam_three_steps_match_scalar_oracle():
    # minimize theta^2 from theta=1; oracle below is an independent scalar
    # transcription of bias-corrected Adam
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    theta = 1.0
    m = v = 0.0
    trajectory = []
    for t in range(1, 4):
        g = 2.0 * theta
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        theta -= lr * mh / (vh ** 0.5 + eps)
        trajectory.append(theta)

    params = {"t": np.array([1.0])}
    state = AdamState(params, learning_rate=lr)
    got = []
    for _ in range(3):
        adam_step(state, params, {"t": 2.0 * params["t"]})
        got.append(float(params["t"][0]))
    np.testing.assert_allclose(got, trajectory, atol=1e-7)


def test_adam_rejects_shape_mismatch():
    params = {"w": np.zeros(3)}
    state = AdamState(params, learning_rate=1e-3)
    with pytest.raises(DimensionError):
        adam_step(state, params, {"w": np.zeros(4)})


def test_adam_skips_frozen_parameters_and_their_moments():
    params = {"a": np.ones(2), "b": np.ones(2)}
    grads = {"a": np.ones(2), "b": np.ones(2)}
    state = AdamState(params, learning_rate=1e-3)
    adam_step(state, params, grads, freeze={"a": True})
    np.testing.assert_array_equal(params["a"], np.ones(2))
    np.testing.assert_array_equal(state.m["a"], np.zeros(2))
    np.testing.assert_array_equal(state.v["a"], np.zeros(2))
    assert not np.array_equal(params["b"], np.ones(2))


def test_train_config_validation():
    with pytest.raises(DataError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(DataError):
        TrainConfig(batch_size=0).validate()


def test_one_epoch_reduces_loss_on_the_batch():
    samples = _tiny_dataset()
    model = build_network("se", Prng(30))
    x, y = stack_samples(samples)
    before = cross_entropy_2class(model.forward(x), y)[0]
    train(model, samples, TrainConfig(epochs=1, batch_size=32, shuffle_seed=1))
    after = cross_entropy_2class(model.forward(x), y)[0]
    assert after < before


def test_log_length_and_line_format():
    samples = _tiny_dataset()
    model = build_network("se", Prng(31))
    _, stats = train(model, samples, TrainConfig(epochs=3, shuffle_seed=2))
    assert len(stats) == 3
    assert [s.epoch for s in stats] == [1, 2, 3]
    line = stats[0].format_line()
    assert line.startswith("epoch 1 loss ")
    for key in ("iou", "precision", "recall", "f1"):
        assert " %s " % key in line or line.endswith(key)


def test_training_is_bit_deterministic():
    samples = _tiny_dataset()
    finals = []
    for _ in range(2):
        model = build_network("se", Prng(32))
        train(model, samples, TrainConfig(epochs=2, shuffle_seed=9))
        finals.append({k: v.copy() for k, v in model.named_parameters().items()})
    for name in finals[0]:
        np.testing.assert_array_equal(finals[0][name], finals[1][name])


def test_train_rejects_empty_dataset():
    model = build_network("se", Prng(33))
    with pytest.raises(DataError):
        train(model, [], TrainConfig(epochs=1))


def test_non_finite_loss_aborts_with_location():
    samples = _tiny_dataset()
    model = build_network("se", Prng(34))
    cfg = TrainConfig(epochs=3, learning_rate=1e30, shuffle_seed=3)
    with np.errstate(all="ignore"):  # the blow-up itself is the test
        with pytest.raises(EvaluationError, match="epoch"):
            train(model, samples, cfg)


def test_finetune_freezes_stage1_and_updates_the_rest():
    samples = _tiny_dataset()
    model = build_network("se", Prng(35))
    frozen_names = [
        "stage1.conv1.weight", "stage1.conv1.bias",
        "stage1.conv2.weight", "stage1.conv2.bias",
    ]
    before = {k: v.copy() for k, v in model.named_parameters().items()}
    _, stats = finetune(
        model, samples, TrainConfig(epochs=3, freeze_prefix=2, shuffle_seed=4))
    after = model.named_parameters()
    for name in frozen_names:
        np.testing.assert_array_equal(before[name], after[name])
    changed = [n for n in after if not np.array_equal(before[n], after[n])]
    assert changed and all(n not in frozen_names for n in changed)


def test_finetune_defaults_run_thirty_epochs_with_prefix_two():
    samples = _tiny_dataset(2)
    model = build_network("se", Prng(36))
    weight = model.named_parameters()["stage1.conv1.weight"]
    before = weight.copy()
    _, stats = finetune(model, samples)
    assert len(stats) == 30
    np.testing.assert_array_equal(weight, before)
    assert stats[-1].loss < stats[0].loss


def test_freezing_every_layer_fixes_the_whole_model():
    samples = _tiny_dataset()
    model = build_network("se", Prng(37))
    before = {k: v.copy() for k, v in model.named_parameters().items()}
    train(model, samples, TrainConfig(epochs=2, freeze_prefix=10, shuffle_seed=5))
    for name, arr in model.named_parameters().items():
        np.testing.assert_array_equal(arr, before[name])


def test_finetune_on_rescaled_patches_reduces_loss():
    from seishet.segy import real_patches
    from seishet.synthgen import generate_section

    cfg = SyntheticConfig(height=64, width=64, sections=1, seed=6)
    section, mask = generate_section(cfg, Prng(6))
    patches = real_patches(section, mask, stride=22)[:8]
    assert len(patches) == 8
    model = build_network("se", Prng(38))
    x, y = stack_samples(patches)
    before = cross_entropy_2class(model.forward(x), y)[0]
    finetune(model, patches, TrainConfig(epochs=5, freeze_prefix=2, shuffle_seed=7))
    after = cross_entropy_2class(model.forward(x), y)[0]
    assert after < before


def test_stack_samples_builds_each_array_once():
    samples = generate_dataset(SyntheticConfig(sections=8, seed=5))
    tracemalloc.start()
    try:
        x, y = stack_samples(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (len(samples), 1, 44, 44) and x.dtype == np.float32
    assert y.shape == (len(samples), 44, 44) and y.dtype == np.uint8
    assert peak <= 1.1 * (x.nbytes + y.nbytes), (peak, x.nbytes + y.nbytes)


def test_evaluate_batched_is_batch_size_invariant():
    samples = _tiny_dataset()
    model = build_network("se", Prng(39))
    x, y = stack_samples(samples)
    small = evaluate_batched(model, x, y, batch_size=2)
    big = evaluate_batched(model, x, y, batch_size=64)
    assert small.counts == big.counts
    assert small.iou == big.iou


def test_pos_weight_training_runs():
    samples = _tiny_dataset(2)
    model = build_network("se", Prng(40))
    _, stats = train(
        model, samples,
        TrainConfig(epochs=1, shuffle_seed=8, pos_weight=2.0))
    assert np.isfinite(stats[0].loss)


@pytest.mark.parametrize("prefix", [-1, 11, 50])
def test_train_rejects_freeze_prefix_outside_the_layer_count(prefix):
    model = build_network("se", Prng(41))
    with pytest.raises(DataError, match="freeze prefix"):
        train(model, _tiny_dataset(2), TrainConfig(epochs=1, freeze_prefix=prefix))
    assert not any(model.freeze.values())


def _fit_bytes(fit, variant, prefix, heldout, tmp_path):
    samples = _tiny_dataset(6, seed=11)
    model = build_network(variant, Prng(42))
    config = TrainConfig(epochs=2, batch_size=3, shuffle_seed=6,
                         freeze_prefix=prefix)
    held = samples[4:] if heldout else None
    _, stats = fit(model, samples[:4] if heldout else samples, config, held)
    path = tmp_path / ("%s.ckpt" % fit.__name__)
    save_checkpoint(model, str(path))
    return path.read_bytes(), stats


@pytest.mark.parametrize("variant", ["se", "self_attention"])
@pytest.mark.parametrize("prefix", range(11))
def test_cached_frozen_features_train_like_the_full_network(variant, prefix,
                                                            tmp_path):
    for heldout in (False, True):
        got = _fit_bytes(train, variant, prefix, heldout, tmp_path)
        want = _fit_bytes(reference_train, variant, prefix, heldout, tmp_path)
        assert got[0] == want[0]
        assert got[1] == want[1]


@pytest.mark.parametrize("prefix", range(6, 11))
def test_float64_cached_features_train_like_the_full_network(prefix):
    """A float64 patch, too, gets the same bits alone as in any batch, so
    its cache also holds past the upsamplers (prefixes 8 to 10). The
    parameters are compared as float64: a checkpoint stores float32."""
    samples = generate_dataset(SyntheticConfig(sections=2, seed=3))[:20]
    got = []
    for fit in (train, reference_train):
        model = build_network("se", Prng(42), dtype=np.float64)
        config = TrainConfig(epochs=2, batch_size=3, shuffle_seed=6,
                             freeze_prefix=prefix)
        _, stats = fit(model, samples, config)
        params = [(name, arr.tobytes())
                  for name, arr in model.named_parameters().items()]
        got.append((params, stats))
    assert got[0] == got[1]


def test_cached_features_through_the_se_block_train_like_the_full_network(
        tmp_path):
    """Freeze prefix 7 caches features through the SE block; 100 patches at
    batch 64 meet its Dense layers in other batches when cached than in a
    full-network step."""
    samples = generate_dataset(SyntheticConfig(sections=7, seed=0))[:100]
    got = []
    for fit in (train, reference_train):
        model = build_network("se", Prng(42))
        config = TrainConfig(epochs=1, batch_size=64, shuffle_seed=6,
                             freeze_prefix=7)
        _, stats = fit(model, samples, config)
        save_checkpoint(model, str(tmp_path / "fit.ckpt"))
        got.append(((tmp_path / "fit.ckpt").read_bytes(), stats))
    assert got[0] == got[1]


def _fit_at_threads(fit, variant, prefix, threads, tmp_path):
    """(checkpoint bytes, epoch-log bytes) of a fit at `threads` OpenBLAS
    threads; batches of 20 patches run as chunks of 8, 8 and 4."""
    set_blas_threads(threads)
    samples = generate_dataset(SyntheticConfig(sections=3, seed=4))[:40]
    model = build_network(variant, Prng(42))
    config = TrainConfig(epochs=2, batch_size=20, shuffle_seed=6,
                         freeze_prefix=prefix)
    _, stats = fit(model, samples[:30], config, samples[30:])
    path = tmp_path / ("%d.ckpt" % threads)
    save_checkpoint(model, str(path))
    log = "".join(entry.format_line() + "\n" for entry in stats)
    return path.read_bytes(), log.encode()


@pytest.mark.parametrize("fit,variant,prefix", [
    (train, "se", 0), (train, "self_attention", 0),
    (finetune, "se", 2), (finetune, "self_attention", 2)])
def test_checkpoints_and_logs_do_not_depend_on_the_blas_thread_count(
        fit, variant, prefix, tmp_path, two_blas_threads):
    two = _fit_at_threads(fit, variant, prefix, 2, tmp_path)
    one = _fit_at_threads(fit, variant, prefix, 1, tmp_path)
    assert one[0] == two[0]
    assert one[1] == two[1]


def _spied_finetune(tmp_path, hooked):
    """(walk calls, checkpoint bytes, epoch-log bytes) of a prefix-2
    finetune on 30 patches at batch 20 with 10 held out; with `hooked`,
    a wrapper is set on up1's forward first."""
    samples = generate_dataset(SyntheticConfig(sections=3, seed=4))[:40]
    model = build_network("se", Prng(42))
    if hooked:
        layer = dict(model._layers)["up1"]
        method = layer.forward
        layer.forward = lambda *args, **kwargs: method(*args, **kwargs)
    calls = spy_on_walks(model)
    config = TrainConfig(epochs=2, batch_size=20, shuffle_seed=6,
                         freeze_prefix=2)
    _, stats = finetune(model, samples[:30], config, samples[30:])
    path = tmp_path / ("hooked.ckpt" if hooked else "pool.ckpt")
    save_checkpoint(model, str(path))
    log = "".join(entry.format_line() + "\n" for entry in stats)
    return calls, path.read_bytes(), log.encode()


def test_cached_features_and_evaluation_run_patch_parallel(
        tmp_path, two_blas_threads):
    """The feature pass (batches of 20 and 10, then the 10 held out) stops
    at step 3, after stage 1's pool; each epoch evaluates the 10 held-out
    features from there. All of them fan out in forward's chunks; with a
    hooked layer the same chunks walk on the calling thread."""
    calls, ckpt, log = _spied_finetune(tmp_path, hooked=False)
    untaped = [c for c in calls if not c[2]]
    assert all(name.startswith("seishet-forward") for _, name, *_ in untaped)
    features = [(n, 0, 3)
                for n in forward_chunks(20, 2) + forward_chunks(10, 2) * 2]
    evaluation = [(n, 3, None) for n in forward_chunks(10, 2) * 2]
    assert (Counter((rows, start, stop) for rows, _, _, start, stop in untaped)
            == Counter(features + evaluation))
    hooked_calls, hooked_ckpt, hooked_log = _spied_finetune(tmp_path,
                                                            hooked=True)
    caller = threading.current_thread().name
    assert {name for _, name, *_ in hooked_calls} == {caller}
    assert [(rows, start, stop) for rows, _, taped, start, stop
            in hooked_calls if not taped] == features + evaluation
    assert hooked_ckpt == ckpt
    assert hooked_log == log
