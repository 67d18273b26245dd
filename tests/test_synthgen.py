"""Synthetic section pipeline: geometry, wavelet, noise, dataset round trip."""

import gc
import json
import math
import os
import warnings

import numpy as np
import pytest

from seishet.errors import ConfigError, DataError, DimensionError, FormatError
from seishet.numcore import Prng
from seishet.synthgen import (
    SyntheticConfig,
    add_noise,
    apply_faults,
    apply_fold,
    apply_shear,
    convolve_traces,
    extract_patches,
    generate_dataset,
    generate_reflectivity,
    generate_section,
    normalize_patch,
    read_dataset,
    ricker,
    write_dataset,
)


def _flat_spike_section(h=128, w=96, depth=60):
    sec = np.zeros((h, w))
    sec[depth, :] = 1.0
    return sec


def test_config_validation():
    with pytest.raises(ConfigError):
        SyntheticConfig(height=40).validate()
    with pytest.raises(ConfigError):
        SyntheticConfig(sections=0).validate()
    with pytest.raises(ConfigError):
        SyntheticConfig(thickness=(9, 5)).validate()
    with pytest.raises(ConfigError):
        SyntheticConfig(dip_degrees=(0.0, 85.0)).validate()
    SyntheticConfig().validate()


def test_reflectivity_columns_identical():
    cfg = SyntheticConfig(height=128, width=32)
    r = generate_reflectivity(cfg, Prng(2))
    np.testing.assert_array_equal(r, np.repeat(r[:, :1], 32, axis=1))
    assert np.flatnonzero(r[:, 0]).size > 2


def test_reflectivity_gaps_follow_thickness_range():
    cfg = SyntheticConfig(height=256, width=4)
    gaps = []
    for i in range(300):
        r = generate_reflectivity(cfg, Prng(1000 + i))
        gaps.extend(np.diff(np.flatnonzero(r[:, 0])).tolist())
    gaps = np.array(gaps)
    assert gaps.min() >= 5 and gaps.max() <= 20
    assert 11.5 < gaps.mean() < 13.5  # uniform over 5..20 has mean 12.5


def test_fold_zero_amplitude_is_identity():
    cfg = SyntheticConfig(fold_amplitude=(0.0, 0.0))
    sec = Prng(3).normal(size=(128, 64))
    np.testing.assert_array_equal(apply_fold(sec, cfg, Prng(4)), sec)


def test_fold_keeps_depth_constant_sections_in_interior():
    cfg = SyntheticConfig(fold_amplitude=(4.0, 4.0))
    sec = np.full((128, 64), 3.7)
    out = apply_fold(sec, cfg, Prng(5))
    # rows within reach of the 4-sample displacement are zero filled at the
    # edges; the interior is untouched
    np.testing.assert_allclose(out[5:-5], sec[5:-5], atol=1e-12)


def test_fold_traces_the_analytic_sinusoid():
    cfg = SyntheticConfig(
        height=128, width=96, fold_amplitude=(6.0, 6.0),
        fold_wavelength=(48.0, 48.0),
    )
    out = apply_fold(_flat_spike_section(), cfg, Prng(3))
    am = np.abs(out).argmax(axis=0)
    xs = np.arange(96)
    best = min(
        np.abs(am - (60 + 6.0 * np.sin(2 * math.pi * xs / 48.0 + phi))).max()
        for phi in np.linspace(0.0, 2.0 * math.pi, 4001)
    )
    assert best <= 1.0


def test_shear_zero_slope_is_identity():
    cfg = SyntheticConfig(shear=(0.0, 0.0))
    sec = Prng(6).normal(size=(128, 64))
    np.testing.assert_array_equal(apply_shear(sec, cfg, Prng(7)), sec)


def test_shear_tilts_flat_reflector_linearly():
    cfg = SyntheticConfig(height=128, width=96, shear=(0.15, 0.15))
    out = apply_shear(_flat_spike_section(), cfg, Prng(4))
    am = np.abs(out).argmax(axis=0)
    assert np.abs(am - (60 + 0.15 * np.arange(96))).max() <= 1.0


def test_faults_disabled_leave_section_untouched():
    cfg = SyntheticConfig(faults=(0, 0))
    sec = Prng(8).normal(size=(64, 64))
    out, mask = apply_faults(sec, cfg, Prng(9))
    np.testing.assert_array_equal(out, sec)
    assert not mask.any()


def test_vertical_fault_offsets_reflector_by_exact_throw():
    cfg = SyntheticConfig(
        height=64, width=64, faults=(1, 1), dip_degrees=(90.0, 90.0),
        throw=(7, 7), mask_dilation=1,
    )
    out, mask = apply_faults(_flat_spike_section(64, 64, 30), cfg, Prng(0))
    am = out.argmax(axis=0)
    split = int(np.flatnonzero(am == 37).min())
    assert 2 <= split <= 62
    assert (am[:split] == 30).all()
    assert (am[split:] == 37).all()
    # a full-height vertical line dilated by radius 1 covers 3 columns
    assert int(mask.sum()) == 3 * 64


def test_fault_mask_is_binary_uint8():
    cfg = SyntheticConfig(height=64, width=64)
    _, mask = apply_faults(Prng(10).normal(size=(64, 64)), cfg, Prng(11))
    assert mask.dtype == np.uint8
    assert set(np.unique(mask)) <= {0, 1}


def test_cross_correlation_across_fault_recovers_throw():
    cfg = SyntheticConfig(
        height=128, width=64, faults=(1, 1), dip_degrees=(90.0, 90.0),
        throw=(9, 9), fold_amplitude=(0.0, 0.0), shear=(0.0, 0.0),
        noise=(0.0, 0.0),
    )
    prng = Prng(1)  # seed chosen so the fault line sits away from the edges
    sec = generate_reflectivity(cfg, prng)
    sec = apply_fold(sec, cfg, prng)
    sec = apply_shear(sec, cfg, prng)
    sec, mask = apply_faults(sec, cfg, prng)
    sec = convolve_traces(sec, ricker(16.0, 49))
    cols = np.flatnonzero(mask.any(axis=0))
    left, right = cols.min() - 4, cols.max() + 4
    assert 0 <= left and right < 64
    a, b = sec[:, left], sec[:, right]
    scores = []
    for lag in range(-20, 21):
        if lag >= 0:
            scores.append(float(np.dot(b[lag:], a[:128 - lag])))
        else:
            scores.append(float(np.dot(b[:lag], a[-lag:])))
    best = range(-20, 21)[int(np.argmax(scores))]
    assert abs(best - 9) <= 1


def test_ricker_center_symmetry_and_zero_crossing():
    wav = ricker(16.0, 49)
    c = 24
    assert wav[c] == 1.0
    np.testing.assert_array_equal(wav, wav[::-1])
    t0 = 16.0 / (math.pi * math.sqrt(2.0))  # root of the polynomial factor
    assert wav[c + math.floor(t0)] > 0.0 > wav[c + math.ceil(t0)]
    with pytest.raises(DimensionError):
        ricker(16.0, 48)
    with pytest.raises(ConfigError):
        ricker(0.0, 49)


def test_convolution_of_delta_reproduces_wavelet():
    wav = ricker(12.0, 37)
    sec = np.zeros((101, 3))
    sec[50, 1] = 1.0
    out = convolve_traces(sec, wav)
    np.testing.assert_array_equal(out[:, 0], np.zeros(101))
    np.testing.assert_array_equal(out[50 - 18:50 + 19, 1], wav)


def test_convolution_is_linear():
    p = Prng(15)
    a = p.normal(size=(80, 5))
    b = p.normal(size=(80, 5))
    wav = ricker(14.0, 43)
    lhs = convolve_traces(a + b, wav)
    rhs = convolve_traces(a, wav) + convolve_traces(b, wav)
    np.testing.assert_allclose(lhs, rhs, atol=1e-6)


def test_convolution_matches_loop_oracle_exactly():
    p = Prng(16)
    sec = p.randint(-5, 5, size=(30, 2)).astype(np.float64)
    wav = p.randint(-3, 3, size=7).astype(np.float64)
    out = convolve_traces(sec, wav)
    half = 3
    oracle = np.zeros((30, 2))
    for x in range(2):
        for y in range(30):
            acc = 0.0
            for j in range(30):
                k = y - j + half
                if 0 <= k < 7:
                    acc += sec[j, x] * wav[k]
            oracle[y, x] = acc
    np.testing.assert_array_equal(out, oracle)
    with pytest.raises(DimensionError):
        convolve_traces(sec, np.ones(6))


def test_noise_disabled_is_identity():
    cfg = SyntheticConfig(noise=(0.0, 0.0))
    sec = Prng(17).normal(size=(128, 128))
    np.testing.assert_array_equal(add_noise(sec, cfg, Prng(18)), sec)


def test_noise_statistics_and_stream_independence():
    cfg = SyntheticConfig(noise=(0.1, 0.1))
    sec = Prng(19).normal(size=(128, 128))
    rms = math.sqrt(float(np.mean(sec ** 2)))
    sigma = 0.1 * rms
    master = Prng(20)
    n1 = add_noise(sec, cfg, master.derive(0)) - sec
    n2 = add_noise(sec, cfg, master.derive(1)) - sec
    assert abs(n1.mean()) < 3.0 * sigma / math.sqrt(sec.size)
    assert abs(n1.std() - sigma) < 0.05 * sigma
    assert not np.array_equal(n1, n2)


def test_normalize_patch_bounds_and_constant_case():
    p = Prng(21).normal(size=(44, 44))
    n = normalize_patch(p)
    assert n.dtype == np.float32
    assert n.min() == -1.0 and n.max() == 1.0
    np.testing.assert_array_equal(
        normalize_patch(np.full((44, 44), 2.5)), np.zeros((44, 44), np.float32))


def test_extract_patch_counts():
    mask = np.zeros((44, 44), dtype=np.uint8)
    assert len(extract_patches(np.zeros((44, 44)), mask)) == 1
    big = Prng(22).normal(size=(88, 88))
    assert len(extract_patches(big, np.zeros((88, 88), np.uint8))) == 9
    for s in extract_patches(big, np.zeros((88, 88), np.uint8)):
        assert np.abs(s.image).max() == 1.0
    with pytest.raises(DimensionError):
        extract_patches(np.zeros((40, 44)), np.zeros((40, 44), np.uint8))
    with pytest.raises(DimensionError):
        extract_patches(np.zeros((44, 44)), np.zeros((44, 45), np.uint8))


def test_generate_section_golden_values():
    """Seeded end-to-end case pinning the documented transform order."""
    cfg = SyntheticConfig(height=64, width=64, sections=1, seed=0)
    sec, mask = generate_section(cfg, Prng(12345))
    assert sec.shape == (64, 64) and mask.shape == (64, 64)
    np.testing.assert_allclose(sec[17, 23], 0.49293678003701558, rtol=1e-10)
    np.testing.assert_allclose(sec[40, 5], -0.37434799311665046, rtol=1e-10)
    np.testing.assert_allclose(sec[60, 60], 0.56702239572197788, rtol=1e-10)
    assert int(mask.sum()) == 221


def test_dataset_generation_is_deterministic():
    cfg = SyntheticConfig(height=44, width=44, sections=6, seed=77)
    a = generate_dataset(cfg)
    b = generate_dataset(cfg)
    assert len(a) == len(b) == 6
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.image, sb.image)
        np.testing.assert_array_equal(sa.mask, sb.mask)
    c = generate_dataset(SyntheticConfig(height=44, width=44, sections=6, seed=78))
    assert any(not np.array_equal(sa.image, sc.image) for sa, sc in zip(a, c))


def test_samples_respect_bounds():
    cfg = SyntheticConfig(height=66, width=66, sections=3, seed=5)
    for s in generate_dataset(cfg):
        assert s.image.min() >= -1.0 and s.image.max() <= 1.0
        assert set(np.unique(s.mask)) <= {0, 1}


def test_read_dataset_closes_its_files(tmp_path):
    cfg = SyntheticConfig(height=44, width=44, sections=2, seed=9)
    d = str(tmp_path / "ds")
    write_dataset(generate_dataset(cfg), d, cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        read_dataset(d)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_dataset_round_trip(tmp_path):
    cfg = SyntheticConfig(height=44, width=44, sections=4, seed=9)
    samples = generate_dataset(cfg)
    d = str(tmp_path / "ds")
    write_dataset(samples, d, cfg)
    loaded, manifest = read_dataset(d)
    assert manifest["count"] == len(samples) == len(loaded)
    assert manifest["config"]["seed"] == 9
    for a, b in zip(samples, loaded):
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)


def test_dataset_errors(tmp_path):
    cfg = SyntheticConfig(height=44, width=44, sections=2, seed=10)
    samples = generate_dataset(cfg)
    d = str(tmp_path / "ds")
    write_dataset(samples, d, cfg)

    with pytest.raises(FormatError, match="img_000001"):
        with open(os.path.join(d, "img_000001.f32"), "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        read_dataset(d)
    write_dataset(samples, d, cfg)

    with pytest.raises(FormatError, match="msk_000000"):
        path = os.path.join(d, "msk_000000.pgm")
        blob = bytearray(open(path, "rb").read())
        blob[-1] = 7  # neither 0 nor 255
        open(path, "wb").write(bytes(blob))
        read_dataset(d)
    write_dataset(samples, d, cfg)

    man = os.path.join(d, "manifest.json")
    meta = json.load(open(man))
    meta["count"] = 5
    json.dump(meta, open(man, "w"))
    with pytest.raises(FormatError, match="missing"):
        read_dataset(d)

    meta["count"] = 0
    json.dump(meta, open(man, "w"))
    with pytest.raises(DataError):
        read_dataset(d)

    with pytest.raises(FormatError):
        read_dataset(str(tmp_path / "nowhere"))


@pytest.mark.parametrize("field,value", [
    ("patch", "44"), ("patch", 44.0), ("patch", [44]), ("patch", None),
    ("patch", True), ("patch", 0), ("patch", -44),
    ("count", True), ("count", "2"), ("count", 2.0), ("count", None),
])
def test_read_dataset_rejects_non_integer_manifest_fields(tmp_path, field, value):
    cfg = SyntheticConfig(height=44, width=44, sections=2, seed=11)
    d = str(tmp_path / "ds")
    write_dataset(generate_dataset(cfg), d, cfg)
    man = os.path.join(d, "manifest.json")
    with open(man) as fh:
        meta = json.load(fh)
    meta[field] = value
    with open(man, "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(FormatError, match=field):
        read_dataset(d)


@pytest.mark.parametrize("target,damage,match", [
    ("manifest.json", lambda b: b"\xff" + b, "malformed manifest"),
    ("manifest.json", lambda b: b"[1, 2]", "not a JSON object"),
    ("img_000001.f32", lambda b: b[:8] + b"\x00\x00\xc0\x7f" + b[12:], "non-finite"),
    ("msk_000000.pgm", None, "msk_000000.pgm: missing"),
])
def test_read_dataset_rejects_damaged_files(tmp_path, target, damage, match):
    cfg = SyntheticConfig(height=44, width=44, sections=2, seed=12)
    d = str(tmp_path / "ds")
    write_dataset(generate_dataset(cfg), d, cfg)
    path = os.path.join(d, target)
    if damage is None:
        os.remove(path)
    else:
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(damage(blob))
    with pytest.raises(FormatError, match=match):
        read_dataset(d)
