"""Synthetic section pipeline: geometry, wavelet, noise, dataset round trip."""

import gc
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.ndimage import binary_dilation

from conftest import normalize_patch
from seishet.errors import ConfigError, DataError, DimensionError, FormatError
from seishet.numcore import Prng
from seishet.pgm import write_pgm
from seishet.synthgen import (
    Sample,
    SyntheticConfig,
    _dilate_square,
    add_noise,
    apply_faults,
    apply_fold,
    apply_shear,
    convolve_traces,
    extract_patches,
    generate_dataset,
    generate_reflectivity,
    generate_section,
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


@pytest.mark.parametrize("low", [0.0, -8.0])
def test_config_rejects_a_fold_wavelength_that_is_not_positive(low):
    # a zero wavelength divides the fold phase by zero and writes NaN patches
    with pytest.raises(ConfigError, match="fold wavelength"):
        SyntheticConfig(fold_wavelength=(low, 64.0)).validate()


@pytest.mark.parametrize("field,bounds", [
    ("noise", (math.nan, math.nan)), ("noise", (0.0, math.inf)),
    ("wavelet_period", (math.inf, math.inf)), ("shear", (-1e308, 1e308)),
    ("fold_amplitude", (math.nan, math.nan)), ("shear", (math.nan, 0.1)),
    ("fold_wavelength", (math.inf, math.inf)),
    ("throw", (0, 10 ** 20)), ("faults", (0, 2 ** 63)),
    ("thickness", (-2 ** 63 - 1, 5)),
])
def test_config_rejects_ranges_numpy_cannot_draw_from(field, bounds):
    with pytest.raises(ConfigError, match="range %s" % field):
        SyntheticConfig(**{field: bounds}).validate()


def test_config_accepts_the_int64_extremes():
    SyntheticConfig(throw=(0, 2 ** 63 - 1)).validate()


@pytest.mark.parametrize("height,width", [(2 ** 63, 44), (44, 2 ** 63),
                                          (2 ** 30, 2 ** 30)])
def test_config_rejects_a_section_numpy_cannot_size(height, width):
    """A float64 section of 2**60 pixels or more has 2**63 bytes or more."""
    with pytest.raises(ConfigError, match="section %dx%d" % (height, width)):
        SyntheticConfig(height=height, width=width).validate()
    SyntheticConfig(height=2 ** 30, width=2 ** 30 - 1).validate()


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


@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
def test_square_dilation_equals_scipy_binary_dilation(radius):
    """Against scipy.ndimage.binary_dilation with a (2r+1)^2 structure:
    sparse and dense random masks, a mask touching every border and
    corner, 1xN and Nx1 strips, a single pixel, all False and all True."""
    gen = Prng(70 + radius)
    masks = [gen.uniform(0.0, 1.0, shape) < density for shape, density in
             (((37, 53), 0.02), ((20, 20), 0.3), ((59, 13), 0.1),
              ((1, 31), 0.2), ((29, 1), 0.2))]
    border = np.zeros((17, 23), dtype=bool)
    border[[0, 0, 16, 16, 0, 16, 8, 4], [0, 22, 0, 22, 11, 5, 0, 22]] = True
    masks += [border, np.ones((1, 1), dtype=bool),
              np.zeros((12, 9), dtype=bool), np.ones((12, 9), dtype=bool)]
    structure = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    for mask in masks:
        want = binary_dilation(mask, structure=structure)
        got = _dilate_square(mask, radius)
        assert got.dtype == bool and np.array_equal(got, want), mask.shape


def test_square_dilation_clamps_a_radius_past_the_mask():
    """A radius beyond max(h, w) dilates like max(h, w), without padding
    the mask by the radius (10**7 would ask numpy for ~400 TB)."""
    gen = Prng(76)
    masks = [gen.uniform(0.0, 1.0, (7, 30)) < 0.05, np.zeros((9, 4), dtype=bool)]
    masks[1][8, 0] = True
    for mask in masks + [np.zeros((5, 5), dtype=bool)]:
        side = max(mask.shape)
        want = binary_dilation(mask, structure=np.ones((2 * side + 1,) * 2, bool))
        for radius in (side, side + 1, 10 ** 7):
            assert np.array_equal(_dilate_square(mask, radius), want), radius


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


def test_ricker_at_a_tiny_period_is_the_spike_it_tends_to():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wav = ricker(1e-200, 3)
    assert wav.tobytes() == ricker(1e-3, 3).tobytes()
    assert wav.tobytes() == np.array([-0.0, 1.0, -0.0]).tobytes()


def test_ricker_keeps_the_formula_bit_for_bit_at_gen_periods():
    for period in Prng(17).uniform(12.0, 25.0, 50).tolist() + [12.0, 25.0]:
        length = 2 * math.ceil(1.5 * period) + 1
        t = np.arange(length, dtype=np.float64) - length // 2
        a = (math.pi * t / period) ** 2
        want = (1.0 - 2.0 * a) * np.exp(-a)
        assert ricker(period, length).tobytes() == want.tobytes(), period


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


def test_extract_patches_images_equal_normalize_patch_bit_for_bit():
    cfg = SyntheticConfig(height=88, width=110, sections=3, seed=23)
    sections = [generate_section(cfg, Prng(23).derive(i))[0] for i in range(3)]
    partly_flat = Prng(24).normal(size=(88, 110)) * 50.0
    partly_flat[:44, :66] = -3.5  # two whole constant windows
    sections += [partly_flat, np.full((66, 66), 7.25)]
    for section in sections:
        h, w = section.shape
        samples = extract_patches(section, np.zeros((h, w), np.uint8))
        corners = [(y, x) for y in range(0, h - 43, 22) for x in range(0, w - 43, 22)]
        assert len(samples) == len(corners)
        for (y, x), s in zip(corners, samples):
            expect = normalize_patch(section[y:y + 44, x:x + 44])
            assert s.image.dtype == np.float32
            assert s.image.tobytes() == expect.tobytes()
    flat = extract_patches(np.full((66, 66), 7.25), np.zeros((66, 66), np.uint8))
    assert all(not s.image.any() for s in flat)


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


def test_generate_section_cuts_a_long_wavelet_without_changing_a_bit():
    """Wavelets longer than 2h - 1 taps are cut to those; the uncut ones
    of the same draws give the same bytes."""
    config = SyntheticConfig(height=44, width=50, wavelet_period=(60.0, 400.0))
    for i in range(6):
        section, mask = generate_section(config, Prng(9).derive(i))
        prng = Prng(9).derive(i)
        full = generate_reflectivity(config, prng)
        full = apply_shear(apply_fold(full, config, prng), config, prng)
        full, full_mask = apply_faults(full, config, prng)
        period = prng.uniform(*config.wavelet_period)
        full = convolve_traces(full, ricker(period, 2 * math.ceil(1.5 * period) + 1))
        full = add_noise(full, config, prng)
        assert section.tobytes() == full.tobytes()
        assert mask.tobytes() == full_mask.tobytes()


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
    """images.f32 and masks.u8 hold the patches one after another."""
    cfg = SyntheticConfig(height=44, width=44, sections=4, seed=9)
    samples = generate_dataset(cfg)
    d = str(tmp_path / "ds")
    write_dataset(samples, d, cfg)
    loaded, manifest = read_dataset(d)
    assert sorted(os.listdir(d)) == ["images.f32", "manifest.json", "masks.u8"]
    assert manifest["version"] == 2
    assert manifest["count"] == len(samples) == len(loaded)
    assert manifest["config"]["seed"] == 9
    with open(os.path.join(d, "images.f32"), "rb") as fh:
        assert fh.read() == b"".join(s.image.astype("<f4").tobytes() for s in samples)
    with open(os.path.join(d, "masks.u8"), "rb") as fh:
        assert fh.read() == b"".join(s.mask.astype(np.uint8).tobytes() for s in samples)
    for a, b in zip(samples, loaded):
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)


def test_dataset_errors(tmp_path):
    cfg = SyntheticConfig(height=44, width=44, sections=2, seed=10)
    samples = generate_dataset(cfg)
    d = str(tmp_path / "ds")
    write_dataset(samples, d, cfg)

    with pytest.raises(FormatError, match="images.f32"):
        with open(os.path.join(d, "images.f32"), "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        read_dataset(d)
    write_dataset(samples, d, cfg)

    for word in (0x7FC00000, 0x7F800000, 0xFF800000):  # NaN, +inf, -inf
        with pytest.raises(FormatError, match="images.f32: patch 1 has non-finite"):
            with open(os.path.join(d, "images.f32"), "r+b") as fh:
                fh.seek(4 * (44 * 44 + 300))  # inside patch 1
                fh.write(word.to_bytes(4, "little"))
            read_dataset(d)
        write_dataset(samples, d, cfg)

    with pytest.raises(FormatError, match="masks.u8: patch 1 has mask bytes"):
        path = os.path.join(d, "masks.u8")
        blob = bytearray(open(path, "rb").read())
        blob[-1] = 7  # neither 0 nor 1
        open(path, "wb").write(bytes(blob))
        read_dataset(d)
    write_dataset(samples, d, cfg)

    man = os.path.join(d, "manifest.json")
    meta = json.load(open(man))
    meta["count"] = 5
    json.dump(meta, open(man, "w"))
    with pytest.raises(FormatError, match="expected .* for 5 patches"):
        read_dataset(d)

    meta["count"] = 0
    json.dump(meta, open(man, "w"))
    with pytest.raises(DataError):
        read_dataset(d)

    with pytest.raises(FormatError):
        read_dataset(str(tmp_path / "nowhere"))


def _dataset(tmp_path, seed, sections=2):
    cfg = SyntheticConfig(height=44, width=44, sections=sections, seed=seed)
    d = str(tmp_path / "ds")
    write_dataset(generate_dataset(cfg), d, cfg)
    return d


def test_read_dataset_rejects_a_version_1_directory(tmp_path):
    """The per-patch layout of format version 1 is not read: gen, which its
    manifest's config repeats, writes the same patches as version 2."""
    d = tmp_path / "v1"
    d.mkdir()
    manifest = {"version": 1, "count": 1, "patch": 44, "config": None}
    (d / "manifest.json").write_text(json.dumps(manifest))
    (d / "img_000000.f32").write_bytes(np.zeros((44, 44), "<f4").tobytes())
    write_pgm(d / "msk_000000.pgm", np.zeros((44, 44), np.uint8))
    with pytest.raises(FormatError, match=r"version 1, not 2; run `seishet gen` again"):
        read_dataset(str(d))


@pytest.mark.parametrize("value", [2, 255])
def test_read_dataset_rejects_a_mask_byte_other_than_0_or_1(tmp_path, value):
    d = _dataset(tmp_path, 13)
    path = os.path.join(d, "masks.u8")
    with open(path, "r+b") as fh:
        fh.seek(44 * 44 + 100)  # inside patch 1
        fh.write(bytes([value]))
    with pytest.raises(FormatError,
                       match="masks.u8: patch 1 has mask bytes other than 0 or 1"):
        read_dataset(d)


def test_read_dataset_rejects_a_huge_count_before_allocating(tmp_path):
    d = _dataset(tmp_path, 15)
    man = os.path.join(d, "manifest.json")
    with open(man) as fh:
        meta = json.load(fh)
    meta["count"] = 2 ** 40
    with open(man, "w") as fh:
        json.dump(meta, fh)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="for %d patches" % 2 ** 40):
            read_dataset(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_smaller_dataset_written_over_a_larger_one_reads_back(tmp_path):
    _dataset(tmp_path, 16, sections=4)
    d = _dataset(tmp_path, 17, sections=1)
    samples, manifest = read_dataset(d)
    assert manifest["count"] == len(samples) == 1
    want = generate_dataset(SyntheticConfig(height=44, width=44, sections=1, seed=17))
    assert all(a.image.tobytes() == b.image.tobytes() and np.array_equal(a.mask, b.mask)
               for a, b in zip(want, samples))


@pytest.mark.parametrize("field,value", [
    ("patch", "44"), ("patch", 44.0), ("patch", [44]), ("patch", None),
    ("patch", True), ("patch", 0), ("patch", -44), ("patch", 32),
    ("count", True), ("count", "2"), ("count", 2.0), ("count", None),
    ("version", 1), ("version", 3), ("version", "2"), ("version", 2.0),
    ("version", True), ("version", None),
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
    ("images.f32", lambda b: b[:8] + b"\x00\x00\xc0\x7f" + b[12:], "non-finite"),
    ("masks.u8", None, "masks.u8: missing"),
    ("images.f32", lambda b: b[:-1], "images.f32: 15487 bytes, expected 15488 for 2"),
    ("images.f32", lambda b: b + b"\x00", "images.f32: 15489 bytes, expected 15488 for 2"),
    ("masks.u8", lambda b: b[:-1], "masks.u8: 3871 bytes, expected 3872 for 2"),
    ("masks.u8", lambda b: b + b"\x00", "masks.u8: 3873 bytes, expected 3872 for 2"),
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


@pytest.mark.parametrize("limit", [1, 2, 5, 9])
def test_read_dataset_limit_reads_the_first_rows_of_a_full_read(tmp_path, limit):
    d = _dataset(tmp_path, 18, sections=5)
    full, manifest = read_dataset(d)
    kept, kept_manifest = read_dataset(d, limit=limit)
    assert kept_manifest == manifest
    assert len(kept) == min(limit, len(full))
    for a, b in zip(full, kept):
        assert a.image.tobytes() == b.image.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()


@pytest.mark.parametrize("limit", [1, 2, 3])
@pytest.mark.parametrize("target,cut", [("images.f32", -1), ("images.f32", 1),
                                        ("masks.u8", -1), ("masks.u8", 1)])
def test_read_dataset_checks_each_file_size_under_a_limit(tmp_path, limit, target,
                                                         cut):
    d = _dataset(tmp_path, 19)
    path = os.path.join(d, target)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:cut] if cut < 0 else blob + bytes(cut))
    with pytest.raises(FormatError, match="%s: %d bytes, expected %d for 2 patches"
                       % (target, len(blob) + cut, len(blob))):
        read_dataset(d, limit=limit)


@pytest.mark.parametrize("target,offset,payload,what", [
    ("images.f32", 4 * (2 * 44 * 44 + 300), b"\x00\x00\xc0\x7f", "non-finite"),
    ("masks.u8", 2 * 44 * 44 + 300, b"\x07", "mask bytes other than 0 or 1"),
])
def test_read_dataset_checks_only_the_patches_it_keeps(tmp_path, target, offset,
                                                       payload, what):
    """A bad value in patch 2 passes under a limit of 2 and fails under 3."""
    d = _dataset(tmp_path, 20, sections=4)
    with open(os.path.join(d, target), "r+b") as fh:
        fh.seek(offset)
        fh.write(payload)
    assert len(read_dataset(d, limit=2)[0]) == 2
    with pytest.raises(FormatError, match="%s: patch 2 has %s" % (target, what)):
        read_dataset(d, limit=3)


def test_read_dataset_limit_of_one_allocates_about_one_patch(tmp_path):
    d = str(tmp_path / "ds")
    sample = Sample(np.zeros((44, 44), np.float32), np.zeros((44, 44), np.uint8))
    write_dataset([sample] * 500, d)
    patch_bytes = 44 * 44 * (4 + 1)
    tracemalloc.start()
    try:
        samples, _ = read_dataset(d, limit=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(samples) == 1
    assert peak < 4 * patch_bytes, peak


@pytest.mark.parametrize("limit", [0, -1, True, 1.5])
def test_read_dataset_rejects_a_limit_that_is_not_a_positive_integer(tmp_path, limit):
    d = _dataset(tmp_path, 21)
    with pytest.raises(ConfigError, match="limit must be an integer of at least 1"):
        read_dataset(d, limit=limit)
