"""SEG-Y ingestion, resampling, tiling inference, and map export."""

import gc
import os
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ieee_to_ibm_word, normalize_patch, write_raw_section, write_segy
from seishet import segy
from seishet.errors import (
    ConfigError,
    DimensionError,
    FormatError,
    LineNotFoundError,
    SeishetError,
)
from seishet.model import build_network, channel_softmax
from seishet.numcore import Prng, set_blas_threads
from seishet.pgm import read_pgm, write_pgm
from seishet.segy import (
    bilinear_resize,
    export_map,
    ibm_to_ieee,
    load_section_mask,
    mask_filename,
    nearest_resize,
    open_volume,
    read_raw_section,
    read_section,
    real_patches,
    tile_predict,
)


# ---------------------------------------------------------------- IBM floats

def test_ibm_zero_word_decodes_to_zero():
    assert ibm_to_ieee(0x00000000) == 0.0


def test_ibm_known_word_positive():
    # sign 0, exponent byte 0x42 = 66 -> 16^2 = 256,
    # fraction 0x76A000 = 7774208 -> 7774208 / 2^24 = 0.46337890625,
    # 256 * 0.46337890625 = 118.625 exactly.
    assert ibm_to_ieee(0x4276A000) == 118.625


def test_ibm_known_word_negative_is_sign_flip():
    assert ibm_to_ieee(0xC276A000) == -118.625


def test_ibm_one():
    # exponent 65 -> 16^1, fraction 0x100000 / 2^24 = 1/16.
    assert ibm_to_ieee(0x41100000) == 1.0


def test_ibm_scalar_returns_python_float():
    out = ibm_to_ieee(0x4276A000)
    assert isinstance(out, float)


def test_ibm_array_form_matches_scalars():
    words = np.array([0x00000000, 0x4276A000, 0xC276A000, 0x41100000],
                     dtype=np.uint32)
    out = ibm_to_ieee(words)
    assert out.dtype == np.float64
    assert out.tolist() == [0.0, 118.625, -118.625, 1.0]


def test_ibm_round_trip_on_representable_values():
    # values with short hexadecimal fractions survive encode/decode exactly
    values = [0.0, 1.0, -1.0, 0.5, 0.0625, -118.625, 118.625, 2.5,
              1024.0, -0.00390625, 3.141592025756836]
    for v in values:
        assert ibm_to_ieee(ieee_to_ibm_word(v)) == v


def _ibm_by_powers_of_16(words):
    """The textbook decode: sign * (fraction / 2^24) * 16^(exponent - 64)."""
    w = np.asarray(words).astype(np.int64) & 0xFFFFFFFF
    sign = np.where((w >> 31) & 1, -1.0, 1.0)
    exponent = ((w >> 24) & 0x7F) - 64
    fraction = (w & 0xFFFFFF).astype(np.float64) / float(1 << 24)
    return sign * fraction * np.power(16.0, exponent.astype(np.float64))


def test_ibm_ldexp_decode_matches_powers_of_16_bit_for_bit():
    edges = [0x00000000, 0x80000000, 0x00FFFFFF, 0x7FFFFFFF, 0xFFFFFFFF,
             0x00000001, 0x80000001, 0x40000000, 0xC0000000, 0x4276A000]
    rng = np.random.default_rng(20240601)
    words = np.concatenate([
        np.array(edges, dtype=np.uint32),
        rng.integers(0, 1 << 32, 100_000, dtype=np.uint64).astype(np.uint32),
    ])
    got = ibm_to_ieee(words)
    want = _ibm_by_powers_of_16(words)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isfinite(got).all()
    for word in edges:
        value = ibm_to_ieee(word)
        assert isinstance(value, float)
        assert np.float64(value).view(np.uint64) == _ibm_by_powers_of_16(word).view(np.uint64)


# ---------------------------------------------------------------- open_volume

def _quad_traces():
    """Two inlines x two crosslines, value = il*10 + xl + k/8 (exact floats)."""
    traces = []
    for il in (10, 11):
        for xl in (5, 6):
            traces.append((il, xl, [il * 10 + xl + k * 0.125 for k in range(3)]))
    return traces


def test_open_volume_indexes_fixture(tmp_path):
    path = write_segy(tmp_path / "v.sgy", _quad_traces(), interval_us=2000)
    vol = open_volume(path)
    assert vol.n_traces == 4
    assert vol.ns == 3
    assert vol.format_code == 5
    assert vol.sample_interval_us == 2000
    assert vol.lines("inline") == [10, 11]
    assert vol.lines("crossline") == [5, 6]


def test_open_volume_rejects_short_file(tmp_path):
    path = tmp_path / "short.sgy"
    path.write_bytes(b"\x00" * 1000)
    with pytest.raises(FormatError, match="too short"):
        open_volume(path)


def test_open_volume_rejects_format_code_3(tmp_path):
    path = write_segy(tmp_path / "f3.sgy", _quad_traces(), fmt=3)
    with pytest.raises(FormatError, match="format code 3"):
        open_volume(path)


def test_open_volume_rejects_zero_sample_count(tmp_path):
    path = write_segy(tmp_path / "z.sgy", [], ns=0)
    with pytest.raises(FormatError, match="0 samples"):
        open_volume(path)


def test_open_volume_rejects_empty_body(tmp_path):
    path = write_segy(tmp_path / "empty.sgy", [], ns=4)
    with pytest.raises(FormatError, match="no traces"):
        open_volume(path)


def test_open_volume_names_truncated_trace_ordinal(tmp_path):
    # one stray byte after two complete traces -> "trace 3" is short
    path = write_segy(tmp_path / "t.sgy", _quad_traces()[:2], extra_tail=b"\x7f")
    with pytest.raises(FormatError, match="trace 3"):
        open_volume(path)


def test_open_volume_rejects_per_trace_length_mismatch(tmp_path):
    path = write_segy(tmp_path / "m.sgy", _quad_traces())
    with open(path, "r+b") as fh:
        fh.seek(3600 + 114)  # first trace header, samples-per-trace field
        fh.write(struct.pack(">H", 9))
    with pytest.raises(FormatError, match="trace 1 declares 9"):
        open_volume(path)


def test_open_volume_tolerates_zero_trace_sample_field(tmp_path):
    # a zeroed per-trace count defers to the binary header
    path = write_segy(tmp_path / "z2.sgy", _quad_traces())
    with open(path, "r+b") as fh:
        fh.seek(3600 + 114)
        fh.write(struct.pack(">H", 0))
    assert open_volume(path).n_traces == 4


def test_open_volume_validates_header_byte_positions(tmp_path):
    path = write_segy(tmp_path / "v.sgy", _quad_traces())
    with pytest.raises(ConfigError, match="inline byte 0"):
        open_volume(path, inline_byte=0)
    with pytest.raises(ConfigError, match="crossline byte 240"):
        open_volume(path, crossline_byte=240)


def test_open_volume_honours_custom_key_offsets(tmp_path):
    path = write_segy(tmp_path / "c.sgy", _quad_traces(),
                      inline_byte=9, crossline_byte=21)
    vol = open_volume(path, inline_byte=9, crossline_byte=21)
    assert vol.lines("inline") == [10, 11]
    assert vol.lines("crossline") == [5, 6]


# ---------------------------------------------------------------- read_section

def test_read_section_exact_values_and_sorting(tmp_path):
    path = write_segy(tmp_path / "v.sgy", _quad_traces())
    vol = open_volume(path)
    sec = read_section(vol, "inline", 10)
    assert sec.amplitudes.shape == (3, 2)
    assert sec.trace_keys == [5, 6]
    expected = np.array([[105.0, 106.0],
                         [105.125, 106.125],
                         [105.25, 106.25]], dtype=np.float32)
    assert np.array_equal(sec.amplitudes, expected)


def test_read_section_sorts_shuffled_trace_order(tmp_path):
    traces = _quad_traces()
    shuffled = [traces[2], traces[1], traces[3], traces[0]]
    a = write_segy(tmp_path / "a.sgy", traces)
    b = write_segy(tmp_path / "b.sgy", shuffled)
    sa = read_section(open_volume(a), "crossline", 6)
    sb = read_section(open_volume(b), "crossline", 6)
    assert sa.trace_keys == sb.trace_keys == [10, 11]
    assert np.array_equal(sa.amplitudes, sb.amplitudes)


def test_read_section_is_repeatable(tmp_path):
    vol = open_volume(write_segy(tmp_path / "v.sgy", _quad_traces()))
    first = read_section(vol, "inline", 11)
    second = read_section(vol, "inline", 11)
    assert np.array_equal(first.amplitudes, second.amplitudes)


def test_read_section_missing_line_lists_range(tmp_path):
    vol = open_volume(write_segy(tmp_path / "v.sgy", _quad_traces()))
    with pytest.raises(LineNotFoundError, match=r"inline 99.*10\.\.11"):
        read_section(vol, "inline", 99)


def test_read_section_rejects_unknown_axis(tmp_path):
    vol = open_volume(write_segy(tmp_path / "v.sgy", _quad_traces()))
    with pytest.raises(ConfigError, match="axis"):
        read_section(vol, "depth", 10)


def test_read_section_decodes_ibm_traces(tmp_path):
    traces = [(1, 7, [1.0, -118.625, 0.0625]),
              (1, 8, [0.0, 2.5, -0.5])]
    vol = open_volume(write_segy(tmp_path / "ibm.sgy", traces, fmt=1))
    sec = read_section(vol, "inline", 1)
    expected = np.array([[1.0, 0.0], [-118.625, 2.5], [0.0625, -0.5]],
                        dtype=np.float32)
    assert np.array_equal(sec.amplitudes, expected)


def test_read_section_rejects_non_finite_amplitudes(tmp_path):
    path = write_segy(tmp_path / "nan.sgy",
                      [(1, 7, [0.5, np.nan, 0.25]), (1, 8, [0.0, 1.0, 2.0])])
    vol = open_volume(path)
    with pytest.raises(FormatError, match="non-finite"):
        read_section(vol, "inline", 1)


def test_section_two_way_time_axis(tmp_path):
    vol = open_volume(write_segy(tmp_path / "v.sgy", _quad_traces(),
                                 interval_us=4000))
    sec = read_section(vol, "inline", 10)
    assert sec.sample_interval_us == 4000 and sec.amplitudes.shape[0] == 3


def _set_sample_word(path, trace, sample, word):
    """Overwrite one raw 32-bit sample of a written volume in place."""
    ns = open_volume(path).ns
    with open(path, "r+b") as fh:
        fh.seek(3600 + trace * (240 + 4 * ns) + 240 + 4 * sample)
        fh.write(struct.pack(">I", word))


@pytest.mark.parametrize("fmt, word", [
    (1, 0x7FFFFFFF),   # IBM ~7.2e75: finite in float64, beyond float32
    (1, 0xE1100000),   # IBM -16^32 = -2^128, one past float32's range
    (5, 0x7FC00000),   # IEEE NaN
    (5, 0x7F800000),   # IEEE +inf
    (5, 0xFF800000),   # IEEE -inf
])
def test_read_section_rejects_amplitudes_outside_float32(tmp_path, fmt, word):
    traces = [(1, 7, [0.5, 1.0, 0.25]), (1, 8, [0.0, 1.0, 2.0])]
    path = write_segy(tmp_path / "v.sgy", traces, fmt=fmt)
    _set_sample_word(path, 1, 2, word)
    vol = open_volume(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="trace 2 contains non-finite"):
            read_section(vol, "inline", 1)
        with pytest.raises(FormatError, match="trace 1 contains non-finite"):
            read_section(vol, "crossline", 8)
        assert read_section(vol, "crossline", 7).trace_keys == [1]


def test_read_section_keeps_largest_ibm_value_below_float32_overflow(tmp_path):
    # 0x60FFFFFF = (1 - 2^-24) * 16^32 rounds to float32's largest value
    path = write_segy(tmp_path / "v.sgy", [(1, 7, [0.5, 1.0])], fmt=1)
    _set_sample_word(path, 0, 1, 0x60FFFFFF)
    sec = read_section(open_volume(path), "inline", 1)
    assert sec.amplitudes[1, 0] == np.finfo(np.float32).max


def test_read_section_names_trace_truncated_after_indexing(tmp_path):
    path = write_segy(tmp_path / "v.sgy", _quad_traces())
    vol = open_volume(path)
    trace_len = 240 + 4 * 3
    os.truncate(path, 3600 + 3 * trace_len + 240 + 5)
    assert read_section(vol, "inline", 10).trace_keys == [5, 6]
    with pytest.raises(FormatError,
                       match="trace at offset %d is truncated" % (3600 + 3 * trace_len + 240)):
        read_section(vol, "inline", 11)


# The reader this module replaced, kept as an oracle: one seek and read per
# trace header, dicts of (key, offset) lists, one decode per trace.

def _oracle_volume(path, inline_byte=189, crossline_byte=193):
    with open(path, "rb") as fh:
        data = fh.read()
    ns, fmt = struct.unpack_from(">HH", data, 3220)[0], struct.unpack_from(">H", data, 3224)[0]
    trace_len = 240 + 4 * ns
    tables = {"inline": {}, "crossline": {}}
    for pos in range(3600, len(data), trace_len):
        il = struct.unpack_from(">i", data, pos + inline_byte - 1)[0]
        xl = struct.unpack_from(">i", data, pos + crossline_byte - 1)[0]
        tables["inline"].setdefault(il, []).append((xl, pos + 240))
        tables["crossline"].setdefault(xl, []).append((il, pos + 240))
    return data, ns, fmt, tables


def _oracle_section(oracle, axis, line):
    data, ns, fmt, tables = oracle
    entries = sorted(tables[axis][line])
    out = np.empty((ns, len(entries)), dtype=np.float32)
    for col, (_, offset) in enumerate(entries):
        raw = data[offset:offset + 4 * ns]
        if fmt == 5:
            out[:, col] = np.frombuffer(raw, dtype=">f4")
        else:
            out[:, col] = _ibm_by_powers_of_16(np.frombuffer(raw, dtype=">u4"))
    return out, [key for key, _ in entries]


def _grid_volume(path, fmt, n_il, n_xl, ns, seed, duplicates=0, **key_bytes):
    """Shuffled n_il x n_xl grid plus duplicate (il, xl) pairs; raw random
    sample words cover every float32-finite bit pattern class (zeros, -0,
    subnormals, IBM underflow)."""
    rng = np.random.default_rng(seed)
    keys = [(100 + 2 * i, -3 + j) for i in range(n_il) for j in range(n_xl)]
    keys += [keys[k] for k in rng.integers(0, len(keys), duplicates)]
    order = rng.permutation(len(keys))
    traces = [(keys[k][0], keys[k][1], [0.0] * ns) for k in order]
    write_segy(path, traces, fmt=fmt, **key_bytes)
    words = rng.integers(0, 1 << 32, (len(traces), ns), dtype=np.uint64)
    if fmt == 5:  # no NaN/inf: clear one exponent bit where all are set
        words[(words >> 23 & 0xFF) == 0xFF] ^= 1 << 23
    else:  # exponents up to 16^31 stay inside float32's range
        words = (words & 0x80FFFFFF) | (words % 96 << 24)
    raw = np.frombuffer(bytearray(open(path, "rb").read()), dtype=np.uint8)
    body = raw[3600:].reshape(len(traces), 240 + 4 * ns)
    body[:, 240:] = np.frombuffer(words.astype(">u4").tobytes(), np.uint8).reshape(len(traces), -1)
    with open(path, "wb") as fh:
        fh.write(raw.tobytes())
    return path


@pytest.mark.parametrize("fmt", [1, 5])
@pytest.mark.parametrize("n_il, n_xl, ns, duplicates, key_bytes", [
    (4, 7, 5, 6, {}),
    (6, 3, 2, 4, {"inline_byte": 9, "crossline_byte": 21}),
    # ns = 1 -> 244-byte traces: 19,500 of them span two 4 MB scan chunks
    (150, 130, 1, 40, {}),
])
def test_read_section_matches_per_trace_oracle(tmp_path, fmt, n_il, n_xl, ns,
                                               duplicates, key_bytes):
    path = _grid_volume(tmp_path / "v.sgy", fmt, n_il, n_xl, ns, seed=n_il * 10 + fmt,
                        duplicates=duplicates, **key_bytes)
    vol = open_volume(path, **key_bytes)
    oracle = _oracle_volume(path, **key_bytes)
    assert vol.n_traces == n_il * n_xl + duplicates
    for axis in ("inline", "crossline"):
        lines = vol.lines(axis)
        assert lines == sorted(oracle[3][axis])
        assert all(type(line) is int for line in lines)
        for line in lines:
            sec = read_section(vol, axis, line)
            want, keys = _oracle_section(oracle, axis, line)
            assert sec.amplitudes.dtype == np.float32
            assert sec.amplitudes.flags.c_contiguous
            assert sec.amplitudes.tobytes() == want.tobytes(), (axis, line)
            assert sec.trace_keys == keys
            assert all(type(k) is int for k in sec.trace_keys)


def test_scan_chunk_boundary_still_names_bad_trace(tmp_path, monkeypatch):
    # 3 traces of 252 bytes per 800-byte chunk: trace 5 sits in chunk 2
    monkeypatch.setattr(segy, "SCAN_CHUNK_BYTES", 800)
    traces = [(1, k, [0.5, 1.0, 2.0]) for k in range(7)]
    path = write_segy(tmp_path / "m.sgy", traces)
    assert open_volume(path).lines("crossline") == list(range(7))
    with open(path, "r+b") as fh:
        fh.seek(3600 + 4 * 252 + 114)
        fh.write(struct.pack(">H", 4))
    with pytest.raises(FormatError, match="trace 5 declares 4 samples"):
        open_volume(path)


def test_segy_reader_leaks_no_file_handles(tmp_path, monkeypatch):
    # A ResourceWarning raised as an error inside a finalizer cannot
    # propagate; it reaches sys.unraisablehook instead.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    good = write_segy(tmp_path / "v.sgy", _quad_traces())
    bad_count = write_segy(tmp_path / "c.sgy", _quad_traces())
    with open(bad_count, "r+b") as fh:
        fh.seek(3600 + 252 + 114)
        fh.write(struct.pack(">H", 9))
    nan = write_segy(tmp_path / "n.sgy", [(1, 1, [np.nan])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vol = open_volume(good)
        read_section(vol, "inline", 10)
        read_section(vol, "crossline", 6)
        with pytest.raises(LineNotFoundError):
            read_section(vol, "inline", 12)
        with pytest.raises(FormatError, match="trace 2 declares"):
            open_volume(bad_count)
        with pytest.raises(FormatError, match="non-finite"):
            read_section(open_volume(nan), "inline", 1)
        os.truncate(good, 3600 + 3 * 252 + 10)
        with pytest.raises(FormatError, match="truncated"):
            read_section(vol, "inline", 11)
        with pytest.raises(FormatError, match="truncated"):
            open_volume(good)
        gc.collect()
    assert unraisable == []


_FUZZ_LEN = 3600 + 14 * 252  # 3 x 4 grid plus 2 duplicates, 3 samples


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    out = {fmt: _grid_volume(base / ("v%d.sgy" % fmt), fmt, 3, 4, 3, seed=fmt,
                             duplicates=2).read_bytes() for fmt in (1, 5)}
    assert all(len(data) == _FUZZ_LEN for data in out.values())
    return out


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    fmt=st.sampled_from([1, 5]),
    flips=st.lists(st.tuples(
        st.one_of(st.integers(3212, 3227),     # binary header fields
                  st.integers(3600, _FUZZ_LEN - 1),  # trace headers, samples
                  st.integers(0, _FUZZ_LEN - 1)),
        st.integers(0, 255)), max_size=6),
    cut=st.one_of(st.none(), st.integers(0, _FUZZ_LEN - 1)),
    tail=st.binary(max_size=600),
)
def test_segy_parser_fuzz_raises_only_seishet_errors(tmp_path_factory, fuzz_bases,
                                                     fmt, flips, cut, tail):
    data = bytearray(fuzz_bases[fmt])
    for pos, value in flips:
        data[pos] = value
    if cut is not None:
        del data[cut:]
    data += tail
    path = tmp_path_factory.getbasetemp() / "fuzz.sgy"
    path.write_bytes(bytes(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            vol = open_volume(path)
            for axis in ("inline", "crossline"):
                for line in vol.lines(axis):
                    try:
                        sec = read_section(vol, axis, line)
                    except FormatError:
                        continue
                    assert np.isfinite(sec.amplitudes).all()
                    assert sec.amplitudes.shape == (vol.ns, len(sec.trace_keys))
        except SeishetError:
            pass


# ---------------------------------------------------------------- resampling

def test_bilinear_resize_identity():
    img = Prng(3).uniform(-1.0, 1.0, (2, 6, 5))
    assert np.allclose(bilinear_resize(img, 6, 5), img, atol=1e-12)


def test_bilinear_resize_preserves_linear_ramp():
    y, x = np.mgrid[0:5, 0:7]
    img = 2.0 * y + 3.0 * x
    out = bilinear_resize(img[None], 13, 11)[0]
    oy = np.arange(13) * (5 - 1) / (13 - 1)
    ox = np.arange(11) * (7 - 1) / (11 - 1)
    expected = 2.0 * oy[:, None] + 3.0 * ox[None, :]
    assert np.allclose(out, expected, atol=1e-10)


def test_bilinear_resize_single_row_broadcasts():
    out = bilinear_resize(np.array([[[1.0, 3.0, 5.0, 7.0]]]), 3, 4)[0]
    for r in range(3):
        assert np.allclose(out[r], [1.0, 3.0, 5.0, 7.0], atol=1e-12)


def test_nearest_resize_loop_oracle():
    mask = (np.arange(16).reshape(4, 4) % 2).astype(np.uint8)
    out = nearest_resize(mask, 7, 9)
    yi = np.rint(np.arange(7) * (4 - 1) / (7 - 1)).astype(int)
    xi = np.rint(np.arange(9) * (4 - 1) / (9 - 1)).astype(int)
    for r in range(7):
        for c in range(9):
            assert out[r, c] == mask[yi[r], xi[c]]


def test_nearest_resize_keeps_binary_values():
    mask = (Prng(9).uniform(0.0, 1.0, (20, 20)) > 0.5).astype(np.uint8)
    out = nearest_resize(mask, 44, 44)
    assert set(np.unique(out)) <= {0, 1}


def test_nearest_resize_rejects_non_2d():
    with pytest.raises(DimensionError):
        nearest_resize(np.zeros((2, 2, 2)), 3, 3)


# ---------------------------------------------------------------- real_patches

def test_real_patches_counts():
    sec = Prng(5).uniform(-1.0, 1.0, (20, 20))
    msk = np.zeros((20, 20), dtype=np.uint8)
    assert len(real_patches(sec, msk)) == 1
    sec = Prng(5).uniform(-1.0, 1.0, (30, 30))
    msk = np.zeros((30, 30), dtype=np.uint8)
    assert len(real_patches(sec, msk)) == 4


def test_real_patches_shapes_and_ranges():
    sec = Prng(6).uniform(-3.0, 3.0, (30, 30))
    msk = (Prng(7).uniform(0.0, 1.0, (30, 30)) > 0.8).astype(np.uint8)
    for sample in real_patches(sec, msk):
        assert sample.image.shape == (44, 44)
        assert sample.mask.shape == (44, 44)
        assert sample.mask.dtype == np.uint8
        assert sample.image.min() >= -1.0 and sample.image.max() <= 1.0
        assert set(np.unique(sample.mask)) <= {0, 1}


def test_real_patches_constant_window_normalizes_to_zero():
    sec = np.full((20, 20), 3.25)
    msk = np.zeros((20, 20), dtype=np.uint8)
    (sample,) = real_patches(sec, msk)
    assert np.array_equal(sample.image, np.zeros((44, 44), dtype=np.float32))


def test_real_patches_binarizes_multilevel_masks():
    sec = Prng(8).uniform(-1.0, 1.0, (20, 20))
    msk = np.zeros((20, 20), dtype=np.uint8)
    msk[4:8, 4:8] = 3
    (sample,) = real_patches(sec, msk)
    assert set(np.unique(sample.mask)) == {0, 1}


def test_real_patches_rejects_mismatched_mask():
    with pytest.raises(DimensionError, match="mask"):
        real_patches(np.zeros((20, 20)), np.zeros((19, 20)))


def test_real_patches_rejects_small_section():
    with pytest.raises(DimensionError, match="smaller"):
        real_patches(np.zeros((10, 30)), np.zeros((10, 30)))


def test_real_patches_rejects_stride_zero():
    with pytest.raises(ConfigError, match="stride must be at least 1, got 0"):
        real_patches(np.zeros((30, 30)), np.zeros((30, 30)), stride=0)


# ---------------------------------------------------------------- tile_predict

class _ConstantLogitModel:
    """Emits fixed class logits (0, 1) for every pixel."""

    def forward(self, batch):
        out = np.zeros((batch.shape[0], 2, 44, 44), dtype=np.float32)
        out[:, 1] = 1.0
        return out


# softmax([0, 1]) class-1 probability: e / (1 + e)
_CONST_P = 0.7310585786300049


def test_tile_predict_constant_model_covers_window_footprint():
    section = Prng(11).uniform(-1.0, 1.0, (25, 25))
    out = tile_predict(_ConstantLogitModel(), section)
    assert np.allclose(out[:20, :20], _CONST_P, atol=1e-6)
    assert np.all(out[20:, :] == 0.0)
    assert np.all(out[:, 20:] == 0.0)


def test_tile_predict_non_overlapping_stride_tiles_exactly():
    section = Prng(12).uniform(-1.0, 1.0, (40, 40))
    out = tile_predict(_ConstantLogitModel(), section, stride=20)
    assert np.allclose(out, _CONST_P, atol=1e-6)


def test_tile_predict_output_in_unit_interval():
    model = build_network("se", Prng(21))
    section = Prng(13).uniform(-1.0, 1.0, (30, 30))
    out = tile_predict(model, section)
    assert out.shape == (30, 30)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_tile_predict_matches_explicit_accumulation():
    model = build_network("se", Prng(22))
    section = Prng(14).uniform(-1.0, 1.0, (30, 30))
    out = tile_predict(model, section, stride=10)
    prob_sum = np.zeros((30, 30))
    hits = np.zeros((30, 30))
    for y in (0, 10):
        for x in (0, 10):
            up = normalize_patch(bilinear_resize(section[None, y:y + 20, x:x + 20], 44, 44))
            prob = channel_softmax(model.forward(up[:, None]))[:, 1]
            down = bilinear_resize(prob.astype(np.float64), 20, 20)[0]
            prob_sum[y:y + 20, x:x + 20] += down
            hits[y:y + 20, x:x + 20] += 1.0
    expected = np.where(hits > 0, prob_sum / np.maximum(hits, 1.0), 0.0)
    assert np.allclose(out, expected, atol=1e-5)


class _RecordingModel(_ConstantLogitModel):
    """The constant model, keeping a copy of every batch it is given."""

    def __init__(self):
        self.batches = []

    def forward(self, batch):
        self.batches.append(batch.copy())
        return super().forward(batch)


def test_tile_predict_windows_equal_real_patches_images_bit_for_bit():
    section = Prng(16).normal(size=(41, 52)) * 300.0
    section[:20, :20] = 2.0  # a constant window becomes zeros in both
    model = _RecordingModel()
    tile_predict(model, section, batch_size=5)
    windows = np.concatenate(model.batches)[:, 0]
    images = [s.image for s in real_patches(section, np.zeros(section.shape))]
    assert windows.shape == (len(images), 44, 44)
    for win, image in zip(windows, images):
        assert win.tobytes() == image.tobytes()


def test_tile_predict_batch_size_does_not_change_result():
    model = build_network("se", Prng(23))
    section = Prng(15).uniform(-1.0, 1.0, (30, 30))
    one = tile_predict(model, section, batch_size=1)
    many = tile_predict(model, section, batch_size=64)
    assert np.allclose(one, many, atol=1e-6)


def test_tile_predict_calls_forward_once_per_batch(two_blas_threads):
    """Each batch is one model.forward call, fanned out or not, and each
    window passes through forward once; the map has the serial bytes."""
    model = build_network("self_attention", Prng(24))
    section = Prng(17).uniform(-1.0, 1.0, (60, 70))
    rows, forward = [], model.forward

    def counting(x):
        rows.append(len(x))
        return forward(x)

    model.forward = counting
    fanned = tile_predict(model, section, batch_size=16)
    assert rows == [16, 14]
    set_blas_threads(1)
    serial = tile_predict(model, section, batch_size=16)
    assert rows == [16, 14, 16, 14]
    assert fanned.tobytes() == serial.tobytes()


def test_tile_predict_rejects_small_section():
    with pytest.raises(DimensionError, match="smaller"):
        tile_predict(_ConstantLogitModel(), np.zeros((10, 10)))


@pytest.mark.parametrize("stride", [0, -5])
def test_tile_predict_rejects_a_stride_below_1(stride):
    with pytest.raises(ConfigError, match="stride must be at least 1, got %d" % stride):
        tile_predict(_ConstantLogitModel(), np.zeros((30, 30)), stride=stride)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_tile_predict_rejects_a_batch_size_below_1(batch_size):
    with pytest.raises(ConfigError, match="batch size must be at least 1, got %d"
                       % batch_size):
        tile_predict(_ConstantLogitModel(), np.zeros((30, 30)),
                     batch_size=batch_size)


# ---------------------------------------------------------------- export_map

def test_export_map_zero_payload(tmp_path):
    path = tmp_path / "zero.pgm"
    export_map(np.zeros((3, 4)), path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n4 3\n255\n")
    assert data[len(b"P5\n4 3\n255\n"):] == b"\x00" * 12


def test_export_map_unit_value_is_byte_255(tmp_path):
    path = tmp_path / "one.pgm"
    export_map(np.ones((2, 2)), path)
    assert path.read_bytes().endswith(b"\xff" * 4)


def test_export_map_pgm_round_trip_within_quantization(tmp_path):
    prob = Prng(31).uniform(0.0, 1.0, (9, 7))
    path = tmp_path / "map.pgm"
    export_map(prob, path)
    back = read_pgm(path).astype(np.float64) / 255.0
    assert np.abs(back - prob).max() <= 0.5 / 255.0 + 1e-12


def test_export_map_csv_round_trip(tmp_path):
    prob = Prng(32).uniform(0.0, 1.0, (5, 6))
    path = tmp_path / "map.csv"
    export_map(prob, path, fmt="csv")
    back = np.loadtxt(path, delimiter=",")
    assert np.allclose(back, prob, atol=1e-6)


def test_export_map_rejects_unknown_format(tmp_path):
    with pytest.raises(ConfigError, match="format"):
        export_map(np.zeros((2, 2)), tmp_path / "x.bin", fmt="bin")


def test_export_map_rejects_out_of_range_values(tmp_path):
    with pytest.raises(DimensionError, match=r"\[0, 1\]"):
        export_map(np.full((2, 2), 1.5), tmp_path / "x.pgm")


def test_export_map_rejects_non_2d(tmp_path):
    with pytest.raises(DimensionError):
        export_map(np.zeros(4), tmp_path / "x.pgm")


# ---------------------------------------------------------------- annotations

def test_mask_filename_convention():
    assert mask_filename("inline", 120) == "mask_inline120.pgm"
    assert mask_filename("crossline", 2800) == "mask_crossline2800.pgm"


def test_load_section_mask_binarizes(tmp_path):
    raw = np.zeros((6, 8), dtype=np.uint8)
    raw[2:4, 3:6] = 255
    write_pgm(tmp_path / "mask_inline120.pgm", raw)
    mask = load_section_mask(tmp_path, "inline", 120, shape=(6, 8))
    assert mask.dtype == np.uint8
    assert np.array_equal(mask, (raw > 0).astype(np.uint8))


def test_load_section_mask_checks_shape(tmp_path):
    write_pgm(tmp_path / "mask_inline5.pgm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(DimensionError, match="section"):
        load_section_mask(tmp_path, "inline", 5, shape=(6, 6))


def test_load_section_mask_missing_file(tmp_path):
    with pytest.raises(FormatError, match="mask_crossline9"):
        load_section_mask(tmp_path, "crossline", 9)


# ---------------------------------------------------------------- raw dumps

def test_raw_section_round_trip(tmp_path):
    arr = Prng(41).uniform(-2.0, 2.0, (7, 5)).astype(np.float32)
    path = tmp_path / "sec.f32"
    write_raw_section(arr, path)
    back = read_raw_section(path, 7, 5)
    assert np.array_equal(back, arr)


def test_read_raw_section_closes_its_file(tmp_path):
    path = tmp_path / "sec.f32"
    write_raw_section(np.ones((3, 4), dtype=np.float32), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        read_raw_section(path, 3, 4)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_read_raw_section_rejects_negative_dimensions(tmp_path):
    # 4 * -2 * -3 bytes: the size check alone would let these through
    path = tmp_path / "sec.f32"
    path.write_bytes(b"\x00" * 24)
    with pytest.raises(ConfigError, match="at least 1x1, got -2x-3"):
        read_raw_section(path, -2, -3)


def test_raw_section_size_mismatch(tmp_path):
    path = tmp_path / "sec.f32"
    path.write_bytes(b"\x00" * 16)
    with pytest.raises(FormatError, match="expected 100"):
        read_raw_section(path, 5, 5)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_read_raw_section_rejects_non_finite_amplitudes(tmp_path, value):
    arr = np.ones((3, 4), dtype=np.float32)
    arr[2, 1] = value
    path = tmp_path / "sec.f32"
    write_raw_section(arr, path)
    with pytest.raises(FormatError, match="row 3 contains non-finite"):
        read_raw_section(path, 3, 4)


def test_write_raw_section_rejects_non_2d(tmp_path):
    with pytest.raises(DimensionError):
        write_raw_section(np.zeros(9), tmp_path / "x.f32")
