"""Read-only SEG-Y ingestion and the real-data patch/inference pipeline.

Covers rev1 big-endian files with fixed-length traces and sample formats
1 (IBM hexadecimal float) and 5 (IEEE float). The volume index stores only
header fields and byte offsets; amplitudes are decoded on demand per
section. Byte positions follow the rev1 layout:

    file offset 3216  u16  sample interval (microseconds)
    file offset 3220  u16  samples per trace
    file offset 3224  u16  data sample format code
    trace header, 1-based bytes 189-192 / 193-196: inline / crossline
    (overridable, since real volumes frequently deviate)

Real annotated sections pair a SEG-Y line with a PGM mask file named
mask_<axis><line>.pgm on the same grid.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    FormatError,
    LineNotFoundError,
)
from .model import channel_softmax
from .pgm import read_pgm, write_pgm
from .synthgen import Sample, normalize_patch

TEXT_HEADER_LEN = 3200
BINARY_HEADER_LEN = 400
TRACE_HEADER_LEN = 240

REAL_PATCH_SRC = 20
REAL_PATCH_DST = 44
REAL_PATCH_STRIDE = 10


def ibm_to_ieee(words):
    """Decode IBM System/360 hexadecimal floats from 32-bit words.

    value = (-1)^sign * (fraction / 2^24) * 16^(exponent - 64), which is
    exact in double precision for every bit pattern. Accepts a python int
    or any integer array; returns float or float64 array accordingly.
    """
    arr = np.asarray(words)
    scalar = arr.ndim == 0
    w = arr.astype(np.int64) & 0xFFFFFFFF
    sign = np.where((w >> 31) & 1, -1.0, 1.0)
    exponent = ((w >> 24) & 0x7F) - 64
    fraction = (w & 0xFFFFFF).astype(np.float64) / float(1 << 24)
    value = sign * fraction * np.power(16.0, exponent.astype(np.float64))
    return float(value) if scalar else value


@dataclass
class SeismicSection:
    """One vertical slice: rows are time samples, columns are traces."""
    amplitudes: np.ndarray
    axis: str
    line: int
    trace_keys: list
    sample_interval_us: int = 0

    @property
    def twt_ms(self):
        n = self.amplitudes.shape[0]
        return np.arange(n) * (self.sample_interval_us / 1000.0)


class SegyVolume:
    """Parsed headers plus a trace index keyed by (inline, crossline)."""

    def __init__(self, path, ns, fmt, sample_interval_us, text_header, entries):
        self.path = path
        self.ns = ns
        self.format_code = fmt
        self.sample_interval_us = sample_interval_us
        self.text_header = text_header
        self.n_traces = len(entries)
        self._by_inline = {}
        self._by_crossline = {}
        for il, xl, offset in entries:
            self._by_inline.setdefault(il, []).append((xl, offset))
            self._by_crossline.setdefault(xl, []).append((il, offset))

    def lines(self, axis):
        table = self._table(axis)
        return sorted(table)

    def _table(self, axis):
        if axis == "inline":
            return self._by_inline
        if axis == "crossline":
            return self._by_crossline
        raise ConfigError("axis must be 'inline' or 'crossline', got %r" % axis)


def _u16be(buf, offset):
    return struct.unpack_from(">H", buf, offset)[0]


def _i32be(buf, offset):
    return struct.unpack_from(">i", buf, offset)[0]


def open_volume(path, inline_byte=189, crossline_byte=193):
    """Index a SEG-Y file without loading amplitudes.

    inline_byte/crossline_byte are the 1-based trace-header positions of
    the 4-byte big-endian line numbers.
    """
    for name, byte in (("inline", inline_byte), ("crossline", crossline_byte)):
        if not 1 <= byte <= TRACE_HEADER_LEN - 3:
            raise ConfigError(
                "%s byte %d outside the 240-byte trace header" % (name, byte)
            )
    size = os.path.getsize(path)
    header_len = TEXT_HEADER_LEN + BINARY_HEADER_LEN
    if size < header_len:
        raise FormatError(
            "%s: %d bytes is too short for SEG-Y headers (%d needed)"
            % (path, size, header_len)
        )
    with open(path, "rb") as fh:
        text_header = fh.read(TEXT_HEADER_LEN)
        binary_header = fh.read(BINARY_HEADER_LEN)
        interval = _u16be(binary_header, 3216 - TEXT_HEADER_LEN)
        ns = _u16be(binary_header, 3220 - TEXT_HEADER_LEN)
        fmt = _u16be(binary_header, 3224 - TEXT_HEADER_LEN)
        if ns == 0:
            raise FormatError("%s: binary header declares 0 samples per trace" % path)
        if fmt not in (1, 5):
            raise FormatError(
                "%s: unsupported data format code %d (need 1 ibm or 5 ieee)"
                % (path, fmt)
            )
        trace_len = TRACE_HEADER_LEN + 4 * ns
        body = size - header_len
        n_full = body // trace_len
        if body % trace_len:
            raise FormatError(
                "%s: trace %d is truncated (%d trailing bytes, %d per trace)"
                % (path, n_full + 1, body % trace_len, trace_len)
            )
        if n_full == 0:
            raise FormatError("%s: no traces after the file headers" % path)
        entries = []
        for i in range(n_full):
            pos = header_len + i * trace_len
            fh.seek(pos)
            hdr = fh.read(TRACE_HEADER_LEN)
            if len(hdr) != TRACE_HEADER_LEN:
                raise FormatError("%s: trace %d header unreadable" % (path, i + 1))
            trace_ns = _u16be(hdr, 114)
            if trace_ns and trace_ns != ns:
                raise FormatError(
                    "%s: trace %d declares %d samples, volume header says %d"
                    % (path, i + 1, trace_ns, ns)
                )
            il = _i32be(hdr, inline_byte - 1)
            xl = _i32be(hdr, crossline_byte - 1)
            entries.append((il, xl, pos + TRACE_HEADER_LEN))
    return SegyVolume(path, ns, fmt, interval, text_header, entries)


def _decode_trace(raw, fmt, path, ordinal):
    if fmt == 5:
        vals = np.frombuffer(raw, dtype=">f4").astype(np.float64)
    else:
        vals = ibm_to_ieee(np.frombuffer(raw, dtype=">u4"))
    if not np.isfinite(vals).all():
        raise FormatError(
            "%s: trace %d contains non-finite amplitudes" % (path, ordinal)
        )
    return vals.astype(np.float32)


def read_section(volume, axis, line):
    """Amplitudes of one line, traces sorted by the orthogonal key."""
    table = volume._table(axis)
    line = int(line)
    if line not in table:
        available = sorted(table)
        raise LineNotFoundError(
            "%s %d not in volume (available: %d..%d, %d lines)"
            % (axis, line, available[0], available[-1], len(available))
        )
    entries = sorted(table[line])
    data = np.empty((volume.ns, len(entries)), dtype=np.float32)
    with open(volume.path, "rb") as fh:
        for col, (key, offset) in enumerate(entries):
            fh.seek(offset)
            raw = fh.read(4 * volume.ns)
            if len(raw) != 4 * volume.ns:
                raise FormatError(
                    "%s: trace at offset %d is truncated" % (volume.path, offset)
                )
            data[:, col] = _decode_trace(raw, volume.format_code, volume.path, col + 1)
    keys = [key for key, _ in entries]
    return SeismicSection(data, axis, line, keys, volume.sample_interval_us)


def _axis_map(n_in, n_out):
    """Align-corners source coordinates for resampling n_in -> n_out."""
    if n_out == 1 or n_in == 1:
        return np.zeros(n_out, dtype=np.float64)
    return np.arange(n_out, dtype=np.float64) * (n_in - 1) / (n_out - 1)


def _resize_batch_bilinear(stack, out_h, out_w):
    """Bilinear resize of a (B, H, W) stack with align-corners mapping."""
    b, h, w = stack.shape
    sy = _axis_map(h, out_h)
    sx = _axis_map(w, out_w)
    y0 = np.minimum(sy.astype(np.int64), max(h - 2, 0))
    x0 = np.minimum(sx.astype(np.int64), max(w - 2, 0))
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (sy - y0)[None, :, None]
    fx = (sx - x0)[None, None, :]
    rows = stack[:, y0, :] * (1.0 - fy) + stack[:, y1, :] * fy
    return rows[:, :, x0] * (1.0 - fx) + rows[:, :, x1] * fx


def bilinear_resize(image, out_h, out_w):
    """Bilinear resample of a single 2D array; exact on linear ramps."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise DimensionError("bilinear_resize expects a 2D array")
    return _resize_batch_bilinear(image[None], out_h, out_w)[0]


def nearest_resize(mask, out_h, out_w):
    """Nearest-neighbor resample; binary inputs stay binary."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise DimensionError("nearest_resize expects a 2D array")
    yi = np.rint(_axis_map(mask.shape[0], out_h)).astype(np.int64)
    xi = np.rint(_axis_map(mask.shape[1], out_w)).astype(np.int64)
    return mask[np.ix_(yi, xi)]


def real_patches(section, mask, src=REAL_PATCH_SRC, dst=REAL_PATCH_DST,
                 stride=REAL_PATCH_STRIDE):
    """Overlapping src x src windows upscaled to dst x dst training samples.

    Amplitude windows are bilinearly rescaled then min-max normalized;
    mask windows are nearest-neighbor rescaled and re-binarized.
    """
    section = np.asarray(section, dtype=np.float64)
    mask = np.asarray(mask)
    if section.ndim != 2:
        raise DimensionError("real_patches expects a 2D section")
    if mask.shape != section.shape:
        raise DimensionError(
            "mask %s does not match section %s" % (mask.shape, section.shape)
        )
    h, w = section.shape
    if h < src or w < src:
        raise DimensionError(
            "section %dx%d is smaller than the %d window" % (h, w, src)
        )
    out = []
    for y in range(0, h - src + 1, stride):
        for x in range(0, w - src + 1, stride):
            win = bilinear_resize(section[y:y + src, x:x + src], dst, dst)
            msk = nearest_resize(mask[y:y + src, x:x + src], dst, dst)
            out.append(Sample(normalize_patch(win), (msk > 0).astype(np.uint8)))
    return out


def tile_predict(model, section, src=REAL_PATCH_SRC, stride=REAL_PATCH_STRIDE,
                 batch_size=64):
    """Blend per-window heterogeneity probabilities over a whole section.

    Every src x src window is normalized and upscaled exactly like
    real_patches, pushed through the model, and its probability map is
    downscaled back onto the window footprint. Overlaps average; pixels no
    window covers stay 0. The result does not depend on window order.
    """
    section = np.asarray(section, dtype=np.float64)
    if section.ndim != 2:
        raise DimensionError("tile_predict expects a 2D section")
    h, w = section.shape
    if h < src or w < src:
        raise DimensionError(
            "section %dx%d is smaller than the %d window" % (h, w, src)
        )
    positions = [
        (y, x)
        for y in range(0, h - src + 1, stride)
        for x in range(0, w - src + 1, stride)
    ]
    prob_sum = np.zeros((h, w), dtype=np.float64)
    hits = np.zeros((h, w), dtype=np.float64)
    dst = REAL_PATCH_DST
    for start in range(0, len(positions), batch_size):
        chunk = positions[start:start + batch_size]
        wins = np.stack([section[y:y + src, x:x + src] for y, x in chunk])
        lo = wins.min(axis=(1, 2), keepdims=True)
        hi = wins.max(axis=(1, 2), keepdims=True)
        rng = hi - lo
        safe = np.where(rng > 0, rng, 1.0)
        wins = np.where(rng > 0, 2.0 * (wins - lo) / safe - 1.0, 0.0)
        up = _resize_batch_bilinear(wins, dst, dst).astype(np.float32)
        prob = channel_softmax(model.forward(up[:, None]))[:, 1]
        down = _resize_batch_bilinear(prob.astype(np.float64), src, src)
        for i, (y, x) in enumerate(chunk):
            prob_sum[y:y + src, x:x + src] += down[i]
            hits[y:y + src, x:x + src] += 1.0
    covered = hits > 0
    out = np.zeros((h, w), dtype=np.float64)
    out[covered] = prob_sum[covered] / hits[covered]
    return np.clip(out, 0.0, 1.0)


def export_map(prob_map, path, fmt="pgm"):
    """Write a [0,1] confidence map as PGM bytes or CSV floats."""
    prob_map = np.asarray(prob_map, dtype=np.float64)
    if prob_map.ndim != 2:
        raise DimensionError("confidence map must be 2D")
    if prob_map.min(initial=0.0) < -1e-9 or prob_map.max(initial=0.0) > 1.0 + 1e-9:
        raise DimensionError("confidence map values must lie in [0, 1]")
    if fmt == "pgm":
        write_pgm(path, np.rint(np.clip(prob_map, 0.0, 1.0) * 255.0).astype(np.uint8))
    elif fmt == "csv":
        np.savetxt(path, prob_map, fmt="%.6f", delimiter=",")
    else:
        raise ConfigError("unknown export format %r (want pgm or csv)" % fmt)


def mask_filename(axis, line):
    """Canonical annotation file name for a section."""
    return "mask_%s%d.pgm" % (axis, int(line))


def load_section_mask(directory, axis, line, shape=None):
    """Read the PGM annotation for a line; nonzero bytes mean positive."""
    path = os.path.join(directory, mask_filename(axis, line))
    if not os.path.isfile(path):
        raise FormatError("annotation file %s not found" % path)
    mask = read_pgm(path)
    if shape is not None and mask.shape != tuple(shape):
        raise DimensionError(
            "annotation %s is %s, section is %s" % (path, mask.shape, tuple(shape))
        )
    return (mask > 0).astype(np.uint8)


def read_raw_section(path, height, width):
    """Load a raw little-endian float32 row-major section dump."""
    expected = 4 * height * width
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) != expected:
        raise FormatError(
            "%s: %d bytes, expected %d for %dx%d float32"
            % (path, len(raw), expected, height, width)
        )
    return np.frombuffer(raw, dtype="<f4").reshape(height, width).copy()


def write_raw_section(section, path):
    """Store a section as raw little-endian float32, row-major."""
    arr = np.ascontiguousarray(section, dtype="<f4")
    if arr.ndim != 2:
        raise DimensionError("raw section must be 2D")
    with open(path, "wb") as fh:
        fh.write(arr.tobytes())
