"""Read-only SEG-Y ingestion and the real-data patch/inference pipeline.

Covers rev1 big-endian files with fixed-length traces and sample formats
1 (IBM hexadecimal float) and 5 (IEEE float). The volume index stores only
the line keys of every trace; amplitudes are decoded on demand per
section. Byte positions follow the rev1 layout:

    file offset 3216  u16  sample interval (microseconds)
    file offset 3220  u16  samples per trace
    file offset 3224  u16  data sample format code
    trace header, 1-based bytes 115-116: samples in this trace (0 = default)
    trace header, 1-based bytes 189-192 / 193-196: inline / crossline
    (overridable, since real volumes frequently deviate)

Real annotated sections pair a SEG-Y line with a PGM mask file named
mask_<axis><line>.pgm on the same grid.
"""

import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    EvaluationError,
    FormatError,
    LineNotFoundError,
)
from .model import PATCH, channel_softmax
from .pgm import read_pgm, read_pgm_with_maxval, write_pgm
from .synthgen import Sample, normalize_windows, window_corners

TRACE_HEADER_LEN = 240
FILE_HEADER_LEN = 3600  # the 3200-byte text header, then the 400-byte binary one
SCAN_CHUNK_BYTES = 4 << 20

REAL_PATCH_SRC = 20  # window side on the section grid, upscaled to PATCH
REAL_PATCH_STRIDE = 10


def ibm_to_ieee(words):
    """Decode IBM System/360 hexadecimal floats from 32-bit words.

    value = (-1)^sign * fraction * 2^(4 * (exponent - 64) - 24) with the
    24-bit fraction read as an integer, which np.ldexp computes exactly in
    double precision for every bit pattern. Accepts a python int or any
    integer array; returns float or float64 array accordingly.
    """
    w = np.asarray(words).astype(np.int64) & 0xFFFFFFFF
    fraction = (w & 0xFFFFFF).astype(np.float64)
    magnitude = np.ldexp(fraction, 4 * ((w >> 24) & 0x7F) - 280)
    value = np.copysign(magnitude, -(w >> 31))  # -0.0 for a bare sign bit
    return float(value) if value.ndim == 0 else value


@dataclass
class SeismicSection:
    """One vertical slice: rows are time samples, columns are traces."""
    amplitudes: np.ndarray
    axis: str
    line: int
    trace_keys: list
    sample_interval_us: int = 0


class SegyVolume:
    """Parsed headers plus, per axis, the trace ordinals sorted by (line,
    orthogonal key) with ties in file order, the orthogonal keys in that
    order, and each line's [start, stop) slice of both, lines ascending."""

    def __init__(self, path, ns, fmt, sample_interval_us, keys):
        self.path = path
        self.ns = ns
        self.format_code = fmt
        self.sample_interval_us = sample_interval_us
        self.n_traces = keys.shape[1]
        self._index = {}
        for axis, (key, orth) in (("inline", keys), ("crossline", keys[::-1])):
            order = np.lexsort((orth, key))  # stable: ties keep file order
            key = key[order]
            bounds = np.flatnonzero(np.r_[True, key[1:] != key[:-1], True]).tolist()
            spans = dict(zip(key[bounds[:-1]].tolist(), zip(bounds, bounds[1:])))
            self._index[axis] = (spans, order, orth[order])

    def lines(self, axis):
        return list(self._axis(axis)[0])

    def _axis(self, axis):
        if axis not in ("inline", "crossline"):
            raise ConfigError("axis must be 'inline' or 'crossline', got %r" % axis)
        return self._index[axis]


def open_volume(path, inline_byte=189, crossline_byte=193):
    """Index a SEG-Y file without loading amplitudes.

    inline_byte/crossline_byte are the 1-based trace-header positions of
    the 4-byte big-endian line numbers. Trace headers are read in chunks.
    """
    for name, byte in (("inline", inline_byte), ("crossline", crossline_byte)):
        if not 1 <= byte <= TRACE_HEADER_LEN - 3:
            raise ConfigError(
                "%s byte %d outside the 240-byte trace header" % (name, byte)
            )
    size = os.path.getsize(path)
    if size < FILE_HEADER_LEN:
        raise FormatError(
            "%s: %d bytes is too short for SEG-Y headers (%d needed)"
            % (path, size, FILE_HEADER_LEN)
        )
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(FILE_HEADER_LEN)
        interval, _, ns, _, fmt = np.frombuffer(head, ">u2", 5, 3216).tolist()
        if ns == 0:
            raise FormatError("%s: binary header declares 0 samples per trace" % path)
        if fmt not in (1, 5):
            raise FormatError(
                "%s: unsupported data format code %d (need 1 ibm or 5 ieee)"
                % (path, fmt)
            )
        trace_len = TRACE_HEADER_LEN + 4 * ns
        body = size - FILE_HEADER_LEN
        n_full = body // trace_len
        if body % trace_len:
            raise FormatError(
                "%s: trace %d is truncated (%d trailing bytes, %d per trace)"
                % (path, n_full + 1, body % trace_len, trace_len)
            )
        if n_full == 0:
            raise FormatError("%s: no traces after the file headers" % path)
        fields = np.dtype({"names": ["ns", "il", "xl"], "formats": [">u2", ">i4", ">i4"],
                           "offsets": [114, inline_byte - 1, crossline_byte - 1],
                           "itemsize": trace_len})
        per_chunk = max(1, SCAN_CHUNK_BYTES // trace_len)
        keys = np.empty((2, n_full), dtype=np.int64)
        for start in range(0, n_full, per_chunk):
            count = min(per_chunk, n_full - start)
            headers = np.fromfile(fh, fields, count)
            if len(headers) != count:
                raise FormatError("%s: trace %d header unreadable"
                                  % (path, start + len(headers) + 1))
            bad = np.flatnonzero((headers["ns"] != 0) & (headers["ns"] != ns))
            if bad.size:
                raise FormatError(
                    "%s: trace %d declares %d samples, volume header says %d"
                    % (path, start + bad[0] + 1, headers["ns"][bad[0]], ns)
                )
            keys[:, start:start + count] = headers["il"], headers["xl"]
    return SegyVolume(path, ns, fmt, interval, keys)


def read_section(volume, axis, line):
    """Amplitudes of one line, traces sorted by the orthogonal key.

    Equal keys keep file order. Traces adjacent in the file are read in
    one call, then the whole section is decoded at once.
    """
    spans, order, orth = volume._axis(axis)
    line = int(line)
    if line not in spans:
        available = list(spans)
        raise LineNotFoundError(
            "%s %d not in volume (available: %d..%d, %d lines)"
            % (axis, line, available[0], available[-1], len(available))
        )
    lo, hi = spans[line]
    ordinals = order[lo:hi]
    fmt = volume.format_code
    traces = np.empty(hi - lo, dtype=[("header", "V%d" % TRACE_HEADER_LEN),
                                      ("samples", ">f4" if fmt == 5 else ">u4", volume.ns)])
    size = traces.itemsize
    raw = memoryview(traces.view(np.uint8))
    offsets = FILE_HEADER_LEN + ordinals * size
    runs = np.r_[0, np.flatnonzero(np.diff(ordinals) != 1) + 1, len(ordinals)].tolist()
    filled = len(ordinals)
    with open(volume.path, "rb", buffering=0) as fh:
        for a, b in zip(runs, runs[1:]):
            fh.seek(int(offsets[a]))
            got = fh.readinto(raw[a * size:b * size])
            if got != (b - a) * size:
                filled = a + got // size
                break
    samples = traces["samples"][:filled]
    with np.errstate(over="ignore"):  # IBM values beyond float32 become inf
        data = (samples if fmt == 5 else ibm_to_ieee(samples)).astype(np.float32)
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise FormatError(
            "%s: trace %d contains non-finite amplitudes" % (volume.path, bad[0] + 1)
        )
    if filled < len(ordinals):  # after the finiteness check: columns fail in order
        raise FormatError("%s: trace at offset %d is truncated"
                          % (volume.path, offsets[filled] + TRACE_HEADER_LEN))
    return SeismicSection(np.ascontiguousarray(data.T), axis, line,
                          orth[lo:hi].tolist(), volume.sample_interval_us)


def _axis_map(n_in, n_out):
    """Align-corners source coordinates for resampling n_in -> n_out."""
    if n_out == 1 or n_in == 1:
        return np.zeros(n_out, dtype=np.float64)
    return np.arange(n_out, dtype=np.float64) * (n_in - 1) / (n_out - 1)


def bilinear_resize(stack, out_h, out_w):
    """Bilinear resize of a (B, H, W) stack, align-corners; exact on ramps."""
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


def nearest_resize(mask, out_h, out_w):
    """Nearest-neighbor resample; binary inputs stay binary."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise DimensionError("nearest_resize expects a 2D array")
    yi = np.rint(_axis_map(mask.shape[0], out_h)).astype(np.int64)
    xi = np.rint(_axis_map(mask.shape[1], out_w)).astype(np.int64)
    return mask[np.ix_(yi, xi)]


def _prepare_windows(section, corners):
    """Model inputs (N, PATCH, PATCH) float32 for the windows at `corners`.

    Each window is bilinearly upscaled first, then min-max normalized by
    the synthetic generator's normalize_windows, so training samples and
    inference windows match bit for bit.
    """
    src = REAL_PATCH_SRC
    return normalize_windows(bilinear_resize(
        np.stack([section[y:y + src, x:x + src] for y, x in corners]), PATCH, PATCH))


def window_hits(section, stride=REAL_PATCH_STRIDE):
    """The section as float64, its window corners at stride, and how many
    windows cover each pixel: the footprint tile_predict blends over."""
    if stride < 1:
        raise ConfigError("window stride must be at least 1, got %d" % stride)
    section = np.asarray(section, dtype=np.float64)
    if section.ndim != 2:
        raise DimensionError("expected a 2D section, got rank %d" % section.ndim)
    h, w = section.shape
    if h < REAL_PATCH_SRC or w < REAL_PATCH_SRC:
        raise DimensionError(
            "section %dx%d is smaller than the %d window" % (h, w, REAL_PATCH_SRC)
        )
    corners = window_corners(h, w, REAL_PATCH_SRC, stride)
    hits = np.zeros((h, w), dtype=np.float64)
    for y, x in corners:
        hits[y:y + REAL_PATCH_SRC, x:x + REAL_PATCH_SRC] += 1.0
    return section, corners, hits


def real_patches(section, mask, stride=REAL_PATCH_STRIDE):
    """Overlapping REAL_PATCH_SRC windows upscaled to PATCH training samples.

    Amplitude windows are bilinearly rescaled then min-max normalized;
    mask windows are nearest-neighbor rescaled and re-binarized.
    """
    section, corners, _ = window_hits(section, stride)
    mask = np.asarray(mask)
    if mask.shape != section.shape:
        raise DimensionError(
            "mask %s does not match section %s" % (mask.shape, section.shape)
        )
    images = _prepare_windows(section, corners)
    src = REAL_PATCH_SRC
    out = []
    for (y, x), image in zip(corners, images):
        msk = nearest_resize(mask[y:y + src, x:x + src], PATCH, PATCH)
        out.append(Sample(image, (msk > 0).astype(np.uint8)))
    return out


def tile_predict(model, section, stride=REAL_PATCH_STRIDE, batch_size=64):
    """Blend per-window heterogeneity probabilities over a whole section.

    Every REAL_PATCH_SRC window is upscaled and normalized by the same
    function as in real_patches, pushed through the model, and its
    probability map is downscaled back onto the window footprint. Overlaps
    average; pixels no window covers stay 0. The result does not depend on
    window order.
    """
    if batch_size < 1:
        raise ConfigError("batch size must be at least 1, got %d" % batch_size)
    section, corners, hits = window_hits(section, stride)
    src = REAL_PATCH_SRC
    prob_sum = np.zeros_like(hits)
    for start in range(0, len(corners), batch_size):
        chunk = corners[start:start + batch_size]
        up = _prepare_windows(section, chunk)
        prob = channel_softmax(model.forward(up[:, None]))[:, 1]
        down = bilinear_resize(prob.astype(np.float64), src, src)
        for i, (y, x) in enumerate(chunk):
            prob_sum[y:y + src, x:x + src] += down[i]
    return np.clip(np.divide(prob_sum, hits, out=prob_sum, where=hits > 0), 0.0, 1.0)


def export_map(prob_map, path, fmt="pgm"):
    """Write a [0,1] confidence map as PGM bytes or CSV floats; `read_map`
    reads either back."""
    prob_map = np.asarray(prob_map, dtype=np.float64)
    if prob_map.ndim != 2:
        raise DimensionError("confidence map must be 2D")
    if not np.isfinite(prob_map).all():
        raise EvaluationError("confidence map holds non-finite values")
    if prob_map.min(initial=0.0) < -1e-9 or prob_map.max(initial=0.0) > 1.0 + 1e-9:
        raise DimensionError("confidence map values must lie in [0, 1]")
    if fmt == "pgm":
        write_pgm(path, np.rint(np.clip(prob_map, 0.0, 1.0) * 255.0).astype(np.uint8))
    elif fmt == "csv":
        np.savetxt(path, prob_map, fmt="%.6f", delimiter=",")
    else:
        raise ConfigError("unknown export format %r (want pgm or csv)" % fmt)


def read_map(path):
    """A [0, 1] confidence map: a PGM by its P5 magic, scaled by its maxval, or a CSV."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"P5":
        pixels, maxval = read_pgm_with_maxval(path)
        return pixels.astype(np.float64) / maxval
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data: rejected below
        try:
            data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise FormatError("%s: not a CSV confidence map: %s" % (path, exc))
    if data.size == 0:
        raise FormatError("%s: no values" % path)
    if not np.isfinite(data).all():
        raise FormatError("%s: non-finite confidence values" % path)
    if data.min() < 0.0 or data.max() > 1.0:
        raise FormatError("%s: confidence values must lie in [0, 1]" % path)
    return data


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
    if height < 1 or width < 1:
        raise ConfigError("raw section must be at least 1x1, got %dx%d"
                          % (height, width))
    expected = 4 * height * width
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) != expected:
        raise FormatError(
            "%s: %d bytes, expected %d for %dx%d float32"
            % (path, len(raw), expected, height, width)
        )
    section = np.frombuffer(raw, dtype="<f4").reshape(height, width).copy()
    bad = np.flatnonzero(~np.isfinite(section).all(axis=1))
    if bad.size:
        raise FormatError("%s: row %d contains non-finite amplitudes" % (path, bad[0] + 1))
    return section
