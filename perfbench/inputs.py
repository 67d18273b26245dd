"""Input files the benchmark writes for itself: SEG-Y volumes and PGM masks.

The encoders here share no code with seishet's decoders, so a read that
returns exactly the written amplitudes checks seishet against a second
implementation. Every amplitude written is a multiple of 1/256 inside
[-128, 128], which IBM and IEEE single precision both represent exactly.
"""

import os

import numpy as np

TEXT_HEADER_LEN = 3200
BINARY_HEADER_LEN = 400
TRACE_HEADER_LEN = 240
SAMPLE_INTERVAL_US = 4000


def quantize(section):
    """Scale to a peak of 127 and round to a multiple of 1/256."""
    v = np.asarray(section, dtype=np.float64)
    peak = float(np.abs(v).max())
    scale = 127.0 * 256.0 / peak if peak > 0 else 0.0
    return np.rint(v * scale) / 256.0


def ibm_words(values):
    """IBM System/360 single-precision words for exactly representable values.

    |v| = mant * 2**exp with mant in [0.5, 1); the hex exponent is
    ceil(exp / 4), which leaves a fraction in [1/16, 1) with 24 bits.
    """
    v = np.asarray(values, dtype=np.float64)
    mant, exp = np.frexp(np.abs(v))
    hexp = -((-exp) // 4)
    frac = np.ldexp(mant, exp - 4 * hexp + 24)
    if not np.array_equal(frac, np.floor(frac)):
        raise ValueError("amplitude not exactly representable as IBM float")
    words = (
        (np.signbit(v).astype(np.uint32) << np.uint32(31))
        | ((hexp + 64).astype(np.uint32) << np.uint32(24))
        | frac.astype(np.uint32)
    )
    return np.where(v == 0, np.uint32(0), words).astype(">u4")


def _be_bytes(values, dtype, width):
    return np.frombuffer(np.asarray(values).astype(dtype).tobytes(),
                         np.uint8).reshape(-1, width)


def settle(fh):
    """Put a written input on disk before set-up starts, so the kernel's
    write-back of it does not run during the timed operations."""
    fh.flush()
    os.fsync(fh.fileno())


def write_segy(path, ns, fmt, chunks):
    """Write a rev1 big-endian SEG-Y file from (inlines, crosslines, data) chunks.

    `data` is (traces, ns); `fmt` is 1 (IBM) or 5 (IEEE). Inline and
    crossline numbers go to trace-header bytes 189 and 193.
    """
    binary = np.zeros(BINARY_HEADER_LEN, np.uint8)
    for offset, value in ((3216, SAMPLE_INTERVAL_US), (3220, ns), (3224, fmt)):
        start = offset - TEXT_HEADER_LEN
        binary[start:start + 2] = _be_bytes([value], ">u2", 2)[0]
    with open(path, "wb") as fh:
        fh.write(b" " * TEXT_HEADER_LEN)
        fh.write(binary.tobytes())
        for inlines, crosslines, data in chunks:
            n = len(inlines)
            rec = np.zeros((n, TRACE_HEADER_LEN + 4 * ns), np.uint8)
            rec[:, 114:116] = _be_bytes(np.full(n, ns), ">u2", 2)
            rec[:, 188:192] = _be_bytes(inlines, ">i4", 4)
            rec[:, 192:196] = _be_bytes(crosslines, ">i4", 4)
            samples = ibm_words(data) if fmt == 1 else np.asarray(data, ">f4")
            rec[:, TRACE_HEADER_LEN:] = np.frombuffer(
                samples.tobytes(), np.uint8).reshape(n, 4 * ns)
            fh.write(rec.tobytes())
        settle(fh)


def write_sections_segy(path, sections, fmt):
    """Inline i + 1 holds sections[i], a (ns, traces) array; all one shape."""
    ns, width = sections[0].shape
    xl = np.arange(1, width + 1)
    chunks = ((np.full(width, i + 1), xl, sec.T) for i, sec in enumerate(sections))
    write_segy(path, ns, fmt, chunks)


def scan_amplitudes(seed, inlines, crosslines, ns):
    """Deterministic hashed amplitudes for traces (inline, crossline)."""
    il = np.asarray(inlines, dtype=np.uint64)[:, None]
    xl = np.asarray(crosslines, dtype=np.uint64)[:, None]
    k = np.arange(ns, dtype=np.uint64)[None, :]
    h = (il * np.uint64(0x9E3779B97F4A7C15) + xl * np.uint64(0xBF58476D1CE4E5B9)
         + k * np.uint64(0x94D049BB133111EB) + np.uint64(seed & 0xFFFFFFFF))
    h ^= h >> np.uint64(29)
    h *= np.uint64(0xD6E8FEB86659FD93)
    h ^= h >> np.uint64(32)
    return ((h & np.uint64(0xFFFF)).astype(np.int64) - 32768) / 256.0


def write_scan_volume(path, seed, n_inlines, n_crosslines, ns, chunk=8192):
    """A regular n_inlines x n_crosslines grid of scan_amplitudes traces."""
    total = n_inlines * n_crosslines

    def chunks():
        for start in range(0, total, chunk):
            il, xl = np.divmod(np.arange(start, min(start + chunk, total)),
                               n_crosslines)
            yield il + 1, xl + 1, scan_amplitudes(seed, il + 1, xl + 1, ns)

    write_segy(path, ns, 1, chunks())


def write_pgm(path, array):
    """Binary P5 PGM of a 2D uint8 array."""
    arr = np.ascontiguousarray(array, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]))
        fh.write(arr.tobytes())
        settle(fh)
