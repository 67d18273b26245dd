"""Minimal binary PGM (P5) reader and writer, maxval up to 255."""

import numpy as np

from .errors import FormatError


def write_pgm(path, array):
    """Write a 2D uint8 array as binary PGM."""
    arr = np.asarray(array)
    if arr.ndim != 2:
        raise FormatError("pgm payload must be 2D, got rank %d" % arr.ndim)
    if arr.dtype != np.uint8:
        if arr.min(initial=0) < 0 or arr.max(initial=0) > 255:
            raise FormatError("pgm values must fit in 0..255")
        arr = arr.astype(np.uint8)
    header = b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def read_pgm(path):
    """Read a binary PGM into a 2D uint8 array."""
    return read_pgm_with_maxval(path)[0]


def read_pgm_with_maxval(path):
    """Read a binary PGM into (2D uint8 array, maxval from its header)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise FormatError("%s: not a binary PGM (missing P5 magic)" % path)
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("%s: truncated PGM header" % path)
        fields.append(data[start:pos])
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise FormatError("%s: non-numeric PGM header fields" % path)
    if width <= 0 or height <= 0:
        raise FormatError("%s: bad PGM dimensions %dx%d" % (path, width, height))
    if not 0 < maxval <= 255:
        raise FormatError("%s: unsupported PGM maxval %d" % (path, maxval))
    pos += 1  # single whitespace byte after maxval
    payload = data[pos:pos + width * height]
    if len(payload) != width * height:
        raise FormatError(
            "%s: PGM payload is %d bytes, expected %d"
            % (path, len(payload), width * height)
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()
    if maxval < 255 and pixels.max() > maxval:
        raise FormatError("%s: PGM pixel values exceed maxval %d" % (path, maxval))
    return pixels, maxval
