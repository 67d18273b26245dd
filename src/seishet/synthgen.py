"""Synthetic seismic sections with ground-truth heterogeneity masks.

A section starts as a horizontally layered reflectivity model, then gets
deformed in order: sinusoidal folding, linear shearing, and a few discrete
faults that vertically offset one side of a dipping line. The faulted
reflectivity is convolved per trace with a Ricker wavelet, Gaussian noise
is added, and the section is cut into overlapping 44x44 patches normalized
to [-1, 1]. The mask marks the rasterized (and dilated) fault lines.
The dilation is a separable square in numpy, so generating sections does
not import scipy.

All randomness flows through one master seed: section i uses the derived
stream Prng(seed).derive(i), so any section is reproducible in isolation
and the whole corpus is bit-stable.
"""

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError, DimensionError, FormatError
from .model import PATCH
from .numcore import Prng

STRIDE = PATCH // 2

DATASET_VERSION = 2
# each Sample field, with the dataset file that holds it and its dtype
_DATASET_FILES = {"image": ("images.f32", "<f4"), "mask": ("masks.u8", "u1")}


@dataclass
class SyntheticConfig:
    height: int = 128
    width: int = 128
    sections: int = 4000
    thickness: tuple = (5, 20)
    fold_amplitude: tuple = (0.0, 10.0)
    fold_wavelength: tuple = (32.0, 128.0)
    shear: tuple = (-0.2, 0.2)
    faults: tuple = (1, 3)
    dip_degrees: tuple = (50.0, 85.0)
    throw: tuple = (3, 15)
    wavelet_period: tuple = (12.0, 25.0)
    noise: tuple = (0.0, 0.10)
    mask_dilation: int = 1
    stride: int = STRIDE
    seed: int = 0

    def validate(self):
        if self.height < PATCH or self.width < PATCH:
            raise ConfigError(
                "section %dx%d is smaller than the %d patch"
                % (self.height, self.width, PATCH)
            )
        # numpy sizes no array of 2**63 bytes or more: 2**60 float64 pixels
        if self.height * self.width >= 2 ** 60:
            raise ConfigError("section %dx%d has more pixels than numpy can"
                              " hold, 2**60 or more" % (self.height, self.width))
        if self.sections < 1:
            raise ConfigError("need at least one section, got %d" % self.sections)
        if self.stride < 1:
            raise ConfigError("stride must be positive, got %d" % self.stride)
        if self.mask_dilation < 0:
            raise ConfigError("mask dilation must be nonnegative, got %d"
                              % self.mask_dilation)
        for name in ("thickness", "fold_amplitude", "fold_wavelength", "shear",
                     "faults", "dip_degrees", "throw", "wavelet_period", "noise"):
            lo, hi = getattr(self, name)
            # numpy draws integers in int64 and floats from a finite width
            if not (-2 ** 63 <= lo and hi < 2 ** 63
                    if name in ("thickness", "faults", "throw")
                    else math.isfinite(hi - lo)):
                raise ConfigError("range %s has a bound numpy cannot draw"
                                  " from: %r" % (name, (lo, hi)))
            if lo > hi:
                raise ConfigError("range %s is empty: %r" % (name, (lo, hi)))
        if self.thickness[0] < 1:
            raise ConfigError("layer thickness must be at least 1 sample")
        if self.faults[0] < 0:
            raise ConfigError("fault count cannot be negative")
        if not 0 < self.dip_degrees[0] <= self.dip_degrees[1] < 180:
            raise ConfigError("dip range must sit inside (0, 180) degrees")
        if self.throw[0] < 0:
            raise ConfigError("fault throw cannot be negative")
        if self.fold_wavelength[0] <= 0:
            raise ConfigError("fold wavelength must be positive")
        if self.wavelet_period[0] <= 0:
            raise ConfigError("wavelet period must be positive")
        if self.noise[0] < 0:
            raise ConfigError("noise fraction cannot be negative")
        return self


@dataclass
class Sample:
    """One training unit: normalized amplitude patch plus binary mask."""
    image: np.ndarray  # float32 (PATCH, PATCH) in [-1, 1]
    mask: np.ndarray   # uint8 (PATCH, PATCH) of {0, 1}


def generate_reflectivity(config, prng):
    """Layered model: spike rows at random depths, identical across traces."""
    spikes = np.zeros(config.height, dtype=np.float64)
    depth = 0
    lo, hi = config.thickness
    while True:
        depth += int(prng.randint(int(lo), int(hi)))
        if depth >= config.height:
            break
        spikes[depth] = prng.uniform(-1.0, 1.0)
    return np.repeat(spikes[:, None], config.width, axis=1)


def _shift_columns(section, displacement):
    """Resample each column at y - d(x) by linear interpolation, zero fill."""
    h, w = section.shape
    ys = np.arange(h, dtype=np.float64)
    out = np.empty_like(section)
    for x in range(w):
        out[:, x] = np.interp(
            ys - displacement[x], ys, section[:, x], left=0.0, right=0.0
        )
    return out


def apply_fold(section, config, prng):
    """Sinusoidal per-trace vertical displacement a*sin(2 pi x/lam + phi)."""
    amp = prng.uniform(*config.fold_amplitude)
    lam = prng.uniform(*config.fold_wavelength)
    phase = prng.uniform(0.0, 2.0 * math.pi)
    xs = np.arange(section.shape[1], dtype=np.float64)
    return _shift_columns(section, amp * np.sin(2.0 * math.pi * xs / lam + phase))


def apply_shear(section, config, prng):
    """Linear vertical displacement s0*x across traces."""
    slope = prng.uniform(*config.shear)
    xs = np.arange(section.shape[1], dtype=np.float64)
    return _shift_columns(section, slope * xs)


def _integer_shift_down(grid, throw):
    """Shift a 2D grid down by an integer number of rows, zero filling."""
    if throw == 0:
        return grid.copy()
    out = np.zeros_like(grid)
    out[throw:] = grid[:-throw]
    return out


def apply_faults(section, config, prng):
    """Inject dipping faults: one side drops by an integer throw.

    Each fault is a line x(y) = x0 + (y - H/2)/tan(dip), with the dip's
    lateral direction chosen at random. Pixels strictly right of the line
    shift down by the throw; the running mask shifts along with the rock it
    annotates and then gains the new fault trace. Throws are integers so
    offsets across a fault are exact. The final mask is dilated by a square
    of the configured radius.
    """
    h, w = section.shape
    out = section.copy()
    mask = np.zeros((h, w), dtype=bool)
    n_faults = int(prng.randint(int(config.faults[0]), int(config.faults[1])))
    ys = np.arange(h, dtype=np.float64)
    for _ in range(n_faults):
        dip = math.radians(prng.uniform(*config.dip_degrees))
        direction = 1.0 if prng.uniform(0.0, 1.0) < 0.5 else -1.0
        x0 = prng.uniform(0.0, w - 1.0)
        throw = int(prng.randint(int(config.throw[0]), int(config.throw[1])))
        # a dip near 0 sends rows to +-inf, and the middle one to NaN
        # once the dip's radians underflow to 0
        with np.errstate(all="ignore"):
            line_x = x0 + (ys - h / 2.0) * direction / math.tan(dip)
        side = np.arange(w)[None, :] > line_x[:, None]
        out = np.where(side, _integer_shift_down(out, throw), out)
        mask = np.where(side, _integer_shift_down(mask, throw), mask)
        # rows whose trace leaves the section are dropped before the cast
        cols = np.rint(line_x)
        rows_in = (cols >= 0) & (cols < w)
        mask[np.arange(h)[rows_in], cols[rows_in].astype(np.int64)] = True
    return out, _dilate_square(mask, config.mask_dilation).astype(np.uint8)


def _dilate_square(mask, radius):
    """A boolean mask dilated by a (2r+1)-pixel square, zero outside.

    The square is separable: pad by r, OR together the 2r+1 column
    shifts, then the 2r+1 row shifts of that. On booleans this equals
    scipy.ndimage.binary_dilation with a (2r+1)^2 structure. A radius past
    max(h, w) is clamped there: that square already reaches every pixel.
    """
    h, w = mask.shape
    radius = min(radius, max(h, w))
    padded = np.pad(mask, radius)
    rows = np.zeros((h + 2 * radius, w), dtype=bool)
    for j in range(2 * radius + 1):
        rows |= padded[:, j:j + w]
    out = np.zeros((h, w), dtype=bool)
    for i in range(2 * radius + 1):
        out |= rows[i:i + h]
    return out


def ricker(peak_period, length):
    """Zero-phase Ricker wavelet (1 - 2 a) e^{-a}, a = (pi t / T)^2."""
    length = int(length)
    if length % 2 == 0:
        raise DimensionError("ricker length must be odd, got %d" % length)
    if peak_period <= 0:
        raise ConfigError("ricker peak period must be positive")
    t = np.arange(length, dtype=np.float64) - length // 2
    with np.errstate(over="ignore"):  # a tiny period may give a = inf
        a = (math.pi * t / peak_period) ** 2
    # e^-a is 0 from a = 746 on: the cap changes no value but keeps inf * 0 out
    return (1.0 - 2.0 * np.minimum(a, 1e3)) * np.exp(-a)


def convolve_traces(section, wavelet):
    """Same-length convolution of every column with the wavelet, zero pad."""
    wavelet = np.asarray(wavelet, dtype=np.float64)
    if wavelet.ndim != 1 or wavelet.size % 2 == 0:
        raise DimensionError("wavelet must be 1D with odd length")
    h, w = section.shape
    half = wavelet.size // 2
    padded = np.zeros((h + 2 * half, w), dtype=np.float64)
    padded[half:half + h] = section
    out = np.zeros((h, w), dtype=np.float64)
    for k in range(wavelet.size):
        start = 2 * half - k
        out += wavelet[k] * padded[start:start + h]
    return out


def add_noise(section, config, prng):
    """Gaussian noise with sigma = sampled fraction of the signal RMS."""
    frac = prng.uniform(*config.noise)
    rms = math.sqrt(float(np.mean(section ** 2)))
    return section + prng.normal(0.0, frac * rms, size=section.shape)


def window_corners(h, w, size, stride):
    """Top-left corners of the size x size windows, row by row."""
    return [(y, x) for y in range(0, h - size + 1, stride)
            for x in range(0, w - size + 1, stride)]


def normalize_windows(stack):
    """Min-max map each window of an (N, H, W) stack to [-1, 1], float32.

    A constant window becomes all zeros. The stack is overwritten. Every
    patch the model sees, synthetic or real, goes through this arithmetic.
    """
    lo = stack.min(axis=(1, 2), keepdims=True)
    hi = stack.max(axis=(1, 2), keepdims=True)
    flat = hi <= lo
    stack -= lo
    stack *= 2.0
    stack /= np.where(flat, 1.0, hi - lo)
    stack -= 1.0
    stack[flat[:, 0, 0]] = 0.0
    return stack.astype(np.float32)


def extract_patches(section, mask, stride=STRIDE):
    """Sliding PATCH x PATCH samples; images normalized, masks cropped untouched."""
    h, w = section.shape
    if mask.shape != section.shape:
        raise DimensionError(
            "mask %s does not match section %s" % (mask.shape, section.shape)
        )
    if h < PATCH or w < PATCH:
        raise DimensionError(
            "section %dx%d is smaller than patch %d" % (h, w, PATCH)
        )
    corners = window_corners(h, w, PATCH, stride)
    images = normalize_windows(
        np.stack([section[y:y + PATCH, x:x + PATCH] for y, x in corners]))
    return [Sample(image, (mask[y:y + PATCH, x:x + PATCH] > 0).astype(np.uint8))
            for (y, x), image in zip(corners, images)]


def generate_section(config, prng):
    """Run the full pipeline for one section, pre-patching."""
    section = generate_reflectivity(config, prng)
    section = apply_fold(section, config, prng)
    section = apply_shear(section, config, prng)
    section, mask = apply_faults(section, config, prng)
    period = prng.uniform(*config.wavelet_period)
    # taps past the central 2h - 1 meet only zero padding and change nothing
    length = min(2 * math.ceil(1.5 * period) + 1, 2 * config.height - 1)
    section = convolve_traces(section, ricker(period, length))
    section = add_noise(section, config, prng)
    return section, mask


def generate_dataset(config):
    """All patches from `config.sections` sections, in section order."""
    config.validate()
    master = Prng(config.seed)
    samples = []
    for i in range(config.sections):
        section, mask = generate_section(config, master.derive(i))
        samples.extend(extract_patches(section, mask, config.stride))
    return samples


def write_dataset(samples, directory, config=None):
    """Persist samples as images.f32 and masks.u8, each written patch by
    patch, then manifest.json; `read_dataset` gives the layout."""
    os.makedirs(directory, exist_ok=True)
    for field, (name, dtype) in _DATASET_FILES.items():
        with open(os.path.join(directory, name), "wb") as fh:
            for sample in samples:
                fh.write(np.ascontiguousarray(getattr(sample, field), dtype).tobytes())
    manifest = {"version": DATASET_VERSION, "count": len(samples), "patch": PATCH,
                "config": asdict(config) if config is not None else None}
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _read_patches(directory, field, count, kept, what, ok):
    """The first `kept` patches, as a (kept, PATCH, PATCH) array, of the file
    holding `field`, whose size is checked against `count` before anything
    is allocated; the first kept patch not `ok` is named."""
    name, dtype = _DATASET_FILES[field]
    path = os.path.join(directory, name)
    if not os.path.isfile(path):
        raise FormatError("%s: missing" % path)
    expected = count * PATCH * PATCH * np.dtype(dtype).itemsize
    if os.path.getsize(path) != expected:
        raise FormatError("%s: %d bytes, expected %d for %d patches"
                          % (path, os.path.getsize(path), expected, count))
    patches = np.fromfile(path, dtype, count=kept * PATCH * PATCH)
    patches = patches.reshape(kept, PATCH, PATCH)
    bad = ~ok(patches)
    if bad.any():
        raise FormatError("%s: patch %d has %s" % (path, np.argmax(bad), what))
    return patches


def read_dataset(directory, limit=None):
    """Load a dataset directory back into samples plus its manifest.

    The samples are rows of the (count, PATCH, PATCH) arrays in images.f32
    (little-endian float32) and masks.u8 (bytes 0 or 1). With `limit`, only
    the first `limit` patches are read and checked; each file's size must
    still match the manifest's count. Another format version is rejected:
    `seishet gen` with its config rewrites the patches.
    """
    if limit is not None and (not _is_int(limit) or limit < 1):
        raise ConfigError("limit must be an integer of at least 1, got %r" % (limit,))
    man_path = os.path.join(directory, "manifest.json")
    if not os.path.isfile(man_path):
        raise FormatError("%s: no manifest.json" % directory)
    try:
        with open(man_path, "rb") as fh:
            manifest = json.loads(fh.read())
    except ValueError as exc:  # also bad UTF-8 and over-long integers
        raise FormatError("%s: malformed manifest: %s" % (man_path, exc))
    if not isinstance(manifest, dict):
        raise FormatError("%s: manifest is not a JSON object" % man_path)
    version = manifest.get("version")
    if not _is_int(version) or version != DATASET_VERSION:
        raise FormatError("%s: dataset format version %r, not %d; run `seishet gen`"
                          " again to rewrite it" % (man_path, version, DATASET_VERSION))
    count = manifest.get("count")
    patch = manifest.get("patch", PATCH)
    if not _is_int(count) or count < 0:
        raise FormatError("%s: missing or invalid count" % man_path)
    if not _is_int(patch) or patch != PATCH:
        raise FormatError("%s: patch %r, the network takes %d"
                          % (man_path, patch, PATCH))
    if count == 0:
        raise DataError("%s: dataset is empty" % directory)
    kept = count if limit is None else min(limit, count)
    # per-patch extremes make no per-pixel flags, and a NaN carries through them
    images = _read_patches(directory, "image", count, kept, "non-finite pixel values",
                           lambda p: np.isfinite(p.min(axis=(1, 2)))
                           & np.isfinite(p.max(axis=(1, 2))))
    masks = _read_patches(directory, "mask", count, kept,
                          "mask bytes other than 0 or 1",
                          lambda p: p.max(axis=(1, 2)) <= 1)
    return [Sample(image, mask) for image, mask in zip(images, masks)], manifest
