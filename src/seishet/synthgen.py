"""Synthetic seismic sections with ground-truth heterogeneity masks.

A section starts as a horizontally layered reflectivity model, then gets
deformed in order: sinusoidal folding, linear shearing, and a few discrete
faults that vertically offset one side of a dipping line. The faulted
reflectivity is convolved per trace with a Ricker wavelet, Gaussian noise
is added, and the section is cut into overlapping 44x44 patches normalized
to [-1, 1]. The mask marks the rasterized (and dilated) fault lines.

All randomness flows through one master seed: section i uses the derived
stream Prng(seed).derive(i), so any section is reproducible in isolation
and the whole corpus is bit-stable.
"""

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np
from scipy.ndimage import binary_dilation

from .errors import ConfigError, DataError, DimensionError, FormatError
from .numcore import Prng
from .pgm import read_pgm, write_pgm

PATCH = 44
STRIDE = 22

DATASET_VERSION = 1


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
    patch: int = PATCH
    stride: int = STRIDE
    seed: int = 0

    def validate(self):
        if self.height < self.patch or self.width < self.patch:
            raise ConfigError(
                "section %dx%d is smaller than the %d patch"
                % (self.height, self.width, self.patch)
            )
        if self.sections < 1:
            raise ConfigError("need at least one section")
        if self.patch < 1 or self.stride < 1:
            raise ConfigError("patch and stride must be positive")
        if self.mask_dilation < 0:
            raise ConfigError("mask dilation must be nonnegative")
        for name in ("thickness", "fold_amplitude", "fold_wavelength", "shear",
                     "faults", "dip_degrees", "throw", "wavelet_period", "noise"):
            lo, hi = getattr(self, name)
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
        if self.wavelet_period[0] <= 0:
            raise ConfigError("wavelet period must be positive")
        if self.noise[0] < 0:
            raise ConfigError("noise fraction cannot be negative")
        return self


@dataclass
class Sample:
    """One training unit: normalized amplitude patch plus binary mask."""
    image: np.ndarray  # float32 (patch, patch) in [-1, 1]
    mask: np.ndarray   # uint8 (patch, patch) of {0, 1}


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
        line_x = x0 + (ys - h / 2.0) * direction / math.tan(dip)
        side = np.arange(w)[None, :] > line_x[:, None]
        out = np.where(side, _integer_shift_down(out, throw), out)
        mask = np.where(side, _integer_shift_down(mask, throw), mask)
        cols = np.rint(line_x).astype(np.int64)
        rows_in = (cols >= 0) & (cols < w)
        mask[np.arange(h)[rows_in], cols[rows_in]] = True
    if config.mask_dilation > 0 and mask.any():
        size = 2 * config.mask_dilation + 1
        mask = binary_dilation(mask, structure=np.ones((size, size), dtype=bool))
    return out, mask.astype(np.uint8)


def ricker(peak_period, length):
    """Zero-phase Ricker wavelet (1 - 2 a) e^{-a}, a = (pi t / T)^2."""
    length = int(length)
    if length % 2 == 0:
        raise DimensionError("ricker length must be odd, got %d" % length)
    if peak_period <= 0:
        raise ConfigError("ricker peak period must be positive")
    t = np.arange(length, dtype=np.float64) - length // 2
    a = (math.pi * t / peak_period) ** 2
    return (1.0 - 2.0 * a) * np.exp(-a)


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


def normalize_patch(patch):
    """Min-max map to [-1, 1]; a constant patch becomes all zeros."""
    lo = float(patch.min())
    hi = float(patch.max())
    if hi <= lo:
        return np.zeros(patch.shape, dtype=np.float32)
    return (2.0 * (patch - lo) / (hi - lo) - 1.0).astype(np.float32)


def extract_patches(section, mask, patch=PATCH, stride=STRIDE):
    """Sliding-window samples; images normalized, masks cropped untouched."""
    h, w = section.shape
    if mask.shape != section.shape:
        raise DimensionError(
            "mask %s does not match section %s" % (mask.shape, section.shape)
        )
    if h < patch or w < patch:
        raise DimensionError(
            "section %dx%d is smaller than patch %d" % (h, w, patch)
        )
    out = []
    for y in range(0, h - patch + 1, stride):
        for x in range(0, w - patch + 1, stride):
            img = normalize_patch(section[y:y + patch, x:x + patch])
            msk = (mask[y:y + patch, x:x + patch] > 0).astype(np.uint8)
            out.append(Sample(img, msk))
    return out


def generate_section(config, prng):
    """Run the full pipeline for one section, pre-patching."""
    section = generate_reflectivity(config, prng)
    section = apply_fold(section, config, prng)
    section = apply_shear(section, config, prng)
    section, mask = apply_faults(section, config, prng)
    period = prng.uniform(*config.wavelet_period)
    length = 2 * math.ceil(1.5 * period) + 1
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
        samples.extend(extract_patches(section, mask, config.patch, config.stride))
    return samples


def _config_to_json(config):
    d = asdict(config)
    return {k: list(v) if isinstance(v, tuple) else v for k, v in d.items()}


def write_dataset(samples, directory, config=None):
    """Persist samples as raw float32 images plus PGM masks and a manifest."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "version": DATASET_VERSION,
        "count": len(samples),
        "patch": int(samples[0].image.shape[0]) if samples else PATCH,
        "config": _config_to_json(config) if config is not None else None,
    }
    for i, sample in enumerate(samples):
        img_path = os.path.join(directory, "img_%06d.f32" % i)
        with open(img_path, "wb") as fh:
            fh.write(np.ascontiguousarray(sample.image, dtype="<f4").tobytes())
        write_pgm(
            os.path.join(directory, "msk_%06d.pgm" % i),
            (sample.mask.astype(np.uint16) * 255).astype(np.uint8),
        )
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def read_dataset(directory):
    """Load a dataset directory back into samples plus its manifest."""
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
    count = manifest.get("count")
    patch = manifest.get("patch", PATCH)
    if not _is_int(count) or count < 0:
        raise FormatError("%s: missing or invalid count" % man_path)
    if not _is_int(patch) or patch < 1:
        raise FormatError("%s: invalid patch %r, expected an integer >= 1"
                          % (man_path, patch))
    if count == 0:
        raise DataError("%s: dataset is empty" % directory)
    samples = []
    for i in range(count):
        img_path = os.path.join(directory, "img_%06d.f32" % i)
        msk_path = os.path.join(directory, "msk_%06d.pgm" % i)
        for path in (img_path, msk_path):
            if not os.path.isfile(path):
                raise FormatError("%s: missing" % path)
        with open(img_path, "rb") as fh:
            raw = fh.read()
        if len(raw) != 4 * patch * patch:
            raise FormatError(
                "%s: %d bytes, expected %d" % (img_path, len(raw), 4 * patch * patch)
            )
        img = np.frombuffer(raw, dtype="<f4").reshape(patch, patch).copy()
        if not np.isfinite(img).all():
            raise FormatError("%s: non-finite pixel values" % img_path)
        msk = read_pgm(msk_path)
        if msk.shape != (patch, patch):
            raise FormatError(
                "%s: mask is %s, expected %s" % (msk_path, msk.shape, (patch, patch))
            )
        bad = ~np.isin(msk, (0, 255))
        if bad.any():
            raise FormatError("%s: mask bytes must be 0 or 255" % msk_path)
        samples.append(Sample(img, (msk > 0).astype(np.uint8)))
    return samples, manifest
