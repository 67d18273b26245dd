"""PGM, checkpoint and dataset-directory parsers under damaged bytes.

Each property test flips, truncates and extends the bytes of a valid file
and allows only two outcomes: a clean load of well-formed values, or a
SeishetError. The SEG-Y reader has the same test in test_segy.py.
"""

import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seishet.errors import FormatError, SeishetError
from seishet.model import build_network, load_checkpoint, save_checkpoint
from seishet.numcore import Prng
from seishet.pgm import read_pgm, write_pgm
from seishet.synthgen import (
    SyntheticConfig,
    generate_dataset,
    read_dataset,
    write_dataset,
)

_FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# Byte values that make zeros, sign flips, NaN/inf exponents and huge words.
_BYTE = st.one_of(st.sampled_from([0, 1, 0x7F, 0x80, 0xFF]), st.integers(0, 255))


# How a damaged file ends: as written, cut at a fraction of its length,
# or with extra bytes appended.
_END = st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True),
                 st.binary(min_size=1, max_size=64))


def _damage(data, flips, end):
    """Set data[pos % len] = value for each flip, then apply `end`."""
    data = bytearray(data)
    for pos, value in flips:
        data[pos % len(data)] = value
    if isinstance(end, float):
        del data[int(end * len(data)):]
    elif end is not None:
        data += end
    return bytes(data)


# ---------------------------------------------------------------- PGM

def test_read_pgm_rejects_pixels_above_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n3 1\n1\n\x00\x01\x02")
    with pytest.raises(FormatError, match="maxval 1"):
        read_pgm(path)
    path.write_bytes(b"P5\n3 1\n2\n\x00\x01\x02")
    assert read_pgm(path).tolist() == [[0, 1, 2]]


@pytest.fixture(scope="module")
def pgm_base(tmp_path_factory):
    path = tmp_path_factory.mktemp("pgm") / "base.pgm"
    write_pgm(path, (np.arange(35).reshape(5, 7) * 7).astype(np.uint8))
    data = path.read_bytes()
    # A comment and a smaller maxval exercise more of the header grammar.
    return data.replace(b"P5\n", b"P5\n# fuzz\n", 1).replace(b"\n255\n", b"\n250\n", 1)


@_FUZZ
@given(flips=st.lists(st.tuples(st.one_of(st.integers(0, 20), st.integers()), _BYTE),
                      max_size=6),
       end=_END)
def test_pgm_parser_fuzz_raises_only_seishet_errors(tmp_path_factory, pgm_base,
                                                    flips, end):
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(_damage(pgm_base, flips, end))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            img = read_pgm(path)
        except SeishetError:
            return
    assert img.dtype == np.uint8 and img.ndim == 2 and img.size > 0


# ---------------------------------------------------------------- checkpoint

@pytest.fixture(scope="module")
def ckpt_bases(tmp_path_factory):
    base = tmp_path_factory.mktemp("ckpt")
    out = {}
    for variant in ("se", "self_attention"):
        model = build_network(variant, Prng(90))
        model.set_freeze_prefix(2)
        path = base / (variant + ".ckpt")
        save_checkpoint(model, str(path))
        out[variant] = path.read_bytes()
    return out


@_FUZZ
@given(
    variant=st.sampled_from(["se", "self_attention"]),
    # in the header and first record, in the freeze table at the end, or
    # anywhere
    flips=st.lists(st.tuples(st.one_of(st.integers(0, 80), st.integers(-400, -1),
                                       st.integers()), _BYTE), max_size=4),
    # one whole little-endian word at the version, a hyperparameter, the
    # first name length, rank, dims or values, or anywhere
    word=st.one_of(st.none(), st.tuples(
        st.one_of(st.sampled_from([8, 13, 17, 21, 25, 29, 52, 56, 72, 76]),
                  st.integers(0, 10 ** 6)),
        st.one_of(st.sampled_from([0, 0x7FC00000, 0x7F800000, 0xFF800000,
                                   0x40000020]), st.integers(0, 2 ** 32 - 1)))),
    end=_END,
)
def test_checkpoint_parser_fuzz_raises_only_seishet_errors(
        tmp_path_factory, ckpt_bases, variant, flips, word, end):
    base = ckpt_bases[variant]
    if word is not None:
        pos, value = word
        pos %= len(base) - 3
        flips = flips + [(pos + i, value >> (8 * i) & 0xFF) for i in range(4)]
    data = _damage(base, flips, end)
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = load_checkpoint(str(path))
        except SeishetError:
            return
    for arr in model.named_parameters().values():
        assert arr.dtype == np.float32 and np.isfinite(arr).all()
    assert set(model.freeze) == set(model.named_parameters())
    assert all(isinstance(flag, bool) for flag in model.freeze.values())


# ---------------------------------------------------------------- dataset

_DATASET_FILES = ("manifest.json", "img_000000.f32", "msk_000001.pgm")


@pytest.fixture(scope="module")
def dataset_base(tmp_path_factory):
    cfg = SyntheticConfig(height=44, width=44, sections=2, seed=91)
    d = tmp_path_factory.mktemp("dataset") / "base"
    write_dataset(generate_dataset(cfg), str(d), cfg)
    return d


@_FUZZ
@given(target=st.sampled_from(_DATASET_FILES),
       flips=st.lists(st.tuples(st.integers(), _BYTE), max_size=6),
       end=_END)
def test_dataset_reader_fuzz_raises_only_seishet_errors(
        tmp_path_factory, dataset_base, target, flips, end):
    d = tmp_path_factory.getbasetemp() / "fuzz_ds"
    shutil.rmtree(d, ignore_errors=True)
    shutil.copytree(dataset_base, d)
    path = d / target
    path.write_bytes(_damage(path.read_bytes(), flips, end))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            samples, manifest = read_dataset(str(d))
        except SeishetError:
            return
    assert isinstance(manifest, dict) and len(samples) == manifest["count"]
    for s in samples:
        assert s.image.dtype == np.float32 and np.isfinite(s.image).all()
        assert s.image.shape == s.mask.shape == (manifest["patch"],) * 2
        assert set(np.unique(s.mask)) <= {0, 1}
