"""Command line interface: gen, train, finetune, predict, eval, info.

Exit codes: 0 success, 1 runtime failure (reported as a single
``seishet: error: ...`` line on stderr), 2 flag/usage errors (argparse).
Every subcommand takes ``--seed``; when absent the SEISHET_SEED
environment variable is used, then 0.
"""

import argparse
import os
import sys
import warnings

import numpy as np

from .errors import ConfigError, FormatError, SeishetError
from .metrics import evaluate, format_table, report_from_counts, to_json
from .model import (
    FLOP_CONVENTION,
    MAX_ATTENTION_SIZE,
    NetConfig,
    PATCH,
    REFERENCE_KFLOPS,
    REFERENCE_PARAM_COUNT,
    build_network,
    count_params_flops,
    flops_table,
    load_checkpoint,
    parameter_table,
    save_checkpoint,
)
from .numcore import Prng
from .pgm import read_pgm, read_pgm_with_maxval
from .segy import (
    REAL_PATCH_SRC,
    REAL_PATCH_STRIDE,
    export_map,
    open_volume,
    read_raw_section,
    read_section,
    tile_predict,
)
from .synthgen import (
    STRIDE,
    SyntheticConfig,
    generate_dataset,
    read_dataset,
    window_corners,
    write_dataset,
)
from .train import TrainConfig, finetune, split_dataset, train

ATTENTION_CHOICES = {"se": "se", "self": "self_attention"}


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _attention_size(text):
    value = _positive_int(text)
    if value > MAX_ATTENTION_SIZE:
        raise argparse.ArgumentTypeError(
            "must be at most %d, got %d" % (MAX_ATTENTION_SIZE, value))
    return value


def _nonneg_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % value)
    return value


def _number(text):
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not a number" % text)


def _fraction(text):
    value = _number(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError("must lie in (0, 1), got %s" % text)
    return value


def _threshold(text):
    value = _number(text)
    if not 0.0 <= value <= 1.0:  # also false for nan
        raise argparse.ArgumentTypeError("must lie in [0, 1], got %s" % text)
    return value


def _resolve_seed(value):
    if value is not None:
        return value
    env = os.environ.get("SEISHET_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError("SEISHET_SEED must be an integer, got %r" % env)
    return 0


def cmd_gen(args):
    seed = _resolve_seed(args.seed)
    config = SyntheticConfig(
        height=args.height,
        width=args.width,
        sections=args.count,
        thickness=tuple(args.thickness),
        fold_amplitude=tuple(args.fold_amplitude),
        fold_wavelength=tuple(args.fold_wavelength),
        shear=tuple(args.shear),
        faults=tuple(args.faults),
        dip_degrees=tuple(args.dip),
        throw=tuple(args.throw),
        wavelet_period=tuple(args.wavelet_period),
        noise=tuple(args.noise),
        mask_dilation=args.mask_dilation,
        stride=args.stride,
        seed=seed,
    )
    samples = generate_dataset(config)
    write_dataset(samples, args.out, config)
    print(
        "wrote %d samples from %d sections (seed %d) to %s"
        % (len(samples), config.sections, seed, args.out)
    )
    return 0


def _load_samples(path, limit):
    samples, _ = read_dataset(path)
    if limit is not None:
        samples = samples[:limit]
    return samples


def _fit(fit, model, samples, args, master, heldout=None, **fields):
    """Run `fit` (train or finetune) under the flags both commands share.

    The epoch shuffle seed is master.derive(2); `fields` are the other
    TrainConfig values. Each epoch line is printed and, with --log, written
    to that file; the checkpoint is saved to --out. Returns fit's (model,
    list of EpochStats).
    """
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
        shuffle_seed=master.derive(2).seed,
        pos_weight=args.pos_weight,
        **fields,
    )
    lines = []

    def on_epoch(stats):
        lines.append(stats.format_line())
        print(lines[-1])

    model, stats = fit(model, samples, config, heldout=heldout, on_epoch=on_epoch)
    if args.log:
        with open(args.log, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
    save_checkpoint(model, args.out)
    return model, stats


def cmd_train(args):
    samples = _load_samples(args.data, args.count_limit)
    master = Prng(_resolve_seed(args.seed))
    train_set, test_set = split_dataset(samples, args.split, master.derive(1).seed)
    variant = ATTENTION_CHOICES[args.attention]
    net_config = NetConfig(
        se_ratio=args.se_ratio, heads=args.heads, d_k=args.dk, d_v=args.dv
    )
    model = build_network(variant, master.derive(0), net_config)
    _, stats = _fit(train, model, train_set, args, master, heldout=test_set)
    # the final epoch has just scored this model on the held-out set
    print("held-out metrics:")
    print(format_table(report_from_counts(stats[-1].counts)))
    print("checkpoint written to %s" % args.out)
    return 0


def cmd_finetune(args):
    model = load_checkpoint(args.ckpt)
    if args.attention is not None:
        wanted = ATTENTION_CHOICES[args.attention]
        if wanted != model.variant:
            raise ConfigError(
                "checkpoint variant %r does not match --attention %s"
                % (model.variant, args.attention)
            )
    samples = _load_samples(args.data, args.count_limit)
    model, _ = _fit(finetune, model, samples, args, Prng(_resolve_seed(args.seed)),
                    freeze_prefix=args.freeze_prefix)
    frozen = [name for name, flag in model.freeze.items() if flag]
    if frozen:
        print("frozen parameters (%d): %s" % (len(frozen), ", ".join(frozen)))
    else:
        print("frozen parameters: none")
    print("checkpoint written to %s" % args.out)
    return 0


def cmd_predict(args):
    model = load_checkpoint(args.ckpt)
    if args.segy is not None:
        if args.line is None:
            raise ConfigError("--segy requires --line")
        volume = open_volume(args.segy, args.inline_byte, args.crossline_byte)
        section = read_section(volume, args.axis, args.line).amplitudes
    else:
        if args.height is None or args.width is None:
            raise ConfigError("--raw requires --height and --width")
        section = read_raw_section(args.raw, args.height, args.width)
    prob_map = tile_predict(model, section, stride=args.stride, batch_size=args.batch)
    export_map(prob_map, args.out, args.format)
    print(
        "wrote %s confidence map %dx%d to %s"
        % (args.format, prob_map.shape[0], prob_map.shape[1], args.out)
    )
    corners = window_corners(*prob_map.shape, REAL_PATCH_SRC, args.stride)
    covered = np.zeros(prob_map.shape, dtype=bool)
    for y, x in corners:
        covered[y:y + REAL_PATCH_SRC, x:x + REAL_PATCH_SRC] = True
    print("%d windows cover %d of %d pixels"
          % (len(corners), covered.sum(), covered.size))
    return 0


def _load_map(path):
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


def cmd_eval(args):
    pred = (_load_map(args.pred) >= args.threshold).astype(np.uint8)
    truth = (read_pgm(args.truth) > 0).astype(np.uint8)
    report = evaluate(pred, truth)
    print(format_table(report))
    print(to_json(report))
    return 0


def cmd_info(args):
    model = load_checkpoint(args.ckpt)
    cfg = model.config
    print("variant: %s" % model.variant)
    print(
        "attention config: se_ratio=%d heads=%d d_k=%d d_v=%d"
        % (cfg.se_ratio, cfg.heads, cfg.d_k, cfg.d_v)
    )
    print("%-28s %-22s %10s  %s" % ("parameter", "shape", "size", "frozen"))
    for name, shape, size, frozen in parameter_table(model):
        print(
            "%-28s %-22s %10d  %s"
            % (name, "x".join(str(d) for d in shape), size, "yes" if frozen else "no")
        )
    total_params, total_flops = count_params_flops(model)
    print("total trainable parameters: %d" % total_params)
    print("per-layer flops (one %dx%d patch):" % (PATCH, PATCH))
    for lname, pcount, fl in flops_table(model):
        print("  %-14s %12d" % (lname, fl))
    print("total flops: %d (%.3f kflops)" % (total_flops, total_flops / 1000.0))
    print("flop convention: %s" % FLOP_CONVENTION)
    print(
        "reference figures for the original configuration: %d parameters,"
        " %.3f kflops; this build differs because the attention"
        " hyperparameters and the upsampling chain are configuration"
        " choices documented in the table above"
        % (REFERENCE_PARAM_COUNT, REFERENCE_KFLOPS)
    )
    if args.diff:
        other = load_checkpoint(args.diff)
        if other.variant != model.variant:
            print("variants differ: %s vs %s" % (model.variant, other.variant))
            return 0
        mine = model.named_parameters()
        theirs = other.named_parameters()
        n_diff = 0
        for name, arr in mine.items():
            same = name in theirs and np.array_equal(arr, theirs[name])
            if same:
                print("equal %s" % name)
            else:
                n_diff += 1
                print("differs %s" % name)
        if n_diff == 0:
            print("all tensors equal")
        else:
            print("%d of %d tensors differ" % (n_diff, len(mine)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="seishet",
        description="seismic structural-heterogeneity detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic patch dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--count", type=_positive_int, default=4000,
                   help="number of sections to synthesize")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--height", type=_positive_int, default=128)
    p.add_argument("--width", type=_positive_int, default=128)
    p.add_argument("--thickness", nargs=2, type=int, default=[5, 20],
                   metavar=("MIN", "MAX"), help="layer thickness range, samples")
    p.add_argument("--fold-amplitude", nargs=2, type=float, default=[0.0, 10.0],
                   metavar=("MIN", "MAX"))
    p.add_argument("--fold-wavelength", nargs=2, type=float, default=[32.0, 128.0],
                   metavar=("MIN", "MAX"))
    p.add_argument("--shear", nargs=2, type=float, default=[-0.2, 0.2],
                   metavar=("MIN", "MAX"), help="shear slope range")
    p.add_argument("--faults", nargs=2, type=int, default=[1, 3],
                   metavar=("MIN", "MAX"), help="faults per section")
    p.add_argument("--dip", nargs=2, type=float, default=[50.0, 85.0],
                   metavar=("MIN", "MAX"), help="fault dip range, degrees")
    p.add_argument("--throw", nargs=2, type=int, default=[3, 15],
                   metavar=("MIN", "MAX"), help="fault throw range, samples")
    p.add_argument("--wavelet-period", nargs=2, type=float, default=[12.0, 25.0],
                   metavar=("MIN", "MAX"), help="wavelet peak period, samples")
    p.add_argument("--noise", nargs=2, type=float, default=[0.0, 0.10],
                   metavar=("MIN", "MAX"), help="noise sigma as fraction of rms")
    p.add_argument("--mask-dilation", type=_nonneg_int, default=1)
    p.add_argument("--stride", type=_positive_int, default=STRIDE)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model on a patch dataset")
    p.add_argument("--data", required=True, help="dataset directory from gen")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--attention", choices=sorted(ATTENTION_CHOICES),
                   default="self")
    p.add_argument("--epochs", type=_positive_int, default=200)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch", type=_positive_int, default=32)
    p.add_argument("--split", type=_fraction, default=0.8,
                   help="training fraction of the data")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count-limit", type=_positive_int, default=None,
                   help="use only the first N samples")
    p.add_argument("--log", default=None, help="write per-epoch lines here")
    p.add_argument("--se-ratio", type=_attention_size, default=4)
    p.add_argument("--heads", type=_attention_size, default=4)
    p.add_argument("--dk", type=_attention_size, default=32)
    p.add_argument("--dv", type=_attention_size, default=32)
    p.add_argument("--pos-weight", type=float, default=None,
                   help="optional loss weight for heterogeneity pixels")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="transfer-train a checkpoint")
    p.add_argument("--ckpt", required=True, help="base checkpoint")
    p.add_argument("--data", required=True, help="patch dataset directory")
    p.add_argument("--out", required=True, help="fine-tuned checkpoint path")
    p.add_argument("--attention", choices=sorted(ATTENTION_CHOICES), default=None,
                   help="assert the checkpoint's variant")
    p.add_argument("--epochs", type=_positive_int, default=30)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch", type=_positive_int, default=32)
    p.add_argument("--freeze-prefix", type=_nonneg_int, default=2,
                   help="number of leading layers to freeze, 0-10, counting"
                        " the six convs, attention, up1, up2 and head")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count-limit", type=_positive_int, default=None)
    p.add_argument("--log", default=None)
    p.add_argument("--pos-weight", type=float, default=None)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("predict", help="tile a trained model over a section")
    p.add_argument("--ckpt", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--segy", help="SEG-Y volume path")
    src.add_argument("--raw", help="raw float32 section dump")
    p.add_argument("--axis", choices=("inline", "crossline"), default="inline")
    p.add_argument("--line", type=int, default=None, help="line number (with --segy)")
    p.add_argument("--height", type=_positive_int, default=None,
                   help="rows of the raw section (with --raw)")
    p.add_argument("--width", type=_positive_int, default=None,
                   help="columns of the raw section (with --raw)")
    p.add_argument("--inline-byte", type=_positive_int, default=189)
    p.add_argument("--crossline-byte", type=_positive_int, default=193)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("pgm", "csv"), default="pgm")
    p.add_argument("--stride", type=_positive_int, default=REAL_PATCH_STRIDE)
    p.add_argument("--batch", type=_positive_int, default=64)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a confidence map against a mask")
    p.add_argument("--pred", required=True, help="PGM or CSV confidence map")
    p.add_argument("--truth", required=True, help="PGM ground-truth mask")
    p.add_argument("--threshold", type=_threshold, default=0.5,
                   help="confidence at or above which a pixel is positive")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("info", help="describe a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--diff", default=None, help="second checkpoint to compare")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SeishetError as exc:
        print("seishet: error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("seishet: error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
