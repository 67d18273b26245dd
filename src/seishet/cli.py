"""Command line interface: gen, train, finetune, predict, eval, info.

Exit codes: 0 success; 2 when argparse cannot parse the command line (an
unknown or missing flag, a token that is not a number or not a choice);
1 when a parsed value is rejected or the run fails, told in one
``seishet: error: ...`` line on stderr. This module only parses flags: a
flag that sets a library value has no default or range check here, since
the library supplies the one and makes the other, and every file is read
by the library. gen, train and finetune take ``--seed``; when absent the
SEISHET_SEED environment variable is used, then 0.
"""

import argparse
import functools
import inspect
import os
import re
import sys
from dataclasses import replace

import numpy as np

from .errors import ConfigError, SeishetError
from .metrics import evaluate, format_table, report_from_counts, to_json
from .model import (
    FLOP_CONVENTION,
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
from .pgm import read_pgm
from .segy import (
    export_map,
    open_volume,
    read_map,
    read_raw_section,
    read_section,
    tile_predict,
    window_hits,
)
from .synthgen import (
    SyntheticConfig,
    generate_dataset,
    read_dataset,
    write_dataset,
)
from .train import FINETUNE_RECIPE, TrainConfig, finetune, split_dataset, train

ATTENTION_CHOICES = {"se": "se", "self": "self_attention"}

# A token argparse reads as a negative number, not as a flag. Its own
# matcher misses exponent forms such as -1e-3; no flag here looks like one.
_NEGATIVE_NUMBER = re.compile(r"^-\d*\.?\d+(e[-+]?\d+)?$", re.I)


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


def _given(args, target):
    """The flags given that set an optional parameter of `target`, a
    function or a config class, by name; two-number ranges become tuples.

    A flag's dest is the name of the value it sets, and an omitted flag is
    absent from args. --seed, resolved on its own, is left out, and so is a
    parameter with no default, such as the data a function is handed.
    """
    names = {name for name, param in inspect.signature(target).parameters.items()
             if param.default is not param.empty}
    return {name: tuple(value) if isinstance(value, list) else value
            for name, value in vars(args).items()
            if name in names and name != "seed"}


def cmd_gen(args):
    seed = _resolve_seed(args.seed)
    config = SyntheticConfig(seed=seed, **_given(args, SyntheticConfig))
    samples = generate_dataset(config)
    write_dataset(samples, args.out, config)
    print(
        "wrote %d samples from %d sections (seed %d) to %s"
        % (len(samples), config.sections, seed, args.out)
    )
    return 0


def _fit(fit, base, model, samples, args, master, heldout=None):
    """Run `fit` (train or finetune) from the TrainConfig `base`.

    The TrainConfig flags given replace base's values, and the epoch
    shuffle seed is master.derive(2). Each epoch line is printed and, with
    --log, written to that file; the checkpoint is saved to --out. Returns
    fit's (model, list of EpochStats).
    """
    config = replace(base, shuffle_seed=master.derive(2).seed,
                     **_given(args, TrainConfig))
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
    samples = read_dataset(args.data, **_given(args, read_dataset))[0]
    master = Prng(_resolve_seed(args.seed))
    train_set, test_set = split_dataset(samples, seed=master.derive(1).seed,
                                        **_given(args, split_dataset))
    model = build_network(ATTENTION_CHOICES[args.attention], master.derive(0),
                          NetConfig(**_given(args, NetConfig)))
    _, stats = _fit(train, TrainConfig(), model, train_set, args, master,
                    heldout=test_set)
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
    samples = read_dataset(args.data, **_given(args, read_dataset))[0]
    model, _ = _fit(finetune, FINETUNE_RECIPE, model, samples, args,
                    Prng(_resolve_seed(args.seed)))
    frozen = [name for name, flag in model.freeze.items() if flag]
    if frozen:
        print("frozen parameters (%d): %s" % (len(frozen), ", ".join(frozen)))
    else:
        print("frozen parameters: none")
    print("checkpoint written to %s" % args.out)
    return 0


def cmd_predict(args):
    model = load_checkpoint(args.ckpt)
    if "segy" in args:
        if args.line is None:
            raise ConfigError("--segy requires --line")
        volume = open_volume(args.segy, **_given(args, open_volume))
        section = read_section(volume, args.axis, args.line).amplitudes
    else:
        if args.height is None or args.width is None:
            raise ConfigError("--raw requires --height and --width")
        section = read_raw_section(args.raw, args.height, args.width)
    prob_map = tile_predict(model, section, **_given(args, tile_predict))
    export_map(prob_map, args.out, args.format)
    print(
        "wrote %s confidence map %dx%d to %s"
        % (args.format, prob_map.shape[0], prob_map.shape[1], args.out)
    )
    _, corners, hits = window_hits(section, **_given(args, window_hits))
    print("%d windows cover %d of %d pixels"
          % (len(corners), np.count_nonzero(hits), hits.size))
    return 0


def cmd_eval(args):
    pred = read_map(args.pred)
    truth = (read_pgm(args.truth) > 0).astype(np.uint8)
    report = evaluate(pred, truth, **_given(args, evaluate))
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
    # an omitted flag with no default here is left out of the namespace
    command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = command("gen", help="generate a synthetic patch dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--count", type=int, dest="sections", metavar="COUNT",
                   help="number of sections to synthesize")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--thickness", nargs=2, type=int,
                   metavar=("MIN", "MAX"), help="layer thickness range, samples")
    p.add_argument("--fold-amplitude", nargs=2, type=float, metavar=("MIN", "MAX"))
    p.add_argument("--fold-wavelength", nargs=2, type=float, metavar=("MIN", "MAX"))
    p.add_argument("--shear", nargs=2, type=float,
                   metavar=("MIN", "MAX"), help="shear slope range")
    p.add_argument("--faults", nargs=2, type=int,
                   metavar=("MIN", "MAX"), help="faults per section")
    p.add_argument("--dip", nargs=2, type=float, dest="dip_degrees",
                   metavar=("MIN", "MAX"), help="fault dip range, degrees")
    p.add_argument("--throw", nargs=2, type=int,
                   metavar=("MIN", "MAX"), help="fault throw range, samples")
    p.add_argument("--wavelet-period", nargs=2, type=float,
                   metavar=("MIN", "MAX"), help="wavelet peak period, samples")
    p.add_argument("--noise", nargs=2, type=float,
                   metavar=("MIN", "MAX"), help="noise sigma as fraction of rms")
    p.add_argument("--mask-dilation", type=int)
    p.add_argument("--stride", type=int)
    p.set_defaults(func=cmd_gen)

    # train's and finetune's shared flags, taken in place (parents= lists them first)
    fit = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    fit.add_argument("--epochs", type=int)
    fit.add_argument("--lr", type=float, dest="learning_rate", metavar="LR")
    fit.add_argument("--batch", type=int, dest="batch_size", metavar="BATCH")
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--count-limit", type=int, dest="limit", metavar="COUNT_LIMIT",
                     help="use only the first N samples")
    fit.add_argument("--log", default=None, help="write per-epoch lines here")
    fit.add_argument("--pos-weight", type=float,
                     help="optional loss weight for heterogeneity pixels")

    def take(p, *flags):
        for flag in flags:
            p._add_action(fit._option_string_actions[flag])

    p = command("train", help="train a model on a patch dataset")
    p.add_argument("--data", required=True, help="dataset directory from gen")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--attention", choices=sorted(ATTENTION_CHOICES),
                   default="self")
    take(p, "--epochs", "--lr", "--batch")
    p.add_argument("--split", type=float, dest="fraction", metavar="SPLIT",
                   help="training fraction of the data")
    take(p, "--seed", "--count-limit", "--log")
    p.add_argument("--se-ratio", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--dk", type=int, dest="d_k", metavar="DK")
    p.add_argument("--dv", type=int, dest="d_v", metavar="DV")
    take(p, "--pos-weight")
    p.set_defaults(func=cmd_train)

    p = command("finetune", help="transfer-train a checkpoint")
    p.add_argument("--ckpt", required=True, help="base checkpoint")
    p.add_argument("--data", required=True, help="patch dataset directory")
    p.add_argument("--out", required=True, help="fine-tuned checkpoint path")
    p.add_argument("--attention", choices=sorted(ATTENTION_CHOICES), default=None,
                   help="assert the checkpoint's variant")
    take(p, "--epochs", "--lr", "--batch")
    p.add_argument("--freeze-prefix", type=int,
                   help="number of leading layers to freeze, 0-10, counting"
                        " the six convs, attention, up1, up2 and head")
    take(p, "--seed", "--count-limit", "--log", "--pos-weight")
    p.set_defaults(func=cmd_finetune)

    p = command("predict", help="tile a trained model over a section")
    p.add_argument("--ckpt", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--segy", help="SEG-Y volume path")
    src.add_argument("--raw", help="raw float32 section dump")
    p.add_argument("--axis", choices=("inline", "crossline"), default="inline")
    p.add_argument("--line", type=int, default=None, help="line number (with --segy)")
    p.add_argument("--height", type=int, default=None,
                   help="rows of the raw section (with --raw)")
    p.add_argument("--width", type=int, default=None,
                   help="columns of the raw section (with --raw)")
    p.add_argument("--inline-byte", type=int)
    p.add_argument("--crossline-byte", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("pgm", "csv"), default="pgm")
    p.add_argument("--stride", type=int)
    p.add_argument("--batch", type=int, dest="batch_size", metavar="BATCH")
    p.set_defaults(func=cmd_predict)

    p = command("eval", help="score a confidence map against a mask")
    p.add_argument("--pred", required=True, help="PGM or CSV confidence map")
    p.add_argument("--truth", required=True, help="PGM ground-truth mask")
    p.add_argument("--threshold", type=float,
                   help="confidence at or above which a pixel is positive")
    p.set_defaults(func=cmd_eval)

    p = command("info", help="describe a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--diff", default=None, help="second checkpoint to compare")
    p.set_defaults(func=cmd_info)

    for p in sub.choices.values():
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SeishetError, OSError, MemoryError) as exc:
        print("seishet: error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
