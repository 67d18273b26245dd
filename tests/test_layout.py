"""src/seishet holds pipeline code only, and states each default once.

Every module-level function and class, public or private, must have a
caller: a reference in src/seishet outside its own definition, a mention
in the benchmark under perfbench/, or the console entry point in
pyproject.toml. Test oracles and helpers live in tests/conftest.py
instead, and a helper whose last caller goes fails here.

A command line flag that sets a library value takes no default of its
own, so the library's default is the only one, and no range check, so
the library's bounds are the only ones.
"""

import argparse
import ast
import os
import re
from dataclasses import fields

from seishet.cli import build_parser
from seishet.model import NetConfig
from seishet.synthgen import SyntheticConfig
from seishet.train import TrainConfig

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src", "seishet")

# Names allowed without a caller, each with its reason.
_EXEMPT = {
    "load_section_mask": "the real-data patch command planned in ROADMAP item 3 "
                         "reads annotation masks through it",
}


def _sources(directory):
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name)) as fh:
                yield name, fh.read()


def _names_used(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _uncalled_names():
    defined = []   # (module, name, defining node)
    uses = []      # (top-level node, names it references)
    for module, text in _sources(_SRC):
        for node in ast.parse(text).body:
            uses.append((node, _names_used(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node))
    outside = "\n".join(text for _, text in _sources(os.path.join(_ROOT, "perfbench")))
    with open(os.path.join(_ROOT, "pyproject.toml")) as fh:
        outside += fh.read()
    missing = []
    for module, name, node in defined:
        if any(name in names for other, names in uses if other is not node):
            continue
        if re.search(r"\b%s\b" % re.escape(name), outside):
            continue
        missing.append("%s:%s" % (module, name))
    return missing


def test_every_module_level_name_in_src_has_a_pipeline_caller():
    missing = [m for m in _uncalled_names() if m.split(":")[1] not in _EXEMPT]
    assert missing == [], "no caller outside tests: %s" % ", ".join(missing)


def test_exemptions_are_still_needed():
    uncalled = {m.split(":")[1] for m in _uncalled_names()}
    assert set(_EXEMPT) <= uncalled, sorted(set(_EXEMPT) - uncalled)


def _names(*classes):
    return {f.name for cls in classes for f in fields(cls)}


# Each command with its required flags, and the library values its other
# flags set: config fields, split_dataset's fraction, read_dataset's limit,
# tile_predict's stride and batch_size, read_raw_section's height and width,
# read_section's line, open_volume's header bytes and evaluate's threshold.
_LIBRARY_VALUES = {
    ("gen", "--out", "d"): _names(SyntheticConfig),
    ("train", "--data", "d", "--out", "m"):
        _names(TrainConfig, NetConfig) | {"fraction", "limit"},
    ("finetune", "--ckpt", "c", "--data", "d", "--out", "m"):
        _names(TrainConfig) | {"limit"},
    ("predict", "--ckpt", "c", "--raw", "r", "--out", "o"):
        {"stride", "batch_size", "height", "width", "line", "inline_byte",
         "crossline_byte"},
    ("eval", "--pred", "p", "--truth", "t"): {"threshold"},
}

# Flags that keep a default of their own. --seed's None falls back to
# SEISHET_SEED, and None marks predict's --height, --width and --line as
# not given: each is needed with only one of --raw and --segy.
_OWN_DEFAULTS = {"gen": {"seed"}, "train": {"seed"}, "finetune": {"seed"},
                 "predict": {"height", "width", "line"}, "eval": set()}


def test_cli_flags_leave_library_values_to_the_library():
    """An omitted flag that sets a library value is absent from the parsed
    namespace, unless it keeps a default of its own for the reason above."""
    parser = build_parser()
    for argv, library in _LIBRARY_VALUES.items():
        parsed = vars(parser.parse_args(argv))
        defaulted = sorted(set(parsed) & library - _OWN_DEFAULTS[argv[0]])
        assert defaulted == [], "%s flags with a default: %s" % (argv[0], defaulted)


def test_cli_flags_leave_the_range_of_library_values_to_the_library():
    """A flag that sets a library value only parses a number: the library
    checks its range, so a value out of it exits 1 like any rejected value."""
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for argv, library in _LIBRARY_VALUES.items():
        checked = sorted(action.dest for action in commands[argv[0]]._actions
                         if action.dest in library
                         and action.type not in (int, float, None))
        assert checked == [], "%s flags range-checked while parsing: %s" % (
            argv[0], checked)


def test_train_and_finetune_share_one_declaration_of_their_common_flags():
    """--epochs --lr --batch --seed --count-limit --log --pos-weight are the
    same action objects in both, so types, defaults and help cannot drift."""
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    train, finetune = ({flag: action for action in commands[name]._actions
                        for flag in action.option_strings}
                       for name in ("train", "finetune"))
    same = {flag for flag in set(train) & set(finetune) if train[flag] is finetune[flag]}
    assert same == {"--epochs", "--lr", "--batch", "--seed", "--count-limit", "--log",
                    "--pos-weight"}
