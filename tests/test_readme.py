"""README drift: every ``rotgram ...`` command in the README's CLI code
block is accepted by the current argument parser, every ``--flag`` named
in the CLI section is an option of some subcommand, every backticked
``rotgram.<module>[.<name>]`` resolves, and every public function is
either used by the package or named in the README.  Commands are parsed
only, never run."""

import argparse
import ast
import collections
import importlib
import pathlib
import re
import shlex

import pytest

import rotgram
from rotgram import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def cli_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def readme_commands():
    block = cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rotgram ")]


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv in readme_commands()} == {
        "sample", "figure1", "gram", "classify", "fakeuni"}


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_example_parses(argv):
    cli.build_parser().parse_args(argv)


def parser_flags():
    """Every option string of every subcommand of the parser."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {flag for sub in subparsers.choices.values() for flag in sub._option_string_actions}


def readme_flags():
    return sorted(set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", cli_section())))


def test_readme_names_some_flags():
    assert len(readme_flags()) >= 10


@pytest.mark.parametrize("flag", readme_flags())
def test_readme_flag_exists(flag):
    assert flag in parser_flags()


def readme_names():
    text = README.read_text(encoding="utf-8")
    return sorted(set(re.findall(r"`(rotgram\.[A-Za-z_][\w.]*)`", text)))


def test_readme_names_some_library_objects():
    assert len(readme_names()) >= 10


@pytest.mark.parametrize("dotted", readme_names())
def test_readme_name_resolves(dotted):
    parts = dotted.split(".")  # rotgram.<module>[.<name>...]
    obj = importlib.import_module(".".join(parts[:2]))
    for attr in parts[2:]:
        obj = getattr(obj, attr)


def loaded_name(node):
    """The name a ``Name`` or ``Attribute`` node loads, else None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def test_every_public_function_is_used_or_named():
    # used means loaded as code outside its own definition; docstrings and
    # imports do not count
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "rotgram").glob("*.py"))}
    loads = collections.Counter(loaded_name(node) for tree in trees.values()
                                for node in ast.walk(tree))
    named = set(readme_names())
    orphans = [
        "rotgram.%s.%s" % (module, fn.name)
        for module, tree in trees.items() for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        and loads[fn.name] == sum(loaded_name(node) == fn.name for node in ast.walk(fn))
        and "rotgram.%s.%s" % (module, fn.name) not in named]
    assert orphans == []


def test_package_exports():
    assert sorted(rotgram.__all__) == sorted([
        "classifier", "distributions", "fake_uniformity", "moments", "radon", "so3",
        "DomainError", "NoConvergence", "__version__"])
