"""The README's Library example runs as written, the package exports
exactly the names the README lists, and the CLI synopsis lists every
option of every subcommand."""

import argparse
import re
from fractions import Fraction as F
from pathlib import Path

import searchpursuit
from searchpursuit import cli

README = Path(__file__).resolve().parent.parent.joinpath("README.md").read_text("utf-8")
LIBRARY = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
CLI = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs():
    code = re.search(r"```python\n(.*?)```", LIBRARY, re.S).group(1)
    names: dict = {}
    exec(code, names)
    assert names["sol"].value == F(6, 115)
    assert names["report"].unique
    assert names["cert"] is None


def test_exports_are_the_names_the_readme_lists():
    imported = re.search(r"from searchpursuit import \((.*?)\)", LIBRARY, re.S).group(1)
    calls = {name.strip() for name in imported.split(",") if name.strip()}
    # "The package exports these four calls and the two errors they can
    # raise, `InstanceTooLarge` and `NumberTooLarge`; ..."
    sentence = LIBRARY.split("The package exports", 1)[1].split(";", 1)[0]
    errors = set(re.findall(r"`(\w+)`", sentence))
    assert (len(calls), len(errors)) == (4, 2)
    assert sorted(searchpursuit.__all__) == sorted(calls | errors)


def test_synopsis_lists_every_option_of_every_subcommand():
    synopsis = re.search(r"```sh\n(.*?)```", CLI, re.S).group(1)
    # Each command starts a line; its continuation lines are indented.
    listed = {
        m.group(1): set(re.findall(r"--[\w-]+", m.group(2)))
        for m in re.finditer(r"^searchpursuit (\w+)(.*(?:\n[ \t]+.*)*)", synopsis, re.M)
    }
    subparsers = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        name: {o for a in sub._actions for o in a.option_strings if o.startswith("--")}
        - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert listed == options
