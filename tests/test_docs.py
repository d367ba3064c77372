import argparse
import os
import re

from npad.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_layout_names_every_module():
    # the "Library layout" table lists each module of the package once, and
    # nothing that is not one
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        section = f.read().split("## Library layout", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `npad\.(\w+)` \|", section, flags=re.M)
    modules = [name[:-3] for name in os.listdir(os.path.join(ROOT, "src", "npad"))
               if name.endswith(".py") and name != "__init__.py"]
    assert sorted(listed) == sorted(modules)


def test_readme_cli_synopsis_lists_every_flag():
    # each subcommand's lines in the README's CLI block name exactly the
    # long flags its parser takes
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        block = f.read().split("## CLI", 1)[1].split("```", 2)[1]
    listed: dict[str, set[str]] = {}
    for line in block.strip().splitlines():
        if line.startswith("npad "):
            command = line.split()[1]
        listed.setdefault(command, set()).update(re.findall(r"--[\w-]+", line))
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    taken = {name: {flag for action in sub._actions for flag in action.option_strings
                    if flag != "--help" and flag.startswith("--")}
             for name, sub in commands.items()}
    assert listed == taken
