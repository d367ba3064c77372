import argparse
import importlib
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


def test_docs_cite_only_names_the_package_has():
    # every `module.name` in a code span of README.md or docs/*.md names an
    # attribute of npad.<module>, so a renamed or deleted function leaves no
    # stale citation behind
    modules = [name[:-3] for name in os.listdir(os.path.join(ROOT, "src", "npad"))
               if name.endswith(".py") and name != "__init__.py"]
    docs = os.path.join(ROOT, "docs")
    paths = [os.path.join(ROOT, "README.md")] + sorted(
        os.path.join(docs, name) for name in os.listdir(docs) if name.endswith(".md"))
    cited = set()
    for path in paths:
        with open(path, encoding="utf-8") as f:
            text = re.sub(r"```.*?```", "", f.read(), flags=re.S)
        for span in re.findall(r"`([^`]+)`", text):
            cited.update((os.path.basename(path), module, name) for module, name in
                         re.findall(r"(?<![\w./])(\w+)\.(\w+)", span) if module in modules)
    missing = [c for c in cited if not hasattr(importlib.import_module(f"npad.{c[1]}"), c[2])]
    assert len(cited) > 30 and missing == []
