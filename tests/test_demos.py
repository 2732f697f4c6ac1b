"""The demos and the README stay in step with the package as it stands."""

from __future__ import annotations

import argparse
import pathlib
import re
import runpy

import pytest

import donormatch
from donormatch import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def _imported_names(text):
    """Names that the ``from donormatch import ...`` statements in text import."""
    names = []
    for group in re.findall(r"^\s*from donormatch import (\([^)]*\)|[^\n]+)", text, re.M):
        names += [item.split()[0] for item in group.strip("()").split(",") if item.strip()]
    return names


def test_the_names_the_readme_demos_and_benchmark_use_are_exported():
    # The benchmark runs the package as it stands, through ``dm.<name>``
    # (``dm`` being the imported package), so trimming the exports must
    # keep every name that it, the README and the demos use.
    used = {}
    for path in [ROOT / "README.md", *DEMOS]:
        for name in _imported_names(path.read_text()):
            used.setdefault(name, path.name)
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        for name in re.findall(r"\bdm\.(\w+)", path.read_text()):
            used.setdefault(name, str(path.relative_to(ROOT)))
    assert len(used) >= 20
    assert {n: where for n, where in used.items() if not hasattr(donormatch, n)} == {}


def test_the_readme_names_exactly_the_flags_each_subcommand_takes():
    # The README lists each subcommand's flags as one bullet, "- `<name>`: ...".
    section = (ROOT / "README.md").read_text().split("## Command line")[1].split("\n## ")[0]
    documented = {
        name: set(re.findall(r"--[a-z][a-z-]*", body))
        for name, body in re.findall(r"^- `(\w+)`:(.*?)(?=^- |^$)", section, re.M | re.S)
    }
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert documented == accepted
