"""The demos and the README stay in step with the package as it stands."""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
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


def test_the_constants_the_readme_quotes_have_the_values_it_gives():
    # The README quotes a constant as "`module.NAME` (value" followed by ")"
    # or ", "; a value may group its thousands with commas, as in 10,000.
    text = (ROOT / "README.md").read_text()
    quoted = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]+)`\s+\(([-+.\w,]+?)(?:,\s|\))", text)
    assert {name for _, name, _ in quoted} >= {
        "SIMPLEX_MAX_ENTRIES", "MAX_CERTIFIED_GAP", "MAX_BANDED_BINARIES"
    }
    wrong = {}
    for module, name, value in quoted:
        actual = getattr(importlib.import_module(f"donormatch.{module}"), name)
        if actual != float(value.replace(",", "")):
            wrong[f"{module}.{name}"] = (value, actual)
    assert wrong == {}


def test_every_call_the_benchmark_makes_binds_to_the_current_signature():
    # The benchmark calls ``dm.<name>(...)`` and ``cli.<name>(...)`` (also as
    # ``self.dm`` and ``self.cli``) with fixed positional counts and keyword
    # names; a renamed or dropped parameter would fail every benchmark run.
    calls = []
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value
            owner = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if owner in ("dm", "cli"):
                calls.append((f"{path.name}:{node.lineno}", owner, node))
    assert len(calls) >= 40
    unbound = {}
    for where, owner, node in calls:
        assert not any(isinstance(a, ast.Starred) for a in node.args), where
        assert all(k.arg is not None for k in node.keywords), where
        f = getattr(donormatch if owner == "dm" else cli, node.func.attr)
        try:
            inspect.signature(f).bind(*node.args, **{k.arg: k for k in node.keywords})
        except TypeError as err:
            unbound[f"{where} {owner}.{node.func.attr}"] = str(err)
    assert unbound == {}


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
