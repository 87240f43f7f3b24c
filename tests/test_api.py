"""The public surface: the package binds only its submodules, every
``__all__`` entry resolves and star-imports work, every public function has a
caller outside the tests, every public default is one some caller changes,
every result field is one some caller reads or a named exemption, every
module-level constant is one some caller reads, both
layout lists name exactly the package's modules, README's config table
names exactly the config keys, and the console script runs the CLI."""

import ast
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import pnofdm
import pnofdm.cli
from pnofdm.experiments import _KEY_PARSERS

# Every submodule but the command-line entry point, which exports nothing.
MODULES = sorted(m.name for m in pkgutil.iter_modules(pnofdm.__path__) if m.name != "cli")
# Code outside the tests: the package, the demos and the benchmark.
CALLER_DIRS = ("src", "demos", "perfbench")


def test_layout_lists_name_every_module():
    # README's Layout block and the package docstring each list the modules,
    # so adding or removing one must update both.
    modules = sorted(m.name for m in pkgutil.iter_modules(pnofdm.__path__))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    layout = re.search(r"^## Layout\n\n```\n(.*?)^```", readme, re.S | re.M).group(1)
    assert sorted(re.findall(r"^  (\w+)\.py ", layout, re.M)) == modules
    assert sorted(re.findall(r":mod:`pnofdm\.(\w+)`", pnofdm.__doc__)) == modules


def test_config_table_names_every_key():
    # README's config table and the parser each list the keys, so adding or
    # removing one must update both.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"^\| Key \| Unit \| Default \|\n(.*?)^$", readme, re.S | re.M).group(1)
    assert sorted(re.findall(r"^\| `(\w+)` \|", table, re.M)) == sorted(_KEY_PARSERS)


def test_package_binds_only_its_submodules():
    # One way in: every public name is imported from the module that defines it.
    stray = [
        name
        for name, value in vars(pnofdm).items()
        if not name.startswith("_") and getattr(value, "__name__", None) != f"pnofdm.{name}"
    ]
    assert stray == []


@pytest.mark.parametrize("mod", MODULES)
def test_module_all_resolves(mod):
    module = importlib.import_module(f"pnofdm.{mod}")
    assert module.__all__, f"pnofdm.{mod} exports nothing"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("mod", MODULES)
def test_module_star_import(mod):
    namespace = {}
    exec(f"from pnofdm.{mod} import *", namespace)
    assert set(importlib.import_module(f"pnofdm.{mod}").__all__) <= set(namespace)


@functools.cache
def _caller_uses() -> tuple:
    """From one walk of the code outside the tests: ``(callee, keyword)`` for every
    ``callee(..., keyword=...)``, every name read as a name or an attribute
    (``def`` and import lines and assignments to a name read none), and
    every attribute loaded but numpy's ``arr.flags``."""
    root = Path(__file__).resolve().parents[1]
    calls, names, attrs = set(), set(), set()
    for path in (p for d in CALLER_DIRS for p in (root / d).rglob("*.py")):
        array_flags = set()  # numpy's ``arr.flags`` in ``arr.flags.writeable``
        for node in ast.walk(ast.parse(path.read_text())):  # parents before children
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                calls.update((name, kw.arg) for kw in node.keywords if kw.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if node.attr == "writeable":
                    array_flags.add(node.value)
                if isinstance(node.ctx, ast.Load) and node not in array_flags:
                    attrs.add(node.attr)
    return calls, names, attrs


def _public_functions() -> list:
    """``(module, name, function)`` for every function in a module's ``__all__``."""
    modules = {mod: importlib.import_module(f"pnofdm.{mod}") for mod in MODULES}
    return [
        (mod, name, getattr(module, name))
        for mod, module in modules.items()
        for name in module.__all__
        if inspect.isfunction(getattr(module, name))
    ]


def test_every_default_is_set_by_a_caller():
    # A parameter with a default that no caller outside the tests passes by
    # name has one value in use, so it should be a constant.
    calls, _, _ = _caller_uses()
    unset = [
        f"{mod}.{name}({param.name}=)"
        for mod, name, fn in _public_functions()
        for param in inspect.signature(fn).parameters.values()
        if param.default is not param.empty and (name, param.name) not in calls
    ]
    assert unset == []


def test_every_public_function_has_a_caller():
    # A public function that only the tests call belongs in the tests.
    _, names, _ = _caller_uses()
    uncalled = [f"{mod}.{name}" for mod, name, _ in _public_functions() if name not in names]
    assert uncalled == []


# Result fields that nothing outside the tests reads yet, each with the
# ROADMAP item that will read it.
UNREAD_FIELDS = {"EstimatorDiagnostics.flags": "ROADMAP item 4"}


def test_every_result_field_is_read_by_a_caller():
    # A dataclass field that no caller outside the tests reads as an attribute
    # is carried only for the tests.  Bare names do not count: a local
    # variable of the same name reads no field, and neither does numpy's
    # ``arr.flags``.  Attributes are matched by name only.  The unread
    # fields must be exactly the named exemptions, so a new unread field
    # fails, and so does an exemption once something reads its field.
    _, _, attrs = _caller_uses()
    unread = [
        f"{cls.__name__}.{f.name}"
        for mod in MODULES
        for cls in vars(importlib.import_module(f"pnofdm.{mod}")).values()
        if dataclasses.is_dataclass(cls) and isinstance(cls, type) and cls.__module__ == f"pnofdm.{mod}"
        for f in dataclasses.fields(cls)
        if f.name not in attrs
    ]
    assert unread == list(UNREAD_FIELDS)


def _module_constants() -> list:
    """``module.NAME`` for every upper-case name, with or without a leading
    underscore, that a module of the package binds at its top level."""
    constants = []
    for info in pkgutil.iter_modules(pnofdm.__path__):
        path = Path(pnofdm.__path__[0]) / f"{info.name}.py"
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            constants += [
                f"{info.name}.{target.id}"
                for target in targets
                if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
            ]
    return constants


def test_every_constant_is_read_by_a_caller():
    # A module-level constant that no code outside the tests reads is left
    # over from code that has gone, or tunes nothing but the tests.
    _, names, _ = _caller_uses()
    constants = _module_constants()
    assert constants
    assert [name for name in constants if name.split(".")[1] not in names] == []


def test_console_script_is_cli_main():
    # The ``pnofdm`` command of pyproject's [project.scripts], read line by
    # line: Python 3.10 has no tomllib.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.S | re.M).group(1)
    scripts = dict(re.findall(r'^([\w-]+)\s*=\s*"([^"]*)"', section, re.M))
    assert scripts == {"pnofdm": "pnofdm.cli:main"}
    module, attr = scripts["pnofdm"].split(":")
    assert getattr(importlib.import_module(module), attr) is pnofdm.cli.main
