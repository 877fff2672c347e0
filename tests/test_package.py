"""The package's public surface: every exported name resolves and has a caller."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import bolomux
import bolomux.device
import bolomux.dsp
import bolomux.experiments
import bolomux.frontend
import bolomux.traceio
import bolomux.units

_PACKAGE = pathlib.Path(bolomux.__file__).parent


def test_every_all_entry_exists_on_its_module():
    # a stale __all__ entry survives `import bolomux` and breaks only
    # `from bolomux.<module> import *`
    checked, missing = [], []
    for info in pkgutil.iter_modules(bolomux.__path__):
        module = importlib.import_module(f"bolomux.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        checked.append(info.name)
        missing.extend(f"{info.name}.{name}" for name in module.__all__
                       if not hasattr(module, name))
    assert {"analysis", "device", "dsp", "experiments", "frontend", "traceio",
            "units"} <= set(checked)
    assert missing == []


def _referenced_names(source: str) -> set[str]:
    """Every bare name and attribute name the code of `source` refers to."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _constructed_names(source: str) -> set[str]:
    """Every name the code of `source` calls or raises."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        target = (node.func if isinstance(node, ast.Call)
                  else node.exc if isinstance(node, ast.Raise) else None)
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _names_without_caller(module) -> list[str]:
    # a name stays public only if another module of the package or a README
    # example uses it; imports and re-exports do not count, nor do comments
    own = pathlib.Path(module.__file__).name
    used = set()
    for path in _PACKAGE.glob("*.py"):
        if path.name not in ("__init__.py", own):
            used |= _referenced_names(path.read_text(encoding="utf-8"))
    readme = (_PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        used |= _referenced_names(block)
    return sorted(set(module.__all__) - used)


def test_every_device_name_has_a_caller():
    assert _names_without_caller(bolomux.device) == []


def test_every_dsp_name_has_a_caller():
    assert _names_without_caller(bolomux.dsp) == []


def _unused_names(module) -> list[str]:
    # a class is used when package code, its own module included, constructs
    # or raises it: result types reach their callers as instances.  Any other
    # name needs a caller in another module or a README example
    constructed = set()
    for path in _PACKAGE.glob("*.py"):
        constructed |= _constructed_names(path.read_text(encoding="utf-8"))
    classes = {name for name in module.__all__ if inspect.isclass(getattr(module, name))}
    return sorted((set(_names_without_caller(module)) - classes) | (classes - constructed))


def test_every_experiments_name_has_a_caller():
    assert _unused_names(bolomux.experiments) == []


def test_every_frontend_name_has_a_caller():
    assert _unused_names(bolomux.frontend) == []


def test_every_traceio_name_has_a_caller():
    assert _unused_names(bolomux.traceio) == []


def test_every_units_name_has_a_caller():
    assert _unused_names(bolomux.units) == []


@pytest.mark.parametrize("module", [bolomux.traceio, bolomux.units], ids=["traceio", "units"])
def test_all_lists_what_the_package_re_exports(module):
    # the package namespace re-exports exactly the module's public surface
    exported = {name for name, value in vars(bolomux).items()
                if getattr(value, "__module__", None) == module.__name__}
    assert sorted(module.__all__) == sorted(exported)
