"""The package's public surface: every exported name resolves and has a caller."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import bolomux

_PACKAGE = pathlib.Path(bolomux.__file__).parent


def _public_modules():
    """Every bolomux module that declares a public surface in __all__."""
    modules = (importlib.import_module(f"bolomux.{info.name}")
               for info in pkgutil.iter_modules(bolomux.__path__))
    return [module for module in modules if hasattr(module, "__all__")]


_MODULES = _public_modules()
_IDS = [module.__name__.rpartition(".")[2] for module in _MODULES]


def test_every_all_entry_exists_on_its_module():
    # a stale __all__ entry survives `import bolomux` and breaks only
    # `from bolomux.<module> import *`
    missing = [f"{name}.{entry}" for name, module in zip(_IDS, _MODULES)
               for entry in module.__all__ if not hasattr(module, entry)]
    assert {"analysis", "device", "dsp", "experiments", "frontend", "traceio",
            "units"} <= set(_IDS)
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
    # a name stays public only if another module of the package uses it;
    # imports and re-exports do not count, nor do comments, tests or
    # README examples
    own = pathlib.Path(module.__file__).name
    used = set()
    for path in _PACKAGE.glob("*.py"):
        if path.name not in ("__init__.py", own):
            used |= _referenced_names(path.read_text(encoding="utf-8"))
    return sorted(set(module.__all__) - used)


def _unused_names(module) -> list[str]:
    # a class is used when package code, its own module included, constructs
    # or raises it: result types reach their callers as instances.  Any other
    # name needs a caller in another module
    constructed = set()
    for path in _PACKAGE.glob("*.py"):
        constructed |= _constructed_names(path.read_text(encoding="utf-8"))
    classes = {name for name in module.__all__ if inspect.isclass(getattr(module, name))}
    return sorted((set(_names_without_caller(module)) - classes) | (classes - constructed))


# modules whose classes, too, need a caller in another module
_STRICT = {"device", "dsp"}


@pytest.mark.parametrize("module", _MODULES, ids=_IDS)
def test_every_public_name_has_a_caller(module):
    name = module.__name__.rpartition(".")[2]
    rule = _names_without_caller if name in _STRICT else _unused_names
    assert rule(module) == []


@pytest.mark.parametrize("module", _MODULES, ids=_IDS)
def test_all_lists_what_the_package_re_exports(module):
    # the package namespace re-exports exactly the module's public surface;
    # read from the import statements, so constants count as well
    own = module.__name__.rpartition(".")[2]
    exported = [alias.name
                for node in ast.parse((_PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == own
                for alias in node.names]
    assert sorted(module.__all__) == sorted(exported)
