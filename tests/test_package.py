"""The package's public surface: every exported name, field and method resolves and
has a caller, as does every module-level definition, public or private, and every
defaulted parameter is passed by some call and left out by another."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import bolomux
from bolomux import engine

_PACKAGE = pathlib.Path(bolomux.__file__).parent
# the benchmark drives the package from outside it, so its code counts as a caller
_BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


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
    assert {"analysis", "config", "device", "dsp", "experiments", "frontend", "traceio",
            "units"} <= set(_IDS)
    assert missing == []


def _names_in(tree: ast.AST) -> set[str]:
    """Every bare name and attribute name the code under `tree` refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _referenced_names(source: str) -> set[str]:
    """Every bare name and attribute name the code of `source` refers to."""
    return _names_in(ast.parse(source))


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
    # a name stays public only if another module of the package, or the
    # benchmark, uses it; imports and re-exports do not count, nor do
    # comments, tests or README examples
    own = pathlib.Path(module.__file__).name
    callers = [path for path in _PACKAGE.glob("*.py") if path.name not in ("__init__.py", own)]
    used = set()
    for path in [*callers, *_BENCH.glob("*.py")]:
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


# dataclasses the CLI writes whole with dataclasses.asdict, each with the
# cli function that does: every field of theirs reaches an output file
_WRITTEN_WHOLE = {"ResponseMetric": "_run_dict", "LorentzianFit": "cmd_characterize"}

# members no package code reads yet, each with the ROADMAP item that will
# publish it; an entry that gains a reader fails the rule, so the list
# cannot go stale
_PENDING = {
    "OperatingPoint.multivalued": "item 3: multivalued cells in the manifest telemetry",
    "ProbeSweepResult.multivalued": "item 3: multivalued cells in the manifest telemetry",
}


# the engine's private records: the plan every run on a chip shares and its
# per-channel constants, read field by field by the thermal pass and the readout
_PRIVATE_RECORDS = (engine._EnginePlan, engine._Channels)


def _loaded_attributes(source: str) -> set[tuple[str, str]]:
    """(attribute name, class) for every attribute the code of `source` loads;
    class names the dataclass whose own __post_init__ holds the load, else ""."""
    tree = ast.parse(source)
    constructor = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                    constructor |= {id(node): cls.name for node in ast.walk(fn)}
    return {(node.attr, constructor.get(id(node), "")) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _members(cls) -> list[str]:
    """The fields, properties and public methods of a dataclass or NamedTuple."""
    fields = (list(cls._fields) if issubclass(cls, tuple)
              else [field.name for field in dataclasses.fields(cls)])
    return fields + [name for name, value in vars(cls).items()
                     if not name.startswith("_") and name not in fields
                     and (inspect.isfunction(value)
                          or isinstance(value, (property, staticmethod, classmethod)))]


def _members_without_reader() -> list[str]:
    # a member stays only if package code reads it outside its class's own
    # constructor, or the CLI writes its class whole; tests, README examples
    # and getattr strings do not count
    reads = set()
    for path in _PACKAGE.glob("*.py"):
        reads |= _loaded_attributes(path.read_text(encoding="utf-8"))
    records = [cls for module in _MODULES for cls in map(module.__dict__.get, module.__all__)
               if dataclasses.is_dataclass(cls)]
    unread = []
    for cls in [*records, *_PRIVATE_RECORDS]:
        whole = ({field.name for field in dataclasses.fields(cls)}
                 if cls.__name__ in _WRITTEN_WHOLE else set())
        unread += [f"{cls.__name__}.{name}" for name in _members(cls)
                   if name not in whole
                   and not any(attr == name and owner != cls.__name__ for attr, owner in reads)]
    return sorted(unread)


def test_every_dataclass_member_has_a_reader():
    cli = ast.parse((_PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(cli) if isinstance(node, ast.FunctionDef)}
    for name, function in _WRITTEN_WHOLE.items():
        assert "asdict" in _constructed_names(ast.unparse(functions[function])), name
    assert _members_without_reader() == sorted(_PENDING)


def _defaulted_parameters():
    """(callee, parameter, position) for every parameter with a default of a
    function, method or dataclass constructor the package defines.  callee is
    the name a call uses (the class's for a constructor); position is the
    parameter's index among a call's arguments, self and cls not counted, or
    None for a keyword-only one."""
    found = []

    def add(callee, fn, bound):
        params = list(inspect.signature(fn).parameters.values())[bound:]
        found.extend((callee, p.name, None if p.kind is p.KEYWORD_ONLY else i)
                     for i, p in enumerate(params) if p.default is not p.empty)

    for info in pkgutil.iter_modules(bolomux.__path__):
        module = importlib.import_module(f"bolomux.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                add(name, obj, 0)
            elif inspect.isclass(obj):
                # a dataclass's generated __init__ sits in its own namespace too
                for attr, value in vars(obj).items():
                    if isinstance(value, (staticmethod, classmethod)):
                        add(attr, value.__func__, isinstance(value, classmethod))
                    elif inspect.isfunction(value):
                        add(name if attr == "__init__" else attr, value, 1)
    return found


def _calls_by_name() -> dict[str, list[ast.Call]]:
    """Every call in the package and the benchmark, by the name it calls;
    tests and README examples do not count."""
    calls = {}
    for path in [*_PACKAGE.glob("*.py"), *_BENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return calls


def _parameters_never_passed() -> list[str]:
    # a default stays a parameter only if some call in the package or the
    # benchmark passes it: by position, by keyword or through * or **.  Calls
    # match by name
    calls = _calls_by_name()

    def passes(call, parameter, position):
        if any(kw.arg in (parameter, None) for kw in call.keywords):
            return True
        if position is None:
            return False
        return (any(isinstance(arg, ast.Starred) for arg in call.args)
                or len(call.args) > position)

    return sorted(f"{callee}({parameter})"
                  for callee, parameter, position in _defaulted_parameters()
                  if not any(passes(call, parameter, position)
                             for call in calls.get(callee, [])))


def test_every_defaulted_parameter_has_a_caller():
    assert _parameters_never_passed() == []


def _parameters_never_omitted() -> list[str]:
    # a parameter keeps its default only if some call in the package or the
    # benchmark leaves it out; one every caller passes copies a value the
    # callers already hold, such as the shipped config's.  Calls match by
    # name, and a call through ** counts as omitting, a call through * as not
    calls = _calls_by_name()

    def omits(call, parameter, position):
        if any(kw.arg is None for kw in call.keywords):
            return True
        if any(kw.arg == parameter for kw in call.keywords):
            return False
        return position is None or (not any(isinstance(arg, ast.Starred) for arg in call.args)
                                    and len(call.args) <= position)

    return sorted(f"{callee}({parameter})"
                  for callee, parameter, position in _defaulted_parameters()
                  if not any(omits(call, parameter, position)
                             for call in calls.get(callee, [])))


def test_every_default_is_omitted_by_some_caller():
    assert _parameters_never_omitted() == []


@pytest.mark.parametrize("module", _MODULES, ids=_IDS)
def test_all_lists_what_the_package_re_exports(module):
    # the package namespace is each module's __all__ by construction: __init__
    # star-imports every module that declares a non-empty one, only those,
    # and names no package name itself
    imports = [node for node in ast.parse((_PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
               if isinstance(node, ast.ImportFrom)]
    assert [node.module for node in imports if [alias.name for alias in node.names] != ["*"]] == []
    starred = [node.module for node in imports]
    assert set(starred) <= set(_IDS)
    assert starred.count(module.__name__.rpartition(".")[2]) == bool(module.__all__)
    assert [entry for entry in module.__all__
            if getattr(bolomux, entry, None) is not getattr(module, entry)] == []


def _definitions_without_caller() -> list[str]:
    # every module-level def and class, public or private, stays only if
    # package code outside its own body, or the benchmark, refers to it;
    # imports, __all__ strings, tests and README examples do not count
    statements = [(path.stem, node, _names_in(node)) for path in _PACKAGE.glob("*.py")
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    used = set()
    for path in _BENCH.glob("*.py"):
        used |= _referenced_names(path.read_text(encoding="utf-8"))
    return sorted(f"{module}.{node.name}" for module, node, _ in statements
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
                  and not any(node.name in names for _, other, names in statements
                              if other is not node))


def test_every_definition_has_a_caller():
    assert _definitions_without_caller() == []


def _imported_modules(name: str) -> set[str]:
    """The bolomux modules that module `name` imports anywhere in its source,
    under `if TYPE_CHECKING:` and inside functions included."""
    found = set()
    for node in ast.walk(ast.parse((_PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bolomux."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("bolomux.")}
    return {module for module in found if (_PACKAGE / f"{module}.py").is_file()}


def _reachable_modules(name: str) -> set[str]:
    """Every bolomux module that importing `name` can load, by its source."""
    seen, todo = set(), [name]
    while todo:
        for module in _imported_modules(todo.pop()) - seen:
            seen.add(module)
            todo.append(module)
    return seen


@pytest.mark.parametrize("module, below", [
    ("config", {"experiments", "engine"}),
    ("traceio", {"experiments", "engine"}),
    ("engine", {"experiments"}),
], ids=["config", "traceio", "engine"])
def test_imports_point_down_the_engine_seam(module, below):
    # the chip and run types live in config, so loading a config or a trace
    # never loads the engine, and the engine never loads its drivers
    assert _reachable_modules(module) & below == set()


# targets bench/tracer.py still hooks although the package deleted them; the
# benchmark refresh (ROADMAP item 1) drops or re-points these hooks
_STALE_HOOKS = {"experiments.PairwiseAccumulator", "experiments.demodulate",
                "experiments.run_power_sweep"}


def _hook_targets(source: str) -> list[str]:
    """module.name of each `t.hook(module, "name", ...)` call in source, read without
    running it; a name bound by an enclosing `for name in (<strings>)` loop gives one
    target per string, and a name computed at install time gives none."""
    tree = ast.parse(source)
    loop_names = {}
    for loop in ast.walk(tree):
        if (isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)
                and isinstance(loop.iter, (ast.Tuple, ast.List))):
            values = [item.value for item in loop.iter.elts]
            loop_names |= {id(node): (loop.target.id, values) for node in ast.walk(loop)}
    targets = []
    for call in ast.walk(tree):
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "hook"):
            continue
        module, name = call.args[:2]
        if isinstance(name, ast.Constant):
            targets.append(f"{module.id}.{name.value}")
        elif loop_names.get(id(call), ("",))[0] == name.id:
            targets += [f"{module.id}.{value}" for value in loop_names[id(call)][1]]
    return targets


def test_every_tracer_hook_resolves():
    # a hook whose target is gone traces nothing and its per-layer metrics
    # read 0, so a deletion under src/ must not leave one behind
    targets = _hook_targets((_BENCH / "tracer.py").read_text(encoding="utf-8"))
    unresolved = {target for target in targets
                  if not hasattr(importlib.import_module(f"bolomux.{target.split('.')[0]}"),
                                 target.split(".")[1])}
    assert {"experiments.solve_operating_point", "experiments.run_probe_sweep",
            "cli.power_sweep_matrix", "config.load_config"} <= set(targets)
    assert unresolved == _STALE_HOOKS


def _readme_names() -> list[str]:
    """Every dotted name in backticks in the README that starts at `bolomux`,
    one of its modules or a class it exports, such as `dsp._white_bins` or
    `RunSettings.pulse_start_s`; file names such as `engine.py` are left out."""
    readme = (_BENCH.parent / "README.md").read_text(encoding="utf-8")
    heads = ({"bolomux"} | {info.name for info in pkgutil.iter_modules(bolomux.__path__)}
             | {name for name, value in vars(bolomux).items() if inspect.isclass(value)})
    return sorted({name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)", readme)
                   if name.split(".")[0] in heads and not name.endswith(".py")})


def _resolves(name: str) -> bool:
    """Whether a dotted README name is a module, attribute or dataclass field."""
    obj = bolomux
    for part in name.removeprefix("bolomux.").split("."):
        if inspect.ismodule(obj) and (_PACKAGE / f"{part}.py").is_file():
            obj = importlib.import_module(f"bolomux.{part}")
        elif dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            obj = None
        elif hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            return False
    return True


def test_every_name_the_readme_gives_resolves():
    # a definition or field deleted from the package must leave the README's
    # prose too; test_acceptance runs the README's Python example as written
    names = _readme_names()
    assert {"RunSettings.pulse_start_s", "dsp._white_bins", "bolomux.cli.main"} <= set(names)
    assert [name for name in names if not _resolves(name)] == []


_IMPORT = """
import json, os
before = dict(os.environ)
import bolomux
print(json.dumps({"threads": len(os.listdir("/proc/self/task")),
                  "environ_kept": dict(os.environ) == before,
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


@pytest.mark.skipif(not pathlib.Path("/proc/self/task").is_dir(),
                    reason="needs /proc to count the process's threads")
def test_import_starts_no_thread_and_leaves_the_environment():
    # with OPENBLAS_NUM_THREADS unset, importing bolomux loads numpy's
    # OpenBLAS at one thread, so no worker thread is started, and removes the
    # setting again; a caller's own setting is kept as given
    env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(_PACKAGE.parent)
    unset, caller = (json.loads(subprocess.run([sys.executable, "-c", _IMPORT], capture_output=True,
                                               text=True, check=True, env={**env, **extra}).stdout)
                     for extra in ({}, {"OPENBLAS_NUM_THREADS": "2"}))
    assert unset == {"threads": 1, "environ_kept": True, "openblas": None}
    assert caller["environ_kept"] and caller["openblas"] == "2"
