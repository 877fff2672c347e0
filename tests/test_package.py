"""The package's public surface: every exported name resolves."""

import importlib
import pkgutil

import bolomux


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
    assert {"analysis", "device", "dsp", "experiments", "frontend"} <= set(checked)
    assert missing == []
