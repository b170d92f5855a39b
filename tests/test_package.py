"""The package namespace republishes the public API of its modules."""

import importlib
import subprocess
import sys
import types

import menzerath

MODULES = ("boundaries", "classical", "copula", "errors", "gaussian", "ingest",
           "report", "svgfig", "table")


def test_public_names_are_the_modules_all():
    # The namespace resolves names on first use, so vars(menzerath) holds
    # only those used so far; dir() and __all__ list every one.
    union = set()
    for module in MODULES:
        union.update(importlib.import_module(f"menzerath.{module}").__all__)
    public = {name for name in dir(menzerath)
              if not name.startswith("_")
              and not isinstance(getattr(menzerath, name), types.ModuleType)}
    assert public == union
    assert sorted(menzerath.__all__) == sorted(union)
    for module in MODULES:
        mod = importlib.import_module(f"menzerath.{module}")
        for name in mod.__all__:
            assert getattr(menzerath, name) is getattr(mod, name), name


def test_import_loads_neither_numpy_nor_scipy():
    # A fresh interpreter: the test suite itself has imported both.
    probe = ("import menzerath, sys; "
             "print([m for m in ('numpy', 'scipy') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_submodules_resolve_as_attributes():
    probe = ("import menzerath; "
             "print(menzerath.table.__name__, menzerath.svgfig.__name__, "
             "menzerath.Domain.__module__)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "menzerath.table menzerath.svgfig menzerath.table\n"
    assert not hasattr(menzerath, "no_such_name")
