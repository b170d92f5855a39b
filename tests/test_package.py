"""The package namespace republishes the public API of its modules."""

import importlib
import types

import menzerath

MODULES = ("boundaries", "classical", "copula", "errors", "gaussian", "ingest",
           "report", "svgfig", "table")


def test_public_names_are_the_modules_all():
    public = {name for name, value in vars(menzerath).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    union = set()
    for module in MODULES:
        union.update(importlib.import_module(f"menzerath.{module}").__all__)
    assert public == union
