"""Doctest wiring for the data, obs, serving and streaming packages (tier-1).

Two contracts:

* every executable example in the packages' docstrings passes (the same
  set CI runs via ``pytest --doctest-modules src/repro/data
  src/repro/obs src/repro/serving src/repro/streaming``; that CI step
  also runs the ``src/repro/model``, ``src/repro/rtl`` and
  ``src/repro/tsetlin`` examples, whose public symbols are not all held
  to the example rule below);
* every *public* class and function in those packages carries a
  docstring with an example (``>>>``) — the docs generator renders those
  docstrings into ``docs/api/``, so an example-free public symbol is a
  documentation regression.
"""

from __future__ import annotations

import doctest
import importlib
import inspect
import pkgutil

import pytest

DOCTESTED_PACKAGES = ("repro.data", "repro.obs", "repro.serving",
                      "repro.streaming")


def _modules():
    for package_name in DOCTESTED_PACKAGES:
        package = importlib.import_module(package_name)
        yield package
        for info in sorted(pkgutil.iter_modules(package.__path__),
                           key=lambda i: i.name):
            yield importlib.import_module(f"{package_name}.{info.name}")


MODULES = list(_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests_pass(module):
    result = doctest.testmod(
        module,
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
        verbose=False,
    )
    assert result.failed == 0, (
        f"{module.__name__}: {result.failed} doctest failure(s)"
    )


def _public_symbols():
    seen = set()
    for module in MODULES:
        if module.__name__ in DOCTESTED_PACKAGES:
            continue  # package __init__ re-exports; covered at definition
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            yield pytest.param(obj, id=f"{module.__name__}.{name}")


@pytest.mark.parametrize("obj", list(_public_symbols()))
def test_every_public_symbol_has_an_example(obj):
    doc = inspect.getdoc(obj) or ""
    assert doc, f"{obj.__qualname__} has no docstring"
    assert ">>>" in doc, (
        f"{obj.__qualname__}'s docstring has no executable example "
        "(>>> ...); docs/api pages are generated from these docstrings"
    )
