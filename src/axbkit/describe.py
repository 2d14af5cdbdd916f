"""``describe(name)``: the docstring summary of a public function or class.

The names are those in the modules' ``__all__``, plus two aliases;
``axbkit describe <name>`` prints the summary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil

__all__ = ["describe", "operation_names"]

_ALIASES = {"laplacian_2d": ("halfplane", "build_halfplane_laplacian"),
            "list_corpus": ("corpus", "corpus_names")}


@functools.cache
def _objects() -> dict:
    """Name -> public function or class, built at the first call (the package
    imports this module before the modules it reads)."""
    modules = {m.name: importlib.import_module(f"{__package__}.{m.name}")
               for m in pkgutil.iter_modules([os.path.dirname(__file__)])}
    objects = {name: getattr(mod, name) for _, mod in sorted(modules.items())
               for name in getattr(mod, "__all__", ())}
    objects = {name: obj for name, obj in objects.items()
               if inspect.isclass(obj) or inspect.isfunction(inspect.unwrap(obj))}
    objects.update({alias: getattr(modules[m], name) for alias, (m, name) in _ALIASES.items()})
    return objects


def operation_names() -> list[str]:
    """The names :func:`describe` knows, sorted."""
    return sorted(_objects())


def describe(name: str) -> str:
    """The first paragraph of the docstring of the public function or class ``name``."""
    objects = _objects()
    if name not in objects:
        raise KeyError(f"unknown operation {name!r}; known operations: "
                       f"{', '.join(sorted(objects))}")
    summary = inspect.getdoc(objects[name]).split("\n\n")[0]
    return " ".join(line.strip() for line in summary.splitlines())
