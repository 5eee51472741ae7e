"""numpy, imported on first use.

Commands that make no array (fragment, verify, route, bench) start without
numpy. Modules that make or read arrays import ``np`` from here: the first
attribute read on it imports numpy, and each name read is then kept on the
object, so later reads are plain attribute lookups. The object is not in
``sys.modules``, so code that walks the loaded modules and reads their
attributes does not import numpy through it.
"""

from __future__ import annotations

import importlib
import types


class _LazyModule(types.ModuleType):
    def __getattr__(self, name: str):
        value = getattr(importlib.import_module(self.__name__), name)
        setattr(self, name, value)
        return value


np = _LazyModule("numpy")
