"""sqzsim's submodules, registered in `sys.modules` at once and run on first attribute use.

`lazy_import(name)` returns the submodule already imported under `name`,
or registers one whose code runs when one of its attributes is first
read. Registered, it is what a later `import name` anywhere returns, and
it is set on its package, as an import would set it. Binding or passing
the module runs nothing. Third-party modules such as numpy are plain
imports of the submodules that use them.

The first read runs the code under one lock. Another thread that reads
the module meanwhile waits until it is whole; reads by the loading thread
itself, such as the module's own imports, see it as it stands, as during
an import. (`importlib.util.LazyLoader` before Python 3.12 lets another
thread see a half-run module, and its read fails.)
"""

import importlib.util
import sys
import threading
import types

_LOCK = threading.RLock()   # one lock, so loads that start one another cannot wait on each other
_RUNNING = set()            # names of the lazy modules whose code is running


class _LazyModule(types.ModuleType):
    """A registered module whose code has not run: the first attribute read runs it."""

    def __getattribute__(self, attr):
        with _LOCK:
            name = object.__getattribute__(self, "__name__")
            if type(self) is _LazyModule and name not in _RUNNING:
                _RUNNING.add(name)
                try:
                    object.__getattribute__(self, "__spec__").loader.exec_module(self)
                finally:
                    _RUNNING.discard(name)
                self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, attr)


def lazy_import(name):
    """`sys.modules[name]`, registering a lazily loading module there if none is imported yet."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        module = importlib.util.module_from_spec(spec)
        module.__class__ = _LazyModule
        sys.modules[name] = module
        package, _, child = name.rpartition(".")
        setattr(sys.modules[package], child, module)
    return module
