"""numpy, loaded on first attribute use: `from ._numpy import np`.

A numpy already imported is used as it is. Otherwise a lazily loading
module is registered as `sys.modules["numpy"]`, so the scalar subcommands,
which never touch an array, never pay for the import, and a later
`import numpy` anywhere gets the same, then fully loaded, module.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np   # numpy's own relative imports need it registered
    _spec.loader.exec_module(np)
