"""numpy, loaded on first attribute use: `from ._numpy import np`.

A numpy already imported is used as it is. Otherwise `_lazy.lazy_import`
registers a lazily loading module as `sys.modules["numpy"]`, so the
scalar subcommands, which never touch an array, never pay for the import,
and a later `import numpy` anywhere gets the same, then fully loaded,
module.
"""

from ._lazy import lazy_import

np = lazy_import("numpy")
