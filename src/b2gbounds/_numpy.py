"""numpy, imported on its first attribute access.

`b2g search`, `--version` and `--help` compute nothing with numpy, and its
import would be most of such a process's time.  The modules that use it
import ``np`` from here, a module object made by the lazy-import recipe of
the importlib documentation: numpy's own import runs when code first reads
an attribute of ``np``.  If numpy is already imported, ``np`` is that
module, since numpy must not be executed a second time in one process.
"""

import importlib.util
import sys


def _load():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


np = _load()
