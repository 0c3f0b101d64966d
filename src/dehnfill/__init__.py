"""Dehn-filled approximate Einstein metrics on solid tori.

Numerical toolkit: warped-product profile construction and gluing,
curvature and Einstein-deficit measurement in weighted norms, the
linearized gauged Einstein operator with its indicial data, and a
Newton corrector that perturbs approximate profiles to exact Einstein
ones.

Each module's __all__ is its public API; the package exports their
union, looked up on first use.  Importing the package runs only errors:
every other module but cli is bound here and placed in sys.modules as a
lazy placeholder (importlib.util.LazyLoader) that runs the module on its
first attribute access, so a command runs only the modules it calls.
The placeholders sit in sys.modules, not behind the package's
__getattr__ alone, so that code which looks the package's modules up
there (a tracer that rebinds their functions, say) finds every one of
them before it is used.  cli is not registered: `python -m dehnfill.cli`
must find it unimported.
"""

import sys
from importlib.machinery import PathFinder
from importlib.util import LazyLoader, module_from_spec

__version__ = "0.1.0"

from .errors import DehnFillError

# the modules the package exports from, each after the ones it imports:
# looking a name up runs the modules up to its home, which mostly are
# the ones its home imports anyway
_EXPORTING = ("profiles", "solver", "norms", "lattice", "gluing",
              "curvature", "linearized")

for _name in ("numutil", *_EXPORTING):
    _spec = PathFinder.find_spec(f"{__name__}.{_name}", __path__)
    _spec.loader = LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del _name, _spec


def __getattr__(name):
    global __all__
    if name == "__all__":
        __all__ = ["__version__", "DehnFillError",
                   *(public for module in map(globals().get, _EXPORTING)
                     for public in module.__all__)]
        return __all__
    # no public name is private or cli, which `from dehnfill import cli`
    # asks for before importing it; a scan would run every module
    if not name.startswith("_") and name != "cli":
        for module in map(globals().get, _EXPORTING):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
