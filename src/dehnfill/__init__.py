"""Dehn-filled approximate Einstein metrics on solid tori.

Numerical toolkit: warped-product profile construction and gluing,
curvature and Einstein-deficit measurement in weighted norms, the
linearized gauged Einstein operator with its indicial data, and a
Newton corrector that perturbs approximate profiles to exact Einstein
ones.

Each module's __all__ is its public API; the package re-exports their
union.
"""

__version__ = "0.1.0"

from . import curvature, gluing, lattice, linearized, norms, profiles, solver
from .curvature import *
from .errors import DehnFillError
from .gluing import *
from .lattice import *
from .linearized import *
from .norms import *
from .profiles import *
from .solver import *

__all__ = [
    "__version__",
    "DehnFillError",
    *curvature.__all__,
    *gluing.__all__,
    *lattice.__all__,
    *linearized.__all__,
    *norms.__all__,
    *profiles.__all__,
    *solver.__all__,
]
