"""Zero-inclusion bounds for monic polynomials via the companion matrix.

Classical coefficient bounds, Cartesian-decomposition disk and rectangle
bounds for the 2x2-partitioned companion matrix, a closed-form tridiagonal
Toeplitz spectrum, an independent simultaneous root solver for validation,
and a CLI that reproduces the bundled comparison fixtures.

Each module's ``__all__`` is the one list of its public names. The package
re-exports all of them but the CLI's, so importing it does not load argparse.
"""

from . import cartesian, classical, errors, fixtures, linalg, polynomial, report, roots, toeplitz
from .cartesian import *  # noqa: F403
from .classical import *  # noqa: F403
from .errors import *  # noqa: F403
from .fixtures import *  # noqa: F403
from .linalg import *  # noqa: F403
from .polynomial import *  # noqa: F403
from .report import *  # noqa: F403
from .roots import *  # noqa: F403
from .toeplitz import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (cartesian, classical, errors, fixtures, linalg, polynomial, report, roots,
                toeplitz):
    __all__ += _module.__all__
del _module
