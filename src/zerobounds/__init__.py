"""Zero-inclusion bounds for monic polynomials via the companion matrix.

Classical coefficient bounds, Cartesian-decomposition disk and rectangle
bounds for the 2x2-partitioned companion matrix, a closed-form tridiagonal
Toeplitz spectrum, an independent simultaneous root solver for validation,
and a CLI that reproduces the bundled comparison fixtures.
"""

from .cartesian import (
    Rectangle,
    block_cartesian_radius,
    cartesian_disk,
    diagonal_block_radius,
    hermitian_rectangle,
    kittaneh_rectangle,
    mw_bound,
    partition_disk,
    partition_rectangle,
    radius_from_norm_coupling,
    radius_from_pm_coupling,
    unit_tail_disk,
)
from .classical import (
    BoundResult,
    abdurakhmanov,
    abu_omar_kittaneh,
    al_dolat,
    carmichael_mason,
    cauchy,
    fujii_kubo,
    kittaneh_disk,
    linden,
    montel,
)
from .companion import BlockCompanion, build_block_companion, build_companion
from .errors import (
    BlockShapeMismatchError,
    DegreeTooSmallError,
    ExponentOutOfRangeError,
    HypothesisViolatedError,
    InternalConsistencyError,
    NegativeEntryError,
    NegativeInputError,
    NoConvergenceError,
    NonFiniteMatrixError,
    NonSquareError,
    NotHermitianError,
    OddDegreeError,
    PolynomialParseError,
    UnknownFixtureError,
    ZeroBoundsError,
    ZeroLeadingCoefficientError,
)
from .fixtures import FIXTURES, Expectation, Fixture, get_fixture
from .linalg import (
    HermitianEigen,
    hermitian_eigs,
    nonneg_numrad,
    numerical_radius_sweep,
    operator_norm,
)
from .polynomial import Polynomial, make_monic, odd_reduce, parse_complex, parse_polynomial
from .report import (
    ALL_METHODS,
    CompareOptions,
    CompareReport,
    FixtureReport,
    ReportRow,
    run_all_fixtures,
    run_compare,
    run_fixture,
)
from .roots import RootSet, Verdict, find_roots, validate_bound, validate_rectangle
from .toeplitz import TriToeplitz, is_normal, toeplitz_eigenvalues, toeplitz_spectral_radius

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # polynomials
    "Polynomial", "make_monic", "odd_reduce", "parse_complex", "parse_polynomial",
    # companion
    "BlockCompanion", "build_companion", "build_block_companion",
    # linear algebra
    "HermitianEigen", "hermitian_eigs", "operator_norm",
    "numerical_radius_sweep", "nonneg_numrad",
    # classical bounds
    "BoundResult", "cauchy", "carmichael_mason", "montel", "fujii_kubo",
    "abdurakhmanov", "linden", "kittaneh_disk", "abu_omar_kittaneh", "al_dolat",
    # cartesian bounds
    "Rectangle", "radius_from_norm_coupling", "radius_from_pm_coupling",
    "block_cartesian_radius", "cartesian_disk", "diagonal_block_radius",
    "kittaneh_rectangle", "partition_rectangle", "partition_disk", "unit_tail_disk",
    "mw_bound", "hermitian_rectangle",
    # toeplitz
    "TriToeplitz", "toeplitz_eigenvalues", "toeplitz_spectral_radius", "is_normal",
    # roots and validation
    "RootSet", "Verdict", "find_roots", "validate_bound", "validate_rectangle",
    # fixtures and reports
    "FIXTURES", "Fixture", "Expectation", "get_fixture",
    "ALL_METHODS", "CompareOptions", "CompareReport", "ReportRow", "FixtureReport",
    "run_compare", "run_fixture", "run_all_fixtures",
    # errors
    "ZeroBoundsError", "NonSquareError", "NotHermitianError", "NegativeEntryError",
    "NegativeInputError", "InternalConsistencyError", "ZeroLeadingCoefficientError",
    "DegreeTooSmallError", "OddDegreeError", "NonFiniteMatrixError",
    "BlockShapeMismatchError", "ExponentOutOfRangeError", "HypothesisViolatedError",
    "NoConvergenceError", "PolynomialParseError", "UnknownFixtureError",
]
