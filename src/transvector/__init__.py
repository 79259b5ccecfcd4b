"""Exact certificates and float64 geometry for minimal extensions of
totally geodesic submanifolds in symmetric spaces of noncompact type.

Layering, bottom up: exactla (rational linear algebra), liealg (structured
algebras), subspaces (Lie triple systems, reflective and totally real
predicates), extension (the bracket extension condition and its series),
roots (restricted root decompositions), geometry (matrix-model points,
distances, mean curvature), catalog (built-in su(n,1), so(n,1), sl(n,R)
instances and their submanifold pairs), algfile + report + cli (I/O).
"""

__version__ = "0.1.0"

from .liealg import (
    AlgebraVector,
    MatrixRealization,
    StructuredLieAlgebra,
    ValidationReport,
)
from .subspaces import Subspace

__all__ = [
    "AlgebraVector",
    "MatrixRealization",
    "StructuredLieAlgebra",
    "Subspace",
    "ValidationReport",
    "__version__",
]
