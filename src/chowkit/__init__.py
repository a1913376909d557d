"""chowkit: exact symbolic intersection-theory workbench.

Schubert calculus on Grassmannians, truncated Chern-class calculus on
formal surfaces, numerical lattices of ruled surfaces, classical curve
formulas, and a small worksheet language tying them together.
"""

from .grassmann import (
    GrassmannContext,
    SchubertElement,
    complement_in_box,
    conjugate,
    integrate,
    multiply,
    partition,
    plucker_degree,
)
from .linexpr import (
    InconsistentSystem,
    LinExpr,
    NonlinearError,
    UnderdeterminedSystem,
)

__all__ = [
    "GrassmannContext",
    "SchubertElement",
    "integrate",
    "multiply",
    "plucker_degree",
    "LinExpr",
    "InconsistentSystem",
    "UnderdeterminedSystem",
    "NonlinearError",
    "partition",
    "conjugate",
    "complement_in_box",
]
