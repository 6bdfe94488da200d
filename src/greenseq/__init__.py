"""greenseq: maximal green sequences computed three ways.

The package cross-verifies three descriptions of the same combinatorics for
finite-type Jacobian algebras:

* mutation of extended exchange matrices and green sequences (`exchange`),
* forward hom-orthogonal sequences of Schurian modules (`rep`, `reflect`,
  `fho`),
* wall-crossing sequences of generic green paths (`walls`),

plus the length bounds coming from cuts of the potential (`bounds`) and a
small CLI (`greenseq.cli`).
"""

from greenseq.errors import (
    GenericityError,
    InvalidQuiverError,
    NonStringAlgebraError,
    ReflectionError,
    SearchBudgetExceeded,
    UnsupportedPotentialError,
)

__all__ = [
    "GenericityError",
    "InvalidQuiverError",
    "NonStringAlgebraError",
    "ReflectionError",
    "SearchBudgetExceeded",
    "UnsupportedPotentialError",
]

__version__ = "0.1.0"
