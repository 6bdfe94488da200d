"""Exception types shared across the library."""

from __future__ import annotations


class InvalidQuiverError(ValueError):
    """The quiver violates a structural precondition (loop, 2-cycle, bad arrow)."""


class UnsupportedPotentialError(NotImplementedError):
    """The potential does not decompose into the shape mutation supports.

    Raised instead of ever returning a silently wrong mutated potential.
    """


class NonStringAlgebraError(ValueError):
    """The algebra fails the structural string-algebra checks."""


class SearchBudgetExceeded(RuntimeError):
    """A bounded search ran out of budget.

    Attributes:
        partial: whatever was found before the budget ran out, or None when
            partial output would be misleading (e.g. submodule enumeration).
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class ReflectionError(ValueError):
    """A reflection-functor precondition failed (non-injective/surjective
    stacked map, inconsistent solve, or a relation failure in the input)."""


class GenericityError(ValueError):
    """A base point failed the operational genericity checks.

    Attributes:
        colliding: the offending pair of modules (equal crossing times) or the
            single module whose crossing point was not interior.
    """

    def __init__(self, message: str, colliding=None):
        super().__init__(message)
        self.colliding = colliding
