"""Exception types shared across the package.

Every failure that a caller might want to catch deliberately gets its own
class so that the CLI can map failures onto exit codes without string
matching.  All of them derive from InvolutiveError.
"""

from __future__ import annotations


class InvolutiveError(Exception):
    """Base class for all errors raised by this package."""


class InputError(InvolutiveError):
    """Malformed or semantically invalid user input (files, flags)."""


class DimensionMismatch(InputError):
    """Operands whose shapes are incompatible."""


class Inconsistent(InvolutiveError):
    """A linear system that was required to be solvable has no solution."""


class UnstableGenericity(InvolutiveError):
    """Random flags failed to certify a generic value (their codimensions
    disagreed even after enlarging the coefficient range); another seed
    may succeed."""


class NotInvolutive(InvolutiveError):
    """An operation needed an involutive tableau and the test failed."""


class NotTwoAcyclic(InvolutiveError):
    """An operation needed vanishing degree-2 cohomology and it does not
    vanish in the range that was checked."""


class CapExceeded(InvolutiveError):
    """A resource cap (dimension, degree, term count) was exceeded."""


class NotRegular(InvolutiveError):
    """A chosen abelian subspace fails the regularity condition needed by
    the quotient-space constructors."""


class BadDecomposition(InvolutiveError):
    """A vector expected to lie in a distinguished summand does not."""


class JacobiViolation(InputError):
    """Structure constants that do not satisfy the Jacobi identity."""


class NotInImage(InvolutiveError):
    """A vector expected to lie in the image of a map does not."""


class StructureViolation(InvolutiveError):
    """A formal-solution tower violates one of its defining identities."""


class InconsistentData(InvolutiveError):
    """Cauchy data that admits no formal solution (the linear system for
    some Taylor coefficient is overdetermined and incompatible)."""
