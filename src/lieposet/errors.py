"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` (the class name),
used by the CLI when reporting failures.
"""


class LiePosetError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self):
        return type(self).__name__


class PosetConstructionError(LiePosetError):
    """A poset input violates one of the defining conditions."""


class BadElement(PosetConstructionError):
    """A generator references an element outside the ground set."""


class AntisymmetryViolation(PosetConstructionError):
    """Closure created x <= y <= x for distinct x, y."""


class Condition1Violation(PosetConstructionError):
    """A relation x <= y whose endpoints violate the integer order."""


class Condition2Violation(PosetConstructionError):
    """Strict mode input is missing the mirror (-y, -x) of a relation (x, y)."""


class Condition3Violation(PosetConstructionError):
    """Some i > 0 covers -i, which families B and D forbid."""


class UnsupportedHeight(LiePosetError):
    """Operation requires a height-(0,0) or height-(0,1) poset."""


class UnsupportedPoset(LiePosetError):
    """No implemented formula or algorithm applies to this poset."""


class NotInSpan(LiePosetError):
    """A commutator fell outside the span of the basis (invalid poset/basis)."""


class NoSignRescaling(LiePosetError):
    """No diagonal +/-1 rescaling matches the two structure constant tables."""


class TablesDiffer(LiePosetError):
    """The basis or the structure constants of a type-B poset differ from
    those of the type-D poset left when 0 is removed."""


class NotFrobenius(LiePosetError):
    """The poset does not satisfy the graph criterion for index zero."""


class SingularForm(LiePosetError):
    """The evaluated Kirillov form is singular; no principal element exists."""


class NonEigenbasis(LiePosetError):
    """The adjoint action is not exactly triangularizable in this basis."""


class InvariantViolation(LiePosetError):
    """A computed object broke an identity that always holds, such as the
    even rank of an evaluated skew matrix or the principal element's
    fixed-point identity F(ad(x)(b)) = F(b)."""


class InputParseError(LiePosetError):
    """Malformed poset file, inline description, or flag combination."""
