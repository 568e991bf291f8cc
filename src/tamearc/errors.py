"""Exception types shared across the library.

Capability errors (the engine cannot certify an answer) are distinct from
input errors; the CLI maps them to exit code 3 and input errors to 2.
"""


class TameArcError(Exception):
    pass


class InputError(TameArcError):
    pass


class InexactDivision(TameArcError):
    """A division that the algebra makes exact left a remainder: a kernel fault."""


class DivisionByZero(InputError):
    pass


class ExprSyntaxError(InputError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class EpsDegree(InputError):
    """A nonzero eps^2 term appeared while expanding an expression."""


class NotAUnit(InputError):
    """Dual number with zero body cannot be inverted."""


class NotAUnitAlongY(InputError):
    """Restriction to a prime divisor where the function has a zero or pole."""


class RestrictionUndefined(InputError):
    """A computed K1 component failed the unit condition; internal consistency."""


class EpsDatumIrregular(InputError):
    """The per-component deformation datum has a pole along its own curve."""


class ScopeError(InputError):
    """Configuration outside the supported scope (e.g. arcs at INF on P1)."""


class CapabilityError(TameArcError):
    pass


class FactorIncomplete(CapabilityError):
    """A composite factor could not be split; supply a factor hint."""


class ProjectionDisagreement(CapabilityError):
    """An intersection cycle could not be certified.

    No shear put the curves in shape position, the fiber data did not
    generate a residue field, or a computed point failed its exact check:
    it does not lie on both curves, or its residue degree is not that of
    the factor of the resultant it lies over.
    """
