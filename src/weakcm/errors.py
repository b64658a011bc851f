"""Exception hierarchy.

Every error carries a short machine-readable ``condition`` string that names
the violated rule; the CLI copies it into report diagnostics so failures can
be matched without parsing prose.
"""


class WeakCMError(Exception):
    """Base class for all library errors."""

    condition = "internal"

    def __init__(self, message=""):
        super().__init__(message or self.condition)


class InputError(WeakCMError):
    """Invalid input data (CLI exit code 1)."""

    condition = "invalid-input"


class RationalTooLarge(InputError):
    """A number in the input would have more than ``DIGITS`` decimal digits
    (in its numerator or denominator): Python's default limit for
    converting integers to and from strings, so work on it is bounded."""

    condition = "input:number-size"
    DIGITS = 4300


class NotAnInteger(InputError):
    """A document field that must be a JSON integer (not a bool, float or
    string) is not one, or is below its minimum."""

    condition = "input:integer"


class MathError(WeakCMError):
    """Arithmetic impossibility or internal inconsistency (CLI exit code 2)."""

    condition = "math-error"


# ---------------------------------------------------------------- towers

class NotSquareFree(InputError):
    condition = "tower:square-free"


class FactorizationInconclusive(InputError):
    condition = "tower:square-free-inconclusive"


class BadFactorBound(InputError):
    """The trial-division bound from the environment is unusable."""

    condition = "tower:factor-bound"


class WrongSign(InputError):
    condition = "tower:sign"


class SquareClassMismatch(InputError):
    condition = "tower:square-class"


class DegenerateBiquadratic(InputError):
    condition = "tower:degenerate-biquadratic"


class TowerMismatch(InputError):
    condition = "tower:mismatch"


class DivisionByZero(MathError):
    condition = "tower:division-by-zero"


class SingularMatrix(MathError):
    condition = "linalg:singular"


# ---------------------------------------------------------------- cmfield

class WrongCase(InputError):
    condition = "cmfield:wrong-case"


# ---------------------------------------------------------------- dodson

class InvalidTriple(InputError):
    condition = "dodson-triple:invalid"


class NotAdmissible(InputError):
    condition = "dodson-triple:not-admissible"


class BoundExceeded(InputError):
    condition = "dodson:bound-exceeded"


class InvalidCMType(InputError):
    condition = "dodson:invalid-cm-type"


class InvalidPartition(InputError):
    condition = "dodson:invalid-partition"


class BadPartitionOption(InputError):
    """``dodson-classify --partition`` is neither a preset nor a well-formed
    inline block list."""

    condition = "cli:partition"


class InvalidPairCount(InputError):
    """The number of conjugate pairs N is below 1."""

    condition = "dodson:pair-count"


# ---------------------------------------------------------------- tausplit

class SingularTauBar(InputError):
    condition = "period-matrix:singular-tau-bar"


class NotFullSpan(InputError):
    condition = "period-matrix:span"


class ProperSubfield(InputError):
    condition = "period-matrix:proper-subfield"

    def __init__(self, message="", subfield_dim=None, subfield_basis=None):
        super().__init__(message)
        self.subfield_dim = subfield_dim
        self.subfield_basis = subfield_basis


class OddDimension(InputError):
    condition = "odd-dimension-exclusion"


class DegenerateP(InputError):
    condition = "period-matrix:degenerate-split"


class SearchBoundExceeded(InputError):
    """The case-A renaming search tried its capped number of index subsets
    without finding a split."""

    condition = "tausplit:search-bound"


# ---------------------------------------------------------------- hodge

class InvalidHodgeStructure(InputError):
    """A CM Hodge structure's labels, conjugation or group are inconsistent."""

    condition = "hodge:invalid-structure"


class IncompatibleIdentifications(InputError):
    condition = "hodge:incompatible-identifications"


class NotWeakCM(InputError):
    condition = "hodge:not-weak-cm"


class NoTopForm(InputError):
    condition = "hodge:no-top-form"


class MultipleTopForms(InputError):
    condition = "hodge:multiple-top-forms"


class WrongWeight(InputError):
    condition = "hodge:wrong-weight"


class ElementsNotClosed(InputError):
    """An explicit structure's group elements are not closed under
    composition."""

    condition = "hodge:elements-not-closed"
