"""Exception types shared across the package."""


class MatDiscError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianInput(MatDiscError):
    """Matrix fails the Hermitian symmetry tolerance."""


class InvalidOrder(MatDiscError):
    """Schatten order outside the admissible range."""


class DegreeZero(MatDiscError):
    """Root extraction requested for a constant polynomial."""


class NotRealRooted(MatDiscError):
    """Polynomial has a root with imaginary part beyond tolerance."""


class DegreeMismatch(MatDiscError):
    """Polynomial degrees incompatible with the requested operation."""


class ParseError(MatDiscError):
    """Malformed instance JSON; message carries location diagnostics."""


class InvariantViolation(MatDiscError):
    """Structurally valid input violating a documented invariant."""

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        super().__init__(f"invariant violated: {invariant}" + (f" ({detail})" if detail else ""))


class DegenerateSigma(MatDiscError):
    """Normalization requested for an instance with vanishing deviation scale."""


class EnumerationTooLarge(MatDiscError):
    """Assignment enumeration exceeds the configured cap."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        super().__init__(f"enumeration needs {required} assignments, cap is {cap}")


class NotAboveRoots(MatDiscError):
    """Evaluation point failed the above-the-roots certification."""


class DimensionMismatch(MatDiscError):
    """Matrix tuple has inconsistent or wrong dimensions."""


class NotPSD(MatDiscError):
    """Matrix has an eigenvalue below the negative slack."""


class HypothesisNotMet(MatDiscError):
    """Lemma hypothesis not satisfied; the check is skipped, not failed."""


class PreconditionViolated(MatDiscError):
    """Named precondition of an operation does not hold."""

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        super().__init__(f"precondition violated: {name}" + (f" ({detail})" if detail else ""))


class TooLarge(MatDiscError):
    """Requested family size exceeds the supported range."""


class InvalidShape(MatDiscError):
    """Frame construction parameters out of range."""
