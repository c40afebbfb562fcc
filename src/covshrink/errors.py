"""Exception types shared across the package.

Every failure that carries numerical meaning gets its own class so callers
(and the CLI exit-code mapping) can tell usage problems from model breakdowns.
"""


class CovshrinkError(Exception):
    """Base class for all package-specific errors."""


class AsymmetricInputError(CovshrinkError):
    """Input matrix deviates from symmetry beyond the repair tolerance."""


class DecompositionError(CovshrinkError):
    """Eigenvalue iteration failed to converge."""


class NotPositiveDefiniteError(CovshrinkError):
    """A pivot or leading minor is not positive.

    ``index`` is the 1-based position of the failing pivot.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class EigenvalueTieError(CovshrinkError):
    """Two eigenvalues coincide within tolerance; gap-based formulas are undefined."""


class ShrinkageSingularityError(CovshrinkError):
    """A shrinkage denominator dropped to or below the guard threshold.

    ``index`` is the 1-based position (descending eigenvalue order) of the
    first offending denominator.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NumericError(CovshrinkError):
    """A numerical result is unusable.

    Raised when too many Monte Carlo replicates fail, and for a scatter,
    mean, estimate or shrinkage denominator beyond the float64 range.
    """


class ConfigError(CovshrinkError):
    """An experiment or CLI configuration is internally inconsistent."""


class CsvFormatError(CovshrinkError):
    """A CSV input violates the rectangular all-numeric contract.

    ``line`` is the 1-based physical line, ``column`` the 1-based field
    position when a single cell is at fault.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
