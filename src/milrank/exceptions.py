"""Exception types shared across the package.

The CLI maps these onto stable exit codes, so new failure modes should
reuse an existing class where the semantics fit.
"""


class MilrankError(Exception):
    """Base class for all package-specific errors."""


class FormatError(MilrankError):
    """A file does not conform to its declared format.

    Messages name the offending byte offset (binary files) or line number
    (text files) whenever one is known.
    """

    def __init__(self, path, location: str, reason: str):
        self.path = path
        self.location = location
        self.reason = reason
        super().__init__(f"{path}: {location}: {reason}")


class DataError(MilrankError):
    """Input data fails a documented precondition (e.g. too few bags)."""


class DimensionMismatchError(MilrankError, ValueError):
    """Feature dimensionality differs from the model's, or from the dataset's first video's."""


class NonFiniteLossError(MilrankError):
    """Training produced a NaN or infinite loss."""


class MetricError(MilrankError):
    """A metric is undefined for the given frame pool."""
