"""Exception hierarchy shared across the package.

Exit codes used by the CLI: 2 for usage/config problems, 3 for data or
artifact format problems, 4 for numeric failures: a non-finite loss in
training or a non-finite model output at scoring.
"""


class SeqrelError(Exception):
    exit_code = 1


class ConfigError(SeqrelError):
    """Invalid configuration or command usage."""

    exit_code = 2


class ParameterError(ConfigError):
    """A parameter value is outside its valid range."""


class InfeasibleBalanceError(ParameterError):
    """A class has fewer members than the clusters allotted to it."""


class DataError(SeqrelError):
    """Malformed input data or artifact."""

    exit_code = 3


class DimensionError(DataError):
    """Operand shapes are incompatible."""


class SchemaViolationError(DataError):
    """A record does not conform to the fitted field schema."""


class EmptyInputError(DataError):
    """An operation that needs data received none."""


class ParseError(DataError):
    """A file could not be parsed; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TaskMismatchError(DataError):
    """Label kind does not match the configured task."""


class ArtifactError(DataError):
    """A pipeline artifact is missing or incompatible."""


class BundleIntegrityError(ArtifactError):
    """A deploy bundle fails its dimensional-chain validation."""


class MetricDomainError(DataError):
    """Metric inputs violate the metric's domain."""


class UndefinedMetricError(MetricDomainError):
    """The metric is undefined for this input (e.g. no positive labels)."""


class NumericFailureError(SeqrelError):
    """Training or inference produced a non-finite value."""

    exit_code = 4
