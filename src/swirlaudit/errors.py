"""Exception types shared across the package."""


class SwirlAuditError(Exception):
    """Base class for all swirlaudit errors."""


class EmptyDatasetError(SwirlAuditError):
    """A dataset with zero points was requested or supplied."""


class InvalidPointError(SwirlAuditError):
    """A point contains NaN or infinite coordinates."""


class LabelMismatchError(SwirlAuditError):
    """A dataset with the wrong provenance label was supplied."""


class IllConditionedPointError(SwirlAuditError):
    """A finite-difference probe sits too close to a known discontinuity."""


class InvalidDomainError(SwirlAuditError, ValueError):
    """A degenerate or non-finite domain, or a range the support grid cannot bin."""


class PairingError(SwirlAuditError):
    """Two datasets that must be pointwise paired do not match up."""


class UndersampledError(SwirlAuditError):
    """Not enough samples for the requested statistic to be meaningful.

    ``required_n`` carries the smallest sample count that would satisfy
    the check's precondition.
    """

    def __init__(self, message: str, required_n: int):
        super().__init__(message)
        self.required_n = required_n


class MalformedRowError(SwirlAuditError):
    """A point-cloud file contains a row that does not parse."""


class ConfigError(SwirlAuditError):
    """A configuration file failed to parse or validate."""
