"""Exception types shared across the package."""


class HdvarError(Exception):
    """Base class for all package errors."""


class NotPositiveDefinite(HdvarError):
    """A Cholesky pivot fell below the positive-definiteness threshold: an OLS refit's ``singular_design``."""


class NotStationary(HdvarError):
    """The companion matrix has spectral radius at or above one."""


class UnknownCombination(HdvarError):
    """The requested (experiment, k) pair is outside the supported grid."""


class ZeroKappa(HdvarError):
    """A restricted eigenvalue of zero makes the bound undefined."""


class ConfigError(HdvarError):
    """Invalid or inconsistent run configuration."""
