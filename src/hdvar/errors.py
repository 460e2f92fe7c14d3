"""Exception types shared across the package; checks of a run's configuration raise ConfigError."""


class HdvarError(Exception):
    """Base class for all package errors."""


class NotPositiveDefinite(HdvarError):
    """A Cholesky pivot fell below the positive-definiteness threshold: an OLS refit's ``singular_design``."""


class NotStationary(HdvarError):
    """The companion matrix has spectral radius at or above one."""


class ZeroKappa(HdvarError):
    """A restricted eigenvalue of zero makes the bound undefined."""


class ConfigError(HdvarError, ValueError):
    """Invalid or inconsistent run configuration, raised where the value is used;
    a ValueError, so library callers that catch ValueError keep working."""
