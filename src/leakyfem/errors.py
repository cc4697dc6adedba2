"""Exception types shared across the package."""


class LeakyFemError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LeakyFemError):
    """A value violates a documented precondition (geometry, material, level)."""


class MeshingError(LeakyFemError):
    """Mesh generation failed; carries diagnostic details."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SolverError(LeakyFemError):
    """Eigenvalue solver failure; may carry the best partial result."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class CertificationError(SolverError):
    """A computed eigenvalue list cannot be certified: its certifying
    inertia count does not factor.  Another pole certifies the same list
    at the same level, so no fallback is tried."""


class ConsistencyError(LeakyFemError):
    """Two independent computations of the same quantity disagree."""


class TheoremViolation(LeakyFemError):
    """The non-strict discrete eigenvalue inequality failed; carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(LeakyFemError):
    """A run configuration is malformed or violates a module precondition."""
