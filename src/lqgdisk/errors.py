"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the closed unit disk or otherwise out of domain."""


class CoincidentPointsError(DomainError):
    """Two points that must be distinct coincide."""


class BoundaryPointError(DomainError):
    """Interior-only quantity requested at a boundary point."""


class UnsupportedSeparationError(ValueError):
    """Regularization circles overlap; the configuration has no closed form.

    Callers must coarsen the grid or shrink the regularization radius.
    """


class InvalidMapError(DomainError):
    """Mobius map parameter |a| >= 1 does not map the disk to itself."""


class GridError(ValueError):
    """Grid resolution or layout violates a documented constraint."""


class FactorizationError(RuntimeError):
    """Covariance matrix not numerically positive semidefinite."""


class NotAdmissibleError(ValueError):
    """Insertion set fails the admissibility bounds for its parameter case."""


class ConfigurationError(ValueError):
    """Invalid experiment configuration (caps, truncation, mismatched grids)."""


class ResamplingError(RuntimeError):
    """Importance weights underflowed, or a quadrature missed its error target."""
