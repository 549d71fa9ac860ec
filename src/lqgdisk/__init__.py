"""Random geometry on the unit disk.

Log-correlated Gaussian fields with free boundary, multiplicative chaos
measures (subcritical and critical), marked-point partition functions with
their scaling laws, and boundary quadrangulation enumeration.
"""

from .geometry import (
    ConformalFactor,
    LiouvilleParams,
    MobiusMap,
    conformal_weight,
    curvatures,
    gauss_bonnet,
    green,
    green_mean_boundary,
    green_regularized,
    poincare_density,
    weyl_anomaly,
)
from .gff import (
    BoundaryTrace,
    FieldRealization,
    FieldSampler,
    RngStream,
    harmonic_extension,
    sample_boundary_trace,
    sample_field,
    variance_asymptotic_check,
)
from .gmc import (
    AtomicMeasure,
    GradedDiskGrid,
    boundary_measure,
    bulk_measure,
    graded_disk_grid,
    window_sector_grid,
)
from .critical import (
    moment_diagnostic,
    seneta_heyde_boundary,
    seneta_heyde_bulk,
)
from .liouville import (
    AdmissibilityVerdict,
    ChaosBasis,
    InsertionSet,
    insertion_drift,
    kpz_log_weight,
    log_constant,
    partition_estimate,
    sample_liouville_triple,
    seiberg_check,
    shifted_chaos,
    unit_volume_expectation,
    volume_law_params,
)
from .maps import (
    BoltzmannConfig,
    boltzmann_sample,
    count_exact,
    joint_density_check,
    log_count_asymptotic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
