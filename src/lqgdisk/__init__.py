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
    green_regularized,
    poincare_density,
    weyl_anomaly,
)
from .gff import (
    FieldSampler,
    RngStream,
    RotationSampler,
    TraceSampler,
    replica_map,
)
from .gmc import (
    AtomicMeasure,
    GradedDiskGrid,
    boundary_masses,
    bulk_masses,
    graded_disk_grid,
    window_sector_grid,
)
from .critical import (
    SectorSampler,
    boundary_ladder_totals,
    bulk_ladder_totals,
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
    unit_volume_expectation,
    volume_law_params,
)
from .maps import (
    BoltzmannConfig,
    count_exact,
    joint_density_check,
    log_count_asymptotic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
