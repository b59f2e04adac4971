"""Numerical laboratory for triangular random-matrix models.

Samplers for diagonal-plus-triangular ensembles, spectral clouds of their
perturbations, log-domain separation integrals, and the packing-number scan
that estimates a free-entropy dimension lower bound.  See the README for
the experiment catalogue; the ``dtlab`` command drives everything in batch.
"""

from .brown import (
    DensityField,
    GridSpec,
    MicrostatePair,
    brown_logdet_grid,
    perturbed_microstate,
    radial_cdf_distance,
)
from .dimension import (
    MembershipReport,
    MicrostateParams,
    ScanRow,
    assemble_delta_hat,
    dimension_scan,
    log_ball_volume,
    microstate_membership,
    packing_lower_bound_log,
)
from .dyson import (
    LogEstimate,
    SeparationEstimate,
    delta_schedule,
    gamma_product_rate,
    log_dyson_constant,
    log_dyson_density,
    log_selberg_box_integral,
    log_separation_integral_mc,
    separation_integral_lower_bound,
)
from .ensembles import (
    DTParams,
    FreenessReport,
    StarWord,
    assemble_block_dt,
    enumerate_star_words,
    freeness_check,
    sample_diagonal,
    sample_dt,
    sample_ginibre,
    sample_strict_upper,
    star_moment,
    star_moment_table,
)
from .errors import ConfigError
from .linalg import (
    ConvergenceError,
    SchurForm,
    eigenvalues,
    lu_logabsdet,
    norm2,
    schur,
    spectral_radius_bound,
)
from .measures import (
    CompactMeasure,
    DiskPart,
    EmpiricalPart,
    PerturbedMeasure,
    disk_quantile_points,
    overlap_bound,
    pair_proximity_mass,
    parse_measure_spec,
    perturbation_radius,
    sample_measure,
    smear_atoms,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigError",
    "ConvergenceError",
    "SchurForm",
    "eigenvalues",
    "lu_logabsdet",
    "norm2",
    "schur",
    "spectral_radius_bound",
    "CompactMeasure",
    "DiskPart",
    "EmpiricalPart",
    "PerturbedMeasure",
    "disk_quantile_points",
    "overlap_bound",
    "pair_proximity_mass",
    "parse_measure_spec",
    "perturbation_radius",
    "sample_measure",
    "smear_atoms",
    "DTParams",
    "FreenessReport",
    "StarWord",
    "assemble_block_dt",
    "enumerate_star_words",
    "freeness_check",
    "sample_diagonal",
    "sample_dt",
    "sample_ginibre",
    "sample_strict_upper",
    "star_moment",
    "star_moment_table",
    "DensityField",
    "GridSpec",
    "MicrostatePair",
    "brown_logdet_grid",
    "perturbed_microstate",
    "radial_cdf_distance",
    "LogEstimate",
    "SeparationEstimate",
    "delta_schedule",
    "gamma_product_rate",
    "log_dyson_constant",
    "log_dyson_density",
    "log_selberg_box_integral",
    "log_separation_integral_mc",
    "separation_integral_lower_bound",
    "MembershipReport",
    "MicrostateParams",
    "ScanRow",
    "assemble_delta_hat",
    "dimension_scan",
    "log_ball_volume",
    "microstate_membership",
    "packing_lower_bound_log",
]
