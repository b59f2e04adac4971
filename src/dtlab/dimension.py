"""Packing-number lower bounds and the dimension-estimate scan.

The scan assembles, for a grid of perturbation scales eps, a lower bound on
the log packing number of the microstate set at matrix size bigN * k, then
normalizes by (bigN * k)^2 * |log eps|.  The assembly is pure log-domain
arithmetic; every input that carries statistical error arrives through the
separation-integral lower bound, which is reported per row.  The normalized
estimate decomposes exactly as

    delta_hat = (2 - 1/bigN) + (f_lb_norm + const_term) / |log eps|

so the structural term, the separation term, and the bookkeeping constants
can be audited independently.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, astuple, dataclass

import numpy as np
from scipy.special import gammaln

from . import brown, dyson, linalg
from .errors import ConfigError
from .measures import CompactMeasure
from .rng import derive_seed

__all__ = [
    "log_ball_volume",
    "packing_lower_bound_log",
    "assemble_delta_hat",
    "ScanRow",
    "dimension_scan",
    "write_scan_csv",
]

logger = logging.getLogger(__name__)


def log_ball_volume(dim: int, radius: float) -> float:
    """Log volume of the Euclidean ball of the given dimension and radius."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if not (radius > 0):
        raise ValueError(f"radius must be positive, got {radius}")
    return (
        0.5 * dim * math.log(math.pi)
        + dim * math.log(radius)
        - float(gammaln(0.5 * dim + 1.0))
    )


def _log_ball_volume_or_zero(dim: int, radius: float) -> float:
    return 0.0 if dim == 0 else log_ball_volume(dim, radius)


def packing_lower_bound_log(eps: float, bigN: int, k: int, f_lb_total: float) -> float:
    """Assembled log packing lower bound at total size n = bigN * k.

    Sums, in log domain: the triangular-density normalization at size n,
    the separation-integral lower bound ``f_lb_total`` (un-normalized), the
    volume of the strictly-upper perturbation ball of radius sqrt(n) * eps
    in bigN * k * (k-1) real dimensions, the block-scaling term, the
    Stirling factor log G(n^2 + 1), and the covering-cell term
    -n^2 log(pi (6 sqrt(n) eps)^2).
    """
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if bigN < 1 or k < 1:
        raise ValueError("bigN and k must be >= 1")
    n = bigN * k
    ball_dim = bigN * k * (k - 1)
    pairs_dim = k * k * bigN * (bigN - 1)
    return (
        dyson.log_dyson_constant(n)
        + f_lb_total
        + _log_ball_volume_or_zero(ball_dim, math.sqrt(n) * eps)
        + (pairs_dim / 2.0) * math.log(bigN)
        + float(gammaln(n * n + 1))
        - (n * n) * math.log(math.pi * (6.0 * math.sqrt(n) * eps) ** 2)
    )


def assemble_delta_hat(
    eps: float, bigN: int, f_lb_norm: float, const_term: float
) -> float:
    """Normalized dimension estimate from its three audited pieces."""
    return (2.0 - 1.0 / bigN) + (f_lb_norm + const_term) / abs(math.log(eps))


_DELTA_HAT_CEILING = 2.1


@dataclass(frozen=True)
class ScanRow:
    """One eps row of the dimension scan; all entries finite by contract."""

    eps: float
    delta: float
    bigN: int
    k: int
    f_lb_norm: float
    const_term: float
    delta_hat: float
    log_packing_lb: float
    chi_offset: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValueError(f"scan row has non-finite entries: {self}")
        if self.delta_hat > _DELTA_HAT_CEILING:
            raise ValueError(
                f"delta_hat {self.delta_hat} exceeds the sanity ceiling "
                f"{_DELTA_HAT_CEILING}"
            )


def dimension_scan(
    mu: CompactMeasure,
    c: float,
    bigN: int,
    k: int,
    eps_grid,
    chi_offset: float = 0.0,
    seed: int = 0,
) -> list[ScanRow]:
    """One ScanRow per admissible eps; inadmissible entries are skipped.

    Per row: a perturbed microstate at block size k and diagonal strength
    c / sqrt(bigN), its eigenvalues tiled bigN times (the block model shares
    one diagonal spectrum across blocks), the separation lower bound at the
    scheduled threshold, and the normalized packing assembly.  Skips are
    logged with their reason and do not abort the scan.
    """
    if bigN < 2:
        raise ConfigError(f"bigN must be >= 2, got {bigN}")
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    rows: list[ScanRow] = []
    n = bigN * k
    for i, eps in enumerate(eps_grid):
        try:
            delta = dyson.delta_schedule(eps)
            pair = brown.perturbed_microstate(
                mu, c / math.sqrt(bigN), eps, k, derive_seed(seed, 5, i)
            )
            lam = np.tile(linalg.eigenvalues(pair.z), bigN)
            lower = dyson.separation_integral_lower_bound(lam, eps, delta)
            f_lb_total = lower.log_value
            total = packing_lower_bound_log(eps, bigN, k, f_lb_total) + chi_offset
            log_eps = abs(math.log(eps))
            f_lb_norm = f_lb_total / (n * n)
            const_term = total / (n * n) - (2.0 - 1.0 / bigN) * log_eps - f_lb_norm
            row = ScanRow(
                eps=float(eps),
                delta=delta,
                bigN=bigN,
                k=k,
                f_lb_norm=f_lb_norm,
                const_term=const_term,
                delta_hat=assemble_delta_hat(eps, bigN, f_lb_norm, const_term),
                log_packing_lb=total,
                chi_offset=chi_offset,
            )
        except (ConfigError, ValueError) as exc:
            logger.warning("scan skips eps=%g: %s", eps, exc)
            continue
        rows.append(row)
    return rows


_SCAN_COLUMNS = ("eps", "delta", "bigN", "k", "f_lb_norm", "const_term", "delta_hat")


def write_scan_csv(rows: list[ScanRow], path, config: dict) -> None:
    """Scan table as CSV; a '#'-prefixed JSON line records the resolved config."""
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
        fh.write(",".join(_SCAN_COLUMNS) + "\n")
        for row in rows:
            rec = asdict(row)
            fh.write(",".join(f"{rec[c]:.12g}" for c in _SCAN_COLUMNS) + "\n")
