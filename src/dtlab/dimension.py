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
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import brown, dyson, ensembles, linalg
from .errors import ConfigError
from .measures import CompactMeasure
from .rng import derive_seed

__all__ = [
    "MicrostateParams",
    "MembershipReport",
    "microstate_membership",
    "log_ball_volume",
    "packing_lower_bound_log",
    "assemble_delta_hat",
    "ScanRow",
    "dimension_scan",
    "write_scan_csv",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MicrostateParams:
    """Moment order, tolerance, and size for microstate membership."""

    m: int
    gamma: float
    k: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"moment order m must be >= 1, got {self.m}")
        if not (self.gamma > 0):
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class MembershipReport:
    passed: bool
    max_deviation: float
    worst_word: str
    order: int
    gamma: float

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_deviation": self.max_deviation,
            "worst_word": self.worst_word,
            "order": self.order,
            "gamma": self.gamma,
        }


def microstate_membership(
    a: np.ndarray, reference_moments: dict, params: MicrostateParams
) -> MembershipReport:
    """Compare the trace moments of a against a reference moment table.

    ``reference_moments`` maps words (StarWord or parseable string) to
    expected normalized traces and must cover every word of length <= m;
    a missing word is a configuration error, not a failed check.
    """
    reference = {}
    for key, value in reference_moments.items():
        word = key if isinstance(key, ensembles.StarWord) else ensembles.StarWord.parse(str(key))
        reference[word] = complex(value)
    table = ensembles.star_moment_table(a, params.m)
    worst = ""
    max_dev = 0.0
    for word, value in table.items():
        if word not in reference:
            raise ConfigError(
                f"reference moments missing word {word} at order <= {params.m}"
            )
        dev = abs(value - reference[word])
        if dev >= max_dev:
            max_dev = dev
            worst = str(word)
    return MembershipReport(
        passed=max_dev <= params.gamma,
        max_deviation=max_dev,
        worst_word=worst,
        order=params.m,
        gamma=params.gamma,
    )


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
        values = (
            self.eps,
            self.delta,
            self.f_lb_norm,
            self.const_term,
            self.delta_hat,
            self.log_packing_lb,
            self.chi_offset,
        )
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"scan row has non-finite entries: {self}")
        if self.delta_hat > _DELTA_HAT_CEILING:
            raise ValueError(
                f"delta_hat {self.delta_hat} exceeds the sanity ceiling "
                f"{_DELTA_HAT_CEILING}"
            )

    def as_dict(self) -> dict:
        return {
            "eps": self.eps,
            "delta": self.delta,
            "bigN": self.bigN,
            "k": self.k,
            "f_lb_norm": self.f_lb_norm,
            "const_term": self.const_term,
            "delta_hat": self.delta_hat,
            "log_packing_lb": self.log_packing_lb,
            "chi_offset": self.chi_offset,
        }


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
                delta_hat=total / (n * n * log_eps),
                log_packing_lb=total,
                chi_offset=chi_offset,
            )
        except (ConfigError, ValueError) as exc:
            logger.warning("scan skips eps=%g: %s", eps, exc)
            continue
        rows.append(row)
    return rows


_SCAN_COLUMNS = ("eps", "delta", "bigN", "k", "f_lb_norm", "const_term", "delta_hat")


def write_scan_csv(rows: list[ScanRow], path, config: dict | None = None) -> None:
    """Scan table as CSV; a '#'-prefixed JSON line records the resolved config."""
    with open(path, "w", newline="") as fh:
        if config is not None:
            fh.write("# " + json.dumps(config, sort_keys=True) + "\n")
        fh.write(",".join(_SCAN_COLUMNS) + "\n")
        for row in rows:
            rec = row.as_dict()
            fh.write(",".join(f"{rec[c]:.12g}" for c in _SCAN_COLUMNS) + "\n")
