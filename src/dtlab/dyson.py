"""Triangular-model densities and pairwise-separation box integrals.

Everything here lives in the log domain: the quantities are products of up
to n^2 pairwise factors and would under- or overflow any fixed-precision
representation otherwise.

Three routes to the separation integral are provided and cross-checked by
the tests: an exact gamma-function evaluation for the centered-box case, a
Monte Carlo pair (log-mean-exp with jackknife error, plus the certified
Jensen lower bound), and a counted-close-pairs lower bound that feeds the
packing estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp

from .measures import pair_proximity_mass
from .rng import substream

__all__ = [
    "LogEstimate",
    "SeparationEstimate",
    "log_dyson_constant",
    "log_selberg_box_integral",
    "gamma_product_rate",
    "log_separation_integral_mc",
    "separation_integral_lower_bound",
    "delta_schedule",
]

_KINDS = ("exact", "unbiased", "lower-bound")


@dataclass(frozen=True)
class LogEstimate:
    """A log-domain scalar with its error bar and epistemic status.

    kind 'exact' forces std_error 0; 'unbiased' carries a statistical error
    estimate; 'lower-bound' certifies log_value <= the true value.
    """

    log_value: float
    std_error: float
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.kind == "exact" and self.std_error != 0.0:
            raise ValueError("exact estimates carry no error bar")


@dataclass(frozen=True)
class SeparationEstimate:
    """Monte Carlo output pair for the separation box integral."""

    unbiased: LogEstimate
    jensen: LogEstimate
    trials: int
    resampled: int


def log_dyson_constant(k: int) -> float:
    """Log normalization of the triangular-model density at size k.

    (k(k-1)/2) log pi - sum_{j=1}^{k} log j!, evaluated through log-gamma.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    j = np.arange(1, k + 1)
    return float(k * (k - 1) / 2 * math.log(math.pi) - gammaln(j + 1).sum())


def _gamma_sum(n: int) -> float:
    j = np.arange(n)
    return float((gammaln(j + 2) + 2.0 * gammaln(j + 1) - gammaln(n + j + 1)).sum())


def log_selberg_box_integral(n: int, eps: float) -> LogEstimate:
    """Log of the centered-box integral of the product of pairwise distances.

    For the box [-eps, eps]^n in one real variable per point:
    n^2 log(2 eps) + sum_{j=0}^{n-1} [log G(j+2) + 2 log G(j+1) - log G(n+j+1)]
    with G the gamma function.  Exact.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    value = n * n * math.log(2.0 * eps) + _gamma_sum(n)
    return LogEstimate(log_value=value, std_error=0.0, kind="exact")


def gamma_product_rate(n: int) -> float:
    """Per-pair rate n^-2 of the gamma-product sum; tends to -2 log 2."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _gamma_sum(n) / (n * n)


_RESAMPLE_ROUNDS = 100
#: Pair values per row block of the Monte Carlo arithmetic (about 512 KB of
#: float64 per temporary), small enough that a block's passes stay in cache.
_BLOCK_PAIRS = 1 << 16


def log_separation_integral_mc(
    points, eps: float, trials: int, seed: int
) -> SeparationEstimate:
    """Monte Carlo estimates of the log separation integral around points.

    The integral runs over the product of boxes of half-width eps around the
    real and imaginary parts of each point; the integrand is the product over
    unordered pairs of squared Euclidean separations.  Returns the
    log-mean-exp estimate (delete-one jackknife error) and the Jensen lower
    bound mean-of-logs + log volume (standard error of the mean).

    Draws landing exactly on a coincidence (integrand zero) are redrawn;
    the count of redraws is reported.  Points on which too few draws are
    nondegenerate, such as two equal points at an eps whose square
    underflows, are refused with ValueError.
    """
    z = np.asarray(points, dtype=np.complex128).ravel()
    n = z.size
    if n < 1:
        raise ValueError("need at least one point")
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    log_volume = 2.0 * n * math.log(2.0 * eps)
    if n == 1:
        exactly = LogEstimate(log_volume, 0.0, "exact")
        return SeparationEstimate(exactly, exactly, trials, 0)
    rng = substream(seed, 7)
    iu, ju = np.triu_indices(n, 1)
    base_s = z.real[iu] - z.real[ju]
    base_t = z.imag[iu] - z.imag[ju]
    logg = np.empty(trials)
    resampled = 0
    filled = 0
    attempts = 0
    attempt_cap = _RESAMPLE_ROUNDS * trials
    block_rows = max(1, _BLOCK_PAIRS // iu.size)
    while filled < trials:
        if attempts >= attempt_cap:
            raise ValueError(
                f"could not draw {trials} nondegenerate samples "
                f"in {attempt_cap} attempts"
            )
        draw = min(trials - filled, block_rows)
        attempts += draw
        us = rng.uniform(-eps, eps, size=(draw, n))
        ut = rng.uniform(-eps, eps, size=(draw, n))
        # The pair arithmetic runs in place over a block that stays in
        # cache.  Each value is rounded as in (base + u_i - u_j)^2 + (...)^2,
        # and take() keeps the block C-contiguous, so every row sums its logs
        # in one order whatever the block size.
        sq = us.take(iu, axis=1)
        sq += base_s
        sq -= us.take(ju, axis=1)
        sq *= sq
        dt = ut.take(iu, axis=1)
        dt += base_t
        dt -= ut.take(ju, axis=1)
        dt *= dt
        sq += dt
        good = (sq > 0.0).all(axis=1)
        if not good.all():
            sq = sq[good]
        vals = np.log(sq, out=sq).sum(axis=1)
        logg[filled : filled + vals.size] = vals
        filled += vals.size
        resampled += draw - vals.size
    # Log-mean-exp with delete-one jackknife on the log scale.
    lse_all = float(logsumexp(logg))
    full = lse_all - math.log(trials)
    if np.ptp(logg) == 0.0:
        jackknife_se = 0.0
    else:
        m = logg.max()
        w = np.exp(logg - m)
        s = w.sum()
        rest = s - w
        if rest.min() <= 0.0:
            # One sample carries all the weight; the jackknife degenerates.
            jackknife_se = math.inf
        else:
            leave_one = m + np.log(rest) - math.log(trials - 1)
            jackknife_se = math.sqrt(
                (trials - 1) / trials * ((leave_one - leave_one.mean()) ** 2).sum()
            )
    unbiased = LogEstimate(log_volume + full, jackknife_se, "unbiased")
    jensen = LogEstimate(
        log_volume + float(logg.mean()),
        float(logg.std(ddof=1) / math.sqrt(trials)),
        "lower-bound",
    )
    return SeparationEstimate(unbiased, jensen, trials, resampled)


def separation_integral_lower_bound(points, eps: float, delta: float) -> LogEstimate:
    """Counted-close-pairs lower bound for the log separation integral.

    With w = n^2 * pair_proximity_mass(points, delta) close ordered pairs,
    the bound is

        (n^2 - w) log(delta - 3 eps)
        + 2 [ (n + w) log(2 eps) - log G(n+1) + gamma-product sum ]

    valid whenever 1 >= delta > 3 eps.
    """
    z = np.asarray(points, dtype=np.complex128).ravel()
    n = z.size
    if n < 2:
        raise ValueError("need at least two points")
    if not (0 < 3.0 * eps < delta <= 1.0):
        raise ValueError(
            f"need 1 >= delta > 3*eps, got delta={delta}, 3*eps={3.0 * eps}"
        )
    w = round(n * n * pair_proximity_mass(z, delta))
    bound = (n * n - w) * math.log(delta - 3.0 * eps) + 2.0 * (
        (n + w) * math.log(2.0 * eps) - float(gammaln(n + 1)) + _gamma_sum(n)
    )
    return LogEstimate(log_value=bound, std_error=0.0, kind="lower-bound")


_SCHEDULE_CEILING = math.exp(-4.0)


def delta_schedule(eps: float) -> float:
    """Close-pair threshold 1 / |log eps| used by the dimension scan.

    Restricted to 0 < eps < e^-4 so that the threshold stays in (0, 1/4]
    and exceeds 3 eps, as the lower-bound chain requires.
    """
    if not (0.0 < eps < _SCHEDULE_CEILING):
        raise ValueError(
            f"eps={eps} outside the admissible range (0, e^-4): "
            f"the schedule needs 0 < eps < {_SCHEDULE_CEILING:.6g}"
        )
    return 1.0 / abs(math.log(eps))
