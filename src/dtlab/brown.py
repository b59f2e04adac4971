"""Spectral clouds of perturbed triangular models, by two independent routes.

The central experiment: sample an upper-triangular model y, add eps times a
blockwise circular perturbation aligned with the atom blocks of the quantile
diagonal, and compare the eigenvalue cloud of z = y + eps * P with the
atom-smeared measure.  Each atom block of mass a gets an independent circular
block scaled by c / sqrt(a) (entry variance c^2 / (a k)), so the perturbation
as a whole satisfies norm2(z - y) ~ eps * c * sqrt(total atom mass) <= eps * c.

Two routes to the spectral distribution are provided so neither has to be
trusted alone: the eigenvalue route through the unitary triangularization,
and a regularized log-determinant field whose discrete Laplacian recovers
the density using LU factorizations only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import ensembles, linalg, measures
from .rng import substream

__all__ = [
    "MicrostatePair",
    "perturbed_microstate",
    "GridSpec",
    "DensityField",
    "brown_logdet_grid",
    "radial_cdf_distance",
    "radial_cdf_curve",
]

#: Evenly spaced t at which ``radial_cdf_curve`` samples F(t) on [0, 1.5].
_RADIAL_CURVE_POINTS = 151

#: Ceiling on cells x k^3, the LU work of a covering grid's log-det field.
#: At k = 256 a cell takes about 1.6 ms on two cores, so the ceiling is
#: about 100 s of factorizations.
MAX_GRID_COST = 1e12


@dataclass(frozen=True, eq=False)
class MicrostatePair:
    """The perturbed microstate z = y + eps * P of a base sample y.

    ``perturbation_norm`` is the realized norm2(z - y).  It concentrates
    near eps * c * sqrt(total atom mass), so at most near eps * c.
    ``runs`` holds each atom's rows in ``mu.atoms`` order; z is block upper
    triangular along them, so an atom's spectrum is ``linalg.eigenvalues(z)[run]``.
    y itself is not kept: ``ensembles.sample_dt(DTParams(mu, c, k, seed))``
    redraws it.
    """

    z: np.ndarray
    perturbation_norm: float
    runs: tuple[slice, ...]


def perturbed_microstate(
    mu: measures.CompactMeasure, c: float, eps: float, k: int, seed: int
) -> MicrostatePair:
    """Sample z = y + eps * (blockwise circular) at size k.

    The diagonal of y uses quantile sampling, so each atom occupies a
    contiguous run of indices; the perturbation acts on exactly those runs.
    A measure without atoms leaves z = y and warns.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    y = ensembles.sample_dt(ensembles.DTParams(mu=mu, c=c, k=k, seed=seed))
    counts = measures.quantile_counts([m for _, m in mu.components()], k)
    ends = np.cumsum(counts).tolist()
    runs = tuple(slice(end - m, end) for _, m, end in zip(mu.atoms, counts, ends))
    p = np.zeros((k, k), dtype=np.complex128)
    for i, ((_, a), m, run) in enumerate(zip(mu.atoms, counts, runs)):
        variance = ensembles._entry_variance(c, a * k)
        ensembles._complex_normal(
            substream(seed, 3, i), (m, m), variance, out=p[run, run]
        )
    if not mu.atoms:
        warnings.warn(
            "measure has no atoms: perturbation is empty and z equals y",
            stacklevel=2,
        )
    # z = y + eps * p, built in p's buffer, and z - y in y's, which is not
    # kept: no k x k temporary.
    z = p
    z *= eps
    z += y
    diff = np.subtract(z, y, out=y)
    return MicrostatePair(z=z, perturbation_norm=linalg.norm2(diff), runs=runs)


# ----------------------------------------------------------------------------
# Log-determinant density route


@dataclass(frozen=True)
class GridSpec:
    """Square evaluation grid centred on the origin: n x n cell centers
    evenly spaced over [-half, half] on each axis."""

    half: float
    n: int

    def __post_init__(self):
        if not (self.half > 0):
            raise ValueError("grid half-width must be positive")
        if self.n < 3:
            raise ValueError("need at least 3 cells per axis for the Laplacian")

    @classmethod
    def square(cls, half: float, n: int) -> "GridSpec":
        return cls(half, n)

    @classmethod
    def covering(cls, a, delta_reg: float) -> "GridSpec":
        """Square grid of spacing delta_reg around the origin that covers
        the spectrum of a, as :func:`brown_logdet_grid` requires, with two
        spare cells beyond it on every side.  Refuses a grid whose cells x
        k^3 exceeds ``MAX_GRID_COST``."""
        if not (delta_reg > 0):
            raise ValueError(f"delta_reg must be positive, got {delta_reg}")
        half = 1.1 * linalg.spectral_radius_bound(a) + 2.0 * delta_reg
        k = np.shape(a)[0]
        span = 2.0 * half / delta_reg
        n = math.ceil(span) + 1 if math.isfinite(span) else math.inf
        cost = float(n) * n * k**3
        if cost > MAX_GRID_COST:
            raise ValueError(
                f"the covering grid of {float(n):.4g}^2 cells at k = {k} costs "
                f"{cost:.3g} cells x k^3 of LU work, above the ceiling "
                f"{MAX_GRID_COST:.0e}; raise delta_reg"
            )
        return cls(half, n)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half / (self.n - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(-self.half, self.half, self.n)

    @property
    def nx(self) -> int:
        return self.n

    # The grid is square: rows share the columns' centers and count.
    ys, ny = xs, nx


@dataclass(frozen=True, eq=False)
class DensityField:
    """Nonnegative density values on a grid (rows index y, columns x)."""

    grid: GridSpec
    values: np.ndarray
    delta_reg: float

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.spacing * self.grid.spacing)


def _logdet_row(xs, y, delta_reg, parts):
    """u on the grid row at height y, factoring one cell's matrix at a time."""
    g, s, kk = parts
    k = g.shape[0]
    # Cell x: (G - y K) - x S + (x^2 + y^2 + delta^2) I.
    base = y * kk
    np.subtract(g, base, out=base)
    shift = xs * xs + (y * y + delta_reg * delta_reg)
    h = np.empty_like(base)
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        np.multiply(x, s, out=h)
        np.subtract(base, h, out=h)
        h.reshape(-1)[:: k + 1] += shift[i]
        out[i] = 0.5 * linalg.lu_logabsdet_stack(h) / k
    return out


def brown_logdet_grid(a: np.ndarray, grid: GridSpec, delta_reg: float) -> DensityField:
    """Density field from the regularized log-determinant potential.

    Evaluates u(z) = log det((a - z)^* (a - z) + delta_reg^2 I) / (2 k) per
    cell through LU factorizations, with each cell's matrix assembled from
    a* a, a + a* and i (a* - a), which are formed once per call.  Then
    applies the five-point Laplacian / (2 pi), clipping at zero.  The
    boundary ring, where the Laplacian is unavailable, is left at zero.  The
    grid must cover the disk that :meth:`GridSpec.covering` covers, and its
    spacing may not exceed delta_reg.
    """
    a = linalg.as_square_matrix(a, "a")
    if not (delta_reg > 0):
        raise ValueError(f"delta_reg must be positive, got {delta_reg}")
    h = grid.spacing
    if h > delta_reg + 1e-15:
        raise ValueError(
            f"grid spacing {h:.4g} exceeds delta_reg {delta_reg:.4g}; "
            "refine the grid or increase the regularization"
        )
    bound = 1.1 * linalg.spectral_radius_bound(a)
    if grid.half < bound:
        raise ValueError(
            f"grid must cover the disk of radius {bound:.4g} around the origin"
        )
    # For w = x + i y, (a - w)* (a - w) = G - x S - y K + |w|^2 I with
    # G = a* a, S = a + a* and K = i (a* - a).
    ah = a.conj().T
    parts = (ah @ a, a + ah, 1j * (ah - a))
    xs = grid.xs
    u = np.vstack([_logdet_row(xs, y, delta_reg, parts) for y in grid.ys])
    lap = np.zeros_like(u)
    lap[1:-1, 1:-1] = (
        (u[1:-1, 2:] + u[1:-1, :-2] - 2.0 * u[1:-1, 1:-1]) / h**2
        + (u[2:, 1:-1] + u[:-2, 1:-1] - 2.0 * u[1:-1, 1:-1]) / h**2
    )
    density = np.clip(lap / (2.0 * math.pi), 0.0, None)
    density[0, :] = density[-1, :] = 0.0
    density[:, 0] = density[:, -1] = 0.0
    return DensityField(grid=grid, values=density, delta_reg=delta_reg)


# ----------------------------------------------------------------------------
# Radial goodness of fit


def radial_cdf_distance(points, center: complex, radius: float) -> float:
    """One-sample Kolmogorov-Smirnov statistic of the scaled radii against
    the uniform-disk law min(t^2, 1): sup over t >= 0 of |F(t) - min(t^2, 1)|,
    where F(t) is the fraction of points with |p - center| <= t * radius.

    The sup is taken at both one-sided limits of F at each sorted radius s_i,
    as the larger of i/n - g_i and g_i - (i - 1)/n with g_i = min(s_i^2, 1).
    """
    if not (radius > 0):
        raise ValueError("radius must be positive")
    s = np.sort(np.abs(np.asarray(points, dtype=np.complex128).ravel() - center)) / radius
    n = s.size
    if n == 0:
        raise ValueError("need at least one point")
    g = np.minimum(s**2, 1.0)
    steps = np.arange(n + 1) / n
    return float(max((steps[1:] - g).max(), (g - steps[:-1]).max()))


def radial_cdf_curve(points, center: complex, radius: float):
    """(t, F(t)) samples of the scaled radial empirical CDF on [0, 1.5]."""
    s = np.abs(np.asarray(points, dtype=np.complex128).ravel() - center) / radius
    ts = np.linspace(0.0, 1.5, _RADIAL_CURVE_POINTS)
    f = np.searchsorted(np.sort(s), ts, side="right") / s.size
    return ts, f
