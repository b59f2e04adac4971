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

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import ensembles, linalg, measures
from .errors import ConfigError
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


@dataclass(frozen=True, eq=False)
class MicrostatePair:
    """Base sample y and its perturbed companion z = y + eps * P.

    ``perturbation_norm`` is the realized norm2(z - y); ``norm_budget`` is
    the target scale eps * c it concentrates under (total atom mass 1).
    ``atom_slices`` gives the contiguous diagonal index range of each atom
    block in declaration order.
    """

    y: np.ndarray
    z: np.ndarray
    eps: float
    c: float
    perturbation_norm: float
    norm_budget: float
    atom_slices: tuple[tuple[int, int], ...]
    empty_perturbation: bool


def perturbed_microstate(
    mu: measures.CompactMeasure, c: float, eps: float, k: int, seed: int
) -> MicrostatePair:
    """Sample y and z = y + eps * (blockwise circular) at size k.

    The diagonal of y uses quantile sampling, so each atom occupies a
    contiguous run of indices; the perturbation acts on exactly those runs.
    A measure without atoms leaves z = y and warns.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    y = ensembles.sample_dt(ensembles.DTParams(mu=mu, c=c, k=k, seed=seed))
    counts = measures.quantile_allocation(mu, k)
    slices: list[tuple[int, int]] = []
    pos = 0
    for i in range(len(mu.atoms)):
        slices.append((pos, pos + counts[i]))
        pos += counts[i]
    p = np.zeros((k, k), dtype=np.complex128)
    for i, ((lo, hi), (_, a)) in enumerate(zip(slices, mu.atoms)):
        m = hi - lo
        if m == 0:
            continue
        p[lo:hi, lo:hi] = ensembles._ginibre(
            substream(seed, 3, i), m, c * c / (a * k)
        )
    if not mu.atoms:
        warnings.warn(
            "measure has no atoms: perturbation is empty and z equals y",
            stacklevel=2,
        )
    # z = y + eps * p, built in p's buffer: no k x k temporaries.
    z = p
    z *= eps
    z += y
    return MicrostatePair(
        y=y,
        z=z,
        eps=eps,
        c=c,
        perturbation_norm=linalg.norm2(z - y),
        norm_budget=eps * c,
        atom_slices=tuple(slices),
        empty_perturbation=not mu.atoms,
    )


# ----------------------------------------------------------------------------
# Log-determinant density route


def _covering_radius(a: np.ndarray) -> float:
    """1.1 times the smaller of two spectral radius bounds of a: the power
    bound and the largest absolute row sum."""
    return 1.1 * min(
        linalg.spectral_radius_bound(a), float(np.abs(a).sum(axis=1).max())
    )


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid: cell centers, uniform spacing."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("grid rectangle is empty")
        if self.nx < 3 or self.ny < 3:
            raise ValueError("need at least 3 cells per axis for the Laplacian")

    @classmethod
    def square(cls, half_width: float, n: int) -> "GridSpec":
        return cls(-half_width, half_width, -half_width, half_width, n, n)

    @classmethod
    def covering(cls, a, delta_reg: float) -> "GridSpec":
        """Square grid of spacing delta_reg around the origin that covers
        the spectrum of a, as :func:`brown_logdet_grid` requires, with two
        spare cells beyond it on every side."""
        if not (delta_reg > 0):
            raise ConfigError(f"delta_reg must be positive, got {delta_reg}")
        half = _covering_radius(a) + 2.0 * delta_reg
        return cls.square(half, int(math.ceil(2.0 * half / delta_reg)) + 1)

    @property
    def dx(self) -> float:
        return (self.xmax - self.xmin) / (self.nx - 1)

    @property
    def dy(self) -> float:
        return (self.ymax - self.ymin) / (self.ny - 1)

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.xmin, self.xmax, self.nx)

    @property
    def ys(self) -> np.ndarray:
        return np.linspace(self.ymin, self.ymax, self.ny)

    def as_dict(self) -> dict:
        return {
            "xmin": self.xmin,
            "xmax": self.xmax,
            "ymin": self.ymin,
            "ymax": self.ymax,
            "nx": self.nx,
            "ny": self.ny,
        }


@dataclass(frozen=True, eq=False)
class DensityField:
    """Nonnegative density values on a grid (rows index y, columns x)."""

    grid: GridSpec
    values: np.ndarray
    delta_reg: float

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.grid.dx * self.grid.dy)

    def mass_within(self, center: complex, radius: float) -> float:
        """Density mass inside the disk of the given center and radius."""
        zs = self.grid.xs[None, :] + 1j * self.grid.ys[:, None]
        inside = np.abs(zs - center) <= radius
        return float(self.values[inside].sum() * self.grid.dx * self.grid.dy)

    def to_csv(self, path, extra_header: dict | None = None) -> None:
        """Write '# <json header>' then x,y,density rows (row-major in y)."""
        header = {
            "grid": self.grid.as_dict(),
            "delta_reg": self.delta_reg,
            "mass": self.mass,
        }
        if extra_header:
            header.update(extra_header)
        xs, ys = self.grid.xs, self.grid.ys
        with open(path, "w", newline="") as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            fh.write("x,y,density\n")
            for j, yv in enumerate(ys):
                for i, xv in enumerate(xs):
                    fh.write(f"{xv:.10g},{yv:.10g},{self.values[j, i]:.10g}\n")


def _logdet_row(xs, y, delta_reg, diag, parts):
    """u on the grid row at height y."""
    if diag is not None:
        k = diag.size
        d = diag[None, :] - (xs + 1j * y)[:, None]
        return 0.5 * np.log(np.abs(d) ** 2 + delta_reg**2).sum(axis=1) / k
    g, s, kk = parts
    k = g.shape[0]
    # Cell x: (G - y K) - x S + (x^2 + y^2 + delta^2) I.
    base = g - y * kk
    shift = xs * xs + (y * y + delta_reg * delta_reg)
    out = np.empty(len(xs))
    budget = max(1, (64 << 20) // (16 * k * k))
    for lo in range(0, len(xs), budget):
        hi = min(lo + budget, len(xs))
        h = np.multiply(xs[lo:hi, None, None], s[None, :, :])
        np.subtract(base[None, :, :], h, out=h)
        h.reshape(hi - lo, k * k)[:, :: k + 1] += shift[lo:hi, None]
        out[lo:hi] = 0.5 * linalg.lu_logabsdet_stack(h) / k
    return out


def brown_logdet_grid(a: np.ndarray, grid: GridSpec, delta_reg: float) -> DensityField:
    """Density field from the regularized log-determinant potential.

    Evaluates u(z) = log det((a - z)^* (a - z) + delta_reg^2 I) / (2 k) per
    cell through LU factorizations (diagonal input takes a closed-form path),
    with each cell's matrix assembled from a* a, a + a* and i (a* - a), which
    are formed once per call.  Then applies the five-point Laplacian / (2 pi),
    clipping at zero.  The boundary ring, where the Laplacian is unavailable,
    is left at zero.  The grid must cover the disk that
    :meth:`GridSpec.covering` covers, and its spacing may not exceed
    delta_reg.
    """
    a = linalg.as_square_matrix(a, "a")
    if not (delta_reg > 0):
        raise ConfigError(f"delta_reg must be positive, got {delta_reg}")
    spacing = max(grid.dx, grid.dy)
    if spacing > delta_reg + 1e-15:
        raise ConfigError(
            f"grid spacing {spacing:.4g} exceeds delta_reg {delta_reg:.4g}; "
            "refine the grid or increase the regularization"
        )
    bound = _covering_radius(a)
    if grid.xmin > -bound or grid.xmax < bound or grid.ymin > -bound or grid.ymax < bound:
        raise ConfigError(
            f"grid must cover the disk of radius {bound:.4g} around the origin"
        )
    d = np.diag(a).copy()
    diag = d if np.count_nonzero(a - np.diag(d)) == 0 else None
    parts = None
    if diag is None:
        # For w = x + i y, (a - w)* (a - w) = G - x S - y K + |w|^2 I with
        # G = a* a, S = a + a* and K = i (a* - a).
        ah = a.conj().T
        parts = (ah @ a, a + ah, 1j * (ah - a))
    xs = grid.xs
    u = np.vstack([_logdet_row(xs, y, delta_reg, diag, parts) for y in grid.ys])
    lap = np.zeros_like(u)
    lap[1:-1, 1:-1] = (
        (u[1:-1, 2:] + u[1:-1, :-2] - 2.0 * u[1:-1, 1:-1]) / grid.dx**2
        + (u[2:, 1:-1] + u[:-2, 1:-1] - 2.0 * u[1:-1, 1:-1]) / grid.dy**2
    )
    density = np.clip(lap / (2.0 * math.pi), 0.0, None)
    density[0, :] = density[-1, :] = 0.0
    density[:, 0] = density[:, -1] = 0.0
    return DensityField(grid=grid, values=density, delta_reg=delta_reg)


# ----------------------------------------------------------------------------
# Radial goodness of fit


def radial_cdf_distance(points, center: complex, radius: float) -> float:
    """Sup distance on t in [0, 1.5] between the scaled radial empirical CDF
    and the uniform-disk law min(t^2, 1).

    F(t) is the fraction of points with |p - center| <= t * radius; the sup
    runs over both one-sided limits at every jump inside [0, 1.5] plus the
    right endpoint, which accounts for mass beyond 1.5 * radius.
    """
    if not (radius > 0):
        raise ValueError("radius must be positive")
    s = np.sort(np.abs(np.asarray(points, dtype=np.complex128).ravel() - center)) / radius
    n = s.size
    if n == 0:
        raise ValueError("need at least one point")
    inside = s[s <= 1.5]
    g = np.minimum(inside**2, 1.0)
    hi = (np.arange(1, inside.size + 1)) / n
    lo = (np.arange(0, inside.size)) / n
    best = 0.0
    if inside.size:
        best = float(np.maximum(np.abs(hi - g), np.abs(lo - g)).max())
    f_end = inside.size / n
    return max(best, abs(f_end - 1.0))


def radial_cdf_curve(points, center: complex, radius: float, num: int = 151):
    """(t, F(t)) samples of the scaled radial empirical CDF on [0, 1.5]."""
    s = np.abs(np.asarray(points, dtype=np.complex128).ravel() - center) / radius
    ts = np.linspace(0.0, 1.5, num)
    f = np.searchsorted(np.sort(s), ts, side="right") / s.size
    return ts, f
