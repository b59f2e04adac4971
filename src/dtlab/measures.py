"""Compactly supported planar measures: atoms plus restricted diffuse parts.

A measure here is a finite list of weighted atoms together with diffuse
pieces drawn from a deliberately small grammar (uniform disks and weighted
empirical clouds).  That grammar is closed under the one non-trivial
operation we need: smearing every atom into a uniform disk whose radius
shrinks with the perturbation scale eps,

    r_i = c * sqrt(a_i / log(1 + a_i / eps^2)),

and it keeps the close-pair analysis tractable: products of disks and clouds
admit deterministic quadrature, so the close-pair upper bound

    (nu x nu)(X_delta) + 2 * sum_i min(a_i, delta^2 c^-2 log(1 + a_i eps^-2))

is evaluated without Monte Carlo.  X_delta denotes the set of pairs at
distance < delta; nu is the diffuse part.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .rng import substream

__all__ = [
    "DiskPart",
    "EmpiricalPart",
    "CompactMeasure",
    "perturbation_radius",
    "smear_atoms",
    "overlap_bound",
    "sample_measure",
    "pair_proximity_mass",
    "disk_quantile_points",
    "quantile_counts",
    "parse_measure_spec",
]

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class DiskPart:
    """Uniform distribution on a disk, carrying the given total mass."""

    center: complex
    radius: float
    mass: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"disk radius must be positive, got {self.radius}")
        if not (0 < self.mass <= 1):
            raise ValueError(f"disk mass must be in (0, 1], got {self.mass}")
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise ValueError("disk center must be finite")


@dataclass(frozen=True, eq=False)
class EmpiricalPart:
    """Uniformly weighted point cloud, carrying the given total mass."""

    points: np.ndarray
    mass: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128).ravel()
        if pts.size == 0:
            raise ValueError("empirical part needs at least one point")
        if not np.isfinite(pts).all():
            raise ValueError("empirical points must be finite")
        if not (0 < self.mass <= 1):
            raise ValueError(f"empirical mass must be in (0, 1], got {self.mass}")
        object.__setattr__(self, "points", pts)


DiffusePart = DiskPart | EmpiricalPart


@dataclass(frozen=True)
class CompactMeasure:
    """Probability measure: finitely many atoms plus diffuse pieces.

    ``atoms`` is a tuple of (location, mass) pairs with distinct locations;
    total mass over atoms and diffuse parts must be 1 up to 1e-12.
    """

    atoms: tuple[tuple[complex, float], ...] = ()
    diffuse: tuple[DiffusePart, ...] = ()

    def __post_init__(self):
        atoms = tuple(
            (complex(z), float(a)) for z, a in self.atoms
        )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "diffuse", tuple(self.diffuse))
        for z, a in atoms:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError("atom locations must be finite")
            if not (0 < a <= 1):
                raise ValueError(f"atom masses must be in (0, 1], got {a}")
        locs = [z for z, _ in atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be pairwise distinct")
        total = sum(a for _, a in atoms) + sum(p.mass for p in self.diffuse)
        if abs(total - 1.0) > _MASS_TOL:
            raise ValueError(f"total mass must be 1, got {total!r}")

    @classmethod
    def dirac(cls, z: complex = 0j) -> "CompactMeasure":
        return cls(atoms=((complex(z), 1.0),))

    @classmethod
    def uniform_disk(cls, center: complex = 0j, radius: float = 1.0) -> "CompactMeasure":
        return cls(diffuse=(DiskPart(complex(center), float(radius), 1.0),))

    def components(self) -> list[tuple[object, float]]:
        """(component, mass) pairs, atoms first, in declaration order."""
        out: list[tuple[object, float]] = [(z, a) for z, a in self.atoms]
        out.extend((p, p.mass) for p in self.diffuse)
        return out


def perturbation_radius(a: float, c: float, eps: float) -> float:
    """Disk radius c * sqrt(a / log(1 + a / eps^2)) for an atom of mass a.

    Where eps^2 is not a normal float the logarithm is taken as
    log a - 2 log eps + log1p(eps^2 / a), and where a / eps^2 is not one,
    log1p(a / eps^2) equals a / eps^2 to every bit and the radius is c * eps.
    """
    if not (0 < a <= 1):
        raise ValueError(f"atom mass must be in (0, 1], got {a}")
    if not (c > 0):
        raise ValueError(f"c must be positive, got {c}")
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    eps2 = eps * eps
    if eps2 < sys.float_info.min:
        return c * math.sqrt(
            a / (math.log(a) - 2.0 * math.log(eps) + math.log1p(eps2 / a))
        )
    if a / eps2 < sys.float_info.min:
        return c * eps
    return c * math.sqrt(a / math.log1p(a / eps2))


def smear_atoms(mu: CompactMeasure, c: float, eps: float) -> CompactMeasure:
    """Replace every atom of mu by a uniform disk of matching mass and radius
    :func:`perturbation_radius`; diffuse parts are untouched."""
    disks = tuple(DiskPart(z, perturbation_radius(a, c, eps), a) for z, a in mu.atoms)
    return CompactMeasure(atoms=(), diffuse=disks + mu.diffuse)


# ----------------------------------------------------------------------------
# Close-pair mass


def _lens_area(d: np.ndarray, r1: float, r2: float) -> np.ndarray:
    """Areas of the intersections of disks with radii r1, r2 at center distances d."""
    d = np.asarray(d, dtype=float)
    partial = (d > abs(r1 - r2)) & (d < r1 + r2)
    # Outside the partial-overlap range the lens formula is not used; r1 + r2
    # keeps its divisions finite there.
    x = np.where(partial, d, r1 + r2)
    # Clamp the acos arguments; d near the boundary can drift past [-1, 1].
    a1 = np.clip((x * x + r1 * r1 - r2 * r2) / (2.0 * x * r1), -1.0, 1.0)
    a2 = np.clip((x * x + r2 * r2 - r1 * r1) / (2.0 * x * r2), -1.0, 1.0)
    s = (-x + r1 + r2) * (x + r1 - r2) * (x - r1 + r2) * (x + r1 + r2)
    lens = (
        r1 * r1 * np.arccos(a1)
        + r2 * r2 * np.arccos(a2)
        - 0.5 * np.sqrt(np.maximum(s, 0.0))
    )
    r = min(r1, r2)
    return np.where(partial, lens, np.where(d <= abs(r1 - r2), math.pi * r * r, 0.0))


def _same_disk_pair_prob(radius: float, delta: float) -> float:
    """P(|w1 - w2| < delta) for independent uniform points in one disk.

    Closed-form distance CDF with t = delta / radius:
    1 + (2/pi) [(t^2 - 1) acos(t/2) - (t/2)(1 + t^2/2) sqrt(1 - t^2/4)].
    """
    if delta <= 0:
        return 0.0
    t = delta / radius
    if t >= 2.0:
        return 1.0
    h = 0.5 * t
    value = 1.0 + (2.0 / math.pi) * (
        (t * t - 1.0) * math.acos(h) - h * (1.0 + 0.5 * t * t) * math.sqrt(1.0 - h * h)
    )
    return min(1.0, max(0.0, value))


def _lens_mean(
    points: np.ndarray, weights: np.ndarray, center: complex, radius: float, delta: float
) -> float:
    """Weighted mean over points w of P(|w - v| < delta), v uniform in a disk.

    For each point that probability is the area of the delta-disk about w
    inside the disk, over the disk's area.
    """
    lens = _lens_area(np.abs(points - center), delta, radius)
    value = float((weights * lens).sum() / (math.pi * radius * radius))
    return min(1.0, max(0.0, value))


_GL_NODES = 96


def _disk_disk_pair_prob(p: DiskPart, q: DiskPart, delta: float) -> float:
    """P(|w1 - w2| < delta) for independent uniform points in two disks.

    Tensor Gauss-Legendre in polar coordinates over the first disk, placed
    at the origin with the second disk's center on the positive real axis;
    the lens-area integrand is continuous, so ~1e-4 absolute accuracy at 96
    nodes per axis, which is far below the tolerances this feeds.
    """
    d12 = abs(p.center - q.center)
    if d12 >= p.radius + q.radius + delta:
        return 0.0
    x, wx = np.polynomial.legendre.leggauss(_GL_NODES)
    r = 0.5 * p.radius * (x + 1.0)
    th = math.pi * (x + 1.0)
    # Node weights (R/2) w_i r_i * pi w_j over the first disk's area pi R^2.
    weights = np.outer(wx * r, wx) / (2.0 * p.radius)
    return _lens_mean(np.outer(r, np.exp(1j * th)), weights, d12, q.radius, delta)


def _weighted_tree(z: np.ndarray) -> tuple[cKDTree, np.ndarray]:
    """k-d tree over the distinct points of z, and their multiplicities."""
    u, counts = np.unique(z, return_counts=True)
    return cKDTree(np.column_stack((u.real, u.imag))), counts.astype(float)


def _close_pairs(a: np.ndarray, b: np.ndarray, delta: float) -> int:
    """Number of ordered pairs (i, j) with |a_i - b_j| < delta.

    The trees hold distinct points, and each pair of them counts the
    product of their multiplicities: a sum of integers below 2**53, so
    exact in floating point.  The trees count distances <= r, so r is the
    largest double below delta.  They compare squared distances, so only a
    pair within a few ulps of delta can be decided differently from
    ``abs(a_i - b_j) < delta``.
    """
    tree_a, wa = _weighted_tree(a)
    tree_b, wb = (tree_a, wa) if b is a else _weighted_tree(b)
    r = np.nextafter(delta, 0.0)
    return int(tree_a.count_neighbors(tree_b, r, weights=(wa, wb)))


def _cloud_cloud_pair_prob(
    pts1: np.ndarray, pts2: np.ndarray, delta: float, same_part: bool
) -> float:
    hits = _close_pairs(pts1, pts2, delta)
    if same_part:
        # The cloud stands in for a diffuse measure: no diagonal product mass.
        n = len(pts1)
        if n < 2:
            return 0.0
        return (hits - n) / (n * (n - 1))
    return hits / (len(pts1) * len(pts2))


def _diffuse_pair_prob(p: DiffusePart, q: DiffusePart, delta: float) -> float:
    if isinstance(p, EmpiricalPart) and isinstance(q, EmpiricalPart):
        return _cloud_cloud_pair_prob(p.points, q.points, delta, p is q)
    if isinstance(p, EmpiricalPart):
        p, q = q, p
    if isinstance(q, EmpiricalPart):
        n = len(q.points)
        return _lens_mean(q.points, np.full(n, 1.0 / n), p.center, p.radius, delta)
    if p is q:
        return _same_disk_pair_prob(p.radius, delta)
    return _disk_disk_pair_prob(p, q, delta)


def diffuse_product_mass(mu: CompactMeasure, delta: float) -> float:
    """(nu x nu) mass of pairs at distance < delta over the diffuse part only."""
    parts = mu.diffuse
    total = 0.0
    for i, p in enumerate(parts):
        total += p.mass * p.mass * _diffuse_pair_prob(p, p, delta)
        for q in parts[i + 1 :]:
            total += 2.0 * p.mass * q.mass * _diffuse_pair_prob(p, q, delta)
    return total


def overlap_bound(mu: CompactMeasure, c: float, eps: float, delta: float) -> float:
    """Upper bound for the close-pair mass of the atom-smeared measure.

    Equals the diffuse close-pair mass of mu plus 2 * sum_i a_i min(1, delta/r_i)^2,
    with r_i the :func:`perturbation_radius` of atom i, that is
    2 * sum_i min(a_i, delta^2 c^-2 log(1 + a_i eps^-2)); the atom term
    dominates each smeared disk's self and cross contributions.
    """
    if not (delta > 0):
        raise ValueError("delta must be positive")
    if not (c > 0 and eps > 0):
        raise ValueError("c and eps must be positive")
    atom_term = 0.0
    for _, a in mu.atoms:
        atom_term += a * min(1.0, delta / perturbation_radius(a, c, eps)) ** 2
    return diffuse_product_mass(mu, delta) + 2.0 * atom_term


def pair_proximity_mass(points, delta: float) -> float:
    """Fraction of ordered pairs (i, j), i != j, with |p_i - p_j| < delta."""
    z = np.asarray(points, dtype=np.complex128).ravel()
    n = z.size
    if n < 2:
        raise ValueError("need at least two points")
    if not (delta > 0):
        raise ValueError("delta must be positive")
    return (_close_pairs(z, z, delta) - n) / (n * n)


# ----------------------------------------------------------------------------
# Sampling


def quantile_counts(masses, n: int) -> list[int]:
    """Largest-remainder allocation of n slots to the given masses.

    Ties in the fractional remainders are broken by component order.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    target = np.asarray(masses, dtype=float) * n
    base = np.floor(target).astype(int)
    base[np.argsort(base - target, kind="stable")[: n - base.sum()]] += 1
    return base.tolist()


def disk_quantile_points(center: complex, radius: float, n: int) -> np.ndarray:
    """Deterministic low-discrepancy points for a uniform disk.

    Radii are midpoint quantiles radius * sqrt((i + 1/2) / n), angles follow
    the golden-angle spiral; the radial empirical CDF is within 1/(2n) of the
    uniform-disk law by construction.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(n)
    r = radius * np.sqrt((i + 0.5) / n)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    theta = golden * i
    return center + r * np.exp(1j * theta)


def _sample_disk(rng, part: DiskPart, n: int, mode: str) -> np.ndarray:
    if mode == "quantile":
        u = (np.arange(n) + rng.random(n)) / n
    else:
        u = rng.random(n)
    r = part.radius * np.sqrt(u)
    theta = 2.0 * math.pi * rng.random(n)
    return part.center + r * np.exp(1j * theta)


def _sample_cloud(rng, part: EmpiricalPart, n: int, mode: str) -> np.ndarray:
    m = len(part.points)
    if mode == "quantile":
        # Systematic resampling: one uniform offset, even strides.
        idx = np.floor((np.arange(n) + rng.random()) * m / n).astype(int) % m
    else:
        idx = rng.integers(0, m, size=n)
    return part.points[idx]


def _sample_points(
    rng: np.random.Generator, mu: CompactMeasure, n: int, mode: str
) -> np.ndarray:
    if mode not in ("quantile", "iid"):
        raise ValueError(f"mode must be 'quantile' or 'iid', got {mode!r}")
    comps = mu.components()
    if mode == "quantile":
        counts = quantile_counts([m for _, m in comps], n)
    else:
        masses = np.array([m for _, m in comps])
        draws = rng.choice(len(comps), size=n, p=masses / masses.sum())
        counts = np.bincount(draws, minlength=len(comps))
    out = np.empty(n, dtype=np.complex128)
    pos = 0
    for (comp, _), cnt in zip(comps, counts):
        if cnt == 0:
            continue
        if isinstance(comp, DiskPart):
            out[pos : pos + cnt] = _sample_disk(rng, comp, cnt, mode)
        elif isinstance(comp, EmpiricalPart):
            out[pos : pos + cnt] = _sample_cloud(rng, comp, cnt, mode)
        else:
            out[pos : pos + cnt] = comp  # atom location
        pos += cnt
    return out


def sample_measure(
    mu: CompactMeasure, n: int, seed: int, mode: str = "quantile"
) -> np.ndarray:
    """n points approximating mu.

    Quantile mode allocates slots per component by largest remainder (exact
    atom multiplicities) and stratifies within diffuse parts; iid mode draws
    every point independently.  Disk points use exact polar sampling
    (radius = R * sqrt(u)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _sample_points(substream(seed, 6), mu, n, mode)


# ----------------------------------------------------------------------------
# Measure literal grammar (shared with the command line)
#
#   atom:<re>,<im>,<mass>            or  atom <re> <im> <mass>
#   disk:<re>,<im>,<radius>,<mass>   or  disk <re> <im> <radius> <mass>
#   empirical:<csv-path>,<mass>      or  empirical <csv-path> <mass>
#
# CSV point files have rows re,im; '#' lines are comments.


def _load_point_csv(path: Path) -> np.ndarray:
    pts = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: point rows need re,im columns")
            pts.append(complex(float(row[0]), float(row[1])))
    if not pts:
        raise ValueError(f"{path}: no points found")
    if not np.isfinite(pts).all():
        raise ValueError(f"{path}: point values must be finite")
    return np.array(pts)


def parse_measure_spec(specs: list[str]) -> CompactMeasure:
    """Build a measure from literal component specs (see module docstring)."""
    if not specs:
        raise ValueError("measure spec is empty")
    atoms: list[tuple[complex, float]] = []
    diffuse: list[DiffusePart] = []
    for spec in specs:
        spec = spec.strip()
        if ":" in spec:
            kind, _, rest = spec.partition(":")
            fields = rest.split(",") if rest else []
        else:
            kind, *fields = spec.split()
        try:
            if kind == "atom":
                re_, im, mass = (float(f) for f in fields)
                atoms.append((complex(re_, im), mass))
            elif kind == "disk":
                re_, im, radius, mass = (float(f) for f in fields)
                diffuse.append(DiskPart(complex(re_, im), radius, mass))
            elif kind == "empirical":
                if len(fields) != 2:
                    raise ValueError("empirical needs <csv-path>,<mass>")
                points = _load_point_csv(Path(fields[0]))
                diffuse.append(EmpiricalPart(points, float(fields[1])))
            else:
                raise ValueError(f"unknown component kind {kind!r}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad measure component {spec!r}: {exc}") from exc
    return CompactMeasure(atoms=tuple(atoms), diffuse=tuple(diffuse))
