"""Independent oracles for every benchmark operation.

Each check recomputes what an operation produced through a route that shares
no code with the path it audits: LAPACK eigenvalues with an optimal
assignment, singular values for log-determinants, closed forms evaluated with
``math.lgamma``, plain numpy traces, and an independent Monte Carlo estimate
for the quadrature behind ``overlap_bound``.  Nothing here imports dtlab.
A failed check raises :class:`CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

EIG_REL_TOL = 1e-12
SCHUR_TOL = 1e-10
IDENTITY_TOL = 1e-12


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(got: float, want: float, rel: float = 0.0, abs_: float = 0.0) -> bool:
    return abs(got - want) <= max(rel * abs(want), abs_)


# ----------------------------------------------------------------------------
# Readers for the CLI's output files


def read_csv_rows(path: Path) -> tuple[list[str], np.ndarray]:
    """Column names and float rows of a '# <json>'-headed CLI CSV file."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    columns = lines[0].strip().split(",")
    rows = np.array(
        [[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float
    ).reshape(-1, len(columns))
    return columns, rows


def read_eigenvalues(path: Path) -> np.ndarray:
    columns, rows = read_csv_rows(path)
    require(columns == ["re", "im"], f"{path.name}: unexpected columns {columns}")
    return rows[:, 0] + 1j * rows[:, 1]


def read_matrix(path: Path) -> np.ndarray:
    """Dense matrix from the sample command's 'i,j,re,im' rows."""
    rows = np.loadtxt(path, delimiter=",", comments="#", skiprows=2)
    k = int(rows[:, 0].max()) + 1
    a = np.zeros((k, k), dtype=np.complex128)
    a[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2] + 1j * rows[:, 3]
    return a


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------------
# Eigenvalues and Schur forms (criterion 1)


def matched_rel_err(lam: np.ndarray, ref: np.ndarray) -> float:
    """Largest |lam - ref| after an optimal assignment, over max |ref|."""
    lam = np.asarray(lam, dtype=np.complex128).ravel()
    ref = np.asarray(ref, dtype=np.complex128).ravel()
    require(lam.size == ref.size, f"{lam.size} eigenvalues, expected {ref.size}")
    cost = np.abs(lam[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    scale = max(float(np.abs(ref).max()), np.finfo(float).tiny)
    return float(cost[rows, cols].max() / scale)


def check_eigenvalues(lam: np.ndarray, a: np.ndarray) -> None:
    err = matched_rel_err(lam, np.linalg.eigvals(a))
    require(err <= EIG_REL_TOL, f"eigenvalues off LAPACK by {err:.3e} relative")


def check_schur(a: np.ndarray, t: np.ndarray, q: np.ndarray) -> None:
    k = a.shape[0]
    residual = np.linalg.norm(a - q @ t @ q.conj().T, ord="fro")
    defect = np.linalg.norm(q.conj().T @ q - np.eye(k), ord="fro")
    require(residual <= SCHUR_TOL, f"Schur residual {residual:.3e}")
    require(defect <= SCHUR_TOL * math.sqrt(k), f"unitarity defect {defect:.3e}")
    require(not np.tril(t, -1).any(), "Schur factor is not upper triangular")
    check_eigenvalues(np.diag(t), a)


def radial_distance(points: np.ndarray, center: complex, radius: float) -> float:
    """Sup distance on [0, 1.5] between the scaled radial CDF and min(t^2, 1)."""
    s = np.sort(np.abs(points - center)) / radius
    n = s.size
    worst = 0.0
    for i, t in enumerate(s):
        if t > 1.5:
            break
        law = min(t * t, 1.0)
        worst = max(worst, abs(i / n - law), abs((i + 1) / n - law))
    return max(worst, 1.0 - np.count_nonzero(s <= 1.5) / n)


def check_brown(out: Path, z: np.ndarray, eps: float) -> None:
    """Spectrum of a Dirac-at-0 microstate and its disk-law verdict."""
    lam = read_eigenvalues(out / "eigenvalues.csv")
    check_eigenvalues(lam, z)
    verdict = read_json(out / "verdict.json")["disk_law"]["atom_0"]
    radius = 1.0 / math.sqrt(math.log1p(1.0 / (eps * eps)))
    require(close(verdict["radius"], radius, rel=1e-12), "disk-law radius")
    want = radial_distance(lam, 0j, radius)
    require(close(verdict["distance"], want, abs_=1e-12), "disk-law distance")
    require(verdict["passed"], f"disk-law verdict failed at eps={eps}")


# ----------------------------------------------------------------------------
# Dimension scan (criterion 9)


def _log_ball_volume(dim: int, radius: float) -> float:
    if dim == 0:
        return 0.0
    return (
        0.5 * dim * math.log(math.pi)
        + dim * math.log(radius)
        - math.lgamma(0.5 * dim + 1.0)
    )


def packing_lower_bound_log(eps: float, bigN: int, k: int, f_lb_total: float) -> float:
    """The scan's log packing bound, rebuilt from its definition."""
    n = bigN * k
    log_dyson = n * (n - 1) / 2 * math.log(math.pi) - math.fsum(
        math.lgamma(j + 2) for j in range(n)
    )
    pairs_dim = k * k * bigN * (bigN - 1)
    return (
        log_dyson
        + f_lb_total
        + _log_ball_volume(bigN * k * (k - 1), math.sqrt(n) * eps)
        + (pairs_dim / 2.0) * math.log(bigN)
        + math.lgamma(n * n + 1)
        - (n * n) * math.log(math.pi * (6.0 * math.sqrt(n) * eps) ** 2)
    )


def check_scan(out: Path, bigN: int, k: int, grid: list[float]) -> None:
    summary = read_json(out / "summary.json")
    rows = summary["rows"]
    require([r["eps"] for r in rows] == grid, f"scan rows {[r['eps'] for r in rows]}")
    require(summary["trend_ok"], "scan trend verdict failed")
    n2 = (bigN * k) ** 2
    for r in rows:
        eps = r["eps"]
        log_eps = abs(math.log(eps))
        require(r["bigN"] == bigN and r["k"] == k, "scan row sizes")
        require(close(r["delta"], 1.0 / log_eps, rel=IDENTITY_TOL), "delta schedule")
        leading = r["delta_hat"] - (r["f_lb_norm"] + r["const_term"]) / log_eps
        require(close(leading, 2.0 - 1.0 / bigN, abs_=IDENTITY_TOL), "leading term")
        packing = packing_lower_bound_log(eps, bigN, k, r["f_lb_norm"] * n2)
        require(close(r["log_packing_lb"], packing, rel=IDENTITY_TOL), "packing bound")
        require(
            close(r["delta_hat"], r["log_packing_lb"] / (n2 * log_eps), rel=IDENTITY_TOL),
            "delta_hat normalization",
        )
    columns, table = read_csv_rows(out / "scan.csv")
    require(len(table) == len(grid), f"scan.csv has {len(table)} rows")
    for r, line in zip(rows, table):
        for name, value in zip(columns, line):
            require(close(value, r[name], rel=1e-11), f"scan.csv {name}")


# ----------------------------------------------------------------------------
# Density and moments


def _log_potential(z: np.ndarray, point: complex, delta_reg: float) -> float:
    """log det((z - p)^*(z - p) + delta^2) / (2k) from singular values."""
    k = z.shape[0]
    sv = np.linalg.svd(z - point * np.eye(k), compute_uv=False)
    return float(np.log(sv * sv + delta_reg * delta_reg).sum() / (2 * k))


def check_density(values: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                  z: np.ndarray, delta_reg: float) -> None:
    """Five-point Laplacian of the log potential at three interior cells."""
    ny, nx = values.shape
    require((ny, nx) == (ys.size, xs.size), "density grid shape")
    require(not values[[0, -1], :].any() and not values[:, [0, -1]].any(),
            "density boundary ring is not zero")
    require(values.min() >= 0.0, "negative density")
    dx, dy = xs[1] - xs[0], ys[1] - ys[0]
    for j, i in ((ny // 2, nx // 2), (ny // 3, nx // 2), (ny // 2, 2 * nx // 3)):
        u = {
            (dj, di): _log_potential(z, complex(xs[i + di], ys[j + dj]), delta_reg)
            for dj, di in ((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0))
        }
        lap = (u[0, 1] + u[0, -1] - 2 * u[0, 0]) / dx**2 + (
            u[1, 0] + u[-1, 0] - 2 * u[0, 0]
        ) / dy**2
        want = max(lap / (2 * math.pi), 0.0)
        require(close(values[j, i], want, abs_=1e-9), f"density at cell ({j}, {i})")


def word_trace(a: np.ndarray, word: str) -> complex:
    """Normalized trace of a single-generator star word such as 'aa*a'."""
    adj = a.conj().T
    prod = np.eye(a.shape[0], dtype=np.complex128)
    for pos, ch in enumerate(word):
        if ch == "*":
            continue
        require(ch == "a", f"unexpected letter in word {word!r}")
        starred = pos + 1 < len(word) and word[pos + 1] == "*"
        prod = prod @ (adj if starred else a)
    return complex(np.trace(prod) / a.shape[0])


def check_sample(out: Path, order: int) -> None:
    a = read_matrix(out / "matrix.csv")
    require(not np.tril(a, -1).any(), "sampled matrix is not upper triangular")
    lam = read_eigenvalues(out / "eigenvalues.csv")
    err = matched_rel_err(lam, np.diag(a))
    require(err <= EIG_REL_TOL, f"triangular spectrum off its diagonal by {err:.3e}")
    moments = read_json(out / "moments.json")["moments"]
    require(len(moments) == 2 ** (order + 1) - 2, f"{len(moments)} moment words")
    for word, (re_, im) in moments.items():
        want = word_trace(a, word)
        got = complex(re_, im)
        require(abs(got - want) <= 1e-10 * max(1.0, abs(want)), f"moment {word}")


def freeness_product_count(members: int, order: int) -> int:
    """Alternating products of >= 2 centered factors, total length <= order.

    A product of total length L with r factors has C(L-1, r-1) length
    splits, 2^L adjoint patterns and m (m-1)^(r-1) member sequences; summing
    over r >= 2 gives 2^L (m^L - m).
    """
    return sum(2**length * (members**length - members) for length in range(2, order + 1))


def check_freeness(out: Path, members: int, order: int) -> None:
    report = read_json(out / "freeness.json")
    want = freeness_product_count(members, order)
    require(report["products_checked"] == want,
            f"{report['products_checked']} products checked, expected {want}")
    require(report["passed"] == (report["max_abs_trace"] <= report["gamma"]),
            "freeness verdict disagrees with its own maximum")
    require(report["passed"], "freeness check failed")


def _gamma_sum(n: int) -> float:
    return math.fsum(
        math.lgamma(j + 2) + 2.0 * math.lgamma(j + 1) - math.lgamma(n + j + 1)
        for j in range(n)
    )


def check_eeps(out: Path, points: np.ndarray, eps: float, delta: float,
               trials: int) -> None:
    """Counted-pairs lower bound rebuilt from LAPACK points; Jensen ordering."""
    payload = read_json(out / "eeps.json")
    require(payload["ordering_ok"], "estimator ordering failed")
    require(payload["trials"] == trials, "trial count")
    unbiased, jensen, lower = payload["unbiased"], payload["jensen"], payload["lower_bound"]
    # log-mean-exp dominates mean-of-logs for every sample.
    require(unbiased["log_value"] >= jensen["log_value"] - 1e-9, "Jensen ordering")
    n = points.size
    require(lower["n"] == n, "point count")
    d = np.abs(points[:, None] - points[None, :])
    w = int(np.count_nonzero(d < delta)) - n
    want = (n * n - w) * math.log(delta - 3.0 * eps) + 2.0 * (
        (n + w) * math.log(2.0 * eps) - math.lgamma(n + 1) + _gamma_sum(n)
    )
    require(close(lower["log_value"], want, rel=1e-12), "counted-pairs lower bound")


def check_selberg(out: Path, grid: list[int]) -> None:
    """Box integrals against the Selberg closed form (criterion 2)."""
    columns, rows = read_csv_rows(out / "selberg.csv")
    require([int(n) for n in rows[:, 0]] == grid, "selberg rows")
    limit = -2.0 * math.log(2.0)
    for n, box, rate, gap in rows:
        n = int(n)
        require(close(box, n * n * math.log(2.0) + _gamma_sum(n), rel=1e-12),
                f"box integral at n={n}")
        require(close(rate, _gamma_sum(n) / (n * n), rel=1e-12), f"rate at n={n}")
        require(close(gap, rate - limit, abs_=1e-15), f"rate gap at n={n}")
        if n == 2:
            require(close(box, math.log(8.0 / 3.0), abs_=1e-12), "log(8/3) at n=2")
    require(read_json(out / "selberg.json")["converging"], "rate not converging")


def diffuse_close_mass_mc(disks, deltas, rng: np.random.Generator,
                          draws: int = 400_000) -> list[tuple[float, float]]:
    """Monte Carlo (mass, std error) of (nu x nu){|w1 - w2| < delta}.

    ``disks`` are (center, radius, mass) triples making up nu.
    """
    masses = np.array([m for _, _, m in disks])
    total = masses.sum()

    def draw() -> np.ndarray:
        comp = rng.choice(len(disks), size=draws, p=masses / total)
        centers = np.array([c for c, _, _ in disks])[comp]
        radii = np.array([r for _, r, _ in disks])[comp]
        r = radii * np.sqrt(rng.uniform(size=draws))
        return centers + r * np.exp(2j * math.pi * rng.uniform(size=draws))

    dist = np.abs(draw() - draw())
    out = []
    for delta in deltas:
        p = float(np.count_nonzero(dist < delta)) / draws
        out.append((total**2 * p, total**2 * math.sqrt(p * (1 - p) / draws)))
    return out


def check_overlap(bounds: dict, atoms, disks, c: float,
                  rng: np.random.Generator) -> None:
    """overlap_bound = diffuse close-pair mass + 2 * sum of capped atom terms."""
    deltas = sorted({d for _, d in bounds})
    mc = dict(zip(deltas, diffuse_close_mass_mc(disks, deltas, rng)))
    for (eps, delta), got in bounds.items():
        atom_term = sum(
            min(a, (delta * delta / (c * c)) * math.log1p(a / (eps * eps)))
            for _, a in atoms
        )
        mass, se = mc[delta]
        diffuse = got - 2.0 * atom_term
        require(abs(diffuse - mass) <= 6.0 * se + 2e-4,
                f"overlap diffuse mass {diffuse:.5f} vs Monte Carlo {mass:.5f} "
                f"at eps={eps} delta={delta}")
