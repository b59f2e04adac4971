"""Spectral distribution and microstate tests.

The grid route (log-determinant field plus discrete Laplacian) is checked
against plain eigenvalue counting on normal matrices, where both answers are
known in closed form.
"""

import json
import math
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from scipy.stats import ks_1samp

from dtlab import brown, cli, ensembles, linalg, measures
from dtlab.brown import DensityField, GridSpec


DELTA0 = measures.CompactMeasure.dirac(0.0)


def uniform_disk_matrix(n: int) -> np.ndarray:
    return np.diag(measures.disk_quantile_points(0j, 1.0, n))


# ----------------------------------------------------------------------------
# Eigenvalue route


def mass_within(field: DensityField, center: complex, radius: float) -> float:
    """Density mass of the grid cells whose centers lie inside the disk."""
    zs = field.grid.xs[None, :] + 1j * field.grid.ys[:, None]
    inside = np.abs(zs - center) <= radius
    return float(field.values[inside].sum() * field.grid.spacing**2)


def test_eigenvalues_of_a_diagonal_matrix():
    vals = np.array([1 + 1j, 0.0, 2.0, -3j])
    got = linalg.eigenvalues(np.diag(vals))
    assert np.allclose(np.sort_complex(got), np.sort_complex(vals), atol=1e-12)


def test_eigenvalues_ignore_the_nilpotent_part():
    diag = np.array([0.5, -0.5, 1j, -1j, 2.0, 0.0])
    a = np.diag(diag) + np.triu(np.full((6, 6), 0.3 + 0.1j), k=1)
    got = linalg.eigenvalues(a)
    assert np.allclose(np.sort_complex(got), np.sort_complex(diag), atol=1e-8)


# ----------------------------------------------------------------------------
# Perturbed microstates


def base_sample(mu, c, k, seed):
    """The y of ``perturbed_microstate(mu, c, eps, k, seed)``, drawn again."""
    return ensembles.sample_dt(ensembles.DTParams(mu, c, k, seed))


def test_microstate_blocks_follow_atom_masses():
    mu = measures.parse_measure_spec(["atom:1,0,0.5", "atom:-1,0,0.5"])
    pair = brown.perturbed_microstate(mu, c=1.0, eps=0.5, k=8, seed=4)
    y = base_sample(mu, c=1.0, k=8, seed=4)
    assert np.allclose(np.diag(y), [1, 1, 1, 1, -1, -1, -1, -1])
    diff = pair.z - y
    # The perturbation lives inside the diagonal atom blocks only.
    assert np.allclose(diff[:4, 4:], 0.0)
    assert np.allclose(diff[4:, :4], 0.0)
    assert np.abs(diff[:4, :4]).max() > 0.0
    assert np.abs(diff[4:, 4:]).max() > 0.0


def test_microstate_perturbation_norm_tracks_eps_c():
    # Each atom block carries enough independent entries at k = 512 for the
    # Frobenius norm to concentrate near its mean eps * c.
    mu = measures.parse_measure_spec(["atom:0,0,0.75", "atom:2,0,0.25"])
    for eps, c in ((0.5, 1.0), (1.0, 0.8)):
        pair = brown.perturbed_microstate(mu, c=c, eps=eps, k=512, seed=9)
        y = base_sample(mu, c=c, k=512, seed=9)
        assert pair.perturbation_norm == pytest.approx(eps * c, rel=0.05)
        assert linalg.norm2(pair.z - y) == pytest.approx(
            pair.perturbation_norm, rel=1e-12
        )


def test_microstate_retains_only_z():
    # The pair keeps z and no copy of y, so one k x k complex matrix (1.00
    # measured) stays allocated after the call; a kept y would double it.
    mu = measures.parse_measure_spec(["atom:0,0,0.5", "disk:0,0,1,0.5"])
    k = 512
    tracemalloc.start()
    try:
        pair = brown.perturbed_microstate(mu, 1.0, 0.5, k, seed=2)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pair.z.nbytes == k * k * 16
    assert retained <= 1.1 * k * k * 16


def test_microstate_peak_memory_at_k_512():
    # y, z and one block's float draws: 2.50 k x k complex matrices measured
    # for a Dirac mu, whose one block is the whole matrix.  Drawing the block
    # into a fresh array, copying it into z and forming z - y as a new
    # matrix measured 3.50.
    k = 512
    tracemalloc.start()
    try:
        brown.perturbed_microstate(DELTA0, 1.0, 0.5, k, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * k * k * 16


def test_microstate_refuses_a_c_whose_variance_overflows():
    # c^2 / (a k) overflows above c of about 1.3e154: refused by name before
    # the draw, with no RuntimeWarning from the NaNs it would make.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"c = 1e\+160 is too large"):
            brown.perturbed_microstate(DELTA0, 1e160, 0.5, 8, seed=1)
        pair = brown.perturbed_microstate(DELTA0, 1e150, 0.5, 8, seed=1)
    assert np.isfinite(pair.z).all()


def test_microstate_deterministic_per_seed():
    a = brown.perturbed_microstate(DELTA0, 1.0, 0.5, 32, seed=7)
    b = brown.perturbed_microstate(DELTA0, 1.0, 0.5, 32, seed=7)
    c = brown.perturbed_microstate(DELTA0, 1.0, 0.5, 32, seed=8)
    assert np.array_equal(a.z, b.z)
    assert not np.array_equal(a.z, c.z)


def test_microstate_without_atoms_warns_and_degenerates():
    mu = measures.CompactMeasure.uniform_disk(0j, 1.0)
    with pytest.warns(UserWarning):
        pair = brown.perturbed_microstate(mu, 1.0, 0.5, 16, seed=1)
    assert np.array_equal(pair.z, base_sample(mu, c=1.0, k=16, seed=1))


# ----------------------------------------------------------------------------
# Radial distribution summaries


def test_radial_distance_of_degenerate_cloud_is_one():
    pts = np.zeros(16, dtype=complex)
    assert brown.radial_cdf_distance(pts, 0j, 1.0) == pytest.approx(1.0)


def test_radial_distance_of_quantile_points_is_half_spacing():
    n = 64
    pts = measures.disk_quantile_points(0j, 1.0, n)
    assert brown.radial_cdf_distance(pts, 0j, 1.0) == pytest.approx(
        1.0 / (2 * n), abs=1e-10
    )


def test_radial_distance_is_the_one_sample_ks_statistic():
    # scipy's Kolmogorov-Smirnov statistic against the disk law min(t^2, 1)
    # shares no code with the distance, and must give the same bytes.
    rng = np.random.default_rng(28)
    cloud = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    clouds = {
        "gaussian": cloud,
        "ties": np.repeat(cloud[:20], 5),
        "radii 1 and 1.5": np.concatenate([cloud[:30], np.ones(7), np.full(5, 1.5j)]),
        "all beyond 1.5": 1.6 + np.abs(cloud[:9]),
        "one inside": np.array([0.3 + 0.4j]),
        "one beyond": np.array([2.0]),
        "one at 1.5": np.array([1.5]),
        "quantile disk": measures.disk_quantile_points(0j, 1.0, 64),
    }
    for name, pts in clouds.items():
        for radius in (1.0, 0.7):
            expected = ks_1samp(
                np.abs(pts) / radius, lambda t: np.minimum(t * t, 1.0), method="asymp"
            ).statistic
            got = brown.radial_cdf_distance(pts, 0j, radius)
            assert got == expected, (name, radius)


def test_radial_curve_is_an_empirical_cdf():
    pts = measures.disk_quantile_points(0j, 1.0, 32)
    radii, cdf = brown.radial_cdf_curve(pts, 0j, 1.0)
    assert len(radii) == len(cdf) == 151
    assert radii[0] == 0.0 and radii[-1] == pytest.approx(1.5)
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= 0.0)
    # The sup gap to the uniform-disk law r^2 is what the distance reports.
    model = np.clip(radii, 0.0, 1.0) ** 2
    sup = np.max(np.abs(cdf - model))
    assert sup <= brown.radial_cdf_distance(pts, 0j, 1.0) + 1e-12


# ----------------------------------------------------------------------------
# Log-determinant density field


def test_density_of_normal_matrix_matches_counting():
    a = uniform_disk_matrix(128)
    field = brown.brown_logdet_grid(a, GridSpec.square(1.5, 64), delta_reg=0.05)
    assert field.mass == pytest.approx(1.0, abs=0.02)
    # Uniform disk: mass within radius r is r^2.
    assert mass_within(field, 0j, 1.0) == pytest.approx(1.0, abs=0.06)
    assert mass_within(field, 0j, 0.5) == pytest.approx(0.25, abs=0.05)


def test_density_follows_a_shifted_spectrum():
    shift = 0.5 + 0.5j
    a = np.diag(measures.disk_quantile_points(shift, 0.8, 96))
    field = brown.brown_logdet_grid(a, GridSpec.square(2.0, 64), delta_reg=0.07)
    assert field.mass == pytest.approx(1.0, abs=0.02)
    assert mass_within(field, shift, 0.8) > 0.9
    assert mass_within(field, -shift, 0.3) < 0.05


def test_density_of_nonnormal_microstate_concentrates_on_a_disk():
    pair = brown.perturbed_microstate(DELTA0, c=1.0, eps=1.0, k=128, seed=3)
    field = brown.brown_logdet_grid(
        pair.z, GridSpec.square(2.0, 48), delta_reg=0.09
    )
    r_eps = measures.perturbation_radius(1.0, 1.0, 1.0)
    assert field.mass == pytest.approx(1.0, abs=0.05)
    assert mass_within(field, 0j, 1.1 * r_eps) > 0.9


def svd_log_potential(a: np.ndarray, w: complex, delta: float) -> float:
    """sum_i log(sigma_i(a - w)^2 + delta^2) / (2 k), from singular values."""
    k = a.shape[0]
    sigma = np.linalg.svd(a - w * np.eye(k), compute_uv=False)
    return float(np.log(sigma**2 + delta**2).sum() / (2 * k))


def test_density_of_nonnormal_matrix_matches_svd_stencil():
    k, delta = 64, 0.2
    rng = np.random.default_rng(8)
    g = rng.standard_normal((2, k, k)) + 1j * rng.standard_normal((2, k, k))
    a = (np.triu(g[0], 1) + 0.5 * g[1]) / math.sqrt(2 * k)
    grid = GridSpec.square(1.8, 19)
    field = brown.brown_logdet_grid(a, grid, delta)
    xs, ys, h = grid.xs, grid.ys, grid.spacing
    for j, i in ((9, 9), (7, 10), (11, 6)):
        u = {
            (dj, di): svd_log_potential(a, complex(xs[i + di], ys[j + dj]), delta)
            for dj, di in ((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0))
        }
        lap = (u[0, 1] + u[0, -1] + u[1, 0] + u[-1, 0] - 4.0 * u[0, 0]) / h**2
        assert lap > 0.0
        assert field.values[j, i] == pytest.approx(lap / (2 * math.pi), abs=1e-9)


# ----------------------------------------------------------------------------
# Grid plumbing and preconditions


def test_grid_square_geometry():
    g = GridSpec.square(1.5, 64)
    assert g == GridSpec(1.5, 64)
    assert g.xs[0] == -1.5 and g.xs[-1] == 1.5
    assert len(g.xs) == 64 and len(g.ys) == 64 and g.nx == g.ny == 64
    assert g.spacing == pytest.approx(3.0 / 63)
    assert set(asdict(g)) == {"half", "n"}


def test_covering_grid_is_accepted_and_needs_positive_regularization():
    a = uniform_disk_matrix(32) + np.triu(np.full((32, 32), 0.02), k=1)
    grid = GridSpec.covering(a, 0.25)
    assert grid.spacing <= 0.25
    assert brown.brown_logdet_grid(a, grid, 0.25).mass > 0.0
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError):
            GridSpec.covering(a, bad)


@pytest.mark.parametrize("delta_reg", [1e-3, 1e-300, 5e-324])
def test_covering_grid_refuses_a_cost_above_the_ceiling(delta_reg):
    # 2 half / delta_reg is 2088 cells per axis at 1e-3 and infinite at
    # 5e-324.  The README's brown example costs 3.4e10 cells x k^3.
    a = uniform_disk_matrix(256)
    with pytest.raises(ValueError, match="ceiling"):
        GridSpec.covering(a, delta_reg)
    grid = GridSpec.covering(a, 0.2)
    assert grid.nx * grid.ny * 256**3 <= brown.MAX_GRID_COST


def test_grid_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        GridSpec(1, 1)
    with pytest.raises(ValueError):
        GridSpec(0, 4)


def test_grid_spacing_must_resolve_the_regularization():
    a = uniform_disk_matrix(32)
    with pytest.raises(ValueError):
        brown.brown_logdet_grid(a, GridSpec.square(1.5, 8), delta_reg=1e-9)


def test_grid_must_cover_the_spectrum():
    a = uniform_disk_matrix(32)
    with pytest.raises(ValueError):
        brown.brown_logdet_grid(a, GridSpec.square(0.2, 64), delta_reg=0.05)



def stacked_logdet_row(xs, y, delta_reg, parts):
    """u on a grid row with up to 64 MB of cell matrices factored as one stack."""
    g, s, kk = parts
    k = g.shape[0]
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


def grid_test_matrix(k: int) -> np.ndarray:
    """Strictly upper Gaussian plus a half-scale Ginibre part."""
    rng = np.random.default_rng(k)
    g = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for _ in "ab"]
    return (np.triu(g[0], 1) + 0.5 * g[1]) / math.sqrt(2 * k)


@pytest.mark.parametrize("k", [1, 7, 64])
def test_logdet_grid_cell_by_cell_matches_the_stacked_factorization(monkeypatch, k):
    a = grid_test_matrix(k)
    grid = GridSpec.covering(a, 0.1)
    field = brown.brown_logdet_grid(a, grid, 0.1)
    monkeypatch.setattr(brown, "_logdet_row", stacked_logdet_row)
    stacked = brown.brown_logdet_grid(a, grid, 0.1)
    assert field.values.tobytes() == stacked.values.tobytes()


def test_logdet_grid_peak_memory_stays_a_few_matrices():
    # a* a, a + a*, i (a* - a), a*, one row base and one cell matrix: 6.0
    # k x k complex matrices at k = 256, where stacking the 16 cells of a
    # row took 21.2.
    k = 256
    a = grid_test_matrix(k)
    grid = GridSpec.covering(a, 0.2)
    assert (grid.nx, grid.ny) == (16, 16)
    tracemalloc.start()
    try:
        brown.brown_logdet_grid(a, grid, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * k * k * 16


def test_density_field_csv_layout(tmp_path):
    # The brown subcommand writes the field row by row (y outer, x inner),
    # under a JSON header line and an x,y,density column line.
    out = tmp_path / "b"
    args = ["brown", "--mu", "atom:0,0,1", "--c", "1", "--eps", "0.5",
            "--k", "48", "--delta-reg", "0.25", "--seed", "3",
            "--out", str(out)]
    assert cli.main(args) == 0
    lines = (out / "density.csv").read_text().splitlines()
    assert lines[0].startswith("# {")
    header = json.loads(lines[0][2:])
    assert header["delta_reg"] == 0.25
    assert lines[1] == "x,y,density"
    grid = GridSpec(**header["grid"])
    assert len(lines) == 2 + grid.nx * grid.ny

    mu = measures.parse_measure_spec(["atom:0,0,1"])
    pair = brown.perturbed_microstate(mu, c=1.0, eps=0.5, k=48, seed=3)
    field = brown.brown_logdet_grid(pair.z, grid, delta_reg=0.25)
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    xx, yy = np.meshgrid(grid.xs, grid.ys)
    assert np.allclose(table[:, 0], xx.ravel(), rtol=1e-9, atol=0)
    assert np.allclose(table[:, 1], yy.ravel(), rtol=1e-9, atol=0)
    assert np.allclose(table[:, 2], field.values.ravel(), rtol=1e-9, atol=1e-12)
    assert header["mass"] == pytest.approx(field.mass, rel=1e-12)
