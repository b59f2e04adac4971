"""Planar measure tests.

Smearing radii are rechecked with mpmath arbitrary-precision arithmetic, and
the close-pair mass of the uniform disk is rechecked against a quadrature of
the classical pair-distance density.  Neither route shares code with the
module under test.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from dtlab import brown, linalg, measures
from dtlab.measures import CompactMeasure


def mp_radius(a: float, c: float, eps: float) -> float:
    """High precision smearing radius: c * sqrt(a / log(1 + a/eps^2))."""
    with mpmath.workdps(40):
        a_, c_, e_ = mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(eps)
        return float(c_ * mpmath.sqrt(a_ / mpmath.log1p(a_ / e_**2)))


def disk_pair_distance_density(s: float) -> float:
    """Density of |z - w| for independent uniform points in the unit disk."""
    return (4.0 * s / math.pi) * (
        math.acos(s / 2.0) - (s / 2.0) * math.sqrt(1.0 - s * s / 4.0)
    )


# ----------------------------------------------------------------------------
# Smearing radius


def test_unit_atom_radius_against_mpmath():
    assert measures.perturbation_radius(1.0, 1.0, 1.0) == pytest.approx(
        mp_radius(1.0, 1.0, 1.0), abs=1e-14
    )
    assert measures.perturbation_radius(1.0, 1.0, 0.5) == pytest.approx(
        mp_radius(1.0, 1.0, 0.5), abs=1e-14
    )
    # Frozen values so a regression cannot hide inside the oracle call.
    assert measures.perturbation_radius(1.0, 1.0, 1.0) == pytest.approx(
        1.2011224087864498, abs=1e-12
    )
    assert measures.perturbation_radius(1.0, 1.0, 0.5) == pytest.approx(
        0.7882480158932288, abs=1e-12
    )


def test_fractional_atom_radius_against_mpmath():
    assert measures.perturbation_radius(0.5, 1.0, 0.5) == pytest.approx(
        mp_radius(0.5, 1.0, 0.5), abs=1e-14
    )
    assert measures.perturbation_radius(0.5, 1.0, 0.5) == pytest.approx(
        math.sqrt(0.5 / math.log(3.0)), abs=1e-12
    )


@pytest.mark.parametrize(
    "eps", [5e-324, 1e-200, 1.4e-154, 1.5e-154, 1e-100, 1e154, 1e160, 1e300]
)
@pytest.mark.parametrize("a", [1.0, 0.3])
def test_radius_is_finite_where_eps_squared_leaves_the_normal_range(a, eps):
    # eps^2 underflows below about 1.5e-154 and overflows above 1.3e154.
    got = measures.perturbation_radius(a, 0.7, eps)
    assert 0.0 < got < math.inf
    assert got == pytest.approx(mp_radius(a, 0.7, eps), rel=1e-13)


@pytest.mark.parametrize("eps", [1e-150, 1e-8, 0.5, 3.0, 1e150])
def test_radius_at_ordinary_eps_is_the_plain_formula(eps):
    assert measures.perturbation_radius(0.3, 0.7, eps) == 0.7 * math.sqrt(
        0.3 / math.log1p(0.3 / (eps * eps))
    )


@given(
    st.floats(0.01, 0.6),
    st.floats(0.1, 4.0),
    st.floats(0.01, 2.0),
    st.floats(1.001, 1.5),
)
@settings(max_examples=80, deadline=None)
def test_radius_monotone_in_every_argument(a, c, eps, grow):
    base = measures.perturbation_radius(a, c, eps)
    assert measures.perturbation_radius(a * grow, c, eps) > base
    assert measures.perturbation_radius(a, c * grow, eps) > base
    assert measures.perturbation_radius(a, c, eps * grow) > base


def test_radius_scales_linearly_in_c():
    r1 = measures.perturbation_radius(0.3, 1.0, 0.2)
    r2 = measures.perturbation_radius(0.3, 2.5, 0.2)
    assert r2 == pytest.approx(2.5 * r1, rel=1e-14)


# ----------------------------------------------------------------------------
# Smearing a measure


def test_smear_turns_atoms_into_disks():
    mu = measures.parse_measure_spec(["atom:0.5,0,0.5", "atom:-1,1,0.5"])
    smeared = measures.smear_atoms(mu, c=1.0, eps=0.5)
    parts = list(smeared.components())
    assert smeared.atom_mass == 0
    assert len(parts) == 2
    for part, mass in parts:
        assert mass == pytest.approx(0.5)
        assert part.radius == pytest.approx(mp_radius(0.5, 1.0, 0.5), abs=1e-12)


def test_smear_preserves_mass_and_mean():
    mu = measures.parse_measure_spec(
        ["atom:2,0,0.25", "atom:-1,-1,0.25", "disk:0,0,1,0.5"]
    )
    smeared = measures.smear_atoms(mu, c=0.8, eps=0.1)
    total = sum(mass for _, mass in smeared.components())
    assert total == pytest.approx(1.0, abs=1e-12)
    # A disk's mean is its center: 0.25 * 2 + 0.25 * (-1 - 1j) + 0.5 * 0.
    mean = sum(p.mass * p.center for p in smeared.diffuse)
    assert mean == pytest.approx(0.25 - 0.25j, abs=1e-12)


def test_smear_leaves_diffuse_parts_alone():
    mu = CompactMeasure.uniform_disk(0j, 2.0)
    smeared = measures.smear_atoms(mu, c=1.0, eps=0.3)
    (part, mass), = smeared.components()
    assert mass == pytest.approx(1.0)
    assert part.radius == pytest.approx(2.0)
    assert smeared.diffuse == mu.diffuse


# ----------------------------------------------------------------------------
# Close-pair masses and the overlap bound


def test_disk_close_pair_mass_against_quadrature():
    mu = CompactMeasure.uniform_disk(0j, 1.0)
    for delta in (0.05, 0.1, 0.3, 0.7):
        oracle, err = quad(disk_pair_distance_density, 0.0, delta)
        assert err < 1e-10
        assert measures.diffuse_product_mass(mu, delta) == pytest.approx(
            oracle, abs=1e-9
        )


def test_disk_close_pair_mass_scales_with_radius():
    # Distances scale with the disk radius, so mass at (R, delta) equals
    # mass at (1, delta/R).
    big = measures.diffuse_product_mass(
        CompactMeasure.uniform_disk(0j, 2.0), 0.2
    )
    unit = measures.diffuse_product_mass(
        CompactMeasure.uniform_disk(0j, 1.0), 0.1
    )
    assert big == pytest.approx(unit, rel=1e-12)


def test_overlap_bound_point_mass_closed_forms():
    delta0 = CompactMeasure.dirac(0.0)
    # A wide tube cannot exclude anything: min(1, .) saturates at 1 and the
    # ordered-pair count doubles it.
    assert measures.overlap_bound(delta0, 1.0, 1.0, 10.0) == pytest.approx(2.0)
    # Thin tube: 2 * delta^2 * log(1 + eps^-2) at c = 1, eps = 1.
    assert measures.overlap_bound(delta0, 1.0, 1.0, 0.1) == pytest.approx(
        2.0 * 0.01 * math.log(2.0), rel=1e-12
    )
    # Where eps^2 is subnormal: 2 * delta^2 * log(eps^-2), here 0.1455.
    assert measures.overlap_bound(delta0, 1.0, 1e-158, 0.01) == pytest.approx(
        2.0 * 1e-4 * 316 * math.log(10.0), rel=1e-12
    )


def mp_atom_overlap(atoms, c: float, eps: float, delta: float) -> float:
    """High precision 2 * sum_i min(a_i, delta^2 c^-2 log(1 + a_i / eps^2))."""
    with mpmath.workdps(40):
        c_, e_, d_ = mpmath.mpf(c), mpmath.mpf(eps), mpmath.mpf(delta)
        a_ = [mpmath.mpf(a) for a in atoms]
        terms = [min(a, (d_ / c_) ** 2 * mpmath.log1p(a / e_**2)) for a in a_]
        return float(2 * mpmath.fsum(terms))


@pytest.mark.parametrize("eps", [1e-158, 1e-163, 1e-200, 5e-324])
@pytest.mark.parametrize("specs", [["atom:0,0,1"], ["atom:0,0,0.3", "atom:1,0.5,0.7"]])
def test_overlap_bound_where_eps_squared_underflows(specs, eps):
    # The atom term goes through perturbation_radius, whose log form holds
    # where eps^2 is not a normal float; at 1e-158 a plain log1p(a / eps^2)
    # saturates at the trivial bound 2, and below about 1.5e-162 it divides
    # by zero.
    mu = measures.parse_measure_spec(specs)
    atoms = [a for _, a in mu.atoms]
    for c, delta in [(1.0, 0.01), (0.7, 0.002)]:
        bound = measures.overlap_bound(mu, c, eps, delta)
        expected = mp_atom_overlap(atoms, c, eps, delta)
        assert bound == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
def test_overlap_bound_at_ordinary_eps_is_the_plain_formula(eps):
    mu = measures.parse_measure_spec(["atom:0,0,0.3", "atom:1,0.5,0.7"])
    for c, delta in [(1.0, 0.01), (1.0, 0.3), (0.7, 0.05), (2.0, 10.0)]:
        plain = 2.0 * sum(
            min(a, (delta * delta / (c * c)) * math.log1p(a / (eps * eps)))
            for _, a in mu.atoms
        )
        assert measures.overlap_bound(mu, c, eps, delta) == pytest.approx(
            plain, rel=1e-14, abs=0
        )


def test_overlap_bound_decreases_with_delta():
    mu = measures.parse_measure_spec(["atom:0,0,0.5", "disk:0,0,1,0.5"])
    vals = [measures.overlap_bound(mu, 1.0, 0.1, d) for d in (0.3, 0.1, 0.05)]
    assert vals[0] >= vals[1] >= vals[2]
    assert vals[2] > 0.0


# ----------------------------------------------------------------------------
# Quantile allocation and disk quantile points


def test_quantile_counts_largest_remainder():
    assert measures.quantile_counts([0.5, 0.5], 7) == [4, 3]
    assert measures.quantile_counts([0.3, 0.7], 10) == [3, 7]
    assert measures.quantile_counts([1.0], 5) == [5]


@given(
    st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
    st.integers(1, 200),
)
@settings(max_examples=80, deadline=None)
def test_quantile_counts_sum_and_proximity(raw, n):
    total = sum(raw)
    masses = [x / total for x in raw]
    counts = measures.quantile_counts(masses, n)
    assert sum(counts) == n
    assert all(c >= 0 for c in counts)
    for c, mass in zip(counts, masses):
        assert abs(c - n * mass) < 1.0 + 1e-9


def test_quantile_sampling_follows_component_order():
    # Largest remainder gives the atom 2 of 8 slots, placed before the disk's 6.
    mu = measures.parse_measure_spec(["atom:1,0,0.25", "disk:0,0,1,0.75"])
    pts = measures.sample_measure(mu, 8, seed=0)
    assert np.array_equal(pts[:2], [1, 1])
    assert np.all(np.abs(pts[2:]) < 1.0)


def test_disk_quantile_points_radial_midpoints():
    # Squared radii hit the exact midpoint grid (i - 1/2) / n, which is the
    # area quantile rule for a uniform disk.
    n = 256
    pts = measures.disk_quantile_points(0j, 1.0, n)
    r2 = np.sort(np.abs(pts) ** 2)
    assert np.max(np.abs(r2 - (np.arange(1, n + 1) - 0.5) / n)) < 1e-12


def test_disk_quantile_points_center_scale():
    pts = measures.disk_quantile_points(1 + 2j, 0.5, 64)
    base = measures.disk_quantile_points(0j, 1.0, 64)
    assert np.allclose(pts, 1 + 2j + 0.5 * base, atol=1e-12)
    assert abs(pts.mean() - (1 + 2j)) < 0.05


# ----------------------------------------------------------------------------
# Pair proximity of point sets


def test_pair_proximity_counts_ordered_distinct_pairs():
    pts = np.array([0.0, 0.0, 1.0, 2.0])
    # Only the duplicated origin sits within 0.5, two ordered pairs out of 16.
    assert measures.pair_proximity_mass(pts, 0.5) == pytest.approx(2 / 16)
    # Widening to 1.1 brings both origins next to 1.0 and 1.0 next to 2.0,
    # four unordered pairs in all, so eight of sixteen ordered pairs.
    assert measures.pair_proximity_mass(pts, 1.1) == pytest.approx(8 / 16)


def test_pair_proximity_extremes():
    same = np.zeros(8, dtype=complex)
    assert measures.pair_proximity_mass(same, 0.1) == pytest.approx(1 - 1 / 8)
    spread = np.arange(8).astype(complex)
    assert measures.pair_proximity_mass(spread, 0.5) == 0.0


def test_sampled_proximity_respects_overlap_bound():
    mu = measures.parse_measure_spec(["atom:0,0,0.5", "disk:0,0,1,0.5"])
    c, eps, delta, n = 1.0, 0.5, 0.1, 2048
    pts = measures.sample_measure(measures.smear_atoms(mu, c, eps), n, seed=3)
    bound = measures.overlap_bound(mu, c, eps, delta)
    observed = measures.pair_proximity_mass(pts, delta)
    se = math.sqrt(max(bound, 1e-6) / (n * (n - 1)))
    assert observed <= bound + 3 * se + 0.01


def blocked_pair_count(z: np.ndarray, delta: float) -> int:
    """O(n^2) reference: ordered pairs i != j with |z_i - z_j| < delta.

    Distances are taken in row blocks of about 4M entries each.
    """
    n = z.size
    count = 0
    rows = max(1, (1 << 22) // n)
    for start in range(0, n, rows):
        blk = z[start : start + rows]
        d = np.abs(blk[:, None] - z[None, :])
        count += int((d < delta).sum()) - blk.size  # remove self pairs
    return count


def tiled_scan_spectrum(big_n: int, k: int, eps: float) -> np.ndarray:
    """Eigenvalues of a two-atom microstate tiled big_n times, as a scan row."""
    mu = measures.parse_measure_spec(["atom:0,0,0.5", "atom:1.5,0,0.5"])
    pair = brown.perturbed_microstate(mu, 1.0 / math.sqrt(big_n), eps, k, 11)
    return np.tile(linalg.eigenvalues(pair.z), big_n)


def lattice(step: float, side: int) -> np.ndarray:
    g = np.arange(side) * step
    return (g[:, None] + 1j * g[None, :]).ravel()


def duplicated_cloud() -> np.ndarray:
    return np.repeat(np.random.default_rng(4).standard_normal((400, 2)) @ [1, 1j], 4)


@pytest.mark.parametrize(
    "make_points, delta",
    [
        (lambda: tiled_scan_spectrum(8, 128, 1e-3), 1.0 / abs(math.log(1e-3))),
        (lambda: tiled_scan_spectrum(64, 64, 1e-5), 1.0 / abs(math.log(1e-5))),
        (duplicated_cloud, 0.05),
        (lambda: lattice(0.125, 40), 0.125),
        (lambda: lattice(0.1, 40), 0.1),
        (lambda: lattice(0.1, 40), math.sqrt(0.02)),
    ],
    ids=[
        "tiled-8x128",
        "tiled-64x64",
        "duplicated",
        "lattice-binary",
        "lattice-0.1",
        "lattice-diagonal",
    ],
)
def test_pair_proximity_matches_the_quadratic_count(make_points, delta):
    points = make_points()
    n = points.size
    expected = blocked_pair_count(points, delta) / (n * n)
    assert measures.pair_proximity_mass(points, delta) == expected


def _cloud(seed: int, n: int, scale: float = 1.0, shift: complex = 0j) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return shift + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def cloud_cloud_reference(
    p: np.ndarray, q: np.ndarray, delta: float, same: bool
) -> float:
    hits = int((np.abs(p[:, None] - q[None, :]) < delta).sum())
    if same:
        return (hits - p.size) / (p.size * (p.size - 1))
    return hits / (p.size * q.size)


def cloud_disk_reference(
    p: np.ndarray, center: complex, radius: float, delta: float
) -> float:
    """Equal-area polar midpoint grid on the disk: 600 rings of 600 points."""
    m = 600
    r = radius * np.sqrt((np.arange(m) + 0.5) / m)
    th = 2.0 * math.pi * (np.arange(m) + 0.5) / m
    grid = (center + r[:, None] * np.exp(1j * th[None, :])).ravel()
    return float(np.mean([(np.abs(grid - z) < delta).mean() for z in p]))


def test_cloud_alone_close_pair_mass_against_brute_force():
    pts = _cloud(1, 700, 0.3)
    mu = CompactMeasure(diffuse=(measures.EmpiricalPart(pts, 1.0),))
    for delta in (0.02, 0.1):
        assert measures.diffuse_product_mass(mu, delta) == cloud_cloud_reference(
            pts, pts, delta, True
        )


def test_two_clouds_close_pair_mass_against_brute_force():
    p = _cloud(2, 500, 0.4)
    q = _cloud(3, 300, 0.2, 0.3 + 0.1j)
    mu = CompactMeasure(
        diffuse=(measures.EmpiricalPart(p, 0.5), measures.EmpiricalPart(q, 0.5))
    )
    for delta in (0.03, 0.15):
        expected = 0.25 * (
            cloud_cloud_reference(p, p, delta, True)
            + 2.0 * cloud_cloud_reference(p, q, delta, False)
            + cloud_cloud_reference(q, q, delta, True)
        )
        assert measures.diffuse_product_mass(mu, delta) == pytest.approx(
            expected, rel=1e-12
        )


@pytest.mark.parametrize("delta", [0.125, 0.18])
def test_cross_cloud_counts_with_repeats_match_brute_force(delta):
    # Lattice points at spacing 0.125 drawn with replacement: both clouds
    # repeat points, q shares ten of p's, and neighbours sit exactly 0.125
    # apart, so at delta = 0.125 the strict test excludes them.
    rng = np.random.default_rng(6)
    grid = lattice(0.125, 6)
    p = rng.choice(grid, 60)
    q = np.concatenate([rng.choice(grid, 40), p[:10]])
    gaps = np.abs(p[:, None] - q[None, :])
    assert np.unique(p).size < p.size and np.unique(q).size < q.size
    assert (gaps == 0.125).any()
    hits = int((gaps < delta).sum())
    assert measures._cloud_cloud_pair_prob(p, q, delta, False) == hits / (60 * 50)
    mu = CompactMeasure(
        diffuse=(measures.EmpiricalPart(p, 0.5), measures.EmpiricalPart(q, 0.5))
    )
    expected = (
        0.25 * cloud_cloud_reference(p, p, delta, True)
        + 0.5 * cloud_cloud_reference(p, q, delta, False)
        + 0.25 * cloud_cloud_reference(q, q, delta, True)
    )
    assert measures.diffuse_product_mass(mu, delta) == expected


def test_cloud_and_disk_close_pair_mass_against_brute_force():
    pts = _cloud(5, 120, 0.5)
    center, radius = 0.3 + 0.1j, 0.8
    mu = CompactMeasure(
        diffuse=(
            measures.EmpiricalPart(pts, 0.5),
            measures.DiskPart(center, radius, 0.5),
        )
    )
    for delta in (0.1, 0.4):
        # Same-disk term from the unit-disk distance density at delta / radius.
        disk, err = quad(disk_pair_distance_density, 0.0, delta / radius)
        assert err < 1e-10
        expected = 0.25 * (
            cloud_cloud_reference(pts, pts, delta, True)
            + 2.0 * cloud_disk_reference(pts, center, radius, delta)
            + disk
        )
        # The grid's cross term is off by about 4e-6 at these sizes.
        assert measures.diffuse_product_mass(mu, delta) == pytest.approx(
            expected, abs=2e-5
        )


# ----------------------------------------------------------------------------
# Sampling


def test_sample_measure_is_deterministic():
    mu = CompactMeasure.uniform_disk(0j, 1.0)
    a = measures.sample_measure(mu, 128, seed=2)
    b = measures.sample_measure(mu, 128, seed=2)
    c = measures.sample_measure(mu, 128, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_measure_modes_differ_but_agree_in_law():
    mu = CompactMeasure.uniform_disk(0j, 1.0)
    q = measures.sample_measure(mu, 4096, seed=2, mode="quantile")
    iid = measures.sample_measure(mu, 4096, seed=2, mode="iid")
    assert not np.array_equal(q, iid)
    # Mean radius of the uniform unit disk is 2/3.
    assert np.abs(q).mean() == pytest.approx(2 / 3, abs=0.01)
    assert np.abs(iid).mean() == pytest.approx(2 / 3, abs=0.03)


def test_sample_measure_atoms_in_quantile_mode():
    mu = measures.parse_measure_spec(["atom:2,0,0.5", "atom:-1,0,0.5"])
    pts = measures.sample_measure(mu, 6, seed=0)
    assert np.allclose(np.sort_complex(pts), [-1, -1, -1, 2, 2, 2])


# ----------------------------------------------------------------------------
# Spec grammar


def test_parse_atom_and_disk_round_trip():
    mu = measures.parse_measure_spec(["atom:0.5,0,0.5", "disk:0,0,1,0.5"])
    (z, am), (disk, dm) = mu.components()
    assert z == 0.5 + 0j and am == 0.5
    assert disk.radius == 1.0 and dm == 0.5


def test_parse_empirical_csv(tmp_path):
    csv_path = tmp_path / "pts.csv"
    csv_path.write_text("# header comment\n0.0,0.0\n1.0,-1.0\n")
    mu = measures.parse_measure_spec([f"empirical:{csv_path},1"])
    (part, mass), = mu.components()
    assert mass == 1.0
    assert np.array_equal(part.points, np.array([0j, 1 - 1j]))


def test_parse_rejects_bad_specs():
    for bad in (
        [],
        ["blob:1,2"],
        ["atom:0,0"],
        ["disk:0,0,1"],
        ["atom:x,0,1"],
        ["empirical:nope.csv"],
    ):
        with pytest.raises(ValueError):
            measures.parse_measure_spec(bad)


def test_masses_must_sum_to_one():
    with pytest.raises(ValueError):
        measures.parse_measure_spec(["atom:0,0,0.4", "atom:1,0,0.4"])
