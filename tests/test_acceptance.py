"""End-to-end acceptance checks.

Each test here exercises one headline guarantee of the package at its stated
size, tolerance, and wall-clock budget, so that ``pytest -v`` on this file
prints a single pass/fail line per criterion.  Expected values come from
closed forms, arbitrary-precision recomputation with mpmath, or tensor
Gauss-Legendre quadrature that is exact for the polynomial integrands
involved; nothing is compared against the code path it is meant to audit.
"""

import contextlib
import math
import time

import mpmath
import numpy as np
import pytest

from dtlab import brown, dimension, dyson, ensembles, linalg, measures

DELTA0 = measures.CompactMeasure.dirac(0j)


@contextlib.contextmanager
def budget(seconds: float):
    """Fail the enclosing test if its body outruns the wall-clock cap."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeded {seconds:.0f}s cap"


def tensor_box_log_integral(points, eps: float, nodes: int) -> float:
    """log of the box integral of prod_{i<j} |z_i - z_j|^2 by tensor quadrature.

    Every unordered pair contributes the squared distance, so the integrand is
    a polynomial of degree at most four per real coordinate and Gauss-Legendre
    with four or more nodes per axis integrates it exactly.
    """
    pts = np.asarray(points, dtype=complex).ravel()
    x, w = np.polynomial.legendre.leggauss(nodes)
    axes, weights = [], []
    for p in pts:
        for centre in (p.real, p.imag):
            axes.append(centre + eps * x)
            weights.append(eps * w)
    grids = np.meshgrid(*axes, indexing="ij")
    s, t = grids[0::2], grids[1::2]
    value = np.ones_like(grids[0])
    for i in range(pts.size):
        for j in range(i + 1, pts.size):
            value = value * ((s[i] - s[j]) ** 2 + (t[i] - t[j]) ** 2)
    for axis, wa in enumerate(weights):
        shape = [1] * (2 * pts.size)
        shape[axis] = nodes
        value = value * wa.reshape(shape)
    return math.log(float(np.sum(value)))


def test_criterion_01_schur_reconstruction_and_unitarity():
    with budget(30.0):
        for k in (8, 64, 256):
            g = ensembles.sample_ginibre(k, 1.0 / k, seed=k)
            form = linalg.schur(g)
            residual = np.linalg.norm(
                g - form.q @ form.t @ form.q.conj().T, ord="fro"
            )
            defect = np.linalg.norm(
                form.q.conj().T @ form.q - np.eye(k), ord="fro"
            )
            assert residual <= 1e-10, f"k={k}: residual {residual:.3e}"
            assert defect <= 1e-10 * math.sqrt(k), f"k={k}: defect {defect:.3e}"


def test_criterion_02_box_integral_matches_quadrature_oracles():
    with budget(10.0):
        # n=2 at unit half-width has the closed form log(8/3); rederive it as
        # an honest double integral in 30-digit arithmetic.
        with mpmath.workdps(30):
            inner = lambda x: mpmath.quad(lambda y: (x - y) ** 2, [-1, 1])
            oracle = float(mpmath.log(mpmath.quad(inner, [-1, 1])))
        got = dyson.log_selberg_box_integral(2, 1.0).log_value
        assert got == pytest.approx(math.log(8.0 / 3.0), abs=1e-12)
        assert got == pytest.approx(oracle, abs=1e-9)

        # n=3 against exact tensor quadrature of the squared Vandermonde in
        # three real variables.
        got3 = dyson.log_selberg_box_integral(3, 1.0).log_value
        x, w = np.polynomial.legendre.leggauss(8)
        x1, x2, x3 = np.meshgrid(x, x, x, indexing="ij")
        value = ((x1 - x2) ** 2) * ((x1 - x3) ** 2) * ((x2 - x3) ** 2)
        weight = w[:, None, None] * w[None, :, None] * w[None, None, :]
        quad3 = math.log(float(np.sum(value * weight)))
        assert got3 == pytest.approx(quad3, abs=1e-4)


def test_criterion_03_gamma_product_rate_limit():
    with budget(1.0):
        limit = -2.0 * math.log(2.0)
        r128 = dyson.gamma_product_rate(128)
        r256 = dyson.gamma_product_rate(256)
        r512 = dyson.gamma_product_rate(512)
        assert r256 == pytest.approx(limit, abs=0.05)
        assert abs(r512 - limit) < abs(r128 - limit)


def test_criterion_04_circular_law_radial_cdf():
    with budget(120.0):
        distances = []
        for seed in range(5):
            g = ensembles.sample_ginibre(1024, 1.0 / 1024, seed=seed)
            spectrum = linalg.eigenvalues(g)
            distances.append(brown.radial_cdf_distance(spectrum, 0j, 1.0))
        assert float(np.mean(distances)) <= 0.03, f"distances {distances}"


def test_criterion_05_perturbed_microstate_disk_law():
    with budget(600.0):
        frozen = {1.0: 1.2011224087864498, 0.5: 0.7882480158932288}
        for eps, pinned in frozen.items():
            with mpmath.workdps(40):
                radius = float(1 / mpmath.sqrt(mpmath.log(1 + 1 / mpmath.mpf(eps) ** 2)))
            assert radius == pytest.approx(pinned, abs=1e-12)

            distances = []
            moduli = []
            for seed in range(5):
                pair = brown.perturbed_microstate(DELTA0, 1.0, eps, 1024, seed=seed)
                spectrum = linalg.eigenvalues(pair.z)
                distances.append(brown.radial_cdf_distance(spectrum, 0j, radius))
                moduli.append(np.abs(spectrum))
            mean = float(np.mean(distances))
            inside = float(np.mean(np.concatenate(moduli) <= 1.1 * radius))
            assert mean <= 0.05, f"eps={eps}: distances {distances}"
            assert inside >= 0.95, f"eps={eps}: inside fraction {inside:.4f}"


def test_criterion_06_block_moment_self_consistency():
    with budget(300.0):
        direct = ensembles.sample_dt(ensembles.DTParams(DELTA0, 1.0, 1024, seed=0))
        direct_table = ensembles.star_moment_table(direct, 4)
        trace = direct_table["a*a"]
        assert trace.real == pytest.approx(0.500, abs=0.02)
        assert abs(trace.imag) <= 1e-12

        block = ensembles.assemble_block_dt(DELTA0, 1.0, bigN=4, k=256, seed=1)
        block_table = ensembles.star_moment_table(block, 4)
        assert block_table.keys() == direct_table.keys()
        for word, value in block_table.items():
            assert abs(value - direct_table[word]) <= 0.03, f"word {word}"


def test_criterion_07_pair_proximity_respects_overlap_bound():
    with budget(120.0):
        mu = measures.parse_measure_spec(
            ["atom:0,0,0.3", "atom:0.8,0.2,0.2", "disk:0,0,1,0.5"]
        )
        seeds = 4
        for eps in (1.0, 0.1, 0.01):
            smeared = measures.smear_atoms(mu, 1.0, eps)
            for delta in (0.05, 0.1, 0.3):
                bound = measures.overlap_bound(mu, 1.0, eps, delta)
                masses = [
                    measures.pair_proximity_mass(
                        measures.sample_measure(smeared, 4096, seed=s, mode="iid"),
                        delta,
                    )
                    for s in range(seeds)
                ]
                mean = float(np.mean(masses))
                se = float(np.std(masses, ddof=1)) / math.sqrt(seeds)
                assert mean <= bound + 3 * se, (
                    f"eps={eps} delta={delta}: mass {mean:.5f} vs bound {bound:.5f}"
                )


def test_criterion_08_volume_estimator_ordering():
    with budget(120.0):
        # The quadrature helper itself is audited against a closed form first:
        # two coincident centres at unit half-width integrate to 64/3.
        sanity = tensor_box_log_integral([0j, 0j], 1.0, nodes=6)
        assert sanity == pytest.approx(math.log(64.0 / 3.0), abs=1e-12)

        rng = np.random.default_rng(2026)
        for case in range(20):
            n = int(rng.integers(2, 4))
            pts = rng.normal(scale=0.6, size=n) + 1j * rng.normal(scale=0.6, size=n)
            delta = float(rng.uniform(0.2, 0.9))
            eps = float(rng.uniform(0.2, 0.95)) * delta / 3.0

            truth = tensor_box_log_integral(pts, eps, nodes=6)
            estimate = dyson.log_separation_integral_mc(
                pts, eps, trials=2000, seed=100 + case
            )
            lower = dyson.separation_integral_lower_bound(pts, eps, delta)
            jensen = estimate.jensen

            assert lower.std_error == 0.0
            slack = 3.0 * jensen.std_error
            assert lower.log_value <= jensen.log_value + slack, f"case {case}"
            assert jensen.log_value - slack <= truth, f"case {case}"


def test_criterion_09_dimension_scan_trend_and_identities():
    """The scan's delta-hat rises as eps falls.  At fixed bigN and k its
    limit is 2 - 1/bigN - 1/n, with n = bigN * k, not the paper's 2, so only
    the trend and the identities are asserted."""
    with budget(900.0):
        grid = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
        rows = dimension.dimension_scan(
            DELTA0, 1.0, bigN=8, k=128, eps_grid=grid, seed=7
        )
        assert [row.eps for row in rows] == grid

        values = [row.delta_hat for row in rows]
        for left, right in zip(values, values[1:]):
            assert right >= left - 0.05, f"non-monotone: {values}"
        assert values[-1] > values[0]

        for row in rows:
            n2 = (row.bigN * row.k) ** 2
            log_eps = abs(math.log(row.eps))
            assert row.delta == pytest.approx(dyson.delta_schedule(row.eps), rel=1e-12)
            # The leading term is exactly 2 - 1/N; the remainder is the audited
            # pair of normalized summands.
            leading = row.delta_hat - (row.f_lb_norm + row.const_term) / log_eps
            assert leading == pytest.approx(2.0 - 1.0 / row.bigN, abs=1e-12)
            assert row.delta_hat == pytest.approx(
                dimension.assemble_delta_hat(
                    row.eps, row.bigN, row.f_lb_norm, row.const_term
                ),
                rel=1e-12,
            )
            assert row.log_packing_lb == pytest.approx(
                dimension.packing_lower_bound_log(
                    row.eps, row.bigN, row.k, row.f_lb_norm * n2
                ),
                rel=1e-12,
            )
            assert row.delta_hat == pytest.approx(
                row.log_packing_lb / (n2 * log_eps), rel=1e-12
            )

        # Shifting chi_offset moves exactly the constant term, by chi / n^2.
        base = dimension.dimension_scan(DELTA0, 1.0, 8, 128, [1e-2], seed=7)[0]
        moved = dimension.dimension_scan(
            DELTA0, 1.0, 8, 128, [1e-2], chi_offset=0.25, seed=7
        )[0]
        n2 = (base.bigN * base.k) ** 2
        assert moved.f_lb_norm == base.f_lb_norm
        assert moved.const_term - base.const_term == pytest.approx(
            0.25 / n2, abs=1e-12
        )
        assert moved.delta_hat - base.delta_hat == pytest.approx(
            0.25 / (n2 * abs(math.log(1e-2))), abs=1e-12
        )


def test_criterion_10_triangular_diagonal_pushforward():
    with budget(120.0):
        for seed in range(3):
            g = ensembles.sample_ginibre(512, 1.0 / 512, seed=seed)
            diagonal = np.diag(linalg.schur(g).t)
            distance = brown.radial_cdf_distance(diagonal, 0j, 1.0)
            assert distance <= 0.03, f"seed {seed}: distance {distance:.4f}"
