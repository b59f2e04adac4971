"""Separation integral and triangular-density tests.

Closed forms are rederived with mpmath, and the polynomial box integrals are
rechecked with tensor Gauss-Legendre quadrature, which is exact for these
integrands.  Monte Carlo output is compared against truth within a few
reported standard errors.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp, roots_legendre

from dtlab import dyson
from dtlab.errors import ConfigError
from dtlab.rng import substream


def mp_gamma_sum_rate(n: int) -> float:
    """gamma_product_rate recomputed in 40-digit arithmetic."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for j in range(n):
            total += (
                mpmath.loggamma(j + 2)
                + 2 * mpmath.loggamma(j + 1)
                - mpmath.loggamma(n + j + 1)
            )
        return float(total / n**2)


def mp_log_dyson_constant(k: int) -> float:
    with mpmath.workdps(40):
        total = mpmath.mpf(k * (k - 1)) / 2 * mpmath.log(mpmath.pi)
        for j in range(1, k + 1):
            total -= mpmath.loggamma(j + 1)
        return float(total)


def legendre_box_vandermonde(n: int, eps: float, nodes: int = 8) -> float:
    """Tensor quadrature of prod_{i<j} (x_i - x_j)^2 over [-eps, eps]^n.

    The integrand is a polynomial of degree 2(n-1) per axis, so Gauss-Legendre
    with a handful of nodes is exact up to rounding.
    """
    x, w = roots_legendre(nodes)
    x = x * eps
    w = w * eps
    grids = np.meshgrid(*([x] * n), indexing="ij")
    weights = np.ones_like(grids[0])
    for axis in range(n):
        shape = [1] * n
        shape[axis] = nodes
        weights = weights * w.reshape(shape)
    integrand = np.ones_like(grids[0])
    for i in range(n):
        for j in range(i + 1, n):
            integrand = integrand * (grids[i] - grids[j]) ** 2
    return float(np.sum(weights * integrand))


# ----------------------------------------------------------------------------
# Box integral closed form


def test_selberg_single_point_is_the_box_length():
    est = dyson.log_selberg_box_integral(1, 0.25)
    assert est.kind == "exact"
    assert est.std_error == 0.0
    assert est.log_value == pytest.approx(math.log(0.5), abs=1e-14)


def test_selberg_two_points_against_mpmath():
    # Direct double integral of (x - y)^2 over the square [-eps, eps]^2.
    for eps in (1.0, 0.3):
        with mpmath.workdps(30):
            oracle = float(
                mpmath.log(
                    mpmath.quad(
                        lambda x: mpmath.quad(
                            lambda y: (x - y) ** 2, [-eps, eps]
                        ),
                        [-eps, eps],
                    )
                )
            )
        got = dyson.log_selberg_box_integral(2, eps).log_value
        assert got == pytest.approx(oracle, abs=1e-9)
    assert dyson.log_selberg_box_integral(2, 1.0).log_value == pytest.approx(
        math.log(8.0 / 3.0), abs=1e-12
    )


def test_selberg_three_points_against_tensor_quadrature():
    for eps in (1.0, 0.5):
        oracle = math.log(legendre_box_vandermonde(3, eps))
        got = dyson.log_selberg_box_integral(3, eps).log_value
        assert got == pytest.approx(oracle, abs=1e-9)


def test_selberg_four_points_against_tensor_quadrature():
    oracle = math.log(legendre_box_vandermonde(4, 0.8, nodes=10))
    got = dyson.log_selberg_box_integral(4, 0.8).log_value
    assert got == pytest.approx(oracle, abs=1e-9)


def test_selberg_eps_scaling():
    # Scaling the box by t scales the integral by t^(n + n(n-1)), so the log
    # moves by that multiple of log t.
    n, t = 3, 0.5
    base = dyson.log_selberg_box_integral(n, 1.0).log_value
    moved = dyson.log_selberg_box_integral(n, t).log_value
    assert moved - base == pytest.approx((n + n * (n - 1)) * math.log(t), abs=1e-10)


# ----------------------------------------------------------------------------
# Gamma product rate


def test_gamma_rate_against_mpmath():
    for n in (1, 8, 64):
        assert dyson.gamma_product_rate(n) == pytest.approx(
            mp_gamma_sum_rate(n), abs=1e-12
        )


def test_gamma_rate_approaches_minus_two_log_two():
    target = -2.0 * math.log(2.0)
    r128 = dyson.gamma_product_rate(128)
    r256 = dyson.gamma_product_rate(256)
    r512 = dyson.gamma_product_rate(512)
    assert abs(r256 - target) < 0.05
    assert abs(r512 - target) < abs(r128 - target)
    assert r128 > r256 > r512 > target


def test_gamma_rate_frozen_values():
    assert dyson.gamma_product_rate(128) == pytest.approx(
        -1.3417385607474595, abs=1e-12
    )
    assert dyson.gamma_product_rate(256) == pytest.approx(
        -1.3613320654076397, abs=1e-12
    )


# ----------------------------------------------------------------------------
# Triangular density and its constant


def test_dyson_constant_small_and_large():
    assert dyson.log_dyson_constant(1) == pytest.approx(0.0, abs=1e-15)
    assert dyson.log_dyson_constant(2) == pytest.approx(
        math.log(math.pi / 2.0), abs=1e-12
    )
    assert dyson.log_dyson_constant(50) == pytest.approx(
        mp_log_dyson_constant(50), rel=1e-9
    )


def test_dyson_density_closed_form():
    b = np.array([[1.0, 0.5], [0.0, 3.0]])
    assert dyson.log_dyson_density(b) == pytest.approx(2 * math.log(2.0))
    assert dyson.log_dyson_density(b, include_constant=True) == pytest.approx(
        2 * math.log(2.0) + dyson.log_dyson_constant(2)
    )


def test_dyson_density_ignores_diagonal_order():
    up = np.triu(np.ones((3, 3)))
    a = up * 1.0
    np.fill_diagonal(a, [0.0, 1.0, 2.5])
    b = up * 1.0
    np.fill_diagonal(b, [2.5, 0.0, 1.0])
    assert dyson.log_dyson_density(a) == pytest.approx(dyson.log_dyson_density(b))


def test_dyson_density_edge_cases():
    assert dyson.log_dyson_density(np.diag([1.0, 1.0])) == -math.inf
    with pytest.raises(ValueError):
        dyson.log_dyson_density(np.array([[1.0, 0.0], [0.5, 2.0]]))


# ----------------------------------------------------------------------------
# Monte Carlo separation integral


def test_mc_single_point_is_exact_volume():
    # One point has no pairs, so the integral is the box volume (2 eps)^2
    # and the estimator has zero variance.
    for eps in (1.0, 0.5):
        est = dyson.log_separation_integral_mc(
            np.array([0.2 + 0j]), eps, trials=100, seed=0
        )
        assert est.unbiased.log_value == pytest.approx(math.log((2 * eps) ** 2))
        assert est.unbiased.std_error == 0.0
        assert est.jensen.log_value == pytest.approx(est.unbiased.log_value)


def test_mc_two_coincident_points_match_truth():
    # Both points at the origin with eps = 1: the integral over the two unit
    # boxes of |z - w|^2 is 64/3.
    est = dyson.log_separation_integral_mc(
        np.zeros(2, dtype=complex), 1.0, trials=40000, seed=5
    )
    truth = math.log(64.0 / 3.0)
    assert est.unbiased.std_error < 0.05
    assert abs(est.unbiased.log_value - truth) < 4 * est.unbiased.std_error
    assert est.resampled == 0


def test_mc_jensen_sits_below_unbiased():
    pts = np.array([0.1 + 0.2j, -0.3j, 0.4 - 0.1j])
    est = dyson.log_separation_integral_mc(pts, 0.5, trials=5000, seed=2)
    assert est.jensen.log_value <= est.unbiased.log_value + 1e-9
    assert est.trials == 5000


def test_mc_translation_equivariance():
    # Same seed means the same box offsets, and pairwise differences cancel
    # the shift, so the estimates agree up to rounding in the additions.
    pts = np.array([0.1 + 0.2j, -0.3j])
    a = dyson.log_separation_integral_mc(pts, 0.4, trials=2000, seed=3)
    b = dyson.log_separation_integral_mc(pts + (5 - 2j), 0.4, trials=2000, seed=3)
    assert a.unbiased.log_value == pytest.approx(b.unbiased.log_value, abs=1e-9)
    assert a.jensen.log_value == pytest.approx(b.jensen.log_value, abs=1e-9)


def gather_separation_mc(points, eps, trials, seed):
    """Reference Monte Carlo estimator: each chunk's pair values in one gather.

    Draws the same random stream as the library, evaluates every pair of a
    whole chunk at once, and applies the same log-mean-exp, jackknife and
    Jensen formulas.
    """
    z = np.asarray(points, dtype=np.complex128).ravel()
    n = z.size
    log_volume = 2.0 * n * math.log(2.0 * eps)
    rng = substream(seed, 7)
    iu, ju = np.triu_indices(n, 1)
    base_s = z.real[iu] - z.real[ju]
    base_t = z.imag[iu] - z.imag[ju]
    logg = np.empty(trials)
    resampled = filled = 0
    chunk_cap = max(1, (1 << 22) // iu.size)
    while filled < trials:
        draw = min(trials - filled, chunk_cap)
        us = rng.uniform(-eps, eps, size=(draw, n))
        ut = rng.uniform(-eps, eps, size=(draw, n))
        ds = base_s[None, :] + us[:, iu] - us[:, ju]
        dt = base_t[None, :] + ut[:, iu] - ut[:, ju]
        sq = ds * ds + dt * dt
        good = (sq > 0.0).all(axis=1)
        vals = np.log(sq[good]).sum(axis=1)
        logg[filled : filled + vals.size] = vals
        filled += vals.size
        resampled += draw - int(good.sum())
    full = float(logsumexp(logg)) - math.log(trials)
    m = logg.max()
    w = np.exp(logg - m)
    leave_one = m + np.log(w.sum() - w) - math.log(trials - 1)
    jackknife_se = math.sqrt(
        (trials - 1) / trials * ((leave_one - leave_one.mean()) ** 2).sum()
    )
    return dyson.SeparationEstimate(
        dyson.LogEstimate(log_volume + full, jackknife_se, "unbiased"),
        dyson.LogEstimate(
            log_volume + float(logg.mean()),
            float(logg.std(ddof=1) / math.sqrt(trials)),
            "lower-bound",
        ),
        trials,
        resampled,
    )


def _scattered(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.mark.parametrize(
    "points, eps, trials",
    [
        # One pair: 65536-row blocks, trials cross a block boundary.
        (_scattered(2, 1), 0.05, 70001),
        # 21 pairs: 3120-row blocks.
        (_scattered(7, 2), 0.01, 10007),
        # 1128 pairs: 3718-row chunks of 58-row blocks, two chunk boundaries.
        (_scattered(48, 3), 0.01, 7777),
        # Coincident points at eps = 1e-161: a squared separation underflows
        # to zero in about 1% of pairs, which forces redraws.
        (np.full(3, 0.25 - 0.5j), 1e-161, 5003),
    ],
    ids=["n2", "n7", "n48", "coincident-redraws"],
)
def test_mc_matches_the_gather_kernel_bit_for_bit(points, eps, trials):
    got = dyson.log_separation_integral_mc(points, eps, trials, seed=11)
    want = gather_separation_mc(points, eps, trials, seed=11)
    assert got == want
    if eps == 1e-161:
        assert got.resampled > 0


# ----------------------------------------------------------------------------
# Deterministic lower bound


def test_lower_bound_preconditions():
    pts = np.array([0.1 + 0.2j, -0.3j])
    for eps, delta in ((0.2, 0.3), (0.05, 1.5), (0.0, 0.5), (0.1, 0.3)):
        with pytest.raises(ConfigError):
            dyson.separation_integral_lower_bound(pts, eps, delta)


def test_lower_bound_sits_below_the_estimates():
    pts = np.array([0.1 + 0.2j, -0.3j])
    lb = dyson.separation_integral_lower_bound(pts, 0.05, 0.3)
    est = dyson.log_separation_integral_mc(pts, 0.05, trials=4000, seed=1)
    assert lb.kind == "lower-bound"
    assert lb.std_error == 0.0
    assert lb.log_value <= est.jensen.log_value + 3 * est.jensen.std_error
    assert lb.log_value <= est.unbiased.log_value + 3 * est.unbiased.std_error


# ----------------------------------------------------------------------------
# Radius schedule


def test_schedule_frozen_values():
    assert dyson.delta_schedule(1e-3) == pytest.approx(
        0.14476482730108395, abs=1e-14
    )
    assert dyson.delta_schedule(1e-2) == pytest.approx(
        0.21714724095162594, abs=1e-14
    )


def test_schedule_matches_reciprocal_log():
    for eps in (1e-6, 1e-4, 1.5e-2):
        assert dyson.delta_schedule(eps) == pytest.approx(
            1.0 / abs(math.log(eps)), rel=1e-12
        )


def test_schedule_keeps_the_chain_admissible():
    for eps in (1e-8, 1e-5, 1e-2, 0.018):
        delta = dyson.delta_schedule(eps)
        assert 3 * eps < delta <= 1.0


def test_schedule_rejects_out_of_range():
    for eps in (0.0, -1.0, 0.02, 1.0):
        with pytest.raises(ConfigError):
            dyson.delta_schedule(eps)
