"""Packing estimate tests.

The assembled packing bound is rebuilt term by term inside the tests from
the volume, normalization, and counting pieces, so a change in any one term
is caught against an independent sum.  Scan rows must satisfy the exact
algebraic identities linking their normalized and raw fields.
"""

import math

import pytest

from dtlab import dimension, dyson, measures
from dtlab.dimension import ScanRow

DELTA0 = measures.CompactMeasure.dirac(0.0)


def packing_term_sum(eps: float, big_n: int, k: int, f_lb_total: float) -> float:
    """Term-by-term rebuild of the packing bound for cross-checking."""
    n = big_n * k
    ball_dim = big_n * k * (k - 1)
    pairs_dim = k * k * big_n * (big_n - 1)
    total = (
        dyson.log_dyson_constant(n)
        + f_lb_total
        + (pairs_dim / 2.0) * math.log(big_n)
        + math.lgamma(n * n + 1)
        - (n * n) * math.log(math.pi * (6.0 * math.sqrt(n) * eps) ** 2)
    )
    if ball_dim >= 1:
        total += dimension.log_ball_volume(ball_dim, math.sqrt(n) * eps)
    return total


# ----------------------------------------------------------------------------
# Ball volumes


def test_ball_volume_closed_forms():
    assert dimension.log_ball_volume(1, 2.0) == pytest.approx(math.log(4.0))
    assert dimension.log_ball_volume(2, 1.0) == pytest.approx(math.log(math.pi))
    assert dimension.log_ball_volume(3, 1.0) == pytest.approx(
        math.log(4.0 * math.pi / 3.0)
    )


def test_ball_volume_dimension_recursion():
    # V_d / V_{d-2} = 2 pi / d, a relation the log-gamma route must satisfy.
    for d in (10, 100, 1000):
        gap = dimension.log_ball_volume(d, 1.0) - dimension.log_ball_volume(
            d - 2, 1.0
        )
        assert gap == pytest.approx(math.log(2.0 * math.pi / d), abs=1e-9)


def test_ball_volume_radius_scaling():
    got = dimension.log_ball_volume(5, 2.0) - dimension.log_ball_volume(5, 1.0)
    assert got == pytest.approx(5 * math.log(2.0), abs=1e-12)


def test_ball_volume_rejects_bad_input():
    with pytest.raises(ValueError):
        dimension.log_ball_volume(0, 1.0)
    with pytest.raises(ValueError):
        dimension.log_ball_volume(3, 0.0)


# ----------------------------------------------------------------------------
# Packing lower bound


def test_packing_bound_matches_term_sum():
    cases = [
        (0.1, 2, 4, -3.0),
        (0.01, 8, 16, -120.0),
        (0.05, 3, 5, 0.0),
    ]
    for eps, big_n, k, f_total in cases:
        got = dimension.packing_lower_bound_log(eps, big_n, k, f_total)
        assert got == pytest.approx(
            packing_term_sum(eps, big_n, k, f_total), rel=1e-12
        )


def test_packing_bound_eps_halving_shift():
    # Halving eps shrinks the perturbation ball by ball_dim log 2 but gains
    # 2 n^2 log 2 from the covering cells, a net exact shift.
    big_n, k = 4, 8
    n = big_n * k
    ball_dim = big_n * k * (k - 1)
    a = dimension.packing_lower_bound_log(0.02, big_n, k, -10.0)
    b = dimension.packing_lower_bound_log(0.01, big_n, k, -10.0)
    assert b - a == pytest.approx((2 * n * n - ball_dim) * math.log(2.0), rel=1e-12)


def test_packing_bound_single_row_blocks():
    # k = 1 has no within-block perturbation directions; the ball term
    # drops out and the rest of the sum remains.
    got = dimension.packing_lower_bound_log(0.1, 4, 1, 0.0)
    assert got == pytest.approx(packing_term_sum(0.1, 4, 1, 0.0), rel=1e-12)


def test_packing_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        dimension.packing_lower_bound_log(0.0, 2, 4, 0.0)
    with pytest.raises(ValueError):
        dimension.packing_lower_bound_log(0.1, 0, 4, 0.0)


def test_assemble_delta_hat_closed_form():
    got = dimension.assemble_delta_hat(1e-3, 4, -2.0, 0.5)
    assert got == pytest.approx(1.75 - 1.5 / abs(math.log(1e-3)), rel=1e-12)
    # With no correction terms the estimate is exactly 2 - 1/N.
    assert dimension.assemble_delta_hat(1e-4, 8, 0.0, 0.0) == pytest.approx(
        2.0 - 1.0 / 8.0
    )


# ----------------------------------------------------------------------------
# Scan rows


def test_scan_rows_satisfy_the_assembly_identities():
    # The scan's delta_hat is assemble_delta_hat itself, to the bit; on both
    # grids total / (n^2 |log eps|) differs from it in the last bit.
    rows = dimension.dimension_scan(
        DELTA0, 1.0, bigN=2, k=8, eps_grid=[1e-2, 1e-3], seed=0
    ) + dimension.dimension_scan(
        DELTA0, 1.0, bigN=8, k=32, eps_grid=[1e-3, 1e-4], seed=7
    )
    assert len(rows) == 4
    for row in rows:
        n2 = (row.bigN * row.k) ** 2
        assert row.delta == pytest.approx(dyson.delta_schedule(row.eps))
        assert row.delta_hat == dimension.assemble_delta_hat(
            row.eps, row.bigN, row.f_lb_norm, row.const_term
        )
        # The raw packing bound and the normalized fields describe the same
        # number through two routes.
        assert row.log_packing_lb == pytest.approx(
            dimension.packing_lower_bound_log(
                row.eps, row.bigN, row.k, row.f_lb_norm * n2
            ),
            rel=1e-12,
        )
        assert row.delta_hat == pytest.approx(
            row.log_packing_lb / (n2 * abs(math.log(row.eps))), rel=1e-12
        )


def test_scan_is_deterministic_and_grows_toward_small_eps():
    grid = [1e-2, 1e-3, 1e-4]
    rows = dimension.dimension_scan(DELTA0, 1.0, 2, 8, grid, seed=3)
    again = dimension.dimension_scan(DELTA0, 1.0, 2, 8, grid, seed=3)
    assert [r.delta_hat for r in rows] == [r.delta_hat for r in again]
    values = [r.delta_hat for r in rows]
    for prev, nxt in zip(values, values[1:]):
        assert nxt >= prev - 0.05
    assert values[-1] > values[0]


def test_scan_skips_inadmissible_eps_with_a_log_record(caplog):
    with caplog.at_level("WARNING", logger="dtlab.dimension"):
        rows = dimension.dimension_scan(
            DELTA0, 1.0, 2, 8, [1e-2, 0.5], seed=0
        )
    assert len(rows) == 1
    assert any("skips eps=0.5" in message for message in caplog.messages)


def test_scan_chi_offset_shifts_the_constant_term():
    base = dimension.dimension_scan(DELTA0, 1.0, 2, 8, [1e-2], seed=0)[0]
    moved = dimension.dimension_scan(
        DELTA0, 1.0, 2, 8, [1e-2], chi_offset=1.0, seed=0
    )[0]
    n2 = (base.bigN * base.k) ** 2
    assert moved.const_term - base.const_term == pytest.approx(1.0 / n2)
    assert moved.delta_hat - base.delta_hat == pytest.approx(
        1.0 / (n2 * abs(math.log(1e-2)))
    )


def test_scan_row_validation():
    with pytest.raises(ValueError):
        ScanRow(1e-2, 0.2, 2, 8, 0.0, 0.0, 2.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        ScanRow(1e-2, 0.2, 2, 8, math.nan, 0.0, 1.5, 0.0, 0.0)


def test_scan_csv_layout(tmp_path):
    rows = dimension.dimension_scan(DELTA0, 1.0, 2, 8, [1e-2, 1e-3], seed=0)
    out = tmp_path / "scan.csv"
    dimension.write_scan_csv(rows, out, config={"c": 1.0})
    lines = out.read_text().splitlines()
    assert lines[0] == '# {"c": 1.0}'
    assert lines[1] == "eps,delta,bigN,k,f_lb_norm,const_term,delta_hat"
    assert len(lines) == 2 + len(rows)
    first = lines[2].split(",")
    assert float(first[0]) == pytest.approx(1e-2)
    assert int(first[2]) == 2 and int(first[3]) == 8
    assert float(first[6]) == pytest.approx(rows[0].delta_hat, rel=1e-9)


def test_scan_row_over_the_ceiling_is_a_logged_skip(caplog):
    with caplog.at_level("WARNING", logger="dtlab.dimension"):
        rows = dimension.dimension_scan(
            DELTA0, 1.0, 2, 8, [1e-2, 1e-3], chi_offset=1e9
        )
    assert rows == []
    skips = [m for m in caplog.messages if "sanity ceiling" in m]
    assert len(skips) == 2
