"""Dense linear algebra tests.

The Schur path is checked against routes that share none of its code:
cofactor determinants for the LU log-determinant, a two-sided Jacobi sweep
for Hermitian spectra, closed-form spectra for companion, rotation, and
triangular matrices, and LAPACK eigenvalues (``np.linalg.eigvals``) matched
by an optimal assignment.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import zlartg, zrot
from scipy.optimize import linear_sum_assignment

from dtlab import brown, linalg, measures

RNG = np.random.default_rng(20260825)
#: First size that multishift QR solves: CROSS when the Schur vectors are
#: kept (``schur``), EIG_CROSS for eigenvalues only (``eigenvalues``).
#: Smaller blocks use single-shift QR.
CROSS = linalg._MULTISHIFT_MIN
EIG_CROSS = linalg._EIG_MULTISHIFT_MIN
AROUND_EIG_CROSS = [EIG_CROSS - 1, EIG_CROSS, EIG_CROSS + 1]


# ----------------------------------------------------------------------------
# Oracles


def cofactor_det(a: np.ndarray) -> complex:
    """Determinant by cofactor expansion; exponential cost, fine for n <= 5."""
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


def jacobi_hermitian_eigs(a: np.ndarray, sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix by cyclic two-sided Jacobi rotations.

    Independent of the Householder/QR route under test: it never forms a
    Hessenberg matrix and uses only 2x2 diagonalizations.
    """
    h = a.astype(np.complex128).copy()
    n = h.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = h[p, q]
                if abs(apq) < 1e-15:
                    continue
                off = max(off, abs(apq))
                phase = apq / abs(apq)
                theta = 0.5 * math.atan2(
                    2.0 * abs(apq), h[p, p].real - h[q, q].real
                )
                c = math.cos(theta)
                s = math.sin(theta)
                j = np.eye(n, dtype=np.complex128)
                j[p, p] = j[q, q] = c
                j[p, q] = -s * phase
                j[q, p] = s * np.conj(phase)
                h = j.conj().T @ h @ j
        if off < 1e-14:
            break
    return np.sort(np.diag(h).real)


def random_complex(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ----------------------------------------------------------------------------
# Validation and norms


def test_as_square_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        linalg.as_square_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        linalg.as_square_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        linalg.as_square_matrix(np.array([[np.inf, 0], [0, 0]]))


@given(st.integers(1, 12), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_norm2_is_scaled_frobenius(n, seed):
    a = random_complex(n, seed)
    direct = math.sqrt((np.abs(a) ** 2).sum() / n)
    assert linalg.norm2(a) == pytest.approx(direct, rel=1e-12)


def test_norm2_of_identity_is_one():
    assert linalg.norm2(np.eye(7)) == pytest.approx(1.0)


def mp_norm2(a: np.ndarray) -> float:
    """tr_k(a* a)^(1/2) of the float entries in 60-digit arithmetic."""
    with mpmath.workdps(60):
        total = mpmath.fsum(
            mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2 for z in a.ravel()
        )
        return float(mpmath.sqrt(total / a.shape[0]))


@pytest.mark.parametrize(
    "scale", [1e-320, 1e-310, 1e-300, 1e-200, 1e-160, 1e160, 1e200]
)
def test_norm2_where_the_sum_of_squares_leaves_the_normal_range(scale):
    # The squares of these entries underflow or overflow; norm2 rescales.
    # At 1e-310 and 1e-320 the largest modulus is subnormal.
    flat = np.full((16, 16), scale * (1 + 3j))
    assert linalg.norm2(flat) == pytest.approx(mp_norm2(flat), rel=1e-14, abs=0)
    mixed = scale * random_complex(16, 4)
    mixed[0, 0] = 0.0
    assert linalg.norm2(mixed) == pytest.approx(mp_norm2(mixed), rel=1e-14, abs=0)


@pytest.mark.parametrize("scale", [1e-150, 1e-50, 1.0, 1e50, 1e150])
def test_norm2_at_ordinary_magnitudes_is_the_plain_formula(scale):
    # The plain formula ||a||_F / sqrt(k), taken in 60-digit arithmetic;
    # norm2 is within about 2 ulp of it.
    a = scale * random_complex(24, 5)
    assert linalg.norm2(a) == pytest.approx(mp_norm2(a), rel=4e-16, abs=0)


# ----------------------------------------------------------------------------
# Log-determinants


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lu_logabsdet_matches_cofactor_expansion(n):
    for seed in range(5):
        a = random_complex(n, 97 * n + seed)
        expected = math.log(abs(cofactor_det(a)))
        assert linalg.lu_logabsdet_stack(a) == pytest.approx(expected, rel=1e-10)


def test_lu_logabsdet_singular_is_minus_inf():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert linalg.lu_logabsdet_stack(a) == -math.inf


def test_lu_logabsdet_stack_matches_scalar_route():
    # Each slice of a batched call against its own cofactor expansion.
    stack = np.stack([random_complex(5, s) for s in range(6)])
    stack[3] = 0.0
    got = linalg.lu_logabsdet_stack(stack)
    for i in range(6):
        det = abs(cofactor_det(stack[i]))
        expected = math.log(det) if det else -math.inf
        assert got[i] == pytest.approx(expected, rel=1e-10)


# ----------------------------------------------------------------------------
# Spectral radius bound


def test_spectral_radius_bound_dominates_true_radius():
    for seed in range(4):
        a = random_complex(9, 300 + seed)
        rho = np.abs(np.linalg.eigvals(a)).max()
        bound = linalg.spectral_radius_bound(a)
        assert bound >= rho - 1e-9
        assert bound <= float(np.linalg.norm(a)) + 1e-12


def test_spectral_radius_bound_nilpotent_tightens_to_zero():
    a = np.diag(np.ones(7), 1)
    assert linalg.spectral_radius_bound(a) == 0.0


# ----------------------------------------------------------------------------
# Schur form: closed-form spectra


def test_schur_rotation_matrix_gives_conjugate_pair():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    lam = np.sort_complex(linalg.eigenvalues(a))
    assert np.allclose(lam, [-1j, 1j], atol=1e-14)


def test_schur_offdiagonal_pair_gives_sqrt_three_halves():
    a = np.array([[0.0, 1.0], [1.5, 0.0]])
    lam = np.sort(linalg.eigenvalues(a).real)
    root = math.sqrt(1.5)
    assert lam == pytest.approx([-root, root], abs=1e-12)
    assert np.abs(linalg.eigenvalues(a).imag).max() < 1e-12


def test_schur_companion_matrix_gives_cube_roots_of_unity():
    # Companion matrix of z^3 - 1.
    a = np.array(
        [
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
        ]
    )
    lam = np.sort_complex(linalg.eigenvalues(a))
    expected = np.sort_complex(np.exp(2j * math.pi * np.arange(3) / 3))
    assert np.allclose(lam, expected, atol=1e-10)


def test_schur_nilpotent_jordan_block():
    a = np.diag(np.ones(11), 1)
    lam = linalg.eigenvalues(a)
    assert np.abs(lam).max() < 1e-7


def test_schur_triangular_input_passes_through():
    a = np.triu(random_complex(20, 5))
    sf = linalg.schur(a)
    assert sf.residual < 1e-13
    assert np.allclose(np.sort_complex(np.diag(sf.t)), np.sort_complex(np.diag(a)))


@pytest.mark.parametrize("n", [20, CROSS + 1, 200])
def test_eigenvalues_of_a_triangular_matrix_are_its_diagonal_bytes(n):
    # Every Hessenberg panel is already reduced, so no update touches it.
    a = np.triu(random_complex(n, 900 + n))
    assert linalg.eigenvalues(a).tobytes() == np.diag(a).tobytes()


def test_hessenberg_after_a_reduced_first_panel_matches_lapack():
    # The first panel's columns are upper triangular, so it has no
    # reflectors and its updates are skipped; the next panels still reduce.
    n = 3 * linalg._HESS_PANEL
    a = random_complex(n, 901)
    below = np.tril(np.ones((n, n), dtype=bool), -1)
    below[:, linalg._HESS_PANEL :] = False
    a[below] = 0.0
    h = a.copy()
    q = np.eye(n, dtype=np.complex128)
    linalg._hessenberg(h, q)
    assert np.array_equal(np.tril(h, -2), np.zeros_like(h))
    assert np.abs(q @ h @ q.conj().T - a).max() < 1e-12 * np.abs(a).max()
    assert matched_rel_err(linalg.eigenvalues(a), np.linalg.eigvals(a)) <= 1e-12


def test_schur_hermitian_matches_jacobi_oracle():
    for n, seed in [(6, 1), (12, 2), (24, 3)]:
        g = random_complex(n, 800 + seed)
        a = (g + g.conj().T) / 2.0
        got = np.sort(linalg.eigenvalues(a).real)
        want = jacobi_hermitian_eigs(a)
        assert np.allclose(got, want, atol=1e-9)
        assert np.abs(linalg.eigenvalues(a).imag).max() < 1e-9


# ----------------------------------------------------------------------------
# Schur form: structural invariants


@pytest.mark.parametrize("n", [2, 8, 33, 64, CROSS - 1, CROSS + 1, 300])
def test_schur_reconstruction_and_unitarity(n):
    a = random_complex(n, 4000 + n)
    sf = linalg.schur(a)
    assert sf.residual < 1e-12
    defect = np.linalg.norm(sf.q @ sf.q.conj().T - np.eye(n))
    assert defect < 1e-11
    assert np.abs(np.tril(sf.t, -1)).max() == 0.0


@pytest.mark.parametrize("n", [3, 10, 40])
def test_eigenvalue_sum_and_product_identities(n):
    a = random_complex(n, 6100 + n)
    lam = linalg.eigenvalues(a)
    assert complex(lam.sum()) == pytest.approx(complex(np.trace(a)), rel=1e-9)
    assert float(np.log(np.abs(lam)).sum()) == pytest.approx(
        linalg.lu_logabsdet_stack(a), rel=1e-8
    )


def test_eigenvalues_invariant_under_unitary_similarity():
    a = random_complex(14, 77)
    g = random_complex(14, 78)
    u = np.linalg.qr(g)[0]
    lam1 = np.sort_complex(linalg.eigenvalues(a))
    lam2 = np.sort_complex(linalg.eigenvalues(u @ a @ u.conj().T))
    assert np.allclose(lam1, lam2, atol=1e-8)


@pytest.mark.parametrize("n", [30, CROSS + 1, 300, *AROUND_EIG_CROSS])
def test_schur_and_eigenvalues_agree(n):
    # Below CROSS both run single-shift QR.  From CROSS, schur runs multishift
    # sweeps and AED windows on all of h and q; eigenvalues stays single-shift
    # below EIG_CROSS, and from there runs them on the active block only.
    a = random_complex(n, 9)
    ref = np.linalg.eigvals(a)
    assert matched_rel_err(linalg.eigenvalues(a), ref) <= 1e-12
    assert matched_rel_err(np.diag(linalg.schur(a).t), ref) <= 1e-12


def test_schur_deterministic_across_calls():
    a = random_complex(16, 123)
    s1 = linalg.schur(a)
    s2 = linalg.schur(a)
    assert np.array_equal(s1.t, s2.t)
    assert np.array_equal(s1.q, s2.q)


# ----------------------------------------------------------------------------
# Multishift QR: sizes around both crossovers from single-shift QR, and beyond


def ginibre(n: int, seed: int) -> np.ndarray:
    return random_complex(n, seed) / math.sqrt(2.0 * n)


def matched_rel_err(lam: np.ndarray, ref: np.ndarray) -> float:
    """Largest |lam - ref| after an optimal assignment, over max |ref|."""
    cost = np.abs(lam[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max() / np.abs(ref).max())


@pytest.mark.parametrize("n", [CROSS - 1, CROSS, CROSS + 1, 300, *AROUND_EIG_CROSS])
def test_eigenvalues_match_lapack_around_the_crossover(n):
    # eigenvalues is single-shift through EIG_CROSS - 1, multishift from it.
    for seed in range(2):
        a = ginibre(n, 7100 + 10 * n + seed)
        err = matched_rel_err(linalg.eigenvalues(a), np.linalg.eigvals(a))
        assert err <= 1e-12, f"n={n} seed={seed}: {err:.3e}"


@pytest.mark.parametrize("p", [-600, 600])
def test_tiny_and_huge_matrices_are_solved_scaled(p):
    # Entries near 2^-600 square to zero and entries near 2^600 to infinity,
    # so the solve runs on a scaled copy and scales t and the spectrum back.
    a = ginibre(64, 3)
    b = a * 2.0**p
    ref = np.linalg.eigvals(a) * 2.0**p
    assert matched_rel_err(linalg.eigenvalues(b), ref) <= 1e-12
    sf = linalg.schur(b)
    assert matched_rel_err(np.diag(sf.t), ref) <= 1e-12
    assert 0.0 < sf.residual <= 1e-12
    back = sf.q @ (sf.t * 2.0**-p) @ sf.q.conj().T
    assert np.linalg.norm(a - back) <= 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize(
    "specs, k, multishift",
    [
        (["atom:0,0,0.5", "disk:0,0,1,0.5"], 256, False),
        (["atom:0,0,0.5", "atom:0.3,0,0.5"], 256, False),
        (["atom:0,0,0.9", "disk:0,0,1,0.1"], 480, True),
    ],
    ids=["atom-and-disk", "two-atoms", "multishift-atom"],
)
def test_eigenvalues_keep_each_diagonal_block_in_its_rows(specs, k, multishift):
    # A microstate z = y + eps P is block upper triangular: one block per
    # atom run, then a 1 x 1 block per diffuse row.  Each atom's slice of
    # the full solve is its block's spectrum, and the diffuse tail is the
    # diagonal itself.
    mu = measures.parse_measure_spec(specs)
    pair = brown.perturbed_microstate(mu, 1.0, 0.5, k, seed=2)
    assert (max(r.stop - r.start for r in pair.runs) >= EIG_CROSS) == multishift
    lam = linalg.eigenvalues(pair.z)
    for run in pair.runs:
        err = matched_rel_err(lam[run], np.linalg.eigvals(pair.z[run, run]))
        assert err <= 1e-12, f"rows {run}: {err:.3e}"
    tail = slice(pair.runs[-1].stop, k)
    assert lam[tail].tobytes() == np.diag(pair.z)[tail].tobytes()


def _lower_shift(n: int) -> np.ndarray:
    """Nilpotent Jordan block in Hessenberg form: ones on the sub-diagonal."""
    return np.diag(np.ones(n - 1), -1)


def _cyclic_companion(n: int) -> np.ndarray:
    """Companion matrix of z^n - 1, whose spectrum is the n-th roots of unity."""
    return np.roll(np.eye(n), 1, axis=0)


def _graded(n: int) -> np.ndarray:
    d = np.logspace(0.0, -8.0, n)
    return d[:, None] * random_complex(n, 7501) * d[None, :]


def _repeated(n: int) -> np.ndarray:
    u = np.linalg.qr(random_complex(n, 7502))[0]
    lam = np.resize(np.array([1.0, -1.0, 2.0j, 0.5 + 0.5j]), n)
    return (u * lam) @ u.conj().T


def _split_hessenberg(n: int) -> np.ndarray:
    h = np.triu(random_complex(n, 7503), -1)
    h[n // 2, n // 2 - 1] = 0.0
    return h


ADVERSARIAL = {
    "nilpotent_jordan": _lower_shift,
    "cyclic_companion": _cyclic_companion,
    "graded": _graded,
    "repeated_eigenvalues": _repeated,
    "interior_zero_subdiagonal": _split_hessenberg,
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_inputs_converge_or_refuse(name):
    n = CROSS + 16
    a = ADVERSARIAL[name](n)
    try:
        sf = linalg.schur(a)
        lam = linalg.eigenvalues(a)
    except linalg.ConvergenceError:
        return
    assert np.isfinite(sf.t).all() and np.isfinite(sf.q).all()
    assert np.isfinite(lam).all()
    assert not np.tril(sf.t, -1).any()
    assert sf.residual <= 1e-12
    assert np.linalg.norm(sf.q @ sf.q.conj().T - np.eye(n)) <= 1e-11


def test_adversarial_spectra_match_their_oracles():
    n = CROSS + 16
    roots = np.exp(2j * math.pi * np.arange(n) / n)
    lam = linalg.eigenvalues(_cyclic_companion(n))
    assert matched_rel_err(lam, roots) <= 1e-12
    want = np.resize(np.array([1.0, -1.0, 2.0j, 0.5 + 0.5j]), n)
    assert matched_rel_err(linalg.eigenvalues(_repeated(n)), want) <= 1e-12
    h = _split_hessenberg(n)
    k = n // 2
    ref = np.concatenate(
        [np.linalg.eigvals(h[:k, :k]), np.linalg.eigvals(h[k:, k:])]
    )
    assert matched_rel_err(linalg.eigenvalues(h), ref) <= 1e-12


@pytest.mark.parametrize("n", [CROSS + 1, 300, *AROUND_EIG_CROSS])
def test_multishift_is_deterministic_across_calls(n):
    # schur is multishift at every size here, eigenvalues from EIG_CROSS.
    a = ginibre(n, 7700 + n)
    s1 = linalg.schur(a)
    s2 = linalg.schur(a)
    assert s1.t.tobytes() == s2.t.tobytes()
    assert s1.q.tobytes() == s2.q.tobytes()
    assert linalg.eigenvalues(a).tobytes() == linalg.eigenvalues(a).tobytes()


@pytest.mark.parametrize(
    "solve, cross",
    [(linalg.eigenvalues, EIG_CROSS), (lambda a: linalg.schur(a).t, CROSS)],
    ids=["eigenvalues", "schur"],
)
def test_each_mode_switches_to_multishift_at_its_crossover(monkeypatch, solve, cross):
    # Record the active block of each bulge chase: none below the crossover,
    # and no smaller block is chased once a solve has started multishift.
    chases = []
    chase = linalg._chase

    def counted(*args):
        chases.append(args[3] - args[2])
        chase(*args)

    monkeypatch.setattr(linalg, "_chase", counted)
    solve(ginibre(cross - 1, 7800))
    assert chases == []
    solve(ginibre(cross, 7801))
    assert chases and min(chases) >= cross


@pytest.mark.parametrize(
    "solve, n",
    [
        (linalg.eigenvalues, 64),
        (linalg.eigenvalues, EIG_CROSS + 16),
        (linalg.schur, 64),
        (linalg.schur, CROSS + 16),
    ],
    ids=["eigenvalues-single", "eigenvalues-multi", "schur-single", "schur-multi"],
)
def test_an_exceeded_shift_budget_raises(monkeypatch, solve, n):
    # With no shifts to spend, the first sweep of either path, or of the
    # first AED window, exceeds the budget.  A triangular input needs none.
    monkeypatch.setattr(linalg, "_SHIFTS_PER_DIM", 0)
    a = ginibre(n, 8000 + n)
    with pytest.raises(linalg.ConvergenceError, match="shift budget of 0 exceeded"):
        solve(a)
    tri = np.triu(a)
    if solve is linalg.schur:
        sf = solve(tri)
        assert np.array_equal(sf.t, tri) and np.array_equal(sf.q, np.eye(n))
    else:
        assert np.array_equal(solve(tri), np.diag(tri))


def test_an_exceeded_shift_budget_names_the_size_of_the_input(monkeypatch):
    # At 432 rows the first call to fail is the 27-row AED window's; the
    # message names the window and the matrix the caller passed in.
    monkeypatch.setattr(linalg, "_SHIFTS_PER_DIM", 0)
    with pytest.raises(
        linalg.ConvergenceError,
        match=r"shift budget of 0 exceeded at dimension 27; .* 432 x 432 matrix",
    ):
        linalg.eigenvalues(ginibre(432, 8432))


def test_a_block_below_the_crossover_is_solved_with_its_standalone_bytes():
    # The driver finishes a block below the crossover in place, within the
    # block, so its spectrum has the bytes of the block solved on its own.
    n, lo = 600, 520
    assert n - lo < EIG_CROSS <= lo
    h = np.triu(ginibre(n, 8100), -1)
    h[lo, lo - 1] = 0.0
    blk = h[lo:, lo:].copy()
    linalg._triangularize(h, None)
    linalg._triangularize(blk, None)
    assert np.diag(h)[lo:].tobytes() == np.diag(blk).tobytes()


@pytest.mark.parametrize("n, lo, hi", [(2, 0, 2), (3, 0, 3), (8, 0, 8), (40, 5, 33)])
@pytest.mark.parametrize("keep_q", [True, False], ids=["schur", "eigenvalues"])
def test_a_single_shift_sweep_is_one_explicit_qr_step(n, lo, hi, keep_q):
    # Oracle: Q, R = qr(H - shift I) and H' = RQ + shift I on the block, by
    # LAPACK.  By the implicit Q theorem the sweep's rotations make Q up to a
    # unitary diagonal scaling, so every entry agrees in modulus.  With q
    # kept, the rows above the block take h[:lo, lo:hi] Q, the columns right
    # of it Q* h[lo:hi, hi:], and q takes q[:, lo:hi] Q; without q, nothing
    # outside the block moves.
    h = np.triu(ginibre(n, 8400 + n), -1)
    if lo:
        h[lo, lo - 1] = 0.0
    if hi < n:
        h[hi, hi - 1] = 0.0
    q = np.linalg.qr(ginibre(n, 8500 + n))[0] if keep_q else None
    shift = 0.3 - 0.2j
    blk = h[lo:hi, lo:hi]
    qb, r = np.linalg.qr(blk - shift * np.eye(hi - lo))
    want = h.copy()
    want[lo:hi, lo:hi] = r @ qb + shift * np.eye(hi - lo)
    got = h.copy()
    got_q = None if q is None else q.copy()
    linalg._qr_sweep(got, got_q, lo, hi, shift)
    scale = np.abs(h).max()
    if keep_q:
        want[:lo, lo:hi] = h[:lo, lo:hi] @ qb
        want[lo:hi, hi:] = qb.conj().T @ h[lo:hi, hi:]
        assert np.abs(np.abs(got) - np.abs(want)).max() <= 1e-14 * scale
        want_q = q.copy()
        want_q[:, lo:hi] = q[:, lo:hi] @ qb
        assert np.abs(np.abs(got_q) - np.abs(want_q)).max() <= 1e-14
    else:
        inside = np.zeros((n, n), dtype=bool)
        inside[lo:hi, lo:hi] = True
        assert got[~inside].tobytes() == h[~inside].tobytes()
        assert np.abs(np.abs(got) - np.abs(want)).max() <= 1e-14 * scale


@pytest.mark.parametrize("m", [1, 16, 64])
def test_a_chain_of_m_bulges_is_m_single_shift_sweeps(m):
    # Chasing m bulges is m single-shift sweeps with the same shifts, each
    # the chase of one bulge, so h and q agree entrywise.  The block
    # [lo, hi) sits inside h, and q is kept, so the rotations also reach the
    # rows above and the columns right of it.
    n, lo, hi = 200, 12, 188
    h = np.triu(ginibre(n, 8200 + m), -1)
    h[lo, lo - 1] = h[hi, hi - 1] = 0.0
    q = np.linalg.qr(ginibre(n, 8300 + m))[0]
    a = q @ h @ q.conj().T
    shifts = 0.3 * np.exp(2j * np.pi * np.random.default_rng(m).random(m))
    hs, qs = h.copy(), q.copy()
    for shift in shifts:
        linalg._qr_sweep(hs, qs, lo, hi, shift)
    linalg._chase(h, q, lo, hi, shifts)
    assert np.abs(h - hs).max() <= 1e-12 * np.abs(h).max()
    assert np.abs(q - qs).max() <= 1e-12
    assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-12
    assert np.linalg.norm(a - q @ h @ q.conj().T) <= 1e-12 * np.linalg.norm(a)
    assert not np.tril(h, -2).any()


# ----------------------------------------------------------------------------
# Rotation bytes: the solver's inline zrot calls against a reference sweep
# and swap that route every rotation through a row or a column helper


def _rotate_rows(flat, n, i, c0, c1, c, s):
    """Left-multiply rows i, i + 1, columns [c0, c1) of a C-contiguous n x n
    matrix, given as its flat buffer, by [[c, s], [-conj(s), c]] in place."""
    zrot(flat, flat, c, s, c1 - c0, i * n + c0, 1, (i + 1) * n + c0, 1, 1, 1)


def _rotate_columns(flat, n, r0, r1, j, c, s):
    """Right-multiply columns j, j + 1, rows [r0, r1) of a C-contiguous n x n
    matrix, given as its flat buffer, by [[c, -conj(s)], [s, c]] in place."""
    zrot(flat, flat, c, s, r1 - r0, r0 * n + j, n, r0 * n + j + 1, n, 1, 1)


def _reference_qr_sweep(h, q, lo, hi, shift):
    n = h.shape[0]
    row_start, col_end = linalg._span(h, q, lo, hi)
    flat = h.reshape(-1)
    qflat = None if q is None else q.reshape(-1)
    c, s, _ = zlartg(h.item(lo, lo) - shift, h.item(lo + 1, lo))
    _rotate_rows(flat, n, lo, lo, col_end, c, s)
    for j in range(lo + 1, hi - 1):
        _rotate_columns(flat, n, row_start, j + 2, j - 1, c, s.conjugate())
        if qflat is not None:
            _rotate_columns(qflat, n, 0, n, j - 1, c, s.conjugate())
        c, s, _ = zlartg(h.item(j, j - 1), h.item(j + 1, j - 1))
        _rotate_rows(flat, n, j, j - 1, col_end, c, s)
        h[j + 1, j - 1] = 0.0
    _rotate_columns(flat, n, row_start, hi, hi - 2, c, s.conjugate())
    if qflat is not None:
        _rotate_columns(qflat, n, 0, n, hi - 2, c, s.conjugate())


def _reference_swap_up(t, v, j, i):
    n = t.shape[0]
    flat = t.reshape(-1)
    vflat = v.reshape(-1)
    for k in range(j - 1, i - 1, -1):
        t11 = t[k, k]
        t22 = t[k + 1, k + 1]
        c, s, _ = zlartg(t.item(k, k + 1), t22 - t11)
        if k + 2 < n:
            _rotate_rows(flat, n, k, k + 2, n, c, s)
        s = s.conjugate()
        _rotate_columns(flat, n, 0, k, k, c, s)
        _rotate_columns(vflat, n, 0, n, k, c, s)
        t[k, k] = t22
        t[k + 1, k + 1] = t11


@pytest.mark.parametrize("n", [2, 3, 17, 64, CROSS - 1, CROSS + 1])
def test_rotations_write_the_bytes_of_the_reference_sweep(monkeypatch, n):
    # Through CROSS - 1 both solvers run single-shift QR alone; at CROSS + 1
    # schur's AED windows also swap eigenvalues with _swap_up.  From n = 3 the
    # cyclic companion stalls until _STALL_PERIOD sweeps take an exceptional
    # shift.
    inputs = [ginibre(n, 7900 + n), _cyclic_companion(n)]
    got = [(linalg.schur(a), linalg.eigenvalues(a)) for a in inputs]
    exceptional = []

    def reference(h, q, lo, hi, shift):
        exceptional.append(shift == h[hi - 1, hi - 1] + 0.75 * abs(h[hi - 1, hi - 2]))
        _reference_qr_sweep(h, q, lo, hi, shift)

    monkeypatch.setattr(linalg, "_qr_sweep", reference)
    monkeypatch.setattr(linalg, "_swap_up", _reference_swap_up)
    for a, (sf, lam) in zip(inputs, got):
        ref = linalg.schur(a)
        assert sf.t.tobytes() == ref.t.tobytes()
        assert sf.q.tobytes() == ref.q.tobytes()
        assert lam.tobytes() == linalg.eigenvalues(a).tobytes()
    assert any(exceptional) or n == 2


# ----------------------------------------------------------------------------
# Structured inputs at random sizes, and thread-count independence


def _jordan(n: int, rng: np.random.Generator) -> np.ndarray:
    """Up to four Jordan blocks on shared eigenvalues, with their ones on the
    sub-diagonal (Hessenberg form) or hidden by a unitary similarity."""
    j = np.zeros((n, n), dtype=np.complex128)
    ncuts = rng.integers(0, min(n - 1, 3) + 1)
    cuts = np.sort(rng.choice(np.arange(1, n), size=ncuts, replace=False))
    for block in np.split(np.arange(n), cuts):
        j[block, block] = rng.choice([0.0, 1.0, -0.5 + 0.5j])
        j[block[1:], block[:-1]] = 1.0
    if rng.integers(2):
        u = np.linalg.qr(random_complex(n, int(rng.integers(2**32))))[0]
        j = u @ j @ u.conj().T
    return j


def _companion(n: int, rng: np.random.Generator) -> np.ndarray:
    """Companion matrix of a monic polynomial with Gaussian coefficients."""
    a = np.diag(np.ones(n - 1, dtype=np.complex128), -1)
    a[:, -1] = -(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return a


def _graded_random(n: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian matrix scaled by a diagonal grading over up to 16 decades."""
    d = np.logspace(0.0, -rng.uniform(0.0, 16.0), n)
    if rng.integers(2):
        d = d[::-1]
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return d[:, None] * g * d[None, :]


def _exact_repeats(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unitary similarity of a diagonal with one to three distinct values."""
    values = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    lam = rng.choice(values[: rng.integers(1, 4)], size=n)
    u = np.linalg.qr(random_complex(n, int(rng.integers(2**32))))[0]
    return (u * lam) @ u.conj().T


STRUCTURED = {
    "jordan": _jordan,
    "companion": _companion,
    "graded": _graded_random,
    "exact_repeats": _exact_repeats,
}


@given(
    st.sampled_from(sorted(STRUCTURED)),
    st.integers(2, CROSS + 34),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_structured_inputs_converge_or_refuse(kind, n, seed):
    a = STRUCTURED[kind](n, np.random.default_rng(seed))
    try:
        sf = linalg.schur(a)
    except linalg.ConvergenceError:
        return
    assert np.isfinite(sf.t).all() and np.isfinite(sf.q).all()
    assert not np.tril(sf.t, -1).any()
    assert sf.residual <= 1e-12
    assert np.linalg.norm(sf.q @ sf.q.conj().T - np.eye(n)) <= 1e-11


_THREAD_PROBE = """
import sys

import numpy as np

from dtlab import brown, linalg, measures

inputs = np.load(sys.argv[1])
h = inputs["h"]
t = h.copy()
linalg._triangularize(t, None)
tq = h.copy()
q = np.eye(h.shape[0], dtype=np.complex128)
linalg._triangularize(tq, q)
t512 = inputs["h512"].copy()
linalg._triangularize(t512, None)
np.savez(
    sys.argv[2],
    t=t,
    tq=tq,
    q=q,
    t512=t512,
    eig64=linalg.eigenvalues(inputs["a64"]),
    eig128=linalg.eigenvalues(inputs["a128"]),
)
"""


def test_qr_phase_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The Hessenberg reduction's own products do depend on the thread count
    # at k = 256, so the QR phase starts from saved Hessenberg matrices.  At
    # 256 rows, eigenvalues only (t) is single-shift and the Schur form (tq, q)
    # multishift; at 512 rows eigenvalues only is multishift too.
    assert CROSS <= 256 < EIG_CROSS <= 512
    h, h512 = ginibre(256, 3), ginibre(512, 3)
    linalg._hessenberg(h, None)
    linalg._hessenberg(h512, None)
    inputs = tmp_path / "inputs.npz"
    np.savez(inputs, h=h, h512=h512, a64=ginibre(64, 3), a128=ginibre(128, 3))
    src = str(Path(linalg.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        out = tmp_path / f"threads{threads}.npz"
        subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE, str(inputs), str(out)],
            env=env,
            check=True,
            timeout=600,
        )
        runs.append(np.load(out))
    one, two = runs
    assert sorted(one.files) == ["eig128", "eig64", "q", "t", "t512", "tq"]
    for key in one.files:
        assert one[key].tobytes() == two[key].tobytes(), key
