"""Dense linear algebra tests.

The Schur path is checked against routes that share none of its code:
cofactor determinants for the LU log-determinant, a two-sided Jacobi sweep
for Hermitian spectra, closed-form spectra for companion, rotation, and
triangular matrices, and LAPACK eigenvalues (``np.linalg.eigvals``) matched
by an optimal assignment.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from dtlab import linalg

RNG = np.random.default_rng(20260825)
#: First size solved by multishift QR; smaller ones use single-shift QR.
CROSS = linalg._MULTISHIFT_MIN


# ----------------------------------------------------------------------------
# Oracles


def cofactor_det(a: np.ndarray) -> complex:
    """Determinant by cofactor expansion; exponential cost, fine for n <= 4."""
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


# ----------------------------------------------------------------------------
# Log-determinants


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lu_logabsdet_matches_cofactor_expansion(n):
    for seed in range(5):
        a = random_complex(n, 97 * n + seed)
        expected = math.log(abs(cofactor_det(a)))
        assert linalg.lu_logabsdet(a) == pytest.approx(expected, rel=1e-10)


def test_lu_logabsdet_singular_is_minus_inf():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert linalg.lu_logabsdet(a) == -math.inf


def test_lu_logabsdet_stack_matches_scalar_route():
    stack = np.stack([random_complex(5, s) for s in range(6)])
    stack[3] = 0.0
    got = linalg.lu_logabsdet_stack(stack)
    for i in range(6):
        assert got[i] == pytest.approx(linalg.lu_logabsdet(stack[i]), rel=1e-12) or (
            math.isinf(got[i]) and math.isinf(linalg.lu_logabsdet(stack[i]))
        )


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
    assert np.allclose(np.sort_complex(sf.diagonal), np.sort_complex(np.diag(a)))


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
        linalg.lu_logabsdet(a), rel=1e-8
    )


def test_eigenvalues_invariant_under_unitary_similarity():
    a = random_complex(14, 77)
    g = random_complex(14, 78)
    u = np.linalg.qr(g)[0]
    lam1 = np.sort_complex(linalg.eigenvalues(a))
    lam2 = np.sort_complex(linalg.eigenvalues(u @ a @ u.conj().T))
    assert np.allclose(lam1, lam2, atol=1e-8)


@pytest.mark.parametrize("n", [30, CROSS + 1, 300])
def test_schur_and_eigenvalues_agree(n):
    # Below CROSS both run single-shift QR; above it, multishift sweeps and
    # AED windows, which update all of h and q or only the active block.
    a = random_complex(n, 9)
    ref = np.linalg.eigvals(a)
    assert matched_rel_err(linalg.eigenvalues(a), ref) <= 1e-12
    assert matched_rel_err(linalg.schur(a).diagonal, ref) <= 1e-12


def test_schur_deterministic_across_calls():
    a = random_complex(16, 123)
    s1 = linalg.schur(a)
    s2 = linalg.schur(a)
    assert np.array_equal(s1.t, s2.t)
    assert np.array_equal(s1.q, s2.q)


# ----------------------------------------------------------------------------
# Multishift QR: sizes around the crossover from single-shift QR, and beyond


def ginibre(n: int, seed: int) -> np.ndarray:
    return random_complex(n, seed) / math.sqrt(2.0 * n)


def matched_rel_err(lam: np.ndarray, ref: np.ndarray) -> float:
    """Largest |lam - ref| after an optimal assignment, over max |ref|."""
    cost = np.abs(lam[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max() / np.abs(ref).max())


@pytest.mark.parametrize("n", [CROSS - 1, CROSS, CROSS + 1, 300])
def test_eigenvalues_match_lapack_around_the_crossover(n):
    for seed in range(2):
        a = ginibre(n, 7100 + 10 * n + seed)
        err = matched_rel_err(linalg.eigenvalues(a), np.linalg.eigvals(a))
        assert err <= 1e-12, f"n={n} seed={seed}: {err:.3e}"


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


@pytest.mark.parametrize("n", [CROSS + 1, 300])
def test_multishift_is_deterministic_across_calls(n):
    a = ginibre(n, 7700 + n)
    s1 = linalg.schur(a)
    s2 = linalg.schur(a)
    assert s1.t.tobytes() == s2.t.tobytes()
    assert s1.q.tobytes() == s2.q.tobytes()
    assert linalg.eigenvalues(a).tobytes() == linalg.eigenvalues(a).tobytes()
