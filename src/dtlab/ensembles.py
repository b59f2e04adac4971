"""Samplers for diagonal-plus-strictly-triangular matrix models.

The core object is the sum of a deterministic-in-law diagonal (drawn from a
compactly supported spectral measure) and an independent strictly upper
triangular Gaussian part.  A block-matrix assembly of the same model at
parameter c/sqrt(N) is provided for self-consistency experiments, together
with *-moment probes and an alternating-product freeness diagnostic.

Normalization convention: a square Ginibre matrix with per-entry second
absolute moment 1/k has tr_k-normalized square norm close to 1, and the
strictly upper part of the triangular model at scale c carries
tr_k(T* T) ~ c^2 / 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import measures
from .linalg import as_square_matrix
from .measures import CompactMeasure
from .rng import derive_seed, substream

__all__ = [
    "DTParams",
    "FreenessReport",
    "sample_ginibre",
    "sample_strict_upper",
    "sample_diagonal",
    "sample_dt",
    "assemble_block_dt",
    "star_moment_table",
    "freeness_check",
]


@dataclass(frozen=True)
class DTParams:
    """Parameters of the diagonal-plus-triangular model."""

    mu: CompactMeasure
    c: float
    k: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.mu, CompactMeasure):
            raise ValueError("mu must be a CompactMeasure")
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not (isinstance(self.k, (int, np.integer)) and self.k >= 1):
            raise ValueError(f"k must be a positive integer, got {self.k}")


def _complex_normal(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _ginibre(rng: np.random.Generator, k: int, variance: float) -> np.ndarray:
    return _complex_normal(rng, (k, k), variance)


def sample_ginibre(k: int, variance: float, seed: int) -> np.ndarray:
    """k x k matrix of iid centered complex Gaussians, E|entry|^2 = variance."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (variance > 0):
        raise ValueError("variance must be positive")
    return _ginibre(substream(seed, 2), k, variance)


def _strict_upper(rng: np.random.Generator, k: int, c: float) -> np.ndarray:
    base = _ginibre(rng, k, 1.0 / k)
    return c * np.triu(base, 1)


def sample_strict_upper(k: int, c: float, seed: int) -> np.ndarray:
    """Strictly upper triangular Gaussian part at scale c.

    Entries above the diagonal are iid centered complex Gaussians with second
    absolute moment c^2/k, everything else zero.  The draw is linear in c for
    a fixed seed so different scales share the same underlying noise.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (c > 0):
        raise ValueError("c must be positive")
    return _strict_upper(substream(seed, 1), k, c)


def sample_diagonal(
    mu: CompactMeasure, k: int, mode: str = "quantile", seed: int = 0
) -> np.ndarray:
    """Diagonal matrix whose spectral distribution approximates ``mu``.

    In quantile mode, atom multiplicities are fixed by largest-remainder
    rounding of mass * k (ties by component order) and each atom's copies are
    contiguous, atoms first; diffuse parts are stratified.  In iid mode all k
    entries are independent draws from mu.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    points = measures._sample_points(substream(seed, 0), mu, k, mode)
    return np.diag(points.astype(np.complex128))


def sample_dt(params: DTParams, mode: str = "quantile") -> np.ndarray:
    """One draw of the diagonal-plus-strictly-upper model."""
    diag = sample_diagonal(params.mu, params.k, mode, params.seed)
    upper = sample_strict_upper(params.k, params.c, params.seed)
    return diag + upper


def assemble_block_dt(
    mu: CompactMeasure, c: float, bigN: int, k: int, seed: int
) -> np.ndarray:
    """Block-matrix realization of the model at matched overall scale.

    Returns a (bigN*k) x (bigN*k) matrix whose bigN diagonal blocks are
    independent draws of the base model at parameter c/sqrt(bigN) and whose
    strictly-upper blocks are independent square Ginibre blocks with
    tr_k(B* B) concentrating at c^2/bigN.  All blocks draw from independent
    streams derived from the single root seed.
    """
    if bigN < 1:
        raise ValueError("bigN must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (c > 0):
        raise ValueError("c must be positive")
    n = bigN * k
    z = np.zeros((n, n), dtype=np.complex128)
    c_block = c / math.sqrt(bigN)
    var_upper = c * c / (bigN * k)
    for i in range(bigN):
        sl = slice(i * k, (i + 1) * k)
        z[sl, sl] = sample_dt(DTParams(mu, c_block, k, derive_seed(seed, 4, i)))
        for j in range(i + 1, bigN):
            z[sl, j * k : (j + 1) * k] = _ginibre(
                substream(seed, 4, i, j), k, var_upper
            )
    return z


def _resolve_family(family) -> list[np.ndarray]:
    mats = [as_square_matrix(a, f"family[{i}]") for i, a in enumerate(family)]
    if not mats:
        raise ValueError("family must contain at least one matrix")
    k = mats[0].shape[0]
    if any(m.shape[0] != k for m in mats):
        raise ValueError("family members must share one dimension")
    return mats


def _label(letters: tuple) -> str:
    return "".join(chr(ord("a") + i) + ("*" if adj else "") for i, adj in letters)


def _adjoint(word: tuple) -> tuple:
    """Letters of w* for the letters of w."""
    return tuple((idx, not adj) for idx, adj in reversed(word))


class _TraceEngine:
    """Normalized traces tr_k(w) of raw words w in a matrix family.

    A word of L >= 2 letters is split as w = h r with ceil(L/2) letters in h,
    and tr(h r) = vdot(P[r*], P[h]), so only products of at most ceil(L/2)
    letters are ever formed.  Each product P[w] is formed on first use from
    P[w minus its last letter], once per adjoint pair: P[w*] is the conjugate
    transpose of P[w], never a second matrix product.  Traces are memoized,
    with tr(w*) = conj tr(w).
    """

    def __init__(self, mats: list[np.ndarray]):
        self.k = mats[0].shape[0]
        self._mat = {((i, False),): np.ascontiguousarray(a) for i, a in enumerate(mats)}
        self._tr: dict[tuple, complex] = {}

    def _matrix(self, word: tuple) -> np.ndarray:
        m = self._mat.get(word)
        if m is None:
            adj = self._mat.get(_adjoint(word))
            if adj is not None:
                m = np.conj(adj.T, order="C")
            else:
                m = self._matrix(word[:-1]) @ self._matrix(word[-1:])
            self._mat[word] = m
        return m

    def trace(self, word: tuple) -> complex:
        tr = self._tr.get(word)
        if tr is None:
            adj = self._tr.get(_adjoint(word))
            if adj is not None:
                tr = adj.conjugate()
            elif len(word) == 1:
                tr = complex(np.trace(self._matrix(word))) / self.k
            else:
                h = (len(word) + 1) // 2
                # Both operands C-contiguous, one pass.
                tr = complex(
                    np.vdot(self._matrix(_adjoint(word[h:])), self._matrix(word[:h]))
                ) / self.k
            self._tr[word] = tr
        return tr


def star_moment_table(a, max_len: int) -> dict[str, complex]:
    """All *-moments of a single matrix up to the given word length.

    Keys are word labels such as ``"aa*"``, where ``*`` marks the adjoint.
    Every trace is one ``vdot`` of two products of at most ceil(max_len/2)
    letters, so the table forms one matrix product per adjoint pair of
    words of 2..ceil(max_len/2) letters (3 at max_len 4), and a word whose
    adjoint was traced first gets the conjugate of that trace.
    """
    m = as_square_matrix(a)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    engine = _TraceEngine([m])
    words = sorted(
        word
        for length in range(1, max_len + 1)
        for word in itertools.product(((0, False), (0, True)), repeat=length)
    )
    return {_label(word): engine.trace(word) for word in words}


@dataclass(frozen=True)
class FreenessReport:
    """Outcome of the alternating-product freeness probe.

    ``products_checked`` counts every alternating product the maximum
    covers; ``traces_evaluated`` counts the products actually traced, one
    per class of products with equal |trace| (see ``freeness_check``).
    """

    max_abs_trace: float
    worst_product: str
    passed: bool
    gamma: float
    order: int
    products_checked: int
    traces_evaluated: int


def _product_class(product: tuple) -> list[tuple]:
    """Products whose centered trace has the modulus of ``product``'s: its
    adjoints and, when the first and last factors use different members (so
    every rotation still alternates), the cyclic rotations of its factors."""
    rotations = [product]
    if product[0][0][0] != product[-1][0][0]:
        rotations = [product[j:] + product[:j] for j in range(len(product))]
    return rotations + [tuple(map(_adjoint, reversed(p))) for p in rotations]


def _alternating_products(factors, prefix, used, order):
    """Yield every extension of ``prefix`` by factors in a member other than
    the previous factor's, up to ``order`` letters in all, depth first."""
    for factor in factors:
        if factor[0][0] != prefix[-1][0][0] and used + len(factor) <= order:
            product = prefix + (factor,)
            yield product
            yield from _alternating_products(factors, product, used + len(factor), order)


def _centered_trace(engine: _TraceEngine, product: tuple) -> complex:
    """tr_k of the product of centered factors W_i - alpha_i I, alpha_i = tr_k(W_i),
    expanded as sum_S prod_{i not in S} (-alpha_i) tr_k(prod_{i in S} W_i)."""
    alphas = [engine.trace(w) for w in product]
    total = 0j
    for keep in itertools.product((False, True), repeat=len(product)):
        coef = 1.0 + 0j
        word = ()
        for w, alpha, raw in zip(product, alphas, keep):
            if raw:
                word += w
            else:
                coef *= -alpha
        total += coef * (engine.trace(word) if word else 1.0)
    return total


def freeness_check(family, order: int, gamma: float) -> FreenessReport:
    """Probe approximate *-freeness of a matrix family.

    Covers all alternating products of at least two centered factors, where
    each factor is a word of length >= 1 in a single family member and its
    adjoint (centered by subtracting its normalized trace), adjacent factors
    use different members, and the total letter count is at most ``order``.
    Reports the largest normalized-trace magnitude and compares it against
    ``gamma``.

    Products fall into classes of equal |trace|: a product, its adjoint and,
    when the result still alternates, every cyclic rotation of its factors.
    One representative per class is traced, and ``worst_product`` is the
    lexicographically least label in the winning class.  No centered matrix
    is formed: the product of W_i - alpha_i I is expanded over the subsets
    of factors kept raw, and every raw trace is one ``vdot`` of two products
    of at most ceil(order/2) letters.

    A family with fewer than two members (or order < 2) has no such product
    and passes vacuously.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    mats = _resolve_family(family)
    if len(mats) < 2 or order < 2:
        return FreenessReport(0.0, "", True, gamma, order, 0, 0)

    factors = [
        tuple((idx, adj) for adj in bits)
        for idx in range(len(mats))
        for length in range(1, order)
        for bits in itertools.product((False, True), repeat=length)
    ]
    classes: dict[str, tuple] = {}
    checked = 0
    for first in factors:
        for product in _alternating_products(factors, (first,), len(first), order):
            checked += 1
            label, rep = min(
                ("|".join(map(_label, p)), p) for p in _product_class(product)
            )
            classes[label] = rep

    engine = _TraceEngine(mats)
    values = {label: abs(_centered_trace(engine, rep)) for label, rep in classes.items()}
    best = max(values.values())
    worst = min(label for label, value in values.items() if value == best)
    return FreenessReport(
        float(best), worst, best <= gamma, gamma, order, checked, len(classes)
    )
