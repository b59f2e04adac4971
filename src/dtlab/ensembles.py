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
import operator
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


#: Rows per block of the streamed products: the engine holds each product it
#: forms as one _ROW_BLOCK x k slice at a time, never as a full k x k matrix.
_ROW_BLOCK = 64


def _rotations(word: tuple) -> list[tuple]:
    return [word[j:] + word[:j] for j in range(len(word))]


def _trace_class(word: tuple) -> tuple[tuple, bool]:
    """(key, conjugate) with tr(word) = tr(key), conjugated if ``conjugate``:
    the trace is invariant under cyclic rotation and tr(w*) = conj tr(w), and
    the key is the least word among the rotations of w and of w*."""
    own = min(_rotations(word))
    adj = min(_rotations(_adjoint(word)))
    return (own, False) if own <= adj else (adj, True)


def _splits(word: tuple) -> list[tuple[tuple, tuple]]:
    """Pairs (x, y) with tr(word) = <P[x], P[y]>, where <X, Y> = sum conj(X) Y
    and P[x] is the product of x's letters.  For every rotation v = h r of the
    word, h holding ceil(L/2) or floor(L/2) letters, tr(h r) = <P[r*], P[h]>
    = <P[h*], P[r]>, so no part has more than ceil(L/2) letters."""
    n = len(word)
    pairs = []
    for v in _rotations(word):
        for s in ((n + 1) // 2, n // 2):
            h, r = v[:s], v[s:]
            pairs += [(_adjoint(r), h), (_adjoint(h), r)]
    return list(dict.fromkeys(pairs))


def _prefix_products(pair: tuple) -> frozenset:
    """The products of two or more letters that forming P[x] and P[y] takes."""
    return frozenset(w[:j] for w in pair for j in range(2, len(w) + 1))


def _plan(keys: list[tuple]) -> tuple[list[tuple], dict]:
    """Products to form and one split per trace class.

    Starts from every product some split needs, then drops products, longest
    first, while every class keeps a split whose products all remain.
    Returns the products in prefix order and each class's first such split.
    """
    options = {key: [(p, _prefix_products(p)) for p in _splits(key)] for key in keys}
    users: dict[tuple, dict] = {}
    for key, opts in options.items():
        for _, need in opts:
            for w in need:
                users.setdefault(w, {})[key] = None
    formed = set(users)
    for w in sorted(users, key=lambda w: (-len(w), w)):
        rest = formed - {w}
        if all(any(need <= rest for _, need in options[key]) for key in users[w]):
            formed = rest
    choice = {
        key: next(pair for pair, need in opts if need <= formed)
        for key, opts in options.items()
    }
    return sorted(formed, key=lambda w: (len(w), w)), choice


class _TraceEngine:
    """Normalized traces tr_k(w) of the given raw words w in a matrix family.

    Words with one trace up to conjugation (rotations of w and of w*) share a
    class, traced once.  A class of L >= 2 letters is traced as <P[x], P[y]>
    for one split from ``_splits``, chosen so that few products are formed;
    ``products`` lists them, each of at most ceil(L/2) letters.

    Products are streamed in blocks R of _ROW_BLOCK rows,
    P[w][R] = P[w minus its last letter][R] @ (last letter), with adjoint
    letters taken from one conjugate-transposed copy per member, and each
    trace sums its blocks' inner products in block order.  A block's inner
    product is numpy's elementwise product and pairwise sum, not a BLAS dot,
    so no trace depends on the BLAS thread count.
    """

    def __init__(self, mats: list[np.ndarray], words):
        k = self.k = mats[0].shape[0]
        self._class = {word: _trace_class(word) for word in words}
        keys = list(dict.fromkeys(key for key, _ in self._class.values()))
        self.products, choice = _plan([key for key in keys if len(key) > 1])
        mats = [np.ascontiguousarray(m) for m in mats]
        self._tr = {
            key: complex(np.trace(mats[key[0][0]])) / k for key in keys if len(key) == 1
        }
        self._tr.update(self._stream(mats, choice))

    def _stream(self, mats: list[np.ndarray], choice: dict) -> dict:
        k = self.k
        full = {(i, False): m for i, m in enumerate(mats)}
        for pair in choice.values():
            for i, adj in itertools.chain(*pair):
                if adj and (i, True) not in full:
                    full[i, True] = np.conj(mats[i].T, order="C")
        rows = min(_ROW_BLOCK, k)
        buf = {w: np.empty((rows, k), dtype=np.complex128) for w in self.products}
        work = np.empty((rows, k), dtype=np.complex128)
        sums = dict.fromkeys(choice, 0j)
        for r0 in range(0, k, rows):
            n = min(rows, k - r0)
            block = {(letter,): m[r0 : r0 + n] for letter, m in full.items()}
            for w in self.products:
                block[w] = np.matmul(block[w[:-1]], full[w[-1]], out=buf[w][:n])
            t = work[:n]
            for key, (x, y) in choice.items():
                np.conjugate(block[x], out=t)
                t *= block[y]
                sums[key] += complex(t.sum())
        # A class that holds its own adjoint has a real trace.
        return {
            key: (complex(value.real) if key in _rotations(_adjoint(key)) else value) / k
            for key, value in sums.items()
        }

    def trace(self, word: tuple) -> complex:
        key, conjugate = self._class[word]
        tr = self._tr[key]
        return tr.conjugate() if conjugate else tr


def star_moment_table(a, max_len: int) -> dict[str, complex]:
    """All *-moments of a single matrix up to the given word length.

    Keys are word labels such as ``"aa*"``, where ``*`` marks the adjoint.
    The words go through one ``_TraceEngine``, so every trace pairs two
    products of at most ceil(max_len/2) letters (3 products at max_len 4).
    """
    m = as_square_matrix(a)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    words = sorted(
        word
        for length in range(1, max_len + 1)
        for word in itertools.product(((0, False), (0, True)), repeat=length)
    )
    engine = _TraceEngine([m], words)
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


def _kept_words(product: tuple):
    """Yield (keep, word) for every subset S of the factors kept raw: keep[i]
    says whether factor i is in S, and word is the product of S's factors."""
    for keep in itertools.product((False, True), repeat=len(product)):
        yield keep, sum(itertools.compress(product, keep), ())


def _centered_trace(trace, product: tuple) -> complex:
    """tr_k of the product of centered factors W_i - alpha_i I, alpha_i = tr_k(W_i),
    expanded as sum_S prod_{i not in S} (-alpha_i) tr_k(prod_{i in S} W_i)."""
    negated = [-trace(w) for w in product]
    total = 0j
    for keep, word in _kept_words(product):
        dropped = itertools.compress(negated, map(operator.not_, keep))
        total += math.prod(dropped, start=1.0 + 0j) * (trace(word) if word else 1.0)
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
    of factors kept raw, and one ``_TraceEngine`` traces every raw word, each
    from two products of at most ceil(order/2) letters.

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

    words = [word for rep in classes.values() for _, word in _kept_words(rep) if word]
    trace = _TraceEngine(mats, dict.fromkeys(words)).trace
    values = {label: abs(_centered_trace(trace, rep)) for label, rep in classes.items()}
    best = max(values.values())
    worst = min(label for label, value in values.items() if value == best)
    return FreenessReport(
        float(best), worst, best <= gamma, gamma, order, checked, len(classes)
    )
