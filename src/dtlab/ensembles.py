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

import cmath
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


def _complex_normal(
    rng: np.random.Generator, shape, variance: float, out: np.ndarray | None = None
) -> np.ndarray:
    """sqrt(variance / 2) * (a + 1j * b) for standard normal draws a, then b,
    built in one complex buffer through one float scratch array.  The buffer
    is ``out`` when given, a complex array of that shape, which may be a view."""
    draws = rng.standard_normal(shape)
    if out is None:
        out = np.empty(shape, dtype=np.complex128)
    out.real = draws
    out.imag = rng.standard_normal(shape, out=draws)
    out *= math.sqrt(variance / 2.0)
    return out


def sample_ginibre(k: int, variance: float, seed: int) -> np.ndarray:
    """k x k matrix of iid centered complex Gaussians, E|entry|^2 = variance."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (variance > 0):
        raise ValueError("variance must be positive")
    return _complex_normal(substream(seed, 2), (k, k), variance)


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
    # c * np.triu(Ginibre draw, 1), scaled and zeroed in place.
    out = _complex_normal(substream(seed, 1), (k, k), 1.0 / k)
    out *= c
    np.copyto(out, 0, where=np.tri(k, dtype=bool))
    return out


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
    k = params.k
    z = sample_strict_upper(k, params.c, params.seed)
    # Adding +0 turns entries that underflowed to -0 (c below about 1e-300)
    # into +0, as adding a diagonal matrix to the strictly upper part would.
    z += 0.0
    z.reshape(-1)[:: k + 1] += measures._sample_points(
        substream(params.seed, 0), params.mu, k, mode
    )
    return z


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
            z[sl, j * k : (j + 1) * k] = _complex_normal(
                substream(seed, 4, i, j), (k, k), var_upper
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
#: A lone last row joins the block before it: numpy would multiply one row by
#: matrix-vector BLAS, whose summation order follows the layout of m.T.
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
        va = _adjoint(v)  # v* = r* h*: r* is va[: n - s], h* is va[n - s :]
        for s in ((n + 1) // 2, n // 2):
            pairs += [(va[: n - s], v[:s]), (va[n - s :], v[s:])]
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


# A trace that overflows comes out inf or nan, which star_moment_table and
# freeness_check refuse, so numpy's warnings would only repeat the refusal.
@np.errstate(over="ignore", invalid="ignore")
def _stream(mats: list[np.ndarray], products: list[tuple], choice: dict) -> dict:
    k = mats[0].shape[0]
    letters = {x for pair in choice.values() for x in itertools.chain(*pair)}
    adjoints = sorted((letter,) for letter in letters if letter[1])
    # No block starts at row k - 1, unless k = 1.
    edges = [*range(0, max(k - 1, 1), min(_ROW_BLOCK, k)), k]
    rows = max(r1 - r0 for r0, r1 in itertools.pairwise(edges))
    buf = {w: np.empty((rows, k), np.complex128) for w in adjoints + products}
    work = np.empty((rows, k), dtype=np.complex128)
    sums = dict.fromkeys(choice, 0j)
    for r0, r1 in itertools.pairwise(edges):
        n = r1 - r0
        t = work[:n]
        block = {((i, False),): m[r0:r1] for i, m in enumerate(mats)}
        for w in adjoints:
            # Rows R of m* are the conjugated columns R of m.
            columns = mats[w[0][0]][:, r0:r1]
            block[w] = np.conjugate(columns.T, out=buf[w][:n])
        for w in products:
            (i, adj), out = w[-1], buf[w][:n]
            if not adj:
                block[w] = np.matmul(block[w[:-1]], mats[i], out=out)
            else:
                # X m* = conj(conj(X) m^T), with m^T a view of m.
                np.conjugate(block[w[:-1]], out=t)
                np.matmul(t, mats[i].T, out=out)
                block[w] = np.conjugate(out, out=out)
        for key, (x, y) in choice.items():
            np.conjugate(block[x], out=t)
            t *= block[y]
            sums[key] += complex(t.sum())
    # A class that holds its own adjoint has a real trace.
    return {
        key: (complex(value.real) if key in _rotations(_adjoint(key)) else value) / k
        for key, value in sums.items()
    }


def _traces(mats: list[np.ndarray], words) -> dict[tuple, complex]:
    """Normalized traces tr_k(w) of the given raw words w in a matrix family.

    Words with one trace up to conjugation (rotations of w and of w*) share a
    class, traced once.  A class of L >= 2 letters is traced as <P[x], P[y]>
    for one split from ``_splits``, chosen by ``_plan`` so that few products
    are formed, each of at most ceil(L/2) letters.

    ``_stream`` forms the products in blocks R of _ROW_BLOCK rows,
    P[w][R] = P[w minus its last letter][R] @ (last letter), and sums each
    trace's block inner products in block order.  No member is copied: an
    adjoint letter's rows are the conjugated columns of its member, and
    X m* is conj(conj(X) @ m.T), with m.T a view of m, both with the bytes
    of products with a conjugate-transposed copy of m.  A block's inner
    product is numpy's elementwise product and pairwise sum, not a BLAS
    dot, whose sum would follow the BLAS thread count; at some k (129, for
    one) OpenBLAS's block products themselves still do.
    """
    k = mats[0].shape[0]
    classes = {word: _trace_class(word) for word in words}
    keys = list(dict.fromkeys(key for key, _ in classes.values()))
    products, choice = _plan([key for key in keys if len(key) > 1])
    mats = [np.ascontiguousarray(m) for m in mats]
    tr = {key: complex(np.trace(mats[key[0][0]])) / k for key in keys if len(key) == 1}
    tr.update(_stream(mats, products, choice))
    return {
        word: tr[key].conjugate() if conjugate else tr[key]
        for word, (key, conjugate) in classes.items()
    }


def _member_words(idx: int, max_len: int):
    """Words of 1 to max_len letters in member idx and its adjoint."""
    for length in range(1, max_len + 1):
        yield from itertools.product(((idx, False), (idx, True)), repeat=length)


def star_moment_table(a, max_len: int) -> dict[str, complex]:
    """All *-moments of a single matrix up to the given word length.

    Keys are word labels such as ``"aa*"``, where ``*`` marks the adjoint.
    Read from one ``_traces`` table, where every trace pairs two products of
    at most ceil(max_len/2) letters (3 products at max_len 4).
    Raises ValueError when a moment overflows to a non-finite value.
    """
    m = as_square_matrix(a)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    tr = _traces([m], sorted(_member_words(0, max_len)))
    table = {_label(word): value for word, value in tr.items()}
    for label, value in table.items():
        if not cmath.isfinite(value):
            raise ValueError(f"the *-moment {label} is not finite: {value}")
    return table


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


def _expansion(product: tuple, negated) -> list[tuple[complex, tuple]]:
    """(coefficient, word) for each subset S of the factors kept raw, in
    itertools.product((False, True), repeat=m) order of "i in S": word is the
    product of S's factors, coefficient the product of negated[i] over the
    factors i not in S, taken left to right from 1 + 0j."""
    terms = [(1.0 + 0j, ())]
    for factor, value in zip(product, negated):
        terms = [t for c, w in terms for t in ((c * value, w), (c, w + factor))]
    return terms


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
    Products are walked as tuples of factor labels, each factor and adjoint
    labelled once.  A class's representative, traced and reported as
    ``worst_product``, is the least "|"-joined string among a product's
    reversed-adjoint sequences and, when its first and last factors use
    different members, their rotations.  No centered matrix is formed: the
    product of W_i - alpha_i I is expanded over the subsets of factors kept
    raw (``_expansion``), and every raw word's trace is read from one
    ``_traces`` table, each from two products of at most ceil(order/2) letters.

    A family with fewer than two members (or order < 2) has no such product
    and passes vacuously.  A class whose centered trace overflows to a
    non-finite value raises ValueError.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    mats = _resolve_family(family)
    if len(mats) < 2 or order < 2:
        return FreenessReport(0.0, "", True, gamma, order, 0, 0)

    # Factor letters and adjoint labels by label; a label starts with its member.
    letters = {
        _label(word): word
        for idx in range(len(mats))
        for word in _member_words(idx, order - 1)
    }
    adjoint = {f: _label(_adjoint(word)) for f, word in letters.items()}
    follow = {  # the factors that may follow member m with room letters left
        (m, room): [f for f, word in letters.items() if f[0] != m and len(word) <= room]
        for m in {f[0] for f in letters} for room in range(order)
    }
    # Products one factor longer per step, with reversed adjoints and sizes.
    level = [((f,), (adjoint[f],), len(word)) for f, word in letters.items()]
    classes: dict[str, None] = {}
    checked = 0
    while level:
        level = [
            (p + (f,), (adjoint[f],) + adj, used + len(letters[f]))
            for p, adj, used in level
            for f in follow[p[-1][0], order - used]
        ]
        checked += len(level)
        for p, adj, _ in level:
            turns = range(len(p)) if p[0][0] != p[-1][0] else [0]
            classes[min("|".join(s[j:] + s[:j]) for s in (p, adj) for j in turns)] = None

    reps = {label: tuple(letters[f] for f in label.split("|")) for label in classes}
    ones = [1] * order  # the raw-word list reads the expansion's words only
    words = [w for rep in reps.values() for _, w in _expansion(rep, ones) if w]
    tr = _traces(mats, dict.fromkeys(words))
    values = {}  # tr_k prod(W_i - tr_k(W_i) I) is the sum of coefficient * tr_k(word)
    for label, rep in reps.items():
        total = 0j
        for c, word in _expansion(rep, [-tr[f] for f in rep]):
            total += c * (tr[word] if word else 1.0)
        value = values[label] = abs(total)
        if not math.isfinite(value):
            raise ValueError(f"the centered trace of {label} is not finite: {value}")
    best = max(values.values())
    worst = min(label for label, value in values.items() if value == best)
    return FreenessReport(
        float(best), worst, best <= gamma, gamma, order, checked, len(classes)
    )
