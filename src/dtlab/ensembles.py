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
from dataclasses import dataclass, field

import numpy as np

from . import measures
from .linalg import as_square_matrix
from .measures import CompactMeasure
from .rng import derive_seed, substream

__all__ = [
    "DTParams",
    "StarWord",
    "FreenessReport",
    "sample_ginibre",
    "sample_strict_upper",
    "sample_diagonal",
    "sample_dt",
    "assemble_block_dt",
    "star_moment",
    "star_moment_table",
    "enumerate_star_words",
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


@dataclass(frozen=True)
class StarWord:
    """Word in a family of matrices and their adjoints.

    Letters are (generator index, adjoint flag) pairs; the compact string form
    writes generator ``i`` as the letter ``chr(ord('a') + i)`` with ``*`` for
    the adjoint, e.g. ``"aa*b"``.
    """

    letters: tuple[tuple[int, bool], ...]

    def __post_init__(self):
        if len(self.letters) == 0:
            raise ValueError("a star word must have at least one letter")
        norm = tuple((int(i), bool(adj)) for i, adj in self.letters)
        if any(i < 0 for i, _ in norm):
            raise ValueError("generator indices must be non-negative")
        object.__setattr__(self, "letters", norm)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(
            chr(ord("a") + i) + ("*" if adj else "") for i, adj in self.letters
        )

    @classmethod
    def parse(cls, text: str) -> "StarWord":
        letters = []
        for ch in text:
            if ch.isspace():
                continue
            if ch == "*":
                if not letters:
                    raise ValueError(f"dangling adjoint marker in {text!r}")
                idx, adj = letters[-1]
                if adj:
                    raise ValueError(f"double adjoint marker in {text!r}")
                letters[-1] = (idx, True)
            elif ch.isalpha() and ch.islower():
                letters.append((ord(ch) - ord("a"), False))
            else:
                raise ValueError(f"bad character {ch!r} in star word {text!r}")
        return cls(tuple(letters))


def enumerate_star_words(max_len: int, generators: int = 1) -> list[StarWord]:
    """All star words of length 1..max_len over the given generator count."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    out = []
    letters = [
        (i, adj) for i in range(generators) for adj in (False, True)
    ]
    for length in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=length):
            out.append(StarWord(combo))
    return out


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


def star_moment(family, word: StarWord) -> complex:
    """Normalized trace of the word evaluated in the family."""
    mats = _resolve_family(family)
    k = mats[0].shape[0]
    prod = None
    for idx, adj in word.letters:
        if idx >= len(mats):
            raise ValueError(
                f"word uses generator {idx} but family has {len(mats)} members"
            )
        m = mats[idx].conj().T if adj else mats[idx]
        prod = m if prod is None else prod @ m
    return complex(np.trace(prod) / k)


def _prefix_traces(letters: dict, prefix: tuple, mat, max_len: int):
    """Yield (word, trace) for every word that extends ``prefix`` by up to
    ``max_len - len(prefix)`` letters, depth first; ``mat`` is the prefix's
    product (None for the empty prefix) and is shared by its extensions."""
    for adj in (False, True):
        word = prefix + ((0, adj),)
        if mat is None:
            yield word, np.trace(letters[adj])
        else:
            # tr(P L) = vdot(L*, P): both operands C-contiguous, one pass.
            yield word, np.vdot(letters[not adj], mat)
        if len(word) < max_len:
            nxt = letters[adj] if mat is None else mat @ letters[adj]
            yield from _prefix_traces(letters, word, nxt, max_len)


def star_moment_table(a, max_len: int) -> dict[StarWord, complex]:
    """All *-moments of a single matrix up to the given word length.

    Shares prefix products across words, so the cost is one matrix product
    per interior node of the word tree rather than per word.
    """
    m = as_square_matrix(a)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    k = m.shape[0]
    letters = {False: m, True: np.ascontiguousarray(m.conj().T)}
    return {
        StarWord(word): complex(tr / k)
        for word, tr in _prefix_traces(letters, (), None, max_len)
    }


@dataclass(frozen=True)
class FreenessReport:
    """Outcome of the alternating-product freeness probe."""

    max_abs_trace: float
    worst_product: str
    passed: bool
    gamma: float
    order: int
    products_checked: int

    def as_dict(self) -> dict:
        return {
            "max_abs_trace": self.max_abs_trace,
            "worst_product": self.worst_product,
            "passed": self.passed,
            "gamma": self.gamma,
            "order": self.order,
            "products_checked": self.products_checked,
        }


def _factor_label(idx: int, bits: tuple[bool, ...]) -> str:
    return "".join(chr(ord("a") + idx) + ("*" if adj else "") for adj in bits)


def _alternating_traces(centered, members, order, path, prod, last, used, label):
    """Depth-first walk over the alternating products that extend ``prod``.

    ``prod`` has ``label.count("|") + 1`` factors and ``used`` letters, and
    its last factor is a word in member ``last``.  Yields (|tr_k(prod c)|,
    label) for every centered word c that may follow it; while letters
    remain, prod c is written into ``path`` at its depth and extended in turn.
    """
    k = prod.shape[0]
    depth = label.count("|")
    for idx in range(members):
        if idx == last:
            continue
        for length in range(1, order - used + 1):
            for bits in itertools.product((False, True), repeat=length):
                c = centered[(idx, bits)]
                # tr(prod c) = vdot(c*, prod), and c* is the stored centered
                # word of the reversed, flipped letters.
                c_adj = centered[(idx, tuple(not b for b in reversed(bits)))]
                here = label + "|" + _factor_label(idx, bits)
                yield abs(np.vdot(c_adj, prod)) / k, here
                if used + length <= order - 1:
                    yield from _alternating_traces(
                        centered, members, order, path,
                        np.matmul(prod, c, out=path[depth]), idx, used + length, here,
                    )


def freeness_check(family, order: int, gamma: float) -> FreenessReport:
    """Probe approximate *-freeness of a matrix family.

    Enumerates all alternating products of at least two centered factors,
    where each factor is a word of length >= 1 in a single family member and
    its adjoint (centered by subtracting its normalized trace), adjacent
    factors use different members, and the total letter count is at most
    ``order``.  Reports the largest normalized-trace magnitude and compares
    it against ``gamma``.

    A family with fewer than two members (or order < 2) has no such product
    and passes vacuously.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not (gamma > 0):
        raise ValueError("gamma must be positive")
    mats = _resolve_family(family)
    k = mats[0].shape[0]
    if len(mats) < 2 or order < 2:
        return FreenessReport(0.0, "", True, gamma, order, 0)

    # Every word of length < order in each member, C-contiguous, in walk
    # order: member by member, shortest first.
    centered: dict[tuple[int, tuple[bool, ...]], np.ndarray] = {}
    for idx, a in enumerate(mats):
        letters = {False: a.copy(), True: np.ascontiguousarray(a.conj().T)}
        for length in range(1, order):
            for bits in itertools.product((False, True), repeat=length):
                centered[idx, bits] = (
                    letters[bits[0]] if length == 1
                    else centered[idx, bits[:-1]] @ letters[bits[-1]]
                )
    # Centered in place once every longer word is built from the raw ones.
    for w in centered.values():
        w.flat[:: k + 1] -= np.trace(w) / k

    best = 0.0
    worst = ""
    checked = 0
    # One product buffer per depth, for products of 2 .. order - 1 factors.
    # The walk is a module-level generator: a recursive closure would be a
    # reference cycle that keeps every word alive until garbage collection.
    path = np.empty((order - 2, k, k), dtype=np.complex128)
    for (idx, bits), first in centered.items():
        for value, label in _alternating_traces(
            centered, len(mats), order, path,
            first, idx, len(bits), _factor_label(idx, bits),
        ):
            checked += 1
            if value > best:
                best = float(value)
                worst = label

    return FreenessReport(best, worst, best <= gamma, gamma, order, checked)
