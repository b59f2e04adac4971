"""Random matrix ensemble tests.

Expected traces come from closed-form entry-variance counts computed by hand
in the test bodies, never from the sampler itself.  The block assembly is
compared against the direct sampler at the same total size, two routes that
share no construction code.
"""

import itertools
import math
import operator
import re
import tracemalloc
import warnings
from collections import defaultdict
from functools import cache, reduce

import numpy as np
import pytest

from dtlab import ensembles, measures
from dtlab.ensembles import DTParams, _adjoint, _rotations
from dtlab.rng import substream

DELTA0 = measures.CompactMeasure.dirac(0.0)


def averaged_trace(sampler, word: str, seeds) -> float:
    """Monte Carlo average of a *-moment over independent seeds."""
    order = len(word.replace("*", ""))
    vals = [ensembles.star_moment_table(sampler(s), order)[word].real for s in seeds]
    return float(np.mean(vals))


def letters(label: str) -> tuple:
    """(generator index, adjoint flag) letters of a word label such as "ab*"."""
    pairs = re.findall(r"([a-z])(\*?)", label)
    return tuple((ord(ch) - ord("a"), star == "*") for ch, star in pairs)


# ----------------------------------------------------------------------------
# Determinism and scaling


def test_ginibre_deterministic_per_seed():
    a = ensembles.sample_ginibre(32, 1.0 / 32, seed=11)
    b = ensembles.sample_ginibre(32, 1.0 / 32, seed=11)
    c = ensembles.sample_ginibre(32, 1.0 / 32, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_strict_upper_deterministic_per_seed():
    a = ensembles.sample_strict_upper(32, 1.0, seed=4)
    b = ensembles.sample_strict_upper(32, 1.0, seed=4)
    assert np.array_equal(a, b)


def test_ginibre_variance_is_a_pure_scale():
    # The draw is a standard complex normal scaled by sqrt(variance), so
    # quadrupling the variance must double the sample exactly.
    base = ensembles.sample_ginibre(16, 1.0, seed=3)
    scaled = ensembles.sample_ginibre(16, 0.25, seed=3)
    assert np.allclose(scaled, 0.5 * base, rtol=0.0, atol=1e-15)


def test_strict_upper_c_is_a_pure_scale():
    base = ensembles.sample_strict_upper(16, 1.0, seed=3)
    scaled = ensembles.sample_strict_upper(16, 2.0, seed=3)
    assert np.array_equal(scaled, 2.0 * base)


# ----------------------------------------------------------------------------
# First and second moments against hand-counted entry variances


def test_ginibre_mean_square_trace():
    # k^2 entries of variance 1/k, normalized trace divides by k: expect 1.
    k = 64
    got = averaged_trace(
        lambda s: ensembles.sample_ginibre(k, 1.0 / k, seed=s), "a*a", range(8)
    )
    assert got == pytest.approx(1.0, abs=0.03)


def test_ginibre_fourth_moment_near_two():
    # tr((G*G)^2) for square Ginibre with entry variance 1/k approaches the
    # second free Poisson moment.
    k = 256
    got = averaged_trace(
        lambda s: ensembles.sample_ginibre(k, 1.0 / k, seed=s),
        "a*aa*a",
        range(5),
    )
    assert got == pytest.approx(2.0, abs=0.08)


def test_strict_upper_structure_and_trace():
    k, c = 64, 1.3
    z = ensembles.sample_strict_upper(k, c, seed=9)
    assert np.allclose(np.tril(z), 0.0)
    # k(k-1)/2 entries of variance c^2/k give E tr(Z*Z) = c^2 (k-1) / (2k).
    expected = c * c * (k - 1) / (2 * k)
    got = averaged_trace(
        lambda s: ensembles.sample_strict_upper(k, c, seed=s), "a*a", range(8)
    )
    assert got == pytest.approx(expected, abs=0.05)


def test_dt_with_point_mass_is_exactly_strict_upper():
    params = DTParams(mu=DELTA0, c=0.7, k=48, seed=21)
    z = ensembles.sample_dt(params)
    u = ensembles.sample_strict_upper(48, 0.7, seed=21)
    assert np.array_equal(z, u)


def test_dt_diagonal_matches_quantile_atoms():
    mu = measures.parse_measure_spec(["atom:2,0,0.5", "atom:-1,0,0.5"])
    z = ensembles.sample_dt(DTParams(mu=mu, c=0.5, k=6, seed=2))
    assert np.allclose(np.diag(z), [2, 2, 2, -1, -1, -1])


def test_dt_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ensembles.sample_dt(DTParams(mu=DELTA0, c=-1.0, k=8, seed=0))
    with pytest.raises(ValueError):
        ensembles.sample_dt(DTParams(mu=DELTA0, c=1.0, k=0, seed=0))
    with pytest.raises(ValueError):
        ensembles.sample_dt(DTParams(mu=DELTA0, c=1.0, k=8, seed=0), mode="x")


# ----------------------------------------------------------------------------
# Block assembly against the direct sampler


def test_block_point_mass_stays_strictly_upper():
    b = ensembles.assemble_block_dt(DELTA0, 1.0, bigN=4, k=8, seed=5)
    assert b.shape == (32, 32)
    assert np.allclose(np.tril(b), 0.0)


def test_block_refuses_a_c_whose_variance_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"c = 1e\+160 is too large"):
            ensembles.assemble_block_dt(DELTA0, 1e160, bigN=2, k=8, seed=1)
        block = ensembles.assemble_block_dt(DELTA0, 1e150, bigN=2, k=8, seed=1)
    assert np.isfinite(block).all()


def test_block_mean_square_trace():
    # Diagonal blocks carry c/sqrt(N) upper-triangular noise and off-diagonal
    # upper blocks carry variance c^2/(N k), which together reproduce the
    # direct strict-upper count at size N k: E tr(B*B) = c^2 (Nk-1) / (2Nk).
    big_n, k, c = 4, 32, 1.0
    expected = c * c * (big_n * k - 1) / (2 * big_n * k)
    got = averaged_trace(
        lambda s: ensembles.assemble_block_dt(DELTA0, c, big_n, k, seed=s),
        "a*a",
        range(8),
    )
    assert got == pytest.approx(expected, abs=0.04)


def test_block_and_direct_moments_agree():
    big_n, k = 4, 64
    block = ensembles.assemble_block_dt(DELTA0, 1.0, big_n, k, seed=31)
    direct = ensembles.sample_dt(
        DTParams(mu=DELTA0, c=1.0, k=big_n * k, seed=77)
    )
    t_block = ensembles.star_moment_table(block, 4)
    t_direct = ensembles.star_moment_table(direct, 4)
    assert t_block.keys() == t_direct.keys()
    worst = max(abs(t_block[w] - t_direct[w]) for w in t_block)
    assert worst <= 0.05


# ----------------------------------------------------------------------------
# Star moments


def test_star_moment_of_identity_words():
    k = 16
    eye = np.eye(k, dtype=np.complex128)
    table = ensembles.star_moment_table(eye, 3)
    assert table["aa*"] == pytest.approx(1.0)
    assert table["aaa"] == pytest.approx(1.0)


# ----------------------------------------------------------------------------
# Freeness diagnostics


def test_independent_ginibres_look_free():
    k = 256
    fam = [
        ensembles.sample_ginibre(k, 1.0 / k, seed=1),
        ensembles.sample_ginibre(k, 1.0 / k, seed=2),
    ]
    report = ensembles.freeness_check(fam, order=3, gamma=0.1)
    assert report.passed
    assert report.max_abs_trace < 0.1
    assert report.products_checked > 0


def test_matrix_with_its_adjoint_is_not_free():
    k = 256
    g = ensembles.sample_ginibre(k, 1.0 / k, seed=1)
    report = ensembles.freeness_check([g, g.conj().T], order=2, gamma=0.1)
    assert not report.passed
    # The centered product tr(a b) with b = a* sits near 1.
    assert report.max_abs_trace > 0.5


def test_freeness_deviation_shrinks_with_size():
    reports = {}
    for k in (64, 512):
        fam = [
            ensembles.sample_ginibre(k, 1.0 / k, seed=1),
            ensembles.sample_ginibre(k, 1.0 / k, seed=2),
        ]
        reports[k] = ensembles.freeness_check(fam, order=3, gamma=0.5)
    assert reports[512].max_abs_trace < reports[64].max_abs_trace / 2.0


def brute_force_freeness(family, order):
    """Every alternating product of centered words, multiplied out in full.

    Returns {label: |tr_k(product)|} with labels in the report's
    "aa*|b" notation.
    """
    k = family[0].shape[0]
    eye = np.eye(k)
    words = {}
    for idx, m in enumerate(family):
        for length in range(1, order):
            for bits in itertools.product((False, True), repeat=length):
                w = reduce(np.matmul, [m.conj().T if adj else m for adj in bits])
                words[idx, bits] = w - np.trace(w) / k * eye

    def label(idx, bits):
        return "".join(chr(ord("a") + idx) + ("*" if adj else "") for adj in bits)

    values = {}

    def grow(seq, used):
        if len(seq) >= 2:
            prod = reduce(np.matmul, [words[f] for f in seq])
            values["|".join(label(*f) for f in seq)] = abs(np.trace(prod)) / k
        for f in words:
            if (not seq or f[0] != seq[-1][0]) and used + len(f[1]) <= order:
                grow(seq + [f], used + len(f[1]))

    grow([], 0)
    return values


def _ginibre_family(k, members, seed):
    return [
        ensembles.sample_ginibre(k, 1.0 / k, seed=seed + i) for i in range(members)
    ]


@pytest.mark.parametrize(
    "order, members, k",
    [(2, 2, 12), (3, 3, 16), (4, 2, 20), (5, 2, 24), (4, 3, 24), (5, 3, 18)],
)
def test_freeness_check_matches_brute_force(order, members, k):
    fam = _ginibre_family(k, members, seed=order)
    _check_against_brute_force(fam, order)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_freeness_check_of_matrix_and_adjoint_matches_brute_force(order):
    g = ensembles.sample_ginibre(16, 1.0 / 16, seed=7)
    _check_against_brute_force([g, g.conj().T], order)


@pytest.mark.parametrize("k, seed, order", [(12, 2, 4), (24, 5, 3), (24, 2, 5)])
def test_freeness_check_of_strict_upper_pair_matches_brute_force(k, seed, order):
    # Independent nilpotent parts: here the worst product ends in a word such
    # as bb* that is not its own reversal, so a trace taken against the wrong
    # adjoint word reports a label whose true value is below the maximum.
    fam = [
        ensembles.sample_strict_upper(k, 1.0, seed=seed),
        ensembles.sample_strict_upper(k, 1.0, seed=seed + 100),
    ]
    _check_against_brute_force(fam, order)


def test_freeness_check_at_order_six_matches_brute_force():
    # Raw words of 5 and 6 letters split into halves of 3 letters.
    _check_against_brute_force(_ginibre_family(10, 2, seed=6), 6)


def full_product_trace(family, letters):
    """tr_k of a word multiplied out left to right."""
    mats = [family[i].conj().T if adj else family[i] for i, adj in letters]
    return np.trace(reduce(np.matmul, mats)) / family[0].shape[0]


def test_star_moment_table_matches_full_products():
    rng = np.random.default_rng(4)
    m = np.triu(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    for max_len in (5, 6):
        table = ensembles.star_moment_table(m, max_len)
        assert len(table) == 2 ** (max_len + 1) - 2
        for word, value in table.items():
            assert value == pytest.approx(
                full_product_trace([m], letters(word)), rel=1e-12, abs=1e-12
            )


# ----------------------------------------------------------------------------
# Row blocks of the trace engine: block edges, ragged last blocks, memory


ROW_BLOCK_CASES = [
    pytest.param(10, 3, id="k10-blocks-of-3"),
    pytest.param(130, 64, id="k130-two-blocks-and-a-ragged-one"),
]


@pytest.mark.parametrize("k, row_block", ROW_BLOCK_CASES)
def test_star_moment_table_across_row_blocks(monkeypatch, k, row_block):
    monkeypatch.setattr(ensembles, "_ROW_BLOCK", row_block)
    rng = np.random.default_rng(k)
    m = np.triu(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    m /= np.sqrt(k)
    for max_len in (5, 6):
        table = ensembles.star_moment_table(m, max_len)
        for word, value in table.items():
            assert value == pytest.approx(
                full_product_trace([m], letters(word)), rel=1e-12, abs=1e-12
            )


@pytest.mark.parametrize("k, row_block", ROW_BLOCK_CASES)
@pytest.mark.parametrize("order", [4, 6])
def test_freeness_check_across_row_blocks(monkeypatch, k, row_block, order):
    monkeypatch.setattr(ensembles, "_ROW_BLOCK", row_block)
    _check_against_brute_force(_ginibre_family(k, 2, seed=order), order)


def traced_peak(fn) -> int:
    """Peak bytes of traced allocation while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_freeness_check_peak_memory_stays_a_few_matrices():
    # The engine holds _ROW_BLOCK rows of each product it forms (9 at order
    # 4), of each adjoint letter and of one scratch block: 3.3 k x k complex
    # matrices at k = 256, where 64 rows are a quarter matrix.  An engine
    # that also kept a conjugate-transposed copy of each member measured
    # 4.7, and one that kept every half-word product and its adjoint as a
    # full matrix measured 18.3.
    k = 256
    fam = _ginibre_family(k, 2, seed=1)
    peak = traced_peak(lambda: ensembles.freeness_check(fam, order=4, gamma=1.0))
    assert peak <= 4 * k * k * 16


LAYER_PEAKS = [
    # (layer, call, k, bound in k x k complex matrices); measured 1.50,
    # 1.50, 1.58 and 0.66 at k = 512, against 3.06, 2.03, 3.31 and 1.50 for
    # samplers that summed whole-matrix temporaries and an engine that
    # copied each member's conjugate transpose.  At k = 513 the engine's
    # 65-row last block measured 1.57 and 0.67, against 2.54 and 1.66 for
    # a one-row last block that copied its member's conjugate transpose.
    pytest.param(
        lambda fam: ensembles.sample_dt(DTParams(DELTA0, 1.0, 512, 1)), 512, 1.6,
        id="sample_dt",
    ),
    pytest.param(
        lambda fam: ensembles.sample_ginibre(512, 1.0 / 512, 1), 512, 1.6,
        id="sample_ginibre",
    ),
    pytest.param(
        lambda fam: ensembles.freeness_check(fam, order=4, gamma=1.0), 512, 2.0,
        id="freeness_check-order-4",
    ),
    pytest.param(
        lambda fam: ensembles.star_moment_table(fam[0], 4), 512, 1.0,
        id="star_moment_table-4-letters",
    ),
    pytest.param(
        lambda fam: ensembles.freeness_check(fam, order=4, gamma=1.0), 513, 2.0,
        id="freeness_check-order-4-k513",
    ),
    pytest.param(
        lambda fam: ensembles.star_moment_table(fam[0], 4), 513, 1.0,
        id="star_moment_table-4-letters-k513",
    ),
]


@pytest.mark.parametrize("call, k, bound", LAYER_PEAKS)
def test_layer_peak_memory_at_k_512(call, k, bound):
    fam = _ginibre_family(k, 2, seed=2)
    assert traced_peak(lambda: call(fam)) <= bound * k * k * 16


# ----------------------------------------------------------------------------
# Same bytes as the whole-matrix samplers and the copy-based trace engine


def reference_complex_normal(rng, shape, variance):
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def reference_strict_upper(rng, k, c):
    base = reference_complex_normal(rng, (k, k), 1.0 / k)
    return c * np.triu(base, 1)


def reference_sample_dt(params, mode):
    diag = ensembles.sample_diagonal(params.mu, params.k, mode, params.seed)
    upper = reference_strict_upper(substream(params.seed, 1), params.k, params.c)
    return diag + upper


def copy_stream(mats, products, choice):
    """``ensembles._stream`` with adjoint letters read from one conjugate-
    transposed copy of each member, over the same row blocks."""
    k = mats[0].shape[0]
    full = {(i, False): m for i, m in enumerate(mats)}
    for pair in choice.values():
        for i, adj in itertools.chain(*pair):
            if adj and (i, True) not in full:
                full[i, True] = np.conj(mats[i].T, order="C")
    rows = min(ensembles._ROW_BLOCK, k)
    starts = list(range(0, k, rows))
    if len(starts) > 1 and starts[-1] == k - 1:
        starts.pop()  # a lone last row joins the block before it
    buf = {w: np.empty((rows + 1, k), dtype=np.complex128) for w in products}
    work = np.empty((rows + 1, k), dtype=np.complex128)
    sums = dict.fromkeys(choice, 0j)
    for r0, r1 in zip(starts, starts[1:] + [k]):
        n = r1 - r0
        block = {(letter,): m[r0:r1] for letter, m in full.items()}
        for w in products:
            block[w] = np.matmul(block[w[:-1]], full[w[-1]], out=buf[w][:n])
        t = work[:n]
        for key, (x, y) in choice.items():
            np.conjugate(block[x], out=t)
            t *= block[y]
            sums[key] += complex(t.sum())
    real = {key for key in sums if key in _rotations(_adjoint(key))}
    return {key: (complex(v.real) if key in real else v) / k
            for key, v in sums.items()}


def same_bytes(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


SIZES = [1, 2, 63, 64, 65, 129, 200]
README_MIXTURE = measures.parse_measure_spec(["atom:0,0,0.5", "disk:0,0,1,0.5"])


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("variance", [1e-320, 1e-300, 1.0])
def test_gaussian_samplers_write_the_bytes_of_the_whole_matrix_formulas(k, variance):
    # The tiny variances put entries near 1e-160.  At c = 5e-324 and 1e-320
    # most products c * entry underflow to zero.  Their sign is not pinned:
    # numpy fuses one real multiply of a complex product in its vector loop
    # and not in its unaligned head, so it follows the buffer's address.
    # sample_dt adds +0 to every entry, as the sum with a diagonal matrix
    # did, so its bytes are pinned at every c.
    assert same_bytes(
        ensembles._complex_normal(substream(k, 9), (k, 3), variance),
        reference_complex_normal(substream(k, 9), (k, 3), variance),
    )
    assert same_bytes(
        ensembles.sample_ginibre(k, variance, seed=k),
        reference_complex_normal(substream(k, 2), (k, k), variance),
    )
    for c in (5e-324, 1e-320, math.sqrt(variance), 2.5):
        if c > 1e-300:
            assert same_bytes(
                ensembles.sample_strict_upper(k, c, seed=k),
                reference_strict_upper(substream(k, 1), k, c),
            )
        for mu, mode in ((README_MIXTURE, "quantile"), (README_MIXTURE, "iid"),
                         (DELTA0, "quantile")):
            params = DTParams(mu, c, k, seed=k + 1)
            assert same_bytes(
                ensembles.sample_dt(params, mode), reference_sample_dt(params, mode)
            )


ENGINE_WORDS = [
    word
    for length in range(1, 6)
    for word in itertools.product(
        [(i, adj) for i in range(2) for adj in (False, True)], repeat=length
    )
]


@pytest.mark.parametrize("k", SIZES)
@pytest.mark.parametrize("row_block", [64, 3])
def test_trace_engine_writes_the_bytes_of_the_copy_based_engine(
    monkeypatch, k, row_block
):
    # Blocks of 3 rows end in a ragged block of 2 rows at k = 65 and 200,
    # and a lone last row joins the block before it at k = 64, making one
    # of 4 rows; blocks of 64 fold one into a last block of 65 rows at
    # k = 65 and 129.  Only k = 1 has a one-row block, which is 1 x 1.
    monkeypatch.setattr(ensembles, "_ROW_BLOCK", row_block)
    fam = [
        ensembles.sample_ginibre(k, 1.0 / k, seed=k),
        ensembles.sample_dt(DTParams(README_MIXTURE, 1.0, k, seed=k)),
    ]
    table = ensembles._traces(fam, ENGINE_WORDS)
    monkeypatch.setattr(ensembles, "_stream", copy_stream)
    reference = ensembles._traces(fam, ENGINE_WORDS)
    assert same_bytes(
        [table[w] for w in ENGINE_WORDS], [reference[w] for w in ENGINE_WORDS]
    )


def test_trace_engine_matches_full_products_on_mixed_words(monkeypatch):
    # Every word of at most 5 letters in two members and their adjoints,
    # odd lengths included; no product longer than 3 letters is formed.
    plans = []
    plan = ensembles._plan
    monkeypatch.setattr(
        ensembles, "_plan", lambda keys: plans.append(plan(keys)) or plans[-1]
    )
    fam = _ginibre_family(8, 2, seed=9)
    letters = [(i, adj) for i in range(2) for adj in (False, True)]
    words = [
        word
        for length in range(1, 6)
        for word in itertools.product(letters, repeat=length)
    ]
    table = ensembles._traces(fam, words)
    for word in words:
        want = full_product_trace(fam, word)
        assert table[word] == pytest.approx(want, rel=1e-12, abs=1e-14)
    [(products, _)] = plans
    assert max(len(w) for w in products) == 3


def test_freeness_check_leaves_a_repeated_member_unchanged():
    g = ensembles.sample_ginibre(12, 1.0 / 12, seed=3)
    before = g.copy()
    _check_against_brute_force([g, g], 4)
    assert np.array_equal(g, before)


@cache
def adjoint_label(factor):
    flipped = [(i, not adj) for i, adj in reversed(letters(factor))]
    return "".join(chr(ord("a") + i) + "*" * adj for i, adj in flipped)


def product_class(label):
    """Labels of a product's adjoints and, when every rotation still
    alternates, of the cyclic rotations of its factors."""
    factors = label.split("|")
    rotations = [factors]
    if factors[0][0] != factors[-1][0]:
        rotations = [factors[j:] + factors[:j] for j in range(len(factors))]
    adjoints = [[adjoint_label(f) for f in reversed(r)] for r in rotations]
    return {"|".join(r) for r in rotations + adjoints}


def _check_against_brute_force(family, order):
    report = ensembles.freeness_check(family, order=order, gamma=1.0)
    values = brute_force_freeness(family, order)
    best = max(values.values())
    assert report.products_checked == len(values)
    assert report.max_abs_trace == pytest.approx(best, rel=0, abs=1e-12)
    # Products tied with the maximum up to rounding may be reported instead.
    assert values[report.worst_product] >= best - 1e-12
    # The class rule holds: each class is a set of alternating products with
    # one |trace|, one is traced per class, and the least label is reported.
    classes = {min(product_class(label)) for label in values}
    assert report.traces_evaluated == len(classes)
    for label in classes:
        assert all(
            values[q] == pytest.approx(values[label], rel=0, abs=1e-12)
            for q in product_class(label)
        )
    assert report.worst_product == min(product_class(report.worst_product))


def alternating_labels(members, order):
    """Labels of every alternating product of at least two factors, listed
    letter by letter, with no matrix and no code of the probe's."""
    factors = sorted(
        (len(bits), "".join(chr(ord("a") + idx) + "*" * adj for adj in bits))
        for idx in range(members)
        for length in range(1, order)
        for bits in itertools.product((False, True), repeat=length)
    )
    labels = []

    def grow(seq, used):
        if len(seq) >= 2:
            labels.append("|".join(seq))
        for size, f in factors:
            if used + size > order:
                break
            if not seq or f[0] != seq[-1][0]:
                grow(seq + [f], used + size)

    grow([], 0)
    return labels


@pytest.mark.parametrize("members", [2, 3])
@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_freeness_check_traces_the_least_label_of_every_class(
    monkeypatch, members, order
):
    # Only which products are traced is checked, so tracing is stubbed out.
    # The least label is the least "|"-joined string: for the class of a|b*
    # (two members, order 2) it is a*|b, while the least factor tuple is
    # (a, b*), since "*" sorts below "|" but "a" is a prefix of "a*".
    # Each representative is expanded twice, for the raw-word list and for
    # its centered sum, in the same order.
    expanded = []
    expansion = ensembles._expansion
    monkeypatch.setattr(ensembles, "_traces", lambda mats, words: defaultdict(complex))
    monkeypatch.setattr(
        ensembles,
        "_expansion",
        lambda rep, negated: expanded.append(rep) or expansion(rep, negated),
    )
    report = ensembles.freeness_check([np.eye(1)] * members, order, gamma=1.0)
    traced = expanded[len(expanded) // 2 :]
    assert expanded[: len(expanded) // 2] == traced
    got = [
        "|".join("".join(chr(ord("a") + i) + "*" * adj for i, adj in f) for f in rep)
        for rep in traced
    ]
    labels = alternating_labels(members, order)
    want = {min(product_class(label)) for label in labels}
    assert len(got) == report.traces_evaluated == len(want)
    assert set(got) == want
    assert report.products_checked == len(labels)


def kept_words(product: tuple):
    """Yield (keep, word) for every subset S of the factors kept raw: keep[i]
    says whether factor i is in S, and word is the product of S's factors."""
    for keep in itertools.product((False, True), repeat=len(product)):
        yield keep, sum(itertools.compress(product, keep), ())


def centered_trace(trace, product: tuple) -> complex:
    """tr_k of the product of centered factors W_i - alpha_i I, alpha_i = tr_k(W_i),
    expanded as sum_S prod_{i not in S} (-alpha_i) tr_k(prod_{i in S} W_i)."""
    negated = [-trace(w) for w in product]
    total = 0j
    for keep, word in kept_words(product):
        dropped = itertools.compress(negated, map(operator.not_, keep))
        total += math.prod(dropped, start=1.0 + 0j) * (trace(word) if word else 1.0)
    return total


@pytest.mark.parametrize("members", [2, 3])
def test_expansion_gives_the_centered_sums_of_the_subset_loop(members):
    # Random complex traces of every raw word; the centered sum that
    # freeness_check forms from _expansion must have the reference's bytes.
    rng = np.random.default_rng(members)
    table = {}

    def trace(word):
        if word not in table:
            table[word] = complex(*rng.standard_normal(2) * 10.0 ** rng.integers(-3, 4))
        return table[word]

    for order in range(2, 7):
        labels = alternating_labels(members, order)
        for label in sorted({min(product_class(p)) for p in labels}):
            rep = tuple(letters(f) for f in label.split("|"))
            want = centered_trace(trace, rep)
            terms = ensembles._expansion(rep, [-table[f] for f in rep])
            assert [w for _, w in terms] == [w for _, w in kept_words(rep)]
            total = 0j
            for c, word in terms:
                total += c * (table[word] if word else 1.0)
            assert same_bytes(total, want), label
