"""Dense complex linear algebra: trace norms, log-determinants, Schur forms.

Everything here is a pure function on square complex matrices.  The Schur
triangularization is implemented directly, so the rest of the package has an
eigenvalue path whose behaviour is fully under our control: Householder
reduction to Hessenberg form, then the small-bulge multishift QR algorithm
with aggressive early deflation of Braman, Byers and Mathias (SIAM J. Matrix
Anal. Appl. 23(4), 2002), the design of LAPACK's xLAQR0.  The same driver
loop finishes small blocks in place, with no block copy, by single-shift QR
with Wilkinson shifts, each sweep the chase of one implicit bulge, and the
deflation windows in recursive calls of its own.  Small means below
``_MULTISHIFT_MIN`` = 96 rows when the Schur vectors are kept, and below
``_EIG_MULTISHIFT_MIN`` = 416 for eigenvalues alone, where single-shift QR
rotates only the active block and outruns the bulge chase.  Shifts,
deflation and the bulge chase are written here; from LAPACK only the
plane-rotation auxiliaries ``zlartg`` (generate) and ``zrot`` (apply) are
called, for every rotation of the QR phase.  No LAPACK eigenvalue or Schur
routine is called.  The LU-based log-determinant is the deliberately
separate second route used by the density-field estimator.

Intended scale is dense matrices up to a couple thousand rows in double
precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zlartg, zrot

__all__ = [
    "ConvergenceError",
    "SchurForm",
    "as_square_matrix",
    "norm2",
    "lu_logabsdet_stack",
    "schur",
    "eigenvalues",
    "spectral_radius_bound",
]

#: Relative magnitude below which a sub-diagonal or spike entry is deflated.
_DEFLATE_TOL = 1e-14
#: QR budget: each ``_triangularize`` call may apply this many shifts per row
#: of the matrix it is handed, single-shift and multishift sweeps alike.  The
#: AED windows and the shift-finding tail are calls of their own.
_SHIFTS_PER_DIM = 30
#: Single-shift sweeps without a deflation before an exceptional shift.
_STALL_PERIOD = 16
#: Smallest active block for multishift QR with aggressive early deflation
#: (AED) when the Schur vectors are kept; smaller blocks, and so every AED
#: window, use single-shift QR.
_MULTISHIFT_MIN = 96
#: The same for eigenvalue-only solves, where single-shift QR rotates only
#: the active block and so stays the cheaper path to a larger size.
_EIG_MULTISHIFT_MIN = 416
#: Most shifts per multishift sweep, all chased as one chain.
_MAX_SHIFTS = 64
#: Lockstep steps a bulge chain takes inside one window.
_WINDOW_STEPS = 16
#: Multishift iterations without an AED deflation before exceptional shifts.
_AED_STALL_PERIOD = 6
#: Highest power m whose ||a^m||_F^(1/m) bounds the spectral radius.
_RADIUS_MAX_POWER = 16


class ConvergenceError(RuntimeError):
    """QR iteration failed to deflate within its shift budget."""


@dataclass(frozen=True)
class SchurForm:
    """Unitary triangularization a = q t q*.

    ``t`` is upper triangular, ``q`` unitary, and ``residual`` is the
    relative reconstruction error ||a - q t q*||_F / ||a||_F.
    """

    t: np.ndarray
    q: np.ndarray
    residual: float


def as_square_matrix(a, name: str = "a") -> np.ndarray:
    """Validate and return ``a`` as a square complex128 array."""
    m = np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError(f"{name} must have at least one row")
    m = m.astype(np.complex128, copy=False)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def norm2(a) -> float:
    """Normalized trace norm tr_k(a* a)^(1/2) == ||a||_F / sqrt(k).

    math.hypot over each row's real and imaginary parts, then over the row
    results: hypot scales exactly, so no square under- or overflows, and no
    BLAS call makes the bytes depend on the thread count.  One row at a time
    is converted to Python floats."""
    m = as_square_matrix(a)
    parts = np.ascontiguousarray(m).view(np.float64)
    frob = math.hypot(*[math.hypot(*row.tolist()) for row in parts])
    return frob / math.sqrt(m.shape[0])


def lu_logabsdet_stack(stack: np.ndarray) -> np.ndarray:
    """log|det| of each matrix in a (..., k, k) stack by partial-pivot LU;
    -inf for a singular matrix."""
    return np.linalg.slogdet(stack)[1]


def spectral_radius_bound(a) -> float:
    """Upper bound on the spectral radius of a: the least of ||a||_F, the
    largest absolute row sum and ||a^m||_F^(1/m), m = 2, 4, ..., 16 by
    repeated squaring (the powers tighten it for non-normal a).  All are
    taken of a times 2^-e, e the binary exponent of a's largest real or
    imaginary part, and scaled back by 2^e: exact scalings, so no power
    under- or overflows at any scale.  Sizes ``brown``'s density grids."""
    m = np.ascontiguousarray(as_square_matrix(a))
    e = math.frexp(float(np.abs(m.view(np.float64)).max()))[1]
    power = _pow2(m, -e)
    best = min(float(np.linalg.norm(power)), float(np.abs(power).sum(axis=1).max()))
    exponent = 1
    while exponent < _RADIUS_MAX_POWER:
        power = power @ power
        exponent *= 2
        best = min(best, float(np.linalg.norm(power)) ** (1.0 / exponent))
    return float(np.ldexp(best, e))


# ----------------------------------------------------------------------------
# Schur triangularization


_HESS_PANEL = 32
_HESS_SLICE = 128


def _reflector(x: np.ndarray) -> tuple[np.ndarray | None, complex]:
    """Unit Householder vector mapping x onto -phase*||x||*e1, with that target.

    Returns (None, 0) when x is negligibly small and no reflection is needed.
    """
    xnorm = float(np.linalg.norm(x))
    if xnorm <= 1e-300:
        return None, 0.0
    x0 = x[0]
    phase = x0 / abs(x0) if x0 != 0.0 else 1.0
    v = x.copy()
    # Reflect onto -phase*xnorm*e1; the sign choice avoids cancellation.
    v[0] += phase * xnorm
    v /= float(np.linalg.norm(v))  # |v[0]| = |x0| + xnorm: never tiny
    return v, -phase * xnorm


def _hessenberg(h: np.ndarray, q: np.ndarray | None) -> None:
    """In-place Householder reduction to upper Hessenberg form, in compact WY
    panels; q, when given, absorbs the reflectors from the right.

    Reflectors inside a panel are aggregated as I - V T V* so the trailing
    matrix and q absorb whole panels through matrix products instead of one
    rank-1 update per column.  Within the panel, each pivot column is brought
    up to date against the pending reflectors (right side through the running
    product Y = A V T, left side through V and T) before its own reflector is
    taken, which reproduces the unblocked elimination order exactly.
    """
    n = h.shape[0]
    bmax = _HESS_PANEL
    vbuf = np.empty((n, bmax), dtype=np.complex128)
    tbuf = np.zeros((bmax, bmax), dtype=np.complex128)
    ybuf = np.empty((n, bmax), dtype=np.complex128)
    j0 = 0
    while j0 < n - 2:
        b = min(bmax, n - 2 - j0)
        r0 = j0 + 1
        vp = vbuf[: n - r0, :b]
        t = tbuf[:b, :b]
        y = ybuf[:, :b]
        col = np.empty(n, dtype=np.complex128)
        reflected = False
        for i in range(b):
            j = j0 + i
            col[:] = h[:, j]
            if reflected:
                # Right side: subtract (A V T) conj(row j of V).
                col -= y[:, :i] @ vp[i - 1, :i].conj()
                # Left side: col -= V T* (V* col) below the panel row.
                w = vp[:, :i].conj().T @ col[r0:]
                col[r0:] -= vp[:, :i] @ (t[:i, :i].conj().T @ w)
            v, beta = _reflector(col[j + 1 :])
            vp[:, i] = 0.0
            if v is None:
                t[:i, i] = 0.0
                t[i, i] = 0.0
                y[:, i] = 0.0
                h[:, j] = col
                h[j + 2 :, j] = 0.0
                continue
            reflected = True
            vp[i:, i] = v
            s = vp[:, :i].conj().T @ vp[:, i]
            t[:i, i] = -2.0 * (t[:i, :i] @ s)
            t[i, i] = 2.0
            y[:, i] = 2.0 * (h[:, j + 1 :] @ v)
            if i > 0:
                y[:, i] -= 2.0 * (y[:, :i] @ s)
            h[: j + 1, j] = col[: j + 1]
            h[j + 1, j] = beta
            h[j + 2 :, j] = 0.0
        # Panel columns are final; fold the aggregated reflectors into the
        # trailing block, right side first so the left update sees A - Y V*.
        # Slices of _HESS_SLICE columns (rows of q) bound each temporary to
        # n x _HESS_SLICE instead of n x n; every entry gets the same products.
        # Until a panel's first reflector V = Y = 0, so a panel without one
        # skips these updates, as its columns skip the pending ones: both
        # would subtract exact zeros.
        j0 += b
        if not reflected:
            continue
        for c in range(j0, n, _HESS_SLICE):
            e = min(n, c + _HESS_SLICE)
            h[:, c:e] -= y @ vp[c - r0 : e - r0].conj().T
            w = vp.conj().T @ h[r0:, c:e]
            h[r0:, c:e] -= vp @ (t.conj().T @ w)
        if q is not None:
            for c in range(0, n, _HESS_SLICE):
                rows = q[c : c + _HESS_SLICE, r0:]
                rows -= (rows @ vp @ t) @ vp.conj().T


def _wilkinson_shift(h: np.ndarray, hi: int) -> complex:
    """Eigenvalue of the trailing 2x2 block closest to its last entry."""
    a = h[hi - 2, hi - 2]
    b = h[hi - 2, hi - 1]
    c = h[hi - 1, hi - 2]
    d = h[hi - 1, hi - 1]
    mid = 0.5 * (a + d)
    disc = np.sqrt(np.complex128(0.25 * (a - d) ** 2 + b * c))
    lam1 = mid + disc
    lam2 = mid - disc
    return complex(lam1 if abs(lam1 - d) <= abs(lam2 - d) else lam2)


def _span(h: np.ndarray, q: np.ndarray | None, lo: int, hi: int) -> tuple[int, int]:
    """First row and end column of h that a similarity on the active block
    [lo, hi) must reach: all of h when q is kept, so that a = q h q* holds
    throughout, else only the block, which holds every eigenvalue left."""
    return (lo, hi) if q is None else (0, h.shape[0])


def _qr_sweep(
    h: np.ndarray, q: np.ndarray | None, lo: int, hi: int, shift: complex
) -> None:
    """One single-shift QR step on the active block [lo, hi): the chase of one
    implicit bulge, made from the shift as in :func:`_chase`.  ``zlartg``
    generates each rotation and ``zrot`` applies it to two rows of h, then
    its adjoint to two columns of h, down to the bulge, and of q."""
    n = h.shape[0]
    row_start, col_end = _span(h, q, lo, hi)
    flat = h.reshape(-1)
    qflat = None if q is None else q.reshape(-1)
    item = flat.item
    x = lo * (n + 1)  # flat offset of h[lo, lo]; h[lo + 1, lo] is at x + n
    c, s, _ = zlartg(item(x) - shift, item(x + n))
    zrot(flat, flat, c, s, col_end - lo, x, 1, x + n, 1, 1, 1)
    for j in range(lo + 1, hi - 1):
        # The last rotation's adjoint: columns j - 1, j of h, rows to j + 1, and of q.
        top = row_start * n + j - 1
        zrot(flat, flat, c, s.conjugate(), j + 2 - row_start, top, n, top + 1, n, 1, 1)
        if qflat is not None:
            zrot(qflat, qflat, c, s.conjugate(), n, j - 1, n, j, n, 1, 1)
        x = j * (n + 1) - 1  # flat offset of h[j, j - 1]
        c, s, _ = zlartg(item(x), item(x + n))
        zrot(flat, flat, c, s, col_end - j + 1, x, 1, x + n, 1, 1, 1)
        flat[x + n] = 0.0
    top = row_start * n + hi - 2
    zrot(flat, flat, c, s.conjugate(), hi - row_start, top, n, top + 1, n, 1, 1)
    if qflat is not None:
        zrot(qflat, qflat, c, s.conjugate(), n, hi - 2, n, hi - 1, n, 1, 1)


def _split(h: np.ndarray, hi: int, anorm: float) -> int:
    """First row of the unreduced block that ends at row hi.

    Every negligible sub-diagonal entry of h[:hi, :hi] is set to zero first.
    """
    n = h.shape[0]
    flat = h.reshape(-1)
    dabs = np.abs(flat[: (hi - 1) * (n + 1) + 1 : n + 1])
    sub = flat[n : (hi - 1) * (n + 1) : n + 1]
    base = dabs[:-1] + dabs[1:]
    np.copyto(base, anorm, where=base == 0.0)
    idx = np.nonzero(np.abs(sub) <= _DEFLATE_TOL * base)[0]
    if idx.size == 0:
        return 0
    sub[idx] = 0.0
    return int(idx[-1]) + 1


def _check_budget(spent: int, h: np.ndarray) -> None:
    budget = _SHIFTS_PER_DIM * h.shape[0]
    if spent > budget:
        sub = np.abs(np.diag(h, -1))
        raise ConvergenceError(
            f"QR shift budget of {budget} exceeded at dimension {h.shape[0]}; "
            f"max sub-diagonal magnitude {sub.max():.3e}"
        )


def _apply_window(h, q, lo, hi, w0, w1, u) -> None:
    """Fold a similarity u on rows and columns [w0, w1) of the active block
    [lo, hi) into q and into the parts of h outside that window: one matrix
    product each."""
    row_start, col_end = _span(h, q, lo, hi)
    if w0 > row_start:
        h[row_start:w0, w0:w1] = h[row_start:w0, w0:w1] @ u
    if col_end > w1:
        h[w0:w1, w1:col_end] = u.conj().T @ h[w0:w1, w1:col_end]
    if q is not None:
        q[:, w0:w1] = q[:, w0:w1] @ u


def _swap_up(t: np.ndarray, v: np.ndarray, j: int, i: int) -> None:
    """Move t[j, j] of the upper triangular t up to position i by adjacent
    unitary swaps, accumulating them into v."""
    n = t.shape[0]
    flat = t.reshape(-1)
    vflat = v.reshape(-1)
    for k in range(j - 1, i - 1, -1):
        t11 = t[k, k]
        t22 = t[k + 1, k + 1]
        c, s, _ = zlartg(t.item(k, k + 1), t22 - t11)
        if k + 2 < n:
            # Rows k, k + 1 right of the swapped pair.
            kk = k * (n + 1) + 2
            zrot(flat, flat, c, s, n - k - 2, kk, 1, kk + n, 1, 1, 1)
        s = s.conjugate()
        # Columns k, k + 1 above the pair, and all of v's.
        zrot(flat, flat, c, s, k, k, n, k + 1, n, 1, 1)
        zrot(vflat, vflat, c, s, n, k, n, k + 1, n, 1, 1)
        t[k, k] = t22
        t[k + 1, k + 1] = t11


def _aed(h, q, lo, hi, nw) -> tuple[int, np.ndarray]:
    """Aggressive early deflation on the trailing nw x nw window of [lo, hi).

    The window is brought to Schur form t = v* w v.  Its coupling to the rest
    of the block, the single entry s left of its top row, becomes the spike
    s * conj(v[0, :]).  Scanning from the bottom, an eigenvalue whose spike
    entry is negligible is deflated; any other is swapped to the top.  The
    undeflated part is returned to Hessenberg form.  Returns the number of
    eigenvalues deflated and the undeflated ones, which are the next shifts.
    When nothing deflates, h is left as it was.
    """
    kwtop = hi - nw
    s = complex(h[kwtop, kwtop - 1])
    t = np.triu(h[kwtop:hi, kwtop:hi], -1)
    v = np.eye(nw, dtype=np.complex128)
    _triangularize(t, v)
    t = np.triu(t)
    abs_s = abs(s)
    keep = nw
    top = 0
    while top < keep:
        j = keep - 1
        if abs_s * abs(v[0, j]) <= _DEFLATE_TOL * (abs(t[j, j]) or abs_s):
            keep -= 1
        else:
            _swap_up(t, v, j, top)
            top += 1
    shifts = np.diag(t)[:keep].copy()
    if keep == nw:
        return 0, shifts
    if keep > 1:
        # A reflector takes the undeflated spike onto its first entry, then
        # a Hessenberg reduction, which leaves row 0 alone, restores t.
        u, _ = _reflector(v[0, :keep].conj())
        if u is not None:
            u2 = 2.0 * u
            t[:keep, :] -= np.outer(u2, u.conj() @ t[:keep, :])
            t[:keep, :keep] -= np.outer(t[:keep, :keep] @ u, u2.conj())
            v[:, :keep] -= np.outer(v[:, :keep] @ u, u2.conj())
        w = np.eye(keep, dtype=np.complex128)
        _hessenberg(t[:keep, :keep], w)
        t[:keep, keep:] = w.conj().T @ t[:keep, keep:]
        v[:, :keep] = v[:, :keep] @ w
    h[kwtop, kwtop - 1] = s * v[0, 0].conjugate()
    h[kwtop:hi, kwtop:hi] = np.triu(t, -1)
    _apply_window(h, q, lo, hi, kwtop, hi, v)
    return nw - keep, shifts


def _chase(h, q, lo, hi, shifts) -> None:
    """Chase one chain of bulges, one per shift, through the block [lo, hi).

    Each bulge is that of a single-shift sweep.  The bulges sit two rows
    apart and advance in lockstep.  A step moves them bottom bulge first,
    because a bulge's column rotation reaches the two entries from which
    the bulge below it generates its rotation.  ``zlartg`` generates each
    rotation and ``zrot`` applies it, to two rows and then to two columns.
    Steps are taken inside a diagonal window that slides down with the
    chain; the window's rotations reach the rest of h, and q, through one
    matrix product per window.
    """
    m = len(shifts)
    span = hi - lo - 2  # bulge k is in the block while 0 <= t - 2k <= span
    total = 2 * (m - 1) + span + 1
    t0 = 0
    while t0 < total:
        t1 = min(total, t0 + _WINDOW_STEPS)
        w0 = max(lo, lo + t0 - 2 * min(m - 1, t0 // 2) - 1)
        w1 = min(hi, lo + t1 + 2 - 2 * max(0, -((span - t1 + 1) // 2)))
        nw = w1 - w0
        # The window and the adjoint of its accumulated rotations side by
        # side, so that one rotation of two rows rotates both.
        ld = 2 * nw  # row length of both, the stride of a column
        both = np.empty((nw, ld), dtype=np.complex128)
        both[:, :nw] = h[w0:w1, w0:w1]
        both[:, nw:] = np.eye(nw)
        flat = both.reshape(-1)
        item = flat.item
        for t in range(t0, t1):
            kb = min(m - 1, t // 2)
            cnt = kb - max(0, -((span - t) // 2)) + 1
            if cnt <= 0:
                continue
            # Bulge kb - j rotates rows r + 2j and r + 2j + 1 to clear the
            # entry below the sub-diagonal in column r + 2j - 1; a bulge
            # entering the block (j = 0) is made from its shift.
            r = lo + t - 2 * kb - w0
            enter = t == 2 * kb
            bottom = r + 2 * (cnt - 1)
            rows = min(nw, bottom + 3)  # window rows a column rotation reaches
            for p in range(bottom, r + 2 * enter - 1, -2):
                x = p * ld + p - 1  # flat offset of both[p, p - 1]
                c, s, _ = zlartg(item(x), item(x + ld))
                zrot(flat, flat, c, s, ld - p + 1, x, 1, x + ld, 1, 1, 1)
                flat[x + ld] = 0.0
                zrot(flat, flat, c, s.conjugate(), rows, p, ld, p + 1, ld, 1, 1)
                rows = p + 1
            if enter:
                x = r * ld + r
                c, s, _ = zlartg(item(x) - shifts[kb], item(x + ld))
                zrot(flat, flat, c, s, ld - r, x, 1, x + ld, 1, 1, 1)
                zrot(flat, flat, c, s.conjugate(), rows, r, ld, r + 1, ld, 1, 1)
        h[w0:w1, w0:w1] = both[:, :nw]
        _apply_window(h, q, lo, hi, w0, w1, both[:, nw:].conj().T)
        t0 = t1


def _shift_count(nact: int) -> int:
    """Shifts per sweep, and AED window size, for an active block of nact rows."""
    return max(16, min(_MAX_SHIFTS, nact // 16))


def _triangularize(h: np.ndarray, q: np.ndarray | None) -> None:
    """Drive the Hessenberg matrix h to upper triangular form in place; q,
    when given, absorbs every similarity from the right.  Without q, only
    the active block is updated, which leaves the diagonal the same.

    Each iteration works on the unreduced block at the bottom.  Below the
    crossover it is one single-shift sweep, the chase of one implicit bulge
    made from a Wilkinson shift, or an exceptional one on stall.  Above, it
    is one aggressive early deflation and one multishift sweep, chased as
    one chain of at most ``_MAX_SHIFTS`` bulges, whose shifts are the
    eigenvalues the deflation window did not deflate.  ``zlartg`` and
    ``zrot`` generate and apply every rotation.
    """
    # zrot works on the flat buffers in place; f2py would silently rotate a
    # copy of any other layout or dtype.
    for m in (h, q):
        assert m is None or (
            m.dtype == np.complex128 and m.flags.c_contiguous and m.shape == h.shape
        )
    anorm = float(np.linalg.norm(h))
    cross = _EIG_MULTISHIFT_MIN if q is None else _MULTISHIFT_MIN
    spent = 0
    stall = 0
    hi = h.shape[0]
    while hi > 1:
        lo = _split(h, hi, anorm)
        if lo == hi - 1:
            hi -= 1
            stall = 0
            continue
        if hi - lo < cross:
            spent += 1
            _check_budget(spent, h)
            stall += 1
            if stall % _STALL_PERIOD == 0:
                shift = complex(h[hi - 1, hi - 1] + 0.75 * abs(h[hi - 1, hi - 2]))
            else:
                shift = _wilkinson_shift(h, hi)
            _qr_sweep(h, q, lo, hi, shift)
            continue
        ns = _shift_count(hi - lo)
        ndfl, shifts = _aed(h, q, lo, hi, ns)
        hi -= ndfl
        stall = 0 if ndfl else stall + 1
        if hi - lo < cross:
            continue
        if stall and stall % _AED_STALL_PERIOD == 0:
            idx = np.arange(hi - ns, hi)
            shifts = h[idx, idx] + 0.75 * np.abs(h[idx, idx - 1])
        elif shifts.size < ns // 2:
            tail = h[hi - ns : hi, hi - ns : hi].copy()
            _triangularize(tail, None)
            shifts = np.diag(tail)
        shifts = shifts[-ns:]
        spent += shifts.size
        _check_budget(spent, h)
        _chase(h, q, lo, hi, shifts)


def _pow2(x: np.ndarray, e: int) -> np.ndarray:
    """x * 2^e for a C-contiguous complex array x; x itself when e = 0."""
    return np.ldexp(x.view(np.float64), e).view(np.complex128) if e else x


def _scaled(a) -> tuple[np.ndarray, int]:
    """``a`` as a C-contiguous complex array times 2^-e, and e.  As in
    LAPACK's xGEEV, e is 0 unless the largest real or imaginary part, outside
    [2^-400, 2^400], could make a norm under- or overflow; then the exact
    scaling by a power of two takes that part into [1/2, 1)."""
    m = np.ascontiguousarray(as_square_matrix(a))
    amax = float(np.abs(m.view(np.float64)).max())
    e = 0 if 2.0**-400 <= amax <= 2.0**400 else math.frexp(amax)[1]  # 0 for 0.0
    return _pow2(m, -e), e


def _reduce(h: np.ndarray, q: np.ndarray | None) -> None:
    """Triangularize h in place; a ConvergenceError also names h's size."""
    _hessenberg(h, q)
    try:
        _triangularize(h, q)
    except ConvergenceError as err:
        raise ConvergenceError(f"{err} (in a {len(h)} x {len(h)} matrix)") from None


def schur(a) -> SchurForm:
    """Unitary Schur triangularization a = q t q*.

    Householder Hessenberg reduction, then multishift QR with aggressive
    early deflation; active blocks below ``_MULTISHIFT_MIN`` (96) rows, in
    place, and the deflation windows are finished by single-shift QR with
    Wilkinson shifts and exceptional shifts on stall, each sweep the chase
    of one implicit bulge.  Deflation is relative-threshold.  A tiny or huge
    ``a`` is solved scaled by a power of two, and ``t`` scaled back;
    ``residual`` is that of the scaled solve.
    Raises :class:`ConvergenceError` when a driver call spends more than 30
    shifts per row of the matrix it is handed, small blocks included (a
    single-shift sweep spends one shift, a multishift sweep one per bulge).
    The AED windows and the shift-finding tail are calls of their own.
    """
    m, e = _scaled(a)
    n = m.shape[0]
    h = m.copy()
    q = np.eye(n, dtype=np.complex128)
    _reduce(h, q)
    t = np.triu(h)
    anorm = np.linalg.norm(m) or 1.0  # a zero m leaves a zero remainder
    residual = float(np.linalg.norm(m - q @ t @ q.conj().T) / anorm)
    return SchurForm(t=_pow2(t, e), q=q, residual=residual)


def eigenvalues(a) -> np.ndarray:
    """Eigenvalue multiset of ``a`` (diagonal of its Schur form).

    Runs the reduction of :func:`schur`, with its shift budget and
    :class:`ConvergenceError`, without the unitary factor: each transform
    touches the active block only, which leaves the triangular diagonal as
    it is and is much faster at large dimension.  Single-shift QR is then
    faster up to about 400 rows, so multishift QR takes over only at
    ``_EIG_MULTISHIFT_MIN`` (416) rows, for the matrix and its blocks alike.
    A tiny or huge ``a`` is scaled as in :func:`schur`.  No reflector or
    sweep crosses an exactly zero coupling: for a block upper triangular
    ``a``, ``eigenvalues(a)[lo:hi]`` is the spectrum of the diagonal block
    ``a[lo:hi, lo:hi]``, and a 1 x 1 block gives its entry.
    """
    m, e = _scaled(a)
    h = m.copy()
    _reduce(h, None)
    return _pow2(np.diag(h).copy(), e)
