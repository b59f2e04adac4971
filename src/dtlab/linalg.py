"""Dense complex linear algebra: trace norms, log-determinants, Schur forms.

Everything here is a pure function on square complex matrices.  The Schur
triangularization is implemented directly, so the rest of the package has an
eigenvalue path whose behaviour is fully under our control: Householder
reduction to Hessenberg form, then the small-bulge multishift QR algorithm
with aggressive early deflation of Braman, Byers and Mathias (SIAM J. Matrix
Anal. Appl. 23(4), 2002), the design of LAPACK's xLAQR0.  The same driver
loop finishes small blocks in place, with no block copy, by explicitly
shifted single-shift QR with Wilkinson shifts, and the deflation windows in
recursive calls of its own.  Small means below ``_MULTISHIFT_MIN`` = 96 rows
when the Schur vectors are kept, and below ``_EIG_MULTISHIFT_MIN`` = 416 for
eigenvalues alone, where single-shift QR rotates only the active block and
outruns the bulge chase.  Shifts,
deflation and the bulge chase are written here; from LAPACK only the
plane-rotation auxiliaries ``zlartg`` (generate) and ``zrot`` (apply) are
called, in single-shift QR and in the swaps of the deflation windows, and
no LAPACK eigenvalue or Schur routine is.  The LU-based log-determinant is
the deliberately separate second route used by the density-field estimator.

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
#: The same for eigenvalue-only solves.  Single-shift QR there rotates only
#: the active block, and it outruns multishift QR, whose chase spends about
#: 20 numpy calls on each step of a few bulges, up to about this size.
_EIG_MULTISHIFT_MIN = 416
#: Most shifts per multishift sweep, and most bulges chased as one chain.
_MAX_SHIFTS = 64
_CHAIN = 32
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
    """Cheap upper bound on the spectral radius via ||a^m||_F^(1/m).

    Repeated squaring up to m = 16; every ||a^m||^(1/m) dominates the
    spectral radius, and higher powers tighten the bound for heavily
    non-normal matrices.  Used to validate that density grids cover the
    spectrum.
    """
    m = as_square_matrix(a)
    best = float(np.linalg.norm(m))  # Frobenius dominates rho
    power = m
    exponent = 1
    while exponent < _RADIUS_MAX_POWER:
        power = power @ power
        exponent *= 2
        nrm = float(np.linalg.norm(power))
        if nrm == 0.0:
            return 0.0
        # Guard against overflow for strongly expanding matrices.
        if not math.isfinite(nrm):
            break
        best = min(best, nrm ** (1.0 / exponent))
    return best


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
    vnorm = float(np.linalg.norm(v))
    if vnorm <= 1e-300:
        return None, 0.0
    v /= vnorm
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
    """One explicit shifted QR similarity step on the active block [lo, hi).

    Row rotations from LAPACK's ``zlartg`` reduce h - shift*I to triangular
    form; ``zrot`` applies each to two rows of h, and its adjoint to two
    columns of h and of q.  The column rotation at i is applied as soon as
    the row rotation at i + 1 has finished row i + 1, the last row it
    reaches.
    """
    n = h.shape[0]
    row_start, col_end = _span(h, q, lo, hi)
    flat = h.reshape(-1)
    qflat = None if q is None else q.reshape(-1)
    diag = flat[lo * (n + 1) : (hi - 1) * (n + 1) + 1 : n + 1]
    diag -= shift
    item = flat.item
    # (c, conj(s)) of the last row rotation, whose columns are still to do.
    pending = None
    for i in range(lo, hi):
        adj = None
        if i < hi - 1:
            ii = i * (n + 1)  # flat offset of h[i, i]; h[i + 1, i] is at ii + n
            c, s, _ = zlartg(item(ii), item(ii + n))
            if s != 0.0:
                zrot(flat, flat, c, s, col_end - i, ii, 1, ii + n, 1, 1, 1)
                flat[ii + n] = 0.0
                adj = c, s.conjugate()
        if pending is not None:
            # Columns i - 1 and i, rows [row_start, i + 1) of h and all of q.
            c, s = pending
            top = row_start * n + i - 1
            zrot(flat, flat, c, s, i + 1 - row_start, top, n, top + 1, n, 1, 1)
            if qflat is not None:
                zrot(qflat, qflat, c, s, n, i - 1, n, i, n, 1, 1)
        pending = adj
    diag += shift


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


def _chain_rotations(fg: np.ndarray) -> np.ndarray:
    """Stacked unitary 2x2 maps G with G @ [f, g] = [r, 0], r = |(f, g)|.

    ``fg`` holds one (f, g) pair per row.  G is [[conj f, conj g], [-g, f]] / r,
    and the identity where f = g = 0.
    """
    a = np.abs(fg)
    r = np.hypot(a[:, 0], a[:, 1])
    rot = np.empty((fg.shape[0], 2, 2), dtype=np.complex128)
    np.conjugate(fg, out=rot[:, 0, :])
    np.negative(fg[:, 1], out=rot[:, 1, 0])
    rot[:, 1, 1] = fg[:, 0]
    if not r.all():
        zero = r == 0.0
        rot[zero] = np.eye(2)
        r[zero] = 1.0
    rot /= r[:, None, None]
    return rot


def _chase(h, q, lo, hi, shifts) -> None:
    """Chase one chain of bulges, one per shift, through the block [lo, hi).

    Each bulge is that of a single-shift sweep.  The bulges sit two rows
    apart and advance in lockstep, so a step is one batch of rotations on
    disjoint row pairs, and its parameters can all be read before any is
    applied.  Steps are taken inside a diagonal window that slides down with
    the chain; the window's rotations reach the rest of h, and q, through
    one matrix product per window.
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
        # side, so that one product per step rotates the rows of both.
        both = np.empty((nw, 2 * nw), dtype=np.complex128)
        both[:, :nw] = h[w0:w1, w0:w1]
        both[:, nw:] = np.eye(nw)
        win = both[:, :nw]
        for t in range(t0, t1):
            kb = min(m - 1, t // 2)
            cnt = kb - max(0, -((span - t) // 2)) + 1
            if cnt <= 0:
                continue
            # Bulge j of the batch rotates rows r + 2j and r + 2j + 1 to
            # clear the entry below the sub-diagonal in column r + 2j - 1;
            # a bulge entering the block (j = 0) is made from its shift.
            r = lo + t - 2 * kb - w0
            j0 = 1 if t == 2 * kb else 0
            pairs = np.ndarray(
                (cnt - j0, 2),
                dtype=np.complex128,
                buffer=both,
                offset=16 * ((r + 2 * j0) * 2 * nw + r + 2 * j0 - 1),
                strides=(16 * (4 * nw + 2), 16 * 2 * nw),
            )
            fg = np.empty((cnt, 2), dtype=np.complex128)
            fg[j0:] = pairs
            if j0:
                fg[0] = win[r, r] - shifts[kb], win[r + 1, r]
            rot = _chain_rotations(fg)
            rows = slice(r, r + 2 * cnt)
            c0 = max(r - 1, 0)
            slab = both[rows, c0:].reshape(cnt, 2, 2 * nw - c0)
            slab[...] = rot @ slab
            pairs[:, 1] = 0.0
            r1 = min(nw, r + 2 * cnt + 1)
            slab = win[:r1, rows].T.reshape(cnt, 2, r1)
            slab[...] = rot.conj() @ slab
        h[w0:w1, w0:w1] = win
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
    crossover it is one single-shift sweep with a Wilkinson shift, or an
    exceptional one on stall.  Above, it is one aggressive early deflation
    and one multishift sweep, chased as chains of at most ``_CHAIN`` bulges,
    whose shifts are the eigenvalues the deflation window did not deflate.
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
        for c in range(0, shifts.size, _CHAIN):
            _chase(h, q, lo, hi, shifts[c : c + _CHAIN])


def schur(a) -> SchurForm:
    """Unitary Schur triangularization a = q t q*.

    Householder Hessenberg reduction, then multishift QR with aggressive
    early deflation; active blocks below ``_MULTISHIFT_MIN`` (96) rows, in
    place, and the deflation windows are finished by single-shift QR with
    Wilkinson shifts and exceptional shifts on stall, whose rotations
    LAPACK's ``zlartg`` and ``zrot`` generate and apply.  No LAPACK
    eigensolver is called.  Deflation is relative-threshold.
    Raises :class:`ConvergenceError` when a driver call spends more than 30
    shifts per row of the matrix it is handed, small blocks included (a
    single-shift sweep spends one shift, a multishift sweep one per bulge).
    The AED windows and the shift-finding tail are calls of their own.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    h = m.copy()
    q = np.eye(n, dtype=np.complex128)
    _hessenberg(h, q)
    _triangularize(h, q)
    t = np.triu(h)
    anorm = float(np.linalg.norm(m))
    if anorm == 0.0:
        residual = 0.0
    else:
        residual = float(np.linalg.norm(m - q @ t @ q.conj().T) / anorm)
    return SchurForm(t=t, q=q, residual=residual)


def eigenvalues(a) -> np.ndarray:
    """Eigenvalue multiset of ``a`` (diagonal of its Schur form).

    Runs the reduction of :func:`schur`, with its shift budget and
    :class:`ConvergenceError`, without the unitary factor: each transform
    touches the active block only, which leaves the triangular diagonal as
    it is and is much faster at large dimension.  Single-shift QR is then
    faster up to about 400 rows, so multishift QR takes over only at
    ``_EIG_MULTISHIFT_MIN`` (416) rows, for the matrix and its blocks alike.
    No reflector or sweep crosses an exactly zero coupling: for a block
    upper triangular ``a``, ``eigenvalues(a)[lo:hi]`` is the spectrum of the
    diagonal block ``a[lo:hi, lo:hi]``, and a 1 x 1 block gives its entry.
    """
    m = as_square_matrix(a)
    h = m.copy()
    _hessenberg(h, None)
    _triangularize(h, None)
    return np.diag(h).copy()
