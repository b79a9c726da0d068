"""Fourier transform of self-similar measures and frequency-grid scans.

The transform convention is mu_hat(xi) = int exp(2*pi*i*Re(z*conj(xi))) dmu,
which for a homogeneous self-similar measure factors into the infinite
product prod_{n>=0} Phi(lam^n * conj(xi)) over the digit character
Phi(u) = sum_j p_j exp(2*pi*i*Re(w_j*u)).  Products keep K factors and
multiply in the omitted factors' mean phase, with K set by a second-order
tail bound (``truncation_index``): the value is within tol of mu_hat, and
its modulus is an upper bound on the true |mu_hat|, both up to
floating-point rounding (so tol >= 1e-12 is required).  That rounding
grows with |xi|: the mean phase's is about 2*pi*|m|*|xi|/|1 - lam| units
of 2^-53 (m the digit mean), so for lam = 0.744+0.094i and digits (i, i)
the error reached 1.2e-12 at |xi| <= 420, and "within tol" at tol 1e-12
does not hold past |xi| ~ 400 there.  One kernel, ``_product``,
evaluates it for ``mu_hat``, the scan and the IFS energy, and folds the
same levels into the bound B(c, r) = prod_n min(1, |Phi(lam^n conj c)| +
L |lam|^n r) on |mu_hat| over a disc, L the Lipschitz constant of |Phi|:
the scan core ``scan_blocks`` samples every cell of the disk for
``grid_scan`` and, for the covering report's threshold, only the cells
a top-down quadtree of these bounds keeps.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import BudgetError, DomainError
from .measures import DiscreteMeasure, IFSDescriptor

DEFAULT_TOL = 1e-9
DEFAULT_SUBGRID_K = 4
DEFAULT_CELL_BUDGET = 10**7
_ROW_BLOCK = 64
_ATOM_CHUNK = 1 << 16
_ENERGY_BLOCK = 1 << 13
_BIN_MAGIC = b"SSFGRID1"


def _digit_moments(ifs: IFSDescriptor) -> tuple[complex, float, float]:
    """The digits' mean m = sum_j p_j w_j, variance sum_j p_j |w_j - m|^2
    and mean deviation sum_j p_j |w_j - m|.

    Digits so far apart that the variance overflows a float are a
    DomainError; a finite variance keeps every |w_j - m| finite.
    """
    pairs = list(zip(ifs.digits, ifs.probs))
    m = sum(p * w for w, p in pairs)
    try:
        var = sum(p * ((w - m).real ** 2 + (w - m).imag ** 2) for w, p in pairs)
    except OverflowError:  # float ** raises where * would give inf
        var = math.inf
    if not math.isfinite(var):
        raise DomainError("digits too far apart: their variance overflows a float")
    return m, var, sum(p * abs(w - m) for w, p in pairs)


def _check_tol(tol: float) -> None:
    if not 1e-12 <= tol < math.inf:  # rounding reaches 1.3e-13 already at |xi| = 42
        raise DomainError(f"tol must be finite and >= the rounding floor 1e-12, got {tol!r}")


def truncation_index(ifs: IFSDescriptor, abs_xi, tol: float):
    """Smallest K with 2*pi^2*|xi|^2*|lam|^(2K)*Var d/(1 - |lam|^2) < tol.

    The omitted factors prod_{n>=K} Phi(lam^n conj xi) are E e(Re(Y conj
    xi)) for Y = sum_{n>=K} lam^n d_n with independent digits d_n, and Y
    is M_K = m lam^K / (1 - lam) plus a centred part whose variance is
    |lam|^(2K) Var d / (1 - |lam|^2), where m = sum_j p_j w_j and Var d =
    sum_j p_j |w_j - m|^2.  As |e(t) - 1 - 2*pi*i*t| <= 2*pi^2*t^2, the
    tail is the phase e(Re(M_K conj xi)) to within the bound above, so
    the first K factors times that phase (``_product``) are within tol
    of mu_hat, and their modulus alone is at least |mu_hat|, in exact
    arithmetic: rounding adds 1e-14 or more, growing with |xi|, so
    ``_product`` refuses a tol below 1e-12; this formula does not.  Both
    have modulus <= 1, so tol > 2 needs no factor: K = 0, as it is
    everywhere when Var d = 0 (all digits equal).  Var d <= max|w|^2 keeps
    K at or below the first-order index, the smallest K with
    2*pi*max|w|*|xi|*|lam|^K/(1 - |lam|) < tol.  Vectorized over |xi|.
    Raises DomainError unless tol and every |xi| are finite and tol > 0,
    and when that first-order bound at some |xi|, or the digits'
    variance, overflows.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    abs_xi = np.asarray(abs_xi, dtype=np.float64)
    if not np.isfinite(abs_xi).all():
        raise DomainError("frequencies must be finite")
    w_max = max(abs(w) for w in ifs.digits)
    alam = abs(ifs.lam)
    with np.errstate(over="ignore"):
        tail0 = 2.0 * np.pi * w_max * abs_xi / (1.0 - alam)
    if not np.isfinite(tail0).all():
        raise DomainError("frequency too large: the truncation tail bound overflows")
    _, var, _ = _digit_moments(ifs)
    if var == 0.0 or tol > 2.0:
        return np.zeros(abs_xi.shape, dtype=np.int64)
    # the bound at K is (s |lam|^K)^2, and s <= tail0 is finite; s = 0
    # gives K = -inf, raised to 0 with every other negative K
    s = math.pi * math.sqrt(2.0 * var / (1.0 - alam * alam)) * abs_xi
    with np.errstate(divide="ignore"):
        k = np.ceil((math.log(tol) - 2.0 * np.log(s)) / (2.0 * math.log(alam)))
    return np.maximum(k, 0).astype(np.int64)


def mu_hat(ifs: IFSDescriptor, xi, tol: float = 1e-12) -> complex | np.ndarray:
    """Fourier transform via the truncated product, at one frequency or
    elementwise over an array of frequencies.

    Each frequency keeps the first K factors, K = ``truncation_index`` at
    |xi| (the smallest integer whose second-order tail bound falls below
    ``tol``, finite and >= 1e-12, else a DomainError), times the omitted
    factors' mean phase; the result is within tol of the exact value (so
    within the 2*tol of the first-order rule for tol <= 1/2), and its
    modulus is an upper bound on |mu_hat|, both up to floating-point
    rounding, about 1e-14 at small |xi| and 1.3e-13 at |xi| = 42.  The
    rounding grows with |xi|, as 2*pi*|m|*|xi|/|1 - lam| units of 2^-53
    in the mean phase (m the digit mean): for lam = 0.744+0.094i and
    digits (i, i) it reached 1.2e-12 at |xi| <= 420, so at tol 1e-12 the
    value is not within tol past |xi| ~ 400 there.  A
    lone frequency goes to ``_product`` as two copies of itself, since
    numpy multiplies a one-element complex array on another path, so a
    scalar call, a batch lane and the scan agree bit for bit.
    """
    xi_arr = np.asarray(xi, dtype=np.complex128)
    flat = xi_arr.ravel()
    lanes = np.repeat(flat, 2) if flat.size == 1 else flat
    out = _product(ifs, tol, lanes.real, lanes.imag, np.arange(lanes.size))[: flat.size]
    return complex(out[0]) if xi_arr.ndim == 0 else out.reshape(xi_arr.shape)


def _product(ifs: IFSDescriptor, tol: float, x, y, at, radius: float | None = None) -> np.ndarray:
    """The one product kernel: truncated mu_hat at xi = x + iy, or its bound.

    x and y broadcast to a grid (a column and a row make a tensor grid,
    two flat arrays a list); the values of the grid points at flat
    indices ``at`` come back in that order.  With c_j = w_j lam^l,
    Phi(lam^l conj xi) = sum_j p_j e(Re(c_j) x) e(Im(c_j) y), so a level
    costs 2m exponentials per value of x and of y and m complex
    multiply-adds per point.  A point's value is read off after its own
    truncation index K of factors.  A K past ``DEFAULT_CELL_BUDGET``
    levels is a BudgetError.

    Each level folds Phi into the running product.  Without ``radius``
    the fold multiplies it in, and the complex value is multiplied by
    the omitted factors' mean phase e(Re(M_K conj xi)), M_K = m lam^K /
    (1 - lam) from a table over K, which is 1 and skipped when the digit
    mean m is 0: it depends on its frequency alone.  The phase's argument
    M_K.real x + M_K.imag y is exactly odd in xi, so mu_hat(-xi) stays
    the conjugate bit for bit.

    With a ``radius`` r the fold is that of the real bound

        B(c, r) = prod_{l<K} min(1, |Phi(lam^l conj c)| + L |lam|^l r)

    at each centre c = x + iy, K taken at |c| + r, where L = 2*pi*sum_j
    p_j |w_j - m| is the Lipschitz constant of |Phi| (Phi is e(Re(m u))
    times the character of the centred digits).  |lam^l conj xi - lam^l
    conj c| <= |lam|^l r on the closed disc |xi - c| <= r, and the
    dropped factors are <= 1, so |mu_hat| <= B there, in exact
    arithmetic, whatever K is.
    """
    _check_tol(tol)
    grid = x + 1j * y
    xi = grid.ravel()[at]
    k = truncation_index(ifs, np.abs(xi) if radius is None else np.abs(xi) + radius, tol)
    order = np.argsort(k, kind="stable")
    kmax = int(k.max(initial=0))
    if kmax > DEFAULT_CELL_BUDGET:
        # the level tables below are kmax long; refused before they are made
        raise BudgetError(
            f"the product would keep {kmax} factors (budget {DEFAULT_CELL_BUDGET} levels)"
        )
    m, _, spread = _digit_moments(ifs)
    # order[edges[l]:edges[l + 1]] are the points with K == l; K == 0 keeps 1
    edges = np.searchsorted(k[order], np.arange(kmax + 2))
    out = np.ones(grid.shape, dtype=np.complex128 if radius is None else np.float64)
    values = np.ones(k.size, dtype=out.dtype)
    phi = np.empty(grid.shape, dtype=np.complex128)
    term = np.empty_like(phi)
    digit = (slice(None),) + (None,) * out.ndim  # a leading axis over the digits
    probs = np.asarray(ifs.probs, dtype=np.float64)[digit]
    c = np.asarray(ifs.digits, dtype=np.complex128)
    lip = 0.0 if radius is None else 2.0 * np.pi * spread * radius  # L r
    for level in range(kmax):
        ex = probs * np.exp(2j * np.pi * (c.real[digit] * x))
        ey = np.exp(2j * np.pi * (c.imag[digit] * y))
        np.multiply(ex[0], ey[0], out=phi)
        for j in range(1, c.size):
            np.multiply(ex[j], ey[j], out=term)
            phi += term
        if radius is None:
            out *= phi
        else:
            out *= np.minimum(np.abs(phi) + lip * abs(ifs.lam) ** level, 1.0)
        done = order[edges[level + 1] : edges[level + 2]]
        values[done] = out.ravel()[at[done]]
        c = c * ifs.lam
    if radius is None and m != 0:
        mean = (m / (1.0 - ifs.lam) * ifs.lam ** np.arange(kmax + 1))[k]
        values *= np.exp(2j * np.pi * (mean.real * xi.real + mean.imag * xi.imag))
    return values


def fourier_sum(
    positions: np.ndarray, weights: np.ndarray, xi: np.ndarray
) -> np.ndarray:
    """Direct Fourier sum sum_k w_k exp(2*pi*i*Re(z_k*conj(xi))).

    The independent oracle path for discrete measures: no product
    structure, no truncation, just the plain exponential sum, as a flat
    array.  numpy takes another BLAS path for a one-row matrix product,
    so a lone lane of a 256-lane block is evaluated as two copies of
    itself.  Each lane is then a function of its own frequency alone: a
    scalar call and any position in any batch give the same bits.
    """
    xi = np.asarray(xi, dtype=np.complex128).ravel()
    out = np.zeros(xi.shape, dtype=np.complex128)
    xr, xi_im = xi.real, xi.imag
    pr, pi = positions.real, positions.imag
    for i0 in range(0, xi.size, 256):
        lanes = np.arange(i0, min(i0 + 256, xi.size))
        if lanes.size == 1:
            lanes = np.repeat(lanes, 2)
        acc = np.zeros(lanes.size, dtype=np.complex128)
        for a0 in range(0, positions.size, _ATOM_CHUNK):
            asl = slice(a0, min(a0 + _ATOM_CHUNK, positions.size))
            phase = np.outer(xr[lanes], pr[asl]) + np.outer(xi_im[lanes], pi[asl])
            acc += np.exp(2j * np.pi * phase) @ weights[asl]
        out[lanes] = acc
    return out


# ---------------------------------------------------------------------------
# frequency-grid scanning
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ScanField:
    """Per-cell sampled maxima of |mu_hat| over a disk of radius T.

    Cells are the unit squares [i, i+1) x [j, j+1) anchored at integer
    coordinates; each stored value is the maximum of |mu_hat| over a
    subgrid_k x subgrid_k lattice of points ((ik + a)/k, (jk + b)/k),
    which includes the anchor corner, so the origin cell always samples
    mu_hat(0) = 1.

    ``grid`` is a read-only float64 array of shape (2n, 2n), n = ceil(T),
    with cell (i, j) at ``grid[i + n, j + n]`` and -1.0 outside the disk;
    ``cells`` derives from it the read-only mapping (i, j) -> value.
    """

    T: float
    subgrid_k: int
    grid: np.ndarray

    @cached_property
    def cells(self) -> MappingProxyType:
        n = math.ceil(self.T)
        ii, jj = np.nonzero(self.grid >= 0.0)
        keys = zip((ii - n).tolist(), (jj - n).tolist())
        return MappingProxyType(dict(zip(keys, self.grid[ii, jj].tolist())))


def _cell_squares(T: float) -> np.ndarray:
    """The scan's disk rule: cell (i, j), i, j in [-n, n) and n = ceil(T),
    has a closure meeting |xi| <= T when sq[i + n] + sq[j + n] <= T * T.

    sq[i + n] = near_i^2, near_i the point of [i, i + 1] nearest 0: an
    integer, exact as a float.
    """
    n = math.ceil(T)
    idx = np.arange(-n, n)
    near = np.clip(0.0, idx, idx + 1.0)
    return near * near


def _scan_cells(T: float):
    """Row-major indices (i, j) of the unit cells whose closure meets |xi| <= T."""
    sq = _cell_squares(T)
    ii, jj = np.nonzero(sq[:, None] + sq[None, :] <= T * T)
    return ii - sq.size // 2, jj - sq.size // 2


def _disk_count(T: float) -> int:
    """``_scan_cells(T)[0].size`` in O(T log T), without listing the cells.

    The squares are integers, so sq_i + sq_j <= T * T exactly when sq_j
    <= floor(T * T) - sq_i; sq over the rows [0, n) is 0, 1, ..., (n -
    1)^2, sorted, and over [-n, 0) the same again.
    """
    sq = _cell_squares(T)
    half = sq[sq.size // 2 :]
    return 2 * int(np.searchsorted(half, math.floor(T * T) - sq, side="right").sum())


def _disc_bound(ifs: IFSDescriptor, tol: float, x, y, at, radius: float) -> np.ndarray:
    """``_product``'s bound B(c, r) at the centres c = x + iy, widened by a rounding margin.

    The margin 1e-9 B + 1e-12 (1 + 2*pi*max|w| (|c| + r) / (1 - |lam|)^2)
    bounds the rounding of B and that of a sample in the disc, both up
    to |c| + r: a factor's phases are within a few units of 2^-53 of
    2*pi*|lam^l w_j xi| each, l times more from the l products in lam^l
    w_j, and sum_l (l + 1) |lam|^l <= 1 / (1 - |lam|)^2.  So a sample
    in the disc, which is at most |mu_hat| + tol plus its rounding, is at
    most the widened bound plus tol.
    """
    bound = _product(ifs, tol, x, y, at, radius)
    drift = 2.0 * np.pi * max(abs(w) for w in ifs.digits) / (1.0 - abs(ifs.lam)) ** 2
    reach = np.abs((x + 1j * y).ravel()[at]) + radius
    return bound + 1e-9 * bound + 1e-12 * (1.0 + drift * reach)


def _quadtree_cells(ifs: IFSDescriptor, T: float, tol: float, threshold: float):
    """Row-major indices (i, j) of the disk cells a top-down quadtree keeps,
    and of their mirrors (-i - 1, -j - 1), which the sampling pairs with them.

    The root is the square [-n, s - n]^2, n = ceil(T) and s the smallest
    power of two >= 2n.  A square of side s is kept while its corner
    lies below n, its closure meets the disk by ``_scan_cells``' rule,
    and ``_disc_bound`` about its centre, radius s/sqrt 2, plus tol
    reaches the threshold; kept squares split into four down to unit
    side.  A level's centres lie on a lattice, where the digit character
    separates, so the bounds of each _ROW_BLOCK rows of its squares are
    one ``_product`` call on their rectangle's tensor grid.  A dropped
    square holds no sample at or above the threshold.
    """
    n = math.ceil(T)
    size = 1 << (2 * n - 1).bit_length()
    # square (a, b) of side s is [-n + a s, -n + (a + 1) s] x [-n + b s, -n + (b + 1) s]
    a = b = np.zeros(1, dtype=np.int64)
    side = size
    while True:
        x0, y0 = a * side - n, b * side - n
        near_x, near_y = np.clip(0.0, x0, x0 + side), np.clip(0.0, y0, y0 + side)
        inside = (x0 < n) & (y0 < n) & (near_x * near_x + near_y * near_y <= T * T)
        order = np.argsort(a[inside], kind="stable")
        a, b = a[inside][order], b[inside][order]
        if a.size == 0:
            break
        centre = (np.arange(size // side) + 0.5) * side - n
        bound = np.empty(a.size)
        # a block of _ROW_BLOCK square rows at a time bounds the grid's memory
        edges = np.searchsorted(a, np.arange(a[0], a[-1] + _ROW_BLOCK + 1, _ROW_BLOCK))
        for s0, s1 in zip(edges[:-1], edges[1:]):
            if s0 == s1:
                continue
            ra, rb = a[s0:s1], b[s0:s1]
            a0, a1, b0, b1 = ra[0], ra[-1] + 1, rb.min(), rb.max() + 1
            bound[s0:s1] = _disc_bound(ifs, tol, centre[a0:a1, None], centre[None, b0:b1],
                                       (ra - a0) * (b1 - b0) + rb - b0, side * math.sqrt(0.5))
        keep = bound + tol >= threshold
        a, b = a[keep], b[keep]
        if side == 1:
            break
        side //= 2
        a = np.concatenate([2 * a, 2 * a, 2 * a + 1, 2 * a + 1])
        b = np.concatenate([2 * b, 2 * b + 1, 2 * b, 2 * b + 1])
    # row-major keys of the kept cells (i, j) = (a - n, b - n) and of their mirrors
    width = 2 * n
    keys = np.unique(np.concatenate([a * width + b, (width - 1 - a) * width + width - 1 - b]))
    return keys // width - n, keys % width - n


def scan_blocks(
    ifs: IFSDescriptor,
    T: float,
    subgrid_k: int,
    tol: float,
    workers: int = 1,
    cell_budget: int | None = None,
    threshold: float = 0.0,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The one scan core: sampled |mu_hat| on the unit cells meeting |xi| <= T
    where a sample may reach ``threshold``, in blocks of (ci, cj, xi, values).

    The call checks its arguments: tol as ``_product`` does, and the
    points of the whole disk against the budget (default
    ``DEFAULT_CELL_BUDGET``), first the lower bound pi (T k)^2 (a T so
    large that it overflows is over it), then ``_disk_count(T)`` k^2.  A
    threshold <= tol, as ``grid_scan``'s 0, samples every cell of
    ``_scan_cells(T)``: every disc bound is > 0, so the quadtree's test
    bound + tol >= threshold would keep them all.  A higher one, as
    ``covering_report``'s, the cells that ``_quadtree_cells`` keeps: every
    cell with a sample at or above it, and some more, with the same bits.

    The cells of [-n, n)^2, n = ceil(T), are row-major and closed under
    (i, j) -> (-i - 1, -j - 1).  Blocks, cell-major then subgrid-major,
    come in mirrored pairs, the cells of rows [-i1, -i0) then of [i0, i1)
    for i0 = 0, s, 2s, ..., s = max(1, _ROW_BLOCK // 2k); rows without
    cells give no pair.  Cell i samples axis[(i + n) k + a] = (ik + a) / k,
    a < k, of axis = arange(-nk, nk + 1) / k, where the digit character
    separates.  -axis[u] = axis[2nk - u] exactly, and the kernel keeps
    mu_hat(-xi) the conjugate of mu_hat(xi) bit for bit (|xi|, exp,
    complex multiply and add are sign-symmetric under round-to-nearest),
    so a pair is one ``_product`` call on the rectangle of [i0, i1) grown
    by one point row and column.  Every value is ``np.abs(mu_hat)`` at
    its frequency, bit for bit, for any ``workers``: that many threads of
    this process map the kernel over the pairs; closing the iterator
    shuts their pool down.
    """
    if not 1 <= T < math.inf:
        raise DomainError("scan radius T must be finite and >= 1")
    if subgrid_k < 1:
        raise DomainError("subgrid_k must be >= 1")
    _check_tol(tol)
    budget = DEFAULT_CELL_BUDGET if cell_budget is None else int(cell_budget)
    n, k = math.ceil(T), subgrid_k
    # pi (T k)^2 > budget, compared without squaring T, which can overflow
    if T * k > math.sqrt(budget / math.pi):
        raise BudgetError(
            f"scan of radius T = {T!r} at subgrid_k = {k} would sample over "
            f"pi (T k)^2 points (budget {budget})"
        )
    points = _disk_count(T) * k * k
    if points > budget:
        raise BudgetError(f"scan would sample {points} points (budget {budget})")
    ci, cj = _scan_cells(T) if threshold <= tol else _quadtree_cells(ifs, T, tol, threshold)
    nk2 = 2 * n * k
    axis = np.arange(-n * k, n * k + 1) / k
    sub = np.arange(k)
    gx = ((ci + n) * k)[:, None, None] + sub[None, :, None]
    gy = ((cj + n) * k)[:, None, None] + sub[None, None, :]
    step = max(1, _ROW_BLOCK // (2 * k))  # 32 point rows: all workers' blocks share this process
    # cells are sorted by row, so each block of cell rows is a run of cells
    bounds = np.arange(0, n + step, step)
    own, mirror = np.searchsorted(ci, bounds), np.searchsorted(ci, -bounds)
    spans = [((s0, s1), (m0, m1))
             for s0, s1, m0, m1 in zip(own[:-1], own[1:], mirror[1:], mirror[:-1]) if s0 < s1]

    def modulus(span):
        (s0, s1), (m0, m1) = span
        rows, cols = gx[s0:s1], gy[s0:s1]
        r0, r1, c0, c1 = rows.min(), rows.max() + 2, cols.min(), cols.max() + 2
        # the own points, then the mirror's at (2nk - u, 2nk - v)
        at = np.concatenate([
            ((rows - r0) * (c1 - c0) + cols - c0).ravel(),
            ((nk2 - gx[m0:m1] - r0) * (c1 - c0) + nk2 - gy[m0:m1] - c0).ravel(),
        ])
        return np.abs(_product(ifs, tol, axis[r0:r1, None], axis[None, c0:c1], at))

    def stream():
        pool = ThreadPoolExecutor(workers) if workers > 1 else None  # a thread per pair at most
        try:
            run = map if pool is None else pool.map
            for ((s0, s1), (m0, m1)), values in zip(spans, run(modulus, spans)):
                split = (s1 - s0) * k * k
                for (b0, b1), part in (((m0, m1), values[split:]), ((s0, s1), values[:split])):
                    xi = (axis[gx[b0:b1]] + 1j * axis[gy[b0:b1]]).ravel()
                    yield ci[b0:b1], cj[b0:b1], xi, part
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

    return stream()


def grid_scan(
    ifs: IFSDescriptor,
    T: float,
    subgrid_k: int = DEFAULT_SUBGRID_K,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
    cell_budget: int | None = None,
) -> ScanField:
    """Scan |mu_hat| over every unit cell meeting the disk |xi| <= T.

    Stores, per cell, the maximum sampled value on the subgrid lattice
    in the dense grid of a ``ScanField``, reduced block by block from
    ``scan_blocks`` at its default threshold 0, which samples every cell
    of the disk (pairs mirrored under xi -> -xi, read off one product
    evaluation since |mu_hat| is even), and scattered by cell index, so
    their order does not matter.  ``workers`` threads of this process
    share the scan, and the output is the same for any count.
    """
    blocks = scan_blocks(ifs, T, subgrid_k, tol, workers, cell_budget)
    n = math.ceil(T)
    grid = np.full((2 * n, 2 * n), -1.0)
    with closing(blocks):
        for ci, cj, _, values in blocks:
            grid[ci + n, cj + n] = values.reshape(ci.size, -1).max(axis=1)
    grid.flags.writeable = False
    return ScanField(T=float(T), subgrid_k=subgrid_k, grid=grid)


def scanfield_to_csv(fieldobj: ScanField) -> str:
    rows = (f"{i},{j},{v!r}" for (i, j), v in fieldobj.cells.items())
    return "\n".join(["i,j,max_abs_muhat", *rows]) + "\n"


def scanfield_to_binary(fieldobj: ScanField) -> bytes:
    """Compact dump: 32-byte header then the full square float64 grid.

    Header: magic (8s), T (f64), subgrid_k (u32), cell count (u32),
    8 reserved zero bytes; little-endian.  The grid is ``ScanField.grid``
    row-major: [-ceil(T), ceil(T))^2 in i then j, with -1.0 outside the
    scan disk.
    """
    grid = fieldobj.grid.astype("<f8", copy=False)
    count = int(np.count_nonzero(grid >= 0.0))
    header = struct.pack("<8sdII8x", _BIN_MAGIC, fieldobj.T, fieldobj.subgrid_k, count)
    return header + grid.tobytes()


def scanfield_from_binary(blob: bytes) -> ScanField:
    """Inverse of ``scanfield_to_binary``; a blob that ``grid_scan`` cannot
    have written is a DomainError: T < 1, subgrid_k < 1, a cell of the
    disk (``_cell_squares``' rule) whose value is not >= 0, one outside
    it that is not -1.0, or a count that is not that of the cells >= 0.
    """
    if len(blob) < 32:
        raise DomainError("scan-field blob shorter than its 32-byte header")
    magic, T, k, count = struct.unpack_from("<8sdII", blob)
    if magic != _BIN_MAGIC:
        raise DomainError("bad scan-field magic")
    if not 1.0 <= T < math.inf:
        raise DomainError("scan-field radius T must be finite and >= 1")
    if k < 1:
        raise DomainError("scan-field subgrid_k must be >= 1")
    side = 2 * math.ceil(T)
    if len(blob) != 32 + 8 * side * side:
        raise DomainError(f"scan-field blob length {len(blob)} does not fit T = {T!r}")
    grid = np.frombuffer(blob, dtype="<f8", offset=32).reshape(side, side)
    sq = _cell_squares(T)
    inside = sq[:, None] + sq[None, :] <= T * T
    if not (grid[inside] >= 0.0).all():
        raise DomainError("scan-field cell of the disk holds a value that is not >= 0")
    if not (grid[~inside] == -1.0).all():
        raise DomainError("scan-field cell outside the disk does not hold -1.0")
    if np.count_nonzero(grid >= 0.0) != count:
        raise DomainError("scan-field cell count mismatch")
    return ScanField(T=T, subgrid_k=int(k), grid=grid)


# ---------------------------------------------------------------------------
# Fourier energy
# ---------------------------------------------------------------------------

def energy_integral(target, T: float, step: float) -> float:
    """Midpoint-rule approximation of int_{|xi|<T} |eta_hat|^2 d(xi).

    ``target`` is a DiscreteMeasure or an IFSDescriptor.  The lattice is
    the tensor grid c x c, c = (arange(-n, n) + 1/2) * step, cut to the
    midpoints strictly inside the disk; DomainError unless T is finite
    and > 0 and 0 < step <= 1/2, and when no midpoint lies inside the
    disk (step / sqrt(2) >= T), since the sum would be an empty 0;
    BudgetError, before any allocation, past DEFAULT_CELL_BUDGET lattice
    points (the scan's cap).

    For an IFSDescriptor the energy is that of the self-similar measure
    itself: blocks of _ROW_BLOCK lattice rows go through the product
    kernel ``_product`` (as ``mu_hat`` at tol 1e-9), and the squares add
    up block by block in row order.  For a
    DiscreteMeasure the character separates:
    e(Re(z*conj(xi))) = e(x*xi_x) * e(y*xi_y).  So the transform on the
    whole grid is G = sum_k w_k e(x_k c) (x) e(y_k c), accumulated as
    G += (w * E_x)^T @ E_y over atom blocks of fixed size in a fixed
    order.  The coordinates are symmetric, c[-k - 1] = -c[k] exactly, so
    e(x c[-k - 1]) is the conjugate of e(x c[k]): only the side / 2
    positive coordinates are exponentiated, n_atoms * side in all
    instead of n_atoms * side^2, and the negative half is written
    mirrored and conjugated beside them, bit for bit the unmirrored
    values.  The result does not depend on the BLAS thread count, and
    memory beyond G is two preallocated block x side arrays.
    """
    if not 0.0 < T < math.inf:
        raise DomainError("energy radius T must be finite and > 0")
    if not 0.0 < step <= 0.5:
        raise DomainError("step must lie in (0, 1/2]")
    if T / step > math.isqrt(DEFAULT_CELL_BUDGET) // 2:
        raise BudgetError(f"energy lattice over the {DEFAULT_CELL_BUDGET}-point budget")
    n = math.ceil(T / step)
    coords = (np.arange(-n, n) + 0.5) * step
    lattice = coords[:, None] + 1j * coords[None, :]
    inside = np.abs(lattice) < T
    if not inside.any():
        raise DomainError(f"no lattice midpoint lies inside |xi| < T = {T!r} at step {step!r}")
    if isinstance(target, IFSDescriptor):
        total = 0.0
        for r0 in range(0, coords.size, _ROW_BLOCK):
            rows = slice(r0, r0 + _ROW_BLOCK)
            at = np.flatnonzero(inside[rows])
            values = np.abs(_product(target, 1e-9, coords[rows, None], coords[None, :], at))
            total += float(np.sum(values * values))
        return total * step * step
    if not isinstance(target, DiscreteMeasure):
        raise DomainError("target must be a DiscreteMeasure or IFSDescriptor")
    pos, wts = target.positions, target.weights
    grid = np.zeros(inside.shape, dtype=np.complex128)
    rows = min(_ENERGY_BLOCK, pos.size)
    ex_block = np.empty((rows, 2 * n), dtype=np.complex128)
    ey_block = np.empty_like(ex_block)
    for a0 in range(0, pos.size, _ENERGY_BLOCK):
        blk = slice(a0, a0 + _ENERGY_BLOCK)
        ex, ey = ex_block[: pos.size - a0], ey_block[: pos.size - a0]
        # coords[-k - 1] = -coords[k]: the negative half is the mirrored conjugate
        for e, p in ((ex, pos.real[blk]), (ey, pos.imag[blk])):
            np.exp(2j * np.pi * np.outer(p, coords[n:]), out=e[:, n:])
            np.conjugate(e[:, n:][:, ::-1], out=e[:, :n])
        ex *= wts[blk, None]
        grid += ex.T @ ey
    return float(np.sum(np.abs(grid[inside]) ** 2)) * step * step
