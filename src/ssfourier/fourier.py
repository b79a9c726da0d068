"""Fourier transform of self-similar measures and frequency-grid scans.

The transform convention is mu_hat(xi) = int exp(2*pi*i*Re(z*conj(xi))) dmu,
which for a homogeneous self-similar measure factors into the infinite
product prod_{n>=0} Phi(lam^n * conj(xi)) over the digit character
Phi(u) = sum_j p_j exp(2*pi*i*Re(w_j*u)).  Products are truncated with a
certified tail bound, so the returned modulus is an upper bound on the true
|mu_hat| and differs from it by at most 2*tol.  One kernel, ``_product``,
evaluates it for ``mu_hat``, the scan and the IFS energy.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
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


def truncation_index(ifs: IFSDescriptor, abs_xi, tol: float):
    """Smallest K with sum_{n>=K} 2*pi*max|w|*|lam|^n*|xi| < tol.

    Uses |Phi(u) - 1| <= 2*pi*max|w|*|u| per omitted factor, summed over
    the geometric tail.  Vectorized over |xi|; K is 0 everywhere when all
    digits are 0.  Raises DomainError unless tol is finite and > 0.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
    abs_xi = np.asarray(abs_xi, dtype=np.float64)
    w_max = max(abs(w) for w in ifs.digits)
    if w_max == 0.0:
        return np.zeros(abs_xi.shape, dtype=np.int64)
    alam = abs(ifs.lam)
    tail0 = 2.0 * np.pi * w_max * abs_xi / (1.0 - alam)
    # a subnormal tail0 overflows tol / tail0; tail0 < tol then sets K = 0
    with np.errstate(divide="ignore", over="ignore"):
        k = np.ceil(np.log(np.where(tail0 > 0, tol / tail0, 1.0)) / math.log(alam))
    return np.where(tail0 < tol, 0, np.maximum(k, 0)).astype(np.int64)


def mu_hat(ifs: IFSDescriptor, xi, tol: float = 1e-12) -> complex | np.ndarray:
    """Fourier transform via the truncated product, at one frequency or
    elementwise over an array of frequencies.

    Each frequency keeps the first K factors, K = ``truncation_index`` at
    |xi|, the smallest integer whose geometric tail bound falls below
    ``tol`` (finite and > 0); the result is within 2*tol of
    the exact value for tol <= 1/2, and its modulus is an upper bound on
    |mu_hat|.  A lone frequency goes to ``_product`` as two copies of
    itself, since numpy multiplies a one-element complex array on another
    path, so a scalar call, a batch lane and the scan agree bit for bit.
    """
    xi_arr = np.asarray(xi, dtype=np.complex128)
    flat = xi_arr.ravel()
    lanes = np.repeat(flat, 2) if flat.size == 1 else flat
    out = _product(ifs, tol, lanes.real, lanes.imag, np.arange(lanes.size))[: flat.size]
    return complex(out[0]) if xi_arr.ndim == 0 else out.reshape(xi_arr.shape)


def _product(ifs: IFSDescriptor, tol: float, x, y, at) -> np.ndarray:
    """The one product kernel: truncated mu_hat at xi = x + iy.

    x and y broadcast to a grid (a column and a row make a tensor grid,
    two flat arrays a list); the complex values of the grid points at
    flat indices ``at`` come back in that order.  With c_j = w_j lam^l,
    Phi(lam^l conj xi) = sum_j p_j e(Re(c_j) x) e(Im(c_j) y), so a level
    costs 2m exponentials per value of x and of y and m complex
    multiply-adds per point.  A point's value is read off after its own
    truncation index K of factors: it depends on its frequency alone.
    """
    grid = x + 1j * y
    k = truncation_index(ifs, np.abs(grid.ravel()[at]), tol)
    order = np.argsort(k, kind="stable")
    kmax = int(k.max(initial=0))
    # order[edges[l]:edges[l + 1]] are the points with K == l; K == 0 keeps 1
    edges = np.searchsorted(k[order], np.arange(kmax + 2))
    values = np.ones(k.size, dtype=np.complex128)
    out = np.ones(grid.shape, dtype=np.complex128)
    phi, term = np.empty_like(out), np.empty_like(out)
    digit = (slice(None),) + (None,) * out.ndim  # a leading axis over the digits
    probs = np.asarray(ifs.probs, dtype=np.float64)[digit]
    c = np.asarray(ifs.digits, dtype=np.complex128)
    for level in range(kmax):
        ex = probs * np.exp(2j * np.pi * (c.real[digit] * x))
        ey = np.exp(2j * np.pi * (c.imag[digit] * y))
        np.multiply(ex[0], ey[0], out=phi)
        for j in range(1, c.size):
            np.multiply(ex[j], ey[j], out=term)
            phi += term
        out *= phi
        done = order[edges[level + 1] : edges[level + 2]]
        values[done] = out.ravel()[at[done]]
        c = c * ifs.lam
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
    subgrid_k x subgrid_k lattice of points (i + a/k, j + b/k), which
    includes the anchor corner, so the origin cell always samples
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


def _scan_cells(T: float):
    """Row-major indices (i, j) of the unit cells whose closure meets |xi| <= T."""
    n = math.ceil(T)
    idx = np.arange(-n, n)
    near = np.clip(0.0, idx, idx + 1.0)
    sq = near * near
    ii, jj = np.nonzero(sq[:, None] + sq[None, :] <= T * T)
    return ii - n, jj - n


def _modulus(block) -> np.ndarray:
    """|_product| of one scan block, so that a pool worker sends back floats."""
    return np.abs(_product(*block))


def scan_blocks(
    ifs: IFSDescriptor,
    T: float,
    subgrid_k: int,
    tol: float,
    workers: int = 1,
    cell_budget: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The scan core: sampled |mu_hat| on every unit cell meeting |xi| <= T.

    Checks the arguments and the point budget at once (first the lower
    bound pi T^2 k^2, as the cells cover the disk, so no O(T^2) work is
    done past the budget), then returns an iterator over row blocks of
    (ci, cj, xi, values): cell indices, sample frequencies and truncated
    |mu_hat|, cell-major then subgrid-major, blocks in row order.  The
    points lie on the tensor grid axis x axis, axis = (i + a/k for
    -n <= i < n, a < k), where the digit character separates.  A block
    is max(1, _ROW_BLOCK // k) cell rows, passed to the product kernel
    ``_product`` as a column and a row of ``axis`` over the span of its
    own cells, so every value is ``np.abs(mu_hat)`` at its frequency,
    bit for bit.  Values depend on their frequency alone and blocks not
    on ``workers``, so the output is bit-for-bit the same for any worker
    count.  With ``workers`` > 1 a process pool maps ``_modulus`` over
    the blocks; closing the iterator shuts it down.
    """
    if not 1 <= T < math.inf:
        raise DomainError("scan radius T must be finite and >= 1")
    if subgrid_k < 1:
        raise DomainError("subgrid_k must be >= 1")
    budget = DEFAULT_CELL_BUDGET if cell_budget is None else int(cell_budget)
    k = subgrid_k
    least = math.pi * (T * k) ** 2
    if least > budget:
        raise BudgetError(f"scan would sample over {least:.0f} points (budget {budget})")
    ci, cj = _scan_cells(T)
    if ci.size * k * k > budget:
        raise BudgetError(f"scan would sample {ci.size * k * k} points (budget {budget})")
    n = math.ceil(T)
    axis = (np.arange(-n, n)[:, None] + np.arange(k) / k).ravel()
    sub = np.arange(k)
    gx = ((ci + n) * k)[:, None, None] + sub[None, :, None]
    gy = ((cj + n) * k)[:, None, None] + sub[None, None, :]
    step = max(1, _ROW_BLOCK // k)
    # cells are sorted by row, so each block of cell rows is a run of cells
    starts = np.searchsorted(ci, np.arange(-n, n + step, step))
    spans = list(zip(starts[:-1], starts[1:]))
    blocks = []
    for s0, s1 in spans:
        rows, cols = gx[s0:s1], gy[s0:s1]
        r0, r1, c0, c1 = rows.min(), rows.max() + 1, cols.min(), cols.max() + 1
        # int32 halves the indices, which the pool holds for every block at once
        at = ((rows - r0) * (c1 - c0) + cols - c0).ravel().astype(np.int32)
        blocks.append((ifs, tol, axis[r0:r1, None], axis[None, c0:c1], at))

    def stream():
        size = min(workers, len(blocks))  # workers beyond the blocks would sit idle
        pool = ProcessPoolExecutor(size) if size > 1 else None
        try:
            run = map if pool is None else pool.map
            for (s0, s1), values in zip(spans, run(_modulus, blocks)):
                xi = (axis[gx[s0:s1]] + 1j * axis[gy[s0:s1]]).ravel()
                yield ci[s0:s1], cj[s0:s1], xi, values
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
    ``scan_blocks`` so no per-point array outlives its block.  The
    output is identical for any ``workers``.
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
    """Inverse of ``scanfield_to_binary``; a malformed blob is a DomainError."""
    if len(blob) < 32:
        raise DomainError("scan-field blob shorter than its 32-byte header")
    magic, T, k, count = struct.unpack_from("<8sdII", blob)
    if magic != _BIN_MAGIC:
        raise DomainError("bad scan-field magic")
    if not 0.0 <= T < math.inf:
        raise DomainError("scan-field radius T must be finite and >= 0")
    side = 2 * math.ceil(T)
    if len(blob) != 32 + 8 * side * side:
        raise DomainError(f"scan-field blob length {len(blob)} does not fit T = {T!r}")
    grid = np.frombuffer(blob, dtype="<f8", offset=32).reshape(side, side)
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
    and > 0 and 0 < step <= 1/2; BudgetError, before any allocation, past
    DEFAULT_CELL_BUDGET lattice points (the scan's cap).

    For an IFSDescriptor blocks of _ROW_BLOCK lattice rows go through
    the product kernel ``_product`` (as ``mu_hat`` at tol 1e-9), and the
    squares add up block by block in row order.  For a
    DiscreteMeasure the character separates:
    e(Re(z*conj(xi))) = e(x*xi_x) * e(y*xi_y).  So the transform on the
    whole grid is G = sum_k w_k e(x_k c) (x) e(y_k c), accumulated as
    G += (w * E_x)^T @ E_y over atom blocks of fixed size in a fixed
    order: 2 * n_atoms * side exponentials and one complex matrix
    product instead of n_atoms * side^2 exponentials.  The result does
    not depend on the BLAS thread count, and memory beyond G is two
    block x side arrays.
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
    for a0 in range(0, pos.size, _ENERGY_BLOCK):
        blk = slice(a0, a0 + _ENERGY_BLOCK)
        ex = wts[blk, None] * np.exp(2j * np.pi * np.outer(pos.real[blk], coords))
        ey = np.exp(2j * np.pi * np.outer(pos.imag[blk], coords))
        grid += ex.T @ ey
    return float(np.sum(np.abs(grid[inside]) ** 2)) * step * step
