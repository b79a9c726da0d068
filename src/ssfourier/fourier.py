"""Fourier transform of self-similar measures and frequency-grid scans.

The transform convention is mu_hat(xi) = int exp(2*pi*i*Re(z*conj(xi))) dmu,
which for a homogeneous self-similar measure factors into the infinite
product prod_{n>=0} Phi(lam^n * conj(xi)) over the digit character
Phi(u) = sum_j p_j exp(2*pi*i*Re(w_j*u)).  Products are truncated with a
certified tail bound, so the returned modulus is an upper bound on the true
|mu_hat| and differs from it by at most 2*tol.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError
from .measures import DiscreteMeasure, IFSDescriptor

DEFAULT_TOL = 1e-9
DEFAULT_SUBGRID_K = 4
DEFAULT_CELL_BUDGET = 10**7
_POINT_CHUNK = 1 << 16
_ROW_BLOCK = 64
_ATOM_CHUNK = 1 << 16
_ENERGY_BLOCK = 1 << 13
_BIN_MAGIC = b"SSFGRID1"


def phi(ifs: IFSDescriptor, u) -> complex | np.ndarray:
    """Digit character Phi(u) = sum_j p_j exp(2*pi*i*Re(w_j*u)).

    Accepts a scalar or an array of complex arguments; |Phi| <= 1 always,
    with equality at u = 0.
    """
    u_arr = np.asarray(u, dtype=np.complex128)
    out = _phi_raw(ifs.digits, ifs.probs, u_arr)
    if np.isscalar(u) or u_arr.shape == ():
        return complex(out)
    return out


def _phi_raw(digits, probs, u: np.ndarray) -> np.ndarray:
    out = np.zeros(u.shape, dtype=np.complex128)
    for w, p in zip(digits, probs):
        out += p * np.exp(2j * np.pi * (w.real * u.real - w.imag * u.imag))
    return out


def _trunc_k_raw(lam, digits, abs_xi, tol: float) -> np.ndarray:
    if tol <= 0:
        raise DomainError("tol must be > 0")
    abs_xi = np.asarray(abs_xi, dtype=np.float64)
    w_max = max(abs(w) for w in digits)
    if w_max == 0.0:
        return np.zeros(abs_xi.shape, dtype=np.int64)
    alam = abs(lam)
    tail0 = 2.0 * np.pi * w_max * abs_xi / (1.0 - alam)
    with np.errstate(divide="ignore"):
        k = np.ceil(np.log(np.where(tail0 > 0, tol / tail0, 1.0)) / math.log(alam))
    return np.where(tail0 < tol, 0, np.maximum(k, 0)).astype(np.int64)


def truncation_index(ifs: IFSDescriptor, abs_xi, tol: float):
    """Smallest K with sum_{n>=K} 2*pi*max|w|*|lam|^n*|xi| < tol.

    Uses |Phi(u) - 1| <= 2*pi*max|w|*|u| per omitted factor, summed over
    the geometric tail.  Vectorized over |xi|.
    """
    return _trunc_k_raw(ifs.lam, ifs.digits, abs_xi, tol)


def _mu_hat_raw(lam, digits, probs, xi: np.ndarray, tol: float) -> np.ndarray:
    """Truncated product over a flat complex array, per-point K.

    Each output lane is a function of its own xi only, so results are
    independent of batching or worker layout.
    """
    xi = np.asarray(xi, dtype=np.complex128)
    out = np.ones(xi.shape, dtype=np.complex128)
    if max(abs(w) for w in digits) == 0.0:
        return out
    k = _trunc_k_raw(lam, digits, np.abs(xi), tol)
    kmax = int(k.max(initial=0))
    u = np.conj(xi)
    for n in range(kmax):
        out = np.where(k > n, out * _phi_raw(digits, probs, u), out)
        u = u * lam
    return out


def mu_hat(ifs: IFSDescriptor, xi, tol: float = 1e-12) -> complex | np.ndarray:
    """Fourier transform via the truncated product, at one frequency or
    elementwise over an array of frequencies.

    The truncation index K of each frequency is the smallest integer whose
    geometric tail bound falls below ``tol``; the result is within 2*tol of
    the exact value for tol <= 1/2, and its modulus is an upper bound on
    |mu_hat|.  Each value depends on its own frequency alone, so a batch
    gives the same bits as one call per frequency.
    """
    xi_arr = np.asarray(xi, dtype=np.complex128)
    out = _mu_hat_raw(ifs.lam, ifs.digits, ifs.probs, xi_arr.reshape(-1), tol)
    if xi_arr.ndim == 0:
        return complex(out[0])
    return out.reshape(xi_arr.shape)


def mu_hat_many(ifs: IFSDescriptor, xi, tol: float = 1e-12) -> np.ndarray:
    """mu_hat over an array of frequencies; always returns an array."""
    if tol <= 0:
        raise DomainError("tol must be > 0")
    return np.asarray(mu_hat(ifs, np.asarray(xi, dtype=np.complex128), tol))


def fourier_sum(
    positions: np.ndarray, weights: np.ndarray, xi: np.ndarray
) -> np.ndarray:
    """Direct Fourier sum sum_k w_k exp(2*pi*i*Re(z_k*conj(xi))).

    The independent oracle path for discrete measures: no product
    structure, no truncation, just the plain exponential sum.  Per-lane
    results are a function of that lane's frequency alone, so output
    never depends on batching or thread count.
    """
    xi = np.asarray(xi, dtype=np.complex128).ravel()
    out = np.zeros(xi.shape, dtype=np.complex128)
    xr, xi_im = xi.real, xi.imag
    pr, pi = positions.real, positions.imag
    for i0 in range(0, xi.size, 256):
        sl = slice(i0, min(i0 + 256, xi.size))
        acc = np.zeros(sl.stop - sl.start, dtype=np.complex128)
        for a0 in range(0, positions.size, _ATOM_CHUNK):
            asl = slice(a0, min(a0 + _ATOM_CHUNK, positions.size))
            phase = np.outer(xr[sl], pr[asl]) + np.outer(xi_im[sl], pi[asl])
            acc += np.exp(2j * np.pi * phase) @ weights[asl]
        out[sl] = acc
    return out


def ft_measure(mu: DiscreteMeasure, xi) -> np.ndarray:
    shape = np.shape(xi)
    vals = fourier_sum(mu.positions, mu.weights, np.asarray(xi, dtype=np.complex128))
    return vals.reshape(shape) if shape else complex(vals[0])


# ---------------------------------------------------------------------------
# frequency-grid scanning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanField:
    """Per-cell sampled maxima of |mu_hat| over a disk of radius T.

    Cells are the unit squares [i, i+1) x [j, j+1) anchored at integer
    coordinates; each stored value is the maximum of |mu_hat| over a
    subgrid_k x subgrid_k lattice of points (i + a/k, j + b/k), which
    includes the anchor corner, so the origin cell always samples
    mu_hat(0) = 1.
    """

    T: float
    subgrid_k: int
    cells: dict
    tol: float
    cell_size: float = 1.0


def _scan_cells(T: float):
    """Indices of unit cells whose closure meets the closed disk |xi| <= T."""
    n = math.ceil(T)
    idx = np.arange(-n, n)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    nx = np.clip(0.0, ii, ii + 1.0)
    ny = np.clip(0.0, jj, jj + 1.0)
    keep = nx * nx + ny * ny <= T * T
    return ii[keep], jj[keep]


def _scan_block(args):
    """|Truncated product| at the points (xs[rows], ys[cols]) of one block.

    With c_j = w_j * lam^l, Phi(lam^l conj xi) = sum_j p_j e(Re(c_j) x)
    e(Im(c_j) y): each level costs 2m exponentials per axis value and m
    complex multiply-adds per point of the tensor grid xs x ys.  A point's
    value is read off after its own truncation index K of factors, so it
    is the product ``_mu_hat_raw`` evaluates at that frequency, and it
    depends on no other point of the block.
    """
    lam, digits, probs, tol, xs, ys, rows, cols = args
    k = _trunc_k_raw(lam, digits, np.abs(xs[rows] + 1j * ys[cols]).ravel(), tol)
    order = np.argsort(k, kind="stable")
    kmax = int(k.max(initial=0))
    # order[edges[l]:edges[l + 1]] are the points with K == l; K == 0 keeps 1
    edges = np.searchsorted(k[order], np.arange(kmax + 2))
    at = (rows * ys.size + cols).ravel()[order]
    values = np.ones(k.size)
    out = np.ones((xs.size, ys.size), dtype=np.complex128)
    flat = out.ravel()
    phi = np.empty_like(out)
    term = np.empty_like(out)
    probs = np.asarray(probs, dtype=np.float64)[:, None]
    c = np.asarray(digits, dtype=np.complex128)
    for level in range(kmax):
        ex = probs * np.exp(2j * np.pi * np.outer(c.real, xs))
        ey = np.exp(2j * np.pi * np.outer(c.imag, ys))
        np.multiply(ex[0][:, None], ey[0], out=phi)
        for j in range(1, c.size):
            np.multiply(ex[j][:, None], ey[j], out=term)
            phi += term
        out *= phi
        done = slice(edges[level + 1], edges[level + 2])
        values[order[done]] = np.abs(flat[at[done]])
        c = c * lam
    return values


def _scan_points(
    ifs: IFSDescriptor,
    T: float,
    subgrid_k: int,
    tol: float,
    workers: int,
    cell_budget: int | None,
):
    """Shared scan core: cell indices, sample frequencies, sampled |mu_hat|.

    Points are laid out cell-major then subgrid-major.  They all lie on
    the tensor grid axis x axis, axis = (i + a/k for -n <= i < n, a < k),
    where the digit character separates (``_scan_block``).  The grid is
    evaluated in blocks of max(1, _ROW_BLOCK // k) cell rows, each over
    the column span of its own disk cells, with the per-point truncation
    index K of ``_mu_hat_raw``, so every value agrees with ``mu_hat_many``
    at its frequency to rounding.  Each value depends on its frequency
    alone, and block boundaries do not depend on the worker count either,
    so the output is bit-for-bit reproducible for any ``workers``.
    """
    if not 1 <= T < math.inf:
        raise DomainError("scan radius T must be finite and >= 1")
    if subgrid_k < 1:
        raise DomainError("subgrid_k must be >= 1")
    budget = DEFAULT_CELL_BUDGET if cell_budget is None else int(cell_budget)
    ci, cj = _scan_cells(T)
    n_points = ci.size * subgrid_k * subgrid_k
    if n_points > budget:
        raise BudgetError(
            f"scan would sample {n_points} points (budget {budget})"
        )
    n, k = math.ceil(T), subgrid_k
    axis = (np.arange(-n, n)[:, None] + np.arange(k) / k).ravel()
    sub = np.arange(k)
    gx = ((ci + n) * k)[:, None, None] + sub[None, :, None]
    gy = ((cj + n) * k)[:, None, None] + sub[None, None, :]
    step = max(1, _ROW_BLOCK // k)
    # cells are sorted by row, so each block of cell rows is a run of cells
    starts = np.searchsorted(ci, np.arange(-n, n + step, step))
    blocks = []
    for s0, s1 in zip(starts[:-1], starts[1:]):
        rows, cols = gx[s0:s1], gy[s0:s1]
        r0, r1, c0, c1 = rows.min(), rows.max() + 1, cols.min(), cols.max() + 1
        blocks.append((
            ifs.lam, ifs.digits, ifs.probs, tol,
            axis[r0:r1], axis[c0:c1], rows - r0, cols - c0,
        ))
    if workers <= 1 or len(blocks) <= 1:
        parts = [_scan_block(b) for b in blocks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_scan_block, blocks))
    xi = (axis[gx] + 1j * axis[gy]).ravel()
    values = np.concatenate(parts)
    return ci, cj, xi, values


def grid_scan(
    ifs: IFSDescriptor,
    T: float,
    subgrid_k: int = DEFAULT_SUBGRID_K,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
    cell_budget: int | None = None,
) -> ScanField:
    """Scan |mu_hat| over every unit cell meeting the disk |xi| <= T.

    Stores, per cell, the maximum sampled value on the subgrid lattice.
    The samples form a tensor grid xs x ys on which the phase separates,
    Re(c*conj(xi)) = Re(c)*x + Im(c)*y, so each factor of the product
    costs exponentials per axis value and multiply-adds per point; each
    point keeps its own truncation index K (see ``_scan_points``).  Row
    blocks of fixed size go to ``workers`` processes; the output is
    identical for any worker count.
    """
    ci, cj, _, values = _scan_points(ifs, T, subgrid_k, tol, workers, cell_budget)
    per_cell = values.reshape(ci.size, subgrid_k * subgrid_k).max(axis=1)
    cells = {
        (int(i), int(j)): float(v) for i, j, v in zip(ci, cj, per_cell)
    }
    return ScanField(T=float(T), subgrid_k=subgrid_k, cells=cells, tol=tol)


def scanfield_to_csv(fieldobj: ScanField) -> str:
    lines = ["i,j,max_abs_muhat"]
    for (i, j), v in sorted(fieldobj.cells.items()):
        lines.append(f"{i},{j},{v!r}")
    return "\n".join(lines) + "\n"


def scanfield_to_binary(fieldobj: ScanField) -> bytes:
    """Compact dump: 32-byte header then a full square float64 grid.

    Header: magic (8s), T (f64), subgrid_k (u32), cell count (u32),
    8 reserved zero bytes; little-endian.  The grid covers
    [-ceil(T), ceil(T))^2 row-major in i then j; cells outside the scan
    disk hold -1.0.
    """
    n = math.ceil(fieldobj.T)
    side = 2 * n
    grid = np.full((side, side), -1.0, dtype="<f8")
    ij = np.array(list(fieldobj.cells), dtype=np.int64).reshape(-1, 2) + n
    grid[ij[:, 0], ij[:, 1]] = list(fieldobj.cells.values())
    header = struct.pack(
        "<8sdII8x", _BIN_MAGIC, fieldobj.T, fieldobj.subgrid_k, len(fieldobj.cells)
    )
    return header + grid.tobytes()


def scanfield_from_binary(blob: bytes) -> ScanField:
    magic, T, k, count = struct.unpack_from("<8sdII", blob)
    if magic != _BIN_MAGIC:
        raise DomainError("bad scan-field magic")
    n = math.ceil(T)
    side = 2 * n
    grid = np.frombuffer(blob, dtype="<f8", offset=32).reshape(side, side)
    ii, jj = np.nonzero(grid >= 0.0)
    keys = zip((ii - n).tolist(), (jj - n).tolist())
    cells = dict(zip(keys, grid[ii, jj].tolist()))
    if len(cells) != count:
        raise DomainError("scan-field cell count mismatch")
    return ScanField(T=T, subgrid_k=int(k), cells=cells, tol=float("nan"))


# ---------------------------------------------------------------------------
# Fourier energy
# ---------------------------------------------------------------------------

def energy_integral(target, T: float, step: float) -> float:
    """Midpoint-rule approximation of int_{|xi|<T} |eta_hat|^2 d(xi).

    ``target`` may be a DiscreteMeasure or an IFSDescriptor (truncated
    product evaluation).  The lattice has spacing ``step`` (required
    <= 1/2) with midpoints strictly inside the disk.

    For a DiscreteMeasure the lattice is the tensor grid c x c with
    c = (arange(-n, n) + 1/2) * step, and the character separates:
    e(Re(z*conj(xi))) = e(x*xi_x) * e(y*xi_y).  So the transform on the
    whole grid is G = sum_k w_k e(x_k c) (x) e(y_k c), accumulated as
    G += (w * E_x)^T @ E_y over atom blocks of fixed size in a fixed
    order: 2 * n_atoms * side exponentials and one complex matrix
    product instead of n_atoms * side^2 exponentials.  The result does
    not depend on the BLAS thread count, and memory beyond G is two
    block x side arrays.
    """
    if step > 0.5 or step <= 0:
        raise DomainError("step must lie in (0, 1/2]")
    n = math.ceil(T / step)
    coords = (np.arange(-n, n) + 0.5) * step
    lattice = coords[:, None] + 1j * coords[None, :]
    inside = np.abs(lattice) < T
    if isinstance(target, DiscreteMeasure):
        pos, wts = target.positions, target.weights
        grid = np.zeros(inside.shape, dtype=np.complex128)
        for a0 in range(0, pos.size, _ENERGY_BLOCK):
            blk = slice(a0, a0 + _ENERGY_BLOCK)
            ex = wts[blk, None] * np.exp(2j * np.pi * np.outer(pos.real[blk], coords))
            ey = np.exp(2j * np.pi * np.outer(pos.imag[blk], coords))
            grid += ex.T @ ey
        return float(np.sum(np.abs(grid[inside]) ** 2)) * step * step
    if not isinstance(target, IFSDescriptor):
        raise DomainError("target must be a DiscreteMeasure or IFSDescriptor")
    xi = lattice[inside]
    total = 0.0
    for s in range(0, xi.size, _POINT_CHUNK):
        vals = _mu_hat_raw(
            target.lam, target.digits, target.probs, xi[s : s + _POINT_CHUNK], 1e-9
        )
        total += float(np.sum(np.abs(vals) ** 2))
    return total * step * step
