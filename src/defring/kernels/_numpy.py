"""Numpy implementations of the hot kernels.

All mod-p routines assume a prime modulus small enough that products fit in
int64, which the callers guarantee (moduli used in anger are < 2**16).

``rank_modp`` eliminates in float64 matrix products and reduces mod p once
per block of rows, after Dumas, Giorgi and Pernet, "Dense linear algebra
over word-size prime fields: the FFLAS and FFPACK packages" (ACM TOMS 2008).
Each entry of such a product sums fewer than ``cols`` terms below (p-1)^2
plus one residue, so every partial sum is an integer that float64 holds
exactly while ``cols * (p-1)**2 < 2**53``; ``rank_modp`` raises
``ValueError`` past that bound.
"""

from __future__ import annotations

import numpy as np


def _as_modp(a, p: int) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return a % p


def rref_modp(a, p: int):
    """Reduced row echelon form over F_p.

    Returns ``(r, pivots)`` where ``r`` is the RREF matrix (int64) and
    ``pivots`` the list of pivot column indices, one per nonzero row.
    """
    r = _as_modp(a, p)
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        sub = r[row:, col]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        inv = pow(int(r[row, col]), p - 2, p)
        r[row] = (r[row] * inv) % p
        column = r[:, col].copy()
        column[row] = 0
        r -= np.outer(column, r[row])
        r %= p
        pivots.append(col)
        row += 1
    return r, pivots


RANK_BLOCK = 64  # rows reduced against the echelon basis per product


def rank_modp(a, p: int) -> int:
    """Rank of a matrix over F_p, by blocked forward-only elimination.

    Keeps a reduced echelon basis ``E`` of the rows seen so far, with pivot
    columns ``P``.  As ``E[:, P]`` is the identity, only ``F = E[:, free]``
    is stored, and reducing a block ``C`` of rows against ``E`` is one
    product: ``C - C[:, P] @ E`` is zero on ``P`` and ``C[:, free] -
    C[:, P] @ F`` on the free columns, mod p.  Rows that became zero are
    dropped, the rest are put in reduced echelon form with ``rref_modp``,
    and their pivots are cleared from ``F`` with one more product.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    nrows, ncols = a.shape
    if ncols * (p - 1) ** 2 >= 2**53:
        raise ValueError(f"cols * (p-1)^2 = {ncols * (p - 1) ** 2} is not exact in float64")
    free = np.arange(ncols)
    pivots = np.zeros(0, dtype=np.int64)
    basis = np.zeros((0, ncols))  # E[:, free]
    for start in range(0, nrows, RANK_BLOCK):
        if not free.size:
            break
        block = np.mod(a[start : start + RANK_BLOCK], p).astype(np.float64)
        rest = np.mod(block[:, free] - block[:, pivots] @ basis, p)
        rest = rest[rest.any(axis=1)]
        if not len(rest):
            continue
        r, new = rref_modp(rest, p)
        keep = np.ones(free.size, dtype=bool)
        keep[new] = False
        r = r[: len(new), keep].astype(np.float64)
        basis = np.vstack([np.mod(basis[:, keep] - basis[:, new] @ r, p), r])
        pivots = np.concatenate([pivots, free[new]])
        free = free[keep]
    return int(pivots.size)


def solve_modp(a, b, p: int):
    """One solution of ``a @ x = b`` over F_p, or None if inconsistent."""
    a = _as_modp(a, p)
    b = np.asarray(b, dtype=np.int64).reshape(-1) % p
    aug = np.hstack([a, b[:, None]])
    r, pivots = rref_modp(aug, p)
    ncols = a.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, ncols]
    return x


def table_matmul(a, b, add, mul):
    """Batched matrix product over a finite ring given by op tables.

    ``a`` has shape (n, d, k) and ``b`` (n, k, m); entries are element codes
    indexing the ``add``/``mul`` tables.  Returns the (n, d, m) products.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    bt = b.transpose(0, 2, 1)
    prod = mul[a[:, :, None, :], bt[:, None, :, :]]
    acc = prod[..., 0]
    for i in range(1, prod.shape[-1]):
        acc = add[acc, prod[..., i]]
    return acc

