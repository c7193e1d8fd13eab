"""Numpy implementations of the hot kernels.

``rref_modp`` is the one row reduction: the Howell form over Z/p^N, which at
N = 1 is the reduced row echelon form over F_p.  It works on int64 arrays
while m^2 < 2^63 (m = p^N), which bounds every product of two residues and
every difference of such a product and a residue, and otherwise runs the
same loop on arrays of Python ints (`residues`), so every modulus is exact.

``rank_modp`` eliminates in float64 matrix products and reduces mod p once
per block of rows, after Dumas, Giorgi and Pernet, "Dense linear algebra
over word-size prime fields: the FFLAS and FFPACK packages" (ACM TOMS 2008).
Each entry of such a product sums fewer than ``cols`` terms below (p-1)^2
plus one residue, so every partial sum is an integer that float64 holds
exactly while ``cols * (p-1)**2 < 2**53``; ``rank_modp`` raises
``ValueError`` past that bound.  The reduction is x - p floor(x / p)
(`_fmod`), not ``np.mod``, which costs several times more on float64.

Over F_2 both take another route, chosen by the modulus alone: ``rref_modp``
when p^N = 2 and ``rank_modp`` when p = 2.  `_xor_insert` packs each 0/1
row into one Python int with ``np.packbits`` (column 0 most significant)
and inserts it into an XOR basis indexed by ``bit_length()``, which names
the row's leading column.  An elimination step is then one XOR of two
Python ints, in place of a numpy step per pivot over the whole matrix.
``rref_modp`` clears each pivot column above its pivot, from the lowest
pivot up, and unpacks the rows; the reduced row echelon form over F_2 is
unique, so this is the Howell loop's output byte for byte.  ``rank_modp``
inserts its rows ``RANK_BLOCK`` at a time and stops once the rank reaches
``cols``.
"""

from __future__ import annotations

import numpy as np


def residues(a, m: int) -> np.ndarray:
    """a mod m as an array of exact integers: int64 while m^2 < 2^63, and
    Python ints otherwise.  Input other than a numeric array is read as
    Python ints, as numpy reads a list holding an integer past 2^63 as
    float64.  On int64 a power-of-two m reduces by ``& (m - 1)``, which gives
    the same residues as ``% m`` (negative entries included, in two's
    complement) at a fraction of the cost."""
    if not isinstance(a, np.ndarray) or a.dtype == object:
        a = np.array(a, dtype=object) % m
    a = a.astype(np.int64 if m * m < 2**63 else object, copy=False)
    if a.dtype == np.int64 and m & (m - 1) == 0:
        return a & (m - 1)
    return a % m


def rref_modp(a, p: int, N: int = 1):
    """Howell form of the row span of ``a`` over Z/p^N (Storjohann and
    Mulders, "Fast algorithms for linear algebra modulo N", ESA 1998); at
    N = 1, the reduced row echelon form over F_p.

    Column by column, a remaining row of least valuation becomes the pivot
    row (``np.gcd`` with p^N gives p^e, and p^N at a zero entry); a column
    zero in the remaining rows has no pivot, and one ``any`` passes over it
    and the zero columns that follow it.  The pivot row is scaled by a unit
    so that its pivot is p^e, and every other row loses the multiple of it
    that clears the column below the pivot and reduces it mod p^e above.
    When e > 0, the shadow row p^(N-e) times the pivot row, zero up to the
    pivot column, joins the remaining rows, so the span's elements that
    vanish before a column are spanned by the rows from its pivot on.  That
    and the reduction make the form unique for the span.

    Returns ``(r, pivots)``: row i of ``r`` is the Howell row whose pivot
    p^e stands in column ``pivots[i]``, and the rows after the last pivot
    are zero.  ``r`` has the dtype `residues` chose.  When p^N = 2 the same
    form comes from an XOR basis of the packed rows (`_rref_f2`).
    """
    m = p**N
    r = residues(a, m)
    if r.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if m == 2:
        return _rref_f2(r)
    nrows, ncols = r.shape
    if N > 1:  # room for one shadow row per pivot
        r = np.concatenate([r, np.zeros((ncols, ncols), dtype=r.dtype)])
    pivots = []
    row, end, col = 0, nrows, 0
    while row < end and col < ncols:
        val = np.gcd(r[row:end, col], m)
        k = val.argmin()
        pe = int(val[k])
        if pe == m:  # on to the next column nonzero in the remaining rows
            live = (r[row:end, col:] != 0).any(axis=0)
            if not live.any():
                break
            col += int(live.argmax())
            continue
        if k:
            r[row], r[row + k] = r[row + k], r[row].copy()
        prow = r[row, col:]
        unit = int(prow[0]) // pe
        if unit != 1:
            prow *= pow(unit, -1, m)
            prow %= m
        q = r[:end, col] // pe
        q[row] = 0
        hit = q.nonzero()[0]
        if hit.size:
            r[hit, col:] = (r[hit, col:] - q[hit][:, None] * prow) % m
        if pe > 1:
            r[end] = r[row] * (m // pe) % m
            end += 1
        pivots.append(col)
        row, col = row + 1, col + 1
    return r, pivots


def _xor_insert(basis: list[int], rows: np.ndarray) -> int:
    """Insert the 0/1 ``rows`` into the XOR basis ``basis`` over F_2 and
    return how many of them joined it.

    Each row is packed into a Python int, column c of w = 8 * ceil(cols / 8)
    padded columns at bit w - 1 - c, so its ``bit_length()`` b names its
    leading column w - b.  ``basis[b]`` is the one basis row leading there,
    or 0, so ``basis`` has at least cols + 8 entries.  A row is XORed with
    the basis row of its leading bit until it is zero (it lay in the span)
    or leads with a bit no basis row has, and then joins the basis there.
    """
    if not rows.size:
        return 0
    nbytes = (rows.shape[1] + 7) // 8
    buf = np.packbits(rows.astype(np.uint8), axis=1).tobytes()
    added = 0
    for start in range(0, len(buf), nbytes):
        x = int.from_bytes(buf[start : start + nbytes], "big")
        while x:
            b = x.bit_length()
            y = basis[b]
            if not y:
                basis[b] = x
                added += 1
                break
            x ^= y
    return added


def _rref_f2(r: np.ndarray):
    """`rref_modp` of the residues ``r`` mod 2: `_xor_insert` gives an
    echelon basis, and from the lowest pivot up each row is cleared, by the
    reduced rows below it, at their pivot columns."""
    nrows, ncols = r.shape
    basis = [0] * (ncols + 8)
    _xor_insert(basis, r)
    keys = [b for b, x in enumerate(basis) if x]  # the lowest pivot, the rightmost column, first
    pivot_bits = sum(1 << (b - 1) for b in keys)
    for b in keys:
        # a reduced row is zero at every other pivot, so XORing it clears
        # its own pivot in x and leaves x's other pivot bits as they were
        x = basis[b]
        hits = (x & pivot_bits) ^ (1 << (b - 1))
        while hits:
            c = hits.bit_length()
            x ^= basis[c]
            hits ^= 1 << (c - 1)
        basis[b] = x
    keys.reverse()
    nbytes = (ncols + 7) // 8
    out = np.zeros((nrows, ncols), dtype=r.dtype)
    if keys:
        buf = b"".join(basis[b].to_bytes(nbytes, "big") for b in keys)
        packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(keys), nbytes)
        out[: len(keys)] = np.unpackbits(packed, axis=1, count=ncols)
    return out, [8 * nbytes - b for b in keys]


RANK_BLOCK = 64  # rows reduced against the echelon basis per product


def _fmod(x, p: int) -> np.ndarray:
    """x mod p for float64 integers with |x| <= 2^53 - p, as
    x - p floor(x / p), exactly: the rounded quotient errs by at most
    |x / p| 2^-53 < 1/p, and x / p is an integer or at least 1/p below the
    next one, so its floor is floor(x / p), and the product and difference
    are integers below 2^53."""
    return x - p * np.floor(x / p)


def rank_modp(a, p: int) -> int:
    """Rank of a matrix over F_p, by blocked forward-only elimination.

    Keeps a reduced echelon basis ``E`` of the rows seen so far, with pivot
    columns ``P``.  As ``E[:, P]`` is the identity, only ``F = E[:, free]``
    is stored, and reducing a block ``C`` of rows against ``E`` is one
    product: ``C - C[:, P] @ E`` is zero on ``P`` and ``C[:, free] -
    C[:, P] @ F`` on the free columns, mod p.  Rows that became zero are
    dropped, the rest are put in reduced echelon form with ``rref_modp``,
    and their pivots are cleared from ``F`` with one more product.  Each
    product sums at most cols - 1 terms, so its entries x have |x| <=
    (cols - 1)(p - 1)^2 <= 2^53 - p under the bound, as `_fmod` needs.

    At p = 2 the rows go into an XOR basis (`_xor_insert`) instead, with
    no float64 bound.
    """
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    nrows, ncols = a.shape
    if p == 2:
        span, rank = [0] * (ncols + 8), 0
        for start in range(0, nrows, RANK_BLOCK):
            if rank == ncols:
                break
            rank += _xor_insert(span, a[start : start + RANK_BLOCK] & 1)
        return rank
    if ncols * (p - 1) ** 2 >= 2**53:
        raise ValueError(f"cols * (p-1)^2 = {ncols * (p - 1) ** 2} is not exact in float64")
    free = np.arange(ncols)
    pivots = np.zeros(0, dtype=np.int64)
    basis = np.zeros((0, ncols))  # E[:, free]
    for start in range(0, nrows, RANK_BLOCK):
        if not free.size:
            break
        block = np.mod(a[start : start + RANK_BLOCK], p).astype(np.float64)
        rest = _fmod(block[:, free] - block[:, pivots] @ basis, p)
        rest = rest[rest.any(axis=1)]
        if not len(rest):
            continue
        r, new = rref_modp(rest, p)
        keep = np.ones(free.size, dtype=bool)
        keep[new] = False
        r = r[: len(new), keep].astype(np.float64)
        basis = np.vstack([_fmod(basis[:, keep] - basis[:, new] @ r, p), r])
        pivots = np.concatenate([pivots, free[new]])
        free = free[keep]
    return int(pivots.size)


def table_matmul(a, b, add, mul):
    """Batched matrix product over a finite ring given by op tables.

    ``a`` has shape (n, d, k) and ``b`` (n, k, m); entries are element codes
    indexing the ``add``/``mul`` tables.  Returns the (n, d, m) products.

    The tables are read flat, code x * |A| + y for the pair (x, y), and the
    sum runs one inner index i at a time: acc <- add[acc, a[..., i] b[i, ...]]
    is two `take` gathers on (n, d, m) index arrays.  So each step holds
    three (n, d, m) arrays, the accumulator, the flat index and the gathered
    products, and the (n, d, m, k) tensor of all products is never formed.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    size = add.shape[1]
    add, mul = add.reshape(-1), mul.reshape(-1)
    acc = mul.take(a[:, :, 0, None] * size + b[:, None, 0])
    for i in range(1, a.shape[2]):
        acc *= size
        acc += mul.take(a[:, :, i, None] * size + b[:, None, i])
        acc = add.take(acc)
    return acc

