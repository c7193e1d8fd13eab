"""Exact arithmetic over Z/p^N, and the rings (Z/p^N)[x]/(f) as matrices.

Z/p^N is the truncation of the p-adic integers used as coefficient ring
throughout.  The canonical-form workhorse is the Howell form: an echelon
basis of a row span over Z/p^N that supports exact membership testing and
exposes the module structure of the span.  It is computed on arrays by
`kernels.rref_modp`, in int64 while products of residues fit and in Python
ints otherwise, so every modulus is exact.  Over a chain ring like Z/p^N
every entry is a unit times a power p^e, so the elimination needs only
valuations and unit inverses.

The rings (Z/p^N)[x]/(f) the instances need, GR(p^N, 2) = W(F_{p^2}) / p^N
and F_q for q <= 9, are handled through the regular matrices of their
elements, polynomials in the companion matrix of f (`companion`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels

MAX_MODULUS = 1 << 62


class PrecisionError(ValueError):
    """A requested precision whose arithmetic would not be exact."""


class HowellBasis:
    """Canonical Howell basis of a row span over Z/p^N (`kernels.rref_modp`).

    Row i is zero before its pivot column pivots[i], where it holds the power
    p^e of minimal valuation achievable in that column; entries in other rows
    at a pivot column are reduced mod that pivot, and the span is closed under
    "annihilator shadows" (p^{N-e} times a row lies in the span of the rows
    after it).  These properties make the basis unique for the span, so
    equality of spans is equality of bases.
    """

    def __init__(self, p: int, N: int, rows: np.ndarray, pivots: list[int]):
        self.p = p
        self.N = N
        self.modulus = p**N
        self.rows = rows  # (len(pivots), ncols)
        self.pivots = pivots

    @property
    def invariant_factors(self) -> list[int]:
        """Additive orders p^(N-e) of the rows (pivot-column order)."""
        return [self.modulus // int(self.rows[i, c]) for i, c in enumerate(self.pivots)]

    def __repr__(self):
        return f"HowellBasis(p={self.p}, N={self.N}, rows={self.rows.tolist()})"


@dataclass
class ModuleSolution:
    """Solution set of a linear system over Z/p^N: particular + kernel."""

    particular: np.ndarray | None  # None: the system is inconsistent
    kernel: HowellBasis


def solve_module(entries, rhs: Sequence[int], p: int, N: int) -> ModuleSolution:
    """Solve A x = rhs over Z/p^N.

    Works on the Howell form of the rows [1 | rhs^T | 0] and [0 | A^T | I].
    The rows after the first are the Howell form of [A^T | I]: those with
    their pivot in the last block generate the kernel.  The first row is
    [1 | rhs^T | 0] reduced by them; it ends in [1 | 0 | -x^T] for a solution
    x exactly when the system is consistent, as the span holds such a row
    exactly then, and the reduced first row is the only span element that
    starts with 1 and is reduced at the later pivots.
    """
    m = p**N
    a = kernels.residues(entries, m)
    neq, nvar = a.shape
    top = np.concatenate([[1], kernels.residues(rhs, m), np.zeros(nvar, dtype=np.int64)])
    bottom = np.hstack([np.zeros((nvar, 1), dtype=np.int64), a.T, np.eye(nvar, dtype=np.int64)])
    r, pivots = kernels.rref_modp(np.vstack([top, bottom]), p, N)
    k = int(np.searchsorted(pivots, 1 + neq))
    kernel = HowellBasis(p, N, r[k : len(pivots), 1 + neq :], [c - 1 - neq for c in pivots[k:]])
    if r[0, 1 : 1 + neq].any():
        return ModuleSolution(None, kernel)
    return ModuleSolution(-r[0, 1 + neq :] % m, kernel)


# ---------------------------------------------------------------------------
# Polynomial quotient rings (Z/m)[x]/(f) as matrices
# ---------------------------------------------------------------------------


def defining_rule(p: int, f: int) -> tuple[int, ...]:
    """(r_0, ..., r_{f-1}) with x^f = sum_i r_i x^i for the fixed monic f of
    degree f: x, x^2 + x + 1 (p = 2), x^3 + x + 1 (F_8), or x^2 - c for odd p,
    c the least quadratic non-residue.  It stays irreducible mod p, so the
    integer coefficients serve at every precision."""
    if f == 1 or p == 2:
        return {1: (0,), 2: (-1, -1), 3: (1, 1, 0)}[f]
    residues = {(x * x) % p for x in range(1, p)}
    return (next(c for c in range(2, p) if c not in residues), 0)


def companion(rule: Sequence[int], m: int) -> np.ndarray:
    """The matrix over Z/m of multiplication by x on (Z/m)[x]/(f), where
    x^f = sum_i rule[i] x^i, on the basis 1, x, ..., x^(f-1): column j holds
    the coordinates of x^(j+1).  The element a = sum_i a_i x^i acts by the
    regular matrix sum_i a_i C^i, whose column 0 holds a's coordinates."""
    C = np.eye(len(rule), k=-1, dtype=np.int64)
    C[:, -1] = np.array(rule, dtype=np.int64) % m
    return C


def matpow_mod(A: np.ndarray, k: int, m: int) -> np.ndarray:
    """A^k mod m by repeated squaring, for a matrix or a stack of matrices
    (exact while (m - 1)^2 times the matrix size stays below 2^63)."""
    out = np.broadcast_to(np.eye(A.shape[-1], dtype=np.int64), A.shape)
    while k:
        if k & 1:
            out = out @ A % m
        A = A @ A % m
        k >>= 1
    return out


def has_order(A: np.ndarray, order: int, m: int) -> np.ndarray:
    """Which matrices of the stack A have multiplicative order exactly
    `order` mod m: A^order = I and A^(order/r) != I for each prime r
    dividing `order`."""
    eye = np.eye(A.shape[-1], dtype=np.int64)
    found = (matpow_mod(A, order, m) == eye).all(axis=(-2, -1))
    rest = order
    for r in range(2, order + 1):  # meets the primes dividing order, in turn
        if rest % r == 0:
            found &= (matpow_mod(A, order // r, m) != eye).any(axis=(-2, -1))
            while rest % r == 0:
                rest //= r
        if rest == 1:
            return found
    return found


def galois_matrices(p: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(U, F): the matrices over Z/p^N, on the basis 1, x of
    GR(p^N, 2) = (Z/p^N)[x]/(f) (f from `defining_rule(p, 2)`), of
    multiplication by the Teichmuller unit generator u and of the Frobenius.

    u lifts the first a0 + a1 x, in lexicographic order, of order q - 1 in
    F_q^* (q = p^2): it is the limit of U <- U^q, reached within N steps as
    each gains a p-adic digit.  The Frobenius sigma has sigma(u) = u^p on
    Teichmuller units, so sigma(x) = (u^p - a0) a1^-1 for u = a0 + a1 x (a1
    is a unit, as u mod p lies outside F_p).  Both searches are bounded; for
    a non-prime p they raise ValueError.
    """
    m = p**N
    if m**2 > MAX_MODULUS:
        raise PrecisionError(
            f"precision too large: GR({p}^{N}, 2) needs (p^N)^2 <= 2^62, but p^N = {m}"
        )
    q = p * p
    C = companion(defining_rule(p, 2), m)
    eye = np.eye(2, dtype=np.int64)
    for start in range(0, q, 4096):  # the residues a0 + a1 x by code a0 p + a1, in stacks
        a0, a1 = np.divmod(np.arange(start, min(start + 4096, q))[:, None, None], p)
        found = np.flatnonzero(has_order((a0 * eye + a1 * C) % p, q - 1, p))
        if len(found):
            a0, a1 = divmod(start + int(found[0]), p)
            break
    else:
        raise ValueError(f"(Z/{p})[x]/(f) has no unit of order {q - 1}: p = {p} is not a prime")
    U = (a0 * eye + a1 * C) % m
    for _ in range(N + 1):
        U, prev = matpow_mod(U, q, m), U
        if (U == prev).all():
            break
    else:
        raise ValueError(f"the Teichmuller iteration mod {p}^{N} does not settle: p = {p} is not a prime")
    a0, a1 = U[:, 0].tolist()
    sigma_x = (matpow_mod(U, p, m)[:, 0] - [a0, 0]) * pow(a1, -1, m) % m
    return U, np.column_stack([[1, 0], sigma_x])
