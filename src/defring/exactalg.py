"""Exact arithmetic over Z/p^N, and the rings (Z/p^N)[x]/(f) as matrices.

Z/p^N is the truncation of the p-adic integers used as coefficient ring
throughout; all arithmetic is done with Python ints, so moduli up to 2**62
are exact.  The canonical-form workhorse is the Howell form: an echelon
basis of a row span over Z/p^N that supports exact membership testing and
exposes the module structure of the span.  Over a chain ring like Z/p^N the
computation reduces to valuation bookkeeping, which keeps this module free
of general gcd machinery.

The rings (Z/p^N)[x]/(f) the instances need, GR(p^N, 2) = W(F_{p^2}) / p^N
and F_q for q <= 9, are handled through the regular matrices of their
elements, polynomials in the companion matrix of f (`companion`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAX_MODULUS = 1 << 62


class PrecisionError(ValueError):
    """A requested precision whose arithmetic would not be exact."""


def pval(x: int, p: int, cap: int) -> int:
    """p-adic valuation of x mod p^cap; returns cap for x == 0."""
    if x % p**cap == 0:
        return cap
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def inv_mod(x: int, m: int) -> int:
    return pow(int(x), -1, m)


class HowellBasis:
    """Canonical Howell basis of a row span over Z/p^N.

    Rows are sorted by pivot column; each pivot entry is the power p^e of
    minimal valuation achievable in its column, entries in other rows at a
    pivot column are reduced mod that pivot, and the span is closed under
    "annihilator shadows" (p^{N-e} times a row re-enters the span).  These
    properties make the basis unique for the span, so equality of spans is
    equality of bases, and reduction against the basis decides membership.
    """

    def __init__(self, p: int, N: int, ncols: int, rows: list[list[int]], pivots: list[tuple[int, int]]):
        self.p = p
        self.N = N
        self.modulus = p**N
        self.ncols = ncols
        self.rows = rows
        self.pivots = pivots  # (column, valuation) per row

    @property
    def generators(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    @property
    def invariant_factors(self) -> list[int]:
        """Additive orders p^(N-e) of the generators (pivot-column order)."""
        return [self.p ** (self.N - e) for _, e in self.pivots]

    def span_size(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def reduce(self, vec: Sequence[int]) -> list[int]:
        """Canonical representative of vec modulo the span."""
        m, p = self.modulus, self.p
        v = [int(x) % m for x in vec]
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        for (col, e), row in zip(self.pivots, self.rows):
            x = v[col]
            if x == 0:
                continue
            if pval(x, p, self.N) >= e:
                q = x // p**e
                for j in range(col, self.ncols):
                    v[j] = (v[j] - q * row[j]) % m
        return v

    def contains(self, vec: Sequence[int]) -> bool:
        return all(x == 0 for x in self.reduce(vec))

    def enumerate_span(self) -> Iterable[tuple[int, ...]]:
        """All span elements (for oracle tests; keep spans small)."""
        m = self.modulus
        out = {tuple([0] * self.ncols)}
        for row, order in zip(self.rows, self.invariant_factors):
            new = set()
            for base in out:
                for c in range(order):
                    new.add(tuple((b + c * r) % m for b, r in zip(base, row)))
            out = new
        return sorted(out)

    def __eq__(self, other):
        return (
            isinstance(other, HowellBasis)
            and (self.p, self.N, self.ncols) == (other.p, other.N, other.ncols)
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"HowellBasis(p={self.p}, N={self.N}, rows={self.rows})"


def _howell_rows(raw_rows: list[list[int]], ncols: int, p: int, N: int):
    """Core Howell computation; returns (rows, pivots) sorted by pivot col."""
    m = p**N
    basis: dict[int, list[int]] = {}
    basis_val: dict[int, int] = {}
    queue = [[int(x) % m for x in r] for r in raw_rows]
    while queue:
        v = queue.pop()
        while True:
            lead = next((j for j in range(ncols) if v[j] != 0), None)
            if lead is None:
                break
            e = pval(v[lead], p, N)
            if lead not in basis:
                u_inv = inv_mod(v[lead] // p**e, m)
                v = [(x * u_inv) % m for x in v]
                basis[lead] = v
                basis_val[lead] = e
                if e > 0:
                    shadow = [(x * p ** (N - e)) % m for x in v]
                    queue.append(shadow)
                break
            eb = basis_val[lead]
            if e >= eb:
                q = v[lead] // p**eb
                b = basis[lead]
                v = [(x - q * y) % m for x, y in zip(v, b)]
            else:
                u_inv = inv_mod(v[lead] // p**e, m)
                v = [(x * u_inv) % m for x in v]
                old = basis[lead]
                basis[lead] = v
                basis_val[lead] = e
                if e > 0:
                    queue.append([(x * p ** (N - e)) % m for x in v])
                queue.append(old)
                break
    cols = sorted(basis)
    # Reduce entries above each pivot to canonical representatives.
    for col in cols:
        e = basis_val[col]
        pe = p**e
        for c2 in cols:
            if c2 == col:
                continue
            row = basis[c2]
            q = row[col] // pe
            if q:
                basis[c2] = [(x - q * y) % m for x, y in zip(row, basis[col])]
    rows = [basis[c] for c in cols]
    pivots = [(c, basis_val[c]) for c in cols]
    return rows, pivots


def howell_form(entries, p: int, N: int) -> HowellBasis:
    """Howell basis of the row span of a matrix over Z/p^N."""
    raw = [list(map(int, r)) for r in entries]
    ncols = len(raw[0]) if raw else 0
    rows, pivots = _howell_rows(raw, ncols, p, N)
    return HowellBasis(p, N, ncols, rows, pivots)


@dataclass
class ModuleSolution:
    """Solution set of a linear system over Z/p^N: particular + kernel."""

    particular: list[int] | None
    kernel: HowellBasis

    @property
    def consistent(self) -> bool:
        return self.particular is not None

    def all_solutions(self) -> list[tuple[int, ...]]:
        if self.particular is None:
            return []
        m = self.kernel.modulus
        return sorted(
            tuple((p0 + k) % m for p0, k in zip(self.particular, kv))
            for kv in self.kernel.enumerate_span()
        )


def solve_module(entries, rhs: Sequence[int], p: int, N: int) -> ModuleSolution:
    """Solve A x = rhs over Z/p^N.

    Works on the augmented rows [A^T | I]: Howell rows with pivot in the
    right block generate the kernel, and reducing (rhs, 0) against the
    left-pivot rows yields a particular solution (or detects inconsistency).
    """
    m = p**N
    a = [list(map(int, r)) for r in entries]
    neq = len(a)
    nvar = len(a[0]) if a else 0
    aug = []
    for j in range(nvar):
        row = [a[i][j] for i in range(neq)] + [0] * nvar
        row[neq + j] = 1
        aug.append(row)
    rows, pivots = _howell_rows(aug, neq + nvar, p, N)

    kern_rows = [r[neq:] for r, (c, _) in zip(rows, pivots) if c >= neq]
    kern_pivots = [(c - neq, e) for (c, e) in pivots if c >= neq]
    kernel = HowellBasis(p, N, nvar, kern_rows, kern_pivots)

    v = [int(x) % m for x in rhs] + [0] * nvar
    for (col, e), row in zip(pivots, rows):
        x = v[col]
        if x and pval(x, p, N) >= e:
            q = x // p**e
            v = [(y - q * z) % m for y, z in zip(v, row)]
    if any(v[:neq]):
        return ModuleSolution(None, kernel)
    particular = [(-x) % m for x in v[neq:]]
    return ModuleSolution(particular, kernel)


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
