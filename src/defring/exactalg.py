"""Exact arithmetic over Z/p^N and quadratic Galois rings GR(p^N, 2).

Z/p^N is the truncation of the p-adic integers used as coefficient ring
throughout; all arithmetic is done with Python ints, so moduli up to 2**62
are exact.  The canonical-form workhorse is the Howell form: an echelon
basis of a row span over Z/p^N that supports exact membership testing and
exposes the module structure of the span.  Over a chain ring like Z/p^N the
computation reduces to valuation bookkeeping, which keeps this module free
of general gcd machinery.
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
# Quadratic Galois rings GR(p^N, 2)
# ---------------------------------------------------------------------------


def _quadratic_modulus(p: int) -> tuple[int, int]:
    """Coefficients (c0, c1) of the rewrite x^2 = c1*x + c0.

    The defining polynomial is x^2 + x + 1 for p = 2 and x^2 - c for odd p
    with c the smallest quadratic non-residue; the integer coefficients are
    reused verbatim at every precision, which is a valid Hensel lift because
    the reduction mod p stays separable and irreducible.
    """
    if p == 2:
        return (-1, -1)  # x^2 = -x - 1
    residues = {(x * x) % p for x in range(1, p)}
    c = next(c for c in range(2, p) if c not in residues)
    return (c, 0)  # x^2 = c


@dataclass(frozen=True)
class GaloisRingElem:
    """Element a0 + a1*x of GR(p^N, 2) in the basis {1, x}."""

    ring: "GaloisRing"
    a0: int
    a1: int

    def __post_init__(self):
        m = self.ring.modulus
        object.__setattr__(self, "a0", self.a0 % m)
        object.__setattr__(self, "a1", self.a1 % m)

    @property
    def coeffs(self) -> tuple[int, int]:
        return (self.a0, self.a1)

    def __add__(self, other):
        return GaloisRingElem(self.ring, self.a0 + other.a0, self.a1 + other.a1)

    def __sub__(self, other):
        return GaloisRingElem(self.ring, self.a0 - other.a0, self.a1 - other.a1)

    def __neg__(self):
        return GaloisRingElem(self.ring, -self.a0, -self.a1)

    def __mul__(self, other):
        c0, c1 = self.ring.rewrite
        hi = self.a1 * other.a1
        return GaloisRingElem(
            self.ring,
            self.a0 * other.a0 + hi * c0,
            self.a0 * other.a1 + self.a1 * other.a0 + hi * c1,
        )

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def is_unit(self) -> bool:
        # A unit iff nonzero in the residue field F_{p^2}.
        p = self.ring.p
        return self.a0 % p != 0 or self.a1 % p != 0

    def inverse(self) -> "GaloisRingElem":
        if not self.is_unit():
            raise ZeroDivisionError("not a unit")
        # Newton lift of the residue-field inverse.
        q = self.ring.p**2
        r = self.residue()
        v = r ** (q - 2)
        v = GaloisRingElem(self.ring, v.a0, v.a1)
        for _ in range(self.ring.N.bit_length() + 1):
            v = v * (self.ring.from_int(2) - self * v)
        assert (self * v).coeffs == (1, 0)
        return v

    def residue(self) -> "GaloisRingElem":
        """Image in the residue field GR(p, 2) = F_{p^2}."""
        f = self.ring.residue_ring()
        return GaloisRingElem(f, self.a0, self.a1)

    def reduce_to(self, n: int) -> "GaloisRingElem":
        """Image in GR(p^n, 2) for n <= N."""
        return GaloisRingElem(GaloisRing(self.ring.p, n), self.a0, self.a1)

    def multiplicative_order(self) -> int:
        if not self.is_unit():
            raise ZeroDivisionError("not a unit")
        k, acc = 1, self
        while acc.coeffs != (1, 0):
            acc = acc * self
            k += 1
        return k


class GaloisRing:
    """GR(p^N, 2) = (Z/p^N)[x] / (fixed monic quadratic), residue field F_{p^2}."""

    def __init__(self, p: int, N: int):
        self.p = p
        self.N = N
        self.modulus = p**N
        if self.modulus**2 > MAX_MODULUS:
            raise PrecisionError(
                f"precision too large: GR({p}^{N}, 2) needs (p^N)^2 <= 2^62, "
                f"but p^N = {self.modulus}"
            )
        self.rewrite = tuple(c % self.modulus for c in _quadratic_modulus(p))

    def __eq__(self, other):
        return isinstance(other, GaloisRing) and (self.p, self.N) == (other.p, other.N)

    def __hash__(self):
        return hash(("GR", self.p, self.N))

    def __repr__(self):
        return f"GaloisRing(p={self.p}, N={self.N})"

    def element(self, a0: int, a1: int) -> GaloisRingElem:
        return GaloisRingElem(self, a0, a1)

    def from_int(self, a: int) -> GaloisRingElem:
        return GaloisRingElem(self, a, 0)

    @property
    def zero(self):
        return GaloisRingElem(self, 0, 0)

    @property
    def one(self):
        return GaloisRingElem(self, 1, 0)

    @property
    def x(self):
        return GaloisRingElem(self, 0, 1)

    def residue_ring(self) -> "GaloisRing":
        return GaloisRing(self.p, 1)

    def elements(self) -> Iterable[GaloisRingElem]:
        m = self.modulus
        for a0 in range(m):
            for a1 in range(m):
                yield GaloisRingElem(self, a0, a1)

    def units(self) -> Iterable[GaloisRingElem]:
        return (e for e in self.elements() if e.is_unit())

    @property
    def frobenius_root(self) -> GaloisRingElem:
        """The unique root of the defining polynomial congruent to x^p mod p.

        Computed by Hensel refinement of x^p; substituting it for x defines
        the Frobenius automorphism.
        """
        if not hasattr(self, "_frob_root"):
            c0, c1 = self.rewrite
            r = self.x ** self.p
            for _ in range(self.N.bit_length() + 1):
                val = r * r - self.from_int(c1) * r - self.from_int(c0)
                deriv = self.from_int(2) * r - self.from_int(c1)
                r = r - val * deriv.inverse()
            assert (r * r - self.from_int(c1) * r - self.from_int(c0)).coeffs == (0, 0)
            self._frob_root = r
        return self._frob_root

    def frobenius(self, a: GaloisRingElem) -> GaloisRingElem:
        """The ring automorphism of order 2 fixing Z/p^N, b -> b^p mod p."""
        r = self.frobenius_root
        return self.from_int(a.a0) + self.from_int(a.a1) * r

    def teichmuller(self, u: GaloisRingElem) -> GaloisRingElem:
        """The unique lift of u mod p with multiplicative order dividing p^2 - 1."""
        if not u.is_unit():
            raise ZeroDivisionError("not a unit")
        q = self.p**2
        v = u
        for _ in range(self.N + 2):
            w = v**q
            if w.coeffs == v.coeffs:
                return v
            v = w
        raise AssertionError("Teichmuller iteration failed to stabilize")

    @property
    def unit_generator(self) -> GaloisRingElem:
        """Canonical generator of F_{p^2}^* lifted by Teichmuller.

        The underlying residue generator is the first element in (a0, a1)
        lexicographic order whose multiplicative order is p^2 - 1; fixing it
        makes every downstream construction reproducible.
        """
        if not hasattr(self, "_unit_gen"):
            f = self.residue_ring()
            target = self.p**2 - 1
            for a0 in range(self.p):
                for a1 in range(self.p):
                    cand = f.element(a0, a1)
                    if cand.is_unit() and cand.multiplicative_order() == target:
                        lift = self.element(a0, a1)
                        self._unit_gen = self.teichmuller(lift)
                        return self._unit_gen
            raise AssertionError("no generator found")
        return self._unit_gen

    def regular_matrix(self, a) -> np.ndarray:
        """2x2 int64 matrix over Z/p^N of multiplication by a (or of Frobenius).

        Columns are the coordinates of the images of the basis {1, x}, so the
        assignment is multiplicative and intertwines with the twisted
        commutation rule sigma * b = frobenius(b) * sigma.
        """
        if a == "frobenius":
            img1 = self.one
            imgx = self.frobenius_root
        else:
            img1 = a
            imgx = a * self.x
        return np.array([[img1.a0, imgx.a0], [img1.a1, imgx.a1]], dtype=np.int64)
