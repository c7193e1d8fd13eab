"""Finite Artinian local commutative algebras with residue field F_p.

An algebra is presented by a monomial basis e_0 = 1, e_1, ..., e_r, a
canonical coordinate range p^{N_i} per basis element, a multiplication table,
and (optionally) additive carry rules: p^{N_i} * e_i may rewrite into a
combination of later basis elements instead of vanishing.  The carry rules
are what allow small extensions like W[[t]]/(2t^2, t^3, 2t + a*t^2), where
2t = -a*t^2 mixes additive torsion into a higher basis element.

Everything is validated at construction: identity, commutativity and
associativity on the basis, compatibility of the table with the additive
presentation, and nilpotency of the maximal ideal (which makes the algebra
local with residue field F_p).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .exactalg import howell_form

TABLE_LIMIT = 20_000_000  # entries in a cached |A| x |A| op table


class AlgebraError(ValueError):
    pass


class ArtinLocalAlgebra:
    """A finite local commutative algebra given by basis, orders and table."""

    def __init__(
        self,
        p: int,
        labels: Sequence[str],
        orders: Sequence[int],
        mul_basis,
        carries=None,
        name: str | None = None,
    ):
        self.p = p
        self.labels = tuple(labels)
        self.orders = tuple(int(o) for o in orders)
        self.nbasis = len(self.labels)
        if carries is None:
            carries = [tuple([0] * self.nbasis) for _ in range(self.nbasis)]
        self.carries = tuple(tuple(int(c) for c in cv) for cv in carries)
        self.name = name or "A"
        for o in self.orders:
            n = o
            while n % p == 0:
                n //= p
            if n != 1:
                raise AlgebraError(f"coordinate range {o} is not a power of {p}")
        for i, cv in enumerate(self.carries):
            if any(cv[j] and j <= i for j in range(self.nbasis)):
                raise AlgebraError("carry rules must rewrite into later basis elements")
        self.mul_basis = tuple(
            tuple(self.reduce(mul_basis[i][j]) for j in range(self.nbasis))
            for i in range(self.nbasis)
        )
        self.size = 1
        for o in self.orders:
            self.size *= o
        self.zero = tuple([0] * self.nbasis)
        self.one = self.reduce([1] + [0] * (self.nbasis - 1))
        self._tables = None
        self._validate()

    # -- element arithmetic (elements are canonical coordinate tuples) ------

    def reduce(self, raw) -> tuple[int, ...]:
        """Canonicalize integer coordinates, propagating additive carries."""
        out = list(int(x) for x in raw)
        for i in range(self.nbasis):
            q, r = divmod(out[i], self.orders[i])
            out[i] = r
            if q:
                cv = self.carries[i]
                for j in range(i + 1, self.nbasis):
                    if cv[j]:
                        out[j] += q * cv[j]
        return tuple(out)

    def add(self, x, y) -> tuple[int, ...]:
        return self.reduce([a + b for a, b in zip(x, y)])

    def neg(self, x) -> tuple[int, ...]:
        return self.reduce([-a for a in x])

    def smul(self, c: int, x) -> tuple[int, ...]:
        return self.reduce([c * a for a in x])

    def mul(self, x, y) -> tuple[int, ...]:
        raw = [0] * self.nbasis
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                basis_prod = self.mul_basis[i][j]
                c = xi * yj
                for k in range(self.nbasis):
                    if basis_prod[k]:
                        raw[k] += c * basis_prod[k]
        return self.reduce(raw)

    def from_int(self, c: int) -> tuple[int, ...]:
        return self.smul(c, self.one)

    def residue(self, x) -> int:
        """Image in the residue field F_p (the e_0-coordinate mod p)."""
        return x[0] % self.p

    def in_maximal_ideal(self, x) -> bool:
        return self.residue(x) == 0

    def elements(self) -> Iterable[tuple[int, ...]]:
        """All elements, lexicographic in basis coordinates (first slowest)."""
        def rec(i, prefix):
            if i == self.nbasis:
                yield tuple(prefix)
                return
            for c in range(self.orders[i]):
                yield from rec(i + 1, prefix + [c])

        return rec(0, [])

    def maximal_ideal(self) -> list[tuple[int, ...]]:
        return [x for x in self.elements() if self.in_maximal_ideal(x)]

    def encode(self, x) -> int:
        code = 0
        for c, o in zip(x, self.orders):
            code = code * o + c
        return code

    def decode(self, code: int) -> tuple[int, ...]:
        out = []
        for o in reversed(self.orders):
            code, c = divmod(code, o)
            out.append(c)
        return tuple(reversed(out))

    def tables(self):
        """(add, mul, neg) op tables on element codes, for the batched kernels."""
        if self._tables is None:
            if self.size * self.size > TABLE_LIMIT:
                raise AlgebraError(f"op tables for |A| = {self.size} exceed limit")
            elems = [self.decode(i) for i in range(self.size)]
            add = np.empty((self.size, self.size), dtype=np.int64)
            mul = np.empty((self.size, self.size), dtype=np.int64)
            neg = np.empty(self.size, dtype=np.int64)
            for i, x in enumerate(elems):
                neg[i] = self.encode(self.neg(x))
                for j, y in enumerate(elems):
                    add[i, j] = self.encode(self.add(x, y))
                    mul[i, j] = self.encode(self.mul(x, y))
            self._tables = (add, mul, neg)
        return self._tables

    # -- validation ----------------------------------------------------------

    def _basis_elem(self, i):
        v = [0] * self.nbasis
        v[i] = 1
        return tuple(v)

    def _validate(self):
        basis = [self._basis_elem(i) for i in range(self.nbasis)]
        if self.one != basis[0]:
            raise AlgebraError("e_0 must be the identity in canonical coordinates")
        for j in range(self.nbasis):
            if self.mul_basis[0][j] != basis[j] or self.mul_basis[j][0] != basis[j]:
                raise AlgebraError("e_0 is not a two-sided identity")
        for i in range(self.nbasis):
            for j in range(self.nbasis):
                if self.mul_basis[i][j] != self.mul_basis[j][i]:
                    raise AlgebraError("multiplication table is not commutative")
        for i in range(self.nbasis):
            for j in range(self.nbasis):
                for k in range(self.nbasis):
                    lhs = self.mul(self.mul_basis[i][j], basis[k])
                    rhs = self.mul(basis[i], self.mul_basis[j][k])
                    if lhs != rhs:
                        raise AlgebraError(f"associativity fails on basis triple {i},{j},{k}")
        # The table must respect the additive presentation: multiplying the
        # relation p^{N_i} e_i = carry_i by e_j must be consistent.
        for i in range(self.nbasis):
            for j in range(self.nbasis):
                via_carry = self.mul(self.carries[i], basis[j])
                via_table = self.reduce([self.orders[i] * c for c in self.mul_basis[i][j]])
                if via_carry != via_table:
                    raise AlgebraError(f"orders/carries incompatible with table at {i},{j}")
        # Products of non-identity basis elements must stay in the maximal
        # ideal, so that A/m = F_p.
        for i in range(1, self.nbasis):
            for j in range(self.nbasis):
                if self.mul_basis[i][j][0] % self.p != 0:
                    raise AlgebraError("maximal ideal is not an ideal")
        self.nilpotency_index = self._nilpotency_index()

    def _nilpotency_index(self) -> int:
        """Least k with m^k = 0; raises if m is not nilpotent.

        Each power m^k is an additive span, held as the Howell basis over
        Z/p^M (p^M = |A| kills A) of its coordinate vectors together with the
        relations orders[i]*e_i - carries[i]; equal spans have equal bases, so
        the cost does not depend on |A|.  m is spanned by p*1, e_1, ..., e_r,
        and m^(k+1) by their products with the rows of m^k.
        """
        M = next(j for j in range(self.size.bit_length() + 1) if self.p**j == self.size)
        relations = [
            [self.orders[i] * (i == j) - self.carries[i][j] for j in range(self.nbasis)]
            for i in range(self.nbasis)
        ]

        def span(vecs):
            return howell_form(relations + [list(v) for v in vecs], self.p, M)

        gens = [self.from_int(self.p)] + [self._basis_elem(i) for i in range(1, self.nbasis)]
        zero, power, k = span([]), span(gens), 1
        while power != zero:
            nxt = span(self.mul(g, self.reduce(row)) for g in gens for row in power.rows)
            if nxt == power:
                raise AlgebraError("maximal ideal is not nilpotent; algebra is not local")
            power, k = nxt, k + 1
            if k > 64:
                raise AlgebraError("nilpotency search did not terminate")
        return k

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "name": self.name,
            "basis": list(self.labels),
            "orders": list(self.orders),
            "carries": [list(c) for c in self.carries],
            "multable": [[list(x) for x in row] for row in self.mul_basis],
        }

    def __eq__(self, other):
        return (
            isinstance(other, ArtinLocalAlgebra)
            and self.p == other.p
            and self.orders == other.orders
            and self.carries == other.carries
            and self.mul_basis == other.mul_basis
        )

    def __hash__(self):
        return hash((self.p, self.orders, self.carries, self.mul_basis))

    def __repr__(self):
        return f"ArtinLocalAlgebra({self.name}, p={self.p}, size={self.size})"


# ---------------------------------------------------------------------------
# The coefficient rings of the certification pipeline
# ---------------------------------------------------------------------------


def _basis_products(n, rules):
    """Build an n x n table from a dict {(i, j): coords}; defaults handle e_0."""
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == 0:
                v = [0] * n
                v[j] = 1
            elif j == 0:
                v = [0] * n
                v[i] = 1
            else:
                v = list(rules.get((i, j), rules.get((j, i), [0] * n)))
            row.append(tuple(v))
        table.append(tuple(row))
    return tuple(table)


def make_ring_R(p: int, n: int, N: int) -> ArtinLocalAlgebra:
    """W[[t]]/(p^n t, t^2) truncated at W-precision p^N: basis {1, t}, t^2 = 0."""
    if not 1 <= n < N:
        raise AlgebraError("need 1 <= n < N so the t-line is coarser than the W-part")
    return ArtinLocalAlgebra(
        p,
        ("1", "t"),
        (p**N, p**n),
        _basis_products(2, {(1, 1): (0, 0)}),
        name=f"R(p={p},n={n},N={N})",
    )


def make_ring_Rprime(p: int, n: int, N: int) -> ArtinLocalAlgebra:
    """W[[t]]/(p^n t, p t^2, t^3): basis {1, t, t^2}, killing t^2 recovers R."""
    if not 1 <= n < N:
        raise AlgebraError("need 1 <= n < N")
    return ArtinLocalAlgebra(
        p,
        ("1", "t", "t2"),
        (p**N, p**n, p),
        _basis_products(3, {(1, 1): (0, 0, 1), (1, 2): (0, 0, 0), (2, 2): (0, 0, 0)}),
        name=f"R'(p={p},n={n},N={N})",
    )


def make_ring_Rprime_2_1(a_hat: int, N: int = 3) -> ArtinLocalAlgebra:
    """W[[t]]/(2t^2, t^3, 2t + a*t^2) for p = 2: the n = 1 small extension.

    Additively 2t rewrites to -a*t^2 (a carry), 2t^2 = 0 and t^3 = 0; the
    ideal spanned by t^2 is killed by (2, t) and the quotient is R(2,1,N).
    """
    a = a_hat % 2  # only the residue matters since 2t^2 = 0
    return ArtinLocalAlgebra(
        2,
        ("1", "t", "t2"),
        (2**N, 2, 2),
        _basis_products(3, {(1, 1): (0, 0, 1), (1, 2): (0, 0, 0), (2, 2): (0, 0, 0)}),
        carries=((0, 0, 0), (0, 0, (-a) % 2), (0, 0, 0)),
        name=f"R'(p=2,n=1,a={a},N={N})",
    )


def dual_numbers(p: int) -> ArtinLocalAlgebra:
    """k[eps] with eps^2 = 0."""
    return ArtinLocalAlgebra(
        p, ("1", "eps"), (p, p), _basis_products(2, {(1, 1): (0, 0)}), name=f"F{p}[eps]"
    )


def truncated_polynomials(p: int, m: int) -> ArtinLocalAlgebra:
    """F_p[t]/(t^m)."""
    rules = {}
    for i in range(1, m):
        for j in range(i, m):
            v = [0] * m
            if i + j < m:
                v[i + j] = 1
            rules[(i, j)] = tuple(v)
    labels = ["1"] + [f"t{'' if k == 1 else k}" for k in range(1, m)]
    return ArtinLocalAlgebra(p, labels, (p,) * m, _basis_products(m, rules), name=f"F{p}[t]/t^{m}")


def cyclic_ring(p: int, m: int) -> ArtinLocalAlgebra:
    """Z/p^m."""
    return ArtinLocalAlgebra(p, ("1",), (p**m,), _basis_products(1, {}), name=f"Z{p**m}")


def nilpotent_socle_ring(p: int) -> ArtinLocalAlgebra:
    """(Z/p^2)[u]/(u^2, p*u)."""
    return ArtinLocalAlgebra(
        p,
        ("1", "u"),
        (p**2, p),
        _basis_products(2, {(1, 1): (0, 0)}),
        name=f"Z{p**2}[u]",
    )


def standard_ring_builders(p: int) -> dict[str, Callable[[], ArtinLocalAlgebra]]:
    """The battery of small test rings for the deformation-functor oracle,
    by name, each built (and validated) only when called."""
    return {
        "dual": lambda: dual_numbers(p),
        f"Z{p**2}": lambda: cyclic_ring(p, 2),
        f"F{p}t3": lambda: truncated_polynomials(p, 3),
        f"Z{p**3}": lambda: cyclic_ring(p, 3),
        f"Z{p**2}u": lambda: nilpotent_socle_ring(p),
    }


def standard_rings(p: int) -> dict[str, ArtinLocalAlgebra]:
    """The battery of small test rings for the deformation-functor oracle."""
    return {name: build() for name, build in standard_ring_builders(p).items()}


def count_homs_from_R(n: int, alg: ArtinLocalAlgebra) -> list[tuple[int, ...]]:
    """Images of t under local W-algebra maps W[[t]]/(p^n t, t^2) -> A.

    A map is determined by x = image of t, and exists precisely when x lies
    in the maximal ideal with x^2 = 0 and p^n x = 0.
    """
    p = alg.p
    out = []
    for x in alg.elements():
        if not alg.in_maximal_ideal(x):
            continue
        if alg.mul(x, x) != alg.zero:
            continue
        if alg.smul(p**n, x) != alg.zero:
            continue
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# Matrices over an algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgMatrix:
    """Square matrix over an ArtinLocalAlgebra (entries row-major)."""

    algebra: ArtinLocalAlgebra
    degree: int
    entries: tuple  # of coordinate tuples

    @classmethod
    def from_rows(cls, algebra, rows):
        d = len(rows)
        ents = tuple(algebra.reduce(x) for row in rows for x in row)
        return cls(algebra, d, ents)

    @classmethod
    def identity(cls, algebra, d):
        ents = tuple(
            algebra.one if i == j else algebra.zero for i in range(d) for j in range(d)
        )
        return cls(algebra, d, ents)

    def entry(self, i, j):
        return self.entries[i * self.degree + j]

    def __matmul__(self, other: "AlgMatrix") -> "AlgMatrix":
        A, d = self.algebra, self.degree
        out = []
        for i in range(d):
            for j in range(d):
                acc = A.zero
                for k in range(d):
                    acc = A.add(acc, A.mul(self.entry(i, k), other.entry(k, j)))
                out.append(acc)
        return AlgMatrix(A, d, tuple(out))

    def order(self, cap: int = 100_000) -> int:
        eye = AlgMatrix.identity(self.algebra, self.degree)
        k, acc = 1, self
        while acc != eye:
            acc = acc @ self
            k += 1
            if k > cap:
                raise AlgebraError("matrix order exceeds cap")
        return k
