"""Finite Artinian local commutative algebras with residue field F_p.

An algebra is presented by a monomial basis e_0 = 1, e_1, ..., e_r, a
canonical coordinate range p^{N_i} per basis element, a structure tensor S
with e_i e_j = sum_l S[i, j, l] e_l, and (optionally) additive carry rules:
p^{N_i} * e_i may rewrite into a combination of later basis elements instead
of vanishing.  The carry rules are what allow small extensions like
W[[t]]/(2t^2, t^3, 2t + a*t^2), where 2t = -a*t^2 mixes additive torsion
into a higher basis element.

Elements are integer arrays with the coordinates on the last axis, and a
matrix over A is an array (..., d, m, r + 1).  Two routines do all the
arithmetic: `reduce` brings integer coordinates to canonical ones,
propagating the carries, over any leading axes, and `matmul` multiplies
stacked matrices over A with one integer matmul against the structure
constants; an element is the 1 x 1 case (`mul`).  Both are
exact: they compute in int64 while every raw coordinate of a product fits,
and on Python ints past that, as `kernels.residues` does.

Everything is validated at construction, as identities of arrays built from
S: identity, commutativity and associativity, compatibility of S with the
additive presentation, m = (p, e_1, ..., e_r) being an ideal, and m being
nilpotent, which makes the algebra local with residue field F_p.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

TABLE_LIMIT = 20_000_000  # entries in a cached |A| x |A| op table
TABLE_BLOCK = 1 << 18  # pairs of elements per product while filling the tables


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
        self.nbasis = nb = len(self.labels)
        if carries is None:
            carries = [tuple([0] * nb) for _ in range(nb)]
        self.carries = tuple(tuple(int(c) for c in cv) for cv in carries)
        self.name = name or "A"
        self.size, self.length = 1, 0  # |A| = p^length
        for o in self.orders:
            self.size *= o
            n = o
            while n % p == 0:
                n //= p
                self.length += 1
            if n != 1:
                raise AlgebraError(f"coordinate range {o} is not a power of {p}")
        for i, cv in enumerate(self.carries):
            if any(cv[j] and j <= i for j in range(nb)):
                raise AlgebraError("carry rules must rewrite into later basis elements")
        self._carry_rules = [
            (i, [(j, c) for j, c in enumerate(cv) if c]) for i, cv in enumerate(self.carries) if any(cv)
        ]
        S = self._carry(np.array(mul_basis, dtype=object).reshape(nb, nb, nb))
        self.mul_basis = tuple(tuple(map(tuple, row)) for row in S.tolist())
        # A raw coordinate l of a 1 x 1 product of canonical elements is at
        # most sum_ij S[i, j, l] (o_i - 1)(o_j - 1), k times that for an inner
        # dimension k.  Carrying coordinate i adds at most |x_i| sum_j |c_ij|
        # to the later ones, so the carries multiply the largest magnitude by
        # at most the product of the 1 + sum_j |c_ij|.
        span = np.array([o - 1 for o in self.orders], dtype=object)
        self._bound = max(np.einsum("ijl,i,j->l", S, span, span).tolist())
        for cv in self.carries:
            self._bound *= 1 + sum(map(abs, cv))
        self.dtype = np.int64 if self._bound < 2**63 else object
        # S as rows j and columns (i, l), for `matmul`; in int64 when the bound
        # is, as S[i, j, l] < o_l and e_0 e_l = e_l puts o_l - 1 under it
        self._weights = S.transpose(1, 0, 2).reshape(nb, nb * nb).astype(self.dtype)
        self.one = self.reduce(np.eye(nb, dtype=np.int64)[0])
        self._tables = None
        self._validate(S)

    # -- arithmetic on coordinate arrays ---------------------------------------

    def _carry(self, a: np.ndarray) -> np.ndarray:
        """Reduce `a` in place: each coordinate i with a carry rule, in order,
        adds its quotient by p^{N_i} times the rule to the later coordinates,
        and then every coordinate i is taken mod p^{N_i}."""
        for i, rules in self._carry_rules:
            q = a[..., i] // self.orders[i]
            for j, c in rules:
                a[..., j] += c * q
        a %= np.array(self.orders, dtype=a.dtype)
        return a

    def reduce(self, raw) -> np.ndarray:
        """Canonical coordinates of integer coordinates on the last axis, with
        the carries propagated, over any leading axes; carried on Python ints,
        so any input is exact."""
        return self._carry(np.array(raw, dtype=object)).astype(self.dtype)

    def matmul(self, X, Y) -> np.ndarray:
        """Product of stacked matrices over A: canonical X (..., d, k, r + 1)
        and Y (..., k, m, r + 1), leading axes broadcast, give (..., d, m, r + 1).

        Y's coordinate blocks weighted by the structure constants, W[(k, i),
        (m, l)] = sum_j Y_j[k, m] S[i, j, l], make one integer matrix, and
        the product is X as a (d, k (r + 1)) matrix times W, reduced once.
        Each raw coordinate is then below k times the bound of a 1 x 1
        product with the carries (`__init__`); the products run in int64
        while that is below 2^63, and on Python ints otherwise."""
        X, Y = np.asarray(X), np.asarray(Y)
        dtype = np.int64 if X.shape[-2] * self._bound < 2**63 else object
        *_, k, m, nb = Y.shape
        W = Y.astype(dtype, copy=False) @ self._weights.astype(dtype, copy=False)
        W = W.reshape(*Y.shape[:-1], nb, nb).swapaxes(-3, -2).reshape(*Y.shape[:-3], k * nb, m * nb)
        out = X.astype(dtype, copy=False).reshape(*X.shape[:-2], k * nb) @ W
        return self._carry(out.reshape(*out.shape[:-1], m, nb)).astype(self.dtype, copy=False)

    def mul(self, x, y) -> np.ndarray:
        """Product of stacked elements: `matmul` on 1 x 1 matrices."""
        x, y = np.asarray(x), np.asarray(y)
        return self.matmul(x[..., None, None, :], y[..., None, None, :])[..., 0, 0, :]

    def identity(self, d: int) -> np.ndarray:
        """The d x d identity matrix over A."""
        return np.eye(d, dtype=self.dtype)[..., None] * self.one

    def elements(self) -> np.ndarray:
        """All elements, lexicographic in basis coordinates (first slowest):
        row c is the element with code c."""
        return np.indices(self.orders).reshape(self.nbasis, -1).T.astype(self.dtype)

    def encode(self, x) -> np.ndarray:
        """Codes of stacked elements, mixed radix in the coordinates (first
        slowest), as `elements()` lists them."""
        return np.ravel_multi_index(np.moveaxis(np.asarray(x), -1, 0), self.orders)

    def tables(self):
        """(add, mul, neg) op tables on element codes, for the batched
        kernels: sums and products of all pairs of `elements()`, the rows in
        blocks of TABLE_BLOCK pairs."""
        if self._tables is None:
            if self.size * self.size > TABLE_LIMIT:
                raise AlgebraError(f"op tables for |A| = {self.size} exceed limit")
            x = self.elements()
            rows = max(1, TABLE_BLOCK // self.size)
            blocks = [x[start : start + rows, None] for start in range(0, self.size, rows)]
            add = np.concatenate([self.encode(self.reduce(b + x)) for b in blocks])
            mul = np.concatenate([self.encode(self.mul(b, x)) for b in blocks])
            self._tables = (add, mul, self.encode(self.reduce(-x)))
        return self._tables

    # -- validation ----------------------------------------------------------

    def _validate(self, S: np.ndarray):
        """The axioms on the basis, each one array identity on S (Python
        ints), and then locality.

        m is nilpotent exactly when each generator e_1..e_r of it is:
        p^M = |A| (M = `length`) kills A, so p is nilpotent, and in a
        commutative ring an ideal generated by nilpotents is nilpotent.  A
        nilpotent e has e^M = 0, as the ideals (e^k) decrease strictly until
        they vanish, each step by a factor of at least p, and (e) != A.  So
        all e_i are squared at once, j times with 2^j >= M, and must
        vanish."""
        eye = np.eye(self.nbasis, dtype=object)
        if (self.one != eye[0]).any():
            raise AlgebraError("e_0 must be the identity in canonical coordinates")
        if (S[0] != eye).any() or (S[:, 0] != eye).any():
            raise AlgebraError("e_0 is not a two-sided identity")
        if (S != S.transpose(1, 0, 2)).any():
            raise AlgebraError("multiplication table is not commutative")
        # (e_i e_j) e_k and e_i (e_j e_k), at [i, j, k]
        lhs = self._carry(np.tensordot(S, S, axes=(2, 0)))
        rhs = self._carry(np.tensordot(S, S, axes=(1, 2)).transpose(0, 2, 3, 1))
        bad = np.argwhere((lhs != rhs).any(axis=-1))
        if len(bad):
            raise AlgebraError("associativity fails on basis triple {},{},{}".format(*bad[0]))
        # The table must respect the additive presentation: multiplying the
        # relation p^{N_i} e_i = carry_i by e_j must be consistent.
        carries = np.array(self.carries, dtype=object)
        orders = np.array(self.orders, dtype=object)
        via_carry = self._carry(np.tensordot(carries, S, axes=(1, 0)))
        via_table = self._carry(orders[:, None, None] * S)
        bad = np.argwhere((via_carry != via_table).any(axis=-1))
        if len(bad):
            raise AlgebraError("orders/carries incompatible with table at {},{}".format(*bad[0]))
        # Products of non-identity basis elements must stay in the maximal
        # ideal, so that A/m = F_p.
        if (S[1:, :, 0] % self.p != 0).any():
            raise AlgebraError("maximal ideal is not an ideal")
        power = eye[1:].astype(self.dtype)
        for _ in range((self.length - 1).bit_length()):
            power = self.mul(power, power)
        if power.any():
            raise AlgebraError("maximal ideal is not nilpotent; algebra is not local")

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

    def __repr__(self):
        return f"ArtinLocalAlgebra({self.name}, p={self.p}, size={self.size})"


# ---------------------------------------------------------------------------
# The coefficient rings of the certification pipeline
# ---------------------------------------------------------------------------


def _monogenic(p, orders, name, label="t", carries=None) -> ArtinLocalAlgebra:
    """The algebra with basis 1, t, ..., t^r (r + 1 = len(orders)) and
    t^i t^j = t^(i + j), zero past t^r, under the additive orders and carries
    given; the basis is labelled 1, t, t2, ..., with `label` for t."""
    m = len(orders)
    powers = np.add.outer(np.arange(m), np.arange(m))
    mul_basis = np.eye(2 * m - 1, m, dtype=np.int64)[powers]  # row i + j is t^(i + j)
    labels = ["1"] + [f"{label}{'' if k == 1 else k}" for k in range(1, m)]
    return ArtinLocalAlgebra(p, labels, orders, mul_basis, carries, name=name)


def make_ring_R(p: int, n: int, N: int) -> ArtinLocalAlgebra:
    """W[[t]]/(p^n t, t^2) truncated at W-precision p^N: basis {1, t}, t^2 = 0."""
    if not 1 <= n < N:
        raise AlgebraError("need 1 <= n < N so the t-line is coarser than the W-part")
    return _monogenic(p, (p**N, p**n), f"R(p={p},n={n},N={N})")


def make_ring_Rprime(p: int, n: int, N: int) -> ArtinLocalAlgebra:
    """W[[t]]/(p^n t, p t^2, t^3): basis {1, t, t^2}, killing t^2 recovers R."""
    if not 1 <= n < N:
        raise AlgebraError("need 1 <= n < N")
    return _monogenic(p, (p**N, p**n, p), f"R'(p={p},n={n},N={N})")


def make_ring_Rprime_2_1(a_hat: int, N: int = 3) -> ArtinLocalAlgebra:
    """W[[t]]/(2t^2, t^3, 2t + a*t^2) for p = 2: the n = 1 small extension.

    Additively 2t rewrites to -a*t^2 (a carry), 2t^2 = 0 and t^3 = 0; the
    ideal spanned by t^2 is killed by (2, t) and the quotient is R(2,1,N).
    """
    a = a_hat % 2  # only the residue matters since 2t^2 = 0
    carries = ((0, 0, 0), (0, 0, (-a) % 2), (0, 0, 0))
    return _monogenic(2, (2**N, 2, 2), f"R'(p=2,n=1,a={a},N={N})", carries=carries)


def dual_numbers(p: int) -> ArtinLocalAlgebra:
    """k[eps] with eps^2 = 0."""
    return _monogenic(p, (p, p), f"F{p}[eps]", "eps")


def truncated_polynomials(p: int, m: int) -> ArtinLocalAlgebra:
    """F_p[t]/(t^m)."""
    return _monogenic(p, (p,) * m, f"F{p}[t]/t^{m}")


def cyclic_ring(p: int, m: int) -> ArtinLocalAlgebra:
    """Z/p^m."""
    return _monogenic(p, (p**m,), f"Z{p**m}")


def nilpotent_socle_ring(p: int) -> ArtinLocalAlgebra:
    """(Z/p^2)[u]/(u^2, p*u)."""
    return _monogenic(p, (p**2, p), f"Z{p**2}[u]", "u")


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


def count_homs_from_R(n: int, alg: ArtinLocalAlgebra) -> np.ndarray:
    """Images of t under local W-algebra maps W[[t]]/(p^n t, t^2) -> A, as
    rows of coordinates in the order of `elements()`.

    A map is determined by x = image of t, and exists precisely when x lies
    in the maximal ideal with x^2 = 0 and p^n x = 0.
    """
    x = alg.elements()
    x = x[x[:, 0] % alg.p == 0]
    square_zero = ~alg.mul(x, x).any(axis=-1)
    killed = ~alg.reduce(x.astype(object) * alg.p**n).any(axis=-1)
    return x[square_zero & killed]
