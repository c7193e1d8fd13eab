"""Independent references the tests check `defring` against.

Nothing the package runs calls these.  They decide the paper's hypotheses
and the program's answers by other routes: Higman's projectivity criterion,
the orbit counts on triples of points, the non-commuting matrices x_1..x_d
of the standard family, level-by-level lifting through the vanishing of the
obstructions, a backtracking isomorphism search, the Schreier relators of
a spanning tree, brute-force listings of
spans and solution sets over Z/p^N, Howell forms by elimination on lists
of Python ints, the element arithmetic of local algebras on tuples of
Python ints with matrices over them (`ScalarAlgebra`, `AlgMatrix`) and
structure tables written out pair by pair (`basis_products`), Newton
inversion over a local algebra, rho_R by its closed form at each element
of Gamma, the first generating tuple by closing
every candidate tuple in turn, relator values word by word, and the row
reduction that visits every column.  A method of a package class appears
here as a function taking the object as its first argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable

import numpy as np

from defring import kernels
from defring.exactalg import HowellBasis, ModuleSolution, matpow_mod, solve_module
from defring.groups import FiniteGroup, GroupError
from defring.localalg import AlgebraError
from defring.modrep import (
    Representation,
    RepresentationError,
    admissible_degree,
    end_rep,
    galois_module_rep,
    standard_rep,
)

# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------


def word(G: FiniteGroup, e: int) -> tuple[int, ...]:
    """The generator indices multiplying (left to right) to e, read off the
    BFS spanning tree, so of minimal length."""
    _, parent, genidx = G.spanning_tree()
    out = []
    while e != 0:
        out.append(genidx[e])
        e = parent[e]
    return tuple(reversed(out))


def inverses(G: FiniteGroup) -> np.ndarray:
    """inverses[e] = e^-1: each row of the table holds the identity once."""
    return np.nonzero(G.table == 0)[1]


def subgroup(G: FiniteGroup, elements) -> tuple[FiniteGroup, list[int]]:
    """The subgroup on a closed set of elements of G, re-indexed in
    increasing order, on generators added greedily until they span it; also
    the list of its elements in G."""
    elems = sorted(set(elements))
    pos = np.full(G.order, -1)
    pos[elems] = np.arange(len(elems))
    table = pos[G.table[np.ix_(elems, elems)]]
    assert elems[0] == 0 and (table >= 0).all(), "not a closed set of elements"
    gens, span = [], {0}
    for e in elems:
        if e not in span:
            gens.append(e)
            span = set(G.closure(gens))
    return presented(FiniteGroup(table, pos[gens], name=f"{G.name}-sub{len(elems)}")), elems


def schreier_relators(G: FiniteGroup) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The Schreier relators of the spanning tree: word(e) t = word(e t)
    for every edge (e, t) off the tree (`off_tree_edges`; on tree edges
    the words coincide), in BFS order of e, |G| (#gens - 1) + 1 of them.
    Values v(e) of the words satisfying them have v(e) v(t) = v(e t) for
    all e and t, so they are multiplicative by the induction in
    `FiniteGroup.extend`: they present G, as a monoid too."""
    order, parent, genidx = G.spanning_tree()
    words = {0: ()}
    for e in order[1:]:
        words[e] = words[parent[e]] + (genidx[e],)
    rows, off = G.table[:, list(G.generators)].tolist(), G.off_tree_edges().tolist()
    return [(words[e] + (t,), words[h]) for e in order for t, h in enumerate(rows[e]) if off[e][t]]


def presented(G: FiniteGroup) -> FiniteGroup:
    """G's table and generators with its Schreier relators as candidates,
    for a group built without candidates of its own: `relators` proves and
    returns them."""
    return FiniteGroup(G.table, G.generators, name=G.name, action=G.action, candidates=schreier_relators(G))


def decode(K: Representation, code: int) -> tuple[int, ...]:
    """The vector of the module K with code `code`."""
    return tuple((code // K.radix % K.modulus).tolist())


def gamma_decode(gamma, e: int) -> tuple[tuple[int, ...], int]:
    """Element e = k_code |G| + g of K x| G as (k, g)."""
    kcode, g = divmod(e, gamma.gq.order)
    return decode(gamma.kmod, kcode), g


def orbit_count_triples(G: FiniteGroup) -> int:
    """Number of orbits of the diagonal action on ordered triples of points."""
    if G.action is None:
        raise GroupError("group has no permutation action")
    npts = G.action.shape[1]
    gen_perms = [G.action[g] for g in G.generators]
    seen = np.zeros((npts, npts, npts), dtype=bool)
    count = 0
    for a in range(npts):
        for b in range(npts):
            for c in range(npts):
                if seen[a, b, c]:
                    continue
                count += 1
                stack = [(a, b, c)]
                seen[a, b, c] = True
                while stack:
                    x, y, z = stack.pop()
                    for perm in gen_perms:
                        t = (int(perm[x]), int(perm[y]), int(perm[z]))
                        if not seen[t]:
                            seen[t] = True
                            stack.append(t)
    return count


def small_generating_set(G: FiniteGroup) -> tuple[int, ...]:
    """The first tuple of 1, 2 or 3 elements, by size and then in
    `itertools.combinations` order of the indices past the identity, whose
    closure is G; the distinguished generators if none is found (or if
    |G| > 1000), () for the trivial group."""
    if G.order > 1000:
        return G.generators
    if G.order == 1:
        return ()
    for size in (1, 2, 3):
        for c in combinations(range(1, G.order), size):
            if len(G.closure(c)) == G.order:
                return c
    return G.generators


def relator_values(relators, gen_values, mul, one, sub=np.subtract) -> np.ndarray:
    """sub(value(u), value(v)) for each relator (u, v), stacked, each word
    evaluated on its own letter by letter from `one`, with no shared
    prefixes: the reference for `FiniteGroup.relator_values`."""

    def value(word):
        acc = np.asarray(one)
        for t in word:
            acc = mul(acc, gen_values[t])
        return acc

    shape = np.shape(one)
    values = [np.broadcast_to(sub(value(u), value(v)), shape) for u, v in relators]
    return np.array(values).reshape(-1, *shape)


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> np.ndarray | None:
    """Backtracking search for an isomorphism (small orders only), as the
    array of images by element.  A candidate, extended from images of a
    generating set, is a homomorphism when img(e s) = img(e) img(s) for every
    element e and generator s (the induction in `FiniteGroup.extend`)."""
    if G.order != H.order:
        return None
    if G.order > 48:
        raise GroupError("isomorphism search guard: order <= 48")
    gens = G.small_generating_set()
    on_gens = FiniteGroup(G.table, gens)  # G's elements, on the spanning tree of gens
    gen_orders = [G.element_order(g) for g in gens]
    by_order: dict[int, list[int]] = {}
    for h in range(H.order):
        by_order.setdefault(H.element_order(h), []).append(h)
    candidates = [by_order.get(o, []) for o in gen_orders]
    for images in product(*candidates):
        img = on_gens.extend(images, lambda a, b: H.table[a, b], 0)
        if len(set(img.tolist())) != G.order:
            continue
        if all((img[G.table[:, s]] == H.table[img, img[s]]).all() for s in G.generators):
            return img
    return None


def multiplicative_on_all_pairs(group: FiniteGroup, mats: np.ndarray, p: int, m: int) -> bool:
    """Whether a stack of matrices over Z/p^N (m = p^N), one per element, is
    a homomorphism, by brute force: identity at 0, every image invertible,
    and rho(g) rho(h) = rho(gh) for all |G|^2 pairs."""
    d = mats.shape[1]
    if (mats[0] != np.eye(d, dtype=np.int64)).any():
        return False
    for g in range(group.order):
        if kernels.rank_modp(mats[g], p) != d:
            return False
        if ((mats[g] @ mats % m) != mats[group.table[g]]).any():
            return False
    return True


# ---------------------------------------------------------------------------
# Linear algebra over F_p and Z/p^N
# ---------------------------------------------------------------------------


def rref_modp_columnwise(a, p: int, N: int = 1):
    """`kernels.rref_modp` as it stepped through every column one at a
    time, zero columns included: the same Howell pivot choice and shadow
    rows, for checking that passing over zero columns changes nothing."""
    m = p**N
    r = kernels.residues(a, m)
    nrows, ncols = r.shape
    if N > 1:
        r = np.concatenate([r, np.zeros((ncols, ncols), dtype=r.dtype)])
    pivots = []
    row, end = 0, nrows
    for col in range(ncols):
        if row == end:
            break
        val = np.gcd(r[row:end, col], m)
        k = val.argmin()
        pe = int(val[k])
        if pe == m:
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
        row += 1
    return r, pivots


def nullspace_modp(a, p: int) -> np.ndarray:
    """Basis of the right kernel over F_p, one vector per row (canonical)."""
    r, pivots = kernels.rref_modp(a, p)
    ncols = r.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(r[i, fc])) % p
    return basis


def matrix_inv_mod(mat: np.ndarray, p: int, N: int) -> np.ndarray:
    """Exact inverse over Z/p^N by Newton-lifting the residue inverse."""
    m = p**N
    mat = np.asarray(mat, dtype=np.int64) % m
    d = mat.shape[0]
    aug = np.hstack([mat % p, np.eye(d, dtype=np.int64)])
    r, pivots = kernels.rref_modp(aug, p)
    if pivots[:d] != list(range(d)):
        raise RepresentationError("matrix is singular mod p")
    inv = r[:, d:] % m
    eye = np.eye(d, dtype=np.int64)
    for _ in range(N.bit_length() + 2):
        err = (mat @ inv) % m
        if (err == eye).all():
            return inv
        inv = inv @ (2 * eye - err) % m
    raise RepresentationError("inverse iteration failed")


def howell_form(entries, p: int, N: int) -> HowellBasis:
    """Howell basis of the row span of a matrix over Z/p^N."""
    r, pivots = kernels.rref_modp(entries, p, N)
    return HowellBasis(p, N, r[: len(pivots)], pivots)


def enumerate_span(h: HowellBasis) -> list[tuple[int, ...]]:
    """All elements of a Howell basis's span (keep spans small)."""
    m = h.modulus
    out = {tuple([0] * h.rows.shape[1])}
    for row, order in zip(h.rows, h.invariant_factors):
        new = set()
        for base in out:
            for c in range(order):
                new.add(tuple((b + c * r) % m for b, r in zip(base, row)))
        out = new
    return sorted(out)


def all_solutions(sol: ModuleSolution) -> list[tuple[int, ...]]:
    """Every solution: the particular one plus each kernel element."""
    if sol.particular is None:
        return []
    m = sol.kernel.modulus
    return sorted(
        tuple((p0 + k) % m for p0, k in zip(sol.particular, kv))
        for kv in enumerate_span(sol.kernel)
    )


# ---------------------------------------------------------------------------
# Howell forms by list elimination
# ---------------------------------------------------------------------------


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


def howell_reduce(h: HowellBasis, vec) -> list[int]:
    """Canonical representative of vec modulo the span of h: zero exactly
    when vec lies in the span."""
    m, p = h.modulus, h.p
    v = [int(x) % m for x in vec]
    if len(v) != h.rows.shape[1]:
        raise ValueError("length mismatch")
    for col, row in zip(h.pivots, h.rows.tolist()):
        e = pval(row[col], p, h.N)
        x = v[col]
        if x == 0:
            continue
        if pval(x, p, h.N) >= e:
            q = x // p**e
            for j in range(col, h.rows.shape[1]):
                v[j] = (v[j] - q * row[j]) % m
    return v


def solve_rows(entries, rhs, p: int, N: int):
    """(particular or None, kernel rows, kernel pivots) of A x = rhs over
    Z/p^N, read off the list-eliminated Howell rows of [A^T | I]: the rows
    with their pivot in the right block span the kernel, and reducing
    (rhs, 0) against all of them clears the left block exactly when the
    system is consistent, leaving minus a particular solution."""
    m = p**N
    a = [list(map(int, r)) for r in entries]
    neq, nvar = len(a), len(a[0])
    aug = [[a[i][j] for i in range(neq)] + [int(k == j) for k in range(nvar)] for j in range(nvar)]
    rows, pivots = _howell_rows(aug, neq + nvar, p, N)
    kernel = [(r[neq:], c - neq) for r, (c, _) in zip(rows, pivots) if c >= neq]
    basis = HowellBasis(p, N, np.array(rows, dtype=object).reshape(-1, neq + nvar), [c for c, _ in pivots])
    v = howell_reduce(basis, list(map(int, rhs)) + [0] * nvar)
    particular = None if any(v[:neq]) else [(-x) % m for x in v[neq:]]
    return particular, [r for r, _ in kernel], [c for _, c in kernel]


# ---------------------------------------------------------------------------
# Local algebras on tuples of Python ints
# ---------------------------------------------------------------------------


def basis_products(n, rules):
    """An n x n structure table of tuples from a dict {(i, j): coords} of
    the products of e_1, ..., e_{n-1} (either order; absent pairs are 0),
    with e_0 the identity."""
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


class ScalarAlgebra:
    """The element arithmetic `ArtinLocalAlgebra` had on coordinate tuples,
    one element at a time: the scalar reference for its arrays.  It is
    built from a presentation without validating it, so it also runs on
    presentations that `ArtinLocalAlgebra` rejects."""

    def __init__(self, p, orders, mul_basis, carries=None, name="A"):
        self.p = p
        self.orders = tuple(int(o) for o in orders)
        self.nbasis = len(self.orders)
        if carries is None:
            carries = [tuple([0] * self.nbasis) for _ in range(self.nbasis)]
        self.carries = tuple(tuple(int(c) for c in cv) for cv in carries)
        self.name = name
        self.mul_basis = tuple(
            tuple(self.reduce(mul_basis[i][j]) for j in range(self.nbasis))
            for i in range(self.nbasis)
        )
        self.size = 1
        for o in self.orders:
            self.size *= o
        self.zero = tuple([0] * self.nbasis)
        self.one = self.reduce([1] + [0] * (self.nbasis - 1))

    @classmethod
    def of(cls, A):
        """The scalar arithmetic of an `ArtinLocalAlgebra`."""
        return cls(A.p, A.orders, A.mul_basis, A.carries, A.name)

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

    def _basis_elem(self, i):
        v = [0] * self.nbasis
        v[i] = 1
        return tuple(v)


@dataclass(frozen=True)
class AlgMatrix:
    """Square matrix over a ScalarAlgebra (entries row-major)."""

    algebra: ScalarAlgebra
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


# ---------------------------------------------------------------------------
# Matrices over a local algebra
# ---------------------------------------------------------------------------


def matrix_add(X: AlgMatrix, Y: AlgMatrix) -> AlgMatrix:
    A = X.algebra
    return AlgMatrix(A, X.degree, tuple(A.add(a, b) for a, b in zip(X.entries, Y.entries)))


def matrix_sub(X: AlgMatrix, Y: AlgMatrix) -> AlgMatrix:
    A = X.algebra
    return AlgMatrix(
        A, X.degree, tuple(A.add(a, A.neg(b)) for a, b in zip(X.entries, Y.entries))
    )


def residue_matrix(X: AlgMatrix) -> np.ndarray:
    d = X.degree
    return np.array(
        [[X.algebra.residue(X.entry(i, j)) for j in range(d)] for i in range(d)],
        dtype=np.int64,
    )


def inverse(X: AlgMatrix) -> AlgMatrix:
    """Newton lift of the residue inverse through the nilpotent filtration."""
    A, d, p = X.algebra, X.degree, X.algebra.p
    res = residue_matrix(X)
    aug = np.hstack([res, np.eye(d, dtype=np.int64)])
    r, pivots = kernels.rref_modp(aug, p)
    if pivots[:d] != list(range(d)):
        raise AlgebraError("not a unit: residue matrix is singular mod p")
    inv_res = r[:, d:]
    B = AlgMatrix.from_rows(
        A, [[A.from_int(int(inv_res[i, j])) for j in range(d)] for i in range(d)]
    )
    eye = AlgMatrix.identity(A, d)
    two = matrix_add(eye, eye)
    for _ in range(64):
        if X @ B == eye:
            return B
        B = B @ matrix_sub(two, X @ B)
    raise AlgebraError("Newton inversion did not converge")


# ---------------------------------------------------------------------------
# Permutation pieces: natural, trivial, standard
# ---------------------------------------------------------------------------


@dataclass
class PermutationPieces:
    """N = T (+) V for a permutation group on d+1 points, p not dividing d+1."""

    natural: Representation
    trivial: Representation
    standard: Representation
    e_trivial: np.ndarray  # idempotent projecting N onto T
    e_standard: np.ndarray
    basis: np.ndarray  # (d+1) x d; columns are b_j - b_{j+1}
    left_inverse: np.ndarray  # d x (d+1); recovers V-coordinates on the V-span

    def to_standard_coords(self, mat: np.ndarray) -> np.ndarray:
        """Compress an endomorphism of the natural module that preserves the
        V-span to its d x d matrix in the difference basis."""
        p = self.standard.p
        return self.left_inverse @ (np.asarray(mat) % p) @ self.basis % p


def permutation_pieces(G: FiniteGroup, p: int) -> PermutationPieces:
    """Split the natural permutation module over F_p into trivial and
    standard pieces; requires p not to divide the number of points."""
    standard = standard_rep(G, p, 1)
    npts = G.action.shape[1]
    d = npts - 1
    perm_mats = np.zeros((G.order, npts, npts), dtype=np.int64)
    for e in range(G.order):
        for i in range(npts):
            perm_mats[e, G.action[e][i], i] = 1
    gens = list(G.generators)
    natural = Representation(G, perm_mats[gens], p, 1)
    trivial = Representation(G, np.ones((len(gens), 1, 1), dtype=np.int64), p, 1)

    inv_n = pow(npts, -1, p)
    e_t = np.full((npts, npts), inv_n, dtype=np.int64) % p
    e_v = (np.eye(npts, dtype=np.int64) - e_t) % p
    for e in (e_t, e_v):
        assert ((e @ e) % p == e).all()
    for g in range(G.order):
        assert ((perm_mats[g] @ e_t) % p == (e_t @ perm_mats[g]) % p).all()
    assert kernels.rank_modp(e_t, p) == 1 and kernels.rank_modp(e_v, p) == d

    basis = np.zeros((npts, d), dtype=np.int64)
    for j in range(d):
        basis[j, j] = 1
        basis[j + 1, j] = (-1) % p
    gram = basis.T @ basis % p
    left = matrix_inv_mod(gram, p, 1) @ basis.T % p
    return PermutationPieces(natural, trivial, standard, e_t, e_v, basis, left)


# ---------------------------------------------------------------------------
# The rank-2 module F_{p^2}: the pieces of its endomorphism ring
# ---------------------------------------------------------------------------


def twisted_end_decomposition(p: int):
    """Split End(F_{p^2}) = (sigma-part) (+) (multiplication operators).

    The sigma-part is cut out as the kernel of the minimal polynomial of
    zeta^{1-p} evaluated at the conjugation action of zeta; the complement
    is the generalized 1-eigenspace, i.e. the commutant F_{p^2} itself.
    Returns (V, M, sigma_part_basis, mult_part_basis) with basis rows in
    row-major End coordinates.
    """
    V = galois_module_rep(p, 1)
    M = end_rep(V)
    G = V.group
    zeta = G.generators[0]
    C = M.mats[zeta]
    # zeta^{1-p} = w acts by W: trace w + sigma(w), determinant w sigma(w)
    W = matpow_mod(V.mats[zeta], p * p - p, p)
    tr = int(W[0, 0] + W[1, 1]) % p
    nm = int(W[0, 0] * W[1, 1] - W[0, 1] * W[1, 0]) % p
    eye = np.eye(4, dtype=np.int64)
    poly = (C @ C - tr * C + nm * eye) % p
    sigma_part = nullspace_modp(poly, p)
    one_part = nullspace_modp((C - eye) @ (C - eye) % p, p)
    if len(sigma_part) != 2 or len(one_part) != 2:
        raise RepresentationError("eigenspace extraction failed")
    if kernels.rank_modp(np.vstack([sigma_part, one_part]), p) != 4:
        raise RepresentationError("pieces do not span End(V)")
    return V, M, sigma_part, one_part


# ---------------------------------------------------------------------------
# Projectivity and lifting
# ---------------------------------------------------------------------------


def is_projective_higman(V: Representation):
    """Higman's criterion over F_p: V is projective over F_p[G] iff the
    identity is a relative trace sum_g g.f.g^-1; returns (flag, witness)."""
    if V.N != 1:
        raise RepresentationError("projectivity test works mod p")
    p, d = V.p, V.degree
    M = end_rep(V)
    S = M.mats.sum(axis=0) % p
    target = np.eye(d, dtype=np.int64).reshape(-1)
    x = solve_module(S, target, p, 1).particular
    if x is None:
        return False, None
    F = x.reshape(d, d)
    acc = np.zeros((d, d), dtype=np.int64)
    for g, g_inv in enumerate(inverses(V.group)):
        acc += V.mats[g] @ F @ V.mats[g_inv]
    assert (acc % p == np.eye(d, dtype=np.int64)).all()
    return True, F


def hensel_lift_rep(Vbar: Representation, N: int) -> Representation:
    """Lift a representation over F_p to Z/p^N level by level.

    At each level the multiplicativity defect of the entrywise lift is a
    2-cocycle valued in End(V) mod p; a correcting 1-cochain is obtained by
    solving the coboundary system on (element, generator) pairs, which
    suffices by the induction in FiniteGroup.extend.
    Solvability at every level is guaranteed when V is projective over
    F_p[G], and failure raises with a diagnostic.
    """
    if Vbar.N != 1:
        raise RepresentationError("input must be a mod-p representation")
    if N == 1:
        return Vbar
    G, p, d = Vbar.group, Vbar.p, Vbar.degree
    gens = G.generators
    conj = end_rep(Vbar).mats
    inv_bar = Vbar.mats[inverses(G)]
    current = Vbar.mats.copy()
    for level in range(1, N):
        m_next = p ** (level + 1)
        lift = current % m_next
        n_unk = (G.order - 1) * d * d
        rows_list = []
        rhs_list = []
        eye_dd = np.eye(d * d, dtype=np.int64)

        def block_slot(e):
            return (e - 1) * d * d

        for g in range(1, G.order):
            for s in gens:
                gs = G.mul(g, s)
                defect = (lift[g] @ lift[s] - lift[gs]) % m_next
                if (defect % p**level != 0).any():
                    raise RepresentationError("defect is not divisible by p^level")
                # normalize to the 2-cocycle (rho(g)rho(s)rho(gs)^-1 - 1)/p^level
                z = (defect // p**level) @ inv_bar[gs] % p
                row = np.zeros((d * d, n_unk), dtype=np.int64)
                row[:, block_slot(s) : block_slot(s) + d * d] += conj[g]
                if gs != 0:
                    row[:, block_slot(gs) : block_slot(gs) + d * d] -= eye_dd
                row[:, block_slot(g) : block_slot(g) + d * d] += eye_dd
                rows_list.append(row % p)
                rhs_list.append((-z.reshape(-1)) % p)
        system = np.vstack(rows_list)
        rhs = np.concatenate(rhs_list)
        y = solve_module(system, rhs, p, 1).particular
        if y is None:
            raise RepresentationError(
                "coboundary system inconsistent: V is not projective (or a bug)"
            )
        eye = np.eye(d, dtype=np.int64)
        new = np.empty_like(lift)
        new[0] = eye
        for e in range(1, G.order):
            ye = y[block_slot(e) : block_slot(e) + d * d].reshape(d, d)
            new[e] = (eye + p**level * ye) @ lift[e] % m_next
        checked = Representation(G, new[list(gens)], p, level + 1)  # on G's relators
        assert (checked.mats == new).all()
        current = new
    return Representation(G, current[list(gens)], p, N)


def rho_R_closed_form(asm, alpha, e: int) -> np.ndarray:
    """rho_R(e) for e = (k, g) of Gamma, by the closed form
    rho_R(k, g) = (1 + t alpha(k)) rho_W(g) over R = W[[t]]/(p^n t, t^2) at
    W-precision p^N: as t^2 = 0, it is rho_W(g) + t alpha(k) rho_W(g), a
    (d, d, 2) array of each entry's coordinates [w, u] on the basis 1, t,
    w mod p^N and u mod p^n."""
    kvec, g = gamma_decode(asm.gamma, e)
    w = asm.rho_w.mats[g]
    u = alpha.of_vec(kvec) @ w % asm.p**asm.n
    return np.stack([w, u], axis=-1)


def strictly_equivalent(rep1: Representation, rep2: Representation) -> np.ndarray | None:
    """Search the kernel of reduction for a conjugator carrying rep1 to rep2.

    Returns a matrix U = 1 + p*A with U rep1 U^-1 = rep2, or None.  The
    search space is (p^(N-1))^(d^2), so keep N and d small.
    """
    p, N, d = rep1.p, rep1.N, rep1.degree
    m = p**N
    count = (p ** (N - 1)) ** (d * d)
    if count > 500_000:
        raise RepresentationError("kernel of reduction too large to scan")
    gens = rep1.group.generators
    eye = np.eye(d, dtype=np.int64)
    for code in range(count):
        c = code
        entries = []
        for _ in range(d * d):
            c, r = divmod(c, p ** (N - 1))
            entries.append(r)
        U = (eye + p * np.array(entries, dtype=np.int64).reshape(d, d)) % m
        Uinv = matrix_inv_mod(U, p, N)
        if all(
            ((U @ rep1.mats[g] @ Uinv) % m == rep2.mats[g]).all() for g in gens
        ):
            return U
    return None


# ---------------------------------------------------------------------------
# The explicit generators x_1, ..., x_d of the standard piece inside End
# ---------------------------------------------------------------------------


def d_basis(d: int) -> list[list[np.ndarray]]:
    """The (d x d) array of matrices D[i][j] spanning End(V) inside the
    (d+1) x (d+1) matrix ring: D_ij = E_ij - E_i,j+1 - E_i+1,j + E_i+1,j+1."""
    n = d + 1
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            mat = np.zeros((n, n), dtype=np.int64)
            mat[i, j] += 1
            mat[i, j + 1] -= 1
            mat[i + 1, j] -= 1
            mat[i + 1, j + 1] += 1
            row.append(mat)
        out.append(row)
    return out


@dataclass
class StandardGenerators:
    """The matrices x_j = rho^{j-1}.x_1 and their span data."""

    d: int
    p: int
    xs: list[np.ndarray]  # inside Mat_{d+1}(F_p)
    d_combination_checked: bool

    def noncommuting_pair(self):
        p = self.p
        for i in range(len(self.xs)):
            for j in range(i + 1, len(self.xs)):
                a, b = self.xs[i], self.xs[j]
                if ((a @ b) % p != (b @ a) % p).any():
                    return i, j
        return None


def x_matrices(d: int, p: int) -> StandardGenerators:
    """Build x_1 explicitly and the translates x_j by the (d+1)-cycle."""
    if not admissible_degree(d, p):
        raise RepresentationError(f"(d, p) = ({d}, {p}) inadmissible: need d < p-1 or d = p^f")
    n = d + 1
    x1 = np.zeros((n, n), dtype=np.int64)
    x1[0, 0] = d - 1
    x1[1, 1] = -(d - 1)
    if n > 2:
        x1[0, 2:] = -1
        x1[1, 2:] = 1
        x1[2:, 0] = -1
        x1[2:, 1] = 1
    D = d_basis(d)
    combo = (d - 1) * D[0][0]
    for ell in range(2, d + 1):
        combo = combo + (d + 1 - ell) * (D[0][ell - 1] + D[ell - 1][0])
    if ((x1 - combo) % p != 0).any():
        raise RepresentationError("x_1 disagrees with its D-basis expansion")
    cyc = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        cyc[(i + 1) % n, i] = 1
    cyc_inv = cyc.T
    xs = [x1 % p]
    for _ in range(1, d):
        xs.append((cyc @ xs[-1] @ cyc_inv) % p)
    return StandardGenerators(d, p, xs, True)
