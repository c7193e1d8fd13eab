"""Group cohomology in low degrees: H^1 from a presentation, H^2 from the
normalized bar resolution.

H^1 is computed from the group's presentation (`FiniteGroup.relators`) by
Fox calculus: a crossed homomorphism is free on the generators of the free
group and descends to the group exactly when it vanishes on the relators, so
Z^1 is the kernel of one block row per relator, not of a system over every
element.  H^2 uses the normalized bar complex directly when it is small, and
otherwise restricts to a Sylow p-subgroup: restriction is injective on
cohomology with F_p-module coefficients, so vanishing upstairs follows
exactly from vanishing on the Sylow subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .groups import FiniteGroup, evaluate_words
from .modrep import Representation, hom_space, twisted_kernel_module

DENSE_ENTRY_LIMIT = 25_000_000
ASSEMBLY_GUARD = 10_000_000  # |G|^3 * dim M


class CohomologyError(ValueError):
    pass


def trivial_module(group, p: int) -> Representation:
    """F_p with trivial action."""
    mats = np.ones((group.order, 1, 1), dtype=np.int64)
    return Representation(group, mats, p, 1, validate=False)


def h1_dim(M: Representation) -> int:
    """dim_k Z^1 - dim_k B^1 for crossed homs f(gh) = f(g) + g.f(h).

    Z^1 is the kernel of the Fox-derivative system of the presentation
    `M.group.relators()`.  The unknowns are the values f(t) on the
    distinguished generators t: a crossed hom on the free group on the t's
    is any choice of them, and it descends to the group exactly when it
    vanishes on the relators, as f(w r w^-1) = w.f(r) when r acts trivially
    and so it then vanishes on their normal closure.  A word's value is its
    element e and the block C with f(word) = C (f(t))_t; the word extended by
    t has element e t and block C + M(e) in column block t.  A relator u = v
    gives the rows C(u) - C(v) = f(u v^-1).  B^1 is the image of
    m -> (t -> t.m - m), of rank rank [M(t) - I]_t.
    """
    if M.N != 1:
        raise CohomologyError("coefficients must be mod p")
    G, p, dm = M.group, M.p, M.degree
    gens = G.generators
    n_unk = len(gens) * dm
    if n_unk == 0:
        return 0

    def extend(value, t):
        # entries stay below p times the word length; reduced once, below
        e, block = value
        block = block.copy()
        block[:, t * dm : (t + 1) * dm] += M.mats[e]
        return G.mul(e, gens[t]), block

    rels = G.relators()
    one = (0, np.zeros((dm, n_unk), dtype=np.int64))
    values = evaluate_words([w for rel in rels for w in rel], range(len(gens)), extend, one)
    lhs, lblocks = zip(*values[0::2])
    rhs, rblocks = zip(*values[1::2])
    if lhs != rhs:
        raise CohomologyError("a relator does not hold in the group table")
    system = (np.array(lblocks) - np.array(rblocks)).reshape(-1, n_unk) % p
    z1 = n_unk - kernels.rank_modp(system, p)
    fixed = np.vstack([(M.mats[s] - np.eye(dm, dtype=np.int64)) % p for s in gens])
    b1 = kernels.rank_modp(fixed, p)
    return z1 - b1


@dataclass
class BarComplex:
    """Normalized bar cochain complex of a group in degrees 1..3."""

    M: Representation

    def __post_init__(self):
        G = self.M.group
        self.n = G.order
        self.dm = self.M.degree
        self.p = self.M.p
        self.nontriv = self.n - 1  # elements 1..n-1

    def _idx2(self, g: int, h: int, c: int) -> int:
        return ((g - 1) * self.nontriv + (h - 1)) * self.dm + c

    @property
    def dim_c1(self) -> int:
        return self.nontriv * self.dm

    @property
    def dim_c2(self) -> int:
        return self.nontriv * self.nontriv * self.dm

    def _coboundary(self, deg: int) -> np.ndarray:
        """Matrix of d: C^deg -> C^(deg+1) on normalized cochains.

        (d f)(g_0..g_deg) = g_0.f(g_1..g_deg)
            + sum_i (-1)^(i+1) f(.., g_i g_(i+1), ..) + (-1)^(deg+1) f(g_0..g_(deg-1)),

        with rows indexed by (g_0..g_deg, c) and columns by (x_1..x_deg, c'),
        nontrivial elements in lexicographic order.  Terms whose argument
        contains the identity vanish.  Within one term every (row, column)
        block is hit at most once, so fancy-index ``+=`` accumulates exactly.
        """
        m, dm = self.nontriv, self.dm
        table = self.M.group.table
        args = [a.ravel() for a in np.meshgrid(*[np.arange(1, self.n)] * (deg + 1), indexing="ij")]
        row = np.arange(m ** (deg + 1))

        def col(xs):
            return np.ravel_multi_index([x - 1 for x in xs], (m,) * deg)

        mat = np.zeros((row.size, dm, m**deg, dm), dtype=np.int64)
        mat[row, :, col(args[1:]), :] += self.M.mats[args[0]]
        diag = np.arange(dm)
        for i in range(deg):
            merged = args[:i] + [table[args[i], args[i + 1]]] + args[i + 2 :]
            live = merged[i] != 0
            cols = col([x[live] for x in merged])
            mat[row[live, None], diag, cols[:, None], diag] += (-1) ** (i + 1)
        mat[row[:, None], diag, col(args[:-1])[:, None], diag] += (-1) ** (deg + 1)
        return mat.reshape(row.size * dm, -1) % self.p

    def d1_matrix(self) -> np.ndarray:
        """(d1 f)(g, h) = g.f(h) - f(gh) + f(g) on normalized cochains."""
        return self._coboundary(1)

    def d2_matrix(self) -> np.ndarray:
        """(d2 f)(g,h,k) = g.f(h,k) - f(gh,k) + f(g,hk) - f(g,h)."""
        rows = self.nontriv**3 * self.dm
        if rows * self.dim_c2 > DENSE_ENTRY_LIMIT:
            raise CohomologyError("d2 too large to materialize densely")
        return self._coboundary(2)

    def h2_dim_direct(self) -> int:
        rank_d1 = kernels.rank_modp(self.d1_matrix(), self.p)
        rank_d2 = kernels.rank_modp(self.d2_matrix(), self.p)
        return (self.dim_c2 - rank_d2) - rank_d1

    # -- explicit 2-cochains --------------------------------------------------

    def cochain_vector(self, c) -> np.ndarray:
        """Flatten a callable c(g, h) -> length-dm vector into C^2 coordinates."""
        vec = np.zeros(self.dim_c2, dtype=np.int64)
        for g in range(1, self.n):
            for h in range(1, self.n):
                val = np.asarray(c(g, h), dtype=np.int64) % self.p
                vec[self._idx2(g, h, 0) : self._idx2(g, h, 0) + self.dm] = val
        return vec

    def is_cocycle(self, c) -> bool:
        """Whether (d2 c)(g, h, k) = g.c(h, k) - c(gh, k) + c(g, hk) - c(g, h)
        vanishes, on all nontrivial triples at once: the values c(g, h) are
        stacked with zeros where an argument is the identity, as normalized
        cochains are, and indexed through the group table."""
        n, t = self.n, self.M.group.table
        C = np.zeros((n, n, self.dm), dtype=np.int64)
        C[1:, 1:] = self.cochain_vector(c).reshape(n - 1, n - 1, self.dm)
        g, h, k = np.ix_(*[np.arange(1, n)] * 3)
        act = (self.M.mats[g] @ C[h, k][..., None])[..., 0]
        total = act - C[t[g, h], k] + C[g, t[h, k]] - C[g, h]
        return not (total % self.p).any()

    def is_coboundary(self, c) -> bool:
        vec = self.cochain_vector(c)
        sol = kernels.solve_modp(self.d1_matrix(), vec, self.p)
        return sol is not None


def h2_dim(M: Representation, method: str = "auto") -> int:
    """dim_k H^2(G, M) for an F_p module M.

    method="direct" forces the bar computation (guarded); "auto" uses the
    direct route when small and otherwise certifies vanishing through a
    Sylow p-subgroup, falling back to direct within the assembly guard.
    """
    if M.N != 1:
        raise CohomologyError("coefficients must be mod p")
    G, p, dm = M.group, M.p, M.degree
    if G.order**3 * dm > ASSEMBLY_GUARD:
        raise CohomologyError(
            f"|G|^3 * dim M = {G.order ** 3 * dm} exceeds guard {ASSEMBLY_GUARD}"
        )
    if G.order == 1:
        return 0
    cx = BarComplex(M)
    direct_cost = (G.order - 1) ** 3 * dm * cx.dim_c2
    if method == "direct":
        return cx.h2_dim_direct()
    # Sylow restriction first: it is exact whenever it vanishes, and the
    # restricted complex is far smaller.
    syl, elems = G.sylow_subgroup(p)
    if syl.order < G.order:
        restricted = M.restrict(syl, elems)
        if h2_dim(restricted, method="auto") == 0:
            return 0  # restriction to a Sylow subgroup is injective
    if direct_cost <= DENSE_ENTRY_LIMIT:
        return cx.h2_dim_direct()
    raise CohomologyError(
        "H^2 does not vanish on the Sylow subgroup and the direct computation "
        "exceeds the dense limit"
    )


def hom_invariants_dim(K: Representation, M: Representation) -> int:
    """dim_k Hom(K, M)^G via the equivariant Hom solver (K reduced mod p)."""
    return hom_space(K.reduce_mod(1), M).dimension


@dataclass
class WedgeReport:
    p: int
    is_cocycle: bool
    is_coboundary: bool | None  # None: inconclusive (p = 2, symmetric form)
    invariant: bool


def wedge_cocycle(p: int, action_mats=None) -> WedgeReport:
    """The alternating form c(u, v) = u0*v1 - u1*v0 on K = (Z/p)^2.

    K is built as a group on the elements u0 + p*u1, and the cocycle and
    coboundary questions are decided on its bar complex with trivial
    coefficients F_p.  The form is a 2-cocycle by bilinearity; for p >= 3
    antisymmetry forces it off the coboundaries, which the bar complex
    confirms; for p = 2 the form is symmetric and the coboundary question is
    reported as inconclusive.  Invariance is checked against the supplied
    determinant-1 action matrices (by default the action of the
    multiplicative group on the twisted kernel module mod p).
    """
    vectors = [(a % p, a // p) for a in range(p * p)]  # element a is u0 + p*u1

    def c(u, v):
        return (u[0] * v[1] - u[1] * v[0]) % p

    table = [[(u[0] + v[0]) % p + p * ((u[1] + v[1]) % p) for v in vectors] for u in vectors]
    K = FiniteGroup(np.array(table), [1, p], name=f"{p}^2")
    cx = BarComplex(trivial_module(K, p))

    def cochain(g, h):
        return [c(vectors[g], vectors[h])]

    cocycle = cx.is_cocycle(cochain)
    coboundary = None if p == 2 else cx.is_coboundary(cochain)

    if action_mats is None:
        Kmod = twisted_kernel_module(p, 1)
        action_mats = [Kmod.mats[Kmod.group.generators[0]]]
    invariant = True
    for A in action_mats:
        det = (A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) % p
        if det != 1:
            raise CohomologyError("invariance check needs a determinant-1 action")
        for u in vectors:
            for v in vectors:
                au = tuple(int(x) for x in (A @ np.array(u)) % p)
                av = tuple(int(x) for x in (A @ np.array(v)) % p)
                if c(au, av) != c(u, v):
                    invariant = False
    return WedgeReport(p, cocycle, coboundary, invariant)
