"""Group cohomology in low degrees: H^1 from a presentation, H^2 from
2-cocycles on generators.

H^1 is computed from the group's presentation (`FiniteGroup.relators`) by
Fox calculus: a crossed homomorphism is free on the generators of the free
group and descends to the group exactly when it vanishes on the relators, so
Z^1 is the kernel of one block row per relator, not of a system over every
element.  On K x| G with G from a family (S_m, PGL_2(q), TF_p), G's part of
the presentation is its few proved relators, not its |G| (#gens - 1) + 1
Schreier relators: standard-d4p2's Gamma has 29 relators instead of 143.
H^2 follows the same idea one degree up (Holt, Eick and O'Brien, Handbook
of Computational Group Theory, 2005, ch. 7): a normalized 2-cochain is a
cocycle once d2 f vanishes on the triples (g, h, s) with s a generator, and
those conditions carry f down the spanning tree from its values f(g, s), so
Z^2 is the kernel of one block row per generator s and edge off the tree,
read off the tree's fundamental cycles (`BarComplex.d2_matrix`): at most
#gens (|G| (#gens - 1) + 1) dim M rows in (|G| - 1) #gens dim M unknowns,
instead of dim C^2 = (|G| - 1)^2 dim M.  `h2_dim` answers 0 without
assembling anything when p does not divide |G|: |G| kills H^2(G, M) and is
a unit on the F_p-module M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .exactalg import solve_module
from .groups import FiniteGroup
from .modrep import Representation, galois_module_rep, twisted_kernel_module

DENSE_ENTRY_LIMIT = 25_000_000  # entries of E, the Z^2 system of direct H^2


class CohomologyError(ValueError):
    pass


def trivial_module(group, p: int) -> Representation:
    """F_p with trivial action."""
    return Representation._homomorphism(group, np.ones((len(group.generators), 1, 1)), p, 1)


def h1_dim(M: Representation) -> int:
    """dim_k Z^1 - dim_k B^1 for crossed homs f(gh) = f(g) + g.f(h).

    Z^1 is the kernel of the Fox-derivative system of the presentation
    `M.group.relators()`.  The unknowns are the values f(t) on the
    distinguished generators t: a crossed hom on the free group on the t's
    is any choice of them, and it descends to the group exactly when it
    vanishes on the relators, as f(w r w^-1) = w.f(r) when r acts trivially
    and so it then vanishes on their normal closure.  A word w has the
    value [M(w) | C], C the block with f(w) = C (f(t))_t, and as
    f(uv) = f(u) + u.f(v), [M(u) | C(u)] [M(v) | C(v)] = [M(u) M(v) | C(u) +
    M(u) C(v)]; generator t has C = I in column block t.  A relator u = v
    (M(u) = M(v), checked) gives the rows C(u) - C(v) = f(u v^-1).  B^1 is
    the image of m -> (t -> t.m - m), of rank rank [M(t) - I]_t.
    """
    if M.N != 1:
        raise CohomologyError("coefficients must be mod p")
    G, p, dm = M.group, M.p, M.degree
    gens = G.generators
    n_unk = len(gens) * dm
    if n_unk == 0:
        return 0

    def mul(a, b):  # in float64 (BLAS), exact: M(u) is reduced and C(u) < p len(u)
        out = a[..., :dm] @ b
        out[..., dm:] += a[..., dm:]
        np.fmod(out[..., :dm], p, out=out[..., :dm])
        return out

    unknowns = np.eye(n_unk).reshape(len(gens), dm, n_unk)
    gen_values = np.concatenate([M.gen_mats, unknowns], axis=2)
    diff = G.relator_values(gen_values, mul, np.eye(dm, dm + n_unk))
    if np.fmod(diff[..., :dm], p, out=diff[..., :dm]).any():
        raise CohomologyError("a relator does not hold in the module")
    system = diff[..., dm:].astype(np.int64).reshape(-1, n_unk)
    z1 = n_unk - kernels.rank_modp(system, p)
    fixed = ((M.gen_mats - np.eye(dm, dtype=np.int64)) % p).reshape(-1, dm)
    b1 = kernels.rank_modp(fixed, p)
    return z1 - b1


@dataclass
class BarComplex:
    """The normalized bar cochain complex of a group in degrees 1 and 2.

    Z^2 is solved for on the values of a 2-cochain at the distinguished
    generators: the unknowns are u(x, t) = f(x, s_t) for x != 1 and s_t the
    t-th generator, unknown (x, t, c) in column ((x - 1) #gens + t) dim M + c.
    """

    M: Representation

    def __post_init__(self):
        G = self.M.group
        self.n = G.order
        self.dm = self.M.degree
        self.p = self.M.p
        self.nontriv = self.n - 1  # elements 1..n-1
        self.gens = np.array(G.generators, dtype=np.int64)
        self.n_unknowns = self.nontriv * len(self.gens) * self.dm
        self.row_gens = sorted(set(G.generators) - {0})  # E's rows are at these
        self.row_mats = self.M.gen_mats[[G.generators.index(s) for s in self.row_gens]]

    @property
    def dim_c1(self) -> int:
        return self.nontriv * self.dm

    def d1_matrix(self, hs) -> np.ndarray:
        """(d1 f)(g, h) = g.f(h) - f(gh) + f(g) on normalized cochains, with
        rows (g, h, c) for g != 1 and h in `hs` and columns (x, c'), in
        lexicographic order.  Terms at the identity vanish, so a row with
        h = 1 is zero.  Within one term every (row, column) block is hit at
        most once, so fancy-index ``+=`` accumulates exactly."""
        dm = self.dm
        hs = np.asarray(hs, dtype=np.int64)
        g, h = (a.ravel() for a in np.meshgrid(np.arange(1, self.n), hs, indexing="ij"))
        row, diag = np.arange(g.size), np.arange(dm)
        mat = np.zeros((g.size, dm, self.nontriv, dm), dtype=np.int64)
        live = h != 0
        mat[row[live], :, h[live] - 1, :] += self.M.mats[g[live]]
        gh = self.M.group.table[g, h]
        live = gh != 0
        mat[row[live, None], diag, gh[live, None] - 1, diag] -= 1
        mat[row[:, None], diag, g[:, None] - 1, diag] += 1
        return mat.reshape(g.size * dm, self.dim_c1) % self.p

    def oversize(self) -> str | None:
        """Why `d2_matrix` would exceed the dense limit, with E's size; None
        if it fits.  The spanning tree has |G| - 1 of the |G| #gens edges."""
        rows = len(self.row_gens) * (self.n * len(self.gens) - self.nontriv) * self.dm
        if rows * self.n_unknowns > DENSE_ENTRY_LIMIT:
            return (
                f"the Z^2 system of direct H^2 has {rows} x {self.n_unknowns} entries, "
                f"past the dense limit {DENSE_ENTRY_LIMIT}"
            )
        return None

    def d2_matrix(self) -> np.ndarray:
        """E, the cocycle condition d2 f = 0 in the unknowns u(x, t) = f(x, s_t).

        1. Generators suffice.  For a normalized 2-cochain f, F = d2 f is a
           normalized 3-cocycle, and (d3 F)(g, h, k, s) = 0 reads
           g.F(h, k, s) - F(gh, k, s) + F(g, hk, s) - F(g, h, ks) + F(g, h, k) = 0.
           If every F(., ., s) vanishes, F(g, h, ks) = F(g, h, k); every k is
           a word in the generators and F(g, h, 1) = 0, so F = 0.  Hence f is
           a cocycle iff F(g, h, s) = 0 for all g, h and every generator s.
        2. Solve on the spanning tree.  F(g, h, s_t) = 0 reads
           f(g, h s_t) = f(g, h) + S(g, h, t), S(g, h, t) = u(gh, t) - g.u(h, t).
           On the tree edges this makes f(g, y) the sum of S(g, .) over P(y),
           the tree edges on the path from 1 to y.  Every other edge
           j = (h, t), (1, t) included when s_t's tree edge is not (1, t), and
           g != 1 give a condition on u through the fundamental cycle
           Z_j = e_j + P(h) - P(h s_t): sum Z_j(x, t') (g.u(x, t') - u(gx, t')) = 0.
           A cocycle f gives u = (f(x, s_t)) meeting every condition, and f is
           the tree recursion from it, so f -> u is injective.  For u meeting
           them the recursion gives a normalized f with f(x, s_t) = u(x, t)
           (by the edge (1, t): a tree edge gives it, a non-tree one is its
           condition), so F(g, h, s) = 0 at every edge for g != 1, and for
           g = 1 as f(1, .) = 0; f is a cocycle by step 1.
        3. Generators suffice for the conditions too.  G acts on the Cayley
           graph's cycle space C by g.(x, t) = (gx, t) and on M* by the
           contragredient action; the conditions at (g, j) are the v - g.v
           for v in Z_j (x) M*, so all of them span I_G(C (x) M*).  As
           v - s g'.v = (v - s.v) + s.(v - g'.v) and s.w = w - (w - s.w), the
           v - s.v for the generators s span it (induction on word length).
           So Z^2 = ker E, E the rows (s, j, c): s the distinct non-identity
           generators, increasing, j the non-tree edges, lexicographically,
           and c < dim M.  Row (s, j) has Z_j(x, t) M(s) at (x, t) and
           -Z_j(x, t) I at (s x, t), none at x = 1 or s x = 1 as u(1, t) = 0;
           each term hits an entry once at most, so ``+=`` adds exactly.
        """
        reason = self.oversize()
        if reason is not None:
            raise CohomologyError(reason)
        G, dm = self.M.group, self.dm
        _, parent, genidx = map(np.asarray, G.spanning_tree())
        path = np.zeros((self.n, self.n), dtype=np.int8)  # path[y, z] = 1: z's tree edge is in P(y)
        for level in G.tree_levels()[1:]:
            path[level] = path[parent[level]]
            path[level, level] = 1
        h, t = np.nonzero(G.off_tree_edges())
        cycles = path[h] - path[G.table[h, self.gens[t]]]  # Z_j on the tree edges
        j, z = np.nonzero(cycles)
        sign = np.append(cycles[j, z], np.ones(len(h), dtype=np.int8)).astype(np.int64)
        j = np.append(j, np.arange(len(h)))  # and e_j, the edge off the tree
        x, t = np.append(parent[z], h), np.append(genidx[z], t)
        E = np.zeros((len(self.row_gens), len(h), dm, self.nontriv, len(self.gens), dm), dtype=np.int64)
        diag, on = np.arange(dm), x != 0
        for Es, s, mat in zip(E, self.row_gens, self.row_mats):
            Es[j[on], :, x[on] - 1, t[on], :] += sign[on, None, None] * mat
            sx = G.table[s, x]
            live = sx != 0
            Es[j[live, None], diag, sx[live, None] - 1, t[live, None], diag] -= sign[live, None]
        np.remainder(E, self.p, out=E)
        return E.reshape(len(self.row_gens) * len(h) * dm, self.n_unknowns)

    def h2_dim_direct(self) -> int:
        """dim Z^2 - dim B^2 with Z^2 = ker E (`d2_matrix`) and B^2 the image
        of d1, of rank that of d1's rows (g, s) for the generators s: their
        kernel is Z^1 too, as f(gs) = g.f(s) + f(g) at every generator s makes
        f a crossed hom (the induction of `FiniteGroup.extend`)."""
        z2 = self.n_unknowns - kernels.rank_modp(self.d2_matrix(), self.p)
        return z2 - kernels.rank_modp(self.d1_matrix(self.gens), self.p)

    # -- explicit 2-cochains --------------------------------------------------

    def _values(self, c) -> np.ndarray:
        """The values c(g, h) mod p of a callable c(g, h) -> length-dm vector,
        stacked at [g, h], with zeros where an argument is the identity, as
        normalized cochains are."""
        C = np.zeros((self.n, self.n, self.dm), dtype=np.int64)
        for g in range(1, self.n):
            for h in range(1, self.n):
                C[g, h] = np.asarray(c(g, h), dtype=np.int64) % self.p
        return C

    def is_cocycle(self, c) -> bool:
        """Whether (d2 c)(g, h, s) = g.c(h, s) - c(gh, s) + c(g, hs) - c(g, h)
        vanishes for all g, h and every generator s, which makes c a cocycle
        (step 1 of `d2_matrix`): |G|^2 #gens triples at once, indexed through
        the group table."""
        n, t, C = self.n, self.M.group.table, self._values(c)
        g, h, s = np.ix_(np.arange(1, n), np.arange(1, n), self.gens)
        act = (self.M.mats[g] @ C[h, s][..., None])[..., 0]
        total = act - C[t[g, h], s] + C[g, t[h, s]] - C[g, h]
        return not (total % self.p).any()

    def is_coboundary(self, c) -> bool:
        """c is a coboundary iff it is a cocycle whose values c(x, s) at the
        generators are those of some d1 f, the rows (g, s) of d1 coming in
        the order of the unknowns u(x, t): then c - d1 f is a cocycle with
        u = 0, and u is injective on Z^2 (`d2_matrix`)."""
        if not self.is_cocycle(c):
            return False
        u = self._values(c)[1:, self.gens].reshape(-1)
        return solve_module(self.d1_matrix(self.gens), u, self.p, 1).particular is not None


def h2_dim(M: Representation, method: str = "auto") -> int:
    """dim_k H^2(G, M) for an F_p module M.

    method="direct" solves for Z^2 on the values of 2-cochains at the
    generators (`BarComplex.d2_matrix`) and raises past the dense limit,
    with the size of E it computed.  "auto" returns 0 when p does not divide
    |G|, as |G| kills H^2(G, M) and is a unit on M, and otherwise goes
    direct.
    """
    if M.N != 1:
        raise CohomologyError("coefficients must be mod p")
    if method == "auto" and M.group.order % M.p:
        return 0
    return BarComplex(M).h2_dim_direct()


@dataclass
class WedgeReport:
    p: int
    is_cocycle: bool
    is_coboundary: bool | None  # None: inconclusive (p = 2, symmetric form)
    invariant: bool


def wedge_cocycle(p: int) -> WedgeReport:
    """The alternating form c(u, v) = u0*v1 - u1*v0 on K = (Z/p)^2.

    K is built as a group on the elements u0 + p*u1, and the cocycle and
    coboundary questions are decided on its bar complex with trivial
    coefficients F_p.  The form is a 2-cocycle by bilinearity; for p >= 3
    antisymmetry forces it off the coboundaries, which the bar complex
    confirms; for p = 2 the form is symmetric and the coboundary question is
    reported as inconclusive.  Invariance is under the action A of the
    multiplicative generator on the twisted kernel module mod p.  For 2 x 2
    A, c(Au, Av) = det(A) c(u, v), and c(e_0, e_1) = 1, so c is invariant
    exactly when det(A) = 1 mod p.
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
    A = twisted_kernel_module(galois_module_rep(p, 1), 1).gen_mats[0]
    invariant = bool((A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) % p == 1)
    return WedgeReport(p, cocycle, coboundary, invariant)
