"""Matrix representations of finite groups over F_p and Z/p^N.

A representation is the images of the group's distinguished generators.  The
constructor checks them on the group's relators (`FiniteGroup.relators`,
`groups.violated_relators`): by von Dyck's theorem they then extend to a
homomorphism, and the matrix of every element (`Representation.mats`) is
computed on first use, along the spanning tree (`FiniteGroup.extend`).
Representations that are homomorphisms by construction (reductions,
inflations to K x| G, End with the conjugation action, the trivial module)
are not checked again.

Covers the modules of the certification pipeline: the standard piece of a
permutation lattice, the rank-2 module F_{p^2} with its multiplicative and
Frobenius action and the kernel module of the twisted family, endomorphism
modules with the conjugation action, and equivariant Hom spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exactalg import galois_matrices, matpow_mod, solve_module
from .groups import FiniteGroup, SemidirectGroup, twisted_frobenius_group, violated_relators


class RepresentationError(ValueError):
    pass


class Representation:
    """A group acting on the free module (Z/p^N)^d, given by one matrix per
    distinguished generator: a representation, or a G-module such as the
    kernel K of K x| G.  Vectors of the module are encoded as integers in
    base p^N, first coordinate lowest (`radix`)."""

    def __init__(self, group: FiniteGroup, gen_mats, p: int, N: int):
        """The representation with these generator images, checked on the
        relators of `group`; the first relator that fails is named."""
        self._set(group, gen_mats, p, N)
        gens = self.gen_mats
        if gens.ndim != 3 or len(gens) != len(group.generators) or gens.shape[1] != gens.shape[2]:
            raise RepresentationError("need one matrix per group generator, all square of one size")
        m, eye = self.modulus, np.eye(self.degree, dtype=np.int64)
        bad = violated_relators(group, gens, lambda a, b: a @ b % m, eye)
        if bad:
            u, v = bad[0]
            raise RepresentationError(f"the generator images fail the relator {u} = {v}")

    @classmethod
    def _homomorphism(cls, group: FiniteGroup, gen_mats, p: int, N: int) -> "Representation":
        """Generator images of a homomorphism by construction, unchecked."""
        rep = cls.__new__(cls)
        rep._set(group, gen_mats, p, N)
        return rep

    def _set(self, group, gen_mats, p, N):
        self.group = group
        self.p = p
        self.N = N
        self.modulus = p**N
        self.gen_mats = np.asarray(gen_mats, dtype=np.int64) % self.modulus
        self.degree = int(self.gen_mats.shape[-1])

    @cached_property
    def mats(self) -> np.ndarray:
        """The matrix of every group element, stacked by element."""
        m = self.modulus
        return self.group.extend(self.gen_mats, lambda a, b: a @ b % m, np.eye(self.degree, dtype=np.int64))

    @property
    def size(self) -> int:
        return self.modulus**self.degree

    @property
    def radix(self) -> np.ndarray:
        """The place values of the coordinates in a vector's code, in int64:
        only a module of fewer than 2^63 vectors has codes."""
        if self.size >= 2**63:
            raise RepresentationError(f"a module of {self.size} vectors has no int64 vector codes")
        return self.modulus ** np.arange(self.degree, dtype=np.int64)

    def act(self, g: int, vec):
        return tuple(int(x) for x in (self.mats[g] @ np.asarray(vec)) % self.modulus)

    def encode(self, vec) -> int:
        return int(np.asarray(vec, dtype=np.int64) % self.modulus @ self.radix)

    def vectors(self) -> np.ndarray:
        """Every vector of the module: row c is the vector of code c."""
        return np.arange(self.size, dtype=np.int64)[:, None] // self.radix % self.modulus

    def basis_vectors(self):
        return [tuple(1 if j == i else 0 for j in range(self.degree)) for i in range(self.degree)]

    def reduce_mod(self, N2: int) -> "Representation":
        if N2 > self.N:
            raise RepresentationError("cannot increase precision by reduction")
        return Representation._homomorphism(self.group, self.gen_mats, self.p, N2)

    def is_faithful(self) -> bool:
        eye = np.eye(self.degree, dtype=np.int64)
        hits = np.nonzero((self.mats == eye).all(axis=(1, 2)))[0]
        return hits.tolist() == [0]

    def inflate(self, gamma: SemidirectGroup) -> "Representation":
        """Pull back along Gamma = K x| G ->> G (this group): the generators
        x_i = (e_i, 1) go to 1 and y_s = (0, s) to rho(s)."""
        if not _same_group(gamma.gq, self.group):
            raise RepresentationError("Gamma is not an extension of this group")
        eye = np.broadcast_to(np.eye(self.degree, dtype=np.int64), (gamma.kmod.degree, self.degree, self.degree))
        return Representation._homomorphism(gamma, np.concatenate([eye, self.gen_mats]), self.p, self.N)


def _same_group(G: FiniteGroup, H: FiniteGroup) -> bool:
    """The same group with the same distinguished generators.  Two K x| G
    are compared by their factors, which determine the table, so neither
    table is built."""
    if G is H:
        return True
    if isinstance(G, SemidirectGroup) and isinstance(H, SemidirectGroup):
        K, L = G.kmod, H.kmod
        return _same_group(G.gq, H.gq) and K.modulus == L.modulus and np.array_equal(K.gen_mats, L.gen_mats)
    return G.generators == H.generators and np.array_equal(G.table, H.table)


def end_rep(V: Representation) -> Representation:
    """End(V) with the conjugation action, in row-major matrix coordinates.

    The matrix of g acting by f -> rho(g) f rho(g)^-1 on vec(f) is
    rho(g) (x) rho(g)^{-T}, given at the generators s.  V is a homomorphism,
    so rho(s)^-1 = rho(s)^(o - 1) for o the order of s.
    """
    d, m = V.degree, V.modulus
    inv = [matpow_mod(a, V.group.element_order(s) - 1, m) for a, s in zip(V.gen_mats, V.group.generators)]
    inv_t = np.array(inv, dtype=np.int64).reshape(-1, d, d).transpose(0, 2, 1)
    mats = np.einsum("gij,gkl->gikjl", V.gen_mats, inv_t).reshape(-1, d * d, d * d)
    return Representation._homomorphism(V.group, mats % m, V.p, V.N)


# ---------------------------------------------------------------------------
# The standard piece of a permutation lattice
# ---------------------------------------------------------------------------


def _is_p_power(d: int, p: int) -> bool:
    while d % p == 0:
        d //= p
    return d == 1


def admissible_degree(d: int, p: int) -> bool:
    return d >= 2 and (d < p - 1 or _is_p_power(d, p))


def standard_rep(G: FiniteGroup, p: int, N: int) -> Representation:
    """The sum-zero part of G's permutation lattice on d+1 points over
    Z/p^N, in the basis v_i = b_i - b_{i+1}.  The generator matrices have
    integer entries, so the reduction mod p^N is a homomorphism for every N,
    and the mod-p^N module lifts the mod-p one.  It is the standard piece of
    the permutation module only when p does not divide d+1, so other p are
    refused."""
    if G.action is None:
        raise RepresentationError("group needs a permutation action")
    npts = G.action.shape[1]
    if npts % p == 0:
        raise RepresentationError(f"p = {p} divides {npts}; no splitting")
    d = npts - 1

    def diff_coords(a: int, b: int) -> np.ndarray:
        """b_a - b_b in the basis v_i."""
        v = np.zeros(d, dtype=np.int64)
        if a < b:
            v[a:b] = 1
        elif a > b:
            v[b:a] = -1
        return v

    gen_mats = [
        np.stack([diff_coords(int(perm[j]), int(perm[j + 1])) for j in range(d)], axis=1)
        for perm in G.action[list(G.generators)]
    ]
    return Representation(G, gen_mats, p, N)


# ---------------------------------------------------------------------------
# The rank-2 module F_{p^2} and the twisted kernel module
# ---------------------------------------------------------------------------


def galois_module_rep(p: int, N: int) -> Representation:
    """Degree-2 representation of the twisted Frobenius group over Z/p^N.

    The group generator of the multiplicative part acts as multiplication by
    the Teichmuller lift of the canonical field generator, and the
    order-2 generator acts as the ring Frobenius; for N = 1 this is the
    natural action on F_{p^2} as a 2-dimensional F_p-space.
    """
    G = twisted_frobenius_group(p)
    return Representation(G, list(galois_matrices(p, N)), p, N)


def twisted_kernel_module(rho_w: Representation, n: int) -> Representation:
    """The rank-2 free Z/p^n module on which the twisted group G =
    `twisted_frobenius_group(p)` acts through the sigma-part of its
    endomorphism ring, read off rho_W = `galois_module_rep(p, N)`, N >= n.

    The multiplicative generator acts as multiplication by u^{1-p} (u its
    Teichmuller lift) and the order-2 generator as Frobenius; mod p this is
    the simple 2-dimensional module carried by the sigma-part of End(F_{p^2}).
    Teichmuller units and the Frobenius commute with reduction, so rho_W's
    (U, F) mod p^n is `galois_matrices(p, n)`; G's relators still check K.
    """
    p, m = rho_w.p, rho_w.p**n
    U, F = rho_w.reduce_mod(n).gen_mats
    return Representation(rho_w.group, [matpow_mod(U, p * p - p, m), F], p, n)


# ---------------------------------------------------------------------------
# Equivariant Hom spaces
# ---------------------------------------------------------------------------


@dataclass
class EquivariantHomSpace:
    """Basis of Hom_G(X, Y) over Z/p^N as a canonical Howell kernel."""

    p: int
    N: int
    basis: list[np.ndarray] = field(default_factory=list)
    invariant_factors: list[int] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        """F_p-dimension; only meaningful at precision 1."""
        if self.N != 1:
            raise RepresentationError("dimension is the N = 1 notion; see invariant_factors")
        return len(self.basis)


def hom_space(X: Representation, Y: Representation) -> EquivariantHomSpace:
    """Solve Y_g H = H X_g over Z/p^N for representations of the same group.

    The system is assembled on the distinguished generators only: X and Y
    are homomorphisms, so Y_e H = H X_e for every element e once it holds
    for the generators.
    """
    p, N = X.p, X.N
    if N != Y.N or p != Y.p:
        raise RepresentationError("X and Y must share coefficients")
    if not _same_group(X.group, Y.group):
        raise RepresentationError("X and Y must be over the same group")
    a, b = X.degree, Y.degree
    # row (g, i, j), column (k, l): Y_g[i, k] [j = l] - [i = k] X_g[l, j],
    # the coefficient of H[k, l] in (Y_g H - H X_g)[i, j]
    system = (
        np.einsum("gik,jl->gijkl", Y.gen_mats, np.eye(a, dtype=np.int64))
        - np.einsum("ik,glj->gijkl", np.eye(b, dtype=np.int64), X.gen_mats)
    ).reshape(-1, b * a)
    kernel = solve_module(system, np.zeros(len(system), dtype=np.int64), p, N).kernel
    basis = list(kernel.rows.astype(np.int64).reshape(-1, b, a))
    return EquivariantHomSpace(p, N, basis, kernel.invariant_factors)
