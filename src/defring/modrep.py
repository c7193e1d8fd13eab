"""Matrix representations of finite groups over F_p and Z/p^N.

Covers the modules of the certification pipeline: the standard piece of a
permutation lattice, the rank-2 module F_{p^2} with its multiplicative and
Frobenius action and the kernel module of the twisted family, endomorphism
modules with the conjugation action, and equivariant Hom spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exactalg import galois_matrices, matpow_mod, solve_module
from .groups import FiniteGroup, GroupHom, twisted_frobenius_group


class RepresentationError(ValueError):
    pass


class Representation:
    """A group acting on the free module (Z/p^N)^d, one matrix per group
    element: a representation, or a G-module such as the kernel K of
    K x| G.  Vectors of the module are encoded as integers in base p^N,
    first coordinate lowest."""

    def __init__(self, group: FiniteGroup, mats, p: int, N: int, validate: bool = True):
        self.group = group
        self.p = p
        self.N = N
        self.modulus = p**N
        self.mats = np.asarray(mats, dtype=np.int64) % self.modulus
        self.degree = int(self.mats.shape[1])
        if self.mats.shape != (group.order, self.degree, self.degree):
            raise RepresentationError("matrix stack has wrong shape")
        if validate:
            self.validate()

    @classmethod
    def from_generator_images(cls, group, gen_mats, p, N, validate=True):
        if len(gen_mats) != len(group.generators):
            raise RepresentationError("need one matrix per group generator")
        m = p**N
        gen_mats = [np.asarray(g, dtype=np.int64) % m for g in gen_mats]
        d = gen_mats[0].shape[0] if gen_mats else 1
        mats = group.extend(gen_mats, lambda a, b: a @ b % m, np.eye(d, dtype=np.int64))
        return cls(group, np.array(mats), p, N, validate=validate)

    def validate(self):
        """Identity at element 0, and rho(e) rho(s) = rho(es) for every
        element e and generator s; by the argument in FiniteGroup.extend
        that is a homomorphism.  The generator images are then invertible:
        at e = s^-1 the check compares rho(s^-1) rho(s) with rho(1) = I."""
        m = self.modulus
        eye = np.eye(self.degree, dtype=np.int64)
        if not (self.mats[0] == eye).all():
            raise RepresentationError("identity does not map to the identity matrix")
        table = self.group.table
        for s in self.group.generators:
            prods = self.mats @ self.mats[s] % m
            bad = np.nonzero((prods != self.mats[table[:, s]]).any(axis=(1, 2)))[0]
            if bad.size:
                raise RepresentationError(
                    f"multiplicativity fails at element {bad[0]} times generator {s}"
                )

    @property
    def gen_mats(self) -> list[np.ndarray]:
        return [self.mats[g] for g in self.group.generators]

    @property
    def size(self) -> int:
        return self.modulus**self.degree

    def act(self, g: int, vec):
        return tuple(int(x) for x in (self.mats[g] @ np.asarray(vec)) % self.modulus)

    def encode(self, vec) -> int:
        code = 0
        for c in reversed(vec):
            code = code * self.modulus + int(c) % self.modulus
        return code

    def decode(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.degree):
            code, c = divmod(code, self.modulus)
            out.append(c)
        return tuple(out)

    def vectors(self) -> np.ndarray:
        """Every vector of the module, decoded: row c is decode(c)."""
        radix = self.modulus ** np.arange(self.degree, dtype=np.int64)
        return np.arange(self.size, dtype=np.int64)[:, None] // radix % self.modulus

    def basis_vectors(self):
        return [tuple(1 if j == i else 0 for j in range(self.degree)) for i in range(self.degree)]

    def reduce_mod(self, N2: int) -> "Representation":
        if N2 > self.N:
            raise RepresentationError("cannot increase precision by reduction")
        return Representation(self.group, self.mats % self.p**N2, self.p, N2, validate=False)

    def is_faithful(self) -> bool:
        eye = np.eye(self.degree, dtype=np.int64)
        hits = np.nonzero((self.mats == eye).all(axis=(1, 2)))[0]
        return hits.tolist() == [0]

    def inflate(self, hom: GroupHom) -> "Representation":
        """Pull back along a surjection source ->> this group."""
        if hom.target is not self.group and not np.array_equal(hom.target.table, self.group.table):
            raise RepresentationError("homomorphism target mismatch")
        return Representation(
            hom.source, self.mats[hom.images], self.p, self.N, validate=False
        )

    def restrict(self, subgroup: FiniteGroup, elements: list[int]) -> "Representation":
        """Restriction along an embedded subgroup (from FiniteGroup.subgroup)."""
        return Representation(subgroup, self.mats[elements], self.p, self.N, validate=False)


def end_rep(V: Representation) -> Representation:
    """End(V) with the conjugation action, in row-major matrix coordinates.

    The matrix of g acting by f -> rho(g) f rho(g)^-1 on vec(f) is
    rho(g) (x) rho(g)^{-T}.  V must be a homomorphism, as every caller's is:
    rho(g)^-1 is read as rho(g^-1).
    """
    n, d = V.mats.shape[:2]
    inv_t = V.mats[V.group.inverse].transpose(0, 2, 1)
    mats = np.einsum("gij,gkl->gikjl", V.mats, inv_t).reshape(n, d * d, d * d)
    return Representation(V.group, mats % V.modulus, V.p, V.N, validate=False)


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
    return Representation.from_generator_images(G, gen_mats, p, N)


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
    return Representation.from_generator_images(G, list(galois_matrices(p, N)), p, N)


def twisted_kernel_module(p: int, n: int) -> Representation:
    """The rank-2 free Z/p^n module on which the twisted group acts through
    the sigma-part of its endomorphism ring.

    The multiplicative generator acts as multiplication by u^{1-p} (u its
    Teichmuller lift) and the order-2 generator as Frobenius; mod p this is
    the simple 2-dimensional module carried by the sigma-part of End(F_{p^2}).
    """
    G = twisted_frobenius_group(p)
    U, F = galois_matrices(p, n)
    return Representation.from_generator_images(G, [matpow_mod(U, p * p - p, p**n), F], p, n)


# ---------------------------------------------------------------------------
# Equivariant Hom spaces
# ---------------------------------------------------------------------------


@dataclass
class EquivariantHomSpace:
    """Basis of Hom_G(X, Y) over Z/p^N as a canonical Howell kernel."""

    p: int
    N: int
    src_dim: int
    dst_dim: int
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
    if X.group is not Y.group and not (
        X.group.generators == Y.group.generators
        and np.array_equal(X.group.table, Y.group.table)
    ):
        raise RepresentationError("X and Y must be over the same group")
    a, b = X.degree, Y.degree
    rows = []
    eye_a = np.eye(a, dtype=np.int64)
    eye_b = np.eye(b, dtype=np.int64)
    for xg, yg in zip(X.gen_mats, Y.gen_mats):
        block = np.kron(yg, eye_a) - np.kron(eye_b, xg.T)
        rows.append(block)
    system = np.vstack(rows)
    kernel = solve_module(system, np.zeros(len(system), dtype=np.int64), p, N).kernel
    basis = list(kernel.rows.astype(np.int64).reshape(-1, b, a))
    return EquivariantHomSpace(p, N, a, b, basis, kernel.invariant_factors)
