"""Matrix representations of finite groups over F_p and Z/p^N.

Covers the specific modules of the certification pipeline: the natural,
trivial and standard pieces of a permutation representation, the rank-2
module F_{p^2} with its multiplicative and Frobenius action, endomorphism
modules with conjugation action, equivariant Hom solvers, Higman's
projectivity criterion, and step-by-step lifting of a mod-p representation
to Z/p^N through the vanishing of the lifting obstructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .exactalg import galois_matrices, matpow_mod, solve_module
from .groups import FiniteGroup, GroupHom, twisted_frobenius_group


class RepresentationError(ValueError):
    pass


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
        """Identity at element 0, invertible generator images, and
        rho(e) rho(s) = rho(es) for every element e and generator s; by
        the argument in FiniteGroup.extend that is a homomorphism."""
        m = self.modulus
        eye = np.eye(self.degree, dtype=np.int64)
        if not (self.mats[0] == eye).all():
            raise RepresentationError("identity does not map to the identity matrix")
        table = self.group.table
        for s in self.group.generators:
            if kernels.rank_modp(self.mats[s], self.p) != self.degree:
                raise RepresentationError(f"image of generator {s} is singular")
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

    @property
    def degree(self) -> int:
        return self.standard.degree

    def to_standard_coords(self, mat: np.ndarray) -> np.ndarray:
        """Compress an endomorphism of the natural module that preserves the
        V-span to its d x d matrix in the difference basis."""
        p = self.standard.p
        return self.left_inverse @ (np.asarray(mat) % p) @ self.basis % p


def difference_basis_matrices(G: FiniteGroup) -> list[np.ndarray]:
    """Integer matrices of G's generators on the sum-zero part of the
    permutation lattice, in the basis v_i = b_i - b_{i+1}."""
    d = G.action.shape[1] - 1

    def diff_coords(a: int, b: int) -> np.ndarray:
        """b_a - b_b in the basis v_i."""
        v = np.zeros(d, dtype=np.int64)
        if a < b:
            v[a:b] = 1
        elif a > b:
            v[b:a] = -1
        return v

    return [
        np.stack([diff_coords(int(perm[j]), int(perm[j + 1])) for j in range(d)], axis=1)
        for perm in G.action[list(G.generators)]
    ]


def standard_perm_rep(G: FiniteGroup, p: int) -> PermutationPieces:
    """Split the natural permutation module over F_p into trivial and
    standard pieces; requires p not to divide the number of points."""
    if G.action is None:
        raise RepresentationError("group needs a permutation action")
    npts = G.action.shape[1]
    d = npts - 1
    if npts % p == 0:
        raise RepresentationError(f"p = {p} divides {npts}; no splitting")
    perm_mats = np.zeros((G.order, npts, npts), dtype=np.int64)
    for e in range(G.order):
        for i in range(npts):
            perm_mats[e, G.action[e][i], i] = 1
    natural = Representation(G, perm_mats, p, 1, validate=False)
    trivial = Representation(G, np.ones((G.order, 1, 1), dtype=np.int64), p, 1, validate=False)

    # the integer matrices reduce mod p in from_generator_images
    standard = Representation.from_generator_images(G, difference_basis_matrices(G), p, 1)

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
# The rank-2 module F_{p^2} and its endomorphism ring
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
    sigma_part = kernels.nullspace_modp(poly, p)
    one_part = kernels.nullspace_modp((C - eye) @ (C - eye) % p, p)
    if len(sigma_part) != 2 or len(one_part) != 2:
        raise RepresentationError("eigenspace extraction failed")
    if kernels.rank_modp(np.vstack([sigma_part, one_part]), p) != 4:
        raise RepresentationError("pieces do not span End(V)")
    return V, M, sigma_part, one_part


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
    system = np.vstack(rows) % p**N
    sol = solve_module(system.tolist(), [0] * system.shape[0], p, N)
    basis = [np.array(v, dtype=np.int64).reshape(b, a) for v in sol.kernel.generators]
    return EquivariantHomSpace(p, N, a, b, basis, sol.kernel.invariant_factors)


def is_projective_higman(V: Representation):
    """Higman's criterion over F_p: V is projective over F_p[G] iff the
    identity is a relative trace sum_g g.f.g^-1; returns (flag, witness)."""
    if V.N != 1:
        raise RepresentationError("projectivity test works mod p")
    p, d = V.p, V.degree
    M = end_rep(V)
    S = M.mats.sum(axis=0) % p
    target = np.eye(d, dtype=np.int64).reshape(-1)
    x = kernels.solve_modp(S, target, p)
    if x is None:
        return False, None
    F = x.reshape(d, d)
    acc = np.zeros((d, d), dtype=np.int64)
    for g in range(V.group.order):
        acc += V.mats[g] @ F @ V.mats[V.group.inverse[g]]
    assert (acc % p == np.eye(d, dtype=np.int64)).all()
    return True, F


# ---------------------------------------------------------------------------
# Lifting a mod-p representation to Z/p^N
# ---------------------------------------------------------------------------


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
    inv_bar = Vbar.mats[G.inverse]
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
        y = kernels.solve_modp(system, rhs, p)
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
        Representation(G, new, p, level + 1)  # validates
        current = new
    return Representation(G, current, p, N)


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


def _is_p_power(d: int, p: int) -> bool:
    while d % p == 0:
        d //= p
    return d == 1


def admissible_degree(d: int, p: int) -> bool:
    return d >= 2 and (d < p - 1 or _is_p_power(d, p))


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
