"""Brute-force evaluation of the deformation functor on Artinian test rings.

Ground truth for the certification: enumerate every lift of the mod-p
representation over a small test ring A, partition the valid lifts into
strict-equivalence classes (conjugation by matrices reducing to the
identity), and compare the class count and the induced correspondence with
the set of local W-algebra maps R -> A.  Each generator image ranges over its
reduction coset, cut to the matrices X with X^o(s) = I for the order o(s) of
the generator s; every lift satisfies this, since rho(s)^o(s) = rho(1) = I.
The products of the survivors are filtered by the equations e*s, and every
lift is then validated against the relators of Gamma's presentation, which
come from K and G rather than from the enumeration's spanning tree.  This
route is deliberately independent of the cohomology module so the two can
cross-check each other.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .certify import Assembly, RhoR
from .groups import violated_relators
from .localalg import ArtinLocalAlgebra, count_homs_from_R, reduction_kernel_matrices
from .modrep import Representation

DEFAULT_GUARD = 100_000_000


class OracleError(ValueError):
    pass


def enumeration_guard() -> int:
    override = os.environ.get("DEFRING_GUARD_OVERRIDE")
    return int(override) if override else DEFAULT_GUARD


@dataclass(frozen=True)
class LiftAssignment:
    """Generator images of one lift, as encoded matrices over the test ring."""

    generators: tuple[int, ...]  # element indices in Gamma
    images: tuple[tuple[int, ...], ...]  # per generator, d*d codes row-major

    def key(self) -> tuple:
        return self.images


@dataclass
class DeformationClassSet:
    """Strict-equivalence classes: orbit data of conjugation by 1 + M_d(m_A)."""

    representatives: list[tuple]
    sizes: list[int]
    lift_count: int
    class_of: dict

    @property
    def class_count(self) -> int:
        return len(self.representatives)


def _ring_data(A: ArtinLocalAlgebra, rho_bar: Representation):
    add, mul, neg, elems = A.tables()
    d = rho_bar.degree
    maximal = [A.encode(x) for x in A.maximal_ideal()]
    lift_of = np.array(
        [A.encode(A.from_int(v)) for v in range(rho_bar.p)], dtype=np.int64
    )
    return add, mul, maximal, lift_of, d


def _identity(A: ArtinLocalAlgebra, d: int) -> np.ndarray:
    return np.array(
        [[A.encode(A.one if i == j else A.zero) for j in range(d)] for i in range(d)],
        dtype=np.int64,
    )


def _candidates_for_generator(base_mat, maximal, add, d):
    """All lifts of one generator image: base + Delta, Delta over M_d(m_A)."""
    k = len(maximal)
    count = k ** (d * d)
    cands = np.empty((count, d, d), dtype=np.int64)
    deltas = np.array(maximal, dtype=np.int64)
    codes = np.arange(count)
    for pos in range(d * d):
        digit = (codes // (k**pos)) % k
        i, j = divmod(pos, d)
        cands[:, i, j] = add[base_mat[i, j], deltas[digit]]
    return cands


def enumerate_lifts(
    rho_bar: Representation,
    A: ArtinLocalAlgebra,
    gens: tuple[int, ...] | None = None,
) -> list[LiftAssignment]:
    """All lifts of rho_bar over A, as generator assignments in the
    reduction cosets whose extension over Gamma satisfies every
    multiplication-table equation, in lexicographic order of the coset
    candidates (first generator most significant).

    Each generator's coset is first cut to the candidates X with
    X^o(s) = I, where o(s) is the order of s.  The cut loses no lift: a lift
    has rho(s)^o(s) = rho(s^o(s)) = I.  The product of the survivors is
    extended over Gamma and filtered by the equations e*s in spanning-tree
    order."""
    group = rho_bar.group
    if gens is None:
        gens = group.small_generating_set()
    gens = tuple(int(g) for g in gens)
    add, mul, maximal, lift_of, d = _ring_data(A, rho_bar)
    search = len(maximal) ** (d * d * len(gens))
    guard = enumeration_guard()
    if search > guard:
        raise OracleError(
            f"search space {search} exceeds guard {guard}; "
            "set DEFRING_GUARD_OVERRIDE to raise"
        )
    eye = _identity(A, d)

    def matmul(a, b):
        return kernels.table_matmul(a, b, add, mul)

    cands = []
    for s in gens:
        cand = _candidates_for_generator(
            lift_of[rho_bar.mats[s] % rho_bar.p], maximal, add, d
        )
        power = cand
        for _ in range(group.element_order(s) - 1):
            power = matmul(power, cand)
        cands.append(cand[(power == eye).all(axis=(1, 2))])
    grid = np.meshgrid(*(np.arange(len(c)) for c in cands), indexing="ij")
    gen_blocks = [c[idx.reshape(-1)] for c, idx in zip(cands, grid)]
    one = np.broadcast_to(eye, gen_blocks[0].shape).copy()
    mats = group.extend(gen_blocks, matmul, one, gens)
    # filter in BFS order with compaction: the shallow equations kill
    # almost all assignments, so the deep ones run on tiny arrays
    for e in group.spanning_tree(gens)[0]:
        alive = np.ones(len(gen_blocks[0]), dtype=bool)
        for gb, s in zip(gen_blocks, gens):
            alive &= (matmul(mats[e], gb) == mats[group.mul(e, s)]).all(axis=(1, 2))
        if not alive.all():
            gen_blocks = [gb[alive] for gb in gen_blocks]
            mats = [v[alive] for v in mats]
    lifts = [
        LiftAssignment(gens, tuple(tuple(gb[i].reshape(-1).tolist()) for gb in gen_blocks))
        for i in range(len(gen_blocks[0]))
    ]
    _assert_full_table(lifts, rho_bar, A)
    return lifts


def _assert_full_table(lifts, rho_bar, A):
    """Definitive check that every lift is a homomorphism Gamma -> GL_d(A)
    reducing to rho_bar, in four steps:

    1. extend the lift along the spanning tree of its generators to values
       M on all of Gamma;
    2. check every relator of Gamma's presentation (`violated_relators`)
       on the values M[t] at the distinguished generators t.  By von Dyck's
       theorem there is then a homomorphism phi with phi(t) = M[t];
    3. phi(e) is the product of the M[t] along word(e), that is, the
       extension of those values along the distinguished spanning tree.
       Check it equals M on all of Gamma, so M = phi is a homomorphism;
    4. check that every generator image reduces to rho_bar's image.

    For Gamma = K x| G the relators come from K and G, not from the tree
    that the e*s filter in `enumerate_lifts` walks, so the check stays
    independent of the enumeration.  It costs two tree extensions and one
    product per relator-word prefix, each batched over the lifts, in place
    of the |Gamma|^2 table equations."""
    if not lifts:
        return
    group, d = rho_bar.group, rho_bar.degree
    add, mul, _, _ = A.tables()
    gens, B = lifts[0].generators, len(lifts)

    def matmul(a, b):
        return kernels.table_matmul(a, b, add, mul)

    gen_blocks = [
        np.array([l.images[si] for l in lifts], dtype=np.int64).reshape(B, d, d)
        for si in range(len(gens))
    ]
    one = np.broadcast_to(_identity(A, d), (B, d, d)).copy()
    M = np.stack(group.extend(gen_blocks, matmul, one, gens))
    at_gens = [M[t] for t in group.generators]
    bad = violated_relators(group, at_gens, matmul, one)
    if bad:
        u, v = bad[0]
        raise OracleError(f"lift is not a homomorphism: relator {u} = {v} fails")
    if (np.stack(group.extend(at_gens, matmul, one)) != M).any():
        raise OracleError(
            "lift is not a homomorphism: its extension differs from the one "
            "along the distinguished generators"
        )
    res = np.array([A.residue(A.decode(c)) for c in range(A.size)], dtype=np.int64)
    for gb, s in zip(gen_blocks, gens):
        if (res[gb] != rho_bar.mats[s] % rho_bar.p).any():
            raise OracleError("lift does not reduce to the base representation")


def _kernel_inverses(A: ArtinLocalAlgebra, U: np.ndarray) -> np.ndarray:
    """Inverses of a stack U of matrices in 1 + M_d(m_A), by the Newton
    iteration X <- X(2I - UX) from X = I.  The error I - UX squares at each
    step, so after k steps its entries lie in m_A^(2^k).  As m_A^L = 0 for
    some L <= log2 |A|, the whole stack converges within L steps."""
    add, mul, neg, _ = A.tables()
    eye = _identity(A, U.shape[-1])
    two = add[eye, eye]
    X = np.broadcast_to(eye, U.shape)
    for _ in range(A.size.bit_length() + 1):
        UX = kernels.table_matmul(U, X, add, mul)
        if (UX == eye).all():
            return X
        X = kernels.table_matmul(X, add[two, neg[UX]], add, mul)
    raise OracleError("Newton inversion in 1 + M_d(m_A) did not converge")


def deformation_classes(
    rho_bar: Representation, A: ArtinLocalAlgebra, lifts: list[LiftAssignment]
) -> DeformationClassSet:
    """Partition lifts into orbits of conjugation by 1 + M_d(m_A), with
    lexicographically minimal representatives."""
    add, mul, _, _, d = _ring_data(A, rho_bar)
    U_all = np.array(
        [u.encode() for u in reduction_kernel_matrices(A, d)], dtype=np.int64
    ).reshape(-1, d, d)
    Uinv_all = _kernel_inverses(A, U_all)
    nC = len(U_all)
    index_of = {l.key(): i for i, l in enumerate(lifts)}
    class_of: dict = {}
    reps = []
    sizes = []
    for l in lifts:
        if l.key() in class_of:
            continue
        ngen = len(l.images)
        conj_imgs = []
        for si in range(ngen):
            g_img = np.array(l.images[si], dtype=np.int64).reshape(1, d, d)
            tiled = np.broadcast_to(g_img, (nC, d, d))
            conj = kernels.table_matmul(
                kernels.table_matmul(U_all, tiled, add, mul), Uinv_all, add, mul
            )
            conj_imgs.append(conj)
        orbit = set()
        for ci in range(nC):
            key = tuple(
                tuple(int(x) for x in conj_imgs[si][ci].reshape(-1)) for si in range(ngen)
            )
            orbit.add(key)
        rep = min(orbit)
        cls = len(reps)
        reps.append(rep)
        sizes.append(len(orbit))
        for key in orbit:
            if key not in index_of:
                raise OracleError("conjugate of a lift is not a lift (internal error)")
            class_of[key] = cls
    order = np.argsort([str(r) for r in reps], kind="stable")
    remap = {int(old): new for new, old in enumerate(order)}
    reps = [reps[int(i)] for i in order]
    sizes = [sizes[int(i)] for i in order]
    class_of = {k: remap[v] for k, v in class_of.items()}
    return DeformationClassSet(reps, sizes, len(lifts), class_of)


@dataclass
class FunctorReport:
    instance: str
    ring: str
    lift_count: int
    class_count: int
    hom_count: int
    injective: bool
    surjective: bool
    hom_to_class: list[int]
    runtime_ms: int

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "ring": self.ring,
            "lift_count": self.lift_count,
            "class_count": self.class_count,
            "hom_count": self.hom_count,
            "bijective": self.bijective,
            "injective": self.injective,
            "surjective": self.surjective,
            "hom_to_class": self.hom_to_class,
            "runtime_ms": self.runtime_ms,
        }


def functor_compare(
    asm: Assembly,
    rho_r: RhoR,
    A: ArtinLocalAlgebra,
    gens: tuple[int, ...] | None = None,
) -> FunctorReport:
    """Desk-scale universality: map each local W-algebra hom R -> A to the
    class of the pushed-forward lift and check the correspondence is a
    bijection onto the deformation classes."""
    t0 = time.monotonic()
    p, n, N = asm.p, asm.n, asm.N
    if A.p != p:
        raise OracleError("test ring has the wrong residue characteristic")
    if A.smul(p**N, A.one) != A.zero:
        raise OracleError(
            f"precision insufficient: 1 has additive order > p^{N} in {A.name}; raise N"
        )
    rho_bar = asm.rho_bar
    if gens is None:
        gens = rho_bar.group.small_generating_set()
    gens = tuple(int(g) for g in gens)
    lifts = enumerate_lifts(rho_bar, A, gens)
    classes = deformation_classes(rho_bar, A, lifts)
    homs = count_homs_from_R(n, A)
    # rho_R at the generators, entrywise (w, t) for w + t x under t -> x
    entries = [list(zip(w.ravel().tolist(), t.ravel().tolist())) for w, t in map(rho_r.at, gens)]
    hom_to_class = []
    for x in homs:
        key = tuple(
            tuple(A.encode(A.add(A.from_int(a), A.smul(b, x))) for a, b in gen_entries)
            for gen_entries in entries
        )
        if key not in classes.class_of:
            raise OracleError("pushed-forward lift is not among the enumerated lifts")
        hom_to_class.append(classes.class_of[key])
    injective = len(set(hom_to_class)) == len(hom_to_class)
    surjective = set(hom_to_class) == set(range(classes.class_count))
    ms = int((time.monotonic() - t0) * 1000)
    return FunctorReport(
        asm.spec.name,
        A.name,
        classes.lift_count,
        classes.class_count,
        len(homs),
        injective,
        surjective,
        hom_to_class,
        ms,
    )
