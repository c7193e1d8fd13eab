"""Brute-force evaluation of the deformation functor on Artinian test rings.

Ground truth for the certification: enumerate every lift of the mod-p
representation over a small test ring A, partition the valid lifts into
strict-equivalence classes (conjugation by matrices reducing to the
identity), and compare the class count and the induced correspondence with
the set of local W-algebra maps R -> A.  Each generator image ranges over its
reduction coset, cut to the matrices X with X^o(s) = I for the order o(s) of
the generator s; every lift satisfies this, since rho(s)^o(s) = rho(1) = I.
The products of the survivors are extended down Gamma's BFS spanning tree
and filtered by the equations e*s in one walk, one batched product per tree
level and generator, and every lift is then validated against the relators
of Gamma's presentation, which come from K and G rather than from the
enumeration's spanning tree.  The classes come from one stacked
conjugation per orbit.  This route is deliberately independent of the
cohomology module so the two can cross-check each other.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .certify import Assembly, RhoR
from .groups import violated_relators
from .localalg import ArtinLocalAlgebra, count_homs_from_R
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


def _stack_matmul(add, mul, d):
    """`kernels.table_matmul` on stacks of d x d matrices with any leading
    shape; `b` is broadcast to the shape of `a`."""

    def matmul(a, b):
        b = np.broadcast_to(b, a.shape)
        prod = kernels.table_matmul(a.reshape(-1, d, d), b.reshape(-1, d, d), add, mul)
        return prod.reshape(a.shape)

    return matmul


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
    has rho(s)^o(s) = rho(s^o(s)) = I.  The product of the survivors is then
    walked down the BFS spanning tree of `gens` one level at a time
    (`FiniteGroup.tree_levels`), extension and e*s filter in one: each level
    forms value(e) value(s) for every element e on it and generator s, one
    product per generator; the tree edges among them give the values of the
    next level (as in `FiniteGroup.extend`), and once all of them are
    written every off-tree product is compared with the value it must equal.
    The assignments failing an equation are dropped before the next level,
    so the deep levels run on tiny stacks."""
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
    matmul = _stack_matmul(add, mul, d)

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
    gen_blocks = np.stack([c[idx.reshape(-1)] for c, idx in zip(cands, grid)])
    parent, genidx = map(np.asarray, group.spanning_tree(gens)[1:])
    values = np.empty((group.order, *gen_blocks.shape[1:]), dtype=np.int64)
    values[0] = eye
    for depth, level in enumerate(group.tree_levels(gens)):
        children = group.table[level][:, list(gens)]
        on_tree = (parent[children] == level[:, None]) & (genidx[children] == np.arange(len(gens)))
        # at depth 0, value(1) value(s) is the generator block itself
        prods = [matmul(values[level], gb) if depth else gb[None] for gb in gen_blocks]
        for t, prod in enumerate(prods):
            values[children[on_tree[:, t], t]] = prod[on_tree[:, t]]
        alive = np.ones(gen_blocks.shape[1], dtype=bool)
        for t, prod in enumerate(prods):
            off = ~on_tree[:, t]
            alive &= (prod[off] == values[children[off, t]]).all(axis=(0, 2, 3))
        if not alive.all():
            gen_blocks, values = gen_blocks[:, alive], values[:, alive]
    lifts = [
        LiftAssignment(gens, tuple(tuple(gb[i].reshape(-1).tolist()) for gb in gen_blocks))
        for i in range(gen_blocks.shape[1])
    ]
    _assert_full_table(lifts, rho_bar, A)
    return lifts


def _assert_full_table(lifts, rho_bar, A):
    """Definitive check that every lift is a homomorphism Gamma -> GL_d(A)
    reducing to rho_bar, in four steps on the lift L, given on the
    enumeration generators s:

    1. evaluate L along the words of the distinguished generators t in the
       spanning tree of the s (`FiniteGroup.extend` with `at`), giving
       values M[t];
    2. check every relator of Gamma's presentation (`violated_relators`)
       on the M[t].  By von Dyck's theorem there is then a homomorphism phi
       with phi(t) = M[t];
    3. evaluate phi at each s, as the product of the M[t] along the word of
       s in the distinguished spanning tree, and check phi(s) = L(s).  Then
       L is the restriction of phi to the s, which generate Gamma, so L
       extends to the homomorphism phi;
    4. check that every generator image reduces to rho_bar's image.

    Step 3 is needed, as the relators only see the M[t]: an s that no word
    of a t passes through is otherwise unchecked.  The relators of
    Gamma = K x| G come from K and G, not from the enumeration's tree.
    Products are batched over the lifts: one per tree level in steps 1
    and 3, one per distinct relator-word prefix in step 2."""
    if not lifts:
        return
    group, d = rho_bar.group, rho_bar.degree
    add, mul, _, _ = A.tables()
    gens, B = lifts[0].generators, len(lifts)
    matmul = _stack_matmul(add, mul, d)
    gen_blocks = np.array([l.images for l in lifts], dtype=np.int64)
    gen_blocks = gen_blocks.reshape(B, len(gens), d, d).transpose(1, 0, 2, 3)
    one = np.broadcast_to(_identity(A, d), (B, d, d))
    at_gens = group.extend(gen_blocks, matmul, one, gens, at=group.generators)
    bad = violated_relators(group, at_gens, matmul, one)
    if bad:
        u, v = bad[0]
        raise OracleError(f"lift is not a homomorphism: relator {u} = {v} fails")
    if (group.extend(at_gens, matmul, one, at=gens) != gen_blocks).any():
        raise OracleError("lift is not a homomorphism: its extension differs from it at a generator")
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
    lexicographically minimal representatives.

    The conjugating group is listed as codes (the coset of the identity
    matrix), and each orbit is one stacked pair of products over the group
    and the generators; its rows are looked up among the lifts by their
    bytes."""
    if not lifts:
        return DeformationClassSet([], [], 0, {})
    add, mul, maximal, _, d = _ring_data(A, rho_bar)
    U = _candidates_for_generator(_identity(A, d), maximal, add, d)
    Uinv = _kernel_inverses(A, U)[:, None]
    matmul = _stack_matmul(add, mul, d)
    codes = np.array([l.images for l in lifts], dtype=np.int64)
    ngen = codes.shape[1]
    U = np.broadcast_to(U[:, None], (len(U), ngen, d, d))
    index_of = {row.tobytes(): i for i, row in enumerate(codes.reshape(len(lifts), -1))}
    class_idx = np.full(len(lifts), -1)
    reps, sizes = [], []
    for i, code in enumerate(codes):
        if class_idx[i] >= 0:
            continue
        conj = matmul(matmul(U, code.reshape(ngen, d, d)), Uinv)
        orbit = np.unique(conj.reshape(len(U), -1), axis=0)  # sorted: row 0 is the minimum
        members = [index_of.get(row.tobytes()) for row in orbit]
        if None in members:
            raise OracleError("conjugate of a lift is not a lift (internal error)")
        class_idx[members] = len(reps)
        reps.append(tuple(map(tuple, orbit[0].reshape(ngen, -1).tolist())))
        sizes.append(len(orbit))
    order = np.argsort([str(r) for r in reps], kind="stable")
    remap = np.argsort(order)
    reps = [reps[int(i)] for i in order]
    sizes = [sizes[int(i)] for i in order]
    class_of = {l.key(): int(remap[c]) for l, c in zip(lifts, class_idx)}
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
