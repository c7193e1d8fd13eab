"""Brute-force evaluation of the deformation functor on Artinian test rings.

Ground truth for the certification: enumerate every lift of the mod-p
representation over a small test ring A (generator images ranging over the
full reduction cosets, validated against the whole multiplication table),
partition the valid lifts into strict-equivalence classes (conjugation by
matrices reducing to the identity), and compare the class count and the
induced correspondence with the set of local W-algebra maps R -> A.  This
route is deliberately independent of the cohomology module so the two can
cross-check each other.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import kernels
from .certify import Assembly, RhoR
from .localalg import ArtinLocalAlgebra, count_homs_from_R, reduction_kernel_matrices
from .modrep import Representation

DEFAULT_GUARD = 100_000_000
BLOCK = 1 << 16


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
    threads: int = 1,
) -> list[LiftAssignment]:
    """All lifts of rho_bar over A, as generator assignments in the
    reduction cosets whose word-extension satisfies every multiplication-
    table equation."""
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
    tree_order = group.spanning_tree(gens)[0]
    cands = []
    for s in gens:
        base = lift_of[rho_bar.mats[s] % rho_bar.p]
        cands.append(_candidates_for_generator(base, maximal, add, d))
    counts = [len(c) for c in cands]
    strides = []
    acc = 1
    for c in reversed(counts):
        strides.append(acc)
        acc *= c
    strides = list(reversed(strides))
    total = acc

    eye = np.array(
        [[A.encode(A.one if i == j else A.zero) for j in range(d)] for i in range(d)],
        dtype=np.int64,
    )

    def matmul(a, b):
        return kernels.table_matmul(a, b, add, mul)

    def process_block(start: int, stop: int):
        flat = np.arange(start, stop, dtype=np.int64)
        gen_blocks = []
        for si in range(len(gens)):
            comp = (flat // strides[si]) % counts[si]
            gen_blocks.append(cands[si][comp])
        one = np.broadcast_to(eye, gen_blocks[0].shape).copy()
        mats = group.extend(gen_blocks, matmul, one, gens)
        # filter in BFS order with compaction: the shallow equations kill
        # almost all assignments, so the deep ones run on tiny arrays
        for e in tree_order:
            alive = None
            for gi, s in enumerate(gens):
                prod = matmul(mats[e], gen_blocks[gi])
                target = mats[group.mul(e, s)]
                ok = (prod == target).all(axis=(1, 2))
                alive = ok if alive is None else (alive & ok)
            if alive.all():
                continue
            if not alive.any():
                return []
            keep = np.nonzero(alive)[0]
            flat = flat[keep]
            gen_blocks = [gb[keep] for gb in gen_blocks]
            mats = [v[keep] for v in mats]
        return [
            LiftAssignment(
                gens,
                tuple(
                    tuple(int(x) for x in gen_blocks[si][i].reshape(-1))
                    for si in range(len(gens))
                ),
            )
            for i in range(len(flat))
        ]

    blocks = [(s, min(s + BLOCK, total)) for s in range(0, total, BLOCK)]
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda b: process_block(*b), blocks))
    else:
        results = [process_block(*b) for b in blocks]
    lifts = [l for chunk in results for l in chunk]
    _assert_full_table(lifts, rho_bar, A, gens, matmul, d, eye)
    return lifts


def _assert_full_table(lifts, rho_bar, A, gens, matmul, d, eye):
    """Definitive check: every surviving lift satisfies all |G|^2 equations."""
    group = rho_bar.group
    if not lifts:
        return
    B = len(lifts)
    gen_blocks = [
        np.array([l.images[si] for l in lifts], dtype=np.int64).reshape(B, d, d)
        for si in range(len(gens))
    ]
    mats = group.extend(gen_blocks, matmul, np.broadcast_to(eye, (B, d, d)).copy(), gens)
    for g in range(group.order):
        for h in range(group.order):
            prod = matmul(mats[g], mats[h])
            if not (prod == mats[group.mul(g, h)]).all():
                raise OracleError("full-table verification failed (internal error)")
    # each generator image must reduce to rho_bar's image
    p = rho_bar.p
    res = np.array([A.residue(A.decode(c)) for c in range(A.size)], dtype=np.int64)
    for si, s in enumerate(gens):
        for l in lifts:
            got = res[np.array(l.images[si], dtype=np.int64)].reshape(d, d)
            if (got != rho_bar.mats[s] % p).any():
                raise OracleError("lift does not reduce to the base representation")


def deformation_classes(
    rho_bar: Representation, A: ArtinLocalAlgebra, lifts: list[LiftAssignment]
) -> DeformationClassSet:
    """Partition lifts into orbits of conjugation by 1 + M_d(m_A), with
    lexicographically minimal representatives."""
    add, mul, _, _, d = _ring_data(A, rho_bar)
    kerm = reduction_kernel_matrices(A, d)
    U_all = np.array([np.array(u.encode()).reshape(d, d) for u in kerm], dtype=np.int64)
    Uinv_all = np.array(
        [np.array(u.inverse().encode()).reshape(d, d) for u in kerm], dtype=np.int64
    )
    nC = len(kerm)
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
    threads: int = 1,
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
    lifts = enumerate_lifts(rho_bar, A, gens, threads=threads)
    classes = deformation_classes(rho_bar, A, lifts)
    homs = count_homs_from_R(n, A)
    hom_to_class = []
    for x in homs:
        images = []
        for s in gens:
            d = rho_r.wpart.shape[1]
            img = []
            for i in range(d):
                for j in range(d):
                    a = int(rho_r.wpart[s, i, j])
                    b = int(rho_r.tpart[s, i, j])
                    val = A.add(A.from_int(a), A.smul(b, x))
                    img.append(A.encode(val))
            images.append(tuple(img))
        key = tuple(images)
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
