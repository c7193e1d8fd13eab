"""Brute-force evaluation of the deformation functor on Artinian test rings.

Ground truth for the certification: enumerate every lift of the mod-p
representation over a small test ring A, partition the valid lifts into
strict-equivalence classes (conjugation by matrices reducing to the
identity), and compare the class count and the induced correspondence with
the set of local W-algebra maps R -> A.  Each generator image ranges over its
reduction coset, cut to the matrices X with X^o(s) = I for the order o(s) of
the generator s; every lift satisfies this, since rho(s)^o(s) = rho(1) = I.
Where rho_bar is injective on the cyclic group of s, o(s) = o(rho_bar(s)),
X^o(s) = I is a full condition on X: the lift must keep the order of
rho_bar(s).  Elsewhere X^o(rho_bar(s)) already lies in 1 + M_d(m_A), whose
elements the remaining factor o(s) / o(rho_bar(s)) mostly sends to I, and
the cut keeps almost the whole coset.  So `functor_compare` walks on
generators of the first kind when the report generators are not
(`enumeration_generators`), and gives each lift by its values at the report
generators, the values the walk gave them, as it also gives the values at
Gamma's distinguished generators where the check of the lifts on Gamma's
relators starts.  Before the walk, the post-cut product B of assignments is
refused when its value stack, |Gamma| B d^2 int64s, is past WALK_BUDGET
bytes.
The products of the survivors are extended down Gamma's BFS spanning tree
and filtered by the equations e*s in one walk, one batched product per tree
level for all the generators, and every lift is then validated against the
relators of Gamma's presentation, which come from K and G rather than from
the enumeration's spanning tree, at one batched product per relator-word
depth past the first.  The classes come from one stacked conjugation per
orbit.  This route is deliberately independent of the cohomology module so
the two can cross-check each other.

The lifts stay in one format from the enumeration to the report: an int64
(lifts, #gens, d, d) stack of the codes of their images at the generators.
The walk and the extensions along the spanning tree work on its
generator-major view (#gens, lifts, d, d), and a lift is looked up among the
others by one integer key, its row's codes read as base-|A| digits.
"""

from __future__ import annotations

import math
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
WALK_BUDGET = 2**30  # bytes of the level walk's value stack, |Gamma| x assignments x d^2 x 8
GENERATES_BUDGET = 2_000  # generating tuples `enumeration_generators` tries


class OracleError(ValueError):
    pass


def enumeration_guard() -> int:
    """The largest search space `enumerate_lifts` takes on: DEFAULT_GUARD,
    or the positive integer in DEFRING_GUARD_OVERRIDE."""
    override = os.environ.get("DEFRING_GUARD_OVERRIDE")
    if not override:
        return DEFAULT_GUARD
    if not override.isdecimal() or int(override) < 1:
        raise OracleError(f"DEFRING_GUARD_OVERRIDE={override!r} is not a positive integer")
    return int(override)


def _lift_keys(lifts: np.ndarray, size: int) -> np.ndarray:
    """One integer per lift of the (lifts, #gens, d, d) stack of codes in A
    (|A| = `size`): its codes as base-|A| digits, the first most
    significant, so key order is the rows' lexicographic order.  int64 while
    |A|^(#gens d^2) < 2^63, Python ints past that, as in `kernels.residues`."""
    rows = lifts.reshape(len(lifts), math.prod(lifts.shape[1:]))
    dtype = np.int64 if size ** rows.shape[1] < 2**63 else object
    weights = np.array([size**k for k in range(rows.shape[1])[::-1]], dtype=dtype)
    return rows.astype(dtype, copy=False) @ weights


@dataclass
class DeformationClassSet:
    """Strict-equivalence classes: orbit data of conjugation by 1 + M_d(m_A).
    Each representative is the lexicographically minimal lift of its class,
    as one tuple of d*d codes per generator.  The classified lifts are kept
    as their sorted keys (`_lift_keys` over a ring of `ring_size` elements)
    and the class of each, for `class_of`."""

    representatives: list[tuple]
    sizes: list[int]
    keys: np.ndarray
    key_class: np.ndarray
    ring_size: int

    @property
    def class_count(self) -> int:
        return len(self.representatives)

    def class_of(self, lifts: np.ndarray) -> np.ndarray:
        """The class of each lift of the (lifts, #gens, d, d) stack `lifts`,
        -1 for one not among the classified lifts, whose key's left and
        right `searchsorted` positions in `keys` are then equal."""
        keys = _lift_keys(lifts, self.ring_size)
        left, right = (np.searchsorted(self.keys, keys, side) for side in ("left", "right"))
        return np.where(right > left, np.append(self.key_class, -1)[left], -1)


def _ring_data(A: ArtinLocalAlgebra, rho_bar: Representation):
    """A's op tables, the codes of its maximal ideal, and the codes of
    0, 1, ..., p - 1 in A."""
    add, mul, _ = A.tables()
    maximal = np.flatnonzero(A.elements()[:, 0] % A.p == 0)  # element c has code c
    lift_of = A.encode(A.reduce(np.arange(rho_bar.p)[:, None] * A.one))
    return add, mul, maximal, lift_of, rho_bar.degree


def _identity(A: ArtinLocalAlgebra, d: int) -> np.ndarray:
    return A.encode(A.identity(d))


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
    """`kernels.table_matmul` on stacks of d x d matrices whose leading
    shapes broadcast together, in one kernel call and with no operand copied
    out to the broadcast shape.  A leading axis along which only `a` varies
    is folded into a's rows, and one along which only `b` varies into b's
    columns; the rest are the kernel's batch.  So (L, 1, B, d, d) times
    (g, B, d, d) is one (B, L d, d) @ (B, d, g d) product, and equal shapes
    are all batch.  The product is returned in the broadcast shape as a
    view of the kernel's result, which need not be contiguous: the callers
    index, compare and reshape it, and a reshape copies only if it must."""

    def matmul(a, b):
        a, b = np.asarray(a), np.asarray(b)
        shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        lead = len(shape)
        a = a.reshape((1,) * (lead + 2 - a.ndim) + a.shape)
        b = b.reshape((1,) * (lead + 2 - b.ndim) + b.shape)
        batch = [x for x in range(lead) if a.shape[x] == b.shape[x]]
        rows = [x for x in range(lead) if b.shape[x] == 1 != a.shape[x]]
        cols = [x for x in range(lead) if a.shape[x] == 1 != b.shape[x]]
        nb, nr, nc = (math.prod(shape[x] for x in axes) for axes in (batch, rows, cols))
        a = a.transpose(*batch, *rows, *cols, lead, lead + 1).reshape(nb, nr * d, d)
        b = b.transpose(*batch, *rows, lead, *cols, lead + 1).reshape(nb, d, nc * d)
        prod = kernels.table_matmul(a, b, add, mul)
        # axes (batch, rows, d, cols, d) back to the order of `shape`
        folded = batch + rows
        prod = prod.reshape(*(shape[x] for x in folded), d, *(shape[x] for x in cols), d)
        at = dict(zip(folded + cols, [*range(len(folded)), *range(len(folded) + 1, lead + 1)]))
        return prod.transpose(*(at[x] for x in range(lead)), len(folded), lead + 1)

    return matmul


def faithful_cyclic_mask(rho_bar: Representation) -> np.ndarray:
    """The mask of the elements e of Gamma with o(e) = o(rho_bar(e)), those
    on whose cyclic group rho_bar is injective: no power e^k != 1 lies in
    rho_bar's kernel, as rho_bar(e)^k = rho_bar(e^k).  One walk
    e -> e^2 -> e^3 ... over Gamma's table, every element at once, until
    each has met 1."""
    group, p, d = rho_bar.group, rho_bar.p, rho_bar.degree
    kernel = (rho_bar.mats % p == np.eye(d, dtype=np.int64)).all(axis=(1, 2))
    elements = np.arange(group.order)
    power = elements
    faithful = np.ones(group.order, dtype=bool)
    met_one = power == 0
    while not met_one.all():
        power = group.table[power, elements]
        faithful &= (power == 0) | ~kernel[power]
        met_one |= power == 0
    return faithful


def enumeration_generators(rho_bar: Representation, gens: tuple[int, ...]) -> tuple[int, ...]:
    """The generating tuple `functor_compare` enumerates on, for lifts
    reported at `gens`: `gens` if rho_bar is injective on the cyclic group
    of each of its elements (`faithful_cyclic_mask`); otherwise the first
    generating tuple of at most min(3, #gens) such elements, by size and
    then in index order (`FiniteGroup.first_generating_tuple`, at most
    GENERATES_BUDGET tuples tried); otherwise `gens`.

    On such an e the order cut of `enumerate_lifts`, X^o(e) = I, asks the
    lift to keep the order of rho_bar(e); on another e, X^o(rho_bar(e))
    already lies in 1 + M_d(m_A) and the cut keeps almost every candidate
    (see the module docstring)."""
    faithful = faithful_cyclic_mask(rho_bar)
    if faithful[list(gens)].all():
        return gens
    pool = np.flatnonzero(faithful[1:]) + 1
    found = rho_bar.group.first_generating_tuple(
        pool.tolist(), min(3, len(gens)), GENERATES_BUDGET
    )
    return gens if found is None else found


def enumerate_lifts(
    rho_bar: Representation,
    A: ArtinLocalAlgebra,
    gens: tuple[int, ...] | None = None,
    at: tuple[int, ...] | None = None,
) -> np.ndarray:
    """All lifts of rho_bar over A, as an int64 (lifts, #at, d, d) stack
    of the codes of their images at the elements `at` (default: `gens`):
    the assignments at `gens` in the reduction cosets whose extension over
    Gamma satisfies every multiplication-table equation, in lexicographic
    order of the coset candidates (first generator most significant).

    Each generator's coset is first cut to the candidates X with
    X^o(s) = I, where o(s) is the order of s.  The cut loses no lift: a lift
    has rho(s)^o(s) = rho(s^o(s)) = I.  The product of the survivors is then
    walked down the BFS spanning tree of `gens` one level at a time
    (`FiniteGroup.tree_levels`), extension and e*s filter in one: each level
    forms value(e) value(s) for every element e on it and generator s, in
    one product (`_walk_tree`); the tree edges among them give the values of
    the next level (as in `FiniteGroup.extend`), and then every product on
    an edge off the tree (`FiniteGroup.off_tree_edges`) is compared with the
    value it must equal.
    The assignments failing an equation are dropped before the next level,
    so the deep levels run on tiny stacks.  The walk's values at `at`, and
    at Gamma's distinguished generators for `_assert_full_table`, are kept.

    Two refusals, each an OracleError: the unpruned product
    |m_A|^(d^2 #gens) past `enumeration_guard()`, before the cut, and the
    walk's value stack, |Gamma| x (post-cut product) x d^2 int64s, past
    WALK_BUDGET bytes, before it is allocated."""
    group = rho_bar.group
    if gens is None:
        gens = group.small_generating_set()
    gens = tuple(int(g) for g in gens)
    at = gens if at is None else tuple(int(e) for e in at)
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
    assignments = math.prod(len(c) for c in cands)
    walk_bytes = group.order * assignments * d * d * 8
    if walk_bytes > WALK_BUDGET:
        raise OracleError(
            f"{assignments} assignments after the order cut on |Gamma| = {group.order} "
            f"elements, d = {d}, need {walk_bytes} bytes of values, past the budget "
            f"{WALK_BUDGET}"
        )
    grid = np.meshgrid(*(np.arange(len(c)) for c in cands), indexing="ij")
    gen_blocks = np.stack([c[idx.reshape(-1)] for c, idx in zip(cands, grid)])
    walk = _walk_tree(group, gens, gen_blocks, matmul, eye, (group.generators, at))
    gen_blocks, (at_dist, at_values) = walk
    _assert_full_table(gen_blocks.transpose(1, 0, 2, 3), gens, rho_bar, A, at_dist)
    return at_values.transpose(1, 0, 2, 3)


def _walk_tree(group, gens, gen_blocks, matmul, eye, at):
    """The assignments of the (#gens, B, d, d) stack `gen_blocks` that pass
    the level walk of `enumerate_lifts`, as such a stack, and their values
    at each tuple of elements in `at`.  Each level is one `matmul` of its
    values, (level, 1, B, d, d), by the generator images, (#gens, B, d, d),
    which folds into one kernel product of (B, level d, d) by
    (B, d, #gens d).  Only the values at `at` outlive the call, so the value
    stack is let go before the lifts are checked on Gamma's relators."""
    off_tree = group.off_tree_edges(gens)
    values = np.empty((group.order, *gen_blocks.shape[1:]), dtype=np.int64)
    values[0] = eye
    for depth, level in enumerate(group.tree_levels(gens)):
        children, off = group.table[level][:, list(gens)], off_tree[level]
        # (level, #gens, B, d, d); at depth 0, value(1) value(s) is the generator image itself
        prods = matmul(values[level][:, None], gen_blocks) if depth else gen_blocks[None]
        values[children[~off]] = prods[~off]
        alive = (prods[off] == values[children[off]]).all(axis=(0, 2, 3))
        del prods  # not held through the next level's product
        if not alive.all():
            gen_blocks, values = gen_blocks[:, alive], values[:, alive]
    return gen_blocks, [values[list(elements)] for elements in at]


def _assert_full_table(lifts, gens, rho_bar, A, at_dist):
    """Definitive check that every lift of the (lifts, #gens, d, d) stack
    `lifts` is a homomorphism Gamma -> GL_d(A) reducing to rho_bar, in four
    steps on the lift L, given on the enumeration generators s = `gens`:

    1. take the values M[t] of L at the distinguished generators t from
       `at_dist`, a (#t, lifts, d, d) stack (in `enumerate_lifts`, the
       level walk's values);
    2. check every relator of Gamma's presentation (`violated_relators`)
       on the M[t].  By von Dyck's theorem there is then a homomorphism phi
       with phi(t) = M[t];
    3. evaluate phi at each s, as the product of the M[t] along the word of
       s in the distinguished spanning tree (`FiniteGroup.extend` with
       `at`), and check phi(s) = L(s).  Then L is the restriction of phi to
       the s, which generate Gamma, so L extends to the homomorphism phi;
    4. check that every generator image reduces to rho_bar's image.

    Step 3 is needed, as the relators only see the M[t]: an s that no word
    of a t passes through is otherwise unchecked.  Steps 2 and 3 hold
    whatever step 1 is given, so M[t] that are not L's values fail one of
    them.  The relators of Gamma = K x| G come from K and G, not from the
    enumeration's tree.  Products are batched over the lifts and the words:
    one per tree level in step 3, one per word depth of the relator trie in
    step 2 (`FiniteGroup.relator_values`), none at depth 1, whose values are
    the generator values."""
    if not len(lifts):
        return
    group, d = rho_bar.group, rho_bar.degree
    add, mul, _ = A.tables()
    matmul = _stack_matmul(add, mul, d)
    gen_blocks = lifts.transpose(1, 0, 2, 3)
    one = np.broadcast_to(_identity(A, d), (len(lifts), d, d))
    bad = violated_relators(group, at_dist, matmul, one)
    if bad:
        u, v = bad[0]
        raise OracleError(f"lift is not a homomorphism: relator {u} = {v} fails")
    if (group.extend(at_dist, matmul, one, group.generators, at=gens) != gen_blocks).any():
        raise OracleError("lift is not a homomorphism: its extension differs from it at a generator")
    res = A.elements()[:, 0] % A.p
    for gb, s in zip(gen_blocks, gens):
        if (res[gb] != rho_bar.mats[s] % rho_bar.p).any():
            raise OracleError("lift does not reduce to the base representation")


def _kernel_inverses(A: ArtinLocalAlgebra, U: np.ndarray) -> np.ndarray:
    """Inverses of a stack U of matrices in 1 + M_d(m_A), by the Newton
    iteration X <- X(2I - UX) from X = I.  The error I - UX squares at each
    step, so after k steps its entries lie in m_A^(2^k).  As m_A^L = 0 for
    some L <= log2 |A|, the whole stack converges within L steps."""
    add, mul, neg = A.tables()
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
    rho_bar: Representation, A: ArtinLocalAlgebra, lifts: np.ndarray
) -> DeformationClassSet:
    """Partition the (lifts, #gens, d, d) stack `lifts` into orbits of
    conjugation by 1 + M_d(m_A), with lexicographically minimal
    representatives.

    The conjugating group is listed as codes (the coset of the identity
    matrix), and each orbit is one stacked pair of products over the group
    and the generators.  The lifts are visited in the order of their keys
    (`_lift_keys`); an orbit's members are found by one `searchsorted` of
    its unique keys, the smallest of which is its representative."""
    add, mul, maximal, _, d = _ring_data(A, rho_bar)
    keys = _lift_keys(lifts, A.size)
    by_key = np.argsort(keys)
    keys = keys[by_key]
    U = _candidates_for_generator(_identity(A, d), maximal, add, d)
    Uinv = _kernel_inverses(A, U)[:, None]
    matmul = _stack_matmul(add, mul, d)
    ngen = lifts.shape[1]
    U = U[:, None]
    key_class = np.full(len(lifts), -1)
    reps, sizes = [], []
    for i in range(len(lifts)):
        if key_class[i] >= 0:
            continue
        conj = matmul(matmul(U, lifts[by_key[i]]), Uinv)
        orbit = np.unique(_lift_keys(conj, A.size))  # sorted: the first is the minimum
        members = np.searchsorted(keys, orbit)
        if members[-1] >= len(keys) or (keys[members] != orbit).any():
            raise OracleError("conjugate of a lift is not a lift (internal error)")
        key_class[members] = len(reps)
        reps.append(tuple(map(tuple, lifts[by_key[members[0]]].reshape(ngen, -1).tolist())))
        sizes.append(len(orbit))
    order = np.argsort([str(r) for r in reps], kind="stable")
    reps = [reps[int(i)] for i in order]
    sizes = [sizes[int(i)] for i in order]
    return DeformationClassSet(reps, sizes, keys, np.argsort(order)[key_class], A.size)


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
    bijection onto the deformation classes.

    The lifts are enumerated on `enumeration_generators(rho_bar, gens)` and
    given by the walk's values at `gens` (default: `small_generating_set`),
    on which the classes and the report are keyed; the pushed-forward lifts
    are looked up among them by their keys (`DeformationClassSet.class_of`)."""
    t0 = time.monotonic()
    p, n, N = asm.p, asm.n, asm.N
    if A.p != p:
        raise OracleError("test ring has the wrong residue characteristic")
    if A.reduce(A.one.astype(object) * p**N).any():
        raise OracleError(
            f"precision insufficient: 1 has additive order > p^{N} in {A.name}; raise N"
        )
    rho_bar = asm.rho_bar
    if gens is None:
        gens = rho_bar.group.small_generating_set()
    gens = tuple(int(g) for g in gens)
    walked = enumeration_generators(rho_bar, gens)
    lifts = enumerate_lifts(rho_bar, A, walked, at=gens)
    classes = deformation_classes(rho_bar, A, lifts)
    homs = count_homs_from_R(n, A)
    # rho_R at the generators over R; t -> x sends w + t u to w 1 + u x in A
    at_gens = np.stack([rho_r.at(g) for g in gens]).astype(object)[None]
    pushed = at_gens[..., :1] * A.one + at_gens[..., 1:] * homs[:, None, None, None]
    hom_to_class = classes.class_of(A.encode(A.reduce(pushed))).tolist()
    if -1 in hom_to_class:
        raise OracleError("pushed-forward lift is not among the enumerated lifts")
    injective = len(set(hom_to_class)) == len(hom_to_class)
    surjective = set(hom_to_class) == set(range(classes.class_count))
    ms = int((time.monotonic() - t0) * 1000)
    return FunctorReport(
        asm.spec.name,
        A.name,
        len(lifts),
        classes.class_count,
        len(homs),
        injective,
        surjective,
        hom_to_class,
        ms,
    )
