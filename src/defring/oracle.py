"""Brute-force evaluation of the deformation functor on Artinian test rings.

Ground truth for the certification: enumerate every lift of the mod-p
representation over a small test ring A, partition the lifts into strict-
equivalence classes (conjugation by matrices reducing to the identity), and
compare the class count and the induced correspondence with the set of
local W-algebra maps R -> A.

The lifts are built on Gamma's distinguished generators t by small
extensions (Schlessinger, "Functors of Artin rings", 1968), one layer
m^j / m^(j+1) of A's m-adic filtration at a time (`_layers`).  The lifts
over A/m^(j+1) of a lift rho' over A/m^j are rho'(t) + delta_t, with
delta_t in M_d(m^j).  Every relator's defect then lies in M_d(m^j), and as
m m^j lies in m^(j+1), it is affine in delta modulo m^(j+1): rho'(u) delta
rho'(v) is rho_bar_0(u) delta rho_bar_0(v) there, for rho_bar_0 the lift of
rho_bar with integer entries, which acts on m^j / m^(j+1) through F_p.  So
the linear part is L = Lbar (x) I_k on the k coordinates of the layer, with
Lbar over F_p the same on every layer (`_linear_bar`, read off the first),
and one `kernels.rref_modp` of [Lbar^T | I] per enumeration solves every
layer: a parent is consistent when each of its k slices of defects is, its
particular solution is theirs, and its lifts are that solution plus the
span of kron(Lbar's kernel, I_k).  No lift is missed, as every lift over A
reduces to a lift modulo each m^j, and none is found twice.  At the last
layer the defects vanish exactly, so the values satisfy Gamma's relators,
which come from K and G rather than from any spanning tree, and by von
Dyck's theorem they extend to homomorphisms.  `_assert_full_table` checks
that again on the element codes, with the reduction to rho_bar at the t,
and only then are the values at the report generators extended along
Gamma's spanning tree, once.  This route is deliberately independent of
the cohomology module so the two can cross-check each other.

The lifts stay in one format from the enumeration to the report: an int64
(lifts, #gens, d, d) stack of the codes of their images at the generators,
and a lift is looked up among the others by one integer key, its row's
codes read as base-|A| digits.  The classes come from one stacked
conjugation per orbit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .certify import Assembly, RhoR
from .groups import violated_relators
from .localalg import ArtinLocalAlgebra, count_homs_from_R
from .modrep import Representation

# bytes of the relator check on one layer's lifts: it bounds that check, not
# the enumeration's peak, which was 1,279 MiB of tracemalloc on twisted-p5n1
# over Z25u, just under the budget, with the last layer's lift stacks held
# beside the check
LIFT_BUDGET = 2**30


class OracleError(ValueError):
    pass


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


def _maximal(A: ArtinLocalAlgebra) -> np.ndarray:
    """The codes of A's maximal ideal, in increasing order."""
    return np.flatnonzero(A.elements()[:, 0] % A.p == 0)  # element c has code c


def _identity(A: ArtinLocalAlgebra, d: int) -> np.ndarray:
    return A.encode(A.identity(d))


def _candidates_for_generator(base_mat, maximal, add, d):
    """All lifts of one generator image: base + Delta, Delta over M_d(m_A),
    entry (0, 0) of Delta varying fastest through m_A in code order."""
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
        if a.shape == b.shape:  # all batch
            prod = kernels.table_matmul(a.reshape(-1, d, d), b.reshape(-1, d, d), add, mul)
            return prod.reshape(a.shape)
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


def _additive_span(add: np.ndarray, codes) -> np.ndarray:
    """The codes of the additive subgroup generated by `codes`, in increasing
    order: each g joins the cosets S + g, S + 2g, ... of the span S so far
    until one of them is S again."""
    span = np.zeros(len(add), dtype=bool)
    span[0] = True
    for g in codes:
        coset = add[np.flatnonzero(span), g]
        while not span[coset[0]]:  # coset = S + i g, and coset[0] = i g
            span[coset] = True
            coset = add[coset, g]
    return np.flatnonzero(span)


def _layers(A: ArtinLocalAlgebra) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The layers m^j / m^(j+1), j >= 1, of A's m-adic filtration, with
    m^(j+1) the additive span of the products of m and m^j, each as
    (k, combo, coord) for a basis b_0..b_(k-1) in m^j chosen greedily in
    code order: combo[c] is the code of sum_i c_i b_i for c = sum_i c_i p^i,
    and coord[x] is the c with x = combo[c] modulo m^(j+1) for x in m^j, -1
    elsewhere.  Each new b joins the cosets S + i b, 0 < i < p, of the span
    S so far, which holds p b."""
    add, mul, _ = A.tables()
    p, maximal = A.p, _maximal(A)
    ideal, layers = maximal, []
    while len(ideal) > 1:
        below = _additive_span(add, np.unique(mul[np.ix_(maximal, ideal)]))
        coord = np.full(A.size, -1)
        coord[below] = 0
        k, combo, span = 0, np.zeros(1, dtype=np.int64), below
        for x in ideal:
            if coord[x] >= 0:
                continue
            multiples = [0]
            for _ in range(p - 1):
                multiples.append(add[multiples[-1], x])
            cosets = add[np.ix_(multiples[1:], span)]
            coord[cosets] = coord[span] + p**k * np.arange(1, p)[:, None]
            combo = np.concatenate([add[combo, ix] for ix in multiples])
            k, span = k + 1, np.concatenate([span, cosets.reshape(-1)])
        layers.append((k, combo, coord))
        ideal = below
    return layers


def _defects(group, A: ArtinLocalAlgebra, stack: np.ndarray, k: int, coord: np.ndarray) -> np.ndarray:
    """The relator defects (`FiniteGroup.relator_values` on element codes,
    with the difference add[u, neg[v]]) of each assignment of the
    (S, #t, d, d) code stack `stack` to Gamma's distinguished generators,
    all in M_d(m^j), as an (S, #relators d^2 k) array of their
    F_p-coordinates on the layer m^j / m^(j+1) of `coord` (`_layers`)."""
    d = stack.shape[-1]
    add, mul, neg = A.tables()
    one = np.broadcast_to(_identity(A, d), (len(stack), d, d))
    matmul = _stack_matmul(add, mul, d)
    c = coord[group.relator_values(stack.swapaxes(0, 1), matmul, one, lambda u, v: add[u, neg[v]])]
    if (c < 0).any():
        raise OracleError("a relator defect of a parent lies outside its layer (internal error)")
    return (c[..., None] // A.p ** np.arange(k) % A.p).swapaxes(0, 1).reshape(len(stack), -1)


def _layer_solver(linear: np.ndarray, p: int):
    """L delta = -D over F_p, L^T the (unknowns, equations) matrix `linear`,
    by one `kernels.rref_modp` of [L^T | I].  Its rows [R | E] with a pivot
    in R have R = E L^T, a reduced basis of L's column space, so a
    consistent D is the combination c of them read off at their pivots, and
    -c E solves for it; the E of the other rows span L's kernel.  Returns
    (solve, the kernel basis), where solve(defects) gives, for each row D of
    `defects`, whether it is consistent and a solution (meaningful only
    where it is)."""
    n, eqs = linear.shape
    r, pivots = kernels.rref_modp(np.hstack([linear, np.eye(n, dtype=np.int64)]), p)
    rank = sum(col < eqs for col in pivots)

    def solve(defects):
        coef = defects[:, pivots[:rank]]
        consistent = ~((defects - coef @ r[:rank, :eqs]) % p).any(axis=1)
        return consistent, -coef @ r[:rank, eqs:] % p

    return solve, r[rank:n, eqs:]


def _linear_bar(group, A: ArtinLocalAlgebra, layer, lift: np.ndarray):
    """The relator defects of `lift`, the (#t, d, d) codes of rho_bar's lift
    with entries in 0..p-1, on the first layer (k, combo, coord) of
    `_layers`, and Lbar^T, the (#t d^2, #relators d^2) matrix over F_p of
    the defects' linear part: row e is the change of the defects when entry
    e moves by b_0 = combo[1], read at coordinate 0.  The change has
    coordinate 0 only, as b_0 times the integer matrices of rho_bar's lift
    is b_0 times their residues modulo m^2; anything else is an
    OracleError."""
    k, combo, coord = layer
    add = A.tables()[0]
    entries = lift.size
    moved = np.repeat(lift.reshape(1, -1), entries, axis=0)
    moved[np.arange(entries), np.arange(entries)] = add[lift.reshape(-1), combo[1]]
    defects = _defects(group, A, np.concatenate([lift[None], moved.reshape(-1, *lift.shape)]), k, coord)
    change = ((defects[1:] - defects[0]) % A.p).reshape(entries, -1, k)
    if change[..., 1:].any():
        raise OracleError("a defect moved by b_0 has a coordinate past b_0 (internal error)")
    return defects[:1], change[..., 0]


def _check_bytes(group, lifts: int, d: int) -> int:
    """The bytes the relator check on element codes
    (`FiniteGroup.relator_values`) of `lifts` assignments of d x d
    matrices holds: per lift and entry, an int64 for each relator's value
    and six for each word prefix at the trie's widest depth (its values, its
    parents', the product's operands and temporaries).  tracemalloc on 4,000
    assignments gave 162 int64s per assignment and entry on standard-d3p3
    (bound 183), 84 on twisted-p2n1 (94) and 236 on standard-d4p2 (269), the
    same for a layer's defects (`_defects`) as for the final check."""
    words = [w for rel in group.relators() for w in rel]
    depths = range(1, 1 + max(map(len, words), default=0))
    widest = max((len({w[:k] for w in words if len(w) >= k}) for k in depths), default=0)
    return lifts * d * d * 8 * (len(group.relators()) + 6 * widest)


def enumerate_lifts(
    rho_bar: Representation, A: ArtinLocalAlgebra, gens: tuple[int, ...] | None = None
) -> np.ndarray:
    """All lifts of rho_bar over A, as an int64 (lifts, #gens, d, d) stack
    of the codes of their images at `gens` (default: `small_generating_set`),
    in the order the small extensions of the module docstring build them
    from rho_bar's lift with entries in 0..p-1 at the distinguished
    generators t.  rho_bar is read at the t (`gen_mats`) only, never on all
    of Gamma.  The values at the t pass `_assert_full_table` and are then
    extended along Gamma's spanning tree (`FiniteGroup.extend`) to `gens`,
    once, so the order is that of the values at the t whatever `gens` is.
    The first layer's one `_defects` call takes that lift and its #t d^2
    copies moved by b_0 at one entry each, whose differences give Lbar^T
    (`_linear_bar`); each later layer evaluates only its parents.  A layer's
    count of lifts is refused with an OracleError, before they are formed,
    when their relator check, a later layer's defects or the final check,
    would hold more than LIFT_BUDGET bytes (`_check_bytes`)."""
    group = rho_bar.group
    gens = tuple(int(g) for g in (group.small_generating_set() if gens is None else gens))
    p, d = A.p, rho_bar.degree
    add, mul, _ = A.tables()
    lift_of = A.encode(A.reduce(np.arange(p)[:, None] * A.one))
    lifts = lift_of[rho_bar.gen_mats % p][None]  # (lifts, #t, d, d)
    layers = _layers(A)
    for j, (k, combo, coord) in enumerate(layers, 1):
        if j == 1:
            defects, linear = _linear_bar(group, A, layers[0], lifts[0])
            solve, kernel_bar = _layer_solver(linear, p)
        else:
            defects = _defects(group, A, lifts, k, coord)
        # one slice of #relators d^2 equations per basis element of the layer
        slices = defects.reshape(len(lifts), -1, k).swapaxes(1, 2).reshape(len(lifts) * k, -1)
        consistent, particular = solve(slices)
        consistent = consistent.reshape(-1, k).all(axis=1)
        # back in (entry, basis) order, as the kernel kron(kernel_bar, I_k)
        particular = particular.reshape(len(lifts), k, -1)[consistent].swapaxes(1, 2)
        particular = particular.reshape(len(particular), -1)
        kernel = np.kron(kernel_bar, np.eye(k, dtype=np.int64))
        count = len(particular) * p ** len(kernel)
        held = _check_bytes(group, count, d)
        if held > LIFT_BUDGET:
            raise OracleError(
                f"{count} lifts over {A.name} modulo m^{j + 1} on |Gamma| = {group.order}, d = {d}: "
                f"their relator check holds {held} bytes, past the budget {LIFT_BUDGET}"
            )
        span = np.indices((p,) * len(kernel)).reshape(len(kernel), -1).T @ kernel
        deltas = (particular[:, None] + span) % p  # (parents, span, unknowns)
        codes = combo[deltas.reshape(*deltas.shape[:2], -1, k) @ p ** np.arange(k)]
        lifts = add[lifts[consistent].reshape(len(particular), 1, -1), codes].reshape(-1, *lifts.shape[1:])
    at_dist = lifts.swapaxes(0, 1)
    _assert_full_table(at_dist, rho_bar, A)
    one = np.broadcast_to(_identity(A, d), (len(lifts), d, d))
    return group.extend(at_dist, _stack_matmul(add, mul, d), one, at=gens).swapaxes(0, 1)


def _assert_full_table(at_dist, rho_bar, A):
    """Definitive check that the values of the (#t, lifts, d, d) stack
    `at_dist` at Gamma's distinguished generators t are those of
    homomorphisms Gamma -> GL_d(A) reducing to rho_bar: every relator of
    Gamma's presentation holds on them (`violated_relators`), so by von
    Dyck's theorem each extends to a homomorphism phi, and each reduces mod
    m_A to rho_bar at the t (`gen_mats`), so phi mod m_A, which agrees with
    rho_bar on generators, is rho_bar.  The relators of Gamma = K x| G come
    from K and G, not from any spanning tree.  Products are batched over
    the lifts and the words, one per word depth of the relator trie
    (`FiniteGroup.relator_values`) past the first."""
    group, d = rho_bar.group, rho_bar.degree
    add, mul, _ = A.tables()
    one = np.broadcast_to(_identity(A, d), at_dist.shape[1:])
    bad = violated_relators(group, at_dist, _stack_matmul(add, mul, d), one)
    if bad:
        u, v = bad[0]
        raise OracleError(f"lift is not a homomorphism: relator {u} = {v} fails")
    res = A.elements()[:, 0] % A.p
    if (res[at_dist] != rho_bar.gen_mats[:, None] % A.p).any():
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
    add, mul, _ = A.tables()
    maximal, d = _maximal(A), rho_bar.degree
    keys = _lift_keys(lifts, A.size)
    by_key = np.argsort(keys)
    keys = keys[by_key]
    U = _candidates_for_generator(_identity(A, d), maximal, add, d)
    Uinv = _kernel_inverses(A, U)[:, None]
    matmul = _stack_matmul(add, mul, d)
    ngen = lifts.shape[1]
    U = U[:, None]
    key_class = np.full(len(lifts), -1)
    reps = []
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
    order = np.argsort([str(r) for r in reps], kind="stable")
    reps = [reps[int(i)] for i in order]
    return DeformationClassSet(reps, keys, np.argsort(order)[key_class], A.size)


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


def functor_compare(asm: Assembly, rho_r: RhoR, A: ArtinLocalAlgebra) -> FunctorReport:
    """Desk-scale universality: map each local W-algebra hom R -> A to the
    class of the pushed-forward lift and check the correspondence is a
    bijection onto the deformation classes.

    The lifts are given by their values at `gens`, the group's
    `small_generating_set`, on which the classes and the report are keyed;
    rho_R there extends its checked `gen_values` by the lifts' walk, and the
    pushed-forward lifts are looked up among them by their keys
    (`DeformationClassSet.class_of`)."""
    t0 = time.monotonic()
    p, n, N = asm.p, asm.n, asm.N
    if A.p != p:
        raise OracleError("test ring has the wrong residue characteristic")
    if A.reduce(A.one.astype(object) * p**N).any():
        raise OracleError(
            f"precision insufficient: 1 has additive order > p^{N} in {A.name}; raise N"
        )
    rho_bar = asm.rho_bar
    gens = rho_bar.group.small_generating_set()
    lifts = enumerate_lifts(rho_bar, A, gens)
    classes = deformation_classes(rho_bar, A, lifts)
    homs = count_homs_from_R(n, A)
    # rho_R at the generators over R; t -> x sends w + t u to w 1 + u x in A
    R = asm.ring
    at_gens = asm.gamma.extend(rho_r.gen_values, R.matmul, R.identity(rho_bar.degree), at=gens)[None]
    at_gens = at_gens.astype(object)
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
