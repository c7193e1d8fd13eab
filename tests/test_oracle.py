from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest

from defring import kernels
from defring.certify import (
    InstanceSpec,
    assemble,
    build_rho_R,
    find_alpha,
    parse_instance_name,
)
from defring.cohomology import h1_dim
from defring.localalg import (
    AlgMatrix,
    cyclic_ring,
    dual_numbers,
    standard_rings,
)
from defring.modrep import end_rep
from defring.oracle import (
    LiftAssignment,
    OracleError,
    _assert_full_table,
    _candidates_for_generator,
    _identity,
    _kernel_inverses,
    deformation_classes,
    enumerate_lifts,
    functor_compare,
)


def s4_assembly():
    return assemble(InstanceSpec("twisted", 2, 1))


def test_trivial_ring_extension_single_lift():
    asm = s4_assembly()
    F2 = cyclic_ring(2, 1)
    lifts = enumerate_lifts(asm.rho_bar, F2)
    assert len(lifts) == 1
    classes = deformation_classes(asm.rho_bar, F2, lifts)
    assert classes.class_count == 1


def test_dual_numbers_class_count_matches_tangent():
    asm = s4_assembly()
    A = dual_numbers(2)
    lifts = enumerate_lifts(asm.rho_bar, A)
    classes = deformation_classes(asm.rho_bar, A, lifts)
    h1 = h1_dim(end_rep(asm.rho_bar))
    assert classes.class_count == 2**h1 == 2
    # orbit sizes divide the conjugating group order
    for size in classes.sizes:
        assert len(A.maximal_ideal()) ** 4 % size == 0


def test_z4_class_count():
    asm = s4_assembly()
    A = cyclic_ring(2, 2)
    lifts = enumerate_lifts(asm.rho_bar, A)
    classes = deformation_classes(asm.rho_bar, A, lifts)
    assert classes.class_count == 2


def test_class_count_independent_of_generating_set():
    asm = s4_assembly()
    A = dual_numbers(2)
    gamma = asm.gamma
    first = gamma.small_generating_set()
    second = _second_generating_set(gamma)
    c1 = deformation_classes(asm.rho_bar, A, enumerate_lifts(asm.rho_bar, A, first))
    c2 = deformation_classes(asm.rho_bar, A, enumerate_lifts(asm.rho_bar, A, second))
    assert c1.class_count == c2.class_count == 2


def test_guard_violation():
    asm = s4_assembly()
    A = standard_rings(2)["Z4u"]
    # four generators blow past the default guard of 1e8: 4^(4*4*...)
    gens = tuple(asm.gamma.generators)  # 4 generators
    with pytest.raises(OracleError):
        enumerate_lifts(asm.rho_bar, A, gens)


def test_functor_compare_all_five_rings():
    asm = s4_assembly()
    cb = find_alpha(asm)
    rho_r = build_rho_R(asm, cb.alpha)
    expected_classes = {"dual": 2, "Z4": 2, "F2t3": 2, "Z8": 2, "Z4u": 4}
    for name, A in standard_rings(2).items():
        report = functor_compare(asm, rho_r, A)
        assert report.bijective, name
        assert report.class_count == expected_classes[name], name
        assert report.hom_count == expected_classes[name], name


def test_functor_compare_t_to_zero_hom():
    # the hom with x = 0 maps to the class of rho_W pushed to A
    asm = s4_assembly()
    cb = find_alpha(asm)
    rho_r = build_rho_R(asm, cb.alpha)
    A = cyclic_ring(2, 2)
    report = functor_compare(asm, rho_r, A)
    assert report.hom_to_class[0] in range(report.class_count)
    # distinct homs give distinct classes (injectivity direction)
    assert len(set(report.hom_to_class)) == report.hom_count


def test_precision_check():
    asm = s4_assembly()
    cb = find_alpha(asm)
    rho_r = build_rho_R(asm, cb.alpha)
    A = cyclic_ring(2, 4)  # Z/16: 1 has additive order 16 > 2^3
    with pytest.raises(OracleError):
        functor_compare(asm, rho_r, A)


def test_precision_override_fixes_large_ring():
    # Z/16 needs W-precision 2^4; the default n+2 = 3 is insufficient, an
    # explicit override N = 4 makes the comparison run (and stay bijective)
    from defring.certify import InstanceSpec, assemble, build_rho_R, find_alpha

    asm = assemble(InstanceSpec("twisted", 2, 1, N=4))
    cb = find_alpha(asm)
    rho_r = build_rho_R(asm, cb.alpha)
    A = cyclic_ring(2, 4)
    report = functor_compare(asm, rho_r, A)
    assert report.bijective
    assert report.class_count == report.hom_count == 2


def test_functor_compare_p3_dual_numbers():
    # a different residue characteristic: the order-144 instance over
    # F_3[eps] must give p^(h1) = 3 classes in bijection with the homs
    from defring.certify import InstanceSpec, assemble, build_rho_R, find_alpha
    from defring.localalg import dual_numbers

    asm = assemble(InstanceSpec("twisted", 3, 1))
    assert asm.gamma.order == 144
    cb = find_alpha(asm)
    rho_r = build_rho_R(asm, cb.alpha)
    report = functor_compare(asm, rho_r, dual_numbers(3))
    assert report.bijective
    assert report.class_count == report.hom_count == 3


# ---------------------------------------------------------------------------
# The order prefilter and the batched checks lose nothing
# ---------------------------------------------------------------------------


def _second_generating_set(group):
    """The first generating tuple after small_generating_set, scanning
    element indices."""
    first = group.small_generating_set()
    for combo in combinations(range(1, group.order), len(first)):
        if combo != tuple(first) and group.generates(combo):
            return combo
    raise AssertionError("no second generating set")


def _coset(A, base):
    """Every matrix over A reducing to the F_p matrix base, in the order of
    the oracle's candidates: entry (0, 0) varies fastest."""
    d = base.shape[0]
    m = [A.encode(x) for x in A.maximal_ideal()]
    lift = [A.encode(A.from_int(int(v))) for v in base.reshape(-1)]
    add = A.tables()[0]
    out = []
    for digits in product(range(len(m)), repeat=d * d):
        out.append([add[lift[pos], m[digits[d * d - 1 - pos]]] for pos in range(d * d)])
    return np.array(out, dtype=np.int64).reshape(-1, d, d)


def _homomorphic(rho_bar, A, gens, images):
    """Indices of the assignments (one (B, d, d) stack per generator) whose
    extension satisfies value(g) value(h) = value(gh) on all pairs of Gamma."""
    group, d = rho_bar.group, rho_bar.degree
    add, mul, _, _ = A.tables()
    eye = np.array(
        [[A.encode(A.one if i == j else A.zero) for j in range(d)] for i in range(d)]
    )
    values = {0: np.broadcast_to(eye, images[0].shape)}
    frontier = [0]
    while frontier:
        e = frontier.pop(0)
        for s, im in zip(gens, images):
            h = group.mul(e, s)
            if h not in values:
                values[h] = kernels.table_matmul(values[e], im, add, mul)
                frontier.append(h)
    assert len(values) == group.order
    alive = np.arange(len(images[0]))
    for g, h in product(range(group.order), repeat=2):
        prod = kernels.table_matmul(values[g], values[h], add, mul)
        ok = (prod == values[group.mul(g, h)]).all(axis=(1, 2))
        if not ok.all():
            alive = alive[ok]
            values = {e: v[ok] for e, v in values.items()}
    return alive


def _reference_lifts(rho_bar, A, gens):
    """The unpruned product of the reduction cosets, in lexicographic order,
    filtered by the all-pairs predicate."""
    cosets = [_coset(A, rho_bar.mats[s] % rho_bar.p) for s in gens]
    grid = np.meshgrid(*(np.arange(len(c)) for c in cosets), indexing="ij")
    images = [c[i.reshape(-1)] for c, i in zip(cosets, grid)]
    return [
        tuple(tuple(im[i].reshape(-1).tolist()) for im in images)
        for i in _homomorphic(rho_bar, A, gens, images)
    ]


@pytest.mark.parametrize(
    "instance,ring,which",
    [("twisted-p2n1", r, w) for r in ("dual", "Z4", "Z8", "F2t3") for w in (0, 1)]
    + [("twisted-p2n2", "dual", 0)]
    # three generators: here the deepest tree level carries equations that
    # the shallower levels do not imply
    + [("twisted-p2n1", r, (1, 3, 6)) for r in ("dual", "Z4")],
)
def test_pruned_enumeration_matches_unpruned_reference(instance, ring, which):
    asm = assemble(parse_instance_name(instance))
    A = standard_rings(2)[ring]
    group = asm.rho_bar.group
    if isinstance(which, tuple):
        gens = which
    else:
        gens = group.small_generating_set() if which == 0 else _second_generating_set(group)
    gens = tuple(int(g) for g in gens)
    expected = _reference_lifts(asm.rho_bar, A, gens)
    got = [l.images for l in enumerate_lifts(asm.rho_bar, A, gens)]
    assert expected and got == expected


def _kernel_codes(A, d):
    """1 + M_d(m_A) as the oracle lists it: the coded coset of the identity."""
    maximal = [A.encode(x) for x in A.maximal_ideal()]
    return _candidates_for_generator(_identity(A, d), maximal, A.tables()[0], d)


@pytest.mark.parametrize(
    "A", list(standard_rings(2).values()) + [dual_numbers(3)], ids=lambda A: A.name
)
def test_batched_kernel_inverses_match_algmatrix_inverse(A):
    U = _kernel_codes(A, 2)
    kerm = [AlgMatrix(A, 2, tuple(map(A.decode, u.reshape(-1).tolist()))) for u in U]
    assert len(set(kerm)) == len(A.maximal_ideal()) ** 4
    expected = np.array([u.inverse().encode() for u in kerm]).reshape(-1, 2, 2)
    assert (_kernel_inverses(A, U) == expected).all()


def test_kernel_inverses_raise_on_a_singular_matrix():
    A = dual_numbers(2)
    U = _kernel_codes(A, 2)
    one, zero = A.encode(A.one), A.encode(A.zero)
    singular = np.array([[[one, zero], [zero, zero]]])
    with pytest.raises(OracleError, match="did not converge"):
        _kernel_inverses(A, np.concatenate([U, singular]))


@pytest.mark.parametrize("ring", ["dual", "Z8"])
def test_full_table_check_catches_a_relation_broken_inside_m_A(ring):
    asm = s4_assembly()
    A = standard_rings(2)[ring]
    lifts = enumerate_lifts(asm.rho_bar, A)
    _assert_full_table(lifts, asm.rho_bar, A)
    valid = {l.images for l in lifts}
    add = A.tables()[0]
    m = A.encode(A.maximal_ideal()[1])  # a nonzero element of m_A
    bad = None
    for l in lifts:
        for si, pos in product(range(len(l.images)), range(4)):
            images = [list(im) for im in l.images]
            images[si][pos] = int(add[images[si][pos], m])
            images = tuple(tuple(im) for im in images)
            if images not in valid:
                bad = LiftAssignment(l.generators, images)
                break
        if bad is not None:
            break
    # same reduction, but not a lift: some relation of Gamma fails
    assert bad is not None
    stacks = [np.array(im).reshape(1, 2, 2) for im in bad.images]
    assert len(_homomorphic(asm.rho_bar, A, bad.generators, stacks)) == 0
    corrupted = lifts[: len(lifts) // 2] + [bad] + lifts[len(lifts) // 2 :]
    with pytest.raises(OracleError, match="not a homomorphism"):
        _assert_full_table(corrupted, asm.rho_bar, A)


def _assignment_on(gens, lift, rho_bar, A):
    """The images on `gens` of the homomorphism that `lift` extends to."""
    add, mul, _, _ = A.tables()
    d = rho_bar.degree
    blocks = [np.array(im).reshape(d, d) for im in lift.images]
    M = rho_bar.group.extend(
        blocks, lambda a, b: kernels.table_matmul(a, b, add, mul), _identity(A, d), lift.generators
    )
    return [M[g].reshape(-1).tolist() for g in gens]


@pytest.mark.parametrize("ring", ["dual", "Z8"])
def test_full_table_check_needs_both_the_relators_and_the_extension(ring):
    asm = s4_assembly()
    A = standard_rings(2)[ring]
    gamma, rho_bar = asm.gamma, asm.rho_bar
    lift = enumerate_lifts(rho_bar, A)[-1]
    add = A.tables()[0]
    m = A.encode(A.maximal_ideal()[1])

    def corrupted(gens, si):
        images = _assignment_on(gens, lift, rho_bar, A)
        _assert_full_table([LiftAssignment(gens, tuple(map(tuple, images)))], rho_bar, A)
        for pos in range(4):
            bad = [list(im) for im in images]
            bad[si][pos] = int(add[bad[si][pos], m])
            stacks = [np.array(im).reshape(1, 2, 2) for im in bad]
            if len(_homomorphic(rho_bar, A, gens, stacks)) == 0:
                return LiftAssignment(gens, tuple(map(tuple, bad)))
        raise AssertionError("every corruption is a lift")

    # on the distinguished generators both extensions are the same, so
    # only the relators can reject the corrupted lift
    dist = tuple(gamma.generators)
    with pytest.raises(OracleError, match="relator"):
        _assert_full_table([corrupted(dist, 0)], rho_bar, A)
    # a corrupted extra generator leaves the distinguished images (and so
    # every relator) intact; comparing the two extensions rejects it
    extra = next(e for e in range(1, gamma.order) if e not in dist)
    with pytest.raises(OracleError, match="extension differs"):
        _assert_full_table([corrupted(dist + (extra,), len(dist))], rho_bar, A)


@pytest.mark.parametrize("ring", ["F3t3", "Z27"])
def test_functor_compare_p3_rings_of_length_three(ring):
    asm = assemble(InstanceSpec("twisted", 3, 1))
    rho_r = build_rho_R(asm, find_alpha(asm).alpha)
    report = functor_compare(asm, rho_r, standard_rings(3)[ring])
    assert (report.lift_count, report.class_count, report.hom_count) == (2187, 3, 3)
    assert report.bijective


def test_full_table_check_rejects_a_homomorphism_of_another_reduction():
    # the trivial representation is a homomorphism, but rho_bar is not trivial
    asm = s4_assembly()
    A = dual_numbers(2)
    gens = tuple(asm.gamma.small_generating_set())
    eye = tuple(_identity(A, 2).reshape(-1).tolist())
    with pytest.raises(OracleError, match="does not reduce"):
        _assert_full_table([LiftAssignment(gens, (eye,) * len(gens))], asm.rho_bar, A)


# ---------------------------------------------------------------------------
# The vectorised class partition against the per-lift orbit loop
# ---------------------------------------------------------------------------


def _reference_classes(rho_bar, A, lifts):
    """The per-lift orbit loop the vectorised `deformation_classes`
    replaced: conjugate each unclassified lift by every matrix of
    1 + M_d(m_A), listed entry by entry, one generator at a time, and
    collect the orbit as a set of tuples."""
    add, mul, _, _ = A.tables()
    d = rho_bar.degree
    eye = _identity(A, d).reshape(-1)
    maximal = [A.encode(x) for x in A.maximal_ideal()]
    U = np.array(
        [[add[e, x] for e, x in zip(eye, deltas)] for deltas in product(maximal, repeat=d * d)],
        dtype=np.int64,
    ).reshape(-1, d, d)
    Uinv = _kernel_inverses(A, U)
    keys = {l.key() for l in lifts}
    class_of, reps, sizes = {}, [], []
    for l in lifts:
        if l.key() in class_of:
            continue
        conj = [
            kernels.table_matmul(
                kernels.table_matmul(U, np.broadcast_to(np.reshape(im, (1, d, d)), U.shape), add, mul),
                Uinv,
                add,
                mul,
            )
            for im in l.images
        ]
        orbit = {tuple(tuple(c[i].reshape(-1).tolist()) for c in conj) for i in range(len(U))}
        if not orbit <= keys:
            raise OracleError("conjugate of a lift is not a lift (internal error)")
        for key in orbit:
            class_of[key] = len(reps)
        reps.append(min(orbit))
        sizes.append(len(orbit))
    order = np.argsort([str(r) for r in reps], kind="stable")
    remap = {int(old): new for new, old in enumerate(order)}
    return (
        [reps[int(i)] for i in order],
        [sizes[int(i)] for i in order],
        {k: remap[v] for k, v in class_of.items()},
    )


_CLASS_ROWS = (
    [(inst, ring) for inst in ("twisted-p2n1", "standard-d2p2") for ring in ("dual", "Z4", "Z8", "F2t3", "Z4u")]
    + [("twisted-p3n1", r) for r in ("dual", "Z9", "F3t3", "Z27", "Z9u")]
    + [("twisted-p2n2", "dual"), ("twisted-p2n2", "Z4")]
)


@lru_cache(maxsize=None)
def _lifts_of(instance, ring):
    asm = assemble(parse_instance_name(instance))
    A = standard_rings(asm.p)[ring]
    return asm.rho_bar, A, enumerate_lifts(asm.rho_bar, A)


@pytest.mark.parametrize("instance,ring", _CLASS_ROWS)
def test_deformation_classes_match_the_per_lift_orbit_loop(instance, ring):
    rho_bar, A, lifts = _lifts_of(instance, ring)
    got = deformation_classes(rho_bar, A, lifts)
    reps, sizes, class_of = _reference_classes(rho_bar, A, lifts)
    assert got.representatives == reps
    assert got.sizes == sizes
    assert got.class_of == class_of
    assert got.lift_count == len(lifts) == sum(sizes)


@pytest.mark.parametrize("instance,ring", [("twisted-p2n1", "Z4u"), ("twisted-p3n1", "Z9")])
def test_deformation_classes_refuse_a_list_missing_a_lift(instance, ring):
    rho_bar, A, lifts = _lifts_of(instance, ring)
    classes = deformation_classes(rho_bar, A, lifts)
    # drop a lift whose orbit has other members: one of them reaches it
    drop = next(
        i for i, l in enumerate(lifts) if classes.sizes[classes.class_of[l.key()]] > 1
    )
    partial = lifts[:drop] + lifts[drop + 1 :]
    with pytest.raises(OracleError, match="conjugate of a lift is not a lift"):
        deformation_classes(rho_bar, A, partial)
    with pytest.raises(OracleError, match="conjugate of a lift is not a lift"):
        _reference_classes(rho_bar, A, partial)
