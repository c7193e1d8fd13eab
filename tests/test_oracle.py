from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defring import kernels, oracle
from defring.certify import (
    AlphaMap,
    InstanceSpec,
    _injective_commutative_alpha,
    assemble,
    build_rho_R,
    find_alpha,
    parse_instance_name,
)
from defring.cohomology import h1_dim
from defring.groups import FiniteGroup
from defring.localalg import (
    _monogenic,
    cyclic_ring,
    dual_numbers,
    standard_rings,
)
from defring.modrep import end_rep
from defring.oracle import (
    OracleError,
    _assert_full_table,
    _candidates_for_generator,
    _identity,
    _kernel_inverses,
    _lift_keys,
    _stack_matmul,
    deformation_classes,
    enumerate_lifts,
    functor_compare,
)

from reference import AlgMatrix, ScalarAlgebra, inverse


def s4_assembly():
    return assemble(InstanceSpec("twisted", 2, 1))


def _values_at(group, A, gen_blocks, gens, at):
    """The values at the elements `at` of the homomorphisms with images
    `gen_blocks`, a (#gens, lifts, d, d) stack, at `gens`: the products of
    the images along the words of `at` in the spanning tree of `gens`."""
    add, mul, _ = A.tables()
    d = gen_blocks.shape[-1]
    one = np.broadcast_to(_identity(A, d), gen_blocks.shape[1:])
    return FiniteGroup(group.table, gens).extend(gen_blocks, _stack_matmul(add, mul, d), one, at=at)


def _full_table(lifts, gens, rho_bar, A):
    """`_assert_full_table` on the lifts' own values at Gamma's
    distinguished generators, read off along the spanning tree of `gens`."""
    group = rho_bar.group
    _assert_full_table(_values_at(group, A, lifts.transpose(1, 0, 2, 3), gens, group.generators), rho_bar, A)


def _orbit_sizes(classes):
    """The number of classified lifts in each class."""
    return np.bincount(classes.key_class, minlength=classes.class_count)


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
    for size in _orbit_sizes(classes):
        assert len(ScalarAlgebra.of(A).maximal_ideal()) ** 4 % size == 0


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


def test_guard_violation(monkeypatch):
    asm = s4_assembly()
    A = standard_rings(2)["Z4u"]
    # one layer, m_A itself: 256 lifts, whose relator check on the codes
    # holds per lift and entry (d^2 = 4) an int64 for each of the 10
    # relators and six for each of the 14 words' prefixes of length 2
    held = 256 * 4 * 8 * (10 + 6 * 14)
    monkeypatch.setattr(oracle, "LIFT_BUDGET", held - 1)
    refusal = f"^256 lifts over Z4\\[u\\] .* holds {held} bytes, past the budget {held - 1}$"
    with pytest.raises(OracleError, match=refusal):
        enumerate_lifts(asm.rho_bar, A)
    monkeypatch.setattr(oracle, "LIFT_BUDGET", held)
    assert len(enumerate_lifts(asm.rho_bar, A)) == 256


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
    S = ScalarAlgebra.of(A)
    m = [S.encode(x) for x in S.maximal_ideal()]
    lift = [S.encode(S.from_int(int(v))) for v in base.reshape(-1)]
    add = A.tables()[0]
    out = []
    for digits in product(range(len(m)), repeat=d * d):
        out.append([add[lift[pos], m[digits[d * d - 1 - pos]]] for pos in range(d * d)])
    return np.array(out, dtype=np.int64).reshape(-1, d, d)


def _homomorphic(rho_bar, A, gens, images):
    """Indices of the assignments (one (B, d, d) stack per generator) whose
    extension satisfies value(g) value(h) = value(gh) on all pairs of Gamma."""
    group, d = rho_bar.group, rho_bar.degree
    add, mul, _ = A.tables()
    S = ScalarAlgebra.of(A)
    eye = np.array(
        [[S.encode(S.one if i == j else S.zero) for j in range(d)] for i in range(d)]
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


def _tuples(lifts):
    """The lifts of a (lifts, #gens, d, d) stack as tuples of d*d codes per
    generator."""
    return [tuple(map(tuple, lift.reshape(len(lift), -1).tolist())) for lift in lifts]


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
    + [("twisted-p2n1", r, (1, 3, 6)) for r in ("dual", "Z4")]
    # a layer with k = 2: m / m^2 = <2, u>, solved as two slices of Lbar
    + [("twisted-p2n1", "Z4u", 0)],
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
    got = _tuples(enumerate_lifts(asm.rho_bar, A, gens))
    assert expected and sorted(got) == sorted(expected)


def _kernel_codes(A, d):
    """1 + M_d(m_A) as the oracle lists it: the coded coset of the identity."""
    S = ScalarAlgebra.of(A)
    maximal = [S.encode(x) for x in S.maximal_ideal()]
    return _candidates_for_generator(_identity(A, d), maximal, A.tables()[0], d)


@pytest.mark.parametrize(
    "A", list(standard_rings(2).values()) + [dual_numbers(3)], ids=lambda A: A.name
)
def test_batched_kernel_inverses_match_algmatrix_inverse(A):
    U = _kernel_codes(A, 2)
    S = ScalarAlgebra.of(A)
    kerm = [AlgMatrix(S, 2, tuple(map(S.decode, u.reshape(-1).tolist()))) for u in U]
    assert len(set(kerm)) == len(S.maximal_ideal()) ** 4
    expected = np.array([[S.encode(x) for x in inverse(u).entries] for u in kerm]).reshape(-1, 2, 2)
    assert (_kernel_inverses(A, U) == expected).all()


def test_kernel_inverses_raise_on_a_singular_matrix():
    A = dual_numbers(2)
    U = _kernel_codes(A, 2)
    S = ScalarAlgebra.of(A)
    one, zero = S.encode(S.one), S.encode(S.zero)
    singular = np.array([[[one, zero], [zero, zero]]])
    with pytest.raises(OracleError, match="did not converge"):
        _kernel_inverses(A, np.concatenate([U, singular]))


@pytest.mark.parametrize("ring", ["dual", "Z8"])
def test_full_table_check_catches_a_relation_broken_inside_m_A(ring):
    asm = s4_assembly()
    A = standard_rings(2)[ring]
    gens = tuple(asm.gamma.generators)  # the check's own values are tampered
    lifts = enumerate_lifts(asm.rho_bar, A, gens)
    _full_table(lifts, gens, asm.rho_bar, A)
    valid = {lift.tobytes() for lift in lifts}
    add = A.tables()[0]
    S = ScalarAlgebra.of(A)
    m = S.encode(S.maximal_ideal()[1])  # a nonzero element of m_A
    bad = None
    for lift in lifts:
        for si, i, j in product(range(len(gens)), range(2), range(2)):
            images = lift.copy()
            images[si, i, j] = add[images[si, i, j], m]
            if images.tobytes() not in valid:
                bad = images
                break
        if bad is not None:
            break
    # same reduction, but not a lift: some relation of Gamma fails
    assert bad is not None
    assert len(_homomorphic(asm.rho_bar, A, gens, list(bad[:, None]))) == 0
    half = len(lifts) // 2
    corrupted = np.concatenate([lifts[:half], bad[None], lifts[half:]])
    with pytest.raises(OracleError, match="not a homomorphism"):
        _full_table(corrupted, gens, asm.rho_bar, A)


def _assignment_on(gens, lift, lift_gens, rho_bar, A):
    """The (#gens, d, d) images on `gens` of the homomorphism that `lift`,
    its images at `lift_gens`, extends to."""
    add, mul, _ = A.tables()
    d = rho_bar.degree
    M = FiniteGroup(rho_bar.group.table, lift_gens).extend(
        list(lift), lambda a, b: kernels.table_matmul(a, b, add, mul), _identity(A, d)
    )
    return np.array([M[g] for g in gens])


@pytest.mark.parametrize("ring", ["dual", "Z8"])
def test_full_table_check_rejects_by_its_relators_a_lift_moved_at_one_generator(ring):
    asm = s4_assembly()
    A = standard_rings(2)[ring]
    gamma, rho_bar = asm.gamma, asm.rho_bar
    walked = gamma.small_generating_set()
    lift = enumerate_lifts(rho_bar, A, walked)[-1]
    add = A.tables()[0]
    S = ScalarAlgebra.of(A)
    m = S.encode(S.maximal_ideal()[1])

    def corrupted(gens, si):
        """A one-lift stack at `gens`: the lift with one entry of its
        image at gens[si] moved by m, which is then no lift."""
        images = _assignment_on(gens, lift, walked, rho_bar, A)
        _full_table(images[None], gens, rho_bar, A)
        for i, j in product(range(2), repeat=2):
            bad = images.copy()
            bad[si, i, j] = add[bad[si, i, j], m]
            if len(_homomorphic(rho_bar, A, gens, list(bad[:, None]))) == 0:
                return bad[None]
        raise AssertionError("every corruption is a lift")

    # the reduction is unchanged, so only the relators can reject it
    dist = tuple(gamma.generators)
    for si in range(len(dist)):
        with pytest.raises(OracleError, match="relator"):
            _full_table(corrupted(dist, si), dist, rho_bar, A)


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
    trivial = np.broadcast_to(_identity(A, 2), (1, len(gens), 2, 2))
    with pytest.raises(OracleError, match="does not reduce"):
        _full_table(trivial, gens, asm.rho_bar, A)


# ---------------------------------------------------------------------------
# The vectorised class partition against the per-lift orbit loop
# ---------------------------------------------------------------------------


def _reference_classes(rho_bar, A, lifts):
    """The per-lift orbit loop the vectorised `deformation_classes`
    replaced: conjugate each unclassified lift by every matrix of
    1 + M_d(m_A), listed entry by entry, one generator at a time, and
    collect the orbit as a set of tuples.  The classes map the int64 bytes
    of each lift to its class."""
    add, mul, _ = A.tables()
    d = rho_bar.degree
    eye = _identity(A, d).reshape(-1)
    S = ScalarAlgebra.of(A)
    maximal = [S.encode(x) for x in S.maximal_ideal()]
    U = np.array(
        [[add[e, x] for e, x in zip(eye, deltas)] for deltas in product(maximal, repeat=d * d)],
        dtype=np.int64,
    ).reshape(-1, d, d)
    Uinv = _kernel_inverses(A, U)
    keys = set(_tuples(lifts))
    class_of, reps, sizes = {}, [], []
    for key, l in zip(_tuples(lifts), lifts):
        if key in class_of:
            continue
        conj = [
            kernels.table_matmul(
                kernels.table_matmul(U, np.broadcast_to(np.reshape(im, (1, d, d)), U.shape), add, mul),
                Uinv,
                add,
                mul,
            )
            for im in l
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
        {np.array(k, dtype=np.int64).tobytes(): remap[v] for k, v in class_of.items()},
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
    assert _orbit_sizes(got).tolist() == sizes
    assert len(got.keys) == len(class_of)
    assert got.class_of(lifts).tolist() == [class_of[lift.tobytes()] for lift in lifts]
    assert len(lifts) == sum(sizes)


@pytest.mark.parametrize("instance,ring", [("twisted-p2n1", "Z4u"), ("twisted-p3n1", "Z9")])
def test_deformation_classes_refuse_a_list_missing_a_lift(instance, ring):
    rho_bar, A, lifts = _lifts_of(instance, ring)
    classes = deformation_classes(rho_bar, A, lifts)
    # drop a lift whose orbit has other members: one of them reaches it
    drop = int(np.flatnonzero(_orbit_sizes(classes)[classes.class_of(lifts)] > 1)[0])
    partial = np.delete(lifts, drop, axis=0)
    with pytest.raises(OracleError, match="conjugate of a lift is not a lift"):
        deformation_classes(rho_bar, A, partial)
    with pytest.raises(OracleError, match="conjugate of a lift is not a lift"):
        _reference_classes(rho_bar, A, partial)


# ---------------------------------------------------------------------------
# Lifts at any generating pair, reported at the report generators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _oracle_inputs(instance):
    asm = assemble(parse_instance_name(instance))
    return asm, build_rho_R(asm, find_alpha(asm).alpha)


@lru_cache(maxsize=None)
def _generating_pairs(instance):
    group = _oracle_inputs(instance)[0].gamma
    return [c for c in combinations(range(1, group.order), 2) if group.generates(c)]


def _report(asm, rho_r, A, walked=None):
    """`functor_compare`'s JSON without runtime_ms; with `walked`, on the
    lifts enumerated at `walked` and moved to the report generators along
    the spanning tree of `walked`."""
    if walked is None:
        report = functor_compare(asm, rho_r, A)
    else:
        gens = asm.gamma.small_generating_set()
        blocks = enumerate_lifts(asm.rho_bar, A, walked).transpose(1, 0, 2, 3)
        moved = _values_at(asm.gamma, A, blocks, walked, gens).transpose(1, 0, 2, 3)
        with mock.patch.object(oracle, "enumerate_lifts", lambda rho_bar, A, gens: moved):
            report = functor_compare(asm, rho_r, A)
    out = report.to_json_dict()
    out.pop("runtime_ms")
    return out


@pytest.mark.parametrize("instance", ["twisted-p2n1", "standard-d2p2"])
@pytest.mark.parametrize("ring", ["dual", "Z4", "Z8"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_lifts_walked_on_any_generating_pair_are_the_lifts_at_the_report_generators(instance, ring, data):
    asm, rho_r = _oracle_inputs(instance)
    rho_bar, A = asm.rho_bar, standard_rings(2)[ring]
    gens = asm.gamma.small_generating_set()
    walked = data.draw(st.sampled_from(_generating_pairs(instance)))
    direct = enumerate_lifts(rho_bar, A, gens)
    blocks = enumerate_lifts(rho_bar, A, walked).transpose(1, 0, 2, 3)
    moved = _values_at(asm.gamma, A, blocks, walked, gens).transpose(1, 0, 2, 3)
    assert moved.dtype == direct.dtype == np.int64
    assert len(moved) == len(direct)
    assert {lift.tobytes() for lift in moved} == {lift.tobytes() for lift in direct}
    assert _report(asm, rho_r, A, walked) == _report(asm, rho_r, A, gens)


@pytest.mark.parametrize("ring", ["dual", "Z4", "Z8", "F2t3", "Z4u"])
def test_functor_compare_report_is_the_report_walked_on_gens(ring):
    asm, rho_r = _oracle_inputs("standard-d2p2")
    A = standard_rings(2)[ring]
    assert _report(asm, rho_r, A) == _report(asm, rho_r, A, asm.gamma.small_generating_set())


# (a's leading shape, b's leading shape) of the products the oracle makes,
# from drawn sizes (L, B, g)
FOLDED = {
    "rows and columns folded at once": lambda L, B, g: ((L, 1, B), (g, B)),
    "1 + M_d(m_A) by a lift's images": lambda L, B, g: ((L, 1), (g,)),
    "a conjugate stack by the inverses": lambda L, B, g: ((L, g), (L, 1)),
    "equal shapes, in the extensions and the relator checks": lambda L, B, g: ((L, B), (L, B)),
}


@settings(max_examples=80, deadline=None)
@given(
    fold=st.sampled_from(sorted(FOLDED)),
    sizes=st.tuples(*[st.integers(0, 4)] * 3),
    d=st.integers(1, 3),
    ring=st.sampled_from([(2, "Z4u"), (2, "F2t3"), (3, "dual"), (3, "Z27")]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_matmul_folds_match_the_product_on_broadcast_copies(fold, sizes, d, ring, seed):
    p, name = ring
    A = standard_rings(p)[name]
    add, mul, _ = A.tables()
    lead_a, lead_b = FOLDED[fold](*sizes)
    rng = np.random.default_rng(seed)
    a = rng.integers(0, A.size, (*lead_a, d, d), dtype=np.int64)
    b = rng.integers(0, A.size, (*lead_b, d, d), dtype=np.int64)
    shape = (*np.broadcast_shapes(lead_a, lead_b), d, d)
    expected = kernels.table_matmul(
        np.broadcast_to(a, shape).reshape(-1, d, d), np.broadcast_to(b, shape).reshape(-1, d, d), add, mul
    ).reshape(shape)
    got = _stack_matmul(add, mul, d)(a, b)
    assert got.shape == shape
    assert (got == expected).all()


@pytest.mark.parametrize("instance,ring", [("twisted-p2n1", "Z4u"), ("twisted-p3n1", "dual")])
def test_functor_compare_calls_the_kernel_on_stacks_of_matrices(instance, ring, monkeypatch):
    # perfbench wraps `kernels.table_matmul` and counts its lookups as
    # batch x d x m x k from 3-d operands
    calls = []
    saved = kernels.table_matmul

    def record(a, b, add, mul):
        calls.append((np.shape(a), np.shape(b)))
        return saved(a, b, add, mul)

    monkeypatch.setattr(kernels, "table_matmul", record)
    asm, rho_r = _oracle_inputs(instance)
    assert functor_compare(asm, rho_r, standard_rings(asm.p)[ring]).bijective
    assert calls
    for shape_a, shape_b in calls:
        assert len(shape_a) == len(shape_b) == 3
        assert shape_a[0] == shape_b[0] and shape_a[2] == shape_b[1]


@pytest.mark.parametrize("instance,ring", [("twisted-p2n1", "Z4u"), ("standard-d2p2", "Z8"), ("twisted-p3n1", "dual")])
def test_enumerate_lifts_returns_an_int64_lift_major_stack(instance, ring):
    asm, rho_r = _oracle_inputs(instance)
    rho_bar, A = asm.rho_bar, standard_rings(asm.p)[ring]
    gens = asm.gamma.small_generating_set()
    d = rho_bar.degree
    lifts = enumerate_lifts(rho_bar, A, gens)
    assert lifts.dtype == np.int64
    assert lifts.shape == (len(lifts), len(gens), d, d) and len(lifts) > 0
    walked = enumerate_lifts(rho_bar, A, asm.gamma.generators)
    assert functor_compare(asm, rho_r, A).lift_count == len(walked) == len(lifts)


@pytest.mark.parametrize(
    "instance,ring",
    [("twisted-p2n1", "Z4u"), ("standard-d2p2", "Z4u"), ("twisted-p3n1", "Z9"), ("twisted-p2n1", "Z8")],
)
def test_the_lift_order_is_the_same_whatever_the_report_generators(instance, ring):
    # the lifts at Gamma's distinguished generators, extended to the report
    # generators, are the lifts at the report generators row by row
    asm, _ = _oracle_inputs(instance)
    rho_bar, A, group = asm.rho_bar, standard_rings(asm.p)[ring], asm.gamma
    gens = group.small_generating_set()
    assert tuple(gens) != tuple(group.generators)
    walked = enumerate_lifts(rho_bar, A, group.generators).transpose(1, 0, 2, 3)
    moved = _values_at(group, A, walked, group.generators, gens).transpose(1, 0, 2, 3)
    direct = enumerate_lifts(rho_bar, A, gens)
    assert len(direct) > 1 and moved.shape == direct.shape and (moved == direct).all()


@pytest.mark.parametrize("ngen", [1, 2, 3])
def test_an_empty_stack_of_lifts_is_checked_and_partitioned(ngen):
    asm = s4_assembly()
    rho_bar, A = asm.rho_bar, dual_numbers(2)
    gens = tuple(asm.gamma.generators)[:ngen]
    empty = np.empty((0, ngen, 2, 2), dtype=np.int64)
    no_values = np.empty((len(asm.gamma.generators), 0, 2, 2), dtype=np.int64)
    _assert_full_table(no_values, rho_bar, A)
    classes = deformation_classes(rho_bar, A, empty)
    assert (classes.representatives, _orbit_sizes(classes).tolist(), len(classes.keys)) == ([], [], 0)
    assert classes.class_of(empty).tolist() == []
    assert classes.class_of(np.broadcast_to(_identity(A, 2), (1, ngen, 2, 2))).tolist() == [-1]


def test_functor_compare_refuses_a_pushed_forward_lift_missing_from_the_lifts(monkeypatch):
    asm, rho_r = _oracle_inputs("twisted-p2n1")
    rho_bar, A = asm.rho_bar, standard_rings(2)["Z4"]
    gens = asm.gamma.small_generating_set()
    lifts = enumerate_lifts(rho_bar, A, gens)
    classes = deformation_classes(rho_bar, A, lifts)
    # drop the whole class of the hom t -> 0, so the rest still partitions
    zero_class = functor_compare(asm, rho_r, A).hom_to_class[0]
    kept = lifts[classes.class_of(lifts) != zero_class]
    assert 0 < len(kept) < len(lifts)
    monkeypatch.setattr(oracle, "enumerate_lifts", lambda rho_bar, A, gens: kept)
    with pytest.raises(OracleError, match="pushed-forward lift is not among the enumerated lifts"):
        functor_compare(asm, rho_r, A)


# ---------------------------------------------------------------------------
# The values handed to the relator check and the report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ring", ["dual", "Z4", "Z8", "F2t3", "Z4u"])
def test_the_walk_gives_the_values_at_the_report_and_the_distinguished_generators(ring, monkeypatch):
    asm, _ = _oracle_inputs("standard-d2p2")
    rho_bar, A, group = asm.rho_bar, standard_rings(2)[ring], asm.gamma
    gens = group.small_generating_set()
    walked = (1, 9)  # another generating pair, of elements of orders 2 and 3
    assert gens == (1, 8) and group.generates(walked)
    handed = []

    def record(at_dist, rho_bar, A):
        handed.append(at_dist)
        return _assert_full_table(at_dist, rho_bar, A)

    monkeypatch.setattr(oracle, "_assert_full_table", record)
    blocks = enumerate_lifts(rho_bar, A, walked).transpose(1, 0, 2, 3)
    at_gens = enumerate_lifts(rho_bar, A, gens).transpose(1, 0, 2, 3)
    assert at_gens.shape == blocks.shape
    moved = _values_at(group, A, blocks, walked, gens)
    assert (at_gens == moved).all()
    assert len(handed) == 2
    # the check sees the same values whatever the report generators are
    assert (handed[0] == handed[1]).all()
    for values, lifts, tup in zip(handed, (blocks, at_gens), (walked, gens)):
        at_dist = _values_at(group, A, lifts, tup, group.generators)
        assert values.shape == at_dist.shape and (values == at_dist).all()


@pytest.mark.parametrize("instance,ring", [("twisted-p2n1", "Z4"), ("standard-d2p2", "Z4u")])
def test_full_table_check_refuses_values_that_are_not_the_lifts(instance, ring):
    asm, _ = _oracle_inputs(instance)
    rho_bar, A, group = asm.rho_bar, standard_rings(2)[ring], asm.gamma
    walked = group.small_generating_set()
    lifts = enumerate_lifts(rho_bar, A, walked)
    at_dist = _values_at(group, A, lifts.transpose(1, 0, 2, 3), walked, group.generators)
    assert len(lifts) > 1 and tuple(walked) != tuple(group.generators)
    _assert_full_table(at_dist, rho_bar, A)
    # each lift handed the next one's value at the first distinguished
    # generator: same reduction, and a lift only if its values are a lift's
    valid = {v.tobytes() for v in at_dist.swapaxes(0, 1)}
    mixed = 0
    for i in range(len(lifts)):
        values = at_dist[:, [i]].copy()
        values[0] = at_dist[0, [(i + 1) % len(lifts)]]
        if values.swapaxes(0, 1)[0].tobytes() in valid:
            _assert_full_table(values, rho_bar, A)
            continue
        mixed += 1
        with pytest.raises(OracleError, match="not a homomorphism"):
            _assert_full_table(values, rho_bar, A)
    assert mixed
    # the identity at every distinguished generator: the trivial
    # homomorphism, which only the reduction check can reject
    identity = np.broadcast_to(_identity(A, 2), at_dist.shape)
    with pytest.raises(OracleError, match="does not reduce"):
        _assert_full_table(identity, rho_bar, A)


# ---------------------------------------------------------------------------
# One integer key per lift
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    size=st.sampled_from([2, 3, 4, 8, 9, 25, 27, 81]),
    ngen=st.integers(1, 64),
    d=st.integers(1, 2),
    rows=st.tuples(st.integers(1, 5), st.integers(0, 12)),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=2, ngen=62, d=1, rows=(3, 8), seed=0)  # 2^62: int64
@example(size=2, ngen=63, d=1, rows=(3, 8), seed=0)  # 2^63: Python ints
@example(size=3, ngen=39, d=1, rows=(3, 8), seed=1)  # 3^39 < 2^63 < 3^40
@example(size=3, ngen=40, d=1, rows=(3, 8), seed=1)
@example(size=25, ngen=4, d=2, rows=(5, 12), seed=2)  # twisted-p5n1's report: 25^16
def test_lift_keys_order_and_equality_are_those_of_the_rows(size, ngen, d, rows, seed):
    distinct, count = rows
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, size, (distinct, ngen, d, d), dtype=np.int64)
    pool[0] = size - 1  # the largest key
    lifts = pool[rng.integers(0, distinct, count)]
    keys = _lift_keys(lifts, size)
    assert keys.dtype == (np.int64 if size ** (ngen * d * d) < 2**63 else object)
    flat = lifts.reshape(count, ngen * d * d)
    assert np.argsort(keys, kind="stable").tolist() == np.lexsort(flat.T[::-1]).tolist()
    if count:
        by_key = np.unique(keys, return_inverse=True)[1].reshape(-1)
        by_row = np.unique(flat, axis=0, return_inverse=True)[1].reshape(-1)
        assert by_key.tolist() == by_row.tolist()
        top = keys[flat.sum(axis=1) == (size - 1) * flat.shape[1]]
        assert all(int(k) == size ** flat.shape[1] - 1 for k in top)


@pytest.mark.parametrize("ring", ["dual", "Z25"])
def test_object_keyed_classes_match_the_per_lift_orbit_loop(ring, monkeypatch):
    asm, rho_r = _oracle_inputs("twisted-p5n1")
    rho_bar, A = asm.rho_bar, standard_rings(5)[ring]
    gens = asm.gamma.small_generating_set()
    assert len(gens) == 4 and A.size ** (len(gens) * 4) >= 2**63
    lifts = enumerate_lifts(rho_bar, A, gens)
    assert _lift_keys(lifts, A.size).dtype == object
    classes = deformation_classes(rho_bar, A, lifts)
    reps, sizes, class_of = _reference_classes(rho_bar, A, lifts)
    assert (classes.representatives, _orbit_sizes(classes).tolist()) == (reps, sizes)
    assert classes.class_of(lifts).tolist() == [class_of[lift.tobytes()] for lift in lifts]
    # the pushed-forward lifts `functor_compare` looks up, through the bytes
    pushed = []
    lookup = oracle.DeformationClassSet.class_of

    def record(self, lifts):
        pushed.append(lifts)
        return lookup(self, lifts)

    monkeypatch.setattr(oracle.DeformationClassSet, "class_of", record)
    report = functor_compare(asm, rho_r, A)
    (homs,) = pushed
    by_bytes = [class_of[hom.astype(np.int64).tobytes()] for hom in homs]
    assert report.hom_to_class == by_bytes and report.bijective


# ---------------------------------------------------------------------------
# Verdicts that can fail: the negative controls and a non-injective rho_R
# ---------------------------------------------------------------------------


def _control_report(instance, ring):
    """`functor_compare` on rho_R built from the first injective alpha of
    the control's commutative-image module (`_injective_commutative_alpha`)."""
    asm = assemble(parse_instance_name(instance))
    rho_r = build_rho_R(asm, _injective_commutative_alpha(asm))
    return functor_compare(asm, rho_r, standard_rings(asm.p)[ring])


@pytest.mark.parametrize(
    "instance,ring,counts",
    [("twisted-p2n1-scalar", "Z8", (4, 2))]
    + [
        ("twisted-p2n2-commutative", r, (4, 2) if r == "dual" else None)
        for r in ("dual", "Z4", "Z8", "F2t3", "Z4u")
    ]
    + [("twisted-p3n1-commutative", r, (9, 3)) for r in ("dual", "Z9")]
    + [("twisted-p3n1-commutative", r, c) for r, c in (("Z27", (9, 3)), ("F3t3", (81, 3)), ("Z9u", (81, 9)))],
)
def test_the_oracle_finds_classes_no_hom_reaches_on_the_controls(instance, ring, counts):
    report = _control_report(instance, ring)
    assert not report.surjective and not report.bijective
    if counts is not None:
        assert (report.class_count, report.hom_count) == counts


@pytest.mark.parametrize("ring", ["dual", "Z4", "F2t3", "Z4u"])
def test_the_scalar_control_is_bijective_on_its_other_rings(ring):
    assert _control_report("twisted-p2n1-scalar", ring).bijective


def test_rho_r_of_the_zero_alpha_sends_every_hom_to_one_class():
    asm, _ = _oracle_inputs("twisted-p2n1")
    alpha = find_alpha(asm).alpha
    zero = AlphaMap(alpha.p, alpha.n, alpha.d, alpha.rank, np.zeros_like(alpha.matrix))
    report = functor_compare(asm, build_rho_R(asm, zero), standard_rings(2)["Z4u"])
    assert report.hom_to_class == [0, 0, 0, 0]
    assert not report.injective and not report.bijective


# ---------------------------------------------------------------------------
# Rings that tell R = W[[t]]/(p^n t, t^2) from W[[t]]/(t^2)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "A",
    [*standard_rings(2).values(), *standard_rings(3).values()]
    + [_monogenic(2, (4, 4), "Z4[eps]", "eps"), cyclic_ring(2, 4)],
    ids=lambda A: A.name,
)
def test_the_layers_of_the_filtration_have_the_coordinates_of_their_combinations(A):
    # layer j: coord is defined on m^j, of p^(k_j + k_(j+1) + ...) elements
    size = len(oracle._maximal(A))
    for k, combo, coord in oracle._layers(A):
        assert (coord >= 0).sum() == size
        assert coord[combo].tolist() == list(range(A.p**k))
        size //= A.p**k
    assert size == 1


def _moved_parent_linear(group, A, parent, layer):
    """L^T of the layer (k, combo, coord) above `parent`, a (#t, d, d) code
    stack, as the change of the relator defects (`oracle._defects`) when
    one entry of `parent` moves by one basis element of the layer, in
    (entry, basis) order of the rows."""
    k, combo, coord = layer
    add = A.tables()[0]
    unknowns = parent.size * k
    entry, basis = np.divmod(np.arange(unknowns), k)
    moved = np.repeat(parent.reshape(1, -1), unknowns, axis=0)
    moved[np.arange(unknowns), entry] = add[moved[0, entry], combo[A.p**basis]]
    stack = np.concatenate([parent[None], moved.reshape(-1, *parent.shape)])
    defects = oracle._defects(group, A, stack, k, coord)
    return (defects[1:] - defects[0]) % A.p


@pytest.mark.parametrize(
    "instance,ring",
    [("twisted-p2n1", r) for r in ("F2t3", "Z8", "Z4u")] + [("twisted-p3n1", r) for r in ("Z9u", "F3t3", "Z27")],
)
def test_every_layer_solves_against_the_kronecker_product_of_lbar(instance, ring):
    # the linear part L^T of a layer's defects, built above the layer's
    # first parent by moving it at each (entry, basis element), is
    # kron(Lbar^T, I_k)
    asm = assemble(parse_instance_name(instance))
    group, A = asm.gamma, standard_rings(asm.p)[ring]
    layers = oracle._layers(A)
    parents = []
    defects = oracle._defects

    def record(group, A, stack, k, coord):
        parents.append(stack[0].copy())
        return defects(group, A, stack, k, coord)

    with mock.patch.object(oracle, "_defects", record):
        enumerate_lifts(asm.rho_bar, A)
    assert len(parents) == len(layers) >= 1
    _, lbar_t = oracle._linear_bar(group, A, layers[0], parents[0])
    assert lbar_t.any()
    for parent, layer in zip(parents, layers):
        expected = np.kron(lbar_t, np.eye(layer[0], dtype=np.int64))
        assert (_moved_parent_linear(group, A, parent, layer) == expected).all()
    assert any(k > 1 for k, _, _ in layers) == (ring in ("Z4u", "Z9u"))


def test_lbar_refuses_a_move_with_a_coordinate_past_b0(monkeypatch):
    # a defect change outside coordinate 0 contradicts m m^j in m^(j+1)
    asm = s4_assembly()
    A = standard_rings(2)["Z4u"]
    defects = oracle._defects

    def skewed(group, A, stack, k, coord):
        out = defects(group, A, stack, k, coord)
        out[1:, 1] ^= 1
        return out

    monkeypatch.setattr(oracle, "_defects", skewed)
    with pytest.raises(OracleError, match="past b_0"):
        enumerate_lifts(asm.rho_bar, A)


def _square_zero_count(A):
    """#Hom(W[[t]]/(t^2), A): the x in m_A with x^2 = 0."""
    x = A.elements()
    x = x[x[:, 0] % A.p == 0]
    return int((~A.mul(x, x).any(axis=-1)).sum())


@pytest.mark.parametrize(
    "instance,N,ring,homs,complete_intersection",
    [
        (instance, N, ring, homs, ci)
        for instance in ("twisted-p2n1", "standard-d2p2")
        for N, ring, homs, ci in [
            (3, lambda: _monogenic(2, (4, 4), "Z4[eps]", "eps"), 4, 8),
            (4, lambda: cyclic_ring(2, 4), 2, 4),  # Z16 needs W-precision 2^4
        ]
    ],
    ids=["twisted-p2n1-Z4[eps]", "twisted-p2n1-Z16", "standard-d2p2-Z4[eps]", "standard-d2p2-Z16"],
)
def test_the_oracle_counts_the_homs_of_R_not_of_the_complete_intersection(
    instance, N, ring, homs, complete_intersection
):
    asm = assemble(replace(parse_instance_name(instance), N=N))
    rho_r = build_rho_R(asm, find_alpha(asm).alpha)
    A = ring()
    report = functor_compare(asm, rho_r, A)
    assert report.bijective
    assert report.class_count == report.hom_count == homs
    assert _square_zero_count(A) == complete_intersection != homs


def test_standard_d3p3_over_the_dual_numbers_has_p_to_the_tangent_dimension_classes():
    asm, rho_r = _oracle_inputs("standard-d3p3")
    report = functor_compare(asm, rho_r, dual_numbers(3))
    tangent = h1_dim(asm.M.inflate(asm.gamma))
    assert report.bijective
    assert report.class_count == report.hom_count == 3**tangent == 3
    assert report.lift_count == 3**9  # |Z^1(Gamma, End V)| = p^(d^2)
