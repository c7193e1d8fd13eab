import functools
import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring import kernels
from defring.localalg import (
    AlgebraError,
    ArtinLocalAlgebra,
    count_homs_from_R,
    cyclic_ring,
    dual_numbers,
    make_ring_R,
    make_ring_Rprime,
    make_ring_Rprime_2_1,
    nilpotent_socle_ring,
    standard_ring_builders,
    standard_rings,
    truncated_polynomials,
)

from reference import AlgMatrix, ScalarAlgebra, basis_products, inverse


def _maximal_ideal(A):
    x = A.elements()
    return x[x[:, 0] % A.p == 0].tolist()


def test_ring_R_relations_p2_n1():
    R = make_ring_R(2, 1, 3)
    one_plus_t = R.reduce((1, 1))
    # (1+t)^2 = 1 + 2t + t^2 = 1 since 2t = 0 and t^2 = 0
    assert R.mul(one_plus_t, one_plus_t).tolist() == R.one.tolist()


def test_ring_R_relations_p2_n2():
    R = make_ring_R(2, 2, 4)
    x = R.reduce((1, 1))
    sq = R.mul(x, x)
    assert sq.tolist() == [1, 2] != R.one.tolist()
    fourth = R.mul(sq, sq)
    assert fourth.tolist() == R.one.tolist()  # 4t = 0


def test_ring_R_element_count():
    R = make_ring_R(3, 1, 2)
    assert R.size == 27
    assert len(R.elements()) == 27


def test_ring_R_rejects_bad_precision():
    with pytest.raises(AlgebraError):
        make_ring_R(2, 2, 2)
    with pytest.raises(AlgebraError):
        make_ring_R(2, 3, 2)


def test_ring_Rprime_relations():
    Rp = make_ring_Rprime(2, 2, 4)
    t = np.array([0, 1, 0])
    t2 = Rp.mul(t, t)
    assert t2.tolist() == [0, 0, 1]
    assert not Rp.mul(t, t2).any()  # t^3 = 0
    assert not Rp.reduce(2 * t2).any()  # 2 t^2 = 0
    assert not Rp.reduce(4 * t).any()  # 4 t = 0


def test_rprime_exponential_identity_p3():
    # (1 + a t + (a^2/2) t^2) products add in the t-coefficient and behave
    # like a truncated exponential; spot-check with a = b = 1 for p = 3.
    Rp = make_ring_Rprime(3, 1, 3)
    half = pow(2, -1, 3)

    def exp_elem(a):
        return Rp.reduce(np.stack([np.ones_like(a), a, a * a * half % 3], axis=-1))

    a, b = np.meshgrid(np.arange(3), np.arange(3))
    assert (Rp.mul(exp_elem(a), exp_elem(b)) == exp_elem((a + b) % 3)).all()


def test_rprime21_carry_arithmetic():
    # a = 1: (1+t)^2 = 1 + 2t + t^2 = 1 - t^2 + t^2 = 1
    Rp = make_ring_Rprime_2_1(1, N=3)
    x = Rp.reduce((1, 1, 0))
    assert Rp.mul(x, x).tolist() == Rp.one.tolist()
    # 2t rewrites to t^2 (carry), so t has additive order 4
    t = np.array([0, 1, 0])
    assert Rp.reduce(2 * t).tolist() == [0, 0, 1]
    assert not Rp.reduce(4 * t).any()
    assert Rp.reduce(2 * t).any()
    assert Rp.size == 2**3 * 2 * 2


def test_rprime21_a0():
    # a = 0: 2t = 0, so (1+t)^2 = 1 + t^2
    Rp = make_ring_Rprime_2_1(0, N=3)
    x = Rp.reduce((1, 1, 0))
    assert Rp.mul(x, x).tolist() == [1, 0, 1]


def test_rprime_quotient_by_t2_is_R():
    # Killing the t^2 coordinate of either small extension recovers the
    # multiplication table of R.
    for p, n, N in [(2, 2, 4), (3, 1, 3), (2, 1, 3)]:
        Rp = make_ring_Rprime(p, n, N) if n >= 2 or p != 2 else make_ring_Rprime_2_1(1, N)
        R = make_ring_R(p, n, N)
        x, y = Rp.elements()[:, None], Rp.elements()[None, :12]
        assert (R.mul(x[..., :2], y[..., :2]) == Rp.mul(x, y)[..., :2]).all()


def test_standard_rings_catalog():
    cat = standard_rings(2)
    assert set(cat) == {"dual", "Z4", "F2t3", "Z8", "Z4u"}
    eps = dual_numbers(2)
    assert eps.size == 4
    assert _maximal_ideal(eps) == [[0, 0], [0, 1]]
    z4u = nilpotent_socle_ring(2)
    assert z4u.size == 8
    assert _maximal_ideal(z4u) == [[0, 0], [0, 1], [2, 0], [2, 1]]
    z8 = cyclic_ring(2, 3)
    assert _maximal_ideal(z8) == [[0], [2], [4], [6]]


def test_count_homs_examples():
    assert count_homs_from_R(1, dual_numbers(2)).tolist() == [[0, 0], [0, 1]]
    assert count_homs_from_R(1, cyclic_ring(2, 2)).tolist() == [[0], [2]]
    assert count_homs_from_R(1, nilpotent_socle_ring(2)).tolist() == [[0, 0], [0, 1], [2, 0], [2, 1]]
    assert count_homs_from_R(1, truncated_polynomials(2, 3)).tolist() == [[0, 0, 0], [0, 0, 1]]
    assert count_homs_from_R(1, cyclic_ring(2, 3)).tolist() == [[0], [4]]


def test_count_homs_against_exhaustive_map_check():
    # Oracle: a W-algebra map R -> A (R = W[[t]]/(p t, t^2) at precision N=3)
    # is a + bt -> a*1 + b*x; check multiplicativity of every candidate x on
    # all of R x R and compare with the x-set returned by count_homs_from_R,
    # in the scalar arithmetic of the reference.
    R = ScalarAlgebra.of(make_ring_R(2, 1, 3))
    for ring in standard_rings(2).values():
        A = ScalarAlgebra.of(ring)
        if A.smul(2**3, A.one) != A.zero:
            continue  # map not defined at this precision
        valid = []
        for x in A.elements():
            if not A.in_maximal_ideal(x):
                continue
            def phi(e):
                return A.add(A.from_int(e[0]), A.smul(e[1], x))
            ok = all(
                phi(R.mul(u, v)) == A.mul(phi(u), phi(v))
                for u in R.elements()
                for v in R.elements()
            )
            if ok:
                valid.append(x)
        assert valid == list(map(tuple, count_homs_from_R(1, ring).tolist())), A.name


def test_one_plus_tA_inverse_in_R():
    R = ScalarAlgebra.of(make_ring_R(2, 2, 4))
    # (1 + tA)^(-1) = 1 - tA since t^2 = 0
    m = AlgMatrix.from_rows(
        R, [[(1, 3), (0, 2)], [(0, 1), (1, 0)]]
    )
    inv = inverse(m)
    expect = AlgMatrix.from_rows(R, [[(1, -3), (0, -2)], [(0, -1), (1, 0)]])
    assert inv == expect


def test_order_identity_one_plus_tA():
    # (1 + tA)^(p^n) = 1 + p^n t A = 1 in R
    R = make_ring_R(2, 2, 4)
    eye = R.identity(2)
    for a in range(1, 4):
        m = R.reduce([[(1, a), (0, 1)], [(0, 0), (1, a)]])
        square = R.matmul(m, m)
        assert (m != eye).any()  # so the order is 2 or 4
        assert (R.matmul(square, square) == eye).all()


def test_reduction_kernel_size():
    # 1 + M_2(m_A) as the oracle lists it: the coset of the identity, coded
    from defring.oracle import _candidates_for_generator, _identity

    z4 = cyclic_ring(2, 2)
    maximal = z4.encode(_maximal_ideal(z4))
    codes = _candidates_for_generator(_identity(z4, 2), maximal, z4.tables()[0], 2)
    assert len(codes) == len(np.unique(codes, axis=0)) == 2**4
    residues = z4.elements()[codes][..., 0] % z4.p
    for res in residues:
        assert (res == np.eye(2)).all()
        assert kernels.rank_modp(res, z4.p) == 2


def test_abelianness_of_one_plus_t_matrices():
    # (1+tA)(1+tB) = 1 + t(A+B) for matrices over R, any A, B
    R = make_ring_R(2, 1, 3)
    tA = np.array(list(itertools.product(range(2), repeat=4))).reshape(-1, 2, 2)

    def one_plus(a):
        return np.stack([np.broadcast_to(np.eye(2, dtype=np.int64), a.shape), a], axis=-1)

    lhs = R.matmul(one_plus(tA)[:, None], one_plus(tA)[None, :])
    assert (lhs == one_plus((tA[:, None] + tA[None, :]) % 2)).all()


def test_not_local_rejected():
    # F_p x F_p (idempotent basis) is not local: e1^2 = e1 makes the
    # "maximal ideal" fail to be nilpotent.
    with pytest.raises(AlgebraError, match="maximal ideal is not nilpotent"):
        ArtinLocalAlgebra(2, ("1", "e"), (2, 2), basis_products(2, {(1, 1): (0, 1)}))


def test_algebra_json_roundtrip():
    R = make_ring_Rprime_2_1(1, N=3)
    d = R.to_json_dict()
    assert d["orders"] == [8, 2, 2]
    assert d["carries"][1] == [0, 0, 1]


@pytest.mark.parametrize(
    "ring,labels,products",
    [
        (make_ring_R(3, 2, 5), ["1", "t"], {}),
        (make_ring_Rprime(3, 1, 3), ["1", "t", "t2"], {(1, 1): (0, 0, 1)}),
        (make_ring_Rprime_2_1(1, N=4), ["1", "t", "t2"], {(1, 1): (0, 0, 1)}),
        (dual_numbers(3), ["1", "eps"], {}),
        (truncated_polynomials(2, 4), ["1", "t", "t2", "t3"], {(1, 1): (0, 0, 1, 0), (1, 2): (0, 0, 0, 1)}),
        (cyclic_ring(5, 2), ["1"], {}),
        (nilpotent_socle_ring(3), ["1", "u"], {}),
    ],
    ids=["R", "Rprime", "Rprime_2_1", "dual", "F2t4", "Z25", "Z9u"],
)
def test_named_rings_have_the_tables_written_out_pair_by_pair(ring, labels, products):
    # every named ring is monogenic: t^i t^j = t^(i + j), zero past the last power
    data = json.loads(json.dumps(ring.to_json_dict()))
    assert data["basis"] == labels
    assert data["multable"] == [[list(x) for x in row] for row in basis_products(len(labels), products)]


def test_tables_consistent_with_ops():
    # against the scalar arithmetic of the reference
    A = nilpotent_socle_ring(2)
    S = ScalarAlgebra.of(A)
    add, mul, neg = A.tables()
    elems = list(S.elements())
    for i, x in enumerate(elems):
        assert tuple(A.elements()[i].tolist()) == x  # codes follow the order of elements()
        assert neg[i] == S.encode(S.neg(x))
        for j, y in enumerate(elems):
            assert add[i, j] == S.encode(S.add(x, y))
            assert mul[i, j] == S.encode(S.mul(x, y))


def test_nilpotency_indices():
    # accepted as local, with the index of m the reference walk finds
    assert _reference_nilpotency_index(ScalarAlgebra.of(dual_numbers(2))) == 2
    assert _reference_nilpotency_index(ScalarAlgebra.of(make_ring_R(2, 1, 3))) == 3
    assert _reference_nilpotency_index(ScalarAlgebra.of(cyclic_ring(3, 2))) == 2
    # (Z/4)[u]/(u^2, 2u): m = (2, u), m^2 = (4=0, 2u=0, u^2=0) = 0
    assert _reference_nilpotency_index(ScalarAlgebra.of(nilpotent_socle_ring(2))) == 2


def test_one_plus_tA_inverse_random_matrices():
    import random

    rng = random.Random(23)
    R = ScalarAlgebra.of(make_ring_R(3, 1, 3))
    eye = AlgMatrix.identity(R, 2)
    for _ in range(12):
        a = [[(0, rng.randrange(3)) for _ in range(2)] for _ in range(2)]
        one_plus = AlgMatrix.from_rows(
            R, [[R.add(eye.entry(i, j), a[i][j]) for j in range(2)] for i in range(2)]
        )
        one_minus = AlgMatrix.from_rows(
            R, [[R.add(eye.entry(i, j), R.neg(a[i][j])) for j in range(2)] for i in range(2)]
        )
        assert inverse(one_plus) == one_minus


def _reference_nilpotency_index(A):
    """The additive-span walk: each power m^k as the explicit set of its
    elements, grown from its generators by repeated addition."""

    def span(gens):
        out, frontier = {A.zero}, [A.zero]
        while frontier:
            nxt = []
            for v in frontier:
                for g in gens:
                    w = A.add(v, g)
                    if w not in out:
                        out.add(w)
                        nxt.append(w)
            frontier = nxt
        return out

    gens = [A.from_int(A.p)] + [A._basis_elem(i) for i in range(1, A.nbasis)]
    power_gens, power, k = gens, span(gens), 1
    while power != {A.zero}:
        power_gens = sorted({A.mul(a, b) for a in gens for b in power_gens})
        nxt = span(power_gens)
        if nxt == power:
            raise AlgebraError("maximal ideal is not nilpotent; algebra is not local")
        power, k = nxt, k + 1
    return k


def _accepted(p, orders, rules, carries=None):
    """(whether ArtinLocalAlgebra accepts the presentation, whether the
    reference walk finds a nilpotency index of its m)."""
    table = basis_products(len(orders), rules)
    try:
        ArtinLocalAlgebra(p, [f"e{i}" for i in range(len(orders))], orders, table, carries)
        accepted = True
    except AlgebraError as exc:
        assert "not nilpotent" in str(exc)
        accepted = False
    try:
        _reference_nilpotency_index(ScalarAlgebra(p, orders, table, carries))
        found = True
    except AlgebraError:
        found = False
    return accepted, found


# presentations that are commutative, associative and compatible with their
# orders, with m an ideal, of which only the nilpotent ones are local
NONLOCAL = [
    (2, (2, 2), {(1, 1): (0, 1)}),  # F_2 x F_2: e idempotent
    (3, (9, 3), {(1, 1): (0, 1)}),  # Z/9 x F_3
    (2, (2, 2, 2), {(1, 1): (0, 0, 1), (1, 2): (0, 1, 0), (2, 2): (0, 0, 1)}),  # F_2[e]/(e^3 - e)
    (2, (4, 2, 2), {(1, 1): (0, 0, 0), (1, 2): (0, 0, 0), (2, 2): (0, 0, 1)}),  # e^2 = 0, f = f^2
    (2, (4, 2, 2), {(1, 1): (0, 1, 0), (1, 2): (0, 0, 0), (2, 2): (0, 0, 0)}),  # e = e^2, f^2 = 0
]


def test_lattice_nilpotency_matches_additive_span_walk():
    # the locality decision on the generators of m against the walk over
    # the powers of m: accepted exactly when the walk finds an index
    algebras = [make_ring_Rprime_2_1(a, N) for a in (0, 1) for N in (2, 3, 4)]
    for p in (2, 3, 5):
        algebras += list(standard_rings(p).values())
        algebras += [truncated_polynomials(p, m) for m in (1, 2, 4)]
        algebras += [cyclic_ring(p, m) for m in (1, 4)]
    for A in algebras:
        assert _reference_nilpotency_index(ScalarAlgebra.of(A)) >= 1, A.name
    for p, orders, rules in NONLOCAL:
        assert _accepted(p, orders, rules) == (False, False), (p, orders, rules)
    # a local presentation with a carry, through the same route
    assert _accepted(2, (8, 2, 2), {(1, 1): (0, 0, 1)}, ((0, 0, 0), (0, 0, 1), (0, 0, 0))) == (True, True)


def test_reference_walk_also_rejects_the_idempotent_algebra():
    # test_not_local_rejected decides the same presentation on generators
    table = basis_products(2, {(1, 1): (0, 1)})
    with pytest.raises(AlgebraError, match="maximal ideal is not nilpotent"):
        _reference_nilpotency_index(ScalarAlgebra(2, (2, 2), table))


RING_PARAMS = [
    (make, p, n, N)
    for make, extra in ((make_ring_R, 0), (make_ring_Rprime, 1))
    for p in (2, 3, 5, 7)
    for n in range(1, 4)
    for N in range(n + 1, 18)
    if p ** (N + n + extra) <= 10**5
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RING_PARAMS))
def test_lattice_nilpotency_matches_walk_on_R_and_Rprime(params):
    make, p, n, N = params
    A = make(p, n, N)  # accepted as local
    assert A.size <= 10**5
    assert _reference_nilpotency_index(ScalarAlgebra.of(A)) >= 1


def test_ring_R_at_high_precision_builds_fast():
    # |R| = 5^28; the old additive-span walk enumerated all of it
    start = time.perf_counter()
    R = make_ring_R(5, 1, 27)
    assert time.perf_counter() - start < 0.5
    # (1 + t)^2 = 1 + 2t: accepted, with products past int64
    assert R.dtype is object
    assert R.mul(R.reduce((1, 1)), R.reduce((1, 1))).tolist() == [1, 2]


@pytest.mark.parametrize("p, n, N", [(2, 1, 63), (3, 2, 40)])
def test_ring_R_with_orders_past_int64(p, n, N):
    # (p^N - 1)^2 exceeds 2^63 - 1, so the products must run on Python ints
    # (numpy reads a list holding such an integer as uint64 or float64)
    R = make_ring_R(p, n, N)
    S = ScalarAlgebra.of(R)
    x = (p**N - 1, p**n - 1)
    assert R.dtype is object
    assert tuple(R.mul(R.reduce(x), R.reduce(x)).tolist()) == S.mul(x, x)
    assert tuple(R.reduce([-(p ** (2 * N)) - 1, p**N]).tolist()) == S.reduce([-(p ** (2 * N)) - 1, p**N])


# every ring builder, at small and at past-int64 precision, built in the test
ARITHMETIC_RINGS = {
    **{
        f"{make.__name__}{args}": functools.partial(make, *args)
        for make, args in [
            (make_ring_R, (2, 1, 3)),
            (make_ring_R, (3, 2, 5)),
            (make_ring_R, (2, 1, 63)),
            (make_ring_R, (3, 2, 40)),
            (make_ring_Rprime, (2, 2, 4)),
            (make_ring_Rprime, (3, 1, 3)),
            (make_ring_Rprime, (5, 1, 2)),
            (make_ring_Rprime_2_1, (0, 3)),
            (make_ring_Rprime_2_1, (1, 3)),
            (truncated_polynomials, (3, 4)),
            (cyclic_ring, (2, 5)),
        ]
    },
    **{f"{name}-p{p}": build for p in (2, 3, 5) for name, build in standard_ring_builders(p).items()},
}


@pytest.mark.parametrize("build", ARITHMETIC_RINGS.values(), ids=ARITHMETIC_RINGS.keys())
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_array_arithmetic_matches_scalar_reference(build, data):
    A = build()
    S = ScalarAlgebra.of(A)

    def element():
        return tuple(data.draw(st.integers(0, o - 1)) for o in A.orders)

    big = data.draw(st.lists(st.integers(-(2**70), 2**70), min_size=A.nbasis, max_size=A.nbasis))
    assert tuple(A.reduce(big).tolist()) == S.reduce(big)
    small = data.draw(st.lists(st.integers(-(2**40), 2**40), min_size=A.nbasis, max_size=A.nbasis))
    assert tuple(A.reduce(np.array(small, dtype=np.int64)).tolist()) == S.reduce(small)
    x, y = element(), element()
    assert tuple(A.mul(A.reduce(x), A.reduce(y)).tolist()) == S.mul(x, y)
    # stacks of d x d matrices whose leading axes broadcast, (a, 1) against
    # (b,): each product is the reference AlgMatrix product, in dtype and bytes
    d, a, b = (data.draw(st.integers(1, 3)) for _ in range(3))
    Xs, Ys = ([[[element() for _ in range(d)] for _ in range(d)] for _ in range(c)] for c in (a, b))
    got = A.matmul(A.reduce(Xs)[:, None], A.reduce(Ys))
    products = [(AlgMatrix.from_rows(S, X) @ AlgMatrix.from_rows(S, Y)).entries for X in Xs for Y in Ys]
    want = np.array(products, dtype=A.dtype).reshape(a, b, d, d, A.nbasis)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist() if A.dtype is object else got.tobytes() == want.tobytes()
