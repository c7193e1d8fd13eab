import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring import kernels
from defring.localalg import (
    AlgebraError,
    AlgMatrix,
    count_homs_from_R,
    cyclic_ring,
    dual_numbers,
    make_ring_R,
    make_ring_Rprime,
    make_ring_Rprime_2_1,
    nilpotent_socle_ring,
    standard_rings,
    truncated_polynomials,
)

from reference import inverse, residue_matrix


def test_ring_R_relations_p2_n1():
    R = make_ring_R(2, 1, 3)
    one_plus_t = R.reduce((1, 1))
    # (1+t)^2 = 1 + 2t + t^2 = 1 since 2t = 0 and t^2 = 0
    assert R.mul(one_plus_t, one_plus_t) == R.one


def test_ring_R_relations_p2_n2():
    R = make_ring_R(2, 2, 4)
    x = R.reduce((1, 1))
    sq = R.mul(x, x)
    assert sq == (1, 2) and sq != R.one
    fourth = R.mul(sq, sq)
    assert fourth == R.one  # 4t = 0


def test_ring_R_element_count():
    R = make_ring_R(3, 1, 2)
    assert R.size == 27
    assert len(list(R.elements())) == 27


def test_ring_R_rejects_bad_precision():
    with pytest.raises(AlgebraError):
        make_ring_R(2, 2, 2)
    with pytest.raises(AlgebraError):
        make_ring_R(2, 3, 2)


def test_ring_Rprime_relations():
    Rp = make_ring_Rprime(2, 2, 4)
    t = (0, 1, 0)
    t2 = Rp.mul(t, t)
    assert t2 == (0, 0, 1)
    assert Rp.mul(t, t2) == Rp.zero  # t^3 = 0
    assert Rp.smul(2, t2) == Rp.zero  # 2 t^2 = 0
    assert Rp.smul(4, t) == Rp.zero  # 4 t = 0


def test_rprime_exponential_identity_p3():
    # (1 + a t + (a^2/2) t^2) products add in the t-coefficient and behave
    # like a truncated exponential; spot-check with a = b = 1 for p = 3.
    Rp = make_ring_Rprime(3, 1, 3)
    half = pow(2, -1, 3)

    def exp_elem(a):
        return Rp.reduce((1, a, (a * a * half) % 3))

    for a in range(3):
        for b in range(3):
            prod = Rp.mul(exp_elem(a), exp_elem(b))
            assert prod == exp_elem((a + b) % 3), (a, b)


def test_rprime21_carry_arithmetic():
    # a = 1: (1+t)^2 = 1 + 2t + t^2 = 1 - t^2 + t^2 = 1
    Rp = make_ring_Rprime_2_1(1, N=3)
    x = Rp.reduce((1, 1, 0))
    assert Rp.mul(x, x) == Rp.one
    # 2t rewrites to t^2 (carry), so t has additive order 4
    t = (0, 1, 0)
    assert Rp.smul(2, t) == (0, 0, 1)
    assert Rp.smul(4, t) == Rp.zero
    assert Rp.smul(2, t) != Rp.zero
    assert Rp.size == 2**3 * 2 * 2


def test_rprime21_a0():
    # a = 0: 2t = 0, so (1+t)^2 = 1 + t^2
    Rp = make_ring_Rprime_2_1(0, N=3)
    x = Rp.reduce((1, 1, 0))
    assert Rp.mul(x, x) == (1, 0, 1)


def test_rprime_quotient_by_t2_is_R():
    # Killing the t^2 coordinate of either small extension recovers the
    # multiplication table of R.
    for p, n, N in [(2, 2, 4), (3, 1, 3), (2, 1, 3)]:
        Rp = make_ring_Rprime(p, n, N) if n >= 2 or p != 2 else make_ring_Rprime_2_1(1, N)
        R = make_ring_R(p, n, N)
        for x in Rp.elements():
            for y in list(Rp.elements())[:12]:
                xy = Rp.mul(x, y)
                rx, ry = (x[0], x[1]), (y[0], y[1])
                assert R.mul(rx, ry) == (xy[0], xy[1])


def test_standard_rings_catalog():
    cat = standard_rings(2)
    assert set(cat) == {"dual", "Z4", "F2t3", "Z8", "Z4u"}
    eps = dual_numbers(2)
    assert eps.size == 4
    assert sorted(eps.maximal_ideal()) == [(0, 0), (0, 1)]
    z4u = nilpotent_socle_ring(2)
    assert z4u.size == 8
    assert sorted(z4u.maximal_ideal()) == [(0, 0), (0, 1), (2, 0), (2, 1)]
    z8 = cyclic_ring(2, 3)
    assert sorted(z8.maximal_ideal()) == [(0,), (2,), (4,), (6,)]


def test_count_homs_examples():
    assert count_homs_from_R(1, dual_numbers(2)) == [(0, 0), (0, 1)]
    assert count_homs_from_R(1, cyclic_ring(2, 2)) == [(0,), (2,)]
    assert count_homs_from_R(1, nilpotent_socle_ring(2)) == [(0, 0), (0, 1), (2, 0), (2, 1)]
    assert count_homs_from_R(1, truncated_polynomials(2, 3)) == [(0, 0, 0), (0, 0, 1)]
    assert count_homs_from_R(1, cyclic_ring(2, 3)) == [(0,), (4,)]


def test_count_homs_against_exhaustive_map_check():
    # Oracle: a W-algebra map R -> A (R = W[[t]]/(p t, t^2) at precision N=3)
    # is a + bt -> a*1 + b*x; check multiplicativity of every candidate x on
    # all of R x R and compare with the x-set returned by count_homs_from_R.
    R = make_ring_R(2, 1, 3)
    for A in standard_rings(2).values():
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
        assert valid == count_homs_from_R(1, A), A.name


def test_one_plus_tA_inverse_in_R():
    R = make_ring_R(2, 2, 4)
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
    for a in range(1, 4):
        m = AlgMatrix.from_rows(R, [[(1, a), (0, 1)], [(0, 0), (1, a)]])
        assert m.order() in (2, 4)
        acc = m
        for _ in range(3):
            acc = acc @ m
        assert acc == AlgMatrix.identity(R, 2)


def test_reduction_kernel_size():
    # 1 + M_2(m_A) as the oracle lists it: the coset of the identity, coded
    from defring.oracle import _candidates_for_generator, _identity

    z4 = cyclic_ring(2, 2)
    maximal = [z4.encode(x) for x in z4.maximal_ideal()]
    codes = _candidates_for_generator(_identity(z4, 2), maximal, z4.tables()[0], 2)
    ker = [AlgMatrix(z4, 2, tuple(map(z4.decode, u.reshape(-1).tolist()))) for u in codes]
    assert len(ker) == len(set(ker)) == 2**4
    eye = AlgMatrix.identity(z4, 2)
    for u in ker:
        assert (residue_matrix(u) == residue_matrix(eye)).all()
        assert kernels.rank_modp(residue_matrix(u), z4.p) == 2


def test_abelianness_of_one_plus_t_matrices():
    # (1+tA)(1+tB) = 1 + t(A+B) for matrices over R, any A, B
    R = make_ring_R(2, 1, 3)

    def one_plus(a, b, c, d):
        return AlgMatrix.from_rows(
            R, [[(1, a), (0, b)], [(0, c), (1, d)]]
        )

    import itertools

    for abcd in itertools.product(range(2), repeat=4):
        for efgh in itertools.product(range(2), repeat=4):
            lhs = one_plus(*abcd) @ one_plus(*efgh)
            rhs = one_plus(*[(x + y) % 2 for x, y in zip(abcd, efgh)])
            assert lhs == rhs


def test_not_local_rejected():
    # F_p x F_p (idempotent basis) is not local: e1^2 = e1 makes the
    # "maximal ideal" fail to be nilpotent.
    with pytest.raises(AlgebraError, match="maximal ideal is not nilpotent"):
        from defring.localalg import ArtinLocalAlgebra, _basis_products

        ArtinLocalAlgebra(2, ("1", "e"), (2, 2), _basis_products(2, {(1, 1): (0, 1)}))


def test_algebra_json_roundtrip():
    R = make_ring_Rprime_2_1(1, N=3)
    d = R.to_json_dict()
    assert d["orders"] == [8, 2, 2]
    assert d["carries"][1] == [0, 0, 1]


def test_tables_consistent_with_ops():
    A = nilpotent_socle_ring(2)
    add, mul, neg = A.tables()
    elems = list(A.elements())
    for i, x in enumerate(elems):
        assert A.decode(i) == x  # codes follow the order of elements()
        assert neg[i] == A.encode(A.neg(x))
        for j, y in enumerate(elems):
            assert add[i, j] == A.encode(A.add(x, y))
            assert mul[i, j] == A.encode(A.mul(x, y))


def test_nilpotency_indices():
    assert dual_numbers(2).nilpotency_index == 2
    assert make_ring_R(2, 1, 3).nilpotency_index == 3
    assert cyclic_ring(3, 2).nilpotency_index == 2
    # (Z/4)[u]/(u^2, 2u): m = (2, u), m^2 = (4=0, 2u=0, u^2=0) = 0
    assert nilpotent_socle_ring(2).nilpotency_index == 2


def test_one_plus_tA_inverse_random_matrices():
    import random

    rng = random.Random(23)
    R = make_ring_R(3, 1, 3)
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


def test_lattice_nilpotency_matches_additive_span_walk():
    algebras = [make_ring_Rprime_2_1(a, N) for a in (0, 1) for N in (2, 3, 4)]
    for p in (2, 3, 5):
        algebras += list(standard_rings(p).values())
        algebras += [truncated_polynomials(p, m) for m in (1, 2, 4)]
        algebras += [cyclic_ring(p, m) for m in (1, 4)]
    for A in algebras:
        assert A.nilpotency_index == _reference_nilpotency_index(A), A.name


def test_reference_walk_also_rejects_the_idempotent_algebra(monkeypatch):
    # test_not_local_rejected runs the lattice index on the same algebra
    from defring.localalg import ArtinLocalAlgebra, _basis_products

    monkeypatch.setattr(ArtinLocalAlgebra, "_nilpotency_index", _reference_nilpotency_index)
    with pytest.raises(AlgebraError, match="maximal ideal is not nilpotent"):
        ArtinLocalAlgebra(2, ("1", "e"), (2, 2), _basis_products(2, {(1, 1): (0, 1)}))


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
    A = make(p, n, N)
    assert A.size <= 10**5
    assert A.nilpotency_index == _reference_nilpotency_index(A)


def test_ring_R_at_high_precision_builds_fast():
    # |R| = 5^28; the old additive-span walk enumerated all of it
    start = time.perf_counter()
    R = make_ring_R(5, 1, 27)
    assert time.perf_counter() - start < 0.5
    assert R.nilpotency_index == 27


@pytest.mark.parametrize("p, n, N", [(2, 1, 63), (3, 2, 40)])
def test_ring_R_with_orders_past_int64(p, n, N):
    # the order p^N of 1 exceeds 2^63 - 1, so the relations must stay Python
    # ints on their way into the Howell form (numpy reads such a list as
    # uint64 or float64)
    assert make_ring_R(p, n, N).nilpotency_index == N
