import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from defring.exactalg import (
    GaloisRing,
    howell_form,
    solve_module,
)


def brute_span(rows, m):
    """Oracle: the full additive span of the rows inside (Z/m)^n."""
    n = len(rows[0])
    span = {tuple([0] * n)}
    changed = True
    while changed:
        changed = False
        for v in list(span):
            for r in rows:
                w = tuple((a + b) % m for a, b in zip(v, r))
                if w not in span:
                    span.add(w)
                    changed = True
    return span


def test_howell_single_generator_z4():
    h = howell_form([[2]], 2, 2)
    assert h.generators == [[2]]
    assert h.invariant_factors == [2]
    assert set(h.enumerate_span()) == {(0,), (2,)}


def test_howell_identity_z9():
    h = howell_form([[1, 0], [0, 1]], 3, 2)
    assert h.generators == [[1, 0], [0, 1]]
    assert h.invariant_factors == [9, 9]


def test_howell_derived_example_z4():
    # Span of {(2,0),(0,1)} in (Z/4)^2 has 8 elements; basis read off by
    # brute enumeration.
    h = howell_form([[2, 0], [0, 1]], 2, 2)
    assert sorted(map(tuple, h.generators)) == [(0, 1), (2, 0)]
    assert sorted(h.invariant_factors) == [2, 4]
    assert set(h.enumerate_span()) == brute_span([[2, 0], [0, 1]], 4)


def test_howell_is_canonical_under_row_operations():
    rng = random.Random(7)
    p, N, n = 2, 3, 4
    m = p**N
    base = [[6, 2, 0, 4], [0, 4, 2, 2], [1, 3, 3, 7]]
    h0 = howell_form(base, p, N)
    for _ in range(25):
        rows = [list(r) for r in base]
        for _ in range(6):
            op = rng.randrange(3)
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            if op == 0 and i != j:
                c = rng.randrange(m)
                rows[i] = [(a + c * b) % m for a, b in zip(rows[i], rows[j])]
            elif op == 1:
                rows[i], rows[j] = rows[j], rows[i]
            else:
                u = rng.choice([1, 3, 5, 7])
                rows[i] = [(u * a) % m for a in rows[i]]
        h = howell_form(rows, p, N)
        assert h == h0


def test_howell_membership_matches_enumeration():
    p, N = 3, 2
    rows = [[3, 6], [0, 3]]
    h = howell_form(rows, p, N)
    span = brute_span(rows, 9)
    for a in range(9):
        for b in range(9):
            assert h.contains([a, b]) == ((a, b) in span)


def test_solve_2x_eq_0_over_z4():
    sol = solve_module([[2]], [0], 2, 2)
    assert sol.consistent and sol.particular == [0]
    assert set(sol.kernel.enumerate_span()) == {(0,), (2,)}


def test_solve_2x_eq_1_over_z4_inconsistent():
    sol = solve_module([[2]], [1], 2, 2)
    assert not sol.consistent


def test_solve_two_equations_over_z4():
    # x + y = 0, x - y = 2: solutions are exactly {(1,3),(3,1)}.
    sol = solve_module([[1, 1], [1, -1]], [0, 2], 2, 2)
    assert sol.consistent
    assert sol.all_solutions() == [(1, 3), (3, 1)]
    assert sol.kernel.span_size() == 2
    assert sol.kernel.contains([2, 2])


def test_solutions_satisfy_system_exactly():
    rng = random.Random(11)
    p, N = 2, 3
    m = p**N
    for _ in range(40):
        a = [[rng.randrange(m) for _ in range(3)] for _ in range(3)]
        x = [rng.randrange(m) for _ in range(3)]
        rhs = [sum(r[j] * x[j] for j in range(3)) % m for r in a]
        sol = solve_module(a, rhs, p, N)
        assert sol.consistent
        for cand in sol.all_solutions():
            assert all(
                sum(r[j] * cand[j] for j in range(3)) % m == v for r, v in zip(a, rhs)
            )
        assert tuple(x) in set(sol.all_solutions())


def test_galois_ring_frobenius_gr42():
    gr = GaloisRing(2, 2)
    # The second root of x^2 + x + 1 in GR(4, 2) is 3 + 3x (exhaustive check).
    assert gr.frobenius(gr.x).coeffs == (3, 3)
    roots = [
        e
        for e in gr.elements()
        if (e * e + e + gr.one).coeffs == (0, 0) and e.coeffs != gr.x.coeffs
    ]
    assert len(roots) == 1 and roots[0].coeffs == (3, 3)
    assert gr.frobenius(gr.one).coeffs == (1, 0)
    for e in gr.elements():
        assert gr.frobenius(gr.frobenius(e)).coeffs == e.coeffs


def test_frobenius_is_ring_homomorphism():
    for p, N in [(2, 2), (3, 2)]:
        gr = GaloisRing(p, N)
        elems = list(gr.elements())
        for a in elems:
            for b in elems:
                assert gr.frobenius(a * b).coeffs == (gr.frobenius(a) * gr.frobenius(b)).coeffs
                assert gr.frobenius(a + b).coeffs == (gr.frobenius(a) + gr.frobenius(b)).coeffs
        # fixes the base ring pointwise
        for c in range(gr.modulus):
            assert gr.frobenius(gr.from_int(c)).coeffs == (c, 0)


def test_teichmuller_gr42():
    gr = GaloisRing(2, 2)
    assert gr.teichmuller(gr.x).coeffs == gr.x.coeffs
    assert (gr.x ** 3).coeffs == (1, 0)
    assert gr.teichmuller(gr.one).coeffs == (1, 0)
    onepx = gr.one + gr.from_int(2) * gr.x
    assert gr.teichmuller(onepx).coeffs == (1, 0)


def test_teichmuller_order_divides_unit_group():
    for p, N in [(2, 2), (2, 3)]:
        gr = GaloisRing(p, N)
        q = p**2
        for u in gr.units():
            t = gr.teichmuller(u)
            assert (t ** (q - 1)).coeffs == (1, 0)
            assert (t.a0 - u.a0) % p == 0 and (t.a1 - u.a1) % p == 0


def test_regular_matrix_f4():
    f4 = GaloisRing(2, 1)
    omega = f4.x
    assert f4.regular_matrix(omega).tolist() == [[0, 1], [1, 1]]
    assert f4.regular_matrix("frobenius").tolist() == [[1, 1], [0, 1]]
    assert f4.regular_matrix(f4.one).tolist() == [[1, 0], [0, 1]]


def test_regular_matrix_multiplicative_and_twisted_rule():
    for p, N in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        gr = GaloisRing(p, N)
        m = p**N
        elems = list(gr.elements()) if m <= 4 else [
            gr.element(a0, a1) for a0 in range(min(m, 5)) for a1 in range(min(m, 5))
        ]
        frob_m = gr.regular_matrix("frobenius")
        for a in elems:
            ma = gr.regular_matrix(a)
            assert (frob_m @ ma % m == gr.regular_matrix(gr.frobenius(a)) @ frob_m % m).all()
            for b in elems:
                assert (ma @ gr.regular_matrix(b) % m == gr.regular_matrix(a * b)).all()


def test_unit_generator_is_teichmuller_and_generates():
    for p in (2, 3, 5):
        gr = GaloisRing(p, 2)
        g = gr.unit_generator
        assert g.multiplicative_order() == p**2 - 1
    # canonical choices are stable
    assert GaloisRing(2, 2).unit_generator.coeffs == (0, 1)
    assert GaloisRing(3, 1).unit_generator.coeffs == (1, 1)


def test_solution_set_complete_against_brute_force():
    rng = random.Random(31)
    p, N = 2, 3
    m = p**N
    for _ in range(15):
        a = [[rng.randrange(m) for _ in range(3)] for _ in range(2)]
        rhs = [rng.randrange(m) for _ in range(2)]
        sol = solve_module(a, rhs, p, N)
        brute = sorted(
            (x, y, z)
            for x in range(m)
            for y in range(m)
            for z in range(m)
            if all(
                (row[0] * x + row[1] * y + row[2] * z) % m == b
                for row, b in zip(a, rhs)
            )
        )
        assert sol.all_solutions() == brute


# Z/p^N with p^N <= 9, so (Z/p^N)^3 is small enough to enumerate
MODULI = st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])


def matrices(m, nrows, ncols):
    return st.lists(
        st.lists(st.integers(0, m - 1), min_size=ncols, max_size=ncols),
        min_size=nrows,
        max_size=nrows,
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), pN=MODULI, ncols=st.integers(1, 3), nrows=st.integers(1, 3))
def test_howell_bases_are_equal_exactly_when_spans_are(data, pN, ncols, nrows):
    # b is an invertible transform of a, plus a combination of its rows, so
    # it spans the same module; c is drawn freely, so its span usually differs
    p, N = pN
    m = p**N
    a = data.draw(matrices(m, nrows, ncols))
    b = [list(r) for r in a]
    for _ in range(data.draw(st.integers(0, 6))):
        i, j = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, nrows - 1))
        if i != j:
            c = data.draw(st.integers(0, m - 1))
            b[i] = [(x + c * y) % m for x, y in zip(b[i], b[j])]
        else:
            u = data.draw(st.integers(1, m - 1).filter(lambda u: u % p))
            b[i] = [(u * x) % m for x in b[i]]
    coeffs = data.draw(st.lists(st.integers(0, m - 1), min_size=nrows, max_size=nrows))
    b.append([sum(c * r[j] for c, r in zip(coeffs, a)) % m for j in range(ncols)])
    c = data.draw(matrices(m, data.draw(st.integers(1, 3)), ncols))
    ha, hb, hc = (howell_form(rows, p, N) for rows in (a, b, c))
    assert ha == hb
    assert (ha == hc) == (brute_span(a, m) == brute_span(c, m))
    assert set(ha.enumerate_span()) == brute_span(a, m)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), pN=MODULI, neq=st.integers(1, 3), nvar=st.integers(1, 3))
def test_solve_module_matches_brute_force(data, pN, neq, nvar):
    p, N = pN
    m = p**N
    a = data.draw(matrices(m, neq, nvar))
    rhs = data.draw(st.lists(st.integers(0, m - 1), min_size=neq, max_size=neq))
    brute = [
        x
        for x in itertools.product(range(m), repeat=nvar)
        if all(sum(r * v for r, v in zip(row, x)) % m == b for row, b in zip(a, rhs))
    ]
    sol = solve_module(a, rhs, p, N)
    assert sol.consistent == bool(brute)
    assert sol.all_solutions() == brute
