import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring.exactalg import (
    PrecisionError,
    companion,
    defining_rule,
    galois_matrices,
    matpow_mod,
    solve_module,
)

from reference import _howell_rows, all_solutions, enumerate_span, howell_form, howell_reduce, solve_rows


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
    assert h.rows.tolist() == [[2]]
    assert h.invariant_factors == [2]
    assert set(enumerate_span(h)) == {(0,), (2,)}


def test_howell_identity_z9():
    h = howell_form([[1, 0], [0, 1]], 3, 2)
    assert h.rows.tolist() == [[1, 0], [0, 1]]
    assert h.invariant_factors == [9, 9]


def test_howell_derived_example_z4():
    # Span of {(2,0),(0,1)} in (Z/4)^2 has 8 elements; basis read off by
    # brute enumeration.
    h = howell_form([[2, 0], [0, 1]], 2, 2)
    assert sorted(map(tuple, h.rows.tolist())) == [(0, 1), (2, 0)]
    assert sorted(h.invariant_factors) == [2, 4]
    assert set(enumerate_span(h)) == brute_span([[2, 0], [0, 1]], 4)


def _same_basis(h1, h2) -> bool:
    """Equal Howell bases: the canonical basis of a span is unique."""
    return (h1.rows.tolist(), h1.pivots) == (h2.rows.tolist(), h2.pivots)


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
        assert _same_basis(h, h0)


def test_howell_membership_matches_enumeration():
    p, N = 3, 2
    rows = [[3, 6], [0, 3]]
    h = howell_form(rows, p, N)
    span = brute_span(rows, 9)
    for a in range(9):
        for b in range(9):
            assert (not any(howell_reduce(h, [a, b]))) == ((a, b) in span)


def test_solve_2x_eq_0_over_z4():
    sol = solve_module([[2]], [0], 2, 2)
    assert sol.particular is not None and sol.particular == [0]
    assert set(enumerate_span(sol.kernel)) == {(0,), (2,)}


def test_solve_2x_eq_1_over_z4_inconsistent():
    sol = solve_module([[2]], [1], 2, 2)
    assert sol.particular is None


def test_solve_two_equations_over_z4():
    # x + y = 0, x - y = 2: solutions are exactly {(1,3),(3,1)}.
    sol = solve_module([[1, 1], [1, -1]], [0, 2], 2, 2)
    assert sol.particular is not None
    assert all_solutions(sol) == [(1, 3), (3, 1)]
    assert math.prod(sol.kernel.invariant_factors) == 2
    assert not any(howell_reduce(sol.kernel, [2, 2]))


def test_solutions_satisfy_system_exactly():
    rng = random.Random(11)
    p, N = 2, 3
    m = p**N
    for _ in range(40):
        a = [[rng.randrange(m) for _ in range(3)] for _ in range(3)]
        x = [rng.randrange(m) for _ in range(3)]
        rhs = [sum(r[j] * x[j] for j in range(3)) % m for r in a]
        sol = solve_module(a, rhs, p, N)
        assert sol.particular is not None
        for cand in all_solutions(sol):
            assert all(
                sum(r[j] * cand[j] for j in range(3)) % m == v for r, v in zip(a, rhs)
            )
        assert tuple(x) in set(all_solutions(sol))


def _regular(a0, a1, C, m):
    """The regular matrix of a0 + a1 x, for C the companion matrix of x."""
    return (a0 * np.eye(2, dtype=np.int64) + a1 * C) % m


def _inverse(F, m):
    """The inverse of the Frobenius matrix [[1, s0], [0, s1]] over Z/m."""
    s1 = pow(int(F[1, 1]), -1, m)
    return np.array([[1, -F[0, 1] * s1 % m], [0, s1]], dtype=np.int64)


def test_galois_ring_frobenius_gr42():
    # GR(4, 2): F^2 = I, F fixes the scalars, and its second column is the
    # second root of x^2 + x + 1, which is 3 + 3x (exhaustive check)
    m = 4
    C = companion(defining_rule(2, 2), m)
    _, F = galois_matrices(2, 2)
    assert F.tolist() == [[1, 3], [0, 3]]
    assert (F @ F % m == np.eye(2)).all()
    roots = [
        (a0, a1)
        for a0 in range(m)
        for a1 in range(m)
        if (a0, a1) != (0, 1)
        and not (((M := _regular(a0, a1, C, m)) @ M + M + np.eye(2, dtype=np.int64)) % m).any()
    ]
    assert roots == [(3, 3)] == [tuple(F[:, 1])]
    for c in range(m):
        assert (F @ np.array([c, 0]) % m == [c, 0]).all()


def test_frobenius_is_ring_homomorphism():
    # F M_a F^-1 = M_{sigma(a)}: conjugation by F is the ring automorphism
    # sigma on the regular matrices, an involution fixing the scalars
    for p, N in [(2, 2), (3, 2)]:
        m = p**N
        C = companion(defining_rule(p, 2), m)
        _, F = galois_matrices(p, N)
        Finv = _inverse(F, m)
        assert (F @ Finv % m == np.eye(2)).all() and (F @ F % m == np.eye(2)).all()
        for a0, a1 in itertools.product(range(m), repeat=2):
            Ma = _regular(a0, a1, C, m)
            sigma_a = F @ np.array([a0, a1]) % m
            assert (F @ Ma @ Finv % m == _regular(*sigma_a, C, m)).all()
        for c in range(m):
            assert (F @ np.array([c, 0]) % m == [c, 0]).all()


def test_teichmuller_gr42():
    # x is its own Teichmuller lift in GR(4, 2): U = C, x^3 = 1, and the
    # iteration U <- U^4 sends 1 + 2x to 1
    m = 4
    C = companion(defining_rule(2, 2), m)
    U, _ = galois_matrices(2, 2)
    assert (U == C).all()
    assert (matpow_mod(C, 3, m) == np.eye(2)).all()
    v = _regular(1, 2, C, m)
    for _ in range(2):
        v = matpow_mod(v, 4, m)
    assert (v == np.eye(2)).all()


def test_teichmuller_order_divides_unit_group():
    # U^(q-1) = I, and U mod p has order exactly q - 1
    for p, N in [(2, 2), (2, 3), (3, 2), (5, 2), (7, 3)]:
        q, m = p * p, p**N
        U, _ = galois_matrices(p, N)
        assert (matpow_mod(U, q - 1, m) == np.eye(2)).all()
        orders = [k for k in range(1, q) if (matpow_mod(U % p, k, p) == np.eye(2)).all()]
        assert orders[0] == q - 1


def test_regular_matrix_f4():
    U, F = galois_matrices(2, 1)
    assert U.tolist() == [[0, 1], [1, 1]]
    assert F.tolist() == [[1, 1], [0, 1]]
    assert companion(defining_rule(2, 2), 2).tolist() == [[0, 1], [1, 1]]


def test_regular_matrix_multiplicative_and_twisted_rule():
    # F C F^-1 is multiplication by sigma(x): a root of f, congruent to C^p
    # mod p, and M_a M_b = M_{ab} for the regular matrices
    for p, N in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 2), (7, 2)]:
        m = p**N
        rule = defining_rule(p, 2)
        C = companion(rule, m)
        _, F = galois_matrices(p, N)
        R = F @ C @ _inverse(F, m) % m
        assert ((R @ R - rule[1] * R - rule[0] * np.eye(2, dtype=np.int64)) % m == 0).all()
        assert (R % p == matpow_mod(C, p, p)).all()
        assert not (R == C).all()
        for (a0, a1), (b0, b1) in itertools.product(itertools.product(range(min(m, 5)), repeat=2), repeat=2):
            ab = _regular(a0, a1, C, m) @ np.array([b0, b1]) % m
            assert (_regular(a0, a1, C, m) @ _regular(b0, b1, C, m) % m == _regular(*ab, C, m)).all()


def test_unit_generator_is_teichmuller_and_generates():
    for p in (2, 3, 5):
        U, _ = galois_matrices(p, 2)
        m, q = p * p, p * p
        assert (matpow_mod(U, q, m) == U).all()
        assert [k for k in range(1, q) if (matpow_mod(U, k, m) == np.eye(2)).all()] == [q - 1]
    # canonical choices are stable: the residue of u is (a0, a1) = U[:, 0]
    assert galois_matrices(2, 2)[0][:, 0].tolist() == [0, 1]
    assert galois_matrices(3, 1)[0][:, 0].tolist() == [1, 1]


@st.composite
def _galois_precisions(draw):
    """(p, n, N) with 1 <= n < N and (p^N)^2 <= 2^62, the largest N
    galois_matrices accepts."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    top = max(N for N in range(1, 63) if (p**N) ** 2 <= 2**62)
    N = draw(st.integers(2, top))
    return p, draw(st.integers(1, N - 1)), N


@settings(max_examples=60, deadline=None)
@given(_galois_precisions())
def test_galois_matrices_reduce_to_the_lower_precision_pair(pnN):
    # the twisted kernel module reads (U, F) off rho_W at precision N and
    # reduces them mod p^n: the Teichmuller unit and the Frobenius commute
    # with reduction, so this is the pair computed at precision n
    p, n, N = pnN
    for high, low in zip(galois_matrices(p, N), galois_matrices(p, n)):
        assert (high % p**n == low).all()


# (U, F) of galois_matrices, recorded from the element-level construction
# they replace
GALOIS_MATRICES = {
    (2, 1): ([[0, 1], [1, 1]], [[1, 1], [0, 1]]),
    (2, 2): ([[0, 3], [1, 3]], [[1, 3], [0, 3]]),
    (2, 3): ([[0, 7], [1, 7]], [[1, 7], [0, 7]]),
    (2, 4): ([[0, 15], [1, 15]], [[1, 15], [0, 15]]),
    (3, 1): ([[1, 2], [1, 1]], [[1, 0], [0, 2]]),
    (3, 2): ([[7, 8], [4, 7]], [[1, 0], [0, 8]]),
    (3, 3): ([[16, 26], [13, 16]], [[1, 0], [0, 26]]),
    (3, 4): ([[70, 80], [40, 70]], [[1, 0], [0, 80]]),
    (5, 1): ([[1, 4], [2, 1]], [[1, 0], [0, 4]]),
    (5, 2): ([[1, 4], [2, 1]], [[1, 0], [0, 24]]),
    (5, 3): ([[26, 29], [77, 26]], [[1, 0], [0, 124]]),
    (5, 4): ([[401, 404], [202, 401]], [[1, 0], [0, 624]]),
    (7, 1): ([[1, 3], [1, 1]], [[1, 0], [0, 6]]),
    (7, 2): ([[29, 45], [15, 29]], [[1, 0], [0, 48]]),
    (7, 3): ([[127, 45], [15, 127]], [[1, 0], [0, 342]]),
    (7, 4): ([[1156, 1074], [358, 1156]], [[1, 0], [0, 2400]]),
    (3, 10): ([[28177, 59048], [29524, 28177]], [[1, 0], [0, 59048]]),
    (2, 12): ([[0, 4095], [1, 4095]], [[1, 4095], [0, 4095]]),
}


@pytest.mark.parametrize("p, N", sorted(GALOIS_MATRICES))
def test_galois_matrices_match_recorded_values(p, N):
    U, F = galois_matrices(p, N)
    assert (U.tolist(), F.tolist()) == GALOIS_MATRICES[p, N]


def test_galois_matrices_precision_guard():
    # (5^14)^2 > 2^62
    galois_matrices(5, 13)
    with pytest.raises(PrecisionError, match=f"p\\^N = {5**14}"):
        galois_matrices(5, 14)


@pytest.mark.parametrize("p", [4, 6, 8, 9, 10])
def test_galois_matrices_raise_on_non_prime_p(p):
    # the unbounded order loop of the element-level construction hung here
    with pytest.raises(ValueError, match=f"p = {p} is not a prime"):
        galois_matrices(p, 2)


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
        assert all_solutions(sol) == brute


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
    assert _same_basis(ha, hb)
    assert _same_basis(ha, hc) == (brute_span(a, m) == brute_span(c, m))
    assert set(enumerate_span(ha)) == brute_span(a, m)


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
    assert (sol.particular is not None) == bool(brute)
    assert all_solutions(sol) == brute


# both sides of the int64 / Python-int switch of `kernels.rref_modp` (m^2 < 2^63)
LARGE_MODULI = st.sampled_from([(3, 19), (3, 20), (2, 31), (2, 32)])


def valued_matrices(p, N, nrows, ncols):
    """Entries u p^k for a random u and k in 0..N (k = N gives 0), so that
    the pivots have every valuation and the shadow rows matter."""
    entry = st.tuples(st.integers(0, p**N - 1), st.integers(0, N)).map(
        lambda uk: uk[0] * p ** uk[1] % p**N
    )
    return st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), pN=LARGE_MODULI, nrows=st.integers(1, 5), ncols=st.integers(1, 5))
def test_howell_form_matches_list_elimination_at_large_moduli(data, pN, nrows, ncols):
    p, N = pN
    rows = data.draw(valued_matrices(p, N, nrows, ncols))
    h = howell_form(rows, p, N)
    want, pivots = _howell_rows(rows, ncols, p, N)
    assert h.rows.dtype == (np.int64 if p ** (2 * N) < 2**63 else object)
    assert h.rows.tolist() == want
    assert h.pivots == [c for c, _ in pivots]
    assert h.invariant_factors == [p ** (N - e) for _, e in pivots]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), pN=LARGE_MODULI, neq=st.integers(1, 4), nvar=st.integers(1, 4))
def test_solve_module_matches_list_elimination_at_large_moduli(data, pN, neq, nvar):
    # half the right sides are images A x, so both outcomes are drawn
    p, N = pN
    m = p**N
    a = data.draw(valued_matrices(p, N, neq, nvar))
    if data.draw(st.booleans()):
        x = data.draw(st.lists(st.integers(0, m - 1), min_size=nvar, max_size=nvar))
        rhs = [sum(r * v for r, v in zip(row, x)) % m for row in a]
    else:
        rhs = data.draw(st.lists(st.integers(0, m - 1), min_size=neq, max_size=neq))
    sol = solve_module(a, rhs, p, N)
    particular, kernel_rows, kernel_pivots = solve_rows(a, rhs, p, N)
    assert sol.kernel.rows.tolist() == kernel_rows
    assert sol.kernel.pivots == kernel_pivots
    assert (sol.particular is None) == (particular is None)
    if particular is not None:
        x = sol.particular.tolist()
        assert all(sum(r * v for r, v in zip(row, x)) % m == b for row, b in zip(a, rhs))
        assert not any(howell_reduce(sol.kernel, [u - v for u, v in zip(x, particular)]))
