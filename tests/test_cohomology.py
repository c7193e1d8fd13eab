import numpy as np
import pytest

from defring.cohomology import (
    BarComplex,
    CohomologyError,
    h1_dim,
    h2_dim,
    hom_invariants_dim,
    trivial_module,
    wedge_cocycle,
)
from defring.groups import (
    FiniteGroup,
    pgl2,
    semidirect_product,
    symmetric_group,
    twisted_frobenius_group,
)
from defring.modrep import (
    Representation,
    end_rep,
    galois_module_rep,
    is_projective_higman,
    standard_perm_rep,
    twisted_kernel_module,
)


def cyclic_group(n):
    table = np.array([[(i + j) % n for j in range(n)] for i in range(n)])
    return FiniteGroup(table, [1] if n > 1 else [], name=f"C{n}")


def alternating_4():
    # even permutations of 4 points: generated by (0 1)(2 3) and (0 1 2)
    d_perm = (1, 0, 3, 2)
    t_perm = (1, 2, 0, 3)
    return FiniteGroup.from_permutations([d_perm, t_perm], name="A4")


def test_h1_trivial_group():
    G = cyclic_group(1)
    assert h1_dim(trivial_module(G, 2)) == 0


def test_h1_cyclic_p_trivial_coeffs():
    # H^1(Z/p, F_p) = Hom(Z/p, F_p) is one-dimensional
    for p in (2, 3, 5):
        G = cyclic_group(p)
        assert h1_dim(trivial_module(G, p)) == 1


def test_h1_s4_end_module():
    # the tangent-space count for the order-24 semidirect instance
    K = twisted_kernel_module(2, 1)
    gamma = semidirect_product(K, K.group)
    V = galois_module_rep(2, 1).inflate(gamma.quotient_hom())
    M = end_rep(V)
    assert h1_dim(M) == 1


def test_h1_matches_hom_invariants_on_twisted_instances():
    for p, n in [(2, 1), (2, 2), (3, 1)]:
        K = twisted_kernel_module(p, n)
        gamma = semidirect_product(K, K.group)
        V = galois_module_rep(p, 1).inflate(gamma.quotient_hom())
        M = end_rep(V)
        MG = end_rep(galois_module_rep(p, 1))
        assert h1_dim(M) == hom_invariants_dim(K, MG) == 1


def test_h2_trivial_group():
    G = cyclic_group(1)
    assert h2_dim(trivial_module(G, 3)) == 0


def test_h2_cyclic_groups():
    # H^2(Z/n, F_p) is 1-dimensional when p | n (classifies Z/p^2-type
    # extensions), 0 otherwise
    assert h2_dim(trivial_module(cyclic_group(2), 2)) == 1
    assert h2_dim(trivial_module(cyclic_group(3), 3)) == 1
    assert h2_dim(trivial_module(cyclic_group(3), 2)) == 0


def test_h2_a4_f2_nonzero():
    G = alternating_4()
    assert G.order == 12
    assert h2_dim(trivial_module(G, 2)) != 0


def test_h2_s3_projective_coefficients_vanish():
    # End(F_4) is projective over the order-6 twisted group at p = 2
    V = galois_module_rep(2, 1)
    M = end_rep(V)
    proj, _ = is_projective_higman(M)
    assert proj
    assert h2_dim(M) == 0
    assert h1_dim(M) == 0


def test_h1_h2_vanish_for_projective_modules_battery():
    # image groups of order <= 48 with projective End-coefficients
    cases = []
    for p in (2,):
        V = galois_module_rep(p, 1)
        cases.append((end_rep(V), p))
    for d, p in [(2, 5), (3, 3), (2, 7)]:
        G = symmetric_group(d + 1) if d < p - 1 else pgl2(d)
        M = end_rep(standard_perm_rep(G, p).standard)
        cases.append((M, p))
    for p in (3, 5):
        M = end_rep(galois_module_rep(p, 1))
        cases.append((M, p))
    for M, p in cases:
        proj, _ = is_projective_higman(M)
        assert proj, (M.group.name, p)
        assert M.group.order <= 48
        assert h1_dim(M) == 0, (M.group.name, p)
        assert h2_dim(M) == 0, (M.group.name, p)


def test_h2_sylow_reduction_path():
    # the twisted group at p = 5 has order 48 coprime to 5: the Sylow
    # subgroup is trivial and forces vanishing without dense assembly
    M = end_rep(galois_module_rep(5, 1))
    direct_cost = (M.group.order - 1) ** 3 * M.degree
    assert direct_cost * (M.group.order - 1) ** 2 * M.degree > 25_000_000
    assert h2_dim(M) == 0


def test_h2_guard():
    # forcing the direct route on S_5 exceeds the dense materialization limit
    G = symmetric_group(5)
    with pytest.raises(CohomologyError):
        h2_dim(trivial_module(G, 2), method="direct")


def test_bar_complex_cocycle_coboundary_roundtrip():
    G = cyclic_group(3)
    M = trivial_module(G, 3)
    cx = BarComplex(M)
    # a coboundary built from a random 1-cochain is a cocycle and a coboundary
    y = {1: np.array([2]), 2: np.array([1])}

    def cob(g, h):
        gh = (g + h) % 3
        total = y[h] + y[g]
        if gh != 0:
            total = total - y[gh]
        return total % 3

    assert cx.is_cocycle(cob)
    assert cx.is_coboundary(cob)
    # the nontrivial class: carry cocycle of Z/9 -> Z/3
    def carry(g, h):
        return np.array([(g + h) // 3])

    assert cx.is_cocycle(carry)
    assert not cx.is_coboundary(carry)


def test_wedge_cocycle_p3():
    rep = wedge_cocycle(3)
    assert rep.is_cocycle
    assert rep.is_coboundary is False
    assert rep.invariant


def test_wedge_cocycle_p2_inconclusive():
    rep = wedge_cocycle(2)
    assert rep.is_cocycle
    assert rep.is_coboundary is None
    assert rep.invariant


def test_wedge_invariance_needs_det_one():
    with pytest.raises(CohomologyError):
        wedge_cocycle(3, action_mats=[np.array([[2, 0], [0, 1]])])


def _loop_coboundaries(M):
    """d1 and d2 of the normalized bar complex, one (g, h[, k]) at a time."""
    G, p, dm, m = M.group, M.p, M.degree, M.group.order - 1
    eye = np.eye(dm, dtype=np.int64)

    def c1(x):
        return slice((x - 1) * dm, x * dm)

    def c2(x, y):
        i = ((x - 1) * m + (y - 1)) * dm
        return slice(i, i + dm)

    d1 = np.zeros((m * m * dm, m * dm), dtype=np.int64)
    d2 = np.zeros((m**3 * dm, m * m * dm), dtype=np.int64)
    for g in range(1, G.order):
        for h in range(1, G.order):
            r = c2(g, h)
            gh = G.mul(g, h)
            d1[r, c1(h)] += M.mats[g]
            if gh:
                d1[r, c1(gh)] -= eye
            d1[r, c1(g)] += eye
            for k in range(1, G.order):
                hk = G.mul(h, k)
                i = (((g - 1) * m + (h - 1)) * m + (k - 1)) * dm
                r = slice(i, i + dm)
                d2[r, c2(h, k)] += M.mats[g]
                if gh:
                    d2[r, c2(gh, k)] -= eye
                if hk:
                    d2[r, c2(g, hk)] += eye
                d2[r, c2(g, h)] -= eye
    return d1 % p, d2 % p


@pytest.mark.parametrize(
    "make",
    [
        lambda: trivial_module(symmetric_group(3), 2),
        lambda: trivial_module(symmetric_group(3), 3),
        lambda: trivial_module(alternating_4(), 2),
        lambda: trivial_module(alternating_4(), 3),
        lambda: end_rep(galois_module_rep(2, 1)),
    ],
    ids=["S3-F2", "S3-F3", "A4-F2", "A4-F3", "End-GR4"],
)
def test_vectorised_coboundaries_match_loop_reference(make):
    M = make()
    cx = BarComplex(M)
    d1, d2 = _loop_coboundaries(M)
    got1, got2 = cx.d1_matrix(), cx.d2_matrix()
    assert got1.dtype == got2.dtype == np.int64
    assert np.array_equal(got1, d1) and np.array_equal(got2, d2)
    # d2 d1 = 0 on normalized cochains
    assert not ((got2 @ got1) % M.p).any()


def test_h2_s4_direct():
    # Schur multiplier Z/2 and abelianization Z/2: H^2(S_4, F_2) = 2;
    # H^2(S_4, F_3) = 0 since both have no 3-part
    S4 = symmetric_group(4)
    assert h2_dim(trivial_module(S4, 2), method="direct") == 2
    assert h2_dim(trivial_module(S4, 3), method="direct") == 0
