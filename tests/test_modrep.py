import numpy as np
import pytest

from defring.groups import (
    orbit_count_triples,
    pgl2,
    semidirect_product,
    symmetric_group,
    twisted_frobenius_group,
)
from defring.modrep import (
    Representation,
    RepresentationError,
    admissible_degree,
    d_basis,
    end_rep,
    galois_module_rep,
    hensel_lift_rep,
    hom_space,
    is_projective_higman,
    matrix_inv_mod,
    standard_perm_rep,
    strictly_equivalent,
    twisted_end_decomposition,
    twisted_kernel_module,
    x_matrices,
)


def test_matrix_inv_mod():
    m = np.array([[1, 2], [3, 4]])
    for p, N in [(5, 1), (5, 3), (7, 2)]:
        inv = matrix_inv_mod(m, p, N)
        assert ((m @ inv) % p**N == np.eye(2, dtype=int)).all()
    with pytest.raises(RepresentationError):
        matrix_inv_mod(np.array([[2, 0], [0, 1]]), 2, 3)


def test_galois_module_rep_p2():
    V = galois_module_rep(2, 1)
    zeta, sigma = V.group.generators
    assert V.mats[zeta].tolist() == [[0, 1], [1, 1]]
    assert V.mats[sigma].tolist() == [[1, 1], [0, 1]]


def test_galois_module_rep_reduction():
    V3 = galois_module_rep(2, 3)
    V1 = galois_module_rep(2, 1)
    assert (V3.reduce_mod(1).mats == V1.mats).all()


def test_schur_endomorphisms_scalar():
    for p in (2, 3, 5):
        V = galois_module_rep(p, 1)
        assert hom_space(V, V).dimension == 1


def test_standard_perm_rep_s3_transposition():
    G = symmetric_group(3)
    pieces = standard_perm_rep(G, 5)
    transposition = G.generators[0]
    assert pieces.standard.mats[transposition].tolist() == [[4, 1], [0, 1]]
    # T is trivial
    assert (pieces.trivial.mats == 1).all()


def test_standard_perm_rep_rejects_bad_p():
    with pytest.raises(RepresentationError):
        standard_perm_rep(symmetric_group(3), 3)


def test_standard_rep_simple_for_pgl2():
    # V for PGL2(F_2) acting on 3 points over F_2 is 2-dimensional simple
    G = pgl2(2)
    pieces = standard_perm_rep(G, 2)
    assert pieces.standard.degree == 2
    assert hom_space(pieces.standard, pieces.standard).dimension == 1
    proj, _ = is_projective_higman(pieces.standard)
    assert proj


def test_d_basis_example():
    D = d_basis(2)
    assert D[0][0].tolist() == [[1, -1, 0], [-1, 1, 0], [0, 0, 0]]
    assert len(D) == 2 and len(D[0]) == 2


def test_end_rep_dimension_and_action():
    V = galois_module_rep(2, 1)
    M = end_rep(V)
    assert M.degree == 4
    M.validate()


def test_multiplicity_identity_on_standard_instances():
    # dim Hom(V, End V) = (#orbits on triples) - 4 = 1
    for d, p in [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]:
        G = symmetric_group(d + 1) if d < p - 1 else pgl2(d)
        pieces = standard_perm_rep(G, p)
        V = pieces.standard
        M = end_rep(V)
        mult = hom_space(V, M).dimension
        orbits = orbit_count_triples(G)
        assert orbits == 5
        assert mult == orbits - 4 == 1


def test_x_matrices_d2():
    xs = x_matrices(2, 5).xs
    assert xs[0].tolist() == [[1, 0, 4], [0, 4, 1], [4, 1, 0]]
    assert xs[1].tolist() == [[0, 4, 1], [4, 1, 0], [1, 0, 4]]


def test_x_matrices_noncommuting_all_instances():
    for d, p in [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]:
        sg = x_matrices(d, p)
        assert sg.noncommuting_pair() is not None


def test_x_matrices_admissibility():
    assert admissible_degree(3, 3)  # 3 = 3^1
    assert admissible_degree(3, 7)  # 3 < 6
    assert not admissible_degree(4, 5)  # 4 = p-1 and not a power of 5
    with pytest.raises(RepresentationError):
        x_matrices(4, 5)


def test_x_span_is_submodule_isomorphic_to_standard():
    # span{x_1..x_d} inside End(natural) is G-stable and the map
    # v_j -> x_j intertwines the actions
    from defring import kernels

    for d, p in [(2, 5), (3, 3), (2, 2)]:
        G = symmetric_group(d + 1) if d < p - 1 else pgl2(d)
        pieces = standard_perm_rep(G, p)
        xs = x_matrices(d, p).xs
        span = np.stack([x.reshape(-1) % p for x in xs])
        for s in G.generators:
            P = pieces.natural.mats[s]
            Pinv = matrix_inv_mod(P, p, 1)
            for j, x in enumerate(xs):
                img = (P @ x @ Pinv % p).reshape(-1)
                aug = np.vstack([span, img])
                assert kernels.rank_modp(aug, p) == kernels.rank_modp(span, p)
        # intertwining on generators: x(s.v_j) = s.x_j
        for s in G.generators:
            P = pieces.natural.mats[s]
            Pinv = matrix_inv_mod(P, p, 1)
            Vmat = pieces.standard.mats[s]
            for j in range(d):
                lhs = sum(int(Vmat[i, j]) * xs[i] for i in range(d)) % p
                rhs = (P @ xs[j] @ Pinv) % p
                assert (lhs == rhs).all()


def test_twisted_noncommutativity_witness():
    for p in (2, 3, 5):
        V = galois_module_rep(p, 1)
        G = V.group
        zeta, sigma = G.generators
        s = V.mats[sigma]
        z = V.mats[G.mul(zeta, sigma)]
        assert ((s @ z) % p != (z @ s) % p).any()


def test_twisted_end_decomposition():
    for p in (2, 3, 5):
        V, M, sigma_part, one_part = twisted_end_decomposition(p)
        G = V.group
        p_ = V.p
        from defring import kernels

        for part in (sigma_part, one_part):
            for g in G.generators:
                for v in part:
                    img = (M.mats[g] @ v) % p_
                    aug = np.vstack([part, img])
                    assert kernels.rank_modp(aug, p_) == kernels.rank_modp(part, p_)
        # multiplication operators commute; sigma-part witnesses noncommutativity
        a = sigma_part[0].reshape(2, 2)
        b = sigma_part[1].reshape(2, 2)
        assert ((a @ b) % p_ != (b @ a) % p_).any()


def test_kernel_module_reduces_to_sigma_part():
    # K/pK is isomorphic to the sigma-part of End(V) as a module
    for p, n in [(2, 1), (2, 2), (3, 2)]:
        K = twisted_kernel_module(p, n)
        Kbar = K.reduce_mod(1)
        V, M, sigma_part, _ = twisted_end_decomposition(p)

        class _Part:
            pass

        # hom into full End must be 1-dimensional (simple module, multiplicity 1)
        hs = hom_space(Kbar, end_rep(V))
        assert hs.dimension == 1
        H = hs.basis[0]
        # the hom is injective and lands in the sigma-part
        assert np.linalg.matrix_rank(H % p) == 2
        from defring import kernels

        for col in H.T:
            aug = np.vstack([sigma_part, col % p])
            assert kernels.rank_modp(aug, p) == 2


def test_hom_space_invariant_factors_twisted():
    # Hom(K, End(V_W)/p^n) is free of rank one over Z/p^n
    for p, n in [(2, 2), (3, 2)]:
        K = twisted_kernel_module(p, n)
        rho_w = galois_module_rep(p, n + 2)
        Mn = end_rep(rho_w).reduce_mod(n)
        hs = hom_space(K, Mn)
        assert hs.invariant_factors == [p**n]


def test_higman_projectivity():
    V = galois_module_rep(2, 1)  # F_4 over the order-6 twisted group
    proj, f = is_projective_higman(V)
    assert proj and f is not None

    G = twisted_frobenius_group(2)
    triv = Representation(G, np.ones((G.order, 1, 1), dtype=int), 2, 1, validate=False)
    proj, f = is_projective_higman(triv)
    assert not proj and f is None
    # cross-check: the trivial module restricted to a Sylow 2-subgroup is
    # not free, so not projective there either
    syl, elems = G.sylow_subgroup(2)
    proj_syl, _ = is_projective_higman(triv.restrict(syl, elems))
    assert not proj_syl


def test_higman_maschke_case():
    # p does not divide |S_3| = 6 for p = 5: everything is projective
    G = symmetric_group(3)
    pieces = standard_perm_rep(G, 5)
    proj, f = is_projective_higman(pieces.standard)
    assert proj
    inv6 = pow(6, -1, 5)
    # |G|^{-1} * id is always a witness; ours must behave the same way
    assert f is not None


def test_hensel_lift_standard_s3_p5():
    G = symmetric_group(3)
    V = standard_perm_rep(G, 5).standard
    W = hensel_lift_rep(V, 2)
    assert (W.reduce_mod(1).mats == V.mats).all()
    W.validate()


def test_hensel_lift_matches_galois_lift_up_to_strict_equivalence():
    Vbar = galois_module_rep(2, 1)
    lifted = hensel_lift_rep(Vbar, 3)
    reference = galois_module_rep(2, 3)
    U = strictly_equivalent(lifted, reference)
    assert U is not None


def test_hensel_lift_identity_at_N1():
    V = galois_module_rep(3, 1)
    assert hensel_lift_rep(V, 1) is V


def test_dual_of_standard_selfdual():
    G = symmetric_group(3)
    V = standard_perm_rep(G, 5).standard
    # the contragredient rho(g)^{-T}, with rho(g)^-1 read as rho(g^-1)
    Vd = Representation(G, V.mats[G.inverse].transpose(0, 2, 1), V.p, V.N)
    assert hom_space(V, Vd).dimension == 1


def test_inflation_through_semidirect():
    K = twisted_kernel_module(2, 1)
    G = K.group
    gamma = semidirect_product(K, G)
    V = galois_module_rep(2, 1)
    Vgamma = V.inflate(gamma.quotient_hom())
    Vgamma.validate()
    assert Vgamma.group is gamma
    assert not Vgamma.is_faithful()  # kernel K acts trivially
    assert V.is_faithful()


def test_hensel_lift_steinberg_pgl23():
    # d = 3 = p: the Steinberg-type standard module of PGL_2(F_3) is
    # projective and lifts; the lift agrees with the permutation-lattice
    # lift up to strict equivalence
    from defring.certify import integral_standard_lift

    G = pgl2(3)
    V = standard_perm_rep(G, 3).standard
    proj, _ = is_projective_higman(V)
    assert proj
    lifted = hensel_lift_rep(V, 2)
    reference = integral_standard_lift(G, 3, 2)
    assert (lifted.reduce_mod(1).mats == V.mats).all()
    U = strictly_equivalent(lifted, reference)
    assert U is not None


HOM_BATTERY = [f"twisted-p{p}n{n}" for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]] + [
    f"standard-d{d}p{p}" for d, p in [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]
]


@pytest.mark.parametrize("name", HOM_BATTERY)
def test_hom_space_basis_is_equivariant_at_every_element(name):
    # hom_space solves on generators only; every basis H must satisfy
    # Y(e) H = H X(e) at every element e of the group
    from defring.certify import assemble, parse_instance_name

    asm = assemble(parse_instance_name(name))
    V = asm.rho_bar_g
    pairs = [(asm.K, asm.MW_mod_pn), (asm.K.reduce_mod(1), asm.M), (V, V), (V, asm.M)]
    for i, (X, Y) in enumerate(pairs):
        hs = hom_space(X, Y)
        assert hs.basis or i == 3  # K -> End and V -> V are never zero
        m = X.modulus
        for H in hs.basis:
            assert ((Y.mats @ H) % m == (H @ X.mats) % m).all(), name


def test_hom_space_refuses_representations_of_different_groups():
    V = galois_module_rep(3, 1)  # over the twisted group of order 16
    W = standard_perm_rep(symmetric_group(4), 3).standard
    with pytest.raises(RepresentationError, match="same group"):
        hom_space(V, W)


def test_from_generator_images_needs_one_matrix_per_generator():
    G = symmetric_group(3)
    with pytest.raises(RepresentationError, match="one matrix per group generator"):
        Representation.from_generator_images(G, [np.eye(2, dtype=np.int64)], 2, 1)
