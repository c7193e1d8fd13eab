import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring.groups import (
    TABLE_GUARD,
    FiniteGroup,
    GroupError,
    find_isomorphism,
    orbit_count_triples,
    pgl2,
    semidirect_product,
    symmetric_group,
    twisted_frobenius_group,
)
from defring.modrep import Representation, RepresentationError


def test_symmetric_group_orders():
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24
    # the transposition and the long cycle reach all 120 elements by BFS
    assert symmetric_group(5).order == 120
    with pytest.raises(GroupError):
        symmetric_group(9)


def test_words_evaluate_to_elements():
    G = symmetric_group(4)
    for e in range(G.order):
        acc = 0
        for gi in G.word(e):
            acc = G.mul(acc, G.generators[gi])
        assert acc == e


def test_extend_at_some_elements_walks_only_their_paths():
    G = symmetric_group(4)
    calls = []

    def mul(a, b):
        calls.append(len(a))
        return G.table[a, b]

    for gens in (None, G.small_generating_set(), (3, 7, 11)):
        tree_gens = list(G.generators if gens is None else gens)
        full = G.extend(tree_gens, lambda a, b: G.table[a, b], 0, gens)
        assert (full == np.arange(G.order)).all()
        levels = G.tree_levels(gens)
        for at in ([0], [levels[-1][0]], list(gens or G.generators), [5, 5, 17, 0, 2]):
            calls.clear()
            assert G.extend(tree_gens, mul, 0, gens, at=at).tolist() == at
            # one mul per level down to the deepest element asked for, on
            # the elements of the paths only
            depth = max(k for k, level in enumerate(levels) if set(at) & set(level.tolist()))
            assert len(calls) == depth and sum(calls) < G.order


def test_inverse_and_orders():
    G = symmetric_group(4)
    for e in range(G.order):
        assert G.mul(e, G.inv(e)) == 0
    orders = sorted(G.element_order(e) for e in range(G.order))
    assert orders.count(1) == 1
    assert orders.count(4) == 6  # 4-cycles


def test_pgl2_q2_is_s3():
    G = pgl2(2)
    assert G.order == 6
    assert G.action.shape[1] == 3
    iso = find_isomorphism(G, symmetric_group(3))
    # an isomorphism: injective between groups of equal order
    assert iso is not None and iso.is_injective() and iso.source.order == iso.target.order


def test_pgl2_q3():
    G = pgl2(3)
    assert G.order == 24
    assert G.action.shape[1] == 4


def test_pgl2_q4_triply_transitive():
    G = pgl2(4)
    assert G.order == 60
    assert G.action.shape[1] == 5
    assert orbit_count_triples(G) == 5


def test_pgl2_sharp_transitivity():
    # the stabilizer of the ordered triple (0, 1, infinity) is trivial
    for q in (2, 3, 4, 5):
        G = pgl2(q)
        inf = q
        stab = [
            g
            for g in range(G.order)
            if G.action[g][0] == 0 and G.action[g][1] == 1 and G.action[g][inf] == inf
        ]
        assert stab == [0], q


# table hashes recorded from the polynomial-arithmetic construction of F_q
# that the companion matrices replace
PGL2_TABLE_HASHES = {
    2: "e58bacb600dcea57",
    3: "69d03aff770c1654",
    4: "4023378bad7e7a1f",
    5: "ea61a0c25cd59124",
    7: "576e10091e87e69e",
    8: "20fbf0c7163c8ec0",
    9: "43c125024570aa96",
}


@pytest.mark.parametrize("q", sorted(PGL2_TABLE_HASHES))
def test_pgl2_table_matches_recorded_hash(q):
    assert pgl2(q).table_hash() == PGL2_TABLE_HASHES[q]


def test_pgl2_rejects_non_prime_power():
    with pytest.raises(GroupError):
        pgl2(6)


def test_twisted_group_orders():
    assert twisted_frobenius_group(2).order == 6
    assert twisted_frobenius_group(3).order == 16
    assert twisted_frobenius_group(5).order == 48


def test_twisted_group_relations():
    for p in (2, 3, 5):
        G = twisted_frobenius_group(p)
        zeta, sigma = G.generators
        assert G.element_order(zeta) == p * p - 1
        assert G.element_order(sigma) == 2
        # sigma zeta sigma^-1 = zeta^p
        zeta_p = 0
        for _ in range(p):
            zeta_p = G.mul(zeta_p, zeta)
        assert G.conj(sigma, zeta) == zeta_p


def test_twisted_p2_is_s3():
    iso = find_isomorphism(twisted_frobenius_group(2), symmetric_group(3))
    assert iso is not None


def test_twisted_order_coprime_to_p_for_odd_p():
    for p in (3, 5, 7):
        assert twisted_frobenius_group(p).order % p != 0


def test_orbit_count_triples_s3_s5():
    assert orbit_count_triples(symmetric_group(3)) == 5
    assert orbit_count_triples(symmetric_group(5)) == 5


def test_orbit_count_trivial_group():
    table = np.zeros((1, 1), dtype=np.int64)
    G = FiniteGroup(table, [], name="1", action=[[0, 1]])
    assert orbit_count_triples(G) == 8


def _v4_module(G):
    """The rank-2 F_2 module where S3's generators act via GL_2(F_2)."""
    # transposition -> [[0,1],[1,0]], 3-cycle -> [[0,1],[1,1]]
    return Representation.from_generator_images(
        G, [np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 1]])], 2, 1
    )


def test_semidirect_s4():
    G = symmetric_group(3)
    K = _v4_module(G)
    gamma = semidirect_product(K, G)
    assert gamma.order == 24
    iso = find_isomorphism(gamma, symmetric_group(4))
    assert iso is not None


def test_semidirect_exact_sequence():
    G = symmetric_group(3)
    K = _v4_module(G)
    gamma = semidirect_product(K, G)
    q = gamma.quotient_hom()
    # the kernel of the quotient is K = {(k, 1)}, at indices k * |G|
    kernel = [e for e in range(gamma.order) if q(e) == 0]
    assert kernel == [k * G.order for k in range(K.size)]
    # the section g -> (0, g), at index g, is a homomorphism
    sec = np.arange(G.order)
    for g in range(G.order):
        for h in range(G.order):
            assert gamma.mul(int(sec[g]), int(sec[h])) == int(sec[G.mul(g, h)])
    # conjugation of (k, 1) by (0, g) is (g.k, 1)
    for g in range(G.order):
        for k in range(K.size):
            kv = K.decode(k)
            e = gamma.encode(kv, 0)
            conj = gamma.conj(int(sec[g]), e)
            assert conj == gamma.encode(K.act(g, kv), 0)


def test_semidirect_trivial_module_gives_direct_factor():
    G = symmetric_group(3)
    K = Representation.from_generator_images(G, [np.eye(1, dtype=int), np.eye(1, dtype=int)], 2, 1)
    gamma = semidirect_product(K, G)
    assert gamma.order == 12
    # (k, 1) commutes with everything
    for e in range(gamma.order):
        k = gamma.encode((1,), 0)
        assert gamma.mul(e, k) == gamma.mul(k, e)


def test_pmodule_rejects_bad_action():
    G = symmetric_group(3)
    with pytest.raises(RepresentationError):
        # transposition mapped to an order-3 matrix
        Representation.from_generator_images(
            G, [np.array([[0, 1], [1, 1]]), np.array([[0, 1], [1, 1]])], 2, 1
        )
    with pytest.raises(RepresentationError):
        # singular matrix
        Representation.from_generator_images(
            G, [np.array([[0, 0], [0, 0]]), np.array([[0, 1], [1, 1]])], 2, 1
        )


def test_small_generating_set_s4():
    G = symmetric_group(4)
    gens = G.small_generating_set()
    assert len(gens) == 2
    assert G.generates(gens)


def test_sylow_subgroups():
    G = symmetric_group(4)
    syl2, elems2 = G.sylow_subgroup(2)
    assert syl2.order == 8
    syl3, elems3 = G.sylow_subgroup(3)
    assert syl3.order == 3
    T = twisted_frobenius_group(5)
    syl5, _ = T.sylow_subgroup(5)
    assert syl5.order == 1


def test_table_hash_deterministic():
    assert symmetric_group(3).table_hash() == symmetric_group(3).table_hash()
    assert symmetric_group(3).table_hash() != symmetric_group(4).table_hash()


def _orders_test_groups():
    from defring.certify import assemble, parse_instance_name

    a4 = FiniteGroup.from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], name="A4")
    gamma = assemble(parse_instance_name("standard-d2p5")).gamma
    return [symmetric_group(4), a4, twisted_frobenius_group(3), gamma]


def test_element_orders_match_element_order():
    for G in _orders_test_groups():
        for e in range(G.order):
            k, acc = 1, e
            while acc != 0:
                acc, k = G.mul(acc, e), k + 1
            assert G.element_order(e) == k, (G.name, e)


class _TrustedTable(FiniteGroup):
    """A table taken as given, without the group check."""

    def _validate_table(self):
        pass


def test_element_order_raises_on_a_non_group_table():
    # 0 is the identity and 1 generates, but the powers of 1 are 1, 2, 2, ...
    table = np.array([[0, 1, 2], [1, 2, 0], [2, 2, 1]])
    G = _TrustedTable(table, [1])
    with pytest.raises(GroupError, match="identity"):
        G.element_order(1)


def test_intercalate_swapped_cyclic_table_rejected():
    # Z/256 with the 2x2 subsquare on rows and columns 1, 129 swapped: still a
    # latin square with identity 0, generated by 3, but not associative.  The
    # swap breaks 4,032 of the 256^3 triples, which a sample of 2,000 likely misses.
    n = 256
    ar = np.arange(n)
    cyclic = (ar[:, None] + ar[None, :]) % n
    FiniteGroup(cyclic, [3])
    t = cyclic.copy()
    a, b = 1, 1 + n // 2
    t[a, a], t[b, b], t[a, b], t[b, a] = t[a, b], t[a, b], t[a, a], t[a, a]
    assert (np.sort(t, axis=1) == ar).all() and (np.sort(t, axis=0) == ar[:, None]).all()
    with pytest.raises(GroupError, match="associativity"):
        FiniteGroup(t, [3])


def test_table_without_inverses_rejected():
    # {0, 1} with 1 * 1 = 1 is an associative table with identity, generated
    # by 1, in which 1 has no inverse
    with pytest.raises(GroupError, match="inverse"):
        FiniteGroup(np.array([[0, 1], [1, 1]]), [1])


def _check_semidirect(gamma, pairs):
    """Gamma against the group axioms, its inverses and quotient map, and the
    product formula (k1, g1)(k2, g2) = (k1 + g1.k2, g1 g2) on the given
    pairs of elements, all computed without the semidirect code."""
    K, G = gamma.kmod, gamma.gq
    FiniteGroup(gamma.table, gamma.generators)  # the generic validation
    assert (gamma.inverse == np.nonzero(gamma.table == 0)[1]).all()
    old_images = [e % G.order for e in range(gamma.order)]
    assert gamma.quotient_hom().images.tolist() == old_images
    for e1, e2 in pairs:
        (k1, g1), (k2, g2) = gamma.decode(e1), gamma.decode(e2)
        k = [(x + y) % K.modulus for x, y in zip(k1, K.act(g1, k2))]
        assert gamma.mul(e1, e2) == gamma.encode(k, G.mul(g1, g2))


# Every Gamma that `assemble` builds for the acceptance battery, its negative
# controls and the precision rows (the oracle rows use battery instances at
# the default N).  Gamma does not depend on N, but the rows keep their N.
GAMMA_INSTANCES = (
    [(f"twisted-p{p}n{n}", None) for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]]
    + [(f"standard-d{d}p{p}", None) for d, p in [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]]
    + [("twisted-p2n1-scalar", None), ("twisted-p2n2-commutative", None)]
    + [("twisted-p3n1-commutative", None)]
    + [("twisted-p3n1", 10), ("twisted-p5n1", 7), ("standard-d3p3", 7)]
    + [("twisted-p2n2", 12), ("standard-d2p5", 8)]
)


@pytest.mark.parametrize("name,N", GAMMA_INSTANCES)
def test_assembled_gamma_passes_generic_validation(name, N):
    from dataclasses import replace

    from defring.certify import assemble, parse_instance_name

    gamma = assemble(replace(parse_instance_name(name), N=N)).gamma
    gens = gamma.generators
    _check_semidirect(gamma, [(e, s) for e in range(gamma.order) for s in gens])


def _kernel_module(kind, group, p, n):
    from defring.certify import commutative_control_module, scalar_control_module
    from defring.modrep import standard_perm_rep, twisted_kernel_module

    if kind == "twisted":
        return twisted_kernel_module(p, n)
    if kind == "commutative":
        return commutative_control_module(p, n)
    if kind == "scalar":
        return scalar_control_module(group, p)
    V = standard_perm_rep(group, p).standard
    return Representation.from_generator_images(group, V.gen_mats, p, 1)


# (kind, group, p, n): the twisted and control modules over TF(p) and the
# standard modules of S_3 and S_4 where p does not divide the number of
# points, each with |Gamma| <= TABLE_GUARD.  Twisted-kind modules at p = 2,
# n = 5 (|Gamma| = 6,144) are left out to keep the suite's memory small.
MODULE_CASES = (
    [(kind, "TF", 2, n) for kind in ("twisted", "commutative") for n in (1, 2, 3, 4)]
    + [(kind, "TF", 3, n) for kind in ("twisted", "commutative") for n in (1, 2)]
    + [(kind, "TF", 5, 1) for kind in ("twisted", "commutative")]
    + [("scalar", g, p, 1) for g in ("TF", "S3", "S4") for p in (2, 3, 5)]
    + [("standard", "S3", 2, 1), ("standard", "S3", 5, 1)]
    + [("standard", "S4", 3, 1), ("standard", "S4", 5, 1)]
)


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from(MODULE_CASES), data=st.data())
def test_semidirect_product_is_the_split_extension(case, data):
    kind, group, p, n = case
    G = twisted_frobenius_group(p) if group == "TF" else symmetric_group(int(group[1]))
    gamma = semidirect_product(_kernel_module(kind, G, p, n), G)
    assert gamma.order <= TABLE_GUARD
    element = st.integers(0, gamma.order - 1)
    _check_semidirect(gamma, data.draw(st.lists(st.tuples(element, element), max_size=20)))
