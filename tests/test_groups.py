import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring import groups
from defring.groups import (
    TABLE_GUARD,
    FiniteGroup,
    GroupError,
    pgl2,
    semidirect_product,
    symmetric_group,
    twisted_frobenius_group,
)
from defring.modrep import Representation, RepresentationError

from reference import (
    decode,
    find_isomorphism,
    gamma_decode,
    inverses,
    orbit_count_triples,
    small_generating_set,
    word,
)


def test_symmetric_group_orders():
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24
    # the transposition and the long cycle reach all 120 elements by BFS
    assert symmetric_group(5).order == 120
    with pytest.raises(GroupError):
        symmetric_group(9)


def test_symmetric_group_guard_is_its_order():
    # 8! = 40320 is past the table guard: refused before any closure
    with mock.patch.object(FiniteGroup, "from_permutations", side_effect=AssertionError):
        with pytest.raises(GroupError, match="m! <= 10000"):
            symmetric_group(8)


def test_words_evaluate_to_elements():
    G = symmetric_group(4)
    for e in range(G.order):
        acc = 0
        for gi in word(G, e):
            acc = G.mul(acc, G.generators[gi])
        assert acc == e


def test_extend_at_some_elements_walks_only_their_paths():
    G = symmetric_group(4)
    calls = []

    def mul(a, b):
        calls.append(len(a))
        return G.table[a, b]

    for gens in (G.generators, G.small_generating_set(), (3, 7, 11)):
        H = FiniteGroup(G.table, gens)  # G's elements, on the spanning tree of gens
        full = H.extend(list(gens), lambda a, b: G.table[a, b], 0)
        assert (full == np.arange(G.order)).all()
        levels = H.tree_levels()
        for at in ([0], [levels[-1][0]], list(gens), [5, 5, 17, 0, 2]):
            calls.clear()
            assert H.extend(list(gens), mul, 0, at=at).tolist() == at
            # one mul per level below depth 1 (whose values are the
            # generator values) down to the deepest element asked for, on
            # the elements of the paths only
            depth = max(k for k, level in enumerate(levels) if set(at) & set(level.tolist()))
            assert len(calls) == max(depth - 1, 0) and sum(calls) < G.order


def _extend_groups():
    a4 = FiniteGroup.from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], name="A4")
    return [symmetric_group(3), symmetric_group(4), a4, twisted_frobenius_group(3)]


@settings(max_examples=40, deadline=None)
@given(group=st.integers(0, 3), tree=st.sampled_from(["distinguished", "small"]), data=st.data())
def test_extend_at_some_elements_gives_the_rows_of_the_full_extension(group, tree, data):
    G = _extend_groups()[group]
    if tree == "small":
        G = FiniteGroup(G.table, G.small_generating_set())
    ngens = len(G.generators)
    ats = [data.draw(st.lists(st.integers(0, G.order - 1), max_size=8)) for _ in range(2)]
    stack = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # arbitrary matrices mod 7: the walk multiplies along the words whether
    # or not the values are a homomorphism
    gen_values = rng.integers(0, 7, (ngens, stack, 2, 2))
    one = np.broadcast_to(np.eye(2, dtype=np.int64), (stack, 2, 2))

    def mul(a, b):
        return a @ b % 7

    # the full extension, element by element along the tree
    order, parent, genidx = G.spanning_tree()
    full = {0: one}
    for e in order[1:]:
        full[e] = mul(full[parent[e]], gen_values[genidx[e]])
    assert (G.extend(gen_values, mul, one) == [full[e] for e in range(G.order)]).all()
    # two `at` on one group, each walked as a list and then as an array:
    # the second walk of each reads its cached plan, with the other's cached
    for at in ats + [np.array(at, dtype=np.int64) for at in ats]:
        got = G.extend(gen_values, mul, one, at=at)
        assert got.shape == (len(at), stack, 2, 2)
        assert all((got[i] == full[e]).all() for i, e in enumerate(at))
    keys = {tuple(at) for at in ats}
    assert keys <= set(G._plans) and len(G._plans) == len(keys) + 1  # and at=None


def test_extend_at_some_elements_holds_only_their_values():
    # twisted-p3n2's Gamma, |Gamma| = 1296, walked on the tree the oracle
    # walks; values at every element would be 1296 x 4096 2 x 2 int64
    # matrices, 170 MB
    import tracemalloc

    from defring.certify import assemble, parse_instance_name

    asm = assemble(parse_instance_name("twisted-p3n2"))
    gens = (1, 18)
    G = FiniteGroup(asm.gamma.table, gens)
    at = asm.gamma.generators
    assert G.order == 1296 and len(G.tree_levels()) > 20
    rng = np.random.default_rng(0)
    gen_values = rng.integers(0, 9, (len(gens), 4096, 2, 2))
    one = np.broadcast_to(np.eye(2, dtype=np.int64), (4096, 2, 2))
    full_bytes = G.order * 4096 * 4 * 8

    def mul(a, b):
        return a @ b % 9

    tracemalloc.start()
    try:
        got = G.extend(gen_values, mul, one, at=at)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_bytes / 20
    full = G.extend(gen_values[:, :8], mul, one[:8])  # on a few of the matrices
    assert (got[:, :8] == full[list(at)]).all()


def test_inverse_and_orders():
    G = symmetric_group(4)
    for e, e_inv in enumerate(inverses(G)):
        assert G.mul(e, int(e_inv)) == 0
    orders = sorted(G.element_order(e) for e in range(G.order))
    assert orders.count(1) == 1
    assert orders.count(4) == 6  # 4-cycles


def test_pgl2_q2_is_s3():
    G = pgl2(2)
    assert G.order == 6
    assert G.action.shape[1] == 3
    iso = find_isomorphism(G, symmetric_group(3))
    # an isomorphism: injective between groups of equal order
    assert iso is not None and len(set(iso.tolist())) == G.order == 6


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


def _pairwise_table(G):
    """The table of a permutation group from its action, one pair at a time:
    the reference for the construction one BFS level at a time."""
    index = {tuple(a): i for i, a in enumerate(G.action.tolist())}
    return np.array([[index[tuple(a[b])] for b in G.action] for a in G.action])


@settings(max_examples=40, deadline=None)
@given(npts=st.integers(1, 6), data=st.data())
def test_from_permutations_matches_the_pairwise_table(npts, data):
    # generators may repeat, be the identity or fix all but the last points
    perm = st.permutations(range(npts)).map(tuple)
    shifted = st.integers(0, npts - 1).flatmap(
        lambda k: st.permutations(range(k, npts)).map(lambda tail: tuple(range(k)) + tuple(tail))
    )
    gens = data.draw(st.lists(st.one_of(perm, shifted), min_size=1, max_size=3))
    G = FiniteGroup.from_permutations(gens)
    assert np.array_equal(G.table, _pairwise_table(G))


def test_closure_is_refused_as_the_first_element_past_the_guard_appears(monkeypatch):
    # S_7's generators close to 5040 elements: with the guard at 100 the
    # closure stops at element 101, and names the guard, not |S_7|
    monkeypatch.setattr(groups, "TABLE_GUARD", 100)
    gens = [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)]
    with pytest.raises(GroupError, match="element 101, past the full-table guard 100") as exc:
        FiniteGroup.from_permutations(gens)
    assert "5040" not in str(exc.value)


def test_twisted_group_table_matches_the_loop():
    # (i, e)(j, f) = (i + p^e j mod p^2 - 1, e + f mod 2), at index 2 i + e
    for p in (2, 3, 5, 7):
        m = p * p - 1
        table = np.empty((2 * m, 2 * m), dtype=np.int64)
        for i in range(m):
            for e in range(2):
                for j in range(m):
                    for f in range(2):
                        table[2 * i + e, 2 * j + f] = 2 * ((i + p**e * j) % m) + (e + f) % 2
        G = twisted_frobenius_group(p)
        assert np.array_equal(G.table, table) and G.generators == (2, 1), p


def test_pgl2_rejects_non_prime_power():
    with pytest.raises(GroupError):
        pgl2(6)


def test_twisted_group_orders():
    assert twisted_frobenius_group(2).order == 6
    assert twisted_frobenius_group(3).order == 16
    assert twisted_frobenius_group(5).order == 48
    # no cap on p itself: the order 2 (p^2 - 1) is refused before the table
    assert twisted_frobenius_group(11).order == 240
    with mock.patch.object(np, "ix_", side_effect=AssertionError):
        with pytest.raises(GroupError, match="order 10080 exceeds"):
            twisted_frobenius_group(71)


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
        assert G.mul(G.mul(sigma, zeta), int(inverses(G)[sigma])) == zeta_p


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
    return Representation(
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
    # (k, g) -> g, at index e -> e mod |G|, is a homomorphism onto G with
    # kernel K = {(k, 1)}, at indices k * |G|
    quot = np.arange(gamma.order) % G.order
    assert (quot[gamma.table] == G.table[quot[:, None], quot[None, :]]).all()
    assert np.flatnonzero(quot == 0).tolist() == [k * G.order for k in range(K.size)]
    # the section g -> (0, g), at index g, is a homomorphism
    sec = np.arange(G.order)
    for g in range(G.order):
        for h in range(G.order):
            assert gamma.mul(int(sec[g]), int(sec[h])) == int(sec[G.mul(g, h)])
    # conjugation of (k, 1) by (0, g) is (g.k, 1)
    inv = inverses(gamma)
    for g in range(G.order):
        for k in range(K.size):
            kv = decode(K, k)
            e = K.encode(kv) * G.order  # (kv, 1)
            conj = gamma.mul(gamma.mul(int(sec[g]), e), int(inv[sec[g]]))
            assert conj == K.encode(K.act(g, kv)) * G.order


def test_semidirect_trivial_module_gives_direct_factor():
    G = symmetric_group(3)
    K = Representation(G, [np.eye(1, dtype=int), np.eye(1, dtype=int)], 2, 1)
    gamma = semidirect_product(K, G)
    assert gamma.order == 12
    # (k, 1) commutes with everything
    for e in range(gamma.order):
        k = K.encode((1,)) * G.order  # ((1,), 1)
        assert gamma.mul(e, k) == gamma.mul(k, e)


def test_pmodule_rejects_bad_action():
    G = symmetric_group(3)
    with pytest.raises(RepresentationError):
        # transposition mapped to an order-3 matrix
        Representation(
            G, [np.array([[0, 1], [1, 1]]), np.array([[0, 1], [1, 1]])], 2, 1
        )
    with pytest.raises(RepresentationError):
        # singular matrix
        Representation(
            G, [np.array([[0, 0], [0, 0]]), np.array([[0, 1], [1, 1]])], 2, 1
        )


def test_small_generating_set_s4():
    G = symmetric_group(4)
    gens = G.small_generating_set()
    assert len(gens) == 2
    assert G.generates(gens)


def _cyclic(n):
    ar = np.arange(n)
    return FiniteGroup((ar[:, None] + ar[None, :]) % n, [1 % n], name=f"C{n}")


def _cyclic_product(m, n):
    """C_m x C_n on the codes a n + b."""
    a, b = np.divmod(np.arange(m * n), n)
    table = (a[:, None] + a[None, :]) % m * n + (b[:, None] + b[None, :]) % n
    return FiniteGroup(table, [n % (m * n), 1 % n], name=f"C{m}xC{n}")


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.integers(1, 60).map(_cyclic),
        st.tuples(st.integers(1, 12), st.integers(1, 12)).map(lambda mn: _cyclic_product(*mn)),
        st.sampled_from([symmetric_group(3), twisted_frobenius_group(2)]),
    )
)
def test_small_generating_set_is_the_first_tuple_the_plain_scan_closes(G):
    assert G.small_generating_set() == small_generating_set(G)


def test_small_generating_set_is_scanned_once_per_group():
    G = symmetric_group(4)
    first = G.small_generating_set()
    with mock.patch.object(G, "generates", side_effect=AssertionError):
        assert G.small_generating_set() == first


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
    """Gamma against the group axioms and the product formula
    (k1, g1)(k2, g2) = (k1 + g1.k2, g1 g2) on the given pairs of elements,
    all computed without the semidirect code."""
    K, G = gamma.kmod, gamma.gq
    FiniteGroup(gamma.table, gamma.generators)  # the generic validation
    for e1, e2 in pairs:
        (k1, g1), (k2, g2) = gamma_decode(gamma, e1), gamma_decode(gamma, e2)
        k = [(x + y) % K.modulus for x, y in zip(k1, K.act(g1, k2))]
        assert gamma.mul(e1, e2) == K.encode(k) * G.order + G.mul(g1, g2)


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
    from defring.exactalg import galois_matrices
    from defring.modrep import standard_rep, twisted_kernel_module

    if kind == "twisted":
        return twisted_kernel_module(Representation(group, list(galois_matrices(p, n)), p, n), n)
    if kind == "commutative":
        return commutative_control_module(group, p, n)
    if kind == "scalar":
        return scalar_control_module(group, p)
    V = standard_rep(group, p, 1)
    return Representation(group, V.gen_mats, p, 1)


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


def _characters(group):
    """Rank-1 modules over Z/p^n, as the images of the distinguished
    generators: the trivial one, and -1 on the transpositions of S_m or on
    the Frobenius generator of TF(p)."""
    if group.startswith("TF"):
        return [(1, 1), (1, -1)]
    return [(1, 1), (-1, 1) if group == "S3" else (-1, -1)]


@st.composite
def _small_semidirect(draw):
    """K x| G for G among TF_2, TF_3, S_3 and S_4 and K of rank at most 2
    over Z/p^n, p^n <= 9: a sum of characters, or for TF(p) at its own p
    the twisted, commutative-control or Galois module of rank 2."""
    from defring.certify import commutative_control_module
    from defring.exactalg import galois_matrices
    from defring.modrep import twisted_kernel_module

    name = draw(st.sampled_from(["TF2", "TF3", "S3", "S4"]))
    G = twisted_frobenius_group(int(name[2])) if name.startswith("TF") else symmetric_group(int(name[1]))
    p, n = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]))
    if name.startswith("TF") and int(name[2]) == p and draw(st.booleans()):
        kind = draw(st.sampled_from(["twisted", "commutative", "galois"]))
        galois = Representation(G, list(galois_matrices(p, n)), p, n)
        if kind == "twisted":
            return semidirect_product(twisted_kernel_module(galois, n), G)
        if kind == "commutative":
            return semidirect_product(commutative_control_module(G, p, n), G)
        return semidirect_product(galois, G)
    chars = draw(st.lists(st.sampled_from(_characters(name)), min_size=1, max_size=2))
    mats = [np.diag([c[t] for c in chars]) for t in range(len(G.generators))]
    return semidirect_product(Representation(G, mats, p, n), G)


def _split_extension_table(gamma):
    """Gamma's table from (k1, g1)(k2, g2) = (k1 + g1.k2, g1 g2), a row at a
    time, by another route than the blocks of the semidirect code."""
    K, G = gamma.kmod, gamma.gq
    vecs, m = K.vectors(), K.modulus
    rows = []
    for e in range(gamma.order):
        k1, g1 = divmod(e, G.order)
        ksum = (vecs[k1] + vecs @ K.mats[g1].T) % m
        rows.append(np.repeat(ksum @ K.radix * G.order, G.order) + np.tile(G.table[g1], K.size))
    return np.array(rows, dtype=np.int64)


@settings(max_examples=25, deadline=None)
@given(gamma=_small_semidirect(), data=st.data())
def test_streamed_table_hash_is_the_hash_of_the_table(gamma, data):
    # blocks shorter than a row split it; longer ones end inside a row
    block = data.draw(st.integers(max(1, gamma.order // 16), 3 * gamma.order))
    expected = _split_extension_table(gamma)
    with mock.patch.object(groups, "TABLE_BLOCK", block):
        assert gamma.table_hash() == hashlib.sha256(np.ascontiguousarray(expected, "<i8")).hexdigest()[:16]
        assert np.array_equal(gamma.table, expected)


@pytest.mark.parametrize("name", ["twisted-p2n2", "twisted-p3n1", "standard-d2p5"])
def test_table_hash_is_the_hash_of_the_table_at_every_block_size(name):
    # one entry per block; blocks that end inside a row; one row per block;
    # the whole table in one block
    from defring.certify import assemble, parse_instance_name

    gamma = assemble(parse_instance_name(name)).gamma
    order = gamma.order
    expected = hashlib.sha256(np.ascontiguousarray(gamma.table, "<i8")).hexdigest()[:16]
    non_divisor = next(b for b in range(2, order) if order % b)
    for block in (1, non_divisor, order, order * order):
        with mock.patch.object(groups, "TABLE_BLOCK", block):
            assert gamma.table_hash() == expected, block


@pytest.mark.parametrize("name", ["twisted-p3n2", "twisted-p5n1", "standard-d4p2", "standard-d3p3"])
def test_table_hash_streams_through_a_small_buffer(name):
    # a buffer of 2^18 entries (2 MiB) peaks at 2,311-2,568 KiB on these;
    # 2^15 entries (256 KiB) at 408-464 KiB
    import tracemalloc

    from defring.certify import assemble, parse_instance_name

    gamma = assemble(parse_instance_name(name)).gamma
    tracemalloc.start()
    try:
        gamma.table_hash()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 640 * 1024
