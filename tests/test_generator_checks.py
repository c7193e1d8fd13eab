"""Homomorphism checks on (element, generator) pairs.

Representation.validate, PModule, GroupHom and build_rho_R compare e*s for
every element e and generator s only; FiniteGroup.extend states why that
covers all pairs.  These tests corrupt valid data away from the generators,
where an all-pairs check would obviously notice, and compare the narrowed
checks with the all-pairs predicate they replace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring import kernels
from defring.certify import AlphaMap, CertifyError, InstanceSpec, assemble, build_rho_R, find_alpha
from defring.groups import GroupError, GroupHom, symmetric_group, twisted_frobenius_group
from defring.modrep import Representation, RepresentationError, galois_module_rep, standard_perm_rep


def _deepest(G):
    """The last element of the spanning tree: a word of maximal length."""
    e = G.spanning_tree()[0][-1]
    assert e not in G.generators and len(G.word(e)) > 1
    return e


def _all_pairs_valid(group, mats, p, m) -> bool:
    """The check the generator-level validate replaces: identity at 0, every
    image invertible, and rho(g) rho(h) = rho(gh) for all |G|^2 pairs."""
    d = mats.shape[1]
    if (mats[0] != np.eye(d, dtype=np.int64)).any():
        return False
    for g in range(group.order):
        if kernels.rank_modp(mats[g], p) != d:
            return False
        if ((mats[g] @ mats % m) != mats[group.table[g]]).any():
            return False
    return True


def test_extend_is_the_product_along_words():
    rng = np.random.default_rng(7)
    for G in (symmetric_group(4), twisted_frobenius_group(3)):
        gen_vals = [rng.integers(0, 7, (3, 3)) for _ in G.generators]
        one = np.eye(3, dtype=np.int64)
        values = G.extend(gen_vals, lambda a, b: a @ b % 7, one)
        for e in range(G.order):
            acc = one
            for gi in G.word(e):
                acc = acc @ gen_vals[gi] % 7
            assert (values[e] == acc).all()


def test_spanning_tree_order_and_cache():
    G = symmetric_group(4)
    order, parent, genidx = G.spanning_tree()
    assert sorted(order) == list(range(G.order)) and order[0] == 0
    pos = {e: i for i, e in enumerate(order)}
    for e in order[1:]:
        assert pos[parent[e]] < pos[e]
        assert G.mul(parent[e], G.generators[genidx[e]]) == e
    assert G.spanning_tree(G.generators) is G.spanning_tree()
    with pytest.raises(GroupError):
        G.spanning_tree([G.generators[0]])


def test_validate_catches_a_deep_corruption():
    V = standard_perm_rep(symmetric_group(4), 5).standard
    e = _deepest(V.group)
    mats = V.mats.copy()
    mats[e, 0, 0] = (mats[e, 0, 0] + 1) % 5
    with pytest.raises(RepresentationError):
        Representation(V.group, mats, 5, 1)


def test_grouphom_catches_a_wrong_non_generator_image():
    G = symmetric_group(4)
    images = np.arange(G.order)
    GroupHom(G, G, images)
    e = _deepest(G)
    images[e] = G.mul(e, G.generators[0])
    with pytest.raises(GroupError):
        GroupHom(G, G, images)


def test_build_rho_R_rejects_non_equivariant_alpha():
    asm = assemble(InstanceSpec("twisted", 2, 1))
    alpha = find_alpha(asm).alpha
    H = alpha.matrix.copy()
    H[0, 0] = (H[0, 0] + 1) % 2
    with pytest.raises(CertifyError, match="equivariance"):
        build_rho_R(asm, AlphaMap(alpha.p, alpha.n, alpha.d, alpha.rank, H))


def test_build_rho_R_rejects_a_deep_non_multiplicative_lift():
    # rho_W corrupted away from the generators of G: alpha stays equivariant
    # on the generators, so only the multiplicativity check can see it
    asm = assemble(InstanceSpec("standard", 5, 1, d=2))
    alpha = find_alpha(asm).alpha
    e = _deepest(asm.G)
    mats = asm.rho_w.mats.copy()
    mats[e, 0, 1] = (mats[e, 0, 1] + 5) % asm.rho_w.modulus
    asm.rho_w = Representation(asm.G, mats, asm.p, asm.N, validate=False)
    with pytest.raises(CertifyError, match="multiplicativity"):
        build_rho_R(asm, alpha)


_REPS = {
    "S3": lambda: standard_perm_rep(symmetric_group(3), 5).standard,
    "S4": lambda: standard_perm_rep(symmetric_group(4), 5).standard,
    "TF2": lambda: galois_module_rep(2, 2),
    "TF3": lambda: galois_module_rep(3, 1),
}
_BUILT: dict = {}


def _rep(name):
    if name not in _BUILT:
        _BUILT[name] = _REPS[name]()
    return _BUILT[name]


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(_REPS)),
    element=st.integers(0, 10_000),
    entry=st.integers(0, 100),
    replace=st.booleans(),
    value=st.integers(0, 10_000),
)
def test_validate_agrees_with_all_pairs(name, element, entry, replace, value):
    V = _rep(name)
    G, d, m = V.group, V.degree, V.modulus
    e = element % G.order
    mats = V.mats.copy()
    if replace:  # the image of another element (itself: no corruption)
        mats[e] = V.mats[value % G.order]
    else:  # one entry shifted (by 0: no corruption)
        i, j = divmod(entry % (d * d), d)
        mats[e, i, j] = (mats[e, i, j] + value % m) % m
    try:
        Representation(G, mats, V.p, V.N)
        raised = False
    except RepresentationError:
        raised = True
    assert raised == (not _all_pairs_valid(G, mats, V.p, m))
