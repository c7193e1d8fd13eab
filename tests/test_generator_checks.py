"""Homomorphism checks on generators instead of all pairs.

Representation.validate (which also checks every kernel module K) and
GroupHom compare e*s for every element e and generator s only;
FiniteGroup.extend states why that covers all pairs.
build_rho_R checks the relators of Gamma's presentation on the images of
Gamma's generators.  These tests corrupt valid data, away from the
generators where an all-pairs check would obviously notice, and compare the
narrowed checks with the all-pairs or full-table predicate they replace.
"""

from dataclasses import replace
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defring import kernels
from defring.certify import (
    AlphaMap,
    CertifyError,
    InstanceSpec,
    assemble,
    _order_identities_hold,
    build_rho_R,
    exp_lift_on_kernel,
    find_alpha,
    parse_instance_name,
)
from defring.exactalg import pval
from defring.groups import (
    FiniteGroup,
    GroupError,
    GroupHom,
    find_isomorphism,
    pgl2,
    symmetric_group,
    twisted_frobenius_group,
)
from defring.localalg import AlgMatrix, make_ring_Rprime, make_ring_Rprime_2_1
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


_BATTERY = [f"twisted-p{p}n{n}" for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]]
_BATTERY += [f"standard-d{d}p{p}" for d, p in [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]]


@lru_cache(maxsize=None)
def _assembled(name):
    return assemble(parse_instance_name(name))


def _extend_per_element(G, gen_values, mul, one, gens=None) -> list:
    """The extension before it went level by level: one product per
    element, in BFS order."""
    order, parent, genidx = G.spanning_tree(gens)
    values = [one] * G.order
    for e in order[1:]:
        values[e] = mul(values[parent[e]], gen_values[genidx[e]])
    return values


def _schreier_relators(G) -> tuple:
    """FiniteGroup's relators built from words extended by tuple.__add__."""
    order, parent, genidx = G.spanning_tree()
    words = _extend_per_element(G, [(t,) for t in range(len(G.generators))], tuple.__add__, ())
    rows = G.table[:, list(G.generators)].tolist()
    return tuple(
        (words[e] + (t,), words[h])
        for e in order
        for t, h in enumerate(rows[e])
        if not (parent[h] == e and genidx[h] == t)
    )


def _extend_groups():
    yield symmetric_group(4)
    yield pgl2(5)
    for name in _BATTERY:
        yield _assembled(name).gamma


def test_level_extend_matches_the_per_element_extension():
    rng = np.random.default_rng(11)
    for G in _extend_groups():
        for gens in (None, G.small_generating_set()):
            k = len(G.generators if gens is None else gens)
            mats = rng.integers(0, 7, (k, 3, 3))
            eye = np.eye(3, dtype=np.int64)
            got = G.extend(mats, lambda a, b: a @ b % 7, eye, gens)
            want = _extend_per_element(G, mats, lambda a, b: a @ b % 7, eye, gens)
            assert got.shape == (G.order, 3, 3) and (got == np.array(want)).all(), G.name
            # integer element values: the group's own generators under its
            # table give every element its own index
            gen_elems = np.array(G.generators if gens is None else gens)
            got = G.extend(gen_elems, lambda a, b: G.table[a, b], 0, gens)
            want = _extend_per_element(G, gen_elems, G.mul, 0, gens)
            assert got.tolist() == want == list(range(G.order)), G.name
            shifts = rng.integers(0, 97, k)
            got = G.extend(shifts, lambda a, b: (a + b) % 97, 0, gens)
            assert got.tolist() == _extend_per_element(G, shifts, lambda a, b: (a + b) % 97, 0, gens)


def test_relators_are_the_per_element_schreier_relators():
    for G in _extend_groups():
        base = G.gq if hasattr(G, "gq") else G
        assert base.relators() == _schreier_relators(base), base.name
        assert tuple(FiniteGroup._presentation(G)) == _schreier_relators(G), G.name


def _find_isomorphism_per_element(G, H):
    """find_isomorphism's search with the per-element extension."""
    gens = G.small_generating_set()
    by_order: dict[int, list[int]] = {}
    for h in range(H.order):
        by_order.setdefault(H.element_order(h), []).append(h)
    for images in product(*(by_order.get(G.element_order(g), []) for g in gens)):
        img = np.array(_extend_per_element(G, images, H.mul, 0, gens), dtype=np.int64)
        if len(set(img.tolist())) != G.order:
            continue
        try:
            return GroupHom(G, H, img)
        except GroupError:
            continue
    return None


def test_find_isomorphism_and_from_generator_images_are_unchanged():
    s4_again = FiniteGroup.from_permutations([(1, 2, 3, 0), (1, 0, 2, 3)], name="S4b")
    pairs = [
        (symmetric_group(3), twisted_frobenius_group(2)),
        (symmetric_group(4), s4_again),
        (pgl2(3), symmetric_group(4)),
    ]
    for G, H in pairs:
        got, want = find_isomorphism(G, H), _find_isomorphism_per_element(G, H)
        assert (got is None) == (want is None)
        assert got is None or got.images.tolist() == want.images.tolist()
    for name in _BATTERY:
        for rep in (_assembled(name).rho_bar, _assembled(name).K):
            m = rep.modulus
            gen_mats = rep.gen_mats
            built = Representation.from_generator_images(rep.group, gen_mats, rep.p, rep.N)
            eye = np.eye(rep.degree, dtype=np.int64)
            want = _extend_per_element(rep.group, gen_mats, lambda a, b: a @ b % m, eye)
            assert (built.mats == np.array(want)).all() and (built.mats == rep.mats).all()


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
    with pytest.raises(CertifyError, match="relator"):
        build_rho_R(asm, AlphaMap(alpha.p, alpha.n, alpha.d, alpha.rank, H))


def test_build_rho_R_rejects_a_rho_W_generator_breaking_a_relator():
    # one entry of one generator image of rho_W shifted: its extension over G
    # is no homomorphism, so a relator of G fails on the y_s of Gamma.  A
    # corruption of rho_W away from the generators is caught by rho_W's own
    # validation (test_validate_catches_a_deep_corruption), which assemble runs.
    asm = assemble(InstanceSpec("standard", 5, 1, d=2))
    alpha = find_alpha(asm).alpha
    gen_mats = [asm.rho_w.mats[s].copy() for s in asm.G.generators]
    gen_mats[0][0, 1] = (gen_mats[0][0, 1] + 5) % asm.rho_w.modulus
    asm.rho_w = Representation.from_generator_images(asm.G, gen_mats, asm.p, asm.N, validate=False)
    with pytest.raises(RepresentationError):
        asm.rho_w.validate()
    with pytest.raises(CertifyError, match="relator"):
        build_rho_R(asm, alpha)


def _table_check(asm, alpha) -> tuple[bool, bool]:
    """The full-table check build_rho_R replaced: rho_R(k, g) = (1 + t alpha(k))
    rho_W(g) listed over all of Gamma as (w mod p^N, t mod p^n) pairs, the
    identity at element 0 and rho_R(e) rho_R(s) = rho_R(es) for every element
    e and generator s of Gamma.  Returns (passes, faithful), faithful read off
    the listing."""
    p, n, N = asm.p, asm.n, asm.N
    mN, mn = p**N, p**n
    gamma, K, d = asm.gamma, asm.K, asm.rho_w.degree
    w = asm.rho_w.mats
    wpart = np.tile(w % mN, (K.size, 1, 1))  # element (k, g) has index k |G| + g
    tpart = (alpha.of_vecs(K.vectors())[:, None] @ w[None] % mn).reshape(gamma.order, d, d)
    eye = np.eye(d, dtype=np.int64)
    is_ident = (wpart == eye).all(axis=(1, 2)) & (tpart == 0).all(axis=(1, 2))
    faithful = np.nonzero(is_ident)[0].tolist() == [0]
    w_mn = wpart % mn
    passes = bool(is_ident[0]) and all(
        (wpart @ wpart[s] % mN == wpart[gamma.table[:, s]]).all()
        and ((w_mn @ tpart[s] + tpart @ w_mn[s]) % mn == tpart[gamma.table[:, s]]).all()
        for s in gamma.generators
    )
    return passes, faithful


@lru_cache(maxsize=None)
def _certified(name):
    asm = assemble(parse_instance_name(name))
    return asm, find_alpha(asm).alpha


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["twisted-p2n1", "twisted-p3n1", "standard-d2p5"]),
    target=st.sampled_from(["alpha", "scale", "rho_W"]),
    where=st.integers(0, 10_000),
    shift=st.integers(0, 10_000),
)
def test_build_rho_R_agrees_with_the_table_check(name, target, where, shift):
    asm, alpha = _certified(name)
    p, n, N, d = asm.p, asm.n, asm.N, asm.rho_w.degree
    H = alpha.matrix.copy()
    gen_mats = [asm.rho_w.mats[s].copy() for s in asm.G.generators]
    if target == "alpha":  # one entry of alpha's matrix shifted (by 0: no corruption)
        i, j = divmod(where % H.size, H.shape[1])
        H[i, j] = (H[i, j] + shift) % p**n
    elif target == "scale":  # c alpha stays equivariant, injective only for p not dividing c
        H = H * shift % p**n
    else:  # one entry of one generator image of rho_W shifted
        g, entry = divmod(where % (len(gen_mats) * d * d), d * d)
        i, j = divmod(entry, d)
        gen_mats[g][i, j] = (gen_mats[g][i, j] + shift) % p**N
    rho_w = Representation.from_generator_images(asm.G, gen_mats, p, N, validate=False)
    corrupted = replace(asm, rho_w=rho_w)
    bad_alpha = AlphaMap(p, n, d, alpha.rank, H)
    passes, faithful = _table_check(corrupted, bad_alpha)
    try:
        rho_r = build_rho_R(corrupted, bad_alpha)
    except CertifyError:
        assert not passes
    else:
        assert passes and rho_r.faithful == faithful


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


def _exp_lift_all_pairs(K, alpha, N, a_hat):
    """The |K|^2 checks exp_lift_on_kernel replaced, on the lift its
    docstring defines: (the reduced alpha-image commutes, the scalar clause
    holds, rho'(u) rho'(v) = rho'(u + v) for all u, v)."""
    p, n, d = alpha.p, alpha.n, alpha.d
    mn, m = p**n, K.modulus
    elems = [K.decode(c) for c in range(K.size)]
    bar = {k: alpha.of_vec(k) % p for k in elems}
    commutes = all((bar[u] @ bar[v] % p == bar[v] @ bar[u] % p).all() for u in elems for v in elems)
    clause = (p, n) != (2, 1) or all((bar[k] @ bar[k] % 2 == a_hat * bar[k] % 2).all() for k in elems)
    if p != 2:
        ring = make_ring_Rprime(p, n, N)
        t2 = {k: bar[k] @ bar[k] * pow(2, -1, p) % p for k in elems}
    else:
        ring = make_ring_Rprime(2, n, N) if n >= 2 else make_ring_Rprime_2_1(a_hat, N)
        t2 = {k: 0 * bar[k] for k in elems}
    t1 = {k: alpha.of_vec(k) % mn if n >= 2 or p != 2 else bar[k] for k in elems}
    images = {
        k: AlgMatrix.from_rows(
            ring, [[(int(i == j), int(t1[k][i, j]), int(t2[k][i, j])) for j in range(d)] for i in range(d)]
        )
        for k in elems
    }
    if p == 2 and n >= 2:  # on cyclic generators, multiplied in basis order
        basis = K.basis_vectors()
        for k in elems:
            img = AlgMatrix.identity(ring, d)
            for e, c in zip(basis, k):
                for _ in range(c):
                    img = img @ images[e]
            images[k] = img
    verified = all(
        images[u] @ images[v] == images[tuple((a + b) % m for a, b in zip(u, v))]
        for u in elems
        for v in elems
    )
    return commutes, clause, verified


@settings(max_examples=60, deadline=None)
@given(
    pn=st.sampled_from([(2, 1), (2, 2), (3, 1)]),
    entries=st.lists(st.integers(0, 3), min_size=8, max_size=8),
    a_hat=st.integers(0, 1),
)
# alpha(e_1) and alpha(e_2) = 1 both idempotent: the clause holds for a = 1,
# the image commutes, and rho'(e_1) rho'(e_2) != rho'(e_1 + e_2)
@example(pn=(2, 1), entries=[0, 1, 0, 0, 1, 0, 1, 1], a_hat=1)
def test_exp_lift_agrees_with_all_pairs(pn, entries, a_hat):
    # alpha on a rank-2 kernel (the action is not read) into 2 x 2 matrices
    p, n = pn
    G = symmetric_group(3)
    K = Representation.from_generator_images(G, [np.eye(2, dtype=np.int64)] * len(G.generators), p, n)
    alpha = AlphaMap(p, n, 2, 2, np.array(entries, dtype=np.int64).reshape(4, 2) % p**n)
    commutes, clause, verified = _exp_lift_all_pairs(K, alpha, n + 2, a_hat)
    try:
        report = exp_lift_on_kernel(K, alpha, n + 2, a_hat=a_hat)
    except CertifyError:
        assert not (commutes and clause)
    else:
        assert commutes and clause and report.verified == verified


def _order_identities_loop(kvecs, alpha_k, p, n) -> bool:
    """The per-k loop `_order_identities_hold` replaced: the additive order
    of k from its entries' valuations, against the least m >= 1 with
    m alpha(k) = 0, found by adding alpha(k) until the sum vanishes."""
    mn = p**n
    for kv, ak in zip(kvecs.tolist(), alpha_k):
        add_order = 1
        for c in kv:
            if c:
                add_order = max(add_order, mn // (p ** min(pval(c, p, n), n)))
        mat_order = 1
        acc = ak % mn
        while (acc != 0).any():
            acc = (acc + ak) % mn
            mat_order += 1
        if add_order != mat_order:
            return False
    return True


BATTERY = [f"twisted-p{p}n{n}" for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]] + [
    f"standard-d{d}p{p}" for d, p in [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]
]


@pytest.mark.parametrize("name", BATTERY)
def test_order_identities_match_the_per_k_loop(name):
    asm, alpha = _certified(name)
    p, n, mn = asm.p, asm.n, asm.p**asm.n
    kvecs = asm.K.vectors()
    alpha_k = alpha.of_vecs(kvecs)
    rng = np.random.default_rng(len(name))
    shifted = alpha_k.copy()  # corrupted: entries of some rows moved by p^j
    rows = rng.choice(len(kvecs), size=max(1, len(kvecs) // 4), replace=False)
    shifted[rows, 0, 0] = (shifted[rows, 0, 0] + p ** rng.integers(0, n, len(rows))) % mn
    zero_row = alpha_k.copy()  # not injective: alpha(k) = 0 for one k != 0
    zero_row[-1] = 0
    cases = {
        "battery": alpha_k,
        "shifted": shifted,
        "random": rng.integers(0, mn, alpha_k.shape),
        "times p": p * alpha_k % mn,  # not injective
        "zero row": zero_row,
    }
    got = {key: _order_identities_hold(kvecs, a, p, n) for key, a in cases.items()}
    assert got == {key: _order_identities_loop(kvecs, a, p, n) for key, a in cases.items()}
    assert got["battery"] and not got["random"] and not got["times p"] and not got["zero row"]
