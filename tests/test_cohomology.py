import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring import kernels
from defring.certify import assemble, parse_instance_name
from defring.cohomology import (
    BarComplex,
    CohomologyError,
    h1_dim,
    h2_dim,
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
    hom_space,
    standard_rep,
    twisted_kernel_module,
)

from reference import inverses, is_projective_higman, presented


def cyclic_group(n):
    table = np.array([[(i + j) % n for j in range(n)] for i in range(n)])
    return presented(FiniteGroup(table, [1] if n > 1 else [], name=f"C{n}"))


def alternating_4():
    # even permutations of 4 points: generated by (0 1)(2 3) and (0 1 2)
    d_perm = (1, 0, 3, 2)
    t_perm = (1, 2, 0, 3)
    return presented(FiniteGroup.from_permutations([d_perm, t_perm], name="A4"))


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
    K = twisted_kernel_module(galois_module_rep(2, 1), 1)
    gamma = semidirect_product(K, K.group)
    V = galois_module_rep(2, 1).inflate(gamma)
    M = end_rep(V)
    assert h1_dim(M) == 1


def test_h1_matches_hom_invariants_on_twisted_instances():
    for p, n in [(2, 1), (2, 2), (3, 1)]:
        K = twisted_kernel_module(galois_module_rep(p, n), n)
        gamma = semidirect_product(K, K.group)
        V = galois_module_rep(p, 1).inflate(gamma)
        M = end_rep(V)
        MG = end_rep(galois_module_rep(p, 1))
        assert h1_dim(M) == hom_space(K.reduce_mod(1), MG).dimension == 1


def test_h1_holds_one_difference_per_relator():
    # the relator walk accumulates value(u) - value(v) in one array instead
    # of holding both sides, over PGL_2(4)'s 7 proved relators instead of
    # its 121 Schreier relators: about 2.8 MiB on standard-d4p2, against
    # 5.5 MiB with the Schreier relators and 7.7 MiB with both sides held
    asm = assemble(parse_instance_name("standard-d4p2"))
    M = asm.M.inflate(asm.gamma)
    assert h1_dim(M) == 1  # warms the presentation and its trie
    tracemalloc.start()
    try:
        assert h1_dim(M) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


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
        M = end_rep(standard_rep(G, p, 1))
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


def test_h2_coprime_order_vanishes_without_assembly(monkeypatch):
    # the twisted group at p = 5 has order 48 coprime to 5, so |G| is a unit
    # on M and kills H^2: "auto" answers 0 without assembling anything
    def refuse(self):
        raise AssertionError("assembled the Z^2 system")

    monkeypatch.setattr(BarComplex, "d2_matrix", refuse)
    M = end_rep(galois_module_rep(5, 1))
    assert h2_dim(M) == 0
    with pytest.raises(AssertionError, match="assembled"):
        h2_dim(M, method="direct")


@st.composite
def _permutation_groups(draw):
    npts = draw(st.integers(2, 5))
    perms = st.permutations(range(npts)).map(tuple)
    gens = draw(st.lists(perms, min_size=1, max_size=2))
    return FiniteGroup.from_permutations(gens, name="P")


@settings(max_examples=120, deadline=None)
@given(_permutation_groups(), st.sampled_from([2, 3, 5]))
def test_h2_auto_equals_direct(G, p):
    # coprime vanishing against the direct route, trivial coefficients
    M = trivial_module(G, p)
    assert h2_dim(M) == h2_dim(M, method="direct")


def test_h2_guard():
    # H_1(S_6, Z) = H_2(S_6, Z) = Z/2, so by universal coefficients
    # H^2(S_6, F_p) = Hom(H_2, F_p) + Ext(H_1, F_p) is F_2^2 at p = 2 and 0
    # at odd p; E has 2 * 721 x 1438 entries, under the dense limit
    G = symmetric_group(6)
    for p, want in [(2, 2), (3, 0), (5, 0)]:
        assert h2_dim(trivial_module(G, p), method="direct") == want, p
    # End of the 5-dimensional standard piece is past it, and the error gives
    # the size it computed: 2 gens * 721 edges off the tree * 25 rows by
    # 719 * 2 * 25 unknowns
    with pytest.raises(CohomologyError, match="36050 x 35950"):
        h2_dim(end_rep(standard_rep(G, 5, 1)), method="direct")


def test_h2_s5_direct():
    # Schur multiplier Z/2 and abelianization Z/2: H^2(S_5, F_2) = 2.  For
    # p = 3, 5 the Sylow subgroup C_p is abelian, so H^2(S_5, F_p) is the part
    # of H^2(C_p, F_p) = F_p fixed by its normalizer (Swan), which acts on
    # C_p, and so on it, nontrivially: H^2(S_5, F_p) = 0
    S5 = symmetric_group(5)
    assert h2_dim(trivial_module(S5, 2), method="direct") == 2
    for p in (3, 5):
        assert h2_dim(trivial_module(S5, p), method="direct") == 0, p


def test_h2_s5_direct_peak():
    # E is the 2 * 121 rows at S_5's two generators, 242 x 238 int64 (0.44
    # MiB); the bound fails if E takes every element's rows (14,399 x 238,
    # 26 MiB) or if the assembly holds a tensor of |G|^2 dim M #unknowns
    M = trivial_module(symmetric_group(5), 2)
    assert BarComplex(M).d2_matrix().shape == (242, 238)
    tracemalloc.start()
    try:
        assert h2_dim(M, method="direct") == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


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


def _is_cocycle_loop(cx, c) -> bool:
    """The triple loop the vectorised BarComplex.is_cocycle replaced."""
    G, p = cx.M.group, cx.p
    for g in range(1, cx.n):
        for h in range(1, cx.n):
            gh = G.mul(g, h)
            for k in range(1, cx.n):
                hk = G.mul(h, k)
                total = cx.M.mats[g] @ np.asarray(c(h, k), dtype=np.int64)
                if gh != 0:
                    total = total - np.asarray(c(gh, k))
                if hk != 0:
                    total = total + np.asarray(c(g, hk))
                total = total - np.asarray(c(g, h))
                if (total % p).any():
                    return False
    return True


def _cocycle_modules():
    for name in ("C4-F2", "C9-F3", "S3-F3", "S3-sign-F3", "S3-standard-F5", "V4-F2"):
        yield BAR_MODULES[name]()


def test_is_cocycle_matches_the_triple_loop():
    rng = np.random.default_rng(5)
    for M in _cocycle_modules():
        cx = BarComplex(M)
        m, dm, p = cx.nontriv, cx.dm, cx.p
        d1 = cx.d1_matrix(np.arange(1, cx.n))
        seen = set()
        for trial in range(6):
            f = rng.integers(0, p, cx.dim_c1)
            values = (d1 @ f % p).reshape(m, m, dm)  # a coboundary
            if trial % 2:  # values past p: both sides reduce mod p
                values = values + p * rng.integers(0, 3, values.shape)
            if trial >= 2:  # one value moved: almost never a cocycle
                g, h = rng.integers(0, m, 2)
                values[g, h, rng.integers(0, dm)] += rng.integers(1, p)
            if trial == 5:
                values = rng.integers(0, p, (m, m, dm))

            def c(g, h, values=values):
                return values[g - 1, h - 1]

            want = _is_cocycle_loop(cx, c)
            assert cx.is_cocycle(c) == want, (M.group.name, trial)
            assert want or trial >= 2
            seen.add(want)
        assert seen == {True, False}, M.group.name


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_wedge_invariance_matches_the_pair_loop(p):
    # c(Au, Av) = c(u, v) for every pair of (Z/p)^2, A the action of the
    # multiplicative generator on the twisted kernel module mod p
    A = twisted_kernel_module(galois_module_rep(p, 1), 1).gen_mats[0]
    vectors = [np.array([a, b]) for a in range(p) for b in range(p)]

    def c(u, v):
        return (u[0] * v[1] - u[1] * v[0]) % p

    invariant = all(c(A @ u % p, A @ v % p) == c(u, v) for u in vectors for v in vectors)
    assert wedge_cocycle(p).invariant == invariant


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


def _loop_z2_system(M):
    """The full Z^2 system, whose rows at the generators E
    (`BarComplex.d2_matrix`) keeps: the cocycle condition on the generator
    values u(x, t) = f(x, s_t), one element and one edge at a time: f(g, h)
    carried down the spanning tree in BFS order as a dm x #unknowns block, then the block row
    f(g, h s_t) - f(g, h) - S(g, h, t) for each g != 1 and each edge (h, t)
    off the tree, S(g, h, t) = u(gh, t) - g.u(h, t)."""
    G, p, dm, gens = M.group, M.p, M.degree, M.group.generators
    n_unk = (G.order - 1) * len(gens) * dm

    def u(x, t):
        block = np.zeros((dm, n_unk), dtype=np.int64)
        if x:
            i = ((x - 1) * len(gens) + t) * dm
            block[:, i : i + dm] = np.eye(dm, dtype=np.int64)
        return block

    def step(g, h, t):
        return u(G.mul(g, h), t) - M.mats[g] @ u(h, t)

    order, parent, genidx = G.spanning_tree()
    f = {}
    for g in range(1, G.order):
        f[g, 0] = np.zeros((dm, n_unk), dtype=np.int64)
        for h in order[1:]:
            f[g, h] = f[g, parent[h]] + step(g, parent[h], genidx[h])
    rows = [np.zeros((0, n_unk), dtype=np.int64)]
    for g in range(1, G.order):
        for h in range(G.order):
            for t, s in enumerate(gens):
                e = G.mul(h, s)
                if e == 0 or parent[e] != h or genidx[e] != t:
                    rows.append(f[g, e] - f[g, h] - step(g, h, t))
    return np.vstack(rows) % p


def _generator_rows(M, full):
    """The rows (s, j, c) of a Z^2 system `full` with rows (g, j, c), g != 1,
    at the distinct non-identity generators s, increasing."""
    gens = np.array(M.group.generators, dtype=np.int64)
    s = np.unique(gens[gens != 0])
    return full.reshape(M.group.order - 1, -1, full.shape[1])[s - 1].reshape(-1, full.shape[1])


def _assert_generator_rows_of_the_loop_system(M, E):
    """E is the loop reference's rows at the generators, bit for bit, and of
    its rank mod p, so of its kernel Z^2."""
    full = _loop_z2_system(M)
    assert E.dtype == np.int64
    assert np.array_equal(E, _generator_rows(M, full))
    assert kernels.rank_modp(E, M.p) == kernels.rank_modp(full, M.p)


def _bar_h2(M):
    """dim C^2 - rank d2 - rank d1 on the all-triples loop reference."""
    d1, d2 = _loop_coboundaries(M)
    dim_c2 = (M.group.order - 1) ** 2 * M.degree
    return dim_c2 - kernels.rank_modp(d2, M.p) - kernels.rank_modp(d1, M.p)


BAR_MODULES = {
    "S3-F2": lambda: trivial_module(symmetric_group(3), 2),
    "S3-F3": lambda: trivial_module(symmetric_group(3), 3),
    "A4-F2": lambda: trivial_module(alternating_4(), 2),
    "A4-F3": lambda: trivial_module(alternating_4(), 3),
    "End-GR4": lambda: end_rep(galois_module_rep(2, 1)),
    "C4-F2": lambda: trivial_module(cyclic_group(4), 2),
    "C9-F3": lambda: trivial_module(cyclic_group(9), 3),
    "V4-F2": lambda: trivial_module(FiniteGroup(np.array([[a ^ b for b in range(4)] for a in range(4)]), [1, 2]), 2),
    # the sign character of S_3 over F_3: generators (0 1) and (0 1 2)
    "S3-sign-F3": lambda: Representation(symmetric_group(3), [[[2]], [[1]]], 3, 1),
    "S3-standard-F5": lambda: standard_rep(symmetric_group(3), 5, 1),
    "TF2-F2": lambda: trivial_module(twisted_frobenius_group(2), 2),
    "TF3-F2": lambda: trivial_module(twisted_frobenius_group(3), 2),
    "TF3-F3": lambda: trivial_module(twisted_frobenius_group(3), 3),
    "A4-standard-F3": lambda: standard_rep(alternating_4(), 3, 1),
}


@pytest.mark.parametrize("name", sorted(BAR_MODULES))
def test_vectorised_coboundaries_match_loop_reference(name):
    M = BAR_MODULES[name]()
    cx = BarComplex(M)
    d1, _ = _loop_coboundaries(M)
    got1, got2 = cx.d1_matrix(np.arange(1, cx.n)), cx.d2_matrix()
    assert got1.dtype == np.int64 and np.array_equal(got1, d1)
    _assert_generator_rows_of_the_loop_system(M, got2)
    # coboundaries are cocycles: E vanishes on d1's rows (g, s), which give
    # d1 f in E's unknowns
    assert not ((got2 @ cx.d1_matrix(cx.gens)) % M.p).any()


@pytest.mark.parametrize("name", sorted(BAR_MODULES))
def test_h2_direct_matches_the_all_triples_bar_complex(name):
    M = BAR_MODULES[name]()
    assert h2_dim(M, method="direct") == _bar_h2(M)


@st.composite
def redundant_generator_modules(draw):
    """A small group on drawn generators, which may repeat and include the
    identity (so edges (1, t) off the tree), and a trivial or regular
    module over it."""
    p = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["cyclic", "S3", "A4"]))
    if kind == "cyclic":
        n = draw(st.integers(2, 9))
        table = np.add.outer(np.arange(n), np.arange(n)) % n
        picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        G = FiniteGroup(table, picks + [1] if np.gcd.reduce(picks + [n]) != 1 else picks, name=f"C{n}")
        G = presented(G)
    else:
        base = _permutation_group(kind)
        picks = draw(st.lists(st.integers(0, base.order - 1), min_size=1, max_size=4))
        if not base.generates(picks):
            picks += list(base.generators)
        G = presented(FiniteGroup.from_permutations([tuple(base.action[e]) for e in picks], name=kind))
    modules = [trivial_module(G, p)] + ([_regular_module(G, p)] if G.order <= 6 else [])
    return draw(st.sampled_from(modules))


@settings(max_examples=30, deadline=None)
@given(M=redundant_generator_modules())
def test_z2_system_on_redundant_generators(M):
    cx = BarComplex(M)
    _assert_generator_rows_of_the_loop_system(M, cx.d2_matrix())
    assert cx.h2_dim_direct() == _bar_h2(M)


def test_h2_s4_direct():
    # Schur multiplier Z/2 and abelianization Z/2: H^2(S_4, F_2) = 2;
    # H^2(S_4, F_3) = 0 since both have no 3-part
    S4 = symmetric_group(4)
    assert h2_dim(trivial_module(S4, 2), method="direct") == 2
    assert h2_dim(trivial_module(S4, 3), method="direct") == 0


# -- H^1 from the presentation against references that do not use it --------

BATTERY = [f"twisted-p{p}n{n}" for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]] + [
    f"standard-d{d}p{p}" for d, p in [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]
]
CONTROLS = ["twisted-p2n1-scalar", "twisted-p2n2-commutative", "twisted-p3n1-commutative"]
D1_ENTRY_LIMIT = 4_000_000  # keeps the dense d1 of a reference under 32 MB


def _bar_h1(M):
    """(dim C^1 - rank d1) - rank [M(g) - I]_g on the normalized bar complex."""
    cx = BarComplex(M)
    z1 = cx.dim_c1 - kernels.rank_modp(cx.d1_matrix(np.arange(1, cx.n)), M.p)
    b1 = kernels.rank_modp((M.mats - np.eye(M.degree, dtype=np.int64)).reshape(-1, M.degree), M.p)
    return z1 - b1


@lru_cache(maxsize=None)
def _permutation_group(name):
    if name == "S3":
        return symmetric_group(3)
    if name == "S4":
        return symmetric_group(4)
    return alternating_4()


@lru_cache(maxsize=None)
def _gamma_pieces(piece):
    """Gamma = K x| G from a twisted kernel module, a standard permutation
    piece or a trivial action, with K mod p and End of the inflated
    representations of G over F_p."""
    kind, p, n = piece
    if kind == "twisted":
        K = twisted_kernel_module(galois_module_rep(p, n), n)
        reps = [galois_module_rep(p, 1)]
    elif kind == "standard":
        V = standard_rep(symmetric_group(3), p, 1)
        K = Representation(V.group, V.gen_mats, p, 1)
        reps = [V]
    else:  # no other relator family implies x_1 x_2 = x_2 x_1
        K = Representation(symmetric_group(2), [np.eye(2, dtype=np.int64)], p, 1)
        reps = []
    gamma = semidirect_product(K, K.group)
    Kbar = K.reduce_mod(1)
    return gamma, [Kbar.inflate(gamma)] + [end_rep(V.inflate(gamma)) for V in reps]


def _regular_module(G, p):
    """F_p[G] with G acting by left multiplication: a free module, on which
    the normal subgroup K of K x| G acts nontrivially."""
    n = G.order
    g, h = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    mats = np.zeros((n, n, n), dtype=np.int64)
    mats[g, G.table[g, h], h] = 1
    return Representation(G, mats[list(G.generators)], p, 1)


def _small_d1(order, degree):
    """Whether the dense bar d1 has at most D1_ENTRY_LIMIT entries."""
    return (order - 1) ** 3 * degree**2 <= D1_ENTRY_LIMIT


def _regular_modules(G, p):
    """[F_p[G]] if its bar d1 is small, else []."""
    return [_regular_module(G, p)] if _small_d1(G.order, G.order) else []


def _bar_sized(modules):
    """The modules whose bar d1 is small."""
    return [M for M in modules if _small_d1(M.group.order, M.degree)]


PIECES = [
    ("twisted", 2, 1), ("twisted", 2, 2), ("twisted", 3, 1),
    ("standard", 2, 1), ("standard", 5, 1), ("trivial", 2, 1), ("trivial", 3, 1),
]


@st.composite
def plain_group_modules(draw):
    """A cyclic or permutation group on drawn distinguished generators (so
    drawn Schreier relators) and an F_p-module over it."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["cyclic", "S3", "A4", "S4"]))
    if kind == "cyclic":
        n = draw(st.integers(2, 30))
        gens = draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3))
        table = np.add.outer(np.arange(n), np.arange(n)) % n
        base = FiniteGroup(table, [1])
        G = presented(FiniteGroup(table, gens if base.generates(gens) else gens + [1], name=f"C{n}"))
        return draw(st.sampled_from([trivial_module(G, p)] + _regular_modules(G, p)))
    base = _permutation_group(kind)
    picks = draw(st.lists(st.integers(1, base.order - 1), min_size=1, max_size=3))
    if not base.generates(picks):
        picks += list(base.generators)
    G = presented(FiniteGroup.from_permutations([tuple(base.action[e]) for e in picks], name=kind))
    modules = [trivial_module(G, p)] + _regular_modules(G, p)
    if G.action.shape[1] % p:
        modules.append(end_rep(standard_rep(G, p, 1)))
    return draw(st.sampled_from(_bar_sized(modules)))


@settings(max_examples=40, deadline=None)
@given(M=plain_group_modules())
def test_h1_matches_the_bar_complex_on_plain_groups(M):
    assert h1_dim(M) == _bar_h1(M)


@settings(max_examples=40, deadline=None)
@given(piece=st.sampled_from(PIECES), p=st.sampled_from([2, 3, 5]), data=st.data())
def test_h1_matches_the_bar_complex_on_semidirect_products(piece, p, data):
    # K x| G through its split-extension presentation; coefficients trivial,
    # regular, K mod p or End of an inflated representation
    gamma, modules = _gamma_pieces(piece)
    modules = [trivial_module(gamma, p)] + _regular_modules(gamma, p) + modules
    M = data.draw(st.sampled_from(_bar_sized(modules)))
    assert h1_dim(M) == _bar_h1(M)


@pytest.mark.parametrize(
    "piece",
    [("twisted", 2, 1), ("standard", 2, 1), ("trivial", 2, 1), ("trivial", 3, 1)],
    ids=lambda piece: "-".join(map(str, piece)),
)
def test_h1_of_the_regular_module_vanishes(piece):
    # H^1(Gamma, F_p[Gamma]) = 0 by Shapiro's lemma, at every p
    gamma, _ = _gamma_pieces(piece)
    for p in (2, 3):
        assert h1_dim(_regular_module(gamma, p)) == 0, p


def _subgroup_from(G, elements, start=()):
    """The subgroup generated by `start` and `elements`, adding a seed only
    when it is not yet in the span."""
    seeds = list(start)
    span = set(G.closure(seeds))
    for x in elements:
        if x not in span:
            seeds.append(x)
            span = set(G.closure(seeds))
    return seeds, span


def _abelian_p_rank(G, p):
    """dim Hom(G^ab, F_p) = log_p [G : [G, G] G^p], from the table alone."""
    T, inv = G.table, inverses(G)
    aba = T[T, inv[:, None]]  # [a, b] -> a b a^-1
    commutators = np.unique(T[aba, inv[None, :]])
    seeds, _ = _subgroup_from(G, commutators.tolist())
    powers = np.arange(G.order)
    for _ in range(p - 1):
        powers = T[powers, np.arange(G.order)]
    _, below = _subgroup_from(G, np.unique(powers).tolist(), seeds)  # [G, G] G^p
    assert G.order % len(below) == 0
    index, rank = G.order // len(below), 0
    while index % p == 0:
        index, rank = index // p, rank + 1
    assert index == 1
    return rank


@lru_cache(maxsize=None)
def _instance_gamma(name):
    return assemble(parse_instance_name(name)).gamma


@pytest.mark.parametrize("name", BATTERY + CONTROLS)
def test_h1_trivial_coefficients_is_hom_from_the_abelianization(name):
    gamma = _instance_gamma(name)
    for p in (2, 3, 5, 7):
        assert h1_dim(trivial_module(gamma, p)) == _abelian_p_rank(gamma, p), p
