"""The presentations of `FiniteGroup.relators` against the group tables."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from defring import groups, kernels
from defring.certify import assemble, build_rho_R, find_alpha, parse_instance_name
from defring.cohomology import h1_dim
from defring.groups import (
    FiniteGroup,
    semidirect_product,
    symmetric_group,
    twisted_frobenius_group,
    violated_relators,
)
from defring.localalg import dual_numbers, standard_rings
from defring.modrep import Representation
from defring.oracle import _identity, _stack_matmul, enumerate_lifts

BATTERY = [f"twisted-p{p}n{n}" for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]] + [
    f"standard-d{d}p{p}" for d, p in [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]
]
CONTROLS = ["twisted-p2n1-scalar", "twisted-p2n2-commutative", "twisted-p3n1-commutative"]


@pytest.mark.parametrize("name", BATTERY + CONTROLS)
def test_relators_hold_in_the_table_backed_gamma(name):
    gamma = assemble(parse_instance_name(name)).gamma
    assert violated_relators(gamma, gamma.generators, lambda a, b: gamma.table[a, b], 0) == []


@pytest.mark.parametrize(
    "group", [symmetric_group(4), twisted_frobenius_group(3)], ids=["S4", "SD16"]
)
def test_schreier_relators_hold(group):
    # one Schreier relator per edge of the Cayley graph off the spanning tree
    rels = reference.schreier_relators(group)
    assert len(rels) == group.order * len(group.generators) - (group.order - 1)
    plain = FiniteGroup(group.table, group.generators, candidates=rels)  # proved as candidates
    assert plain.relators() == tuple(rels)
    for G in (group, plain):
        assert violated_relators(G, G.generators, lambda a, b: G.table[a, b], 0) == []


def _fold(word, gen_values, mul, one):
    """The value of a word, multiplied left to right from `one`."""
    acc = one
    for t in word:
        acc = mul(acc, gen_values[t])
    return acc


def test_violated_relators_names_the_failing_relators():
    G = symmetric_group(4)
    rels = G.relators()
    assert G.relators() is rels  # built once per group
    transposition, cycle = G.generators
    bad = violated_relators(G, [cycle, transposition], lambda a, b: G.table[a, b], 0)  # images swapped
    assert bad and set(bad) <= set(rels)
    for u, v in bad:
        assert _fold(u, [cycle, transposition], G.mul, 0) != _fold(v, [cycle, transposition], G.mul, 0)


def test_relator_values_call_mul_once_per_word_depth():
    # the relator words are walked as a prefix trie, one depth at a time:
    # one stacked product per depth past the first, whose prefixes are the
    # generators themselves; each longer distinct prefix evaluated once
    for name, depth in [("twisted-p2n1", 3), ("standard-d4p2", 5)]:
        gamma = _gamma(name)
        words = [w for rel in gamma.relators() for w in rel]
        calls = []

        def mul(a, b):
            calls.append(len(a))
            return gamma.table[a, b]

        diff = gamma.relator_values(gamma.generators, mul, 0)
        assert not diff.any()
        assert len(calls) == max(map(len, words)) - 1 == depth - 1, name
        assert sum(calls) == len({w[:k] for w in words for k in range(2, len(w) + 1)})


class _WordGroup(FiniteGroup):
    """The trivial group on `ngens` generators, whose `relators()` are the
    given pairs of words: any word set walked through the relator trie."""

    def __init__(self, relators, ngens):
        super().__init__(np.zeros((1, 1), dtype=np.int64), [0] * ngens, name="words")
        self._relators = tuple(relators)


NGENS = 3
_WORDS = st.lists(st.integers(0, NGENS - 1), max_size=5).map(tuple)
_WORD_SETS = st.lists(st.tuples(_WORDS, _WORDS), min_size=1, max_size=8)
EDGE_WORDS = [
    ((), ()),  # both sides empty
    ((0, 1, 2), ()),  # an empty side, waiting from depth 0
    ((), (2, 2)),
    ((0, 1), (1, 0)),  # both sides end at one depth
    ((0, 1, 1), (0, 1)),  # one side a prefix of the other
    ((0, 1, 2, 0), (0, 1, 2, 1)),  # sides sharing a prefix
    ((2,), (0, 1, 2, 0)),  # shares prefixes with the relators above
    ((1, 1), (1, 1)),  # one word on both sides
]


@settings(max_examples=40, deadline=None)
@given(rels=_WORD_SETS, seed=st.integers(0, 2**32 - 1))
@example(rels=EDGE_WORDS, seed=0)
def test_relator_values_match_word_by_word_on_residues(rels, seed):
    # the default `sub`, the difference, on 3 x 3 matrices mod 7
    values = np.random.default_rng(seed).integers(0, 7, (NGENS, 3, 3))
    eye = np.eye(3, dtype=np.int64)

    def mul(a, b):
        return a @ b % 7

    got = _WordGroup(rels, NGENS).relator_values(values, mul, eye)
    assert np.array_equal(got, reference.relator_values(rels, values, mul, eye))


@lru_cache(maxsize=None)
def _ring(name):
    return standard_rings(2)[name]


@settings(max_examples=40, deadline=None)
@given(rels=_WORD_SETS, ring=st.sampled_from(["dual", "Z4u", "F2t3"]), seed=st.integers(0, 2**32 - 1))
@example(rels=EDGE_WORDS, ring="Z4u", seed=0)
def test_relator_values_match_word_by_word_on_codes(rels, ring, seed):
    # a code `sub`, add[u, neg[v]], on a stack of 2 x 2 matrices of element
    # codes, multiplied as the oracle does
    A = _ring(ring)
    add, mul, neg = A.tables()
    values = np.random.default_rng(seed).integers(0, A.size, (NGENS, 4, 2, 2))
    one = np.broadcast_to(_identity(A, 2), (4, 2, 2))

    def sub(u, v):
        return add[u, neg[v]]

    def product(a, b):
        return kernels.table_matmul(a, b, add, mul)

    got = _WordGroup(rels, NGENS).relator_values(values, _stack_matmul(add, mul, 2), one, sub)
    assert np.array_equal(got, reference.relator_values(rels, values, product, one, sub))


@st.composite
def _group_and_values(draw):
    """A group with relators of every kind (Schreier, a family's own, and the
    split-extension families of K x| G) and arbitrary 3 x 3 matrices mod 7
    on its generators."""
    group = _gamma(draw(st.sampled_from(["A4", "S4", "SD16", "F2^2 x S2", "twisted-p2n1"])))
    values = draw(arrays(np.int64, (len(group.generators), 3, 3), elements=st.integers(0, 6)))
    return group, values


@settings(max_examples=25, deadline=None)
@given(case=_group_and_values())
def test_relator_sides_are_left_to_right_folds(case):
    group, values = case
    eye = np.eye(3, dtype=np.int64)

    def mul(a, b):
        return a @ b % 7

    diff = group.relator_values(values, mul, eye)
    assert diff.shape == (len(group.relators()), 3, 3)
    for (u, v), got in zip(group.relators(), diff):
        assert np.array_equal(got, _fold(u, values, mul, eye) - _fold(v, values, mul, eye))


@lru_cache(maxsize=None)
def _gamma(which):
    if which == "A4":  # built with no candidates: its Schreier relators
        return reference.presented(FiniteGroup.from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], name="A4"))
    if which == "S4":
        return symmetric_group(4)
    if which == "SD16":
        return twisted_frobenius_group(3)
    # with a trivial action no other relator family implies x_1 x_2 = x_2 x_1
    if which == "F2^2 x S2":
        S2 = symmetric_group(2)
        return semidirect_product(Representation(S2, [np.eye(2, dtype=np.int64)], 2, 1), S2)
    return assemble(parse_instance_name(which)).gamma


def _homomorphic_mask(gamma, target, images):
    """The e*t predicate, by a breadth-first walk of gamma's Cayley graph:
    which assignments of the distinguished generators (one array of target
    elements per generator) extend to homomorphisms gamma -> target."""
    T = target.table
    values = {0: np.zeros_like(images[0])}
    frontier = [0]
    while frontier:
        e = frontier.pop(0)
        for s, im in zip(gamma.generators, images):
            h = gamma.mul(e, s)
            if h not in values:
                values[h] = T[values[e], im]
                frontier.append(h)
    ok = np.ones(len(images[0]), dtype=bool)
    for e in range(gamma.order):
        for s, im in zip(gamma.generators, images):
            ok &= T[values[e], im] == values[gamma.mul(e, s)]
    return ok


@pytest.mark.parametrize(
    "which,assignments",
    [("F2^2 x S2", 13_824), ("twisted-p2n1-scalar", 13_824), ("twisted-p2n1", 331_776)],
)
def test_relators_accept_exactly_the_homomorphisms_into_s4(which, assignments):
    gamma, S4 = _gamma(which), symmetric_group(4)
    k = len(gamma.generators)
    codes = np.arange(S4.order**k)
    images = [codes // S4.order**i % S4.order for i in range(k)]
    assert len(codes) == assignments
    T = S4.table
    diff = gamma.relator_values(np.array(images), lambda a, b: T[a, b], codes * 0)
    accepted = ~diff.any(axis=0)
    expected = _homomorphic_mask(gamma, S4, images)
    assert expected.any() and not expected.all()
    assert (accepted == expected).all()


def _walk_inputs_checked(monkeypatch):
    """Wrap `groups._walk` to check its precondition, mul(one, x) == x in
    one's dtype and broadcast shape, on the generator values of every walk;
    returns the list of the walks seen."""
    walk, seen = groups._walk, []

    def checked(steps, gen_values, mul, one):
        gen_values, one = np.asarray(gen_values), np.asarray(one)
        got = np.asarray(mul(one[None], gen_values), dtype=one.dtype)
        assert got.shape == np.broadcast_shapes(one[None].shape, gen_values.shape)
        assert np.array_equal(got, np.broadcast_to(gen_values, got.shape))
        seen.append(len(gen_values))
        return walk(steps, gen_values, mul, one)

    monkeypatch.setattr(groups, "_walk", checked)
    return seen


def _rho_w_args(asm):
    rho = asm.rho_w
    return rho.group, rho.gen_mats, rho.p, rho.N


# the five callers of `_walk`, each reached on an instance's assembly
WALK_CALLERS = {
    "extend": lambda asm: Representation._homomorphism(*_rho_w_args(asm)).mats,
    "Representation.__init__": lambda asm: Representation(*_rho_w_args(asm)),
    "h1_dim": lambda asm: h1_dim(asm.M.inflate(asm.gamma)),
    "build_rho_R": lambda asm: build_rho_R(asm, find_alpha(asm).alpha),
    # the lifts' relator check, `_assert_full_table`, on its own walks
    "_assert_full_table": lambda asm: enumerate_lifts(asm.rho_bar, dual_numbers(asm.p)),
}


@pytest.mark.parametrize("instance", ["twisted-p2n1", "twisted-p3n1", "standard-d2p2"])
@pytest.mark.parametrize("caller", sorted(WALK_CALLERS))
def test_walk_callers_give_values_the_identity_fixes(caller, instance, monkeypatch):
    # `_walk` takes the depth-1 values as the generator values, unmultiplied
    asm = assemble(parse_instance_name(instance))
    seen = _walk_inputs_checked(monkeypatch)
    WALK_CALLERS[caller](asm)
    assert seen
