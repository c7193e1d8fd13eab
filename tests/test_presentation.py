"""The presentations of `FiniteGroup.relators` against the group tables."""

from functools import lru_cache

import numpy as np
import pytest

from defring.certify import assemble, parse_instance_name
from defring.groups import (
    evaluate_words,
    semidirect_product,
    symmetric_group,
    twisted_frobenius_group,
    violated_relators,
)
from defring.modrep import Representation

BATTERY = [f"twisted-p{p}n{n}" for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]] + [
    f"standard-d{d}p{p}" for d, p in [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]
]
CONTROLS = ["twisted-p2n1-scalar", "twisted-p2n2-commutative", "twisted-p3n1-commutative"]


@pytest.mark.parametrize("name", BATTERY + CONTROLS)
def test_relators_hold_in_the_table_backed_gamma(name):
    gamma = assemble(parse_instance_name(name)).gamma
    assert violated_relators(gamma, gamma.generators, gamma.mul, 0) == []


@pytest.mark.parametrize(
    "group", [symmetric_group(4), twisted_frobenius_group(3)], ids=["S4", "SD16"]
)
def test_schreier_relators_hold(group):
    rels = group.relators()
    # one relator per edge of the Cayley graph off the spanning tree
    assert len(rels) == group.order * len(group.generators) - (group.order - 1)
    assert violated_relators(group, group.generators, group.mul, 0) == []


def test_violated_relators_names_the_failing_relators():
    G = symmetric_group(4)
    rels = G.relators()
    assert G.relators() is rels  # built once per group
    transposition, cycle = G.generators
    bad = violated_relators(G, [cycle, transposition], G.mul, 0)  # images swapped
    assert bad and set(bad) <= set(rels)
    for u, v in bad:
        lhs, rhs = evaluate_words([u, v], [cycle, transposition], G.mul, 0)
        assert lhs != rhs


def test_evaluate_words_multiplies_left_to_right_sharing_prefixes():
    G = symmetric_group(4)
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return G.mul(a, b)

    words = [(0, 1, 1), (0, 1), (), (1, 0), (0, 1, 0)]
    got = evaluate_words(words, G.generators, mul, 0)
    for word, value in zip(words, got):
        acc = 0
        for t in word:
            acc = G.mul(acc, G.generators[t])
        assert value == acc
    # prefixes (0), (0,1), (0,1,1), (1), (1,0), (0,1,0): one product each
    assert len(calls) == 6


@lru_cache(maxsize=None)
def _gamma(which):
    # with a trivial action no other relator family implies x_1 x_2 = x_2 x_1
    if which == "F2^2 x S2":
        S2 = symmetric_group(2)
        return semidirect_product(Representation.from_generator_images(S2, [np.eye(2, dtype=np.int64)], 2, 1), S2)
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
    rels = gamma.relators()
    words = evaluate_words(
        [w for rel in rels for w in rel], images, lambda a, b: T[a, b], codes * 0
    )
    accepted = np.ones(len(codes), dtype=bool)
    for lhs, rhs in zip(words[0::2], words[1::2]):
        accepted &= lhs == rhs
    expected = _homomorphic_mask(gamma, S4, images)
    assert expected.any() and not expected.all()
    assert (accepted == expected).all()
