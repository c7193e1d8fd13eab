"""Coset enumeration (`groups.coset_count`) and the family presentations it
proves: a family group presents itself by its own short relators once they
hold in its table and the enumeration closes at |G| cosets, and is refused
with a GroupError otherwise."""

import re
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defring import groups
from defring.certify import assemble, parse_instance_name
from defring.cli import main
from defring.groups import (
    FiniteGroup,
    GroupError,
    _symmetric_relators,
    coset_count,
    pgl2,
    symmetric_group,
    twisted_frobenius_group,
)

from reference import schreier_relators

A, B = (0,), (1,)


def test_coset_count_known_orders():
    # <a, b | a^2, b^3, (ab)^5> is A_5; adding [a, b]^4 = 1 to (ab)^7 gives
    # PSL_2(7); a^-1 = a and b^-1 = b^2 keep the words positive
    assert coset_count(2, [(A * 2, ()), (B * 3, ()), ((A + B) * 5, ())]) == 60
    commutator = A + B * 2 + A + B
    assert coset_count(2, [(A * 2, ()), (B * 3, ()), ((A + B) * 7, ()), (commutator * 4, ())]) == 168
    assert coset_count(1, [(A * 5, ())]) == 5
    assert coset_count(2, [(A * 3, ()), (B * 4, ()), (A + B, B + A)]) == 12
    assert coset_count(0, []) == 1


def test_an_infinite_presentation_hits_the_coset_limit_and_is_refused():
    # without sigma^2 = 1, sigma zeta = zeta^p sigma presents an infinite
    # group: the enumeration gives up, and TF_p has no presentation
    tf = twisted_frobenius_group(3)
    rels = [(B + A, A * 3 + B)]
    assert coset_count(2, rels) is None
    G = FiniteGroup(tf.table, tf.generators, name="TF3", candidates=rels)
    with pytest.raises(GroupError, match=rf"TF3: .*no count within {groups.COSET_LIMIT} cosets, not \|G\| = 16"):
        G.relators()


def test_a_candidate_that_fails_in_the_table_is_refused():
    s4 = symmetric_group(4)
    wrong = [(B * 3, ()) if rel == (B * 4, ()) else rel for rel in s4._candidates]
    G = FiniteGroup(s4.table, s4.generators, name="S4", candidates=wrong)
    with pytest.raises(GroupError, match=r"S4: candidate relator \(1, 1, 1\) = \(\) fails in the table"):
        G.relators()


def test_candidates_that_hold_but_present_a_larger_group_are_refused():
    # t^2, c^3 and (t c)^4 hold in S_3, but present the (2, 3, 4) triangle
    # group S_4: the enumeration closes at 24 cosets, not 6
    s3 = symmetric_group(3)
    rels = [(A * 2, ()), (B * 3, ()), ((A + B) * 4, ())]
    assert coset_count(2, rels) == 24
    G = FiniteGroup(s3.table, s3.generators, name="S3", candidates=rels)
    with pytest.raises(GroupError, match=r"S3: .*gives 24 cosets, not \|G\| = 6"):
        G.relators()


def test_a_group_without_candidates_is_refused():
    G = FiniteGroup.from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], name="A4")
    with pytest.raises(GroupError, match="A4 has no candidate relators"):
        G.relators()
    # its Schreier relators, given as candidates, are proved
    rels = schreier_relators(G)
    assert FiniteGroup(G.table, G.generators, candidates=rels).relators() == tuple(rels)


@pytest.mark.parametrize(
    "candidates,reason",
    [([], "S3 has no candidate relators"), ([(B * 2, ())], r"S3: candidate relator \(1, 1\) = \(\) fails")],
    ids=["none", "failed-proof"],
)
def test_the_cli_exits_2_on_a_group_without_a_proved_presentation(candidates, reason, monkeypatch, capsys):
    # standard-d2p5 is over S_3, whose representation is checked on its
    # relators as the instance is assembled
    monkeypatch.setattr(groups, "_symmetric_relators", lambda m: candidates)
    assert main(["certify", "standard-d2p5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert re.search(reason, captured.err)


@st.composite
def _permutation_groups(draw):
    degree = draw(st.integers(1, 6))
    perms = st.permutations(range(degree)).map(tuple)
    gens = draw(st.lists(perms, min_size=1, max_size=2))
    return FiniteGroup.from_permutations(gens)


@settings(max_examples=40, deadline=None)
@given(G=_permutation_groups())
def test_schreier_relators_enumerate_to_the_group_order(G):
    # the enumeration costs |G| scans of |G| (#gens - 1) + 1 relators, about
    # 1.5 s on S_6: orders up to 120 keep the property in tier-1 time
    assume(G.order <= 120)
    assert coset_count(len(G.generators), schreier_relators(G)) == G.order


FAMILY = (
    [twisted_frobenius_group(p) for p in (2, 3, 5, 7)]
    + [symmetric_group(m) for m in range(2, 7)]
    + [pgl2(q) for q in (2, 3, 4, 5, 7, 8, 9)]
)


def test_every_family_group_uses_its_own_relators():
    for G in FAMILY:
        assert G.relators() == G._candidates, G.name
        assert len(G.relators()) < len(schreier_relators(G)) or G.order <= 2, G.name


def test_s4_relators_are_at_most_6_letters_a_side():
    # Coxeter and Moser's (t c^-1 t c)^3, 12 letters on one side, is left
    # out: the others already close at 24 cosets
    assert max(len(w) for rel in symmetric_group(4).relators() for w in rel) <= 6


def test_s7_relators_hold_and_enumerate_to_5040():
    # S_7's 5040 x 5040 table (200 MB) is left out: its candidates are
    # checked on the permutations and by enumeration, the two steps of the
    # proof in `FiniteGroup._presentation`
    m = 7
    gens = [tuple([1, 0] + list(range(2, m))), tuple(list(range(1, m)) + [0])]

    def value(word):
        acc = tuple(range(m))
        for t in word:
            acc = tuple(acc[i] for i in gens[t])  # acc after gens[t], as the table multiplies
        return acc

    rels = _symmetric_relators(m)
    assert all(value(u) == value(v) for u, v in rels)
    assert coset_count(2, rels) == 5040


def _matrix_monoid():
    """M_2(F_2) as a multiplication table on codes 0..15, singular matrices
    included, and the code of the identity."""
    mats = [np.array(bits).reshape(2, 2) for bits in product((0, 1), repeat=4)]
    codes = {m.tobytes(): i for i, m in enumerate(mats)}
    table = np.array([[codes[(a @ b % 2).tobytes()] for b in mats] for a in mats])
    return table, codes[np.eye(2, dtype=mats[0].dtype).tobytes()]


def test_family_relators_accept_exactly_the_homomorphisms_into_a_matrix_monoid():
    # every assignment of 2 x 2 matrices over F_2, invertible or not, to the
    # generators: the relators hold exactly when the values extended along
    # the spanning tree are multiplicative, that is, when they extend to a
    # homomorphism.  Each generator is invertible in the monoid the family's
    # relators present, so no singular assignment passes.
    T, one = _matrix_monoid()
    for G in [twisted_frobenius_group(2), twisted_frobenius_group(3), symmetric_group(3),
              symmetric_group(4), pgl2(2), pgl2(3), pgl2(4)]:
        k = len(G.generators)
        codes = np.arange(16**k)
        images = np.array([codes // 16**i % 16 for i in range(k)])
        accepted = ~G.relator_values(images, lambda a, b: T[a, b], np.full(codes.shape, one)).any(axis=0)
        values = G.extend(images, lambda a, b: T[a, b], np.full(codes.shape, one))
        step = G.table[:, list(G.generators)]
        homomorphic = np.all([T[values, images[t]] == values[step[:, t]] for t in range(k)], axis=(0, 1))
        assert homomorphic.any() and (accepted == homomorphic).all(), G.name


def test_standard_d4p2_gamma_has_at_most_30_relators():
    # PGL_2(4) brings 7 relators instead of its 121 Schreier relators
    asm = assemble(parse_instance_name("standard-d4p2"))
    assert len(asm.G.relators()) == 7
    assert len(asm.gamma.relators()) <= 30
