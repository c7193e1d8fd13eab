"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line with its runtime and enforcing the stated time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from defring.certify import (
    InstanceSpec,
    assemble,
    build_rho_R,
    certify_instance,
    find_alpha,
    negative_control,
)
from defring.cohomology import h1_dim, h2_dim, hom_invariants_dim, trivial_module, wedge_cocycle
from defring.groups import FiniteGroup, find_isomorphism, orbit_count_triples, pgl2, symmetric_group
from defring.localalg import dual_numbers, standard_rings
from defring.modrep import (
    Representation,
    end_rep,
    galois_module_rep,
    hom_space,
    is_projective_higman,
    standard_perm_rep,
    x_matrices,
)
from defring.oracle import deformation_classes, enumerate_lifts, functor_compare

TWISTED = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]
STANDARD = [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]


@contextmanager
def criterion(number: int, label: str, limit_s: float):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        dt = time.monotonic() - t0
        print(f"ACCEPTANCE {number:2d} {label}: FAIL ({dt:.1f}s)")
        raise
    dt = time.monotonic() - t0
    verdict = "PASS" if dt < limit_s else f"PASS but over budget {limit_s}s"
    print(f"ACCEPTANCE {number:2d} {label}: {verdict} ({dt:.1f}s)")
    assert dt < limit_s, f"criterion {number} exceeded its {limit_s}s budget ({dt:.1f}s)"


@lru_cache(maxsize=None)
def cached_assembly(family, p, n, d=None):
    return assemble(InstanceSpec(family, p, n, d=d))


def standard_group(d, p):
    return symmetric_group(d + 1) if d < p - 1 else pgl2(d)


def test_criterion_1_certification_battery():
    with criterion(1, "certification-battery", 10.0 * len(TWISTED + STANDARD)):
        for p, n in TWISTED:
            t0 = time.monotonic()
            cert = certify_instance(InstanceSpec("twisted", p, n))
            dt = time.monotonic() - t0
            assert cert.verdict == "certified", (p, n, cert.failed_stage)
            assert cert.condition_a.dim == 1
            assert cert.condition_b.bullet_noncommuting or cert.condition_b.bullet_no_scalar
            assert dt < 10.0, f"twisted ({p},{n}) took {dt:.1f}s"
        for d, p in STANDARD:
            t0 = time.monotonic()
            cert = certify_instance(InstanceSpec("standard", p, 1, d=d))
            dt = time.monotonic() - t0
            assert cert.verdict == "certified", (d, p, cert.failed_stage)
            assert cert.condition_a.dim == 1
            assert cert.condition_b.bullet_noncommuting
            assert dt < 10.0, f"standard ({d},{p}) took {dt:.1f}s"


def test_criterion_2_multiplicity_identity():
    with criterion(2, "multiplicity-identity", 5.0):
        for d, p in STANDARD:
            G = standard_group(d, p)
            V = standard_perm_rep(G, p).standard
            M = end_rep(V)
            mult = hom_space(V, M).dimension
            orbits = orbit_count_triples(G)
            assert orbits == 5, (d, p)
            assert mult == orbits - 4 == 1, (d, p)


def test_criterion_3_noncommutativity_witnesses():
    with criterion(3, "noncommutativity-witnesses", 1.0):
        for d, p in STANDARD:
            sg = x_matrices(d, p)
            pair = sg.noncommuting_pair()
            assert pair is not None, (d, p)
            i, j = pair
            a, b = sg.xs[i], sg.xs[j]
            assert ((a @ b) % p != (b @ a) % p).any()
        for p in (2, 3, 5):
            V = galois_module_rep(p, 1)
            G = V.group
            zeta, sigma = G.generators
            s = V.mats[sigma]
            z = V.mats[G.mul(zeta, sigma)]
            assert ((s @ z) % p != (z @ s) % p).any(), p


def test_criterion_4_tangent_identity():
    with criterion(4, "tangent-identity", 30.0):
        for family, params in (("twisted", TWISTED), ("standard", STANDARD)):
            for a, b in params:
                if family == "twisted":
                    asm = cached_assembly("twisted", a, b)
                else:
                    asm = cached_assembly("standard", b, 1, a)
                h1 = h1_dim(end_rep(asm.rho_bar))
                hom_dim = hom_invariants_dim(asm.K, asm.M)
                assert h1 == hom_dim == 1, (family, a, b)
        asm = cached_assembly("twisted", 2, 1)
        A = dual_numbers(2)
        lifts = enumerate_lifts(asm.rho_bar, A)
        classes = deformation_classes(asm.rho_bar, A, lifts)
        assert classes.class_count == 2  # = p^(dim H^1)


def test_criterion_5_universality_desk_scale():
    with criterion(5, "universality-five-rings", 300.0):
        asm = cached_assembly("twisted", 2, 1)
        cb = find_alpha(asm)
        rho_r = build_rho_R(asm, cb.alpha)
        expected = {"dual": 2, "Z4": 2, "F2t3": 2, "Z8": 2, "Z4u": 4}
        rings = standard_rings(2)
        for name in ("dual", "Z4", "F2t3", "Z8", "Z4u"):
            report = functor_compare(asm, rho_r, rings[name])
            assert report.bijective, name
            assert report.class_count == expected[name] == report.hom_count, name


def test_criterion_6_order_identities():
    with criterion(6, "order-identities-n2", 10.0):
        asm = cached_assembly("twisted", 2, 2)
        assert asm.gamma.order == 96
        cb = find_alpha(asm)
        rho_r = build_rho_R(asm, cb.alpha)
        assert rho_r.faithful
        assert rho_r.order_checks_passed
        K = asm.K
        zero = np.zeros((2, 2), dtype=np.int64)
        for code in range(1, K.size):
            kv = K.decode(code)
            e = asm.gamma.encode(kv, 0)
            _, t1 = rho_r.at(e)
            order4 = any(c % 2 for c in kv)
            sq = (2 * t1) % 4
            if order4:
                assert (sq != zero).any(), kv  # square is not the identity
            assert (4 * t1 % 4 == zero).all()  # fourth power always trivial


def test_criterion_7_projectivity_suite():
    with criterion(7, "projectivity-suite", 30.0):
        reps = []
        for p, n in TWISTED:
            reps.append(galois_module_rep(p, 1))
        for d, p in STANDARD:
            reps.append(standard_perm_rep(standard_group(d, p), p).standard)
        for V in reps:
            ok, witness = is_projective_higman(V)
            assert ok and witness is not None, V.group.name
        # the trivial module over the order-6 twisted group (= S_3) fails
        G = galois_module_rep(2, 1).group
        triv = Representation(G, np.ones((G.order, 1, 1), dtype=int), 2, 1, validate=False)
        ok, witness = is_projective_higman(triv)
        assert not ok and witness is None
        # projective coefficient modules over image groups of order <= 48
        # have vanishing H^1 and H^2
        seen = set()
        for V in reps:
            if V.group.order > 48 or (V.group.table_hash(), V.p) in seen:
                continue
            seen.add((V.group.table_hash(), V.p))
            M = end_rep(V)
            ok, _ = is_projective_higman(M)
            assert ok
            assert h1_dim(M) == 0, (V.group.name, V.p)
            assert h2_dim(M) == 0, (V.group.name, V.p)


def test_criterion_8_referee_computations():
    with criterion(8, "wedge-and-H2(A4)", 60.0):
        a4 = FiniteGroup.from_permutations([(1, 0, 3, 2), (1, 2, 0, 3)], name="A4")
        assert a4.order == 12
        assert h2_dim(trivial_module(a4, 2)) != 0
        report = wedge_cocycle(3)
        assert report.is_cocycle
        assert report.is_coboundary is False
        assert report.invariant


def test_criterion_9_negative_controls():
    with criterion(9, "negative-controls", 10.0):
        for p, n in [(2, 1), (2, 2), (3, 1)]:
            rep = negative_control(p, n)
            assert rep.verdict == "refuted", (p, n)
            assert rep.exp_lift.verified, (p, n)


def test_criterion_10_consistency():
    with criterion(10, "twisted-vs-standard-consistency", 5.0):
        cert_t = certify_instance(InstanceSpec("twisted", 2, 1))
        cert_s = certify_instance(InstanceSpec("standard", 2, 1, d=2))
        assert cert_t.verdict == cert_s.verdict == "certified"
        asm_t = cached_assembly("twisted", 2, 1)
        asm_s = cached_assembly("standard", 2, 1, 2)
        s4 = symmetric_group(4)
        assert find_isomorphism(asm_t.gamma, s4) is not None
        assert find_isomorphism(asm_s.gamma, s4) is not None
        assert find_isomorphism(asm_t.gamma, asm_s.gamma) is not None
