import copy
import functools
import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defring.certify import (
    AlphaMap,
    Certificate,
    CertifyError,
    InstanceSpec,
    assemble,
    build_rho_R,
    certify_assembly,
    certify_instance,
    check_condition_a,
    exp_lift_on_kernel,
    find_alpha,
    negative_control,
    parse_instance_name,
    verify_certificate,
)
from defring.cli import ACCEPTANCE_STANDARD, ACCEPTANCE_TWISTED
from defring.cohomology import h1_dim
from defring.groups import FiniteGroup, SemidirectGroup, symmetric_group
from defring.modrep import end_rep, hom_space

from reference import (
    decode,
    find_isomorphism,
    gamma_decode,
    permutation_pieces,
    rho_R_closed_form,
    x_matrices,
)


def as_json(cert):
    """The certificate as a reader of its JSON file gets it."""
    return json.loads(json.dumps(cert.to_json_dict()))


def test_parse_instance_names():
    assert parse_instance_name("twisted-p2n1") == InstanceSpec("twisted", 2, 1)
    assert parse_instance_name("standard-d2p5") == InstanceSpec("standard", 5, 1, d=2)
    spec = parse_instance_name("twisted-p3n1-commutative")
    assert spec.control == "commutative"
    with pytest.raises(CertifyError):
        parse_instance_name("bogus")


def test_assemble_twisted_p2n1_is_s4():
    asm = assemble(InstanceSpec("twisted", 2, 1))
    assert asm.gamma.order == 24
    assert find_isomorphism(asm.gamma, symmetric_group(4)) is not None


def test_condition_a_twisted():
    for p, n in [(2, 1), (2, 2), (3, 1)]:
        asm = assemble(InstanceSpec("twisted", p, n))
        res = check_condition_a(asm)
        assert res.dim == 1 and res.passed


def test_condition_a_standard():
    for d, p in [(2, 5), (3, 3)]:
        asm = assemble(InstanceSpec("standard", p, d=d))
        assert asm.K is asm.rho_bar_g  # K = V for the standard family
        res = check_condition_a(asm)
        assert res.dim == 1 and res.passed


def test_condition_a_fails_on_commutative_control():
    asm = assemble(InstanceSpec("twisted", 3, 1, control="commutative"))
    res = check_condition_a(asm)
    assert res.dim != 1 and not res.passed


def test_find_alpha_twisted_p2n1():
    asm = assemble(InstanceSpec("twisted", 2, 1))
    cb = find_alpha(asm)
    assert cb.passed and cb.injective and cb.residue_nonzero
    assert cb.bullet_noncommuting and cb.witness is not None
    # for p = 2, n = 1 the scalar clause is also evaluated, and also passes
    assert cb.bullet_no_scalar
    assert all(entry["violating_g"] is not None for entry in cb.clause_p2n1)
    # alpha(g)^2 is the identity for g != 0 (norm-one property)
    for code in range(1, asm.K.size):
        ak = cb.alpha.of_vec(decode(asm.K, code)) % 2
        assert ((ak @ ak) % 2 == np.eye(2, dtype=int)).all()


def test_find_alpha_searches_basis_pairs_only(monkeypatch):
    # the commutator is bilinear: when the basis pairs all commute, no pair
    # of K fails to, so a commutative control costs rank(K)^2 checks
    import defring.certify as certify_module

    calls = []
    noncommuting = certify_module._noncommuting

    def counted(alpha, u, v):
        calls.append((u, v))
        return noncommuting(alpha, u, v)

    monkeypatch.setattr(certify_module, "_noncommuting", counted)
    cb = find_alpha(assemble(parse_instance_name("twisted-p2n2-commutative")))
    assert cb.witness is None and cb.alpha is not None
    assert len(calls) == 4


def test_find_alpha_hom_module_structure():
    # Hom(K, End(V_W)/p^n) is free of rank 1 over Z/p^n
    for p, n in [(2, 2), (3, 2)]:
        asm = assemble(InstanceSpec("twisted", p, n))
        cb = find_alpha(asm)
        assert cb.hom_invariant_factors == [p**n]
        assert cb.passed


def test_find_alpha_solves_the_chosen_kernel_once(monkeypatch):
    # the candidate loop's injectivity test is kept on the map, so
    # condition (b) does not solve the chosen alpha's kernel again
    import defring.certify

    solved = []
    solve = defring.certify.solve_module

    def counting(entries, rhs, p, N):
        solved.append(np.array(entries, dtype=np.int64))
        return solve(entries, rhs, p, N)

    monkeypatch.setattr(defring.certify, "solve_module", counting)
    cert = certify_instance(parse_instance_name("standard-d4p2"))
    assert cert.verdict == "certified"
    alpha = cert.condition_b.alpha.matrix
    assert sum(np.array_equal(entries, alpha) for entries in solved) == 1


BATTERY = [f"twisted-p{p}n{n}" for p, n in ACCEPTANCE_TWISTED] + [
    f"standard-d{d}p{p}" for d, p in ACCEPTANCE_STANDARD
]
CONTROLS = ["twisted-p2n1-scalar", "twisted-p2n2-commutative", "twisted-p3n1-commutative", "standard-d3p5-scalar"]


@pytest.mark.parametrize("name", BATTERY + CONTROLS)
def test_condition_a_module_equals_a_fresh_solve(name):
    # at n = 1 condition (a) reads condition (b)'s Hom module; it must be
    # Hom_G(K/pK, End V) solved on its own
    asm = assemble(parse_instance_name(name))
    fresh = hom_space(asm.K.reduce_mod(1), asm.M)
    assert check_condition_a(asm).dim == asm.hom_a.dimension == fresh.dimension
    assert len(asm.hom_a.basis) == len(fresh.basis)
    assert all(np.array_equal(a, b) for a, b in zip(asm.hom_a.basis, fresh.basis))
    assert (asm.hom_a is asm.hom_b) == (asm.n == 1)


def _record_solves(monkeypatch, modules):
    """Patch solve_module where `modules` look it up; returns the list of
    (entries, rhs, p, N) keys of every call."""
    import defring.exactalg

    keys = []
    solve = defring.exactalg.solve_module

    def recording(entries, rhs, p, N):
        a, b = np.asarray(entries, dtype=np.int64), np.asarray(rhs, dtype=np.int64)
        keys.append((a.shape, a.tobytes(), b.tobytes(), p, N))
        return solve(entries, rhs, p, N)

    for module in modules:
        monkeypatch.setattr(module, "solve_module", recording)
    return keys


@pytest.mark.parametrize("name", BATTERY + ["twisted-p3n1-commutative"])
def test_certify_and_verify_solve_no_system_twice(monkeypatch, name):
    import defring.certify
    import defring.cohomology
    import defring.modrep

    keys = _record_solves(monkeypatch, [defring.certify, defring.cohomology, defring.modrep])
    cert = certify_instance(parse_instance_name(name))
    certify_keys = list(keys)
    keys.clear()
    ok, problems = verify_certificate(as_json(cert))
    assert ok, problems
    for solved in (certify_keys, keys):
        assert solved and len(set(solved)) == len(solved)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1)])
def test_negative_control_solves_each_hom_system_once(monkeypatch, p, n):
    import defring.modrep

    keys = _record_solves(monkeypatch, [defring.modrep])  # hom_space's solves
    assert negative_control(p, n).verdict == "refuted"
    assert len(keys) == len(set(keys)) == (1 if n == 1 else 2)


@pytest.mark.parametrize("p,n,systems", [(2, 1, 1), (2, 2, 1), (3, 1, 4)])
def test_negative_control_solves_each_alpha_system_once(monkeypatch, p, n, systems):
    # find_alpha, in the certification, and the control's own search for an
    # injective alpha try some of the same maps; each is solved once
    import defring.certify

    keys = _record_solves(monkeypatch, [defring.certify])  # AlphaMap.injective's solves
    assert negative_control(p, n).verdict == "refuted"
    assert len(keys) == len(set(keys)) == systems


def test_alpha_scale_invariance():
    # multiplying alpha by any unit changes no bullet outcome
    from defring.certify import AlphaMap

    for p, n in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        asm = assemble(InstanceSpec("twisted", p, n))
        cb = find_alpha(asm)
        mn = p**n
        for u in range(1, mn):
            if u % p == 0:
                continue
            scaled = AlphaMap(p, n, cb.alpha.d, cb.alpha.rank, (u * cb.alpha.matrix) % mn)
            assert scaled.injective == cb.injective
            au, av = scaled.of_vec(cb.witness[0]) % p, scaled.of_vec(cb.witness[1]) % p
            assert ((au @ av) % p != (av @ au) % p).any()


def test_standard_alpha_matches_x_matrices():
    # on standard instances the first Howell generator is a scalar multiple
    # of the map sending the j-th difference vector to x_j
    for d, p in [(2, 5), (2, 2)]:
        asm = assemble(InstanceSpec("standard", p, d=d))
        cb = find_alpha(asm)
        assert cb.passed and cb.bullet_noncommuting
        pieces = permutation_pieces(asm.G, p)
        xs = x_matrices(d, p).xs
        x_end = [pieces.to_standard_coords(x) for x in xs]
        expected = np.stack([x.reshape(-1) for x in x_end], axis=1) % p
        got = cb.alpha.matrix % p
        match = None
        for u in range(1, p):
            if ((u * expected) % p == got).all():
                match = u
                break
        assert match is not None


def test_build_rho_R_faithful_s4():
    asm = assemble(InstanceSpec("twisted", 2, 1))
    cb = find_alpha(asm)
    rho = build_rho_R(asm, cb.alpha)
    assert rho.faithful
    assert rho.order_checks_passed
    # t -> 0 specialization recovers rho_W composed with the quotient
    for e in range(asm.gamma.order):
        _, g = gamma_decode(asm.gamma, e)
        assert (rho_R_closed_form(asm, rho.alpha, e)[..., 0] == asm.rho_w.mats[g]).all()


@pytest.mark.parametrize("name", ["twisted-p2n1", "standard-d2p2", "twisted-p3n1"])
def test_rho_R_generator_values_extend_to_the_closed_form(name):
    # the values checked on Gamma's relators, extended along the spanning
    # tree as the oracle extends them, are (1 + t alpha(k)) rho_W(g) on all of Gamma
    asm = assemble(parse_instance_name(name))
    rho = build_rho_R(asm, find_alpha(asm).alpha)
    ring, d = asm.ring, asm.rho_w.degree
    table = asm.gamma.extend(rho.gen_values, ring.matmul, ring.identity(d))
    closed = np.stack([rho_R_closed_form(asm, rho.alpha, e) for e in range(asm.gamma.order)])
    assert table.shape == closed.shape and (table == closed).all()


@pytest.mark.parametrize("name", BATTERY)
def test_certificate_rho_R_generators_are_the_closed_form(name):
    asm = assemble(parse_instance_name(name))
    cert = as_json(certify_assembly(asm))
    H = np.array(cert["condition_b"]["alpha"]["matrix"], dtype=np.int64)
    alpha = AlphaMap(asm.p, asm.n, asm.rho_w.degree, asm.K.degree, H)
    closed = [rho_R_closed_form(asm, alpha, e).tolist() for e in asm.gamma.generators]
    assert cert["rho_R"]["generators"] == closed


def test_an_unfaithful_rho_w_stops_certification_at_rho_R_faithful(monkeypatch):
    # no family reaches this stage, as rho_W is faithful by construction:
    # patch in a rho_W whose table sends a non-identity element of G to 1
    from defring import certify

    asm = assemble(InstanceSpec("twisted", 2, 1))
    rho_w = copy.copy(asm.rho_w)
    rho_w.mats = asm.rho_w.mats.copy()
    rho_w.mats[1] = np.eye(rho_w.degree, dtype=np.int64)
    monkeypatch.setattr(certify, "h1_dim", mock.Mock(side_effect=AssertionError))
    cert = certify_assembly(replace(asm, rho_w=rho_w))
    assert cert.condition_a.passed and cert.condition_b.passed
    assert not cert.rho_r.faithful and cert.rho_r.order_checks_passed
    assert (cert.verdict, cert.failed_stage, cert.tangent_dim) == ("refuted", "rho_R_faithful", None)
    assert asm.rho_w.is_faithful()


def test_rho_R_kernel_orders_p2n2():
    asm = assemble(InstanceSpec("twisted", 2, 2))
    assert asm.gamma.order == 96
    cb = find_alpha(asm)
    rho = build_rho_R(asm, cb.alpha)
    assert rho.faithful and rho.order_checks_passed
    # explicit: order-4 kernel elements square to something != identity
    mn = 4
    K = asm.K
    for code in range(1, K.size):
        kv = decode(K, code)
        ak = cb.alpha.of_vec(kv)
        add_order = 4 if any(c % 2 for c in kv) else 2
        sq = (2 * ak) % mn
        if add_order == 4:
            assert (sq != 0).any()
        else:
            assert (sq == 0).all()


def test_certify_battery_twisted():
    for p, n in [(2, 1), (2, 2), (3, 1)]:
        cert = certify_instance(InstanceSpec("twisted", p, n))
        assert cert.verdict == "certified", (p, n, cert.failed_stage)
        assert cert.condition_a.dim == 1
        assert cert.tangent_dim == 1


def test_certify_standard_d2p5():
    cert = certify_instance(InstanceSpec("standard", 5, d=2))
    assert cert.verdict == "certified"
    assert cert.condition_b.bullet_noncommuting


def test_certificate_json_roundtrip_and_verify():
    cert = certify_instance(InstanceSpec("twisted", 2, 1))
    data = as_json(cert)
    assert data["verdict"] == "certified"
    assert data["ring"] == "Z2[[t]]/(2^1*t, t^2)"
    ok, problems = verify_certificate(data)
    assert ok, problems


def test_verify_rejects_tampering():
    cert = certify_instance(InstanceSpec("twisted", 2, 1))
    data = as_json(cert)
    data["condition_a"]["dim"] = 2
    ok, problems = verify_certificate(data)
    assert not ok and any("condition_a" in p for p in problems)


def test_negative_control_p3():
    report = negative_control(3, 1)
    assert report.verdict == "refuted"
    assert report.failed_stage == "condition_a"
    assert report.exp_lift.variant == "odd-exponential"
    assert report.exp_lift.verified


def test_negative_control_p2_n1():
    report = negative_control(2, 1)
    assert report.verdict == "refuted"
    assert report.failed_stage == "condition_b"
    assert report.exp_lift.variant == "even-n1-clause"
    assert report.exp_lift.verified


def test_negative_control_p2_n2():
    report = negative_control(2, 2)
    assert report.verdict == "refuted"
    assert report.exp_lift.variant == "even-cyclic"
    assert report.exp_lift.verified
    assert report.exp_lift.orders_preserved


def test_exp_lift_orders_not_preserved_by_a_non_injective_alpha():
    # twice an injective alpha on the commutative control kills 2K: the
    # lift of an element k of additive order 4 has rho'(k)^2 = 1
    from defring.certify import AlphaMap, _injective_commutative_alpha

    asm = assemble(parse_instance_name("twisted-p2n2-commutative"))
    alpha = _injective_commutative_alpha(asm)
    doubled = AlphaMap(2, 2, alpha.d, alpha.rank, 2 * alpha.matrix % 4)
    assert not doubled.injective
    report = exp_lift_on_kernel(asm.K, doubled, asm.N)
    assert report.variant == "even-cyclic" and report.verified
    assert report.orders_preserved is False
    assert exp_lift_on_kernel(asm.K, alpha, asm.N).orders_preserved


def test_exp_lift_refuses_noncommutative_image():
    asm = assemble(InstanceSpec("twisted", 2, 1))
    cb = find_alpha(asm)
    with pytest.raises(CertifyError):
        exp_lift_on_kernel(asm.K, cb.alpha, asm.N, a_hat=0)


def test_consistency_twisted_vs_standard_p2():
    # both order-24 instances produce isomorphic groups and certified verdicts
    cert_t = certify_instance(InstanceSpec("twisted", 2, 1))
    cert_s = certify_instance(InstanceSpec("standard", 2, d=2))
    assert cert_t.verdict == cert_s.verdict == "certified"
    asm_t = assemble(InstanceSpec("twisted", 2, 1))
    asm_s = assemble(InstanceSpec("standard", 2, d=2))
    assert find_isomorphism(asm_t.gamma, asm_s.gamma) is not None


def test_refuted_certificates_verify_and_roundtrip():
    for name in ("twisted-p3n1-commutative", "twisted-p2n1-scalar"):
        cert = certify_instance(parse_instance_name(name))
        assert cert.verdict == "refuted"
        data = as_json(cert)
        ok, problems = verify_certificate(data)
        assert ok, problems


BATTERY = [f"twisted-p{p}n{n}" for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]] + [
    f"standard-d{d}p{p}" for d, p in [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]
]


def test_fresh_battery_certificates_verify():
    for name in BATTERY:
        data = as_json(certify_instance(parse_instance_name(name)))
        ok, problems = verify_certificate(data)
        assert ok, (name, problems)


def _refuse(*args):
    raise AssertionError("built Gamma's table or spanning tree, or an inverse table")


def test_certify_and_verify_build_no_tree_inverses_or_stack_of_gamma(monkeypatch):
    # every check reads generators and relators, and the certificate's hash
    # of Gamma's table is streamed from K and G: no table of Gamma, no
    # spanning tree of Gamma, which any matrix stack over Gamma
    # (Representation.mats) would need, and no inverse table of any group
    monkeypatch.setattr(SemidirectGroup, "table", property(_refuse))
    monkeypatch.setattr(SemidirectGroup, "_bfs", _refuse)
    # FiniteGroup has no inverse table; the patch keeps one from coming back
    monkeypatch.setattr(FiniteGroup, "inverse", property(_refuse), raising=False)
    for name in BATTERY:
        data = as_json(certify_instance(parse_instance_name(name)))
        assert data["verdict"] == "certified"
        assert verify_certificate(data) == (True, []), name
    for p, n in [(2, 1), (2, 2), (3, 1)]:
        report = negative_control(p, n)
        assert report.verdict == "refuted" and report.exp_lift.verified


@pytest.mark.parametrize(
    "name", [name for name in BATTERY if (spec := parse_instance_name(name)).p % 2 or spec.n >= 2]
)
def test_certify_and_verify_evaluate_alpha_on_no_listing_of_K(name, monkeypatch):
    # faithfulness and the order checks are read off alpha.injective, so
    # alpha is evaluated on at most a basis of K at a time; only the
    # p = 2, n = 1 no-scalar clause lists K
    asm = assemble(parse_instance_name(name))
    of_vecs = AlphaMap.of_vecs

    def bounded(self, kvecs):
        assert len(kvecs) <= asm.K.degree, f"alpha on {len(kvecs)} vectors of K"
        return of_vecs(self, kvecs)

    monkeypatch.setattr(AlphaMap, "of_vecs", bounded)
    data = as_json(certify_assembly(asm))
    assert data["verdict"] == "certified"
    assert verify_certificate(data) == (True, [])


def test_certify_memory_peak_stays_below_a_gamma_table():
    # Gamma of twisted-p3n2 has order 1,296, so a resident table of it would
    # take 13.4 MB; certifying it and writing the certificate's JSON fields
    # (with the table's hash) must peak well below that
    tracemalloc.start()
    try:
        certify_instance(parse_instance_name("twisted-p3n2")).to_json_dict()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, f"peak {peak / 1e6:.1f} MB"


CONTROLS = ["twisted-p3n1-commutative", "twisted-p2n1-scalar", "twisted-p2n2-commutative"]


@functools.cache
def _battery_certificate(name):
    return json.dumps(certify_instance(parse_instance_name(name)).to_json_dict())


def _field_paths(value, path=()):
    """Key/index paths to every field below the root, at any depth."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(-3, 40),
    st.text(max_size=2),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.sampled_from(["a", "x"]), st.integers(0, 2), max_size=1),
)


def _alpha_of(cert, vec):
    """alpha(vec) mod p from the certificate's own alpha matrix, by plain
    numpy: column j of the matrix is the image of the j-th basis vector."""
    alpha = cert["condition_b"]["alpha"]
    matrix = np.array(alpha["matrix"], dtype=np.int64)
    d = math.isqrt(len(matrix))
    return (matrix @ np.array(vec, dtype=np.int64) % alpha["modulus"]).reshape(d, d) % cert["p"]


def _is_evidence_true(cert, path):
    """For a mutated witness vector or violating_g: does the evidence now
    hold?  A witness holds when its two vectors' alpha-images fail to commute
    mod p; a violating_g holds when alpha(g)^2 != a alpha(g) mod p."""
    p = cert["p"]
    cb = cert["condition_b"]
    if path[:2] == ("condition_b", "witness"):
        a, b = (_alpha_of(cert, u) for u in cb["witness"])
        return bool(((a @ b - b @ a) % p).any())
    entry = cb["clause_p2n1"][path[2]]
    g = _alpha_of(cert, entry["violating_g"])
    return bool(((g @ g - entry["a"] * g) % p).any())


def _is_vector_of_K(cert, value):
    """K.rank integers in [0, p^n), K.rank read off alpha's columns."""
    alpha = cert["condition_b"]["alpha"]
    return (
        alpha is not None
        and isinstance(value, list)
        and len(value) == len(alpha["matrix"][0])
        and all(type(c) is int and 0 <= c < cert["p"] ** cert["n"] for c in value)
    )


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_single_field_mutation_or_deletion_is_rejected(data):
    # One field at any depth of a battery certificate is deleted or replaced
    # by a different JSON value.  An integer in [0, p^n) inside the witness
    # or a violating_g vector is left out: that vector may again be
    # evidence, which a verifier that does not search must accept.  So is N
    # in a refuted certificate: nothing in it depends on N, so at another
    # N > n it is that precision's honest certificate.  A whole witness
    # vector or violating_g replaced by a vector of K is kept: a certified
    # certificate must then be accepted exactly when the new evidence holds,
    # recomputed from its alpha matrix.  Certificates carry no runtime_ms,
    # the one volatile field.
    name = data.draw(st.sampled_from(BATTERY + CONTROLS))
    cert = json.loads(_battery_certificate(name))
    assert "runtime_ms" not in cert
    paths = list(_field_paths(cert))
    if cert["verdict"] == "refuted":
        paths.remove(("N",))
    path = data.draw(st.sampled_from(paths))
    parent = functools.reduce(lambda node, key: node[key], path[:-1], cert)
    expect_ok = False
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        value = data.draw(JSON_VALUES)
        assume(json.dumps(value) != json.dumps(parent[path[-1]]))
        evidence = path[:2] == ("condition_b", "witness") or "violating_g" in path
        assume(not (evidence and type(value) is int and 0 <= value < cert["p"] ** cert["n"]))
        parent[path[-1]] = value
        whole_vector = path[-1] == "violating_g" or len(path) == 3 and path[1] == "witness"
        if evidence and whole_vector and _is_vector_of_K(cert, value):
            expect_ok = cert["verdict"] == "certified" and _is_evidence_true(cert, path)
    ok, problems = verify_certificate(cert)
    assert ok == expect_ok, (name, path, problems)


def test_a_witness_vector_replaced_by_other_evidence_is_accepted():
    # twisted-p2n2's witness is ([1, 0], [0, 1]); ([1, 1], [0, 1]) is again
    # a pair whose alpha-images fail to commute mod 2, and ([2, 2], [0, 1])
    # is not, as 2 = 0 mod 2
    cert = json.loads(_battery_certificate("twisted-p2n2"))
    assert cert["condition_b"]["witness"] == [[1, 0], [0, 1]]
    cert["condition_b"]["witness"][0] = [1, 1]
    assert verify_certificate(cert) == (True, [])
    cert["condition_b"]["witness"][0] = [2, 2]
    ok, problems = verify_certificate(cert)
    assert not ok and problems


def _drop_alpha(data):
    data["condition_b"]["alpha"] = None


@pytest.mark.parametrize(
    "forge",
    [
        lambda data: data.update(rho_R=None),
        lambda data: data.update(tangent_dim=None),
        lambda data: data.update(group=None),
        _drop_alpha,
        lambda data: data.update(verdict="refuted"),
    ],
    ids=["no-rho_R", "no-tangent_dim", "no-group", "no-alpha", "relabelled-refuted"],
)
def test_verify_rejects_a_certificate_without_its_evidence(forge):
    data = as_json(certify_instance(InstanceSpec("twisted", 2, 1)))
    forge(data)
    ok, problems = verify_certificate(data)
    assert not ok and problems


@pytest.mark.parametrize("name", CONTROLS)
def test_verify_rejects_a_control_relabelled_certified(name):
    data = as_json(certify_instance(parse_instance_name(name)))
    assert data["verdict"] == "refuted" and verify_certificate(data) == (True, [])
    data.update(verdict="certified", failed_stage=None)
    ok, problems = verify_certificate(data)
    assert not ok and problems


def _complete_forgery(name):
    """A control relabelled certified with every piece of evidence present
    and consistent with the instance: honest alpha, rho_R, tangent and group."""
    asm = assemble(parse_instance_name(name))
    cert = certify_assembly(asm)
    rho_r = build_rho_R(asm, cert.condition_b.alpha)
    tangent = h1_dim(end_rep(asm.rho_bar))
    forged = Certificate(
        asm.spec, cert.condition_a, cert.condition_b, rho_r, tangent, "certified", None
    )
    return as_json(forged)


@pytest.mark.parametrize(
    "name,stage",
    [("twisted-p2n1-scalar", "condition_b"), ("twisted-p2n2-commutative", "condition_a")],
)
def test_verify_recomputes_the_failed_stage_of_a_complete_forgery(name, stage):
    # only the recomputed verdict shows that the control is not certified
    ok, problems = verify_certificate(_complete_forgery(name))
    assert not ok and problems == [f"verdict is certified, but stage {stage} fails"]


def test_verify_rejects_fractional_evidence_in_a_complete_forgery():
    # alpha(g0) = X is a nonzero idempotent on the scalar control, so the
    # a = 1 entry has no violating vector; g0 / 2 would give alpha = X / 2,
    # whose square X / 4 differs from X / 2 in floating point
    data = _complete_forgery("twisted-p2n1-scalar")
    clause = data["condition_b"]["clause_p2n1"]
    assert clause[1]["violating_g"] is None
    clause[1]["violating_g"] = [c / 2 for c in clause[0]["violating_g"]]
    ok, problems = verify_certificate(data)
    assert not ok and any("clause_p2n1" in p for p in problems)

    data = _complete_forgery("twisted-p2n1-scalar")
    g0 = data["condition_b"]["clause_p2n1"][0]["violating_g"]
    data["condition_b"]["witness"] = [[c / 2 for c in g0], g0]
    ok, problems = verify_certificate(data)
    assert not ok and any("witness" in p for p in problems)


@pytest.mark.parametrize(
    "key,value",
    [
        ("witness", [[1], [0, 1]]),
        ("witness", [[0.5, 0], [0, 1]]),
        ("witness", [[True, 0], [0, 1]]),
        ("witness", [[2, 0], [0, 1]]),
        ("alpha", {"modulus": 2, "matrix": [[0.5, 0]]}),
        ("alpha", [1]),
        ("clause_p2n1", [{"a": 0}, {"a": 1, "violating_g": None}]),
        ("clause_p2n1", [1, 2]),
    ],
)
def test_verify_reports_malformed_condition_b_evidence(key, value):
    data = as_json(certify_instance(InstanceSpec("twisted", 2, 1)))
    assert len(data["condition_b"]["witness"][0]) == 2  # K has rank 2
    data["condition_b"][key] = value
    ok, problems = verify_certificate(data)
    assert not ok and problems


@pytest.mark.parametrize("entry", [0.5, 1.0, 2, -1, True])
def test_verify_requires_alpha_entries_reduced_integers(entry):
    data = as_json(certify_instance(InstanceSpec("twisted", 2, 1)))
    data["condition_b"]["alpha"]["matrix"][0][0] = entry
    ok, problems = verify_certificate(data)
    assert not ok and any("alpha is not" in p for p in problems)


@pytest.mark.parametrize("cert", [[1], {"instance": None, "N": 3}, {"instance": "twisted-p2n1"}])
def test_verify_reports_a_malformed_certificate(cert):
    ok, problems = verify_certificate(cert)
    assert not ok and problems


@pytest.mark.parametrize("value", [[1], "x"])
def test_verify_reports_a_condition_b_that_is_not_an_object(value):
    data = as_json(certify_instance(InstanceSpec("twisted", 2, 1)))
    data["condition_b"] = value
    ok, problems = verify_certificate(data)
    assert not ok and problems == ["certified verdict without alpha"]


@pytest.mark.parametrize("where", [None, "condition_b", "rho_R"])
def test_verify_reports_an_extra_key_and_does_not_raise(where):
    data = as_json(certify_instance(InstanceSpec("twisted", 2, 1)))
    (data if where is None else data[where])["extra"] = 1
    ok, problems = verify_certificate(data)
    assert not ok
    assert problems == [f"{where or 'extra'} differs from the certificate rebuilt from its evidence"]
