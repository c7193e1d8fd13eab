import functools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defring.certify import (
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
from defring.cohomology import h1_dim
from defring.groups import find_isomorphism, symmetric_group
from defring.modrep import end_rep


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
        ak = cb.alpha.of_vec(asm.K.decode(code)) % 2
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
            assert scaled.kernel_trivial() == cb.injective
            au, av = scaled.of_vec(cb.witness[0]) % p, scaled.of_vec(cb.witness[1]) % p
            assert ((au @ av) % p != (av @ au) % p).any()


def test_standard_alpha_matches_x_matrices():
    # on standard instances the first Howell generator is a scalar multiple
    # of the map sending the j-th difference vector to x_j
    from defring.modrep import x_matrices

    for d, p in [(2, 5), (2, 2)]:
        asm = assemble(InstanceSpec("standard", p, d=d))
        cb = find_alpha(asm)
        assert cb.passed and cb.bullet_noncommuting
        pieces_left, pieces_basis = None, None
        from defring.modrep import standard_perm_rep

        pieces = standard_perm_rep(asm.G, p)
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
        _, g = asm.gamma.decode(e)
        assert (rho.at(e)[0] == asm.rho_w.mats[g]).all()


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
        kv = K.decode(code)
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
    blob = cert.to_json()
    data = json.loads(blob)
    assert data["verdict"] == "certified"
    assert data["ring"] == "Z2[[t]]/(2^1*t, t^2)"
    ok, problems = verify_certificate(data)
    assert ok, problems


def test_verify_rejects_tampering():
    cert = certify_instance(InstanceSpec("twisted", 2, 1))
    data = json.loads(cert.to_json())
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
        data = json.loads(cert.to_json())
        ok, problems = verify_certificate(data)
        assert ok, problems


BATTERY = [f"twisted-p{p}n{n}" for p, n in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]] + [
    f"standard-d{d}p{p}" for d, p in [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]
]


def test_fresh_battery_certificates_verify():
    for name in BATTERY:
        data = json.loads(certify_instance(parse_instance_name(name)).to_json())
        ok, problems = verify_certificate(data)
        assert ok, (name, problems)


CONTROLS = ["twisted-p3n1-commutative", "twisted-p2n1-scalar", "twisted-p2n2-commutative"]


@functools.cache
def _battery_certificate(name):
    return certify_instance(parse_instance_name(name)).to_json()


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
    data = json.loads(certify_instance(InstanceSpec("twisted", 2, 1)).to_json())
    forge(data)
    ok, problems = verify_certificate(data)
    assert not ok and problems


@pytest.mark.parametrize("name", CONTROLS)
def test_verify_rejects_a_control_relabelled_certified(name):
    data = json.loads(certify_instance(parse_instance_name(name)).to_json())
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
    return json.loads(forged.to_json())


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
    data = json.loads(certify_instance(InstanceSpec("twisted", 2, 1)).to_json())
    assert len(data["condition_b"]["witness"][0]) == 2  # K has rank 2
    data["condition_b"][key] = value
    ok, problems = verify_certificate(data)
    assert not ok and problems


@pytest.mark.parametrize("entry", [0.5, 1.0, 2, -1, True])
def test_verify_requires_alpha_entries_reduced_integers(entry):
    data = json.loads(certify_instance(InstanceSpec("twisted", 2, 1)).to_json())
    data["condition_b"]["alpha"]["matrix"][0][0] = entry
    ok, problems = verify_certificate(data)
    assert not ok and any("alpha is not" in p for p in problems)


@pytest.mark.parametrize("cert", [[1], {"instance": None, "N": 3}, {"instance": "twisted-p2n1"}])
def test_verify_reports_a_malformed_certificate(cert):
    ok, problems = verify_certificate(cert)
    assert not ok and problems


@pytest.mark.parametrize("value", [[1], "x"])
def test_verify_reports_a_condition_b_that_is_not_an_object(value):
    data = json.loads(certify_instance(InstanceSpec("twisted", 2, 1)).to_json())
    data["condition_b"] = value
    ok, problems = verify_certificate(data)
    assert not ok and problems == ["certified verdict without alpha"]
