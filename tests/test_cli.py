import json

import pytest

from defring.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_twisted_p2n1(capsys):
    code, out, err = run_cli(capsys, "certify", "twisted", "--p", "2", "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "certified"
    assert "certified" in err


def test_certify_by_name(capsys):
    code, out, _ = run_cli(capsys, "certify", "twisted-p2n1")
    assert code == 0


def test_certify_refuted_control_exit_code(capsys):
    code, out, _ = run_cli(capsys, "certify", "twisted-p3n1-commutative")
    assert code == 1
    assert json.loads(out)["verdict"] == "refuted"


def test_admissibility_rejection(capsys):
    # d = 4, p = 5: 4 is not < 4 and not a power of 5
    code, out, err = run_cli(capsys, "example", "standard", "--d", "4", "--p", "5")
    assert code == 2
    assert "d < p-1 or d = p^f" in err


def test_admissible_edge_cases(capsys):
    # d = 3 = 3^1 is admissible for p = 3; d = 2 < 6 admissible for p = 7
    code, _, _ = run_cli(capsys, "example", "standard", "--d", "3", "--p", "3")
    assert code == 0
    code, _, _ = run_cli(capsys, "example", "standard", "--d", "2", "--p", "7")
    assert code == 0


def test_oracle_subcommand(capsys):
    code, out, err = run_cli(capsys, "oracle", "twisted-p2n1", "--ring", "Z4")
    assert code == 0
    data = json.loads(out)
    assert data["bijective"] is True
    assert data["class_count"] == 2


def test_oracle_unknown_ring(capsys):
    code, _, err = run_cli(capsys, "oracle", "twisted-p2n1", "--ring", "nope")
    assert code == 2
    assert "unknown ring" in err


def test_cohomology_subcommand(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "twisted-p2n1", "--degree", "1")
    assert code == 0
    assert json.loads(out)["h1_dim"] == 1


def test_example_output(capsys):
    code, out, _ = run_cli(capsys, "example", "twisted-p2n1")
    assert code == 0
    data = json.loads(out)
    assert data["gamma"]["order"] == 24
    assert data["K_size"] == 4


def test_verify_roundtrip(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "certify", "twisted-p2n1", "--out", str(cert_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 0
    assert json.loads(out)["valid"] is True
    # tamper and re-verify
    data = json.loads(cert_path.read_text())
    data["tangent_dim"] = 7
    cert_path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 1


def test_certify_deterministic_output(capsys):
    code1, out1, _ = run_cli(capsys, "certify", "twisted-p2n1")
    code2, out2, _ = run_cli(capsys, "certify", "twisted-p2n1")
    assert out1 == out2


def test_oracle_deterministic_modulo_runtime(capsys):
    _, out1, _ = run_cli(capsys, "oracle", "twisted-p2n1", "--ring", "dual")
    _, out2, _ = run_cli(capsys, "oracle", "twisted-p2n1", "--ring", "dual")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("runtime_ms")
    d2.pop("runtime_ms")
    assert d1 == d2


def test_galois_ring_precision_too_large_exits_2(capsys):
    # GR(5^14, 2) needs (5^14)^2 > 2^62: refused with the modulus, no traceback
    code, out, err = run_cli(capsys, "certify", "twisted-p5n1", "-N", "14")
    assert code == 2
    assert out == ""
    assert "precision too large" in err and str(5**14) in err


def test_verify_rebuilds_at_the_certificate_precision(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, _, _ = run_cli(capsys, "certify", "twisted-p2n1", "-N", "4", "--out", str(cert_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 0 and json.loads(out) == {"valid": True, "problems": []}
    data = json.loads(cert_path.read_text())
    for N in (3, 5):
        cert_path.write_text(json.dumps(dict(data, N=N)))
        code, out, _ = run_cli(capsys, "verify", str(cert_path))
        assert code == 1 and json.loads(out)["valid"] is False
    del data["N"]
    cert_path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 1
    assert json.loads(out)["problems"] == ["certificate has no integer precision N"]


@pytest.mark.parametrize(
    "instance, p, last_exact",
    # twisted-p2n1 at N = 31 has (p^N)^2 = 2^62 < 2^63, so only the factor d refuses it
    [("standard-d2p5", 5, 13), ("standard-d2p7", 7, 11), ("twisted-p2n1", 2, 30)],
)
def test_precision_bound_m2d_below_2_63(tmp_path, capsys, instance, p, last_exact):
    # d = 2: (p^N)^2 * 2 < 2^63 holds at last_exact and fails at last_exact + 1
    assert (p**last_exact) ** 2 * 2 < 2**63 <= (p ** (last_exact + 1)) ** 2 * 2
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "certify", instance, "-N", str(last_exact), "--out", str(cert_path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 0 and json.loads(out)["valid"] is True
    for N in (last_exact + 1, 40):
        code, out, err = run_cli(capsys, "certify", instance, "-N", str(N))
        assert code == 2
        assert out == ""
        assert "precision too large" in err and f"N = {N}," in err


@pytest.mark.parametrize("argv", [("twisted-p2n1", "-N", "0"), ("twisted-p2n1", "-N", "-1"),
                                  ("twisted-p2n2", "-N", "2"), ("standard-d2p5", "-N", "-2")])
def test_precision_not_above_n_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "certify", *argv)
    assert code == 2
    assert out == ""
    assert "need 1 <= n < N" in err


@pytest.mark.parametrize(
    "argv, p",
    [
        (("twisted", "--p", "4", "--n", "1"), 4),  # hung in GaloisRing.unit_generator
        (("twisted", "--p", "1", "--n", "1"), 1),
        (("twisted", "--p", "-2", "--n", "1"), -2),
        (("standard", "--d", "2", "--p", "4"), 4),  # AssertionError in standard_perm_rep
    ],
    ids=["twisted-p4", "twisted-p1", "twisted-p-2", "standard-d2p4"],
)
def test_non_prime_p_exits_2(capsys, argv, p):
    code, out, err = run_cli(capsys, "certify", *argv)
    assert code == 2
    assert out == ""
    assert f"p = {p} is not a prime" in err


BIG_P = 100000000000000000039  # far above 2^32


@pytest.mark.parametrize(
    "argv",
    [
        ("standard", "--d", "0", "--p", str(BIG_P)),  # d = 0 drops the degree factor
        ("twisted", "--p", str(BIG_P), "--n", "1", "-N", "0"),  # N = 0 makes p^N = 1
    ],
    ids=["standard-d0", "twisted-N0"],
)
def test_p_above_int64_bound_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "certify", *argv)
    assert code == 2
    assert out == ""
    assert f"p = {BIG_P} is too large" in err


@pytest.mark.parametrize(
    "instance, N, reason",
    [
        (f"standard-d0p{BIG_P}", 3, f"p = {BIG_P} is too large"),
        ("twisted-p2n1", 10**12, "precision too large"),  # p^N is never computed
    ],
    ids=["p-above-bound", "N-above-bound"],
)
def test_verify_reports_a_crafted_instance_at_once(tmp_path, capsys, instance, N, reason):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({"instance": instance, "N": N, "verdict": "certified"}))
    code, out, _ = run_cli(capsys, "verify", str(cert_path))
    assert code == 1
    data = json.loads(out)
    assert data["valid"] is False
    assert len(data["problems"]) == 1 and reason in data["problems"][0]


def test_verify_non_json_file_exits_2(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text('{"instance": ')
    code, out, err = run_cli(capsys, "verify", str(cert_path))
    assert code == 2
    assert out == ""
    assert f"cannot read certificate {cert_path}" in err


def test_verify_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", str(tmp_path))
    assert code == 2
    assert out == ""
    assert f"cannot read certificate {tmp_path}" in err and "Is a directory" in err
