import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from defring import certify, cli, oracle
from defring.cli import main
from defring.groups import SemidirectGroup


def _refuse(*args, **kwargs):
    raise AssertionError("called")


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


@pytest.mark.parametrize("ring", ["dual", "Z9"])
def test_oracle_twisted_p3n2(capsys, ring):
    # |Gamma| = 1296: 81 lifts at the report generators, in 3 classes
    code, out, _ = run_cli(capsys, "oracle", "twisted-p3n2", "--ring", ring)
    assert code == 0
    data = json.loads(out)
    assert data["bijective"] is True
    assert (data["lift_count"], data["class_count"]) == (81, 3)


def test_oracle_walk_past_the_budget_exits_2_before_allocating(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "LIFT_BUDGET", 2**20)
    # refused before the lifts are extended along Gamma's spanning tree or
    # checked (G's `extend` still builds the representations of the assembly)
    monkeypatch.setattr(SemidirectGroup, "extend", _refuse)
    monkeypatch.setattr(oracle, "violated_relators", _refuse)
    code, _, err = run_cli(capsys, "oracle", "standard-d3p3", "--ring", "dual")
    assert code == 2
    # 3^9 lifts x d^2 x 8 x (21 relators + 6 x 27 prefixes at the relator
    # trie's widest depth) bytes of the relator check on the codes
    assert "19683 lifts over F3[eps] modulo m^2" in err and "|Gamma| = 648" in err and "d = 3" in err
    assert "259343208 bytes, past the budget 1048576" in err


@pytest.mark.parametrize("instance", ["twisted-p11n1-scalar", "twisted-p13n1-scalar"])
def test_twisted_group_past_p7_is_built(capsys, instance):
    code, out, _ = run_cli(capsys, "certify", instance)
    assert code == 1
    assert json.loads(out)["verdict"] == "refuted"


def test_oracle_unknown_ring(capsys):
    code, _, err = run_cli(capsys, "oracle", "twisted-p2n1", "--ring", "nope")
    assert code == 2
    assert "unknown ring" in err


def test_oracle_unknown_ring_is_refused_before_assembly(capsys, monkeypatch):
    # the ring names come from p alone, so Gamma is never built for a bad one
    monkeypatch.setattr(cli, "assemble", _refuse)
    code, _, err = run_cli(capsys, "oracle", "twisted-p2n1", "--ring", "Z16")
    assert code == 2
    assert "unknown ring 'Z16'" in err


def test_oracle_runs_no_search_for_condition_b_evidence(capsys, monkeypatch):
    # the oracle needs alpha only: no non-commuting pair, and at p = 2,
    # n = 1 no vector violating the scalar clause, is looked for
    monkeypatch.setattr(certify, "_noncommuting", _refuse)
    monkeypatch.setattr(certify, "_scalar_violations", _refuse)
    code, out, _ = run_cli(capsys, "oracle", "twisted-p2n1", "--ring", "Z4")
    assert code == 0
    assert json.loads(out)["bijective"] is True


class _Certified:
    verdict = "certified"

    def to_json_dict(self):
        return {}


@pytest.mark.parametrize("argv", [["oracle", "twisted-p2n1", "--ring", "Z4"], ["report", "--all"]])
def test_oracle_and_report_refuse_an_instance_without_injective_alpha(capsys, monkeypatch, argv):
    # the report's certifications are stubbed: only its oracle rows need alpha
    monkeypatch.setattr(cli, "certify_instance", lambda spec: _Certified())
    monkeypatch.setattr(cli, "first_injective_alpha", lambda asm: None)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "instance has no injective alpha; oracle needs the lift" in err


def test_cohomology_subcommand(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "twisted-p2n1", "--degree", "1")
    assert code == 0
    assert json.loads(out)["h1_dim"] == 1


def test_cohomology_degree_2(capsys):
    # R = W[[t]]/(2t, t^2) needs two relations on its one tangent direction,
    # and a presentation on h1 generators needs at most h2 relations, so
    # h2 >= 2; the direct route gives exactly 2
    code, out, _ = run_cli(capsys, "cohomology", "twisted-p2n1", "--degree", "2")
    assert code == 0
    assert json.loads(out)["h2_dim"] == 2
    # past the dense limit on Gamma itself: exit 2 with the size of E, with
    # |Gamma| = 1296, 4 generators and dim End V = 4: 4 * 3889 edges off the
    # tree * 4 rows by 1295 * 4 * 4 unknowns
    code, _, err = run_cli(capsys, "cohomology", "twisted-p3n2", "--degree", "2")
    assert code == 2
    assert "62224 x 20720 entries" in err


@pytest.mark.parametrize("name", ["twisted-p2n2", "twisted-p3n1", "standard-d2p5"])
def test_cohomology_degree_2_reaches_larger_instances(name, capsys):
    # E keeps only the rows at the generators, so these fit under the dense
    # limit; h2 >= 2 for the reason above, and the direct route gives 2
    code, out, _ = run_cli(capsys, "cohomology", name, "--degree", "2")
    assert code == 0
    assert json.loads(out)["h2_dim"] == 2


def test_cohomology_degree_3_is_refused_before_assembly(capsys, monkeypatch):
    monkeypatch.setattr(cli, "assemble", _refuse)
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "twisted-p2n1", "--degree", "3"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_cohomology_degree_2_refusal_builds_no_table_of_gamma(capsys, monkeypatch):
    # |Gamma| = 4704: E's size is refused from |Gamma|, the generators and
    # dim M alone
    monkeypatch.setattr(SemidirectGroup, "table", property(_refuse))
    code, _, err = run_cli(capsys, "cohomology", "twisted-p7n1", "--degree", "2")
    assert code == 2
    assert "225808 x 75248 entries, past the dense limit" in err


@pytest.mark.parametrize(
    "args, k_order, g_order",
    [
        (["standard-d6p11"], 11**6, 5040),
        (["standard-d7p11"], 11**7, 40320),
        (["twisted-p11n1"], 121, 240),
        # PGL_2(2^56): 2^(2^56) is not formed, and neither factor's digits printed
        (["standard", "--d", str(2**56), "--p", "2", "-N", "2"], "at least 2^64", "at least 2^167"),
        (["twisted-p71n1-scalar"], 71, 10080),
    ],
)
def test_gamma_order_is_refused_before_g_is_built(args, k_order, g_order, capsys, monkeypatch):
    # assemble builds G by these: S_m, PGL_2(q), and TF_p with F_{p^2}
    for family in ("symmetric_group", "pgl2", "galois_module_rep"):
        monkeypatch.setattr(certify, family, _refuse)
    code, _, err = run_cli(capsys, "certify", *args)
    assert code == 2
    assert f"|K| = {k_order} and |G| = {g_order}" in err


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
        (("standard", "--d", "2", "--p", "4"), 4),  # once an AssertionError in the permutation splitting
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


@pytest.mark.parametrize(
    "argv, option",
    [
        (("twisted-p2n1", "--p", "3", "--n", "2"), "--p, --n"),
        (("twisted-p2n1", "--d", "3"), "--d"),
        (("standard-d2p5", "--family", "standard"), "--family"),
        (("standard-d2p5", "--n", "1", "-N", "4"), "--n"),
        (("standard", "--d", "2", "--p", "2", "--n", "3"), "--n"),
        (("standard", "--family", "standard", "--d", "2", "--p", "2", "--n", "1"), "--n"),
        (("twisted", "--p", "2", "--n", "1", "--d", "5"), "--d"),
        (("twisted", "--family", "standard", "--p", "2", "--n", "1"), "--family"),
        (("standard", "--family", "twisted", "--d", "2", "--p", "5"), "--family"),
    ],
    ids=[
        "name-with-p-n", "name-with-d", "name-with-family", "name-with-n-and-N",
        "standard-n", "standard-family-n", "twisted-d", "twisted-family-standard",
        "standard-family-twisted",
    ],
)
def test_ignored_parameters_exit_2(capsys, argv, option):
    # an option the instance does not take is named and refused, not dropped
    code, out, err = run_cli(capsys, "certify", *argv)
    assert code == 2
    assert out == ""
    assert option in err


def test_name_with_precision_and_family_with_matching_option(capsys):
    # -N stays allowed with a name, and --family may repeat the positional family
    code, out, _ = run_cli(capsys, "certify", "twisted-p2n1", "-N", "4")
    assert code == 0 and json.loads(out)["N"] == 4
    code, out, _ = run_cli(capsys, "certify", "twisted", "--family", "twisted", "--p", "2", "--n", "1")
    assert code == 0 and json.loads(out)["instance"] == "twisted-p2n1"


def _fresh_run(argv):
    """(exit code, stdout, stderr) of `defring argv` in a new interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys; from defring.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def _in_process_run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _without_runtime(out):
    if not out:
        return out
    data = json.loads(out)
    data.pop("runtime_ms", None)
    return data


def test_the_cached_parser_is_reused_with_no_option_leaking_between_calls(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    # a refused command line first, then commands that drop the options of
    # the one before: no --out after --out, no --ring after --ring
    runs = [
        lambda cert: ["certify", "twisted-p2n1", "--out", cert, "-N", "x"],
        lambda cert: ["certify", "twisted-p2n1", "--out", cert],
        lambda cert: ["certify", "twisted-p2n1"],
        lambda cert: ["verify", cert],
        lambda cert: ["oracle", "twisted-p2n1", "--ring", "dual"],
    ]
    fresh_cert, same_cert = tmp_path / "fresh.json", tmp_path / "same.json"
    fresh = [_fresh_run(run(str(fresh_cert))) for run in runs]
    same = [_in_process_run(capsys, run(str(same_cert))) for run in runs]
    assert [code for code, _, _ in same] == [2, 0, 0, 0, 0]
    assert same[1][1] == "" and json.loads(same[2][1])["verdict"] == "certified"
    for (code, out, err), (code_f, out_f, err_f) in zip(same, fresh):
        assert (code, _without_runtime(out), err) == (code_f, _without_runtime(out_f), err_f)
    assert same_cert.read_text() == fresh_cert.read_text()
