"""Operation lists of the benchmark workloads and the checks on their outputs.

Every operation goes through the entry point a user reaches: the CLI
(`defring.cli.main`) for certify, verify and oracle, the library for negative
controls and for direct H^2, which no CLI command reaches.  Each check compares
an output with a reference that does not come from the same code path: the
verdict a certificate must carry, the H^2 value group theory gives, the lift
and class counts of the oracle, and a digest of the deterministic JSON output
recorded in `digests.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

ACCEPTANCE_TWISTED = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]
ACCEPTANCE_STANDARD = [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]
CONTROLS = [(2, 1), (2, 2), (3, 1)]

# (instance, ring, lifts, classes) of the oracle workload.
ORACLE_ROWS = (
    [
        (inst, ring, lifts, classes)
        for inst in ("twisted-p2n1", "standard-d2p2")
        for ring, lifts, classes in [
            ("dual", 16, 2),
            ("Z4", 16, 2),
            ("Z8", 128, 2),
            ("F2t3", 128, 2),
            ("Z4u", 256, 4),
        ]
    ]
    + [("twisted-p3n1", "dual", 81, 3), ("twisted-p3n1", "Z9", 81, 3)]
    + [("twisted-p2n2", "dual", 16, 2), ("twisted-p2n2", "Z4", 16, 2)]
)

PRECISION_ROWS = [
    ("twisted-p3n1", 10),
    ("twisted-p5n1", 7),
    ("standard-d3p3", 7),
    ("twisted-p2n2", 12),
    ("standard-d2p5", 8),
]

# (group, p, H^2(G, F_p)): A_4 has Schur multiplier Z/2 and abelianization
# Z/3; the semidihedral group SD_16 has Schur multiplier 0 and
# abelianization (Z/2)^2, and its order is prime to 3.
H2_ROWS = [("A4", 2, 1), ("A4", 3, 1), ("SD16", 2, 2), ("SD16", 3, 0)]

# verify rejects every raised-N certificate because parse_instance_name
# drops N (ROADMAP item 3).  The rejection is counted as a failed operation;
# any other outcome than this exact rejection or a pass is a wrong output.
KNOWN_VERIFY_DEFECT = ["rho_R generator matrices differ"]


@dataclass(frozen=True)
class Op:
    """One operation of a workload.  `key` names the output it is checked
    against; verify operations share the key of the certify they read."""

    kind: str  # certify | verify | control | oracle | h2
    key: str
    argv: tuple = ()  # CLI arguments
    expect: tuple = ()  # control: (p, n); oracle: (lifts, classes); h2: (group, p, dim)
    known_defect: bool = False

    @property
    def id(self) -> str:
        return f"{self.kind}:{self.key}"


def _cert_name(inst: str, N: int | None) -> str:
    return inst if N is None else f"{inst}-N{N}"


def _certify_pairs(rows, known_defect: bool) -> list[tuple[Op, Op]]:
    pairs = []
    for inst, N in rows:
        key = _cert_name(inst, N)
        extra = () if N is None else ("-N", str(N))
        pairs.append(
            (
                Op("certify", key, ("certify", inst, *extra)),
                Op("verify", key, ("verify",), known_defect=known_defect),
            )
        )
    return pairs


def base_ops(workload: str) -> tuple[list[Op], list[tuple[Op, Op]]]:
    """(independent operations, certify/verify pairs) of one pass."""
    if workload == "battery":
        rows = [(f"twisted-p{p}n{n}", None) for p, n in ACCEPTANCE_TWISTED]
        rows += [(f"standard-d{d}p{p}", None) for d, p in ACCEPTANCE_STANDARD]
        controls = [Op("control", f"p{p}n{n}", expect=(p, n)) for p, n in CONTROLS]
        return controls, _certify_pairs(rows, known_defect=False)
    if workload == "oracle":
        ops = [
            Op("oracle", f"{inst}/{ring}", ("oracle", inst, "--ring", ring), (lifts, classes))
            for inst, ring, lifts, classes in ORACLE_ROWS
        ]
        return ops, []
    if workload == "precision":
        return [], _certify_pairs(PRECISION_ROWS, known_defect=True)
    if workload == "cohomology":
        return [Op("h2", f"{g}/F{p}", expect=(g, p, dim)) for g, p, dim in H2_ROWS], []
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("battery", "oracle", "precision", "cohomology")

# The calibration loop (speed.py) each workload's operation times are
# normalised by, shaped like the work that dominates the workload: battery's
# groups and modules are small numpy matrices; precision's make_ring_R is
# tuple arithmetic in Python; oracle's table_matmul gathers from operation
# tables; cohomology's rank_modp updates a whole large matrix at a time.
CALIBRATION = {"battery": "small", "oracle": "gather", "precision": "python", "cohomology": "array"}


def pass_order(workload: str, rng) -> list[Op]:
    """The operations of one pass in the order `rng` gives.  A verify always
    follows the certify that writes its certificate: the pair's first slot
    in the shuffle runs the certify, its second the verify."""
    singles, pairs = base_ops(workload)
    slots = [("single", i) for i in range(len(singles))]
    slots += [("pair", i) for i in range(len(pairs)) for _ in range(2)]
    rng.shuffle(slots)
    seen = set()
    out = []
    for kind, i in slots:
        if kind == "single":
            out.append(singles[i])
        else:
            out.append(pairs[i][i in seen])
            seen.add(i)
    return out


def all_ops(workload: str) -> list[Op]:
    singles, pairs = base_ops(workload)
    return singles + [op for pair in pairs for op in pair]


# ---------------------------------------------------------------------------
# Running and checking
# ---------------------------------------------------------------------------


def digest(data) -> str:
    """sha256 of the canonical JSON of an output, without runtime_ms."""
    if isinstance(data, dict):
        data = {k: v for k, v in data.items() if k != "runtime_ms"}
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_inputs(workload: str) -> dict:
    """Inputs the operations need beyond their argument lists: the groups of
    the H^2 rows.  Everything else is built by the operation itself."""
    if workload != "cohomology":
        return {}
    from defring.groups import FiniteGroup, twisted_frobenius_group

    a4 = FiniteGroup.from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], name="A4")
    return {"A4": a4, "SD16": twisted_frobenius_group(3)}


class Runner:
    """Executes operations and checks their outputs."""

    def __init__(self, workload: str, workdir: str, digests: dict | None):
        # modules, not functions: names are looked up at call time, so a
        # traced pass sees the wrappers installed on them
        from defring import certify, cli, cohomology

        self.cli, self.certify, self.cohomology = cli, certify, cohomology
        self.inputs = build_inputs(workload)
        self.workdir = workdir
        self.digests = digests
        self.problems: list[str] = []

    def _path(self, op: Op, what: str) -> str:
        return os.path.join(self.workdir, f"{what}-{op.key.replace('/', '_')}.json")

    def _cli(self, argv: list[str], out: str) -> tuple[int, dict | None]:
        if os.path.exists(out):
            os.remove(out)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main(argv + ["--out", out])
        if not os.path.exists(out):
            return code, None
        with open(out) as fh:
            return code, json.load(fh)

    def execute(self, op: Op):
        """Run one operation; returns (exit code, output)."""
        if op.kind == "certify":
            return self._cli(list(op.argv), self._path(op, "cert"))
        if op.kind == "verify":
            cert = self._path(op, "cert")
            if not os.path.exists(cert):
                return 2, None
            return self._cli(["verify", cert], self._path(op, "verify"))
        if op.kind == "oracle":
            return self._cli(list(op.argv), self._path(op, "oracle"))
        if op.kind == "control":
            p, n = op.expect
            return 0, self.certify.negative_control(p, n).to_json_dict()
        if op.kind == "h2":
            group, p, _ = op.expect
            M = self.cohomology.trivial_module(self.inputs[group], p)
            return 0, self.cohomology.h2_dim(M, method="direct")
        raise ValueError(op.kind)

    def check(self, op: Op, code: int, out) -> tuple[bool, bool]:
        """(ok, wrong) for one operation: ok means it succeeded with the
        expected output; wrong means its output disagrees with its reference.
        The known defect reproducing exactly is neither ok nor wrong."""
        reasons = self._reasons(op, code, out)
        if op.kind == "verify" and op.known_defect and reasons:
            if out is not None and out.get("problems") == KNOWN_VERIFY_DEFECT:
                return False, False
        if reasons:
            self.problems.append(f"{op.id}: {'; '.join(reasons)}")
        return not reasons, bool(reasons)

    def _reasons(self, op: Op, code: int, out) -> list[str]:
        if out is None:
            return [f"no output (exit {code})"]
        reasons = []
        if op.kind == "certify":
            if code != 0 or out.get("verdict") != "certified":
                reasons.append(f"verdict {out.get('verdict')!r}, exit {code}")
        elif op.kind == "verify":
            if code != 0 or out.get("valid") is not True:
                reasons.append(f"verify rejected: {out.get('problems')}")
        elif op.kind == "control":
            if out["verdict"] != "refuted" or not out["exp_lift"]["verified"]:
                reasons.append(f"control verdict {out['verdict']!r}")
        elif op.kind == "oracle":
            lifts, classes = op.expect
            if code != 0 or not out.get("bijective"):
                reasons.append(f"not bijective, exit {code}")
            if (out.get("lift_count"), out.get("class_count")) != (lifts, classes):
                reasons.append(
                    f"lifts/classes {out.get('lift_count')}/{out.get('class_count')}, "
                    f"expected {lifts}/{classes}"
                )
        elif op.kind == "h2":
            if out != op.expect[2]:
                reasons.append(f"H^2 dimension {out}, expected {op.expect[2]}")
        if self.digests is not None and op.kind != "verify":
            want = self.digests.get(op.id)
            got = digest(out)
            if want != got:
                reasons.append(f"digest {got[:12]} differs from recorded {str(want)[:12]}")
        return reasons
