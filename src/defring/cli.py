"""Command-line driver: construct instances, certify, cross-validate, report.

Exit codes: 0 = success / certified; 1 = refuted certification; 2 = invalid
parameters or guard violation.  All output is deterministic for a fixed
command line except the runtime_ms field of oracle reports.

The argument parser is built once per process, on the first `main` call, and
reused by every later call; `main` picks the command's function by its name
when it runs, so the parser holds no reference to it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from .certify import (
    CertifyError,
    InstanceSpec,
    assemble,
    build_rho_R,
    certify_instance,
    first_injective_alpha,
    negative_control,
    parse_instance_name,
    verify_certificate,
)
from .cohomology import CohomologyError, h1_dim, h2_dim, wedge_cocycle
from .exactalg import PrecisionError
from .groups import GroupError
from .localalg import AlgebraError, standard_ring_builders, standard_rings
from .modrep import RepresentationError
from .oracle import OracleError, functor_compare

USER_ERRORS = (
    CertifyError,
    OracleError,
    AlgebraError,
    GroupError,
    RepresentationError,
    CohomologyError,
    PrecisionError,
)

ACCEPTANCE_TWISTED = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]
ACCEPTANCE_STANDARD = [(2, 2), (2, 5), (3, 3), (4, 2), (2, 7)]


def _emit(data, args) -> None:
    blob = json.dumps(data, sort_keys=True, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(blob + "\n")
    if getattr(args, "json", False) or not getattr(args, "out", None):
        print(blob)


def _spec_from_args(args) -> InstanceSpec:
    """The instance a command names: an instance name, with at most -N, or a
    family (positional or --family) with its parameters.  An option the
    instance does not take is refused, not ignored."""
    family, name = args.family, args.instance
    if name in ("twisted", "standard"):
        if family not in (None, name):
            raise CertifyError(f"--family {family} contradicts the family {name}")
        family, name = name, None
    if name:
        given = [f"--{opt}" for opt in ("family", "p", "n", "d") if getattr(args, opt) is not None]
        if given:
            raise CertifyError(f"{', '.join(given)} cannot be given with the instance name {name}")
        return replace(parse_instance_name(name), N=args.precision)
    if family == "twisted":
        if args.d is not None:
            raise CertifyError("--d does not apply to the twisted family, of degree 2")
        if args.p is None or args.n is None:
            raise CertifyError("twisted instances need --p and --n")
        return InstanceSpec("twisted", args.p, args.n, N=args.precision)
    if family == "standard":
        if args.n is not None:
            raise CertifyError("--n does not apply to the standard family, where n = 1")
        if args.p is None or args.d is None:
            raise CertifyError("standard instances need --d and --p")
        return InstanceSpec("standard", args.p, 1, d=args.d, N=args.precision)
    raise CertifyError("give an instance name or a family with parameters")


def _add_instance_args(sub):
    sub.add_argument("instance", nargs="?", help="canonical name, e.g. twisted-p2n1")
    sub.add_argument("--family", choices=["twisted", "standard"])
    sub.add_argument("--p", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--d", type=int)
    sub.add_argument("-N", "--precision", type=int, help="override W-precision (default n+2)")
    sub.add_argument("--json", action="store_true", help="print JSON (default when no --out)")
    sub.add_argument("--out", help="write JSON to a file")


def cmd_example(args) -> int:
    spec = _spec_from_args(args)
    asm = assemble(spec)
    data = {
        "instance": spec.name,
        "family": spec.family,
        "p": spec.p,
        "n": spec.n,
        "N": spec.precision,
        "degree": asm.rho_w.degree,
        "G": asm.G.to_json_dict(),
        "K_size": asm.K.size,
        "K_rank": asm.K.degree,
        "gamma": asm.gamma.to_json_dict(),
        "coefficient_ring": asm.ring.to_json_dict(),
    }
    _emit(data, args)
    return 0


def cmd_certify(args) -> int:
    spec = _spec_from_args(args)
    cert = certify_instance(spec)
    _emit(cert.to_json_dict(), args)
    print(f"{spec.name}: {cert.verdict}", file=sys.stderr)
    return 0 if cert.verdict == "certified" else 1


def _rho_R(asm):
    """The lift over R that the oracle compares against, from alpha
    (`first_injective_alpha`), without condition (b)'s evidence search."""
    alpha = first_injective_alpha(asm)
    if alpha is None:
        raise CertifyError("instance has no injective alpha; oracle needs the lift")
    return build_rho_R(asm, alpha)


def cmd_oracle(args) -> int:
    spec = _spec_from_args(args)
    rings = standard_ring_builders(spec.p)
    if args.ring not in rings:
        raise OracleError(f"unknown ring {args.ring!r}; choose from {sorted(rings)}")
    rho_r = _rho_R(assemble(spec))
    report = functor_compare(rho_r.asm, rho_r, rings[args.ring]())
    _emit(report.to_json_dict(), args)
    print(
        f"{spec.name} over {args.ring}: classes={report.class_count} "
        f"homs={report.hom_count} bijective={report.bijective}",
        file=sys.stderr,
    )
    return 0 if report.bijective else 1


def cmd_cohomology(args) -> int:
    spec = _spec_from_args(args)
    asm = assemble(spec)
    M = asm.M.inflate(asm.gamma)  # End(V) inflated: End commutes with inflation
    data = {"instance": spec.name, "coefficients": "End(V)"}
    if args.degree == 1:
        data["h1_dim"] = h1_dim(M)
    else:
        data["h2_dim"] = h2_dim(M)
    _emit(data, args)
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.certificate) as fh:
            cert = json.load(fh)
    except (OSError, ValueError) as exc:  # missing, a directory, not JSON
        raise CertifyError(f"cannot read certificate {args.certificate}: {exc}") from exc
    ok, problems = verify_certificate(cert)
    _emit({"valid": ok, "problems": problems}, args)
    return 0 if ok else 1


def cmd_report(args) -> int:
    out = {"certifications": [], "oracle": [], "negative_controls": [], "cohomology": {}}
    failures = 0
    for p, n in ACCEPTANCE_TWISTED:
        cert = certify_instance(InstanceSpec("twisted", p, n))
        out["certifications"].append(cert.to_json_dict())
        failures += cert.verdict != "certified"
    for d, p in ACCEPTANCE_STANDARD:
        cert = certify_instance(InstanceSpec("standard", p, 1, d=d))
        out["certifications"].append(cert.to_json_dict())
        failures += cert.verdict != "certified"
    rho_r = _rho_R(assemble(InstanceSpec("twisted", 2, 1)))
    for name, ring in sorted(standard_rings(2).items()):
        report = functor_compare(rho_r.asm, rho_r, ring)
        out["oracle"].append(report.to_json_dict())
        failures += not report.bijective
    for p, n in [(2, 1), (2, 2), (3, 1)]:
        nc = negative_control(p, n)
        out["negative_controls"].append(nc.to_json_dict())
        failures += nc.verdict != "refuted" or not nc.exp_lift.verified
    wedge = wedge_cocycle(3)
    out["cohomology"]["wedge_p3"] = {
        "is_cocycle": wedge.is_cocycle,
        "is_coboundary": wedge.is_coboundary,
        "invariant": wedge.invariant,
    }
    _emit(out, args)
    print(f"report complete; failures={failures}", file=sys.stderr)
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defring",
        description="certify W[[t]]/(p^n t, t^2) as a universal deformation ring "
        "and cross-validate by brute force",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _add_instance_args(subs.add_parser("example", help="construct an instance and print its shape"))

    _add_instance_args(subs.add_parser("certify", help="run the certification pipeline"))

    sub = subs.add_parser("oracle", help="brute-force functor comparison on a test ring")
    _add_instance_args(sub)
    sub.add_argument("--ring", required=True, help="test ring name, e.g. Z4")

    sub = subs.add_parser("cohomology", help="cohomology dimensions for an instance")
    _add_instance_args(sub)
    sub.add_argument("--degree", type=int, choices=(1, 2), default=1)

    sub = subs.add_parser("verify", help="re-validate an emitted certificate")
    sub.add_argument("certificate", help="path to a certificate JSON file")
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--out")

    sub = subs.add_parser("report", help="run the full battery and emit one JSON report")
    sub.add_argument("--all", action="store_true", help="accepted for symmetry; the battery is always full")
    sub.add_argument("--json", action="store_true")
    sub.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "example": cmd_example,
        "certify": cmd_certify,
        "oracle": cmd_oracle,
        "cohomology": cmd_cohomology,
        "verify": cmd_verify,
        "report": cmd_report,
    }
    try:
        return commands[args.command](args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
