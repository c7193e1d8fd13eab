"""Time the numpy kernels on the workloads that dominate the pipeline.

Mod-p elimination (random matrices, plus the Z^2 system E of direct
H^2(SD_16, F_2) and the tallest H^1 system of the acceptance battery: the
Fox-derivative rows of standard-d4p2's presentation; and the reduced row
echelon forms over F_2 of standard-d4p2's Hom system and of twisted-p2n1's
[Lbar^T | I] in the oracle's layer solve), H^1 end to end on four
of the largest battery instances, direct H^2 with trivial coefficients on
A_4, SD_16 and S_4 over F_2 and F_3, table-driven batched matrix products (oracle
enumeration), and the construction of Gamma = K x| G, the hash of its table
(`table_hash`, streamed from K and G, against building the table and hashing
it; the streamed hash also from a fresh heap, as a new process meets it) and
the whole assembly of an instance (`assemble`) for three of the
largest battery instances.  Also times one end-to-end oracle enumeration, and the
enumeration and the class partition on three rows of the oracle benchmark
(and the relator check of the lifts, `_assert_full_table`, on one), the
scan for a small generating set of twisted-p3n1's Gamma and four calls of
`FiniteGroup.extend` with one `at` on it, the
enumeration of the 3^9 lifts of standard-d3p3 over F_3[eps], the
class partition of the lifts `functor_compare` classifies on standard-d2p2
over (Z/4)[u]/(u^2, 2u) (int64 keys) and twisted-p5n1 over F_5[eps] (Python
int keys), the whole functor comparison (`functor_compare`: the small
extensions with their values at the report generators, and the classes)
on standard-d2p2 over (Z/4)[u]/(u^2, 2u), twisted-p3n2 over
F_3[eps] and standard-d2p7 over F_7[eps], one oracle command through the
command-line entry point (`cli.main` on twisted-p2n1 over F_2[eps], with the
parser built by an earlier call), the check of rho_R on Gamma's relators
(`build_rho_R`), and the constructions of GR(p^3, 2) (`galois_matrices`),
PGL_2(F_q) and S_6 (the last two close permutations with
`FiniteGroup.from_permutations`).  The Howell-form rows time `solve_module`
on the Hom systems that certifying standard-d4p2 solves, and the
certify-and-verify rows run `certify_instance` and then `verify_certificate`
on its JSON for standard-d4p2, twisted-p3n1 (both n = 1, where one Hom solve
serves conditions (a) and (b)) and twisted-p3n2 (n = 2), and, where the
fixed per-instance set-up dominates, for twisted-p2n1 and standard-d2p5;
with them, `assemble twisted-p3n1` and the certificate's JSON form
(`Certificate.to_json_dict`) for standard-d4p2.  The presentation
rows time `FiniteGroup._presentation` on the groups G of the battery and on
S_3 to S_6: the proof of a family's own relators (their check in the table
and a coset enumeration), which every group construction pays once; for S_7
they time the coset enumeration alone.  The local-algebra rows time the construction of
R(5, 1, 27), whose products are past int64, the op tables of R'(3, 1, 3) (a
fresh ring each time, as the tables are cached), and one stacked product of
2 x 2 matrices over R(2, 1, 3) (`ArtinLocalAlgebra.matmul`).
Each row is the best of a few repeats.

Usage: python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import hashlib
import io
import json
import os
import tempfile
import time

import numpy as np

from defring import kernels

try:
    MALLOC_TRIM = ctypes.CDLL("libc.so.6").malloc_trim
    MALLOC_TRIM.argtypes = [ctypes.c_size_t]
    MALLOC_TRIM.restype = ctypes.c_int
except (OSError, AttributeError):  # not glibc
    MALLOC_TRIM = None


def fresh_heap():
    """Collect garbage and hand the free heap back to the system (glibc's
    `malloc_trim`, where there is one), so that the next call touches its
    buffers' pages for the first time, as in a new process."""
    gc.collect()
    if MALLOC_TRIM is not None:
        MALLOC_TRIM(0)


def timeit(fn, repeat=3, before=None):
    best = float("inf")
    for _ in range(repeat):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench(name, fn, repeat=3, before=None):
    print(f"{name:<46} {timeit(fn, repeat, before) * 1e3:9.2f} ms", flush=True)


def recorded_calls(module, name, run):
    """The arguments of every call `run()` makes to module.name."""
    calls = []
    saved = getattr(module, name)

    def record(*args):
        calls.append(args)
        return saved(*args)

    setattr(module, name, record)
    try:
        run()
    finally:
        setattr(module, name, saved)
    return calls


def program_rank_inputs():
    """(label, matrix, p) of two matrices the program ranks: the Z^2 system
    E (`BarComplex.d2_matrix`) of direct H^2(SD_16, F_2) and the H^1 Fox-derivative system of
    standard-d4p2, the tallest one a certify of the acceptance battery
    builds."""
    from defring import cohomology
    from defring.certify import assemble, parse_instance_name
    from defring.groups import twisted_frobenius_group

    sd16 = cohomology.trivial_module(twisted_frobenius_group(3), 2)
    inputs = [("SD16 d2", cohomology.BarComplex(sd16).d2_matrix(), 2)]
    asm = assemble(parse_instance_name("standard-d4p2"))
    ranked = recorded_calls(kernels, "rank_modp", lambda: cohomology.h1_dim(asm.M.inflate(asm.gamma)))
    system, p = max(ranked, key=lambda item: item[0].shape[0])
    inputs.append(("standard-d4p2 H^1 Fox", system, p))
    return inputs


def program_rref_inputs():
    """(label, matrix) of the program's two largest row reductions over
    F_2: the Hom system certifying standard-d4p2 solves and the [Lbar^T | I]
    of an oracle enumeration on twisted-p2n1."""
    from defring.certify import assemble, certify_assembly, parse_instance_name
    from defring.localalg import standard_rings
    from defring.oracle import enumerate_lifts

    asm = assemble(parse_instance_name("standard-d4p2"))
    hom = max(recorded_calls(kernels, "rref_modp", lambda: certify_assembly(asm)), key=lambda c: np.size(c[0]))
    asm = assemble(parse_instance_name("twisted-p2n1"))
    ring = standard_rings(2)["dual"]
    (layer,) = recorded_calls(kernels, "rref_modp", lambda: enumerate_lifts(asm.rho_bar, ring))
    return [("standard-d4p2 Hom", hom[0]), ("twisted-p2n1 [Lbar^T | I]", layer[0])]


def howell_rows():
    from defring import modrep
    from defring.certify import assemble, certify_assembly, parse_instance_name
    from defring.exactalg import solve_module

    print("== Howell forms over Z/p^N (exactalg) ==", flush=True)
    asm = assemble(parse_instance_name("standard-d4p2"))
    systems = recorded_calls(modrep, "solve_module", lambda: certify_assembly(asm))
    for i, (entries, rhs, p, N) in enumerate(systems, 1):
        rows, cols = np.shape(entries)
        bench(
            f"solve_module standard-d4p2 Hom #{i} {rows}x{cols} mod {p}^{N}",
            lambda: solve_module(entries, rhs, p, N),
            repeat=5,
        )


def certify_verify_rows():
    from defring.certify import assemble, certify_instance, parse_instance_name, verify_certificate

    print("== certify, then verify its certificate (certify) ==", flush=True)

    def certify_and_verify(spec):
        cert = json.loads(json.dumps(certify_instance(spec).to_json_dict()))
        ok, problems = verify_certificate(cert)
        if not ok:
            raise RuntimeError(f"{spec.name}: {problems}")

    for name in ("standard-d4p2", "twisted-p3n1", "twisted-p3n2"):
        spec = parse_instance_name(name)
        bench(f"certify + verify {name}", lambda spec=spec: certify_and_verify(spec), repeat=5)
    # small instances: the fixed set-up of an instance, not its size, dominates
    for name in ("twisted-p2n1", "standard-d2p5"):
        spec = parse_instance_name(name)
        bench(f"certify + verify {name}", lambda spec=spec: certify_and_verify(spec), repeat=20)
    spec = parse_instance_name("twisted-p3n1")
    bench("assemble twisted-p3n1", lambda: assemble(spec), repeat=20)
    cert = certify_instance(parse_instance_name("standard-d4p2"))
    bench("Certificate.to_json_dict standard-d4p2", cert.to_json_dict, repeat=20)


def local_algebra_rows(rng):
    from defring import localalg

    print("== local algebras (localalg) ==", flush=True)
    bench("make_ring_R(5, 1, 27)", lambda: localalg.make_ring_R(5, 1, 27), repeat=5)
    bench(
        "make_ring_Rprime(3, 1, 3).tables() (|A| = 243)",
        lambda: localalg.make_ring_Rprime(3, 1, 3).tables(),
        repeat=5,
    )
    ring = localalg.make_ring_R(2, 1, 3)
    x, y = (ring.reduce(rng.integers(0, 8, (65536, 2, 2, 2))) for _ in range(2))
    bench("R(2, 1, 3) matmul 65536x(2x2)", lambda: ring.matmul(x, y), repeat=5)


def main():
    rng = np.random.default_rng(0)
    howell_rows()
    certify_verify_rows()
    local_algebra_rows(rng)

    print("== mod-p elimination ==", flush=True)
    for rows, cols, p, repeat in [
        (20000, 64, 2, 3),
        (20000, 64, 3, 3),
        (2000, 400, 5, 3),
        (5000, 600, 3, 1),
    ]:
        a = rng.integers(0, p, (rows, cols), dtype=np.int64)
        bench(f"rank_modp {rows}x{cols} mod {p}", lambda a=a, p=p: kernels.rank_modp(a, p), repeat)
    # random matrices reach full rank within a few blocks; the matrices the
    # program ranks do not
    for label, a, p in program_rank_inputs():
        rows, cols = a.shape
        bench(f"rank_modp {label} {rows}x{cols} mod {p}", lambda a=a, p=p: kernels.rank_modp(a, p))
    for label, a in program_rref_inputs():
        rows, cols = np.shape(a)
        bench(f"rref_modp {label} {rows}x{cols} mod 2", lambda a=a: kernels.rref_modp(a, 2), repeat=20)

    print("== presentations of the battery's G (FiniteGroup._presentation, once per group) ==")
    from defring.groups import _symmetric_relators, coset_count, pgl2, symmetric_group, twisted_frobenius_group

    families = [twisted_frobenius_group(p) for p in (2, 3, 5)] + [symmetric_group(m) for m in range(3, 7)]
    for G in families + [pgl2(q) for q in (2, 3, 4)]:
        bench(f"relators {G.name} ({len(G.relators())} relators)", G._presentation, repeat=20)
    # S_7's proof without its 200 MB table: the enumeration alone
    rels = _symmetric_relators(7)
    bench(f"coset_count S7 ({len(rels)} relators)", lambda: coset_count(2, rels), repeat=5)

    print("== H^1(Gamma, End V) (cohomology.h1_dim) ==")
    from defring.certify import assemble, parse_instance_name
    from defring.cohomology import h1_dim

    for name in ("twisted-p3n2", "twisted-p5n1", "standard-d3p3", "standard-d4p2"):
        asm = assemble(parse_instance_name(name))
        M = asm.M.inflate(asm.gamma)  # End(V) inflated to Gamma
        bench(f"h1_dim {name} (|Gamma| = {M.group.order})", lambda M=M: h1_dim(M), repeat=5)

    print("== rho_R on Gamma's relators (certify.build_rho_R) ==")
    from defring.certify import build_rho_R, find_alpha

    for name in ("twisted-p5n1", "standard-d4p2"):
        asm = assemble(parse_instance_name(name))
        alpha = find_alpha(asm).alpha
        bench(f"build_rho_R {name}", lambda asm=asm, alpha=alpha: build_rho_R(asm, alpha), repeat=5)

    print("== direct H^2 with trivial coefficients (cohomology.h2_dim) ==")
    from defring.cohomology import h2_dim, trivial_module
    from defring.groups import FiniteGroup, symmetric_group, twisted_frobenius_group

    groups = {
        "A4": FiniteGroup.from_permutations([(1, 2, 0, 3), (1, 0, 3, 2)], name="A4"),
        "SD16": twisted_frobenius_group(3),
        "S4": symmetric_group(4),
    }
    for label, G in groups.items():
        for p in (2, 3):
            M = trivial_module(G, p)
            bench(f"h2_dim direct {label} over F_{p}", lambda M=M: h2_dim(M, method="direct"), repeat=5)

    print("== table-driven batched matmul ==")
    from defring.localalg import nilpotent_socle_ring, truncated_polynomials

    for ring in (nilpotent_socle_ring(2), truncated_polynomials(2, 3)):
        add, mul, _ = ring.tables()
        a = rng.integers(0, ring.size, (65536, 2, 2), dtype=np.int64)
        b = rng.integers(0, ring.size, (65536, 2, 2), dtype=np.int64)
        bench(
            f"table_matmul 65536x(2x2) over {ring.name}",
            lambda a=a, b=b, add=add, mul=mul: kernels.table_matmul(a, b, add, mul),
        )

    print("== Gamma construction (semidirect_product) ==")
    from defring.certify import InstanceSpec
    from defring.groups import semidirect_product

    for name in ("twisted-p3n2", "twisted-p5n1", "standard-d4p2"):
        asm = assemble(parse_instance_name(name))
        bench(
            f"semidirect_product {name} (|Gamma| = {asm.gamma.order})",
            lambda asm=asm: semidirect_product(asm.K, asm.G),
        )
    for name in ("twisted-p3n2", "twisted-p5n1", "standard-d4p2"):
        asm = assemble(parse_instance_name(name))
        bench(
            f"table_hash streamed {name}",
            lambda asm=asm: semidirect_product(asm.K, asm.G).table_hash(),
            repeat=5,
        )
        bench(
            f"table_hash streamed, fresh heap {name}",
            lambda asm=asm: semidirect_product(asm.K, asm.G).table_hash(),
            repeat=5,
            before=fresh_heap,
        )
        bench(
            f"table built, then sha256 {name}",
            lambda asm=asm: hashlib.sha256(semidirect_product(asm.K, asm.G).table).hexdigest(),
            repeat=5,
        )
    for name in ("twisted-p3n2", "twisted-p5n1", "standard-d4p2"):
        spec = parse_instance_name(name)
        bench(f"assemble {name}", lambda spec=spec: assemble(spec), repeat=5)

    print("== end-to-end oracle enumeration (S4, F2[t]/t^3) ==")
    from defring.localalg import standard_rings
    from defring.oracle import (
        _assert_full_table,
        _lift_keys,
        deformation_classes,
        enumerate_lifts,
    )

    asm = assemble(InstanceSpec("twisted", 2, 1))
    ring = standard_rings(2)["F2t3"]
    bench("enumerate_lifts", lambda: enumerate_lifts(asm.rho_bar, ring), repeat=2)

    print("== oracle rows: enumeration and strict-equivalence classes ==")
    for name, ring_name in (("standard-d2p2", "Z4u"), ("twisted-p3n1", "Z9"), ("twisted-p2n2", "Z4")):
        asm = assemble(parse_instance_name(name))
        ring = standard_rings(asm.p)[ring_name]
        lifts = enumerate_lifts(asm.rho_bar, ring)
        bench(f"enumerate_lifts {name}/{ring_name}", lambda: enumerate_lifts(asm.rho_bar, ring), repeat=5)
        bench(
            f"deformation_classes {name}/{ring_name}",
            lambda: deformation_classes(asm.rho_bar, ring, lifts),
            repeat=5,
        )
        if name == "twisted-p3n1":
            # the lifts' values at the distinguished generators, as checked
            at_dist = enumerate_lifts(asm.rho_bar, ring, asm.gamma.generators).swapaxes(0, 1)
            bench(
                f"_assert_full_table {name}/{ring_name} ({len(lifts)} lifts)",
                lambda: _assert_full_table(at_dist, asm.rho_bar, ring),
                repeat=5,
            )

    print("== pieces of one oracle row: the generating-set scan and extend(at=) ==")
    gamma = assemble(parse_instance_name("twisted-p3n1")).gamma

    def scan():
        gamma._small_generating_set = None  # the result is cached on the group
        return gamma.small_generating_set()

    bench(f"small_generating_set twisted-p3n1 (|Gamma| = {gamma.order})", scan, repeat=20)
    gens = gamma.small_generating_set()
    values = rng.integers(0, 3, (len(gamma.generators), 2, 2))
    eye = np.eye(2, dtype=np.int64)

    def extend_at():
        for _ in range(4):  # as many calls with one `at` as one oracle row makes
            gamma.extend(values, lambda a, b: a @ b % 3, eye, at=gens)

    bench("extend(at=small_generating_set) x4 twisted-p3n1", extend_at, repeat=20)

    asm = assemble(parse_instance_name("standard-d3p3"))
    ring = standard_rings(3)["dual"]
    bench("enumerate_lifts standard-d3p3/dual (19683 lifts)", lambda: enumerate_lifts(asm.rho_bar, ring), repeat=3)

    print("== classes of the lifts functor_compare classifies: int64 and Python-int keys ==")
    for name, ring_name in (("standard-d2p2", "Z4u"), ("twisted-p5n1", "dual")):
        asm = assemble(parse_instance_name(name))
        ring = standard_rings(asm.p)[ring_name]
        gens = asm.gamma.small_generating_set()
        lifts = enumerate_lifts(asm.rho_bar, ring, gens)
        dtype = _lift_keys(lifts, ring.size).dtype
        bench(
            f"deformation_classes {name}/{ring_name} at {gens} ({len(lifts)} lifts, {dtype} keys)",
            lambda: deformation_classes(asm.rho_bar, ring, lifts),
            repeat=5,
        )

    print("== oracle rows end to end (functor_compare) ==")
    from defring.oracle import functor_compare

    for name, ring_name in (("standard-d2p2", "Z4u"), ("twisted-p3n2", "dual"), ("standard-d2p7", "dual")):
        asm = assemble(parse_instance_name(name))
        rho_r = build_rho_R(asm, find_alpha(asm).alpha)
        ring = standard_rings(asm.p)[ring_name]
        bench(
            f"functor_compare {name}/{ring_name}",
            lambda asm=asm, rho_r=rho_r, ring=ring: functor_compare(asm, rho_r, ring),
            repeat=5,
        )

    from defring import cli

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
        argv = ["oracle", "twisted-p2n1", "--ring", "dual", "--out", os.path.join(tmp, "oracle.json")]
        bench(f"cli.main {' '.join(argv[:4])} --out FILE", lambda: cli.main(argv), repeat=5)

    print("== ring constructions: GR(p^3, 2) and PGL_2(F_q) ==")
    from defring.exactalg import galois_matrices
    from defring.groups import pgl2

    for p in (2, 3, 5, 7):
        bench(f"galois_matrices({p}, 3)", lambda p=p: galois_matrices(p, 3), repeat=5)
    for q in (4, 8, 9):
        bench(f"pgl2({q})", lambda q=q: pgl2(q), repeat=5)
    bench("symmetric_group(6)", lambda: symmetric_group(6), repeat=5)


if __name__ == "__main__":
    main()
