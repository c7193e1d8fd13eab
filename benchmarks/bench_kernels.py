"""Time the numpy kernels on the workloads that dominate the pipeline.

Mod-p elimination (random matrices, plus the H^2 d2 matrix of SD_16 and the
tallest H^1 system of the acceptance battery: the Fox-derivative rows of
standard-d4p2's presentation), H^1 end to end on four of the largest
battery instances, table-driven batched matrix products (oracle
enumeration) and the construction of Gamma = K x| G for three of the largest
battery instances.  Also times one end-to-end oracle enumeration, and the
enumeration and the class partition on three rows of the oracle benchmark,
and the constructions of GR(p^3, 2) (`galois_matrices`) and PGL_2(F_q).
Each row is the best of a few repeats.

Usage: python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import time

import numpy as np

from defring import kernels


def timeit(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench(name, fn, repeat=3):
    print(f"{name:<46} {timeit(fn, repeat) * 1e3:9.2f} ms", flush=True)


def program_rank_inputs():
    """(label, matrix, p) of two matrices the program ranks: the d2 matrix of
    direct H^2(SD_16, F_2) and the H^1 Fox-derivative system of
    standard-d4p2, the tallest one a certify of the acceptance battery
    builds."""
    from defring import cohomology
    from defring.certify import assemble, parse_instance_name
    from defring.groups import twisted_frobenius_group
    from defring.modrep import end_rep

    sd16 = cohomology.trivial_module(twisted_frobenius_group(3), 2)
    inputs = [("SD16 d2", cohomology.BarComplex(sd16).d2_matrix(), 2)]
    asm = assemble(parse_instance_name("standard-d4p2"))
    ranked = []
    saved = kernels.rank_modp

    def record(a, p):
        ranked.append((a, p))
        return saved(a, p)

    kernels.rank_modp = record
    try:
        cohomology.h1_dim(end_rep(asm.rho_bar))
    finally:
        kernels.rank_modp = saved
    system, p = max(ranked, key=lambda item: item[0].shape[0])
    inputs.append(("standard-d4p2 H^1 Fox", system, p))
    return inputs


def main():
    rng = np.random.default_rng(0)

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

    print("== H^1(Gamma, End V) (cohomology.h1_dim) ==")
    from defring.certify import assemble, parse_instance_name
    from defring.cohomology import h1_dim
    from defring.modrep import end_rep

    for name in ("twisted-p3n2", "twisted-p5n1", "standard-d3p3", "standard-d4p2"):
        M = end_rep(assemble(parse_instance_name(name)).rho_bar)
        bench(f"h1_dim {name} (|Gamma| = {M.group.order})", lambda M=M: h1_dim(M))

    print("== table-driven batched matmul ==")
    from defring.localalg import nilpotent_socle_ring, truncated_polynomials

    for ring in (nilpotent_socle_ring(2), truncated_polynomials(2, 3)):
        add, mul, _, _ = ring.tables()
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

    print("== end-to-end oracle enumeration (S4, F2[t]/t^3) ==")
    from defring.localalg import standard_rings
    from defring.oracle import deformation_classes, enumerate_lifts

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

    print("== ring constructions: GR(p^3, 2) and PGL_2(F_q) ==")
    from defring.exactalg import galois_matrices
    from defring.groups import pgl2

    for p in (2, 3, 5, 7):
        bench(f"galois_matrices({p}, 3)", lambda p=p: galois_matrices(p, 3), repeat=5)
    for q in (4, 8, 9):
        bench(f"pgl2({q})", lambda q=q: pgl2(q), repeat=5)


if __name__ == "__main__":
    main()
