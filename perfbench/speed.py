"""Machine-speed calibration.

The speed of a shared host drifts by a fifth to a third within a minute, in
CPU time as much as in wall time, so raw timings of one build spread past any
useful bound.  The drift is common to work of one kind: a fixed loop shaped
like an operation's work, run next to it, slows down by the same factor as
the operation.  Work of another kind moves by another factor: interpreter-bound
work swings much more than whole-array numpy updates on arrays larger than
the cache.  So there is one loop per kind of work, and workloads.CALIBRATION
gives each workload the loop shaped like the work that dominates it.

Each timing is divided by the time of that loop measured next to it, and
multiplied by the loop's time at reference speed (`REF_S`).  The result is
the operation's time on a machine of reference speed, in seconds.  The loops
do not touch defring, so a change to defring moves the normalised times
exactly as it moves the raw ones.  Never change a loop or `REF_S` in the same
change as the program: that rescales every end-to-end time.
"""

from __future__ import annotations

import time

import numpy as np

# Each loop's median time on a 2-vCPU x86-64 VM with CPython 3.11 and numpy
# 2.4; only a scale, so that normalised times read as seconds.
REF_S = {"python": 0.022, "small": 0.022, "gather": 0.029, "array": 0.045}


def python_loop() -> int:
    """Fixed work shaped like defring's pure-Python algebra, such as
    localalg's element arithmetic: many small function calls that build
    tuples of ints, reduce them with divmod and collect them in a set."""
    orders = (3**7, 3)

    def reduce(raw):
        out = [int(x) for x in raw]
        for i in range(len(out)):
            _, out[i] = divmod(out[i], orders[i])
        return tuple(out)

    def add(x, y):
        return reduce([a + b for a, b in zip(x, y)])

    seen = set()
    x, g = (1, 1), (5, 2)
    for _ in range(8000):
        x = add(x, g)
        seen.add(x)
    return len(seen)


def small_loop() -> int:
    """Fixed work shaped like defring's numpy code on small matrices: numpy
    operations of a few microseconds each, so that the interpreter's dispatch
    between them takes most of the time."""
    a = np.arange(32 * 32, dtype=np.int64).reshape(32, 32) % 7
    for _ in range(1800):
        a = (a + a[::-1]) % 7
        a[0] = a[1] * 3 % 7
    return int(a[0, 0])


def array_loop() -> int:
    """Fixed work shaped like rref_modp on a large matrix: whole-matrix
    rank-one updates mod p on an array that does not fit in cache."""
    r = (np.arange(700 * 700, dtype=np.int64).reshape(700, 700) * 7919) % 5
    for i in range(12):
        column = r[:, i].copy()
        r -= np.outer(column, r[i])
        r %= 5
    return int(r[0, 0])


def gather_loop() -> int:
    """Fixed work shaped like the oracle's table_matmul: 2 x 2 matrix
    products over a ring of order 8 given by operation tables, one batch of
    65,536 products, then 400 batches of 81."""
    add = np.add.outer(np.arange(8), np.arange(8)) % 8
    mul = np.multiply.outer(np.arange(8), np.arange(8)) % 8

    def products(a):
        prod = mul[a[:, :, None, :], a.transpose(0, 2, 1)[:, None, :, :]]
        return add[prod[..., 0], prod[..., 1]]

    big = (np.arange(65536 * 4) * 7919 % 8).reshape(65536, 2, 2)
    acc = int(products(big)[0, 0, 0])
    small = big[:81]
    for _ in range(400):
        small = products(small)
    return acc + int(small[0, 0, 0])


LOOPS = {"python": python_loop, "small": small_loop, "gather": gather_loop, "array": array_loop}


def loop_s(kind: str) -> float:
    """Seconds that one run of the `kind` loop takes now."""
    t0 = time.perf_counter()
    LOOPS[kind]()
    return time.perf_counter() - t0
