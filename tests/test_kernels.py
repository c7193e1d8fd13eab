import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defring
from defring import kernels
from defring.kernels._numpy import RANK_BLOCK


def random_matrix(rng, rows, cols, p):
    return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)


def test_rref_properties():
    rng = random.Random(9)
    for p in (2, 5):
        a = random_matrix(rng, 8, 6, p)
        r, pivots = kernels.rref_modp(a, p)
        for i, c in enumerate(pivots):
            assert r[i, c] == 1
            col = r[:, c].copy()
            col[i] = 0
            assert (col == 0).all()
        null = kernels.nullspace_modp(a, p)
        if len(null):
            assert ((a @ null.T) % p == 0).all()
        assert kernels.rank_modp(a, p) + len(null) == a.shape[1]


def test_solve_modp_solves():
    rng = random.Random(17)
    p = 3
    a = random_matrix(rng, 6, 4, p)
    x = random_matrix(rng, 4, 1, p).reshape(-1)
    b = (a @ x) % p
    sol = kernels.solve_modp(a, b, p)
    assert sol is not None
    assert ((a @ sol) % p == b).all()


def test_selected_backend_exposed():
    assert defring.KERNEL_BACKEND == "numpy"


# rows on both sides of the block size, tall, wide, zero and full-rank shapes
SHAPES = [
    (0, 5), (5, 0), (1, 1), (3, 40), (40, 3), (17, 17),
    (RANK_BLOCK - 1, 9), (RANK_BLOCK, 9), (RANK_BLOCK + 1, 9),
    (3 * RANK_BLOCK + 5, 24), (2 * RANK_BLOCK, 70),
]


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 65521]),
    shape=st.sampled_from(SHAPES),
    rank_cap=st.integers(0, 80),
    gradual=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_rank_equals_rref_rank(p, shape, rank_cap, gradual, seed):
    # a product of an (rows x k) and a (k x cols) factor has rank <= k; k at
    # least min(shape) gives full rank with high probability.  A gradual
    # left factor lets row i use only the first k*i/rows directions, so new
    # pivots keep turning up in later blocks, among dependent rows.
    rows, cols = shape
    k = min(rank_cap, rows, cols)
    rng = np.random.default_rng(seed)
    left = rng.integers(0, p, (rows, k), dtype=np.int64)
    if gradual:
        left *= np.arange(k) * rows <= np.arange(rows)[:, None] * k
    right = rng.integers(0, p, (k, cols), dtype=np.int64)
    a = (left @ right) % p
    if rng.integers(2):
        a = a - p * rng.integers(-3, 3, shape)  # unreduced representatives
    expected = len(kernels.rref_modp(a, p)[1])
    assert kernels.rank_modp(a, p) == expected
    assert expected <= k


def test_blocked_rank_finds_pivots_in_later_blocks():
    # row i lies in the span of the first 30*i/rows rows of `right`: each
    # block brings new pivots, mixed with rows the earlier blocks span, and
    # the rank stays below the 40 columns
    rng = np.random.default_rng(11)
    rows = 6 * RANK_BLOCK + 7
    for p in (2, 3, 5, 65521):
        left = rng.integers(0, p, (rows, 30), dtype=np.int64)
        left *= np.arange(30) * rows <= np.arange(rows)[:, None] * 30
        a = (left @ rng.integers(0, p, (30, 40), dtype=np.int64)) % p
        expected = len(kernels.rref_modp(a, p)[1])
        assert 25 <= expected <= 30
        assert kernels.rank_modp(a, p) == expected


def test_blocked_rank_full_column_rank():
    # the first block reaches rank = cols; the blocks after it are not read
    p = 5
    a = np.vstack([np.eye(6, dtype=np.int64), np.ones((3 * RANK_BLOCK, 6), dtype=np.int64)])
    assert kernels.rank_modp(a, p) == 6


def test_blocked_rank_refuses_inexact_float64():
    # cols * (p-1)^2 >= 2^53: the float64 products would not be exact
    with pytest.raises(ValueError, match="float64"):
        kernels.rank_modp(np.eye(2, dtype=np.int64), 2**31 - 1)


def test_table_matmul_matches_entrywise_sums():
    from defring.localalg import nilpotent_socle_ring

    A = nilpotent_socle_ring(2)
    add, mul, _, _ = A.tables()
    rng = np.random.default_rng(5)
    a = rng.integers(0, A.size, (40, 2, 3), dtype=np.int64)
    b = rng.integers(0, A.size, (40, 3, 2), dtype=np.int64)
    c = kernels.table_matmul(a, b, add, mul)
    for n, i, j in np.ndindex(c.shape):
        acc = mul[a[n, i, 0], b[n, 0, j]]
        for k in range(1, 3):
            acc = add[acc, mul[a[n, i, k], b[n, k, j]]]
        assert c[n, i, j] == acc
