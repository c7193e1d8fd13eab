import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defring
from defring import kernels
from defring.exactalg import solve_module
from defring.kernels._numpy import RANK_BLOCK, _fmod
from defring.localalg import standard_ring_builders

from reference import nullspace_modp, rref_modp_columnwise


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
        null = nullspace_modp(a, p)
        if len(null):
            assert ((a @ null.T) % p == 0).all()
        assert kernels.rank_modp(a, p) + len(null) == a.shape[1]


@settings(max_examples=80, deadline=None)
@given(
    pN=st.sampled_from([(2, 1), (3, 1), (7, 1), (2, 3), (3, 2), (5, 2), (2, 33)]),
    rows=st.integers(1, 9),
    cols=st.integers(1, 14),
    rank=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_rref_modp_matches_the_columnwise_reference(pN, rows, cols, rank, seed):
    # low rank, zero columns and columns scaled by powers of p, so that
    # columns are zero in the remaining rows with pivots above them; at
    # p^N = 2^33 the entries are Python ints
    p, N = pN
    m = p**N
    rng = random.Random(seed)
    left = [[rng.randrange(m) for _ in range(rank)] for _ in range(rows)]
    right = [
        [rng.randrange(m) * p ** rng.randrange(N + 1) * (rng.random() > 0.3) for _ in range(cols)]
        for _ in range(rank)
    ]
    a = [[sum(x * y for x, y in zip(row, col)) % m for col in zip(*right)] for row in left]
    r, pivots = kernels.rref_modp(a, p, N)
    expected, expected_pivots = rref_modp_columnwise(a, p, N)
    assert pivots == expected_pivots
    assert r.dtype == expected.dtype and r.shape == expected.shape
    assert (r.tolist() if r.dtype == object else r.tobytes()) == (
        expected.tolist() if expected.dtype == object else expected.tobytes()
    )


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(0, 12),
    cols=st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65]),
    rank=st.integers(0, 8),
    form=st.sampled_from(["array", "list", "object"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rref_modp_over_f2_matches_the_columnwise_reference(rows, cols, rank, form, seed):
    # widths around the byte and word edges of the packed rows; rank 0 is
    # the zero matrix mod 2, and the offsets give negative entries and
    # entries >= 2.  Z/4 (N = 2) keeps the Howell loop.
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, (rows, rank)) @ rng.integers(0, 2, (rank, cols)) * (rng.random(cols) > 0.3)
    a = a + 2 * rng.integers(-3, 3, a.shape)
    if form == "object":
        a = a.astype(object)
    elif form == "list" and rows:  # a list of no rows has no width
        a = a.tolist()
    for N in (1, 2):
        r, pivots = kernels.rref_modp(a, 2, N)
        expected, expected_pivots = rref_modp_columnwise(a, 2, N)
        assert pivots == expected_pivots
        assert r.dtype == expected.dtype and r.shape == expected.shape
        assert r.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(3 * RANK_BLOCK + 5, 9), (2 * RANK_BLOCK, 64), (RANK_BLOCK + 1, 65), (4 * RANK_BLOCK, 1)]),
    deficient=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_modp_over_f2_matches_the_columnwise_reference(shape, deficient, seed):
    # tall matrices: a full-rank one (an identity planted among random rows)
    # stops at the block that reaches rank = cols; a deficient one, whose
    # row i uses only the first (cols - 1) i / rows directions, reads every
    # block and finds pivots in later ones
    rows, cols = shape
    rng = np.random.default_rng(seed)
    if deficient:
        k = cols - 1
        left = rng.integers(0, 2, (rows, k)) * (np.arange(k) * rows <= np.arange(rows)[:, None] * k)
        a = left @ rng.integers(0, 2, (k, cols))
    else:
        a = rng.integers(0, 2, (rows, cols))
        start = rng.integers(rows - cols + 1)
        a[start : start + cols] = np.eye(cols, dtype=np.int64)
    a = a + 2 * rng.integers(-3, 3, a.shape)
    expected = len(rref_modp_columnwise(a, 2)[1])
    assert kernels.rank_modp(a, 2) == expected
    assert (expected == cols) != deficient


def test_solve_modp_solves():
    rng = random.Random(17)
    p = 3
    a = random_matrix(rng, 6, 4, p)
    x = random_matrix(rng, 4, 1, p).reshape(-1)
    b = (a @ x) % p
    sol = solve_module(a, b, p, 1).particular
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


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 65521, 2**31 - 1]) | st.integers(2, 2**40),
    quotients=st.lists(st.integers(-(2**53), 2**53), min_size=1, max_size=20),
    offsets=st.lists(st.integers(-2, 2), min_size=1, max_size=20),
    extremes=st.booleans(),
)
def test_fmod_matches_np_mod(p, quotients, offsets, extremes):
    # floats x = q p + o near multiples of p, where a rounded quotient x / p
    # would land on the next integer if it erred by 1/p, up to |x| = 2^53 - p
    bound = 2**53 - p
    xs = [max(-bound, min(bound, q // p * p + o)) for q, o in zip(quotients, offsets)]
    if extremes:
        xs += [bound, -bound, 0, p - 1, -1, 1 - p]
    x = np.array(xs, dtype=np.float64)
    assert np.array_equal(_fmod(x, p), np.mod(x, p))


@settings(max_examples=200, deadline=None)
@given(
    m=st.sampled_from([2, 4, 2**20]),
    entries=st.lists(
        st.integers(-(2**63), 2**63 - 1) | st.integers(-(2**62) - 9, -(2**62) + 9) | st.integers(2**62 - 9, 2**62 + 9),
        max_size=30,
    ),
)
def test_residues_mod_a_power_of_two_match_the_remainder(m, entries):
    # the & (m - 1) route on int64, negative entries included
    a = np.array(entries, dtype=np.int64)
    r = kernels.residues(a, m)
    assert r.dtype == np.int64
    assert np.array_equal(r, a % m)


def test_blocked_rank_refuses_inexact_float64():
    # cols * (p-1)^2 >= 2^53: the float64 products would not be exact
    with pytest.raises(ValueError, match="float64"):
        kernels.rank_modp(np.eye(2, dtype=np.int64), 2**31 - 1)


RINGS = [(p, name) for p in (2, 3) for name in standard_ring_builders(p)]


@settings(max_examples=80, deadline=None)
@given(
    ring=st.sampled_from(RINGS),
    dims=st.tuples(*[st.integers(1, 3)] * 3),
    batch=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_matmul_matches_entrywise_sums(ring, dims, batch, seed):
    # every test ring of the oracle, with batch 0 and k = 1 among the shapes
    p, name = ring
    A = standard_ring_builders(p)[name]()
    add, mul, _ = A.tables()
    d, k, m = dims
    rng = np.random.default_rng(seed)
    a = rng.integers(0, A.size, (batch, d, k), dtype=np.int64)
    b = rng.integers(0, A.size, (batch, k, m), dtype=np.int64)
    c = kernels.table_matmul(a, b, add, mul)
    assert c.shape == (batch, d, m)
    for n, i, j in np.ndindex(c.shape):
        acc = mul[a[n, i, 0], b[n, 0, j]]
        for t in range(1, k):
            acc = add[acc, mul[a[n, i, t], b[n, t, j]]]
        assert c[n, i, j] == acc
