"""Spot checks tied to specific documented behaviors that the larger suites
exercise only implicitly."""

import numpy as np

from defring.certify import AlphaMap, InstanceSpec, assemble, exp_lift_on_kernel, scalar_control_module
from defring.cohomology import BarComplex, h2_dim, trivial_module
from defring.groups import FiniteGroup, symmetric_group
from defring.localalg import make_ring_Rprime_2_1


def test_bar_differentials_compose_to_zero():
    # d2 . d1 = 0 on the normalized complex, with d2 the cocycle condition E
    # on the generator values u(g, t) = f(g, s_t), which d1's rows (g, s)
    # give for f = d1 y
    G = symmetric_group(3)
    M = trivial_module(G, 2)
    cx = BarComplex(M)
    d1 = cx.d1_matrix(cx.gens)
    d2 = cx.d2_matrix()
    assert ((d2 @ d1) % 2 == 0).all()


def test_exp_lift_zero_alpha_is_trivial():
    # alpha = 0 on an odd-p kernel: the exponential lift is the constant
    # identity homomorphism
    asm = assemble(InstanceSpec("twisted", 3, 1, control="commutative"))
    zero = AlphaMap(3, 1, 2, 2, np.zeros((4, 2), dtype=np.int64))
    report = exp_lift_on_kernel(asm.K, zero, asm.N)
    assert report.verified


def test_exp_lift_nilpotent_alpha_with_a0():
    # a synthetic rank-1 kernel mapped onto a square-zero matrix: the a = 0
    # variant of the small extension ring verifies (1+tA)^2 = 1 + t^2 A^2 = 1
    G = symmetric_group(3)
    K = scalar_control_module(G, 2)
    nilp = np.array([[0, 1], [0, 0]], dtype=np.int64)
    alpha = AlphaMap(2, 1, 2, 1, nilp.reshape(4, 1))
    report = exp_lift_on_kernel(K, alpha, 3, a_hat=0)
    assert report.verified
    assert report.variant == "even-n1-clause"
    # the same identity at ring level
    Rp = make_ring_Rprime_2_1(0, N=3)
    x = Rp.reduce((1, 1, 0))
    assert Rp.mul(x, x).tolist() == [1, 0, 1]  # (1+t)^2 = 1 + t^2 when a = 0


def test_h2_direct_on_the_trivial_group():
    # no generators and no unknowns: d1 and E are empty, and so is H^2
    G = FiniteGroup(np.zeros((1, 1)), [])
    for p in (2, 3):
        cx = BarComplex(trivial_module(G, p))
        assert cx.d1_matrix(np.arange(1, cx.n)).shape == cx.d2_matrix().shape == (0, 0)
        assert cx.h2_dim_direct() == 0
        assert h2_dim(trivial_module(G, p)) == 0
