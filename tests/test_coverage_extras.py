"""Spot checks tied to specific documented behaviors that the larger suites
exercise only implicitly."""

import numpy as np
import pytest

from defring.certify import AlphaMap, InstanceSpec, assemble, exp_lift_on_kernel, scalar_control_module
from defring.cohomology import BarComplex, trivial_module
from defring.groups import symmetric_group
from defring.localalg import make_ring_Rprime_2_1
from defring.oracle import OracleError, enumerate_lifts


def test_bar_differentials_compose_to_zero():
    # d2 . d1 = 0 on the normalized complex
    G = symmetric_group(3)
    M = trivial_module(G, 2)
    cx = BarComplex(M)
    d1 = cx.d1_matrix()
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
    assert Rp.mul(x, x) == (1, 0, 1)  # (1+t)^2 = 1 + t^2 when a = 0


def test_guard_override_env(monkeypatch):
    asm = assemble(InstanceSpec("twisted", 2, 1))
    from defring.localalg import standard_rings

    A = standard_rings(2)["dual"]
    monkeypatch.setenv("DEFRING_GUARD_OVERRIDE", "10")
    with pytest.raises(OracleError):
        enumerate_lifts(asm.rho_bar, A)
    monkeypatch.delenv("DEFRING_GUARD_OVERRIDE")
    assert len(enumerate_lifts(asm.rho_bar, A)) > 0
