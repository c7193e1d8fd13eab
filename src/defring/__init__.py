"""defring: exact certification of the universal deformation ring W[[t]]/(p^n t, t^2).

The package constructs explicit finite groups Gamma = K x| G together with
mod-p representations V, checks by finite computation the two ring-theoretic
conditions that pin the universal deformation ring down to W[[t]]/(p^n t, t^2),
builds the witnessing lift over that ring, and cross-validates against a
brute-force enumeration of the deformation functor on small Artinian test
rings.
"""

__version__ = "0.1.0"

KERNEL_BACKEND = "numpy"  # the kernels have one implementation; benchmark runs record it
