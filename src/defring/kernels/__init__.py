"""Hot numeric kernels: Howell-form elimination over Z/p^N, blocked rank mod p
and table-driven matrix products.

The numpy implementations live in ``_numpy``; callers reach them through this
namespace, so ``rank_modp`` calling ``rref_modp`` stays inside the submodule.
"""

from ._numpy import rank_modp, residues, rref_modp, table_matmul

__all__ = ["residues", "rref_modp", "rank_modp", "table_matmul"]
