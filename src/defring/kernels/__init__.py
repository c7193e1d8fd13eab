"""Hot numeric kernels: mod-p elimination and table-driven matrix products.

The numpy implementations live in ``_numpy``; callers reach them through this
namespace, so ``rank_modp`` calling ``rref_modp`` stays inside the submodule.
"""

from ._numpy import rank_modp, rref_modp, solve_modp, table_matmul

__all__ = ["rref_modp", "rank_modp", "solve_modp", "table_matmul"]
