"""Structural identifications used by the certification arguments, and a
structural check on the package source."""

import ast
import re
from pathlib import Path

import numpy as np

from defring import kernels
from defring.certify import InstanceSpec, assemble
from defring.exactalg import solve_module
from defring.groups import FiniteGroup
from defring.modrep import Representation, hom_space

from reference import find_isomorphism, gamma_decode, is_projective_higman, subgroup, twisted_end_decomposition

SRC = Path(__file__).resolve().parent.parent / "src" / "defring"


def alternating_4():
    return FiniteGroup.from_permutations([(1, 0, 3, 2), (1, 2, 0, 3)], name="A4")


def test_index_two_subgroup_is_a4_for_p2():
    # Gamma_0 = K x| <zeta> inside the order-24 instance is alternating
    asm = assemble(InstanceSpec("twisted", 2, 1))
    gamma = asm.gamma
    G = asm.G
    zeta = G.generators[0]
    zeta_sub = set(G.closure([zeta]))
    elems = [e for e in range(gamma.order) if gamma_decode(gamma, e)[1] in zeta_sub]
    gamma0, _ = subgroup(gamma, elems)
    assert gamma0.order == 12
    assert find_isomorphism(gamma0, alternating_4()) is not None


def _coords_in(basis_rows, vec, p):
    sol = solve_module(basis_rows.T, vec, p, 1).particular
    assert sol is not None
    return sol


def test_multiplication_part_is_regular_quotient_module():
    # the complement of the sigma-part in End(V) carries the regular module
    # of the order-2 quotient: the multiplicative generator acts trivially
    # and the order-2 generator acts as an involution identifying it with
    # the 2-dimensional regular representation
    for p in (2, 3, 5):
        V, M, sigma_part, one_part = twisted_end_decomposition(p)
        G = V.group
        zeta, sigma = G.generators
        # zeta fixes the multiplication operators pointwise
        for v in one_part:
            assert ((M.mats[zeta] @ v) % p == v % p).all()
        # restrict the sigma action to the one_part coordinates
        imgs = []
        for v in one_part:
            w = (M.mats[sigma] @ v) % p
            imgs.append(_coords_in(one_part, w, p))
        S = np.stack(imgs, axis=1) % p
        assert ((S @ S) % p == np.eye(2, dtype=np.int64)).all()
        assert (S != np.eye(2, dtype=np.int64)).any()
        # as a module over the whole group it is isomorphic to the inflated
        # regular module of the order-2 quotient
        restricted = Representation(
            G, [np.eye(2, dtype=np.int64), S], p, 1
        )
        swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
        regular = Representation(
            G, [np.eye(2, dtype=np.int64), swap], p, 1
        )
        hs = hom_space(restricted, regular)
        from itertools import product as iproduct

        combos = (
            sum(c * H for c, H in zip(cs, hs.basis)) % p
            for cs in iproduct(range(p), repeat=len(hs.basis))
        )
        assert any(
            kernels.rank_modp(H, p) == 2 for H in combos
        ), f"no isomorphism onto the regular module at p={p}"


def test_end_decomposes_as_sigma_plus_regular():
    # End(V) = (simple sigma-part) (+) (regular part): both pieces are
    # projective and the sigma-part is simple of multiplicity one
    for p in (2, 3):
        V, M, sigma_part, one_part = twisted_end_decomposition(p)
        ok, _ = is_projective_higman(M)
        assert ok
        Kbar = None
        from defring.modrep import galois_module_rep, twisted_kernel_module

        Kbar = twisted_kernel_module(galois_module_rep(p, 1), 1)
        assert hom_space(Kbar, M).dimension == 1


# Equality and hashing are reached through == and hash(), which a search for
# the name cannot see; no caller in src/ needs them, so src/ defines neither,
# and a test compares the fields it means.
_FLAGGED_DUNDERS = ("__eq__", "__hash__")


def _definitions(tree):
    """The module-level functions and classes of a parsed module, and the
    public methods of its classes and their __eq__ and __hash__, as
    (qualified name, node)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                        not item.name.startswith("_") or item.name in _FLAGGED_DUNDERS
                    ):
                        yield f"{node.name}.{item.name}", item


def test_src_defines_no_test_only_names():
    # every name the package defines is used in the package outside its own
    # definition; what only the tests call belongs in tests/reference.py
    sources = {path: path.read_text().splitlines() for path in sorted(SRC.rglob("*.py"))}
    unused = []
    for path, lines in sources.items():
        for qualname, node in _definitions(ast.parse("\n".join(lines))):
            pattern = re.compile(rf"\b{re.escape(qualname.split('.')[-1])}\b")
            if not any(
                pattern.search(line)
                for other, other_lines in sources.items()
                for i, line in enumerate(other_lines, 1)
                if not (other == path and node.lineno <= i <= node.end_lineno)
            ):
                unused.append(f"{path.relative_to(SRC)}: {qualname}")
    assert not unused, f"defined in src/defring but used only outside it: {unused}"
