"""Certification that the universal deformation ring is W[[t]]/(p^n t, t^2).

For an instance Gamma = K x| G with kernel module K (a `Representation` of G
over Z/p^n; for the standard family K is V itself) and mod-p representation
V inflated from G, the certificate records the finite checks that pin the
deformation ring down:

  (a) Hom_G(K/pK, End V) is one-dimensional over F_p;
  (b) there is an injective equivariant alpha : K -> End(V_W)/p^n whose
      image either fails to commute mod p, or (p = 2, n = 1) admits no
      scalar a with alpha(g)^2 = a*alpha(g) for all g;

together with the explicit lift rho_R(k, g) = (1 + t*alpha(k)) rho_W(g) over
R = W[[t]]/(p^n t, t^2), verified to be a faithful homomorphism, and the
tangent-space cross-check dim H^1(Gamma, End V) = 1.

Negative controls replace K by a module with commutative alpha-image; the
verdict flips to refuted and the small-extension exponential lift over the
matching extension ring R' is constructed instead, exhibiting exactly the
extra lift that universality forbids.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .cohomology import h1_dim
from .exactalg import PrecisionError, galois_matrices, solve_module
from .groups import FiniteGroup, GroupError, SemidirectGroup, pgl2, semidirect_product, symmetric_group, twisted_frobenius_group, violated_relators
from .localalg import AlgebraError, AlgMatrix, ArtinLocalAlgebra, make_ring_R, make_ring_Rprime, make_ring_Rprime_2_1
from .modrep import (
    Representation,
    RepresentationError,
    difference_basis_matrices,
    end_rep,
    galois_module_rep,
    hom_space,
    standard_perm_rep,
    twisted_kernel_module,
)


class CertifyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstanceSpec:
    """An addressable certification instance.

    family "twisted": parameters (p, n); family "standard": parameters
    (d, p) with n = 1.  `control` selects a negative-control kernel module:
    "commutative" (the regular module of the order-2 quotient, commuting
    alpha-image) or "scalar" (rank-1 trivial module mapping onto scalars).
    """

    family: str
    p: int
    n: int = 1
    d: int | None = None
    N: int | None = None
    control: str | None = None

    @property
    def precision(self) -> int:
        return self.N if self.N is not None else self.n + 2

    @property
    def name(self) -> str:
        if self.family == "twisted":
            base = f"twisted-p{self.p}n{self.n}"
        else:
            base = f"standard-d{self.d}p{self.p}"
        if self.control:
            base += f"-{self.control}"
        return base


def parse_instance_name(text: str) -> InstanceSpec:
    m = re.fullmatch(r"twisted-p(\d+)n(\d+)(?:-(commutative|scalar))?", text)
    if m:
        return InstanceSpec("twisted", int(m.group(1)), int(m.group(2)), control=m.group(3))
    m = re.fullmatch(r"standard-d(\d+)p(\d+)(?:-(commutative|scalar))?", text)
    if m:
        return InstanceSpec("standard", int(m.group(2)), 1, d=int(m.group(1)), control=m.group(3))
    raise CertifyError(f"unrecognized instance name: {text!r}")


def commutative_control_module(p: int, n: int) -> Representation:
    """Rank-2 module where the multiplicative generator acts trivially and
    the order-2 generator acts by Frobenius: the regular module of the
    order-2 quotient, whose alpha-images are multiplication operators and
    therefore commute."""
    gen_mats = [np.eye(2, dtype=np.int64), galois_matrices(p, n)[1]]
    return Representation.from_generator_images(twisted_frobenius_group(p), gen_mats, p, n)


def scalar_control_module(group: FiniteGroup, p: int) -> Representation:
    """Rank-1 trivial module; alpha lands in the scalar matrices."""
    eye = np.eye(1, dtype=np.int64)
    return Representation.from_generator_images(group, [eye for _ in group.generators], p, 1)


@dataclass
class Assembly:
    spec: InstanceSpec
    G: FiniteGroup
    K: Representation  # the G-module K over Z/p^n
    gamma: SemidirectGroup
    rho_bar_g: Representation  # V as a G-representation over F_p
    rho_bar: Representation  # inflation to Gamma
    rho_w: Representation  # lift of V over Z/p^N
    M: Representation  # End(V) over F_p, G-action
    MW_mod_pn: Representation  # End(V_W)/p^n, G-action
    ring: ArtinLocalAlgebra

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def N(self) -> int:
        return self.spec.precision


def integral_standard_lift(G: FiniteGroup, p: int, N: int) -> Representation:
    """The standard piece of the permutation lattice over Z/p^N: the
    generator matrices in the difference basis have integer entries, so the
    mod-p^N reduction is a homomorphic lift of the mod-p representation."""
    return Representation.from_generator_images(G, difference_basis_matrices(G), p, N)


def assemble(spec: InstanceSpec) -> Assembly:
    p, n, N = spec.p, spec.n, spec.precision
    # int64 products of d x d matrices over Z/p^N are exact while (p^N)^2 * d < 2^63.
    # Every p >= 2^32 fails that for all N, d >= 1, whatever the spec gives for
    # them; refusing it first keeps the trial division below 2^16 steps.
    if p >= 2**32:
        raise PrecisionError(
            f"p = {p} is too large: exact int64 products need (p^N)^2 * d < 2^63"
        )
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise CertifyError(f"p = {p} is not a prime")
    d = 2 if spec.family == "twisted" else spec.d
    # p >= 2, so N >= 32 fails the bound without computing a large power p^N
    if N >= 32 or (d and (p**N) ** 2 * d >= 2**63):
        product = (
            "p^N >= 2^32"
            if N >= 32
            else f"(p^N)^2 * d = {(p**N) ** 2 * d} (p^N = {p**N})"
        )
        raise PrecisionError(
            f"precision too large: p = {p}, N = {N}, d = {d} gives {product}, "
            f"but exact int64 products need (p^N)^2 * d < 2^63"
        )
    ring = make_ring_R(p, n, N)  # first: it refuses N <= n before anything uses N
    if spec.family == "twisted":
        rho_w = galois_module_rep(p, N)
        G = rho_w.group
        rho_bar_g = rho_w.reduce_mod(1)
        if spec.control is None:
            K = twisted_kernel_module(p, n)
        elif spec.control == "commutative":
            K = commutative_control_module(p, n)
        elif spec.control == "scalar":
            K = scalar_control_module(G, p)
        else:
            raise CertifyError(f"unknown control {spec.control!r}")
    elif spec.family == "standard":
        if spec.d is None:
            raise CertifyError("standard instance needs a degree d")
        if n != 1:
            raise CertifyError("standard instances are n = 1")
        from .modrep import admissible_degree

        if not admissible_degree(spec.d, p):
            raise CertifyError(
                f"(d, p) = ({spec.d}, {p}) inadmissible: need d < p-1 or d = p^f"
            )
        G = symmetric_group(spec.d + 1) if spec.d < p - 1 else pgl2(spec.d)
        pieces = standard_perm_rep(G, p)
        rho_bar_g = pieces.standard
        rho_w = integral_standard_lift(G, p, N)
        if spec.control is None:
            K = rho_bar_g
        elif spec.control == "scalar":
            K = scalar_control_module(G, p)
        else:
            raise CertifyError("standard family supports only the scalar control")
    else:
        raise CertifyError(f"unknown family {spec.family!r}")
    if (rho_w.reduce_mod(1).mats != rho_bar_g.mats).any():
        raise CertifyError("lift does not reduce to the mod-p representation")
    gamma = semidirect_product(K, G)
    rho_bar = rho_bar_g.inflate(gamma.quotient_hom())
    M = end_rep(rho_bar_g)
    MW_mod_pn = end_rep(rho_w).reduce_mod(n)
    return Assembly(spec, G, K, gamma, rho_bar_g, rho_bar, rho_w, M, MW_mod_pn, ring)


# ---------------------------------------------------------------------------
# Condition (a)
# ---------------------------------------------------------------------------


@dataclass
class ConditionA:
    dim: int
    passed: bool


def check_condition_a(asm: Assembly) -> ConditionA:
    dim = hom_space(asm.K.reduce_mod(1), asm.M).dimension
    return ConditionA(dim, dim == 1)


# ---------------------------------------------------------------------------
# Condition (b): the map alpha
# ---------------------------------------------------------------------------


@dataclass
class AlphaMap:
    """An equivariant homomorphism K -> End(V_W)/p^n in matrix form."""

    p: int
    n: int
    d: int
    rank: int
    matrix: np.ndarray  # (d*d, rank) over Z/p^n, columns = images of basis

    def of_vec(self, kvec) -> np.ndarray:
        return self.of_vecs(np.asarray(kvec)[None])[0]

    def of_vecs(self, kvecs: np.ndarray) -> np.ndarray:
        """alpha on a stack of vectors of K, one (d, d) matrix per row."""
        m = self.p**self.n
        return ((kvecs % m) @ self.matrix.T % m).reshape(-1, self.d, self.d)

    def kernel_trivial(self) -> bool:
        sol = solve_module(self.matrix.tolist(), [0] * (self.d * self.d), self.p, self.n)
        return not sol.kernel.generators

    def residue_nonzero(self) -> bool:
        return bool((self.matrix % self.p != 0).any())

    def to_json_dict(self) -> dict:
        return {
            "modulus": self.p**self.n,
            "matrix": self.matrix.tolist(),
        }


@dataclass
class ConditionB:
    status: str  # "ok" | "no_injective_generator" | "commutative_image"
    alpha: AlphaMap | None
    injective: bool
    residue_nonzero: bool
    witness: tuple[list[int], list[int]] | None  # basis vectors of K
    bullet_noncommuting: bool
    clause_p2n1: list[dict] | None  # per a: violating g or None
    bullet_no_scalar: bool
    hom_invariant_factors: list[int] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.status != "no_injective_generator"
            and self.injective
            and (self.bullet_noncommuting or self.bullet_no_scalar)
        )


def _kernel_elements(K: Representation):
    """Every vector of K as a tuple, in encoding order."""
    return map(tuple, K.vectors().tolist())


def _noncommuting(alpha: AlphaMap, u, v) -> bool:
    """alpha(u) and alpha(v) fail to commute mod p."""
    p = alpha.p
    au, av = alpha.of_vec(u) % p, alpha.of_vec(v) % p
    return bool(((au @ av) % p != (av @ au) % p).any())


def _violates_scalar(alpha: AlphaMap, k, a: int) -> bool:
    """alpha(k)^2 != a alpha(k) mod p."""
    p = alpha.p
    ak = alpha.of_vec(k) % p
    return bool(((ak @ ak) % p != (a * ak) % p).any())


def evaluate_condition_b(alpha: AlphaMap, witness, clause, invariant_factors=()) -> ConditionB:
    """Condition (b) on given evidence: alpha, a candidate non-commuting
    pair of vectors of K, and (p = 2, n = 1) the no-scalar clause, a
    vector violating alpha(g)^2 = a alpha(g) for a = 0 and a = 1.  The
    callers give the clause in that shape (`_condition_b_shape_problems`)."""
    noncommuting = witness is not None and _noncommuting(alpha, *witness)
    no_scalar = clause is not None and all(
        entry["violating_g"] is not None
        and _violates_scalar(alpha, entry["violating_g"], entry["a"])
        for entry in clause
    )
    return ConditionB(
        "ok" if noncommuting or no_scalar else "commutative_image",
        alpha,
        alpha.kernel_trivial(),
        alpha.residue_nonzero(),
        witness,
        noncommuting,
        clause,
        no_scalar,
        list(invariant_factors),
    )


def find_alpha(asm: Assembly) -> ConditionB:
    """Pick the first injective Howell generator of Hom_G(K, End(V_W)/p^n)
    and search for the evidence of both disjuncts of condition (b): a
    non-commuting pair among the basis pairs of K, and (p = 2, n = 1) for
    each scalar a the first vector of K violating alpha(g)^2 = a alpha(g)."""
    p, n = asm.p, asm.n
    hs = hom_space(asm.K, asm.MW_mod_pn)
    alpha = None
    for H in hs.basis:
        cand = AlphaMap(p, n, asm.rho_w.degree, asm.K.degree, H)
        if cand.kernel_trivial() and cand.residue_nonzero():
            alpha = cand
            break
    if alpha is None:
        return ConditionB(
            "no_injective_generator", None, False, False, None, False, None, False,
            hs.invariant_factors,
        )

    # the commutator is bilinear, so a pair of K fails to commute mod p
    # exactly when a pair of basis vectors does
    basis_vecs = asm.K.basis_vectors()
    witness = next(
        ((list(u), list(v)) for u in basis_vecs for v in basis_vecs if _noncommuting(alpha, u, v)),
        None,
    )

    clause = None
    if p == 2 and n == 1:
        clause = [
            {
                "a": a,
                "violating_g": next(
                    (list(k) for k in _kernel_elements(asm.K) if _violates_scalar(alpha, k, a)),
                    None,
                ),
            }
            for a in range(p)
        ]
    return evaluate_condition_b(alpha, witness, clause, hs.invariant_factors)


# ---------------------------------------------------------------------------
# The lift over R
# ---------------------------------------------------------------------------


@dataclass
class RhoR:
    """rho_R(k, g) = (1 + t alpha(k)) rho_W(g) over R = W (+) (W/p^n)t."""

    asm: Assembly
    alpha: AlphaMap
    faithful: bool
    order_checks_passed: bool

    def at(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """rho_R(e) for e = (k, g) as its two coordinates in R:
        (rho_W(g) mod p^N, alpha(k) rho_W(g) mod p^n)."""
        kvec, g = self.asm.gamma.decode(e)
        w = self.asm.rho_w.mats[g]
        return w, self.alpha.of_vec(kvec) @ w % self.asm.p**self.asm.n

    def generator_matrices(self) -> list[AlgMatrix]:
        out = []
        for g in self.asm.gamma.generators:
            w, t = self.at(g)
            rows = [[(int(a), int(b)) for a, b in zip(w_row, t_row)] for w_row, t_row in zip(w, t)]
            out.append(AlgMatrix.from_rows(self.asm.ring, rows))
        return out


def build_rho_R(asm: Assembly, alpha: AlphaMap) -> RhoR:
    """Check rho_R(k, g) = (1 + t alpha(k)) rho_W(g) on Gamma's generators.

    A value w + t u of rho_R is kept as the pair (w mod p^N, u mod p^n); as
    t^2 = p^n t = 0, pairs multiply by (w1, u1)(w2, u2) = (w1 w2, w1 u2 + u1 w2).
    The generators x_i = (e_i, 1) and y_s = (0, s) of Gamma's presentation
    (`FiniteGroup.relators`) go to (1, alpha(e_i)) and (rho_W(s), 0).  If
    every relator holds there, von Dyck's theorem gives a homomorphism, and
    it is rho_R: (k, g) is X(k) times a word in the y's, and it goes to
    (1, alpha(k)) (rho_W(g), 0), as alpha is additive and rho_W (validated
    when it was built) multiplicative.  The relators y_s x_i = X(s.e_i) y_s
    say rho_W(s) alpha(e_i) = alpha(s.e_i) rho_W(s), which is the
    equivariance of alpha; G's relators check rho_W on the y's.

    rho_R(k, g) = 1 exactly when rho_W(g) = 1 and alpha(k) rho_W(g) = 0, that
    is alpha(k) = 0, so rho_R is faithful exactly when rho_W is faithful and
    alpha injective; neither needs a listing of Gamma.
    """
    p, n, N = asm.p, asm.n, asm.N
    mN, mn = p**N, p**n
    d = asm.rho_w.degree
    eye = np.eye(d, dtype=np.int64)
    zero = np.zeros((d, d), dtype=np.int64)

    def mul(a, b):
        return a[0] @ b[0] % mN, (a[0] @ b[1] + a[1] @ b[0]) % mn

    gen_values = [(eye, alpha.of_vec(e)) for e in asm.K.basis_vectors()]
    gen_values += [(asm.rho_w.mats[s], zero) for s in asm.G.generators]
    bad = violated_relators(asm.gamma, gen_values, mul, (eye, zero))
    if bad:
        u, v = bad[0]
        raise CertifyError(f"rho_R fails the relator {u} = {v} of Gamma's presentation")
    kvecs = asm.K.vectors()
    alpha_k = alpha.of_vecs(kvecs)  # row 0 is alpha(0) = 0
    faithful = asm.rho_w.is_faithful() and bool(alpha_k[1:].any(axis=(1, 2)).all())
    return RhoR(asm, alpha, faithful, _order_identities_hold(kvecs, alpha_k, p, n))


def _order_identities_hold(kvecs: np.ndarray, alpha_k: np.ndarray, p: int, n: int) -> bool:
    """(1 + t alpha(k))^m = 1 + m t alpha(k), so rho_R(k, 1) has the additive
    order of alpha(k), which must be that of k: p^(n - v) for v the least
    valuation of an entry, capped at n, that is the number of j <= n with
    p^j dividing every entry.  One comparison per j over all of K."""
    powers = [p**j for j in range(1, n + 1)]
    v_k = sum((kvecs % pj == 0).all(axis=1) for pj in powers)
    v_alpha = sum((alpha_k % pj == 0).all(axis=(1, 2)) for pj in powers)
    return bool((v_k == v_alpha).all())


# ---------------------------------------------------------------------------
# Small-extension exponential lifts (negative direction)
# ---------------------------------------------------------------------------


@dataclass
class ExpLiftReport:
    variant: str
    ring_name: str
    verified: bool
    orders_preserved: bool | None


def exp_lift_on_kernel(
    K: Representation, alpha: AlphaMap, N: int, a_hat: int | None = None
) -> ExpLiftReport:
    """Lift k -> 1 + t*alpha(k) (+ correction) from R to the matching small
    extension R', assuming the reduced alpha-image commutes.

    p odd: rho'(k) = 1 + alpha(k) t + (alpha_bar(k)^2 / 2) t^2 over
    W[[t]]/(p^n t, p t^2, t^3); p = 2, n >= 2: rho'(k) = 1 + t alpha(k) on
    cyclic generators over the same ring; p = 2, n = 1: the same formula
    over W[[t]]/(2t^2, t^3, 2t + a t^2) where a satisfies
    alpha_bar(g)^2 = a alpha_bar(g) for all g.

    The checks run on the basis e_1..e_r of K.  The commutator of alpha(u)
    and alpha(v) is bilinear in (u, v), so basis pairs decide that the
    reduced image commutes.  rho' is a homomorphism exactly when rho'(0) = 1
    and rho'(k) rho'(e_i) = rho'(k + e_i) for every k and i, by the
    induction in `FiniteGroup.extend`.
    """
    p, n, d = alpha.p, alpha.n, alpha.d
    mn, m = p**n, K.modulus
    basis = K.basis_vectors()
    if any(_noncommuting(alpha, u, v) for u in basis for v in basis):
        raise CertifyError("exp lift requires a commutative reduced image")

    # each variant gives the coefficients (c1, c2) of rho' = 1 + c1 t + c2 t^2
    # as functions of a = alpha(k)
    cyclic = p == 2 and n >= 2
    if p != 2:
        ring = make_ring_Rprime(p, n, N)
        variant = "odd-exponential"
        inv2 = pow(2, -1, p)

        def coeffs(a):
            return a % mn, (a % p) @ (a % p) * inv2 % p

    elif cyclic:
        ring = make_ring_Rprime(2, n, N)
        variant = "even-cyclic"

        def coeffs(a):
            return a % mn, 0 * a

    else:
        if a_hat is None:
            raise CertifyError("p = 2, n = 1 lift needs the scalar a with abar^2 = a*abar")
        if any(_violates_scalar(alpha, k, a_hat) for k in _kernel_elements(K)):
            raise CertifyError("scalar clause fails for the supplied a")
        ring = make_ring_Rprime_2_1(a_hat, N)
        variant = "even-n1-clause"

        def coeffs(a):
            return a % 2, 0 * a

    def lift(k):
        c1, c2 = coeffs(alpha.of_vec(k))
        rows = [[(int(i == j), int(c1[i, j]), int(c2[i, j])) for j in range(d)] for i in range(d)]
        return AlgMatrix.from_rows(ring, rows)

    def plus(u, v):
        return tuple((a + b) % m for a, b in zip(u, v))

    basis_images = [lift(e) for e in basis]
    images = {}
    for k in _kernel_elements(K):  # encoding order: k - e_j comes before k
        if cyclic and any(k):
            # defined on cyclic generators, rho'(k) = prod_i rho'(e_i)^k_i:
            # rho'(k - e_j) rho'(e_j) for the last j with k_j != 0
            j = max(i for i, c in enumerate(k) if c)
            images[k] = images[k[:j] + (k[j] - 1,) + k[j + 1 :]] @ basis_images[j]
        else:
            images[k] = lift(k)
    verified = images[(0,) * K.degree] == AlgMatrix.identity(ring, d) and all(
        images[k] @ image_e == images[plus(k, e)]
        for k in images
        for e, image_e in zip(basis, basis_images)
    )
    orders = None
    if cyclic:
        orders = True
        for k in images:
            add_order = 1
            acc = k
            while any(acc):
                acc = plus(acc, k)
                add_order += 1
            if images[k].order() != add_order:
                orders = False
    return ExpLiftReport(variant, ring.name, verified, orders)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def _certificate_header(spec: InstanceSpec) -> dict:
    """The certificate fields fixed by the instance alone."""
    return {
        "instance": spec.name,
        "family": spec.family,
        "p": spec.p,
        "n": spec.n,
        "N": spec.precision,
        "ring": f"Z{spec.p}[[t]]/({spec.p}^{spec.n}*t, t^2)",
        "not_complete_intersection": True,
    }


@dataclass
class Certificate:
    spec: InstanceSpec
    condition_a: ConditionA
    condition_b: ConditionB
    rho_r: RhoR | None
    tangent_dim: int | None
    verdict: str
    failed_stage: str | None

    def to_json_dict(self) -> dict:
        cb = self.condition_b
        out = {
            **_certificate_header(self.spec),
            "condition_a": {"dim": self.condition_a.dim, "pass": self.condition_a.passed},
            "condition_b": {
                "status": cb.status,
                "alpha": cb.alpha.to_json_dict() if cb.alpha else None,
                "hom_invariant_factors": cb.hom_invariant_factors,
                "injective": cb.injective,
                "residue_nonzero": cb.residue_nonzero,
                "witness": cb.witness,
                "noncommuting_bullet": cb.bullet_noncommuting,
                "clause_p2n1": cb.clause_p2n1,
                "no_scalar_bullet": cb.bullet_no_scalar,
                "pass": cb.passed,
            },
            "rho_R": None,
            "tangent_dim": self.tangent_dim,
            "verdict": self.verdict,
            "failed_stage": self.failed_stage,
            "group": None,
        }
        if self.rho_r is not None:
            out["rho_R"] = {
                "generators": [g.tolist() for g in self.rho_r.generator_matrices()],
                "faithful": self.rho_r.faithful,
                "order_checks": self.rho_r.order_checks_passed,
            }
            out["group"] = self.rho_r.asm.gamma.to_json_dict()
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def certify_instance(spec: InstanceSpec) -> Certificate:
    return certify_assembly(assemble(spec))


def _failed_stage(
    cond_a: ConditionA, cond_b: ConditionB, rho_r: RhoR | None = None, tangent: int | None = None
) -> str | None:
    """The first failing stage of the pipeline, in its order: condition (a),
    condition (b), rho_R faithful, rho_R orders, tangent dimension.  A stage
    not yet computed (None) counts as not failing."""
    if not cond_a.passed:
        return "condition_a"
    if not cond_b.passed:
        return "condition_b"
    if rho_r is not None and not rho_r.faithful:
        return "rho_R_faithful"
    if rho_r is not None and not rho_r.order_checks_passed:
        return "rho_R_orders"
    if tangent is not None and tangent != 1:
        return "tangent_dim"
    return None


def certify_assembly(asm: Assembly) -> Certificate:
    """The certification pipeline on an instance already assembled; each
    stage runs only while every earlier one passes."""
    cond_a = check_condition_a(asm)
    cond_b = find_alpha(asm)
    rho_r = None
    tangent = None
    if _failed_stage(cond_a, cond_b) is None:
        rho_r = build_rho_R(asm, cond_b.alpha)
        if _failed_stage(cond_a, cond_b, rho_r) is None:
            tangent = h1_dim(end_rep(asm.rho_bar))
    failed = _failed_stage(cond_a, cond_b, rho_r, tangent)
    verdict = "certified" if failed is None else "refuted"
    return Certificate(asm.spec, cond_a, cond_b, rho_r, tangent, verdict, failed)


def verify_certificate(cert) -> tuple[bool, list[str]]:
    """Re-validate an emitted certificate against the instance rebuilt at
    the certificate's precision N.

    A "certified" certificate is rebuilt from its own evidence, without
    searching again (`_rebuild_certified`).  A "refuted" one is rebuilt by a
    fresh run of the pipeline; refuted instances are the small negative
    controls.  Every field must then equal the rebuilt one as JSON, so true
    is not 1 and 1.0 is not 1.  Malformed input is reported as a problem,
    never raised.
    """
    if not isinstance(cert, dict):
        return (False, ["certificate is not a JSON object"])
    if type(cert.get("instance")) is not str:
        return (False, ["certificate has no instance name"])
    if type(cert.get("N")) is not int:
        return (False, ["certificate has no integer precision N"])
    try:
        asm = assemble(replace(parse_instance_name(cert["instance"]), N=cert["N"]))
    except (CertifyError, PrecisionError, AlgebraError, GroupError, RepresentationError) as exc:
        return (False, [f"instance cannot be rebuilt: {exc}"])
    verdict = cert.get("verdict")
    if verdict == "certified":
        expected, problems = _rebuild_certified(cert, asm)
        source = "the certificate rebuilt from its evidence"
    elif verdict == "refuted":
        expected, problems = certify_assembly(asm).to_json_dict(), []
        source = "a fresh certification"
    else:
        return (False, [f"unknown verdict {verdict!r}"])
    if expected is not None:
        problems = [
            f"{key} differs from {source}"
            for key in sorted(expected.keys() | cert.keys())
            if key not in cert or key not in expected or _json(cert[key]) != _json(expected[key])
        ] + problems
    return (not problems, problems)


def _json(value) -> str:
    return json.dumps(value, sort_keys=True)


def _is_residue_vector(value, length: int, modulus: int) -> bool:
    """A JSON list of exactly `length` integers in [0, modulus); bools and
    floats are excluded, since alpha would not be evaluated mod p on them."""
    return (
        isinstance(value, list)
        and len(value) == length
        and all(type(c) is int and 0 <= c < modulus for c in value)
    )


def _condition_b_shape_problems(cb: dict, asm: Assembly) -> list[str]:
    """Shape of the embedded condition (b) evidence: alpha a (d*d) x rank
    matrix over Z/p^n, the witness a pair of vectors of K, and (p = 2, n = 1
    only) the clause entries a = 0, 1, each with a vector of K or null, all
    in reduced integers."""
    rank, d, mn, mk = asm.K.degree, asm.rho_w.degree, asm.p**asm.n, asm.K.modulus
    alpha = cb.get("alpha")
    if alpha is None:
        return ["certified verdict without alpha"]
    if not (
        isinstance(alpha, dict)
        and alpha.get("modulus") == mn
        and isinstance(alpha.get("matrix"), list)
        and len(alpha["matrix"]) == d * d
        and all(_is_residue_vector(row, rank, mn) for row in alpha["matrix"])
    ):
        return [f"alpha is not a {d * d} x {rank} matrix of residues mod {mn}"]
    problems = []
    witness = cb.get("witness")
    if witness is not None and not (
        isinstance(witness, list)
        and len(witness) == 2
        and all(_is_residue_vector(u, rank, mk) for u in witness)
    ):
        problems.append(f"witness is not a pair of vectors of K (length {rank}, residues mod {mk})")
    clause = cb.get("clause_p2n1")
    if (asm.p, asm.n) != (2, 1):
        if clause is not None:
            problems.append("clause_p2n1 is given, but only p = 2, n = 1 has one")
    elif not (
        isinstance(clause, list)
        and len(clause) == 2
        and all(
            isinstance(entry, dict)
            and type(entry.get("a")) is int
            and entry["a"] == a
            and "violating_g" in entry
            and (entry["violating_g"] is None or _is_residue_vector(entry["violating_g"], rank, mk))
            for a, entry in enumerate(clause)
        )
    ):
        problems.append("clause_p2n1 is not the entries a = 0, 1, each with a vector of K or null")
    return problems


def _json_object(cert: dict, key: str) -> dict:
    value = cert.get(key)
    return value if isinstance(value, dict) else {}


def _rebuild_certified(cert: dict, asm: Assembly) -> tuple[dict | None, list[str]]:
    """The certificate a "certified" claim's own evidence gives, with its
    problems; None if the evidence is malformed.  Condition (a), the Hom
    module's invariant factors and the tangent dimension are recomputed;
    condition (b) is evaluated on the embedded alpha, witness and no-scalar
    clause; rho_R is rebuilt from alpha.  The failed stage recomputed from
    these must be none."""
    cb = _json_object(cert, "condition_b")
    malformed = _condition_b_shape_problems(cb, asm)
    if malformed:
        return None, malformed
    H = np.array(cb["alpha"]["matrix"], dtype=np.int64)
    alpha = AlphaMap(asm.p, asm.n, asm.rho_w.degree, asm.K.degree, H)
    clause = cb.get("clause_p2n1")
    if clause is not None:
        clause = [{"a": entry["a"], "violating_g": entry["violating_g"]} for entry in clause]
    cond_a = check_condition_a(asm)
    factors = hom_space(asm.K, asm.MW_mod_pn).invariant_factors
    cond_b = evaluate_condition_b(alpha, cb.get("witness"), clause, factors)
    problems = []
    try:
        rho_r = build_rho_R(asm, alpha)
    except CertifyError as exc:
        problems.append(str(exc))
        rho_r = None
    tangent = h1_dim(end_rep(asm.rho_bar))
    failed = _failed_stage(cond_a, cond_b, rho_r, tangent)
    if failed is not None:
        problems.append(f"verdict is certified, but stage {failed} fails")
    rebuilt = Certificate(asm.spec, cond_a, cond_b, rho_r, tangent, "certified", None)
    return rebuilt.to_json_dict(), problems


# ---------------------------------------------------------------------------
# Negative controls
# ---------------------------------------------------------------------------


@dataclass
class NegativeControlReport:
    instance: str
    verdict: str
    failed_stage: str | None
    exp_lift: ExpLiftReport

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "verdict": self.verdict,
            "failed_stage": self.failed_stage,
            "exp_lift": {
                "variant": self.exp_lift.variant,
                "ring": self.exp_lift.ring_name,
                "verified": self.exp_lift.verified,
                "orders_preserved": self.exp_lift.orders_preserved,
            },
        }


def _injective_commutative_alpha(asm: Assembly) -> AlphaMap:
    """First injective combination of the Hom basis (controls only)."""
    p, n = asm.p, asm.n
    hs = hom_space(asm.K, asm.MW_mod_pn)
    mn = p**n
    k = len(hs.basis)
    for code in range(1, mn**k):
        coeffs = []
        c = code
        for _ in range(k):
            c, r = divmod(c, mn)
            coeffs.append(r)
        H = sum(c * B for c, B in zip(coeffs, hs.basis)) % mn
        cand = AlphaMap(p, n, asm.rho_w.degree, asm.K.degree, H)
        if cand.kernel_trivial():
            return cand
    raise CertifyError("no injective element in the Hom module")


def negative_control(p: int, n: int) -> NegativeControlReport:
    """Swap K for a commutative-image module: certification must refute, and
    the matching small-extension lift must succeed."""
    scalar = p == 2 and n == 1
    spec = InstanceSpec("twisted", p, n, control="scalar" if scalar else "commutative")
    asm = assemble(spec)
    cert = certify_assembly(asm)
    alpha = _injective_commutative_alpha(asm)
    report = exp_lift_on_kernel(asm.K, alpha, spec.precision, a_hat=1 if scalar else None)
    if cert.verdict != "refuted":
        raise CertifyError("negative control unexpectedly certified")
    return NegativeControlReport(spec.name, cert.verdict, cert.failed_stage, report)
