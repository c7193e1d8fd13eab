"""Finite groups with full multiplication tables, BFS spanning trees and
presentations.

All groups here are small enough (a few thousand elements) that the full
table is the simplest correct representation.  A given table is checked
exactly by Light's associativity test on the generators; K x| G is a group
by construction, so only its factors G and K are checked.  A breadth-first
spanning tree of the Cayley graph on a generating set gives each element a
word in the generators; `FiniteGroup.extend` carries generator data
(matrices, images) along it to the whole group, and a homomorphism check on
such data only has to compare e*s for every element e and generator s.

`FiniteGroup.relators` gives a presentation on the distinguished generators:
the Schreier relators of the spanning tree, or for K x| G the split-extension
presentation built from G's relators and the action on K.  By von Dyck's
theorem, generator values that satisfy every relator extend to a
homomorphism; `violated_relators` checks them, evaluating the words with
`evaluate_words` at one product per distinct word prefix.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .exactalg import companion, defining_rule, has_order, matpow_mod

TABLE_GUARD = 10_000  # max order for full-table construction


class GroupError(ValueError):
    pass


class FiniteGroup:
    """A finite group as an order x order multiplication table.

    Element 0 is the identity.  `word(e)` is a tuple of generator indices
    multiplying (left to right) to element e, read off the BFS spanning tree,
    so word length is minimal for the distinguished generator set.
    """

    def __init__(self, table: np.ndarray, generators, name: str = "G", action=None):
        table = np.asarray(table, dtype=np.int64)
        self.order = table.shape[0]
        if self.order > TABLE_GUARD:
            raise GroupError(f"order {self.order} exceeds full-table guard {TABLE_GUARD}")
        self.table = table
        self.generators = tuple(int(g) for g in generators)
        self.name = name
        self.action = None if action is None else np.asarray(action, dtype=np.int64)
        self._trees: dict[tuple[int, ...], tuple] = {}
        self._relators = None
        self._validate_table()
        self.inverse = self._inverse_table()
        self.spanning_tree()  # the distinguished generators must generate

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_permutations(cls, gens: list[tuple[int, ...]], name: str = "G"):
        """Close a set of permutations (tuples mapping i -> perm[i]) under
        composition; element order is BFS discovery order from the identity."""
        npts = len(gens[0])
        ident = tuple(range(npts))
        elems = [ident]
        index = {ident: 0}
        frontier = [ident]
        while frontier:
            nxt = []
            for g in frontier:
                for s in gens:
                    h = tuple(g[s[i]] for i in range(npts))  # g after s
                    if h not in index:
                        index[h] = len(elems)
                        elems.append(h)
                        nxt.append(h)
            frontier = nxt
        n = len(elems)
        if n > TABLE_GUARD:
            raise GroupError(f"closure has {n} elements; exceeds guard")
        table = np.empty((n, n), dtype=np.int64)
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                table[i, j] = index[tuple(a[b[k]] for k in range(npts))]
        action = np.array(elems, dtype=np.int64)
        return cls(table, [index[g] for g in gens], name=name, action=action)

    def _validate_table(self):
        """Check exactly that the table is a group with identity 0, by Light's
        associativity test on the distinguished generators.

        The spanning tree writes every element as a product of generators.
        The elements a with (x a) y = x (a y) for all x, y are closed under
        the product: for a and b among them, (x (a b)) y = ((x a) b) y =
        (x a)(b y) = x (a (b y)) = x ((a b) y).  They include 0, and the check
        puts every generator among them, so the table is associative.  In an
        associative table with identity whose every row holds the identity,
        x y = 0 = y z gives x = (x y) z = z, so each element has an inverse.
        The cost is |G|^2 lookups per generator.
        """
        t = self.table
        n = self.order
        ar = np.arange(n)
        if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
            raise GroupError("malformed table")
        if not (t[0] == ar).all() or not (t[:, 0] == ar).all():
            raise GroupError("element 0 is not the identity")
        self.spanning_tree()
        rows = max(1, 2**22 // n)  # rows per block: bounds the temporaries
        for s in self.generators:
            for x in range(0, n, rows):
                if (t[t[x : x + rows, s]] != t[x : x + rows][:, t[s]]).any():
                    raise GroupError("associativity fails")
        if not (t == 0).any(axis=1).all():
            raise GroupError("an element has no inverse")

    def _inverse_table(self):
        # each row holds the identity exactly once, found in row order
        return np.nonzero(self.table == 0)[1]

    def spanning_tree(self, gens=None) -> tuple:
        """The BFS spanning tree of the Cayley graph on `gens` (default: the
        distinguished generators), cached per generator tuple.

        Returns (order, parent, genidx): `order` lists the elements in
        discovery order from the identity, so every parent comes before its
        children, and e = parent[e] * gens[genidx[e]] for e != 0.
        """
        return self._bfs(gens)[0]

    def tree_levels(self, gens=None) -> list[np.ndarray]:
        """The spanning tree's elements by depth, as index arrays in BFS
        order: level k holds the elements at distance k from the identity,
        level 0 is [0].  Cached with the tree."""
        return self._bfs(gens)[1]

    def _bfs(self, gens) -> tuple:
        gens = self.generators if gens is None else tuple(int(g) for g in gens)
        cached = self._trees.get(gens)
        if cached is not None:
            return cached
        parent = [-1] * self.order
        genidx = [-1] * self.order
        parent[0] = 0
        levels = [[0]]
        rows = self.table[:, list(gens)].tolist()
        while levels[-1]:  # breadth-first, one level at a time
            levels.append([])
            for e in levels[-2]:
                for gi, h in enumerate(rows[e]):
                    if parent[h] < 0:
                        parent[h] = e
                        genidx[h] = gi
                        levels[-1].append(h)
        order = tuple(e for level in levels for e in level)
        if len(order) != self.order:
            raise GroupError(f"generators {gens} do not generate the group")
        cached = (order, tuple(parent), tuple(genidx)), [np.array(lv) for lv in levels[:-1]]
        self._trees[gens] = cached
        return cached

    def extend(self, gen_values, mul, one, gens=None, at=None) -> np.ndarray:
        """Values on every element from values on the generators `gens`
        (default: the distinguished ones), along the spanning tree:
        value(0) = one and value(e) = mul(value(parent[e]), gen_values[genidx[e]]).
        The walk goes one tree level at a time: the values of all elements
        at depth k come from one `mul` on the stacked values of their
        parents (depth k - 1) and generators, so `mul` works on a leading
        stack axis.  Returns the values stacked by element.

        Data extended this way is a homomorphism exactly when value(0) is
        the identity and value(e) value(s) = value(e s) for every element e
        and generator s: by induction on the length of a word s_1...s_k,
        value(e) value(s_1...s_k) = value(e s_1...s_{k-1}) value(s_k)
        = value(e s_1...s_k), and every element is such a word, so the map is
        multiplicative on all pairs.  The checks built on this compare
        |G| x #gens products instead of |G|^2.

        With `at`, only the elements `at` and their tree ancestors (the
        prefixes of their words) get values, at one `mul` per level, and
        the values at `at` are returned, stacked in that order.
        """
        parent, genidx = map(np.asarray, self.spanning_tree(gens)[1:])
        gen_values, one = np.asarray(gen_values), np.asarray(one)
        values = np.empty((self.order, *one.shape), dtype=one.dtype)
        values[0] = one
        needed = np.full(self.order, at is None)
        if at is not None:
            needed[list(at)] = True
            for level in self.tree_levels(gens)[:0:-1]:  # and their tree ancestors
                needed[parent[level[needed[level]]]] = True
        for level in self.tree_levels(gens)[1:]:
            level = level[needed[level]]
            if len(level):
                values[level] = mul(values[parent[level]], gen_values[genidx[level]])
        return values if at is None else values[list(at)]

    def relators(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """A presentation on the distinguished generators, as pairs (u, v) of
        words (tuples of generator indices, multiplied left to right) with
        u = v in the group; built once by `_presentation` and cached."""
        if self._relators is None:
            self._relators = tuple(self._presentation())
        return self._relators

    def _presentation(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The Schreier relators of the spanning tree: word(e) t =
        word(e t) for every element e and generator index t off the tree
        (on tree edges the two words coincide), with the words read off the
        tree by `word`.  Values v(e) of the words satisfying them have
        v(e) v(t) = v(e t) for all e and t, so they are multiplicative by the
        induction in `extend`.
        """
        order, parent, genidx = self.spanning_tree()
        words = [self.word(e) for e in range(self.order)]
        rows = self.table[:, list(self.generators)].tolist()
        return [
            (words[e] + (t,), words[h])
            for e in order
            for t, h in enumerate(rows[e])
            if not (parent[h] == e and genidx[h] == t)
        ]

    # -- basic operations ------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conj(self, g: int, h: int) -> int:
        """g h g^-1."""
        return self.mul(self.mul(g, h), self.inv(g))

    def word(self, e: int) -> tuple[int, ...]:
        _, parent, genidx = self.spanning_tree()
        out = []
        while e != 0:
            out.append(genidx[e])
            e = parent[e]
        return tuple(reversed(out))

    def element_order(self, e: int) -> int:
        """The least k >= 1 with e^k = 1.  In a group it is at most the order;
        a table whose powers of e never reach the identity raises."""
        acc = e
        for k in range(1, self.order + 1):
            if acc == 0:
                return k
            acc = self.mul(acc, e)
        raise GroupError(f"no power e^k with k <= {self.order} of element {e} is the identity")

    def closure(self, seeds) -> list[int]:
        seen = {0}
        frontier = [0]
        seeds = list(seeds)
        while frontier:
            nxt = []
            for e in frontier:
                for s in seeds:
                    h = int(self.table[e, s])
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
            frontier = nxt
        return sorted(seen)

    def generates(self, seeds) -> bool:
        return len(self.closure(seeds)) == self.order

    def small_generating_set(self, limit: int = 3) -> tuple[int, ...]:
        """First generating tuple of minimal size, scanning element indices."""
        if self.order > 1000:
            return self.generators
        if self.order == 1:
            return ()
        for size in range(1, limit + 1):
            for combo in combinations(range(1, self.order), size):
                if self.generates(combo):
                    return combo
        return self.generators

    def subgroup(self, elements) -> tuple["FiniteGroup", list[int]]:
        """The subgroup on the given (closed) element set, re-indexed; also
        returns the list mapping new indices to ambient ones."""
        elems = sorted(set(elements))
        if 0 not in elems:
            raise GroupError("subgroup must contain the identity")
        pos = {e: i for i, e in enumerate(elems)}
        n = len(elems)
        table = np.empty((n, n), dtype=np.int64)
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                c = self.mul(a, b)
                if c not in pos:
                    raise GroupError("element set is not closed")
                table[i, j] = pos[c]
        gens = self._subgroup_generators(elems, pos)
        sub = FiniteGroup(table, gens, name=f"{self.name}-sub{n}")
        return sub, elems

    def _subgroup_generators(self, elems, pos):
        chosen = []
        span = {0}
        for e in elems:
            if e in span or e == 0:
                continue
            chosen.append(e)
            span = set(self.closure([x for x in chosen]))
            if len(span) == len(elems):
                break
        return [pos[e] for e in chosen] if chosen else []

    def sylow_subgroup(self, p: int) -> tuple["FiniteGroup", list[int]]:
        """A Sylow p-subgroup, grown through normalizers."""
        target = 1
        n = self.order
        while n % p == 0:
            target *= p
            n //= p
        current = [0]
        while len(current) < target:
            cur_set = set(current)
            normalizer = [
                g
                for g in range(self.order)
                if all(self.conj(g, h) in cur_set for h in current)
            ]
            grown = False
            for x in normalizer:
                if x in cur_set:
                    continue
                trial = self.closure(current + [x])
                lt = len(trial)
                while lt % p == 0:
                    lt //= p
                if lt == 1 and len(trial) > len(current):
                    current = trial
                    grown = True
                    break
            if not grown:
                raise GroupError("Sylow growth failed")
        return self.subgroup(current)

    def table_hash(self) -> str:
        h = hashlib.sha256(np.ascontiguousarray(self.table, "<i8"))
        return h.hexdigest()[:16]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "table_sha256_16": self.table_hash(),
            "generators": list(self.generators),
        }

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


# ---------------------------------------------------------------------------
# Concrete families
# ---------------------------------------------------------------------------


def symmetric_group(m: int) -> FiniteGroup:
    """S_m as permutations of {0..m-1}, generated by (0 1) and (0 1 ... m-1)."""
    if m > 8:
        raise GroupError("symmetric_group guard: m <= 8")
    if m < 2:
        raise GroupError("need m >= 2")
    transposition = tuple([1, 0] + list(range(2, m)))
    cycle = tuple(list(range(1, m)) + [0])
    gens = [transposition, cycle] if m > 2 else [transposition]
    return FiniteGroup.from_permutations(gens, name=f"S{m}")


# F_q for the prime powers q <= 9, as (p, f) with q = p^f
_SMALL_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def _field_tables(q: int) -> tuple[list, list, int]:
    """Add and mul tables of F_q = F_p[x]/(f), q = p^f <= 9, and its first
    multiplicative generator.  Element a stands for sum_i a_i x^i, a_i its
    base-p digits lowest first; a b is M_a b for the regular matrix
    M_a = sum_i a_i C^i, C the companion matrix of `defining_rule(p, f)`."""
    if q not in _SMALL_FIELDS:
        raise GroupError(f"{q} is not a prime power <= 9")
    p, f = _SMALL_FIELDS[q]
    C = companion(defining_rule(p, f), p)
    digits = np.array([[a // p**i % p for i in range(f)] for a in range(q)], dtype=np.int64)
    regular = sum(digits[:, i, None, None] * matpow_mod(C, i, p) for i in range(f)) % p
    radix = p ** np.arange(f)
    mul = (np.einsum("ajk,bk->abj", regular, digits) % p) @ radix
    add = ((digits[:, None, :] + digits[None, :, :]) % p) @ radix
    g = 1 + int(np.flatnonzero(has_order(regular[1:], q - 1, p))[0])
    return add.tolist(), mul.tolist(), g


def pgl2(q: int) -> FiniteGroup:
    """PGL_2(F_q) acting on the q+1 points of the projective line.

    Points are ordered 0, 1, ..., q-1, infinity.  The distinguished
    generators are z -> z+1, z -> g*z (g the first multiplicative
    generator), and z -> 1/z.
    """
    add, mul, g = _field_tables(q)
    inv = [0] + [mul[a].index(1) for a in range(1, q)]
    inf = q

    def apply_mat(a, b, c, d, pt):
        # [[a,b],[c,d]] acting on the column [z:1] (or [1:0] for infinity)
        if pt == inf:
            num, den = a, c
        else:
            num = add[mul[a][pt]][b]
            den = add[mul[c][pt]][d]
        if den == 0:
            return inf
        return mul[num][inv[den]]

    def perm_of(a, b, c, d):
        return tuple(apply_mat(a, b, c, d, pt) for pt in range(q + 1))

    gens = [perm_of(1, 1, 0, 1), perm_of(g, 0, 0, 1), perm_of(0, 1, 1, 0)]
    gens = [p for i, p in enumerate(gens) if p != tuple(range(q + 1))]
    G = FiniteGroup.from_permutations(gens, name=f"PGL2({q})")
    expected = q * (q - 1) * (q + 1)
    if G.order != expected:
        raise GroupError(f"PGL2({q}) closure has order {G.order}, expected {expected}")
    return G


def twisted_frobenius_group(p: int) -> FiniteGroup:
    """The multiplicative group of F_{p^2} extended by its field automorphism.

    Elements are pairs (i, e) standing for zeta^i sigma^e with
    sigma zeta sigma^-1 = zeta^p; encoded as index 2*i + e so that the
    identity (0, 0) is element 0.  Generators: zeta = (1,0), sigma = (0,1).
    """
    if p > 7:
        raise GroupError("twisted group guard: p <= 7")
    m = p * p - 1
    n = 2 * m

    def enc(i, e):
        return 2 * i + e

    table = np.empty((n, n), dtype=np.int64)
    for i in range(m):
        for e in range(2):
            for j in range(m):
                for f in range(2):
                    k = (i + (p**e) * j) % m
                    table[enc(i, e), enc(j, f)] = enc(k, (e + f) % 2)
    return FiniteGroup(table, [enc(1, 0), enc(0, 1)], name=f"TF{p}")


@dataclass
class GroupHom:
    """A homomorphism given on all elements, verified multiplicative on
    (element, generator) pairs, which covers all pairs (FiniteGroup.extend)."""

    source: FiniteGroup
    target: FiniteGroup
    images: np.ndarray  # element index -> element index

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.int64)
        t_s, t_t = self.source.table, self.target.table
        img = self.images
        if img[0] != 0:
            raise GroupError("homomorphism must fix the identity")
        for s in self.source.generators:
            if (img[t_s[:, s]] != t_t[img, img[s]]).any():
                raise GroupError(f"not multiplicative at generator {s}")

    def __call__(self, e: int) -> int:
        return int(self.images[e])

    def is_injective(self) -> bool:
        return len(set(self.images.tolist())) == self.source.order


# ---------------------------------------------------------------------------
# Semidirect products
# ---------------------------------------------------------------------------


class SemidirectGroup(FiniteGroup):
    """K x| G on pairs (k, g): (k1,g1)(k2,g2) = (k1 + g1.k2, g1 g2).

    K is a G-module, a `modrep.Representation` of G over Z/p^n.  Element
    index is k_code * |G| + g_index.  The distinguished generators are the
    standard basis of K (paired with 1) followed by (0, s) for each
    generator s of G.  The table is a group by construction; only G and K
    are checked (`_validate_table`).
    """

    def __init__(self, kmod, gq: FiniteGroup):
        self.kmod = kmod
        self.gq = gq
        ksize, gsize = kmod.size, gq.order
        if ksize * gsize > TABLE_GUARD:
            raise GroupError(f"semidirect order {ksize * gsize} exceeds guard")
        m = kmod.modulus
        all_vecs = kmod.vectors()
        radix = m ** np.arange(kmod.degree, dtype=np.int64)
        # act[g, k] = g.k and kneg[k] = -k, as codes
        self._act = (all_vecs @ kmod.mats.transpose(0, 2, 1) % m) @ radix
        self._kneg = (-all_vecs % m) @ radix
        kadd = ((all_vecs[:, None, :] + all_vecs[None, :, :]) % m) @ radix
        n = ksize * gsize
        table = np.empty((n, n), dtype=np.int64)
        for g1, (moved, gprod) in enumerate(zip(self._act, gq.table)):
            ksum = kadd[:, moved]  # (k1, k2) -> k1 + g1.k2
            block = ksum[:, :, None] * gsize + gprod[None, None, :]
            table[g1::gsize, :] = block.reshape(ksize, n)
        gens = [int(kmod.encode(v)) * gsize for v in kmod.basis_vectors()]
        gens += [int(s) for s in gq.generators]
        super().__init__(table, gens, name=f"{kmod.size}:{gq.name}")

    def _validate_table(self):
        """K x| G is a group when G is one and g -> (k -> g.k) is a
        homomorphism G -> Aut(K) (Holt, Eick and O'Brien, Handbook of
        Computational Group Theory, 2005), and the table is that product.
        G was validated when it was built.  K is a Representation of G,
        validated when it was built (invertible generator matrices and
        g.(s.v) = (gs).v for every element g and generator s, which makes
        the action a homomorphism, FiniteGroup.extend) or derived from a
        validated one by `reduce_mod`.  Left to check: K is over this G."""
        if self.kmod.group is not self.gq and not np.array_equal(self.kmod.group.table, self.gq.table):
            raise GroupError("module must be over the same group")

    def _inverse_table(self):
        """(k, g)^-1 = (-(g^-1.k), g^-1), in O(|Gamma|)."""
        ginv = self.gq.inverse
        kinv = self._act[ginv][:, self._kneg]  # [g, k] -> g^-1.(-k)
        return (kinv * self.gq.order + ginv[:, None]).T.reshape(-1)

    def encode(self, kvec, g: int) -> int:
        return self.kmod.encode(kvec) * self.gq.order + g

    def decode(self, e: int) -> tuple[tuple[int, ...], int]:
        kcode, g = divmod(e, self.gq.order)
        return self.kmod.decode(kcode), g

    def quotient_hom(self) -> GroupHom:
        return GroupHom(self, self.gq, np.arange(self.order) % self.gq.order)

    def _presentation(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The presentation of the split extension on x_i = (e_i, 1)
        (generator index i < r = rank K) and y_s = (0, s) (index r + j for
        the j-th generator s of G):

          G's Schreier relators in the y's;  x_i^m = 1 (m the modulus of K);
          x_i x_j = x_j x_i;  y_s x_i = X(s.e_i) y_s, X(k) = x_1^k_1...x_r^k_r.

        It presents Gamma: in the group P they define, the y's satisfy G's
        presentation, so they generate a quotient of G, and each y_s^-1 is a
        positive power of y_s.  Conjugation by y_s and y_s^-1 therefore keeps
        the abelian subgroup of the x's, of order at most m^r = |K|, so
        |P| <= |K| |G| = |Gamma|; Gamma satisfies the relators, so P maps
        onto it and P = Gamma.  The relators come from K and G alone, not
        from Gamma's table or spanning trees.
        """
        r, m = self.kmod.degree, self.kmod.modulus
        rels = [
            (tuple(r + t for t in u), tuple(r + t for t in v)) for u, v in self.gq.relators()
        ]
        rels += [((i,) * m, ()) for i in range(r)]
        rels += [((i, j), (j, i)) for i, j in combinations(range(r), 2)]
        basis = self.kmod.basis_vectors()
        for j, s in enumerate(self.gq.generators):
            for i, e in enumerate(basis):
                x_word = tuple(x for x, c in enumerate(self.kmod.act(s, e)) for _ in range(c))
                rels.append(((r + j, i), x_word + (r + j,)))
        return rels


def semidirect_product(kmod, gq: FiniteGroup) -> SemidirectGroup:
    return SemidirectGroup(kmod, gq)


def evaluate_words(words, gen_values, mul, one) -> list:
    """Values of words in the generators, gen_values[t] standing for
    generator index t: each word is multiplied left to right from `one`.
    The words share their prefixes, and every distinct prefix costs one
    `mul`, so a batch of values (a stack of matrices, an array of element
    indices) costs one batched product per prefix."""
    node_of: dict[tuple[int, int], int] = {}  # (prefix node, t) -> prefix node
    values = [one]
    out = []
    for word in words:
        node = 0
        for t in word:
            child = node_of.get((node, t))
            if child is None:
                child = node_of[(node, t)] = len(values)
                values.append(mul(values[node], gen_values[t]))
            node = child
        out.append(values[node])
    return out


def violated_relators(group: FiniteGroup, gen_values, mul, one) -> list:
    """The relators (u, v) of `group.relators()` whose words take different
    values on `gen_values` (gen_values[t] for generator index t, multiplied
    by `mul` from `one`).  None are violated exactly when the generator
    values extend to a homomorphism (von Dyck's theorem)."""
    rels = group.relators()
    values = evaluate_words([w for rel in rels for w in rel], gen_values, mul, one)
    return [
        rel for rel, lhs, rhs in zip(rels, values[0::2], values[1::2]) if not np.array_equal(lhs, rhs)
    ]


# ---------------------------------------------------------------------------
# Orbits and isomorphism testing
# ---------------------------------------------------------------------------


def orbit_count_triples(G: FiniteGroup) -> int:
    """Number of orbits of the diagonal action on ordered triples of points."""
    if G.action is None:
        raise GroupError("group has no permutation action")
    npts = G.action.shape[1]
    gen_perms = [G.action[g] for g in G.generators]
    seen = np.zeros((npts, npts, npts), dtype=bool)
    count = 0
    for a in range(npts):
        for b in range(npts):
            for c in range(npts):
                if seen[a, b, c]:
                    continue
                count += 1
                stack = [(a, b, c)]
                seen[a, b, c] = True
                while stack:
                    x, y, z = stack.pop()
                    for perm in gen_perms:
                        t = (int(perm[x]), int(perm[y]), int(perm[z]))
                        if not seen[t]:
                            seen[t] = True
                            stack.append(t)
    return count


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> GroupHom | None:
    """Backtracking search for an isomorphism (small orders only)."""
    if G.order != H.order:
        return None
    if G.order > 48:
        raise GroupError("isomorphism search guard: order <= 48")
    gens = G.small_generating_set()
    gen_orders = [G.element_order(g) for g in gens]
    by_order: dict[int, list[int]] = {}
    for h in range(H.order):
        by_order.setdefault(H.element_order(h), []).append(h)
    candidates = [by_order.get(o, []) for o in gen_orders]
    for images in product(*candidates):
        img = G.extend(images, lambda a, b: H.table[a, b], 0, gens)
        if len(set(img.tolist())) != G.order:
            continue
        try:
            return GroupHom(G, H, img)
        except GroupError:
            continue
    return None
