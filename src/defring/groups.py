"""Finite groups with multiplication tables, BFS spanning trees and
presentations.

The groups G here are small enough (a few thousand elements) that the full
table is the simplest correct representation.  A given table is checked
exactly by Light's associativity test on the generators.  Gamma = K x| G is
kept as its factors instead: it is a group by construction, so only G and K
are checked, its table's rows come from K and G on demand
(`SemidirectGroup.table_hash` streams them), and its table and spanning
tree are built only when something asks for them.  Each group has one
breadth-first spanning tree, of the Cayley graph on its distinguished
generators: it gives each element a word in them, and `FiniteGroup.extend`
carries generator data (matrices, images) along it to the whole group.

`FiniteGroup.relators` gives a presentation on the distinguished generators.
S_m, PGL_2(q) and TF_p are built with a few relators of their own, used once
proved (they hold in the table, and coset enumeration, `coset_count`, closes
at |G| cosets); a group without such candidates, or whose proof fails, has
no presentation and `relators` raises GroupError.  K x| G has the
split-extension presentation built from G's relators and the action on K.
By von Dyck's theorem, generator values that satisfy every relator extend to
a homomorphism; `violated_relators` checks them.  Words are evaluated by one
routine, `_walk`, on a tree of words one depth at a time: the spanning tree
for `extend`, and for the relators the trie of their prefixes
(`FiniteGroup.relator_values`), one stacked `mul` per depth past the first
either way: the depth-1 values are the generator values themselves.
"""

from __future__ import annotations

import hashlib
import math
from functools import cached_property, reduce
from itertools import chain, combinations

import numpy as np

from .exactalg import companion, defining_rule, has_order, matpow_mod

TABLE_GUARD = 10_000  # max order for full-table construction
# Entries per block of a streamed K x| G table: 256 KiB of int64, one buffer
# reused for every block.  Each certify or verify runs on a fresh heap, where
# every page of the buffer is a first-touch fault (512 of them for a 2 MiB
# buffer, 64 for this one), and a block this size stays inside one core's
# 2 MiB L2 while it is built and hashed.
TABLE_BLOCK = 2**15
COSET_LIMIT = 2**15  # cosets a coset enumeration defines before it gives up


class GroupError(ValueError):
    pass


class FiniteGroup:
    """A finite group as an order x order multiplication table.

    Element 0 is the identity.  The BFS spanning tree of the Cayley graph
    (`spanning_tree`) writes each element as a word of minimal length in the
    distinguished generators.  `candidates` are relators (u, v) of positive
    words that a family constructor proposes, each generator invertible in
    the monoid they present; `relators` uses them once proved.
    """

    def __init__(self, table: np.ndarray, generators, name: str = "G", action=None, candidates=()):
        table = np.asarray(table, dtype=np.int64)
        if table.shape[0] > TABLE_GUARD:
            raise GroupError(f"order {table.shape[0]} exceeds full-table guard {TABLE_GUARD}")
        self.table = table
        self._setup(table.shape[0], generators, name, action, candidates)

    def _setup(self, order: int, generators, name: str, action=None, candidates=()):
        self.order = order
        self.generators = tuple(int(g) for g in generators)
        self.name = name
        self.action = None if action is None else np.asarray(action, dtype=np.int64)
        self._candidates = tuple((tuple(u), tuple(v)) for u, v in candidates)
        self._tree = None
        self._plans: dict[tuple | None, tuple] = {}  # of `extend`, by `at`
        self._small_generating_set = None
        self._relators = None
        self._trie = None
        self._validate_table()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_permutations(cls, gens: list[tuple[int, ...]], name: str = "G", candidates=()):
        """Close a set of permutations (tuples mapping i -> perm[i]) under
        composition; element order is BFS discovery order from the identity.

        The closure records each element's right multiples by the generators
        and the BFS parent it was found from, and refuses the group as soon
        as it passes TABLE_GUARD elements.  The table is then filled one BFS
        level at a time: an element h = g s with g its parent has the column
        a h = (a g) s, the right multiple by s of column g."""
        npts = len(gens[0])
        ident = tuple(range(npts))
        elems = [ident]
        index = {ident: 0}
        right, parent, genidx = [], [0], [0]  # right[e][t] = e gens[t]
        levels = [[0]]
        while levels[-1]:
            levels.append([])
            for e in levels[-2]:
                g = elems[e]
                row = []
                for t, s in enumerate(gens):
                    h = tuple(g[s[i]] for i in range(npts))  # g after s
                    if h not in index:
                        if len(elems) == TABLE_GUARD:
                            raise GroupError(
                                f"closure reaches element {TABLE_GUARD + 1}, past the full-table guard {TABLE_GUARD}"
                            )
                        index[h] = len(elems)
                        elems.append(h)
                        parent.append(e)
                        genidx.append(t)
                        levels[-1].append(index[h])
                    row.append(index[h])
                right.append(row)
        n = len(elems)
        right, parent, genidx = np.array(right), np.array(parent), np.array(genidx)
        table = np.empty((n, n), dtype=np.int64)
        table[:, 0] = np.arange(n)
        for level in levels[1:-1]:
            table[:, level] = right[table[:, parent[level]], genidx[level]]
        action = np.array(elems, dtype=np.int64)
        return cls(table, [index[g] for g in gens], name=name, action=action, candidates=candidates)

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

    def spanning_tree(self) -> tuple:
        """The BFS spanning tree of the Cayley graph on the distinguished
        generators, built once and cached.

        Returns (order, parent, genidx): `order` lists the elements in
        discovery order from the identity, so every parent comes before its
        children, and e = parent[e] * generators[genidx[e]] for e != 0.
        """
        return self._bfs()[0]

    def tree_levels(self) -> list[np.ndarray]:
        """The spanning tree's elements by depth, as index arrays in BFS
        order: level k holds the elements at distance k from the identity,
        level 0 is [0].  Cached with the tree."""
        return self._bfs()[1]

    def _bfs(self) -> tuple:
        if self._tree is not None:
            return self._tree
        parent = [-1] * self.order
        genidx = [-1] * self.order
        parent[0] = 0
        levels = [[0]]
        off_tree = np.ones((self.order, len(self.generators)), dtype=bool)
        rows = self.table[:, list(self.generators)].tolist()
        while levels[-1]:  # breadth-first, one level at a time
            levels.append([])
            for e in levels[-2]:
                for gi, h in enumerate(rows[e]):
                    if parent[h] < 0:
                        parent[h] = e
                        genidx[h] = gi
                        off_tree[e, gi] = False
                        levels[-1].append(h)
        order = tuple(e for level in levels for e in level)
        if len(order) != self.order:
            raise GroupError(f"generators {self.generators} do not generate the group")
        self._tree = (order, tuple(parent), tuple(genidx)), [np.array(lv) for lv in levels[:-1]], off_tree
        return self._tree

    def off_tree_edges(self) -> np.ndarray:
        """The Cayley-graph edges off the spanning tree, as an (order, #gens)
        boolean array: True at (e, t) unless the tree reached e s through t,
        s = generators[t] (parent[e s] == e and genidx[e s] == t).  Cached
        with the tree."""
        return self._bfs()[2]

    def extend(self, gen_values, mul, one, *, at=None) -> np.ndarray:
        """Values on every element from values on the distinguished
        generators, along the spanning tree: value(0) = one and
        value(e) = mul(value(parent[e]), gen_values[genidx[e]]).
        The walk (`_walk`) goes one tree level at a time: the values of all
        elements at depth k >= 2 come from one `mul` on the stacked values
        of their parents (depth k - 1) and generators, so `mul` works on a
        leading stack axis; those at depth 1 are the generator values, as
        `one` must be an identity for `mul` on them.  Returns the values
        stacked by element.

        Data extended this way is a homomorphism exactly when value(0) is
        the identity and value(e) value(s) = value(e s) for every element e
        and generator s: by induction on the length of a word s_1...s_k,
        value(e) value(s_1...s_k) = value(e s_1...s_{k-1}) value(s_k)
        = value(e s_1...s_k), and every element is such a word, so the map is
        multiplicative on all pairs.  The checks built on this compare
        |G| x #gens products instead of |G|^2.

        With `at` (default: every element), only the elements `at` and their
        tree ancestors (the prefixes of their words) are walked and held, at
        one `mul` per level past the first, and the values at `at` are
        returned, stacked in that order.  The walk's plan (`_plan`) depends
        only on the tree and `at`, so it is built once per `at` and cached
        with the tree.
        """
        steps, count, reads = self._plan(at)
        one = np.asarray(one)
        values = np.empty((count, *one.shape), dtype=one.dtype)
        for live, (slots, positions) in zip(_walk(steps, gen_values, mul, one), reads):
            values[slots] = live[positions]
        return values

    def _plan(self, at) -> tuple:
        """The walk of `extend` to the elements `at` (None: every element),
        cached by `at`: (steps, #at, reads), where `steps` are `_walk`'s
        (parent, genidx) per level past the first over the needed elements
        (`at` and their tree ancestors), and reads[k] = (slots, positions)
        places the elements of `at` on level k: at[slots] sit at `positions`
        within it."""
        at = None if at is None else np.asarray(at, dtype=np.int64).reshape(-1)
        key = None if at is None else tuple(at.tolist())
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        parent, genidx = map(np.asarray, self.spanning_tree()[1:])
        at = np.arange(self.order) if at is None else at
        needed = np.zeros(self.order, dtype=bool)
        needed[at] = True
        levels = self.tree_levels()
        for level in levels[:0:-1]:  # and their tree ancestors
            needed[parent[level[needed[level]]]] = True
        # the needed elements are closed under parents, so the empty levels
        # are the deepest ones
        levels = [level[needed[level]] for level in levels if needed[level].any()]
        depth = np.empty(self.order, dtype=np.int64)
        pos = np.empty(self.order, dtype=np.int64)  # position within its level
        for k, level in enumerate(levels):
            depth[level], pos[level] = k, np.arange(len(level))
        steps = [(pos[parent[level]], genidx[level]) for level in levels[1:]]
        at_depth = depth[at]
        reads = [(slots, pos[at[slots]]) for slots in (np.flatnonzero(at_depth == k) for k in range(len(levels)))]
        plan = self._plans[key] = steps, len(at), reads
        return plan

    def relators(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """A presentation on the distinguished generators, as pairs (u, v) of
        positive words (tuples of generator indices, multiplied left to
        right) with u = v in the group, built once by `_presentation` and
        cached.  They present the group as a monoid too (a family's own
        relators as each generator is invertible in their monoid, by an
        x^n = 1 among them or as for TF_p; K x| G's as G's do and the x_i
        have finite order), so values in any monoid, such as matrices, that
        satisfy them extend to a homomorphism."""
        if self._relators is None:
            self._relators = tuple(self._presentation())
        return self._relators

    def relator_values(self, gen_values, mul, one, sub=np.subtract) -> np.ndarray:
        """sub(value(u), value(v)) for the relators (u, v), stacked in the
        order of `relators()`, from gen_values[t] for generator index t, as
        in `extend`; `sub` defaults to the difference.  Callers give
        canonical values (residues, codes, ring coordinates) and a `sub`
        that vanishes exactly on equal ones, such as add[u, neg[v]] on codes.
        The words are walked as the trie of their prefixes (`_relator_trie`,
        built once per group): one `mul` per letter of the longest word after
        its first, as the one-letter prefixes are the generator values.
        Only the live depth of the trie and one array of a value per relator
        are held: a relator's side that ends first waits there for the
        other, and at the depth where the second side ends, one `sub` call
        takes every relator completed there."""
        if self._trie is None:
            self._trie = _relator_trie(self.relators())
        steps, ends = self._trie
        one = np.asarray(one)
        out = np.empty((len(self.relators()), *one.shape), dtype=one.dtype)
        for live, end in zip(_walk(steps, gen_values, mul, one), ends):
            if end is None:
                continue
            held, held_at, done, sides = end
            if len(held):
                out[held] = live[held_at]
            if len(done):
                values = [live[at] if now is None else out[done] for now, at in sides]
                for (now, at), side in zip(sides, values):
                    if now is not None:  # the side's other relators wait in `out`
                        side[now] = live[at]
                out[done] = sub(*values)
        return out

    def _presentation(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The candidate relators the group was built with (`candidates`),
        once proved to present it.  The proof: every candidate holds in the
        table, so the group P they present maps onto this one, and coset
        enumeration over the trivial subgroup (`coset_count`) closes at
        exactly |G| cosets, so |P| = |G| and the map is an isomorphism.
        A group without candidates, or whose candidates fail the proof, has
        no presentation here: GroupError names the group and the reason."""
        rels, gens = self._candidates, self.generators
        if not rels:
            raise GroupError(f"{self.name} has no candidate relators to prove a presentation from")

        def value(word):
            return reduce(lambda e, t: self.table[e, gens[t]], word, 0)

        for u, v in rels:
            if value(u) != value(v):
                raise GroupError(f"{self.name}: candidate relator {u} = {v} fails in the table")
        count = coset_count(len(gens), rels)
        if count != self.order:
            found = f"{count} cosets" if count is not None else f"no count within {COSET_LIMIT} cosets"
            raise GroupError(
                f"{self.name}: coset enumeration of the candidates gives {found}, not |G| = {self.order}"
            )
        return list(rels)

    # -- basic operations ------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

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

    def _element_orders(self) -> np.ndarray:
        """The order of every element, by one vectorised power loop: the
        powers e^k of all elements at once, one gather per k, until every
        element has met the identity, so at most exp(G) gathers.  An element
        whose powers miss the identity within |G| steps (only in a table
        that is not a group) gets 0."""
        ar = np.arange(self.order)
        orders = np.zeros(self.order, dtype=np.int64)
        power = ar
        for k in range(1, self.order + 1):
            orders[(power == 0) & (orders == 0)] = k
            if orders.all():
                break
            power = self.table[power, ar]
        return orders

    def small_generating_set(self) -> tuple[int, ...]:
        """First generating tuple of minimal size, at most 3, scanning element
        indices (by size, then in `itertools.combinations` order); the
        distinguished generators if none is found.  A single element
        generates exactly when its order is |G| (`_element_orders`), so only
        pairs and triples are closed.  Cached on the group."""
        if self._small_generating_set is None:
            self._small_generating_set = self._first_generating_tuple()
        return self._small_generating_set

    def _first_generating_tuple(self) -> tuple[int, ...]:
        if self.order > 1000:
            return self.generators
        if self.order == 1:
            return ()
        cyclic = np.flatnonzero(self._element_orders() == self.order)
        if len(cyclic):
            return (int(cyclic[0]),)
        tuples = chain.from_iterable(combinations(range(1, self.order), k) for k in (2, 3))
        return next((c for c in tuples if self.generates(c)), self.generators)

    def _table_blocks(self):
        """The table's entries in row-major order, in contiguous blocks."""
        yield self.table

    def table_hash(self) -> str:
        """The first 16 hex digits of the sha256 of the table's entries, row
        by row, as little-endian int64."""
        h = hashlib.sha256()
        for block in self._table_blocks():
            h.update(np.ascontiguousarray(block, "<i8"))
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
    if m < 2:
        raise GroupError("need m >= 2")
    if math.factorial(m) > TABLE_GUARD:
        raise GroupError(f"symmetric_group guard: m! <= {TABLE_GUARD}")
    transposition = tuple([1, 0] + list(range(2, m)))
    cycle = tuple(list(range(1, m)) + [0])
    gens = [transposition, cycle] if m > 2 else [transposition]
    return FiniteGroup.from_permutations(gens, name=f"S{m}", candidates=_symmetric_relators(m))


def _symmetric_relators(m: int) -> list:
    """Relators of S_m on t = (0 1) and c = (0 1 ... m-1) (Coxeter and
    Moser, Generators and Relations for Discrete Groups, 6.2): t^2, c^m,
    (t c)^(m-1) and (t c^-j t c^j)^2 for 2 <= j <= m/2, with c^-1 = c^(m-1)
    and x^k = 1 written x^(k-1) = x^-1; t^2 alone for m = 2.  Coxeter and
    Moser's (t c^-1 t c)^3 is left out: the others close at m! cosets for
    every m <= 7 without it, and `_presentation` proves the list each time."""
    t, c = (0,), (1,)
    if m == 2:
        return [(t * 2, ())]
    rels = [(t * 2, ()), (c * m, ()), ((t + c) * (m - 2), c * (m - 1) + t)]
    rels += [(t + c * (m - j) + t + c * j, c * (m - j) + t + c * j + t) for j in range(2, m // 2 + 1)]
    return rels


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
    G = FiniteGroup.from_permutations(gens, name=f"PGL2({q})", candidates=_pgl2_relators(q, mul, add, g))
    expected = q * (q - 1) * (q + 1)
    if G.order != expected:
        raise GroupError(f"PGL2({q}) closure has order {G.order}, expected {expected}")
    return G


def _pgl2_relators(q: int, mul, add, g: int) -> list:
    """Relators of PGL_2(q) on u: z -> z+1, h: z -> g z and w: z -> 1/z
    (u and w alone for q = 2, where h = 1), with h^-1 = h^(q-2): the
    orders of u, h, w and w h; u commutes with the translations h^i u h^-i
    (0 < i < f, for q = p^f), and h^f u h^-f is the product of the
    (h^i u h^-i)^c_i for g^f = sum_i c_i g^i, written h^f u = u^c_0 h u^c_1
    h ... u^c_(f-1) h; and w u w = u h^((q-1)/2) w u for odd q, (u w)^3 = 1
    as u w u = w u w for even q."""
    p, f = _SMALL_FIELDS[q]
    if q == 2:
        return [((0, 0), ()), ((1, 1), ()), ((0, 1, 0), (1, 0, 1))]
    u, h, w = (0,), (1,), (2,)
    rels = [(u * p, ()), (h * (q - 1), ()), (w * 2, ()), ((w + h) * 2, ())]
    rels += [(u + h * i + u + h * (q - 1 - i), h * i + u + h * (q - 1 - i) + u) for i in range(1, f)]
    powers = [1]
    for _ in range(f):
        powers.append(mul[powers[-1]][g])
    for a in range(q):  # the c_i: F_q = F_p(g) has the basis 1, g, ..., g^(f-1)
        digits = [a // p**i % p for i in range(f)]
        total = 0
        for c, gi in zip(digits, powers):
            total = add[total][mul[c][gi]]
        if total == powers[f]:
            break
    rels.append((h * f + u, sum((u * c + h for c in digits), ())))
    if p == 2:
        rels.append((u + w + u, w + u + w))
    else:
        rels.append((w + u + w, u + h * ((q - 1) // 2) + w + u))
    return rels


def twisted_frobenius_group(p: int) -> FiniteGroup:
    """The multiplicative group of F_{p^2} extended by its field automorphism.

    Elements are pairs (i, e) standing for zeta^i sigma^e with
    sigma zeta sigma^-1 = zeta^p; encoded as index 2*i + e so that the
    identity (0, 0) is element 0.  Generators: zeta = (1,0), sigma = (0,1).
    """
    m = p * p - 1
    if 2 * m > TABLE_GUARD:  # before the table is built
        raise GroupError(f"order {2 * m} exceeds full-table guard {TABLE_GUARD}")
    i, e, j, f = np.ix_(range(m), range(2), range(m), range(2))
    k = (i + p**e * j) % m
    table = (2 * k + (e + f) % 2).reshape(2 * m, 2 * m)
    # sigma^2 = 1 and sigma zeta = zeta^p sigma present TF_p as a group
    # (zeta^(p^2-1) = 1 follows); zeta^(p-1) sigma zeta^(p-1) = sigma, which
    # follows too, gives zeta an inverse on either side in a monoid:
    # sigma zeta^(p-1) sigma zeta^(p-1) = 1 = zeta^(p-1) sigma zeta^(p-1) sigma
    z, s = (0,), (1,)
    rels = [(s * 2, ()), (s + z, z * p + s), (z * (p - 1) + s + z * (p - 1), s)]
    return FiniteGroup(table, [2, 1], name=f"TF{p}", candidates=rels)


# ---------------------------------------------------------------------------
# Semidirect products
# ---------------------------------------------------------------------------


class SemidirectGroup(FiniteGroup):
    """K x| G on pairs (k, g): (k1,g1)(k2,g2) = (k1 + g1.k2, g1 g2).

    K is a G-module, a `modrep.Representation` of G over Z/p^n.  Element
    index is k_code * |G| + g_index.  The distinguished generators are the
    standard basis of K (paired with 1) followed by (0, s) for each
    generator s of G.  Gamma is kept as K and G: its |Gamma| x |Gamma| table
    is not the simplest representation here, as certification needs only
    its hash, which `table_hash` streams from K and G block by block.  The
    table itself is built on first use.  Gamma is a group by construction;
    only G and K are checked (`_validate_table`), and the distinguished
    generators generate it, so no spanning tree is built until one is asked
    for.
    """

    def __init__(self, kmod, gq: FiniteGroup):
        self.kmod = kmod
        self.gq = gq
        check_extension_order(kmod.size, gq.order)
        order = kmod.size * gq.order
        gens = [kmod.encode(v) * gq.order for v in kmod.basis_vectors()]
        gens += [int(s) for s in gq.generators]
        self._setup(order, gens, f"{kmod.size}:{gq.name}")

    def _table_blocks(self):
        """The table's rows in order, from K and G alone, in contiguous
        blocks of at most TABLE_BLOCK entries: row (k1, g1) at column
        (k2, g2) is kadd[k1, act[g1, k2]] |G| + g1 g2, for kadd the addition
        table of K and act[g, k] = g.k, as codes.  The blocks share one
        buffer of whole rows, allocated once per call and refilled for each
        block, so each block is to be used before the next is asked for."""
        K, G = self.kmod, self.gq
        m, radix, vecs = K.modulus, K.radix, K.vectors()
        act = (vecs @ K.mats.transpose(0, 2, 1) % m) @ radix
        kadd = (vecs[:, None, :] + vecs[None, :, :]) % m @ radix * G.order
        rows = min(self.order, max(1, TABLE_BLOCK // self.order))
        buf = np.empty(rows * self.order, dtype=np.int64)
        for start in range(0, self.order, rows):
            k1, g1 = np.divmod(np.arange(start, min(start + rows, self.order)), G.order)
            block = buf[: len(k1) * self.order]
            ksum = kadd[k1[:, None], act[g1]]  # (k1 + g1.k2) |G|, by k2
            np.add(ksum[:, :, None], G.table[g1, None, :], out=block.reshape(len(k1), K.size, G.order))
            for x in range(0, block.size, TABLE_BLOCK):
                yield block[x : x + TABLE_BLOCK]

    @cached_property
    def table(self) -> np.ndarray:
        """The full multiplication table, assembled from `_table_blocks` on
        first use.  Certification never reads it; the oracle and direct H^2
        do."""
        flat = np.empty(self.order**2, dtype=np.int64)
        pos = 0
        for block in self._table_blocks():
            flat[pos : pos + block.size] = block
            pos += block.size
        return flat.reshape(self.order, self.order)

    def _validate_table(self):
        """K x| G is a group when G is one and g -> (k -> g.k) is a
        homomorphism G -> Aut(K) (Holt, Eick and O'Brien, Handbook of
        Computational Group Theory, 2005), and the table is that product.
        G was validated when it was built.  K is a Representation of G, whose
        generator images were checked on G's relators when it was built (so
        the action is a homomorphism, by von Dyck's theorem) or derived from
        checked ones by `reduce_mod`.  Left to check: K is over this G."""
        if self.kmod.group is not self.gq and not np.array_equal(self.kmod.group.table, self.gq.table):
            raise GroupError("module must be over the same group")

    def _presentation(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The presentation of the split extension on x_i = (e_i, 1)
        (generator index i < r = rank K) and y_s = (0, s) (index r + j for
        the j-th generator s of G):

          G's relators in the y's;  x_i^m = 1 (m the modulus of K);
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


def check_extension_order(k_order: int, g_order: int) -> None:
    """Refuse K x| G past TABLE_GUARD from |K| and |G| alone, so that a
    caller can refuse it before building K or G.  A factor of 2^64 or more
    is named by a power of 2 below it, as its digits may not print."""
    if k_order * g_order > TABLE_GUARD:
        k, g = (str(n) if n < 2**64 else f"at least 2^{n.bit_length() - 1}" for n in (k_order, g_order))
        raise GroupError(f"|Gamma| = |K| |G| with |K| = {k} and |G| = {g} exceeds the guard {TABLE_GUARD}")


def _relator_trie(rels) -> tuple:
    """The trie of the words of the relators `rels` for `relator_values`,
    built in one pass over their letters: the nodes of each depth are keyed
    by (parent node, letter), numbered as they are first met.  Returns
    (steps, ends): `_walk`'s (parent, genidx) per depth past the first, and
    for each depth None if no word ends there, else (held, held_at, done,
    sides).  `held` are the relators whose first side to end ends there,
    the other one later, and `held_at` that side's node; `done` are the
    relators whose second side (or both) ends there, and sides[s] =
    (now, at) gives side s of them: at the nodes `at` for the positions
    `now` within `done` (None: all of them), the rest waiting in the
    relator's held value."""
    levels = [{}]  # depth k + 1: (parent node, letter) -> node
    held, done = {}, {}  # by depth, as lists: (held, held_at); (done, now_u, at_u, now_v, at_v)
    for i, rel in enumerate(rels):
        spans = []  # (length, node) of each side
        for word in rel:
            node = 0
            for k, letter in enumerate(word):
                if k == len(levels):
                    levels.append({})
                node = levels[k].setdefault((node, letter), len(levels[k]))
            spans.append((len(word), node))
        (lu, nu), (lv, nv) = spans
        if lu != lv:
            slots, at = held.setdefault(min(lu, lv), ([], []))
            slots.append(i)
            at.append(nu if lu < lv else nv)
        last = max(lu, lv)
        slots, *sides = done.setdefault(last, ([], [], [], [], []))
        for s, (length, node) in enumerate(spans):
            if length == last:
                sides[2 * s].append(len(slots))
                sides[2 * s + 1].append(node)
        slots.append(i)
    if not levels[-1]:  # no word has a letter
        levels.pop()

    def ints(x):
        return np.array(x, dtype=np.int64)

    steps = [ints(list(level)).reshape(-1, 2).T for level in levels]
    ends = [None] * (len(steps) + 1)
    for k in held.keys() | done.keys():
        slots, *sides = done.get(k, ([], [], [], [], []))
        sides = [
            (None if len(now) == len(slots) else ints(now), ints(at)) for now, at in (sides[:2], sides[2:])
        ]
        ends[k] = (*map(ints, held.get(k, ([], []))), ints(slots), sides)
    return steps, ends


def _walk(steps, gen_values, mul, one):
    """The values of a tree of words, one depth at a time: yields the stack
    [one] of the empty word, then for each step (parent, genidx) the next
    depth's stack, whose node x gets mul(value of node parent[x] of the depth
    before, gen_values[genidx[x]]), by one `mul` on a leading stack axis.
    Only the depth being extended is held, and the caller only reads it.

    Precondition: mul(one, x) == x for the canonical values x the callers
    give (residues, codes, ring coordinates).  Every node of depth 1 is a
    child of the empty word, so its value is its generator's value, taken
    as it is, with no `mul`, when its trailing shape is `one`'s, as it is
    for every caller: a walk to depth k makes k - 1 products."""
    gen_values, one = np.asarray(gen_values), np.asarray(one)
    live = one[None]
    yield live
    for depth, (parent, genidx) in enumerate(steps, 1):
        values = gen_values[genidx]
        if depth == 1 and values.shape[1:] == one.shape:  # mul(one, values) == values
            live = values
        else:
            live = mul(live[parent], values)
        live = np.asarray(live, dtype=one.dtype)
        yield live


def coset_count(ngens: int, relators) -> int | None:
    """The order of the group with generators 0..ngens-1 and relations
    u = v for (u, v) in `relators`, by HLT coset enumeration over the trivial
    subgroup (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005, ch. 5), or None once it has defined more than COSET_LIMIT
    cosets.

    Letter 2t is generator t and 2t + 1 its inverse, and a relation is the
    relator u v^-1.  Each live coset in turn is scanned under every relator,
    with a coset defined wherever a scan stops short, and its row is then
    filled.  A scan that closes on two different cosets proves them equal:
    the larger joins the smaller, and so do the cosets their rows then
    force together.  When every live coset has been scanned, the table is
    complete and the live cosets are the group's elements."""
    words = [[2 * t for t in u] + [2 * t + 1 for t in reversed(v)] for u, v in relators]
    width = 2 * ngens
    table = [[-1] * width]
    rep = [0]  # rep[c] == c for a live coset; else a smaller coset it equals

    def find(c):
        while rep[c] != c:
            rep[c] = c = rep[rep[c]]
        return c

    def define(c, x):
        d = len(table)
        table.append([-1] * width)
        rep.append(d)
        table[c][x], table[d][x ^ 1] = d, c

    def coincidence(a, b):
        dead = []

        def merge(a, b):
            a, b = sorted((find(a), find(b)))
            if a != b:
                rep[b] = a
                dead.append(b)

        merge(a, b)
        for c in dead:  # grows while it is read
            for x in range(width):
                d = table[c][x]
                if d < 0:
                    continue
                table[d][x ^ 1] = -1
                mu, nu = find(c), find(d)
                if table[mu][x] >= 0:
                    merge(nu, table[mu][x])
                elif table[nu][x ^ 1] >= 0:
                    merge(mu, table[nu][x ^ 1])
                else:
                    table[mu][x], table[nu][x ^ 1] = nu, mu

    def scan_and_fill(c, w):
        f, i, b, j = c, 0, c, len(w) - 1
        while True:
            while i <= j and table[f][w[i]] >= 0:
                f, i = table[f][w[i]], i + 1
            while j >= i and table[b][w[j] ^ 1] >= 0:
                b, j = table[b][w[j] ^ 1], j - 1
            if j < i:  # the scans met: f and b are the same coset
                if f != b:
                    coincidence(f, b)
                return
            if i == j:  # a deduction
                table[f][w[i]], table[b][w[i] ^ 1] = b, f
                return
            define(f, w[i])

    c = 0
    while c < len(table) <= COSET_LIMIT:
        for w in words:
            if rep[c] == c:
                scan_and_fill(c, w)
        for x in range(width):
            if rep[c] == c and table[c][x] < 0:
                define(c, x)
        c += 1
    return sum(c == r for c, r in enumerate(rep)) if c == len(table) else None


def violated_relators(group: FiniteGroup, gen_values, mul, one) -> list:
    """The relators (u, v) of `group.relators()` whose words take different
    values (`FiniteGroup.relator_values`).  None are violated exactly when
    the generator values extend to a homomorphism (von Dyck's theorem)."""
    diff = group.relator_values(gen_values, mul, one)
    differs = diff.any(axis=tuple(range(1, diff.ndim)))
    return [rel for rel, bad in zip(group.relators(), differs) if bad]
