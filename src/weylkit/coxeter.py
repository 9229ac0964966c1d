"""Finite and affine Weyl groups of a root datum.

Elements of the affine group W = W_f x ZR are stored as a finite part
(one integer matrix acting on weight coordinates) together with a
root-lattice translation written in weight coordinates, so equality is
a plain component comparison, a product is one lookup of the product
of the finite parts (the datum's context memoises it) and one
matrix-vector product, and no word rewriting is needed.  Words,
lengths, Bruhat order and the p-dilated dot action are all derived
from that normal form.

The datum's table of the whole group numbers its elements and stores
each id on its element.  A numbered x times a generator s of the
context is then read off the table, the product it already computed
for x s, and the length and reduced word of a numbered x are read off
the table too; untagged elements go through the arithmetic.

Per-datum state has one owner, the datum's context (``_Context``): its
tables, the memos of finite parts, the handles that other modules build
once per datum (``_one_handle_per_datum``) and the one re-entrant lock
that guards them.  ``_context.cache_clear()`` drops every context, and
with it everything built on one.

Generator indexing: indices 0 .. rank-1 are the finite simple
reflections, index rank is the extra affine reflection s0.

>>> from weylkit.lattice import build_root_datum, Weight
>>> d = build_root_datum("A1", "sc")
>>> s1, s0 = generators(d)
>>> dot_p(s0, Weight((0,)), 5)
Weight(coords=(8,))
>>> length(multiply(s0, s1))
2
"""

from __future__ import annotations

import itertools
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, wraps
from operator import add, mul

from weylkit._exact import check_int, check_ints, det_adjugate
from weylkit.lattice import (
    Coroot,
    RootDatum,
    Weight,
    _check_datum,
    _check_weight,
    coxeter_number,
    is_dominant,
)

__all__ = [
    "AffineWeylElement",
    "FiniteWeylElement",
    "bruhat_leq",
    "count_p_restricted_in_orbit",
    "dominant_orbit",
    "dot_p",
    "element_to_json",
    "embed_finite",
    "enumerate_finite_weyl",
    "generators",
    "identity_element",
    "inverse",
    "is_min_coset_rep_fW",
    "is_p_regular",
    "jantzen_condition",
    "length",
    "longest_finite_element",
    "multiply",
    "reduced_word",
    "same_block",
]

Matrix = tuple[tuple[int, ...], ...]


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols)
                 for row in a)


def _mat_vec(a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


@dataclass(frozen=True, eq=False)
class FiniteWeylElement:
    """Finite Weyl group element.

    ``matrix`` acts on fundamental-weight coordinates.  The inverse and
    the inversion set are derived from it when needed.
    """

    datum: RootDatum
    matrix: Matrix
    _hash = None  # cached on first use; not a field, so never pickled

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteWeylElement):
            return NotImplemented
        return self.matrix == other.matrix and (
            self.datum is other.datum or self.datum == other.datum)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((hash(self.datum), self.matrix))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        # the fields only: a string hash differs between processes
        return FiniteWeylElement, (self.datum, self.matrix)

    def apply(self, weight: Weight) -> Weight:
        _check_weight(weight, self.datum.rank)
        return Weight(_mat_vec(self.matrix, weight.coords))


@dataclass(frozen=True, eq=False)
class AffineWeylElement:
    """Affine Weyl group element t_gamma * w.

    ``translation`` is gamma, an element of the root lattice, in
    fundamental-weight coordinates; ``finite`` is w.  An element that
    the datum's group table numbers carries its id there in ``_gid``,
    and a generator of the datum's context its index in ``_letter``;
    neither is a field.
    """

    finite: FiniteWeylElement
    translation: tuple[int, ...]
    _hash = None
    _gid = None
    _letter = None

    @property
    def datum(self) -> RootDatum:
        return self.finite.datum

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineWeylElement):
            return NotImplemented
        return (self.translation == other.translation
                and self.finite == other.finite)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((hash(self.finite), self.translation))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        return AffineWeylElement, (self.finite, self.translation)


def _reflection(root: Weight, coroot: Coroot) -> Matrix:
    """lam -> lam - <lam, a_check> a, on weight coordinates."""
    wt, c = root.coords, coroot.coords
    rank = len(wt)
    return tuple(
        tuple((1 if a == b else 0) - c[b] * wt[a] for b in range(rank))
        for a in range(rank))


class _Context:
    """Per-datum caches, the only owner of each: generators, the
    interned finite parts and the memo of their products (at most |W_f|
    and |W_f|^2 entries), the inversion sets of finite parts (at most
    |W_f|), the finite parts that the tables meet, numbered, with their
    w(rho) - rho and their step entries (at most |W_f| and |W_f| (rank +
    1)), the automorphisms of the Coxeter graph and the three tables of
    ``_Table``: the affine group, W_f and the dominant alcoves.  Nothing
    is memoised by group element: lengths, words and Bruhat comparisons
    are computed, or read off the tables, and W_f is listed in the order
    of its table.

    The group table stores each element's id on the element as it
    numbers it (``_gid``): the identity is id 0 and the generators,
    which carry their index in ``gens`` as ``_letter``, are numbered as
    they are.  The numbering is canonical, (length, reduced word) order
    for the datum, so the id is a function of the element, as its
    cached hash is, and not a memo keyed by element: a tag from an
    earlier context of the datum names the same element in this one,
    once its table has numbered that far.

    The context also owns the datum's handles, ``handles`` by builder
    (see ``_one_handle_per_datum``), so that dropping the context drops
    them, and the datum's one re-entrant ``lock``, which its three
    tables and every Hecke algebra of the datum take.  All that the
    lock guards is pure Python under the GIL, so one lock per datum
    serialises nothing that could run in parallel, and with one lock
    there is no lock order to keep."""

    def __init__(self, datum: RootDatum) -> None:
        self.datum = datum
        rank = datum.rank
        zero = (0,) * rank
        self.finite_parts: dict[Matrix, FiniteWeylElement] = {}
        self.products: dict[tuple[Matrix, Matrix], FiniteWeylElement] = {}
        self.identity = AffineWeylElement(self.intern(_identity(rank)), zero)
        self.finite_gens = [
            AffineWeylElement(self.intern(_reflection(*datum.simple_root(i))),
                              zero)
            for i in range(rank)]
        # the affine generator reflects in the wall cut out by the
        # highest coroot; its root is the dominant short root
        short_wt, short_c = datum.highest_coroot()
        self.s0 = AffineWeylElement(
            self.intern(_reflection(short_wt, short_c)), short_wt.coords)
        self.gens = self.finite_gens + [self.s0]
        for k, g in enumerate(self.gens):
            object.__setattr__(g, "_letter", k)
        self.coroots = [c.coords for _, c in datum.positive_roots]
        self.root_index: dict[tuple[int, ...], int] = {
            w.coords: k for k, (w, _) in enumerate(datum.positive_roots)}
        self.origin = Weight(zero)
        self.inversions_memo: dict[Matrix, tuple[bool, ...]] = {}
        self.parts: list[FiniteWeylElement] = []
        self.part_ids: dict[Matrix, int] = {}
        self.rho_shifts: list[tuple[int, ...]] = []
        self.steps: list[list[tuple[int, tuple[int, ...] | None] | None]] = []
        self.handles: dict[object, object] = {}
        self.lock = threading.RLock()
        self.group = _Table(self, self.gens, tag=True)
        self.finite = _Table(self, self.finite_gens)
        self.alcoves = _Table(self, self.gens, member=self.in_alcove)

    @cached_property
    def h(self) -> int:
        # on first use, so that building a context calls no other layer
        return coxeter_number(self.datum)

    @cached_property
    def automorphisms(self) -> list[tuple[int, ...]]:
        """The automorphisms of the Coxeter graph of ``gens`` but the
        identity, each as the tuple of the images of the letters.  They
        keep the Coxeter matrix, read off the extended Cartan matrix:
        the simple roots, and -theta for s0, theta being the root that
        s0 reflects in (the sign cancels in a_ij a_ji), and m_ij = 2, 3,
        4, 6 for a_ij a_ji = 0, 1, 2, 3, infinite (0 here) past that.  The search places one letter at a
        time, each image checked against the letters placed, the last
        placed first, as it is the one a path of the graph joins.  On
        first use, under the lock of the first table that grows."""
        datum = self.datum
        roots = [datum.simple_root(i) for i in range(datum.rank)]
        roots.append(datum.highest_coroot())
        n = len(roots)
        m = [[_COXETER_M.get(sum(map(mul, a.coords, bc.coords))
                             * sum(map(mul, b.coords, ac.coords)), 0)
              for b, bc in roots] for a, ac in roots]
        placed = [()]
        for k in range(n):
            placed = [p + (t,) for p in placed for t in range(n)
                      if t not in p and all(m[t][p[j]] == m[k][j]
                                            for j in range(k - 1, -1, -1))]
        return [p for p in placed if p != tuple(range(n))]

    def number(self, w: FiniteWeylElement) -> int:
        """The number of the finite part w among those the tables met,
        a new one, with its w(rho) - rho, the first time.  Call under
        the lock."""
        got = self.part_ids.get(w.matrix)
        if got is None:
            got = self.part_ids[w.matrix] = len(self.parts)
            w = self.intern(w.matrix)
            self.parts.append(w)
            self.rho_shifts.append(tuple(
                c - 1 for c in _mat_vec(w.matrix, (1,) * len(w.matrix))))
            self.steps.append([None] * len(self.gens))
        return got

    def step(self, f: int, s: int) -> tuple[int, tuple[int, ...] | None]:
        """The step entry of the numbered part w = ``parts[f]`` and the
        letter s, with gens[s] = t_gamma v: the number of w v and
        w(gamma), None when gamma = 0, so that t_beta w times gens[s] is
        t_{beta + w(gamma)} w v.  ``finite_product`` finds w v, and the
        entry is kept in ``steps[f][s]``.  Call under the lock."""
        w, g = self.parts[f], self.gens[s]
        moved = _mat_vec(w.matrix, g.translation) if any(
            g.translation) else None
        got = self.steps[f][s] = (
            self.number(self.finite_product(w, g.finite)), moved)
        return got

    def in_alcove(self, f: int, gamma: tuple[int, ...]) -> bool:
        """Is x = t_gamma w in ^fW, w the part numbered f, that is, is
        x . 0 dominant at p = h?  0 is p-regular for every p >= h, so
        the answer does not depend on p.  x . 0 = w(rho) - rho + h
        gamma, and w(rho) - rho is read off ``rho_shifts``."""
        h = self.h
        return all(a + h * g >= 0 for a, g in zip(self.rho_shifts[f], gamma))

    def is_alcove(self, x: AffineWeylElement) -> bool:
        """``in_alcove`` of an element."""
        with self.lock:
            return self.in_alcove(self.number(x.finite), x.translation)

    def intern(self, m: Matrix) -> FiniteWeylElement:
        """The one finite part of matrix m."""
        return self.finite_parts.setdefault(
            m, FiniteWeylElement(self.datum, m))

    def finite_product(self, w: FiniteWeylElement, v: FiniteWeylElement
                       ) -> FiniteWeylElement:
        """The interned w v: one matrix product per pair of finite parts,
        a lookup after that.  Concurrent misses store equal values."""
        key = (w.matrix, v.matrix)
        got = self.products.get(key)
        if got is None:
            got = self.products[key] = self.intern(_mat_mul(*key))
        return got

    def inversions(self, w: FiniteWeylElement) -> tuple[bool, ...]:
        """Per positive root a (in datum order): is w^{-1}(a) negative?

        These a form the set {-w(b) : b > 0, w(b) < 0}.
        """
        got = self.inversions_memo.get(w.matrix)
        if got is None:
            flags = [False] * len(self.root_index)
            for wt in self.root_index:
                k = self.root_index.get(
                    tuple(-c for c in _mat_vec(w.matrix, wt)))
                if k is not None:
                    flags[k] = True
            got = self.inversions_memo[w.matrix] = tuple(flags)
        return got

    def finite_elements(self) -> list[tuple[FiniteWeylElement, int]]:
        """W_f with lengths, in the (length, reduced word) order of the
        ``finite`` table; w0 comes last."""
        table = self.finite
        n = table.up_to(len(self.coroots))  # l(w0): one per positive root
        return [(x.finite, k) for x, k in zip(table.elems[:n], table.lens)]


_LEAF = -2  # right-table mark of a table with a membership test
_COXETER_M = {0: 2, 1: 3, 2: 4, 3: 6}  # m_ij by a_ij a_ji; infinite past
_BIT = bytes.maketrans(b"01", b"\0\1")  # binary digits to selectors


class _Table:
    """The elements of the group that ``gens``, generators of the
    context ``ctx``, generate, or those that pass ``member``, numbered
    level by level in (length, reduced word) order.  ``member`` must
    hold for every prefix of a member, and reads the key of an element
    t_gamma w, the number of w among the context's parts and gamma; the
    context's table of dominant alcoves tests membership of the minimal
    coset representatives ^fW.

    ``elems[i]`` is the element of id i, ``index`` maps it back,
    ``lens[i]`` is its length and ``part[i]`` the number of its finite
    part.  With ``tag`` (the context's table of the whole group),
    ``elems[i]._gid`` is i as well, and ``find`` reads that instead of
    hashing.  The identity is ``elems[0]`` and each generator of
    ``gens`` is numbered itself, not a copy.
    ``right[s][i]`` is the id of x_i s, ``_LEAF`` when x_i s fails
    ``member`` (for ^fW, x_i s = t x_i for a finite simple t, Deodhar's
    lemma), and -1 while x_i s is longer than every enumerated element.
    ``last[i]`` is the last letter of the reduced word of x_i.
    ``inverse[i]``, in a table with no ``member`` test (a whole group),
    is the id of x_i^{-1}, and ``inverse`` is None otherwise.
    ``symmetries`` holds, per automorphism sigma of the Coxeter graph
    but the identity that maps the table to itself, sigma (the images
    of the letters) and two columns, the ids of sigma(x_i) and of
    sigma^{-1}(x_i), one list for an involution: every sigma for the
    whole affine group, those that fix s0 for W_f and the dominant
    alcoves.  ``complete`` is set when a level finds nothing new: the
    group is finite and every element has its id.

    A level is grown whole under ``lock``, the lock of the datum's
    context, and every question about what is enumerated goes through
    it, so no reader sees half a level.  The entries of a complete level
    below the top never change again.  ``multiply``, ``length`` and
    ``find`` read without the lock, and only what is set once: ``elems``
    and ``lens`` only grow, and an entry of ``right`` goes once from -1
    to an id, after the element of that id is appended, tagged and
    given its entries.
    """

    def __init__(self, ctx: _Context, gens: list[AffineWeylElement],
                 member=None, tag: bool = False) -> None:
        self.ctx = ctx
        self.gens = gens
        self.lock = ctx.lock
        self.member = member
        self.tag = tag
        identity = ctx.identity
        if tag:
            object.__setattr__(identity, "_gid", 0)
        self.elems = [identity]
        self.index = {identity: 0}
        self.lens = [0]
        self.part: list[int] = []  # set, with symmetries, at the first level
        self.right = [[-1] for _ in gens]
        self.last = [-1]
        self.inverse = [0] if member is None else None
        self.symmetries: list[tuple[tuple[int, ...], list[int], list[int]]
                              ] | None = None
        self.complete = False

    def _start(self) -> None:
        """Number the identity's part and read off the context which
        automorphisms map the table to itself: all of them for the whole
        affine group, those that fix s0 otherwise, as W_f and ^fW are
        made of s0 and the finite letters."""
        ctx = self.ctx
        self.part.append(ctx.number(ctx.identity.finite))
        n = len(self.gens)
        whole = self.member is None and n == len(ctx.gens)
        cols = {sigma[:n]: [0] for sigma in ctx.automorphisms
                if whole or sigma[-1] == len(sigma) - 1}
        self.symmetries = [
            (sigma, col, cols[tuple(sorted(range(n), key=sigma.__getitem__))])
            for sigma, col in cols.items()]

    def _grow(self) -> None:
        """Enumerate the level one longer than the longest so far.  Every
        unknown edge from the top level leads one level up (prefixes of
        members are members, so no edge x s leads back), to a new
        element or to a leaf.  Each is found as a key, the number of its
        finite part and its translation, by one step entry of the
        context, and an element is built once per new key; id 0 is the
        identity, so its products are the generators themselves.  The
        edges are read by id and then by letter, so the first edge that
        reaches a key is its smallest: the smallest reduced word of y is
        that of its smallest x below, followed by s, and the ids of the
        level below are in word order already.  The symmetry columns
        follow, one lookup per new id each, sigma(x s) = sigma(x)
        sigma(s).  Call under the lock."""
        if self.symmetries is None:
            self._start()
        ctx, right, part, elems = self.ctx, self.right, self.part, self.elems
        steps, member = ctx.steps, self.member
        top, hi = self.lens[-1], len(elems)
        lo = bisect_left(self.lens, top)
        found: dict[tuple[int, tuple[int, ...]], list[tuple[int, int]]] = {}
        for i in range(lo, hi):
            f, gamma = part[i], elems[i].translation
            for s, col in enumerate(right):
                if col[i] == -1:
                    g, moved = steps[f][s] or ctx.step(f, s)
                    key = (g, gamma if moved is None
                           else tuple(map(add, gamma, moved)))
                    if member is None or member(*key):
                        found.setdefault(key, []).append((i, s))
                    else:
                        col[i] = _LEAF
        if not found:
            self.complete = True
            return
        down = [edges[0] for edges in found.values()]
        for j, ((g, gamma), edges) in enumerate(found.items(), hi):
            i, s = edges[0]
            y = AffineWeylElement(ctx.parts[g], gamma) if i else self.gens[s]
            elems.append(y)
            self.lens.append(top + 1)
            self.last.append(s)
            part.append(g)
            for col in right:
                col.append(-1)
            self.index[y] = j
            if self.tag:
                object.__setattr__(y, "_gid", j)
            for i, s in edges:
                right[s][i] = j
                right[s][j] = i
        for sigma, col, _ in self.symmetries:
            col += [right[sigma[s]][col[i]] for i, s in down]
        if self.inverse is not None:
            self.inverse += map(self._inverse, range(hi, len(elems)))

    def _inverse(self, j: int) -> int:
        """The id of x_j^{-1}, with no group law: the reduced word of x_j
        read backwards, ``last`` walked down from j and ``right`` up from
        id 0.  Every edge of the walk ends at a length <= l(x_j), and all
        of those are set once the level of x_j is in place."""
        i = 0
        while j:
            s = self.last[j]
            i = self.right[s][i]
            j = self.right[s][j]
        return i

    def up_to(self, max_len: int) -> int:
        """The number of ids of length <= max_len, enumerated first."""
        with self.lock:
            while self.lens[-1] < max_len and not self.complete:
                self._grow()
            return bisect_right(self.lens, max_len)

    def find(self, x: AffineWeylElement) -> int | None:
        """The id of x, None while x has none.  Read off x's tag when the
        table tags: an id is canonical, so a tag from an earlier context
        is the id here too, once this table has numbered that far."""
        if self.tag:
            i = x._gid
            if i is not None:
                return i if i < len(self.elems) else None
        return self.index.get(x)

    def element_id(self, x: AffineWeylElement) -> int:
        """The id of x, an element of the table."""
        with self.lock:
            i = self.find(x)
            if i is None:
                self.up_to(_length(x))
                i = self.index[x]
            return i

    def word(self, x: AffineWeylElement) -> list[int] | None:
        """The reduced word of x that the numbering encodes, the smallest
        one (see ``_grow``): ``last`` read down the right action to id 0.
        None when x has no id yet."""
        with self.lock:
            i = self.find(x)
            if i is None:
                return None
            out = []
            while i:
                s = self.last[i]
                out.append(s)
                i = self.right[s][i]
            out.reverse()
            return out

    def ideals(self, n: int) -> list[int]:
        """{y in the table : y <= x} for the first n ids x, all of them
        handed out already, as int bitsets (bit y for id y): the ideal
        of x is that of xs together with every ys in the table of its
        members, s being the last letter of x."""
        out = [1]
        for x in range(1, n):
            right = self.right[self.last[x]]
            below = bin(out[right[x]])[:1:-1].encode()  # b"1" at y <= xs
            mark = bytearray(below.ljust(n, b"0"))
            for ys in itertools.compress(right, below.translate(_BIT)):
                if ys >= 0:
                    mark[ys] = 49  # b"1"
            out.append(int(mark[::-1], 2))
        return out


_CONTEXTS: dict[RootDatum, _Context] = {}
_CONTEXTS_LOCK = threading.Lock()


def _context(datum: RootDatum) -> _Context:
    """The context of the datum, built on first use under the one lock
    that creates contexts, so that concurrent first calls share it.  A
    datum with no context is checked first, so every function that
    reaches its context raises TypeError for an object of another kind.
    ``_context.cache_clear()`` drops every context, and with them every
    handle built on one."""
    got = _CONTEXTS.get(datum)
    if got is None:
        _check_datum(datum)
        with _CONTEXTS_LOCK:
            got = _CONTEXTS.get(datum)
            if got is None:
                got = _CONTEXTS[datum] = _Context(datum)
    return got


_context.cache_clear = _CONTEXTS.clear


def _one_handle_per_datum(build):
    """Memoise ``build`` per datum, in the ``handles`` of the datum's
    context.  A first call builds under the context's lock, so that
    concurrent first calls share one handle, and a handle is stored
    only once built."""

    @wraps(build)
    def handle(datum: RootDatum):
        ctx = _context(datum)
        got = ctx.handles.get(build)
        if got is None:
            with ctx.lock:
                got = ctx.handles.get(build)
                if got is None:
                    got = ctx.handles[build] = build(datum)
        return got

    return handle


def identity_element(datum: RootDatum) -> AffineWeylElement:
    return _context(datum).identity


def generators(datum: RootDatum) -> list[AffineWeylElement]:
    """The rank+1 affine generators, finite simples first, then s0.

    >>> from weylkit.lattice import build_root_datum
    >>> len(generators(build_root_datum("A2")))
    3
    """
    return list(_context(datum).gens)


def embed_finite(w: FiniteWeylElement) -> AffineWeylElement:
    """View a finite element as an affine one (zero translation)."""
    if not isinstance(w, FiniteWeylElement):
        raise TypeError(
            f"embed_finite needs a FiniteWeylElement, got {type(w).__name__}")
    return AffineWeylElement(w, (0,) * w.datum.rank)


def multiply(x: AffineWeylElement, y: AffineWeylElement) -> AffineWeylElement:
    """Group law (t_g1 w1)(t_g2 w2) = t_{g1 + w1(g2)} (w1 w2).

    When the group table has numbered x and y is a generator of the
    context, and the table already holds x y, that element is returned:
    the table is the memo of this arithmetic, which filled it.  The read
    takes no lock: an entry of ``right`` is set once, after the element
    it names is appended.  A finite element is embedded, and anything
    else raises as ``_as_affine`` does, both off the path of a product
    of two affine elements of one datum."""
    try:
        w, v = x.finite, y.finite
    except AttributeError:
        return multiply(_as_affine(x), _as_affine(y))
    datum = w.datum
    if datum is not v.datum:
        _as_affine(y, datum)
    ctx = _context(datum)
    i = x._gid
    if i is not None:
        s = y._letter
        if s is not None and ctx.gens[s] is y:
            col = ctx.group.right[s]
            if i < len(col) and col[i] >= 0:
                return ctx.group.elems[col[i]]
    trans = x.translation
    if any(y.translation):
        trans = tuple(a + b for a, b in zip(
            trans, _mat_vec(w.matrix, y.translation)))
    return AffineWeylElement(ctx.finite_product(w, v), trans)


def inverse(x: AffineWeylElement) -> AffineWeylElement:
    """Group inverse t_{-w^{-1}(gamma)} w^{-1}."""
    x = _as_affine(x)
    det, adj = det_adjugate(x.finite.matrix)  # det w = +-1
    inv = tuple(tuple(det * c for c in row) for row in adj)
    trans = tuple(-c for c in _mat_vec(inv, x.translation))
    return AffineWeylElement(_context(x.datum).intern(inv), trans)


def dot_p(x: AffineWeylElement, weight: Weight, p: int) -> Weight:
    """p-dilated dot action: t_gamma w acts by w(l + rho) - rho + p*gamma.

    >>> from weylkit.lattice import build_root_datum, Weight
    >>> d = build_root_datum("A1")
    >>> s1, s0 = generators(d)
    >>> dot_p(s1, Weight((0,)), 5)
    Weight(coords=(-2,))
    """
    x = _as_affine(x)
    check_int("p", p, 1)
    _check_weight(weight, len(x.translation))
    moved = _mat_vec(x.finite.matrix, tuple(c + 1 for c in weight.coords))
    return Weight(tuple(m - 1 + p * g for m, g in zip(moved, x.translation)))


def _as_affine(x: AffineWeylElement | FiniteWeylElement,
               datum: RootDatum | None = None) -> AffineWeylElement:
    """x as an element of the affine group, a finite element embedded:
    TypeError if x is no Weyl group element, ValueError if it belongs
    to another datum than the one given.  Every public function that
    takes an element asks it."""
    if not isinstance(x, AffineWeylElement):
        if not isinstance(x, FiniteWeylElement):
            raise TypeError(
                f"expected a Weyl group element, got {type(x).__name__}")
        x = embed_finite(x)
    if datum is not None and x.datum is not datum and x.datum != datum:
        raise ValueError("elements belong to different root data")
    return x


def _length(x: AffineWeylElement) -> int:
    # Iwahori-Matsumoto: sum over positive roots a of |<gamma, a_check>|
    # when w^{-1}(a) stays positive and |<gamma, a_check> - 1| otherwise.
    ctx = _context(x.datum)
    gamma = x.translation
    got = 0
    for c, neg in zip(ctx.coroots, ctx.inversions(x.finite)):
        n = sum(map(mul, gamma, c))
        got += abs(n - 1) if neg else abs(n)
    return got


def length(x: AffineWeylElement | FiniteWeylElement) -> int:
    """Coxeter length, via the translation-and-inversion count.

    >>> from weylkit.lattice import build_root_datum
    >>> d = build_root_datum("A1")
    >>> s1, s0 = generators(d)
    >>> length(multiply(s0, s1))  # the basic translation
    2
    """
    x = _as_affine(x)
    i = x._gid
    if i is not None:
        lens = _context(x.datum).group.lens
        if i < len(lens):
            return lens[i]
    return _length(x)


def _left_descent(ctx: _Context, x: AffineWeylElement, x_len: int
                  ) -> tuple[int, AffineWeylElement]:
    """The smallest i with l(s_i x) < l(x) = x_len, and s_i x."""
    for i, s in enumerate(ctx.gens):
        sx = multiply(s, x)
        if _length(sx) < x_len:
            return i, sx
    raise AssertionError("element of positive length has no descent")


def reduced_word(x: AffineWeylElement | FiniteWeylElement) -> list[int]:
    """The lexicographically smallest reduced expression, as generator
    indices.  Multiplying the listed generators in order reproduces the
    element.

    Its first letter is the smallest left descent, and so on, until the
    rest has an id in one of the context's tables, whose numbering
    encodes the smallest word of each id.  The identity is id 0 of
    each, so the walk ends.  The length of x is computed only when no
    table has x.
    """
    x = _as_affine(x)
    ctx = _context(x.datum)
    word: list[int] = []
    x_len = -1  # l(x), once the walk needs it
    while True:
        for table in (ctx.group, ctx.alcoves, ctx.finite):
            tail = table.word(x)
            if tail is not None:
                return word + tail
        if x_len < 0:
            x_len = _length(x)
        i, x = _left_descent(ctx, x, x_len)
        word.append(i)
        x_len -= 1


def bruhat_leq(x: AffineWeylElement | FiniteWeylElement,
               y: AffineWeylElement | FiniteWeylElement) -> bool:
    """Bruhat order via the descent recursion.

    With s a left descent of y: if s is also a descent of x then
    x <= y iff sx <= sy, otherwise x <= y iff x <= sy.
    """
    x = _as_affine(x)
    y = _as_affine(y, x.datum)
    ctx = _context(x.datum)
    x_len, y_len = _length(x), _length(y)
    while x_len < y_len:
        i, y = _left_descent(ctx, y, y_len)
        sx = multiply(ctx.gens[i], x)
        if _length(sx) < x_len:
            x, x_len = sx, x_len - 1
        y_len -= 1
    return x == y


def is_min_coset_rep_fW(x: AffineWeylElement) -> bool:
    """True iff no finite simple reflection shortens x from the left."""
    x = _as_affine(x)
    ctx = _context(x.datum)
    lx = _length(x)
    return all(_length(multiply(s, x)) > lx for s in ctx.finite_gens)


def _elements_up_to_length(datum: RootDatum, max_len: int
                           ) -> list[AffineWeylElement]:
    # a prefix of the context's table of the whole group
    table = _context(datum).group
    return table.elems[:table.up_to(max_len)]


def _check_p(datum: RootDatum, p: int) -> None:
    """Raise unless p is a plain int at least the Coxeter number h of
    the datum, the least p at which 0 is p-regular: the principal
    block's orbit, its alcoves and the character formula all assume
    it."""
    h = _context(datum).h
    check_ints("p", (p,))
    if p < h:
        raise ValueError(f"p must be at least the Coxeter number {h}")


def dominant_orbit(datum: RootDatum, p: int, max_len: int
                   ) -> list[tuple[AffineWeylElement, Weight]]:
    """Minimal coset representatives with dominant dot-image of zero.

    All x of length <= max_len with x . 0 dominant, paired with that
    weight, sorted by length and then by reduced word.  They are a
    prefix of the datum's table of dominant alcoves, walked once and
    shared with the spherical module of ``weylkit.hecke``: position i is
    id i there, for every p >= h.

    >>> from weylkit.lattice import build_root_datum
    >>> d = build_root_datum("A1")
    >>> [w.coords[0] for _, w in dominant_orbit(d, 5, 6)]
    [0, 8, 10, 18, 20, 28, 30]
    """
    _check_p(datum, p)
    check_int("max_len", max_len, 0)
    ctx = _context(datum)
    n = ctx.alcoves.up_to(max_len)
    return [(x, dot_p(x, ctx.origin, p)) for x in ctx.alcoves.elems[:n]]


def _rho_pairings(datum: RootDatum, coords: tuple[int, ...]) -> list[int]:
    """<lam + rho, a_check> over the positive roots a, in datum order,
    lam given by its weight coordinates."""
    shifted = [c + 1 for c in coords]
    return [sum(map(mul, shifted, c.coords)) for _, c in datum.positive_roots]


def is_p_regular(datum: RootDatum, weight: Weight, p: int) -> bool:
    """True iff no affine wall contains the weight (rho-shifted, mod p)."""
    _check_datum(datum)
    check_int("p", p, 1)
    _check_weight(weight, datum.rank)
    return all(n % p for n in _rho_pairings(datum, weight.coords))


def _canonical_chamber_point(datum: RootDatum, nu: tuple[int, ...], p: int
                             ) -> tuple[int, ...]:
    """Reflect nu into {0 <= <nu, a_i> for all i, <nu, hc> <= p}.

    hc is the highest coroot.  Bounded loop as an internal-error guard.
    """
    ctx = _context(datum)
    rank = datum.rank
    beta_wt, beta_c = datum.highest_coroot()
    cur = list(nu)
    for _ in range(10 ** 6):
        neg = next((i for i in range(rank) if cur[i] < 0), None)
        if neg is not None:
            coeff = cur[neg]
            for a in range(rank):
                cur[a] -= coeff * datum.cartan[a][neg]
            continue
        t = sum(cur[k] * beta_c.coords[k] for k in range(rank))
        if t > p:
            for a in range(rank):
                cur[a] -= (t - p) * beta_wt.coords[a]
            continue
        return tuple(cur)
    raise RuntimeError("wall reflection failed to reach the closed alcove")


def same_block(datum: RootDatum, lam: Weight, mu: Weight, p: int) -> bool:
    """Linkage test: do the p-dilated dot orbits of lam and mu agree?

    Each rho-shifted weight is reflected to its unique representative in
    the closed fundamental alcove and the representatives are compared.
    """
    _check_datum(datum)
    check_int("p", p, 1)
    _check_weight(lam, datum.rank)
    _check_weight(mu, datum.rank)
    a = _canonical_chamber_point(
        datum, tuple(c + 1 for c in lam.coords), p)
    b = _canonical_chamber_point(
        datum, tuple(c + 1 for c in mu.coords), p)
    return a == b


def _in_jantzen_region(datum: RootDatum, weight: Weight, p: int) -> bool:
    """<weight + rho, a_check> <= p(p - h + 2) over the positive roots a."""
    bound = p * (p - _context(datum).h + 2)
    return all(n <= bound for n in _rho_pairings(datum, weight.coords))


def jantzen_condition(x: AffineWeylElement, p: int) -> bool:
    """Bound test <x . 0 + rho, a_check> <= p(p - h + 2) over positive a."""
    x = _as_affine(x)
    w = dot_p(x, _context(x.datum).origin, p)
    if not is_dominant(w):
        raise ValueError("x must have a dominant dot-image of zero")
    return _in_jantzen_region(x.datum, w, p)


def count_p_restricted_in_orbit(datum: RootDatum, p: int) -> int:
    """Number of p-restricted weights in the dot orbit of zero.

    Scans the restricted box and compares canonical alcove
    representatives; equals |W_f| / (index of connection).

    >>> from weylkit.lattice import build_root_datum
    >>> count_p_restricted_in_orbit(build_root_datum("A2"), 5)
    2
    """
    _check_p(datum, p)
    target = _canonical_chamber_point(datum, (1,) * datum.rank, p)
    count = 0
    for coords in itertools.product(range(p), repeat=datum.rank):
        nu = tuple(c + 1 for c in coords)
        if _canonical_chamber_point(datum, nu, p) == target:
            count += 1
    return count


def enumerate_finite_weyl(datum: RootDatum) -> list[tuple[FiniteWeylElement, int]]:
    """All finite Weyl group elements with their lengths, in (length,
    reduced word) order."""
    return _context(datum).finite_elements()


def longest_finite_element(datum: RootDatum) -> FiniteWeylElement:
    """The longest element of the finite Weyl group."""
    return _context(datum).finite_elements()[-1][0]


def element_to_json(x: AffineWeylElement) -> dict:
    """Reduced word, finite matrix and the translation in simple-root
    coordinates."""
    x = _as_affine(x)
    det, adj = det_adjugate(x.datum.cartan)
    return {
        "word": reduced_word(x),
        "finite_matrix": [list(row) for row in x.finite.matrix],
        "translation": [c // det for c in _mat_vec(adj, x.translation)],
    }


if __name__ == "__main__":
    import doctest

    doctest.testmod()
