"""Finite and affine Weyl groups of a root datum.

Elements of the affine group W = W_f x ZR are stored as a finite part
(one integer matrix acting on weight coordinates) together with a
root-lattice translation written in weight coordinates, so equality is
a plain component comparison, a product is one matrix product and one
matrix-vector product, and no word rewriting is needed.  Words,
lengths, Bruhat order and the p-dilated dot action are all derived
from that normal form.

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
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from weylkit._exact import det_adjugate
from weylkit.lattice import (
    Coroot,
    RootDatum,
    Weight,
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
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n))


def _mat_vec(a: Matrix, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)


@dataclass(frozen=True, eq=False)
class FiniteWeylElement:
    """Finite Weyl group element.

    ``matrix`` acts on fundamental-weight coordinates.  The inverse and
    the inversion set are derived from it when needed.
    """

    datum: RootDatum
    matrix: Matrix

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteWeylElement):
            return NotImplemented
        return self.matrix == other.matrix and (
            self.datum is other.datum or self.datum == other.datum)

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((hash(self.datum), self.matrix))
            object.__setattr__(self, "_hash", cached)
        return cached

    def apply(self, weight: Weight) -> Weight:
        return Weight(_mat_vec(self.matrix, weight.coords))

    @property
    def is_identity(self) -> bool:
        return self.matrix == _identity(self.datum.rank)


@dataclass(frozen=True, eq=False)
class AffineWeylElement:
    """Affine Weyl group element t_gamma * w.

    ``translation`` is gamma, an element of the root lattice, in
    fundamental-weight coordinates; ``finite`` is w.
    """

    finite: FiniteWeylElement
    translation: tuple[int, ...]

    @property
    def datum(self) -> RootDatum:
        return self.finite.datum

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineWeylElement):
            return NotImplemented
        return (self.translation == other.translation
                and self.finite == other.finite)

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((hash(self.finite), self.translation))
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def is_identity(self) -> bool:
        return (all(c == 0 for c in self.translation)
                and self.finite.is_identity)


def _reflection(datum: RootDatum, root: Weight, coroot: Coroot
                ) -> FiniteWeylElement:
    """lam -> lam - <lam, a_check> a, on weight coordinates."""
    rank = datum.rank
    wt, c = root.coords, coroot.coords
    return FiniteWeylElement(datum, tuple(
        tuple((1 if a == b else 0) - c[b] * wt[a] for b in range(rank))
        for a in range(rank)))


class _Context:
    """Per-datum caches, the only owner of each: generators, the
    inversion sets of finite parts, lengths, reduced words, the Bruhat
    memo and the W_f list."""

    def __init__(self, datum: RootDatum) -> None:
        self.datum = datum
        rank = datum.rank
        zero = (0,) * rank
        self.identity = AffineWeylElement(
            FiniteWeylElement(datum, _identity(rank)), zero)
        self.finite_gens = [
            AffineWeylElement(_reflection(datum, *datum.simple_root(i)), zero)
            for i in range(rank)]
        # the affine generator reflects in the wall cut out by the
        # highest coroot; its root is the dominant short root
        short_wt, short_c = datum.highest_coroot()
        self.s0 = AffineWeylElement(_reflection(datum, short_wt, short_c),
                                    short_wt.coords)
        self.gens = self.finite_gens + [self.s0]
        self.coroots = [c.coords for _, c in datum.positive_roots]
        self.root_index: dict[tuple[int, ...], int] = {
            w.coords: k for k, (w, _) in enumerate(datum.positive_roots)}
        self.inversions_memo: dict[Matrix, tuple[bool, ...]] = {}
        self.length_memo: dict[AffineWeylElement, int] = {}
        self.word_memo: dict[AffineWeylElement, tuple[int, ...]] = {}
        self.bruhat_memo: dict[tuple[AffineWeylElement, AffineWeylElement], bool] = {}
        self._finite_list: list[tuple[FiniteWeylElement, int]] | None = None

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
        if self._finite_list is None:
            seen = {self.identity.finite: 0}
            frontier = [self.identity.finite]
            depth = 0
            while frontier:
                depth += 1
                nxt = []
                for w in frontier:
                    for g in self.finite_gens:
                        prod = FiniteWeylElement(
                            self.datum, _mat_mul(w.matrix, g.finite.matrix))
                        if prod not in seen:
                            seen[prod] = depth
                            nxt.append(prod)
                frontier = nxt
            self._finite_list = sorted(seen.items(),
                                       key=lambda wl: (wl[1], wl[0].matrix))
        return self._finite_list


@lru_cache(maxsize=None)
def _context(datum: RootDatum) -> _Context:
    return _Context(datum)


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
    return AffineWeylElement(w, (0,) * w.datum.rank)


def multiply(x: AffineWeylElement, y: AffineWeylElement) -> AffineWeylElement:
    """Group law (t_g1 w1)(t_g2 w2) = t_{g1 + w1(g2)} (w1 w2)."""
    if x.datum is not y.datum and x.datum != y.datum:
        raise ValueError("elements belong to different root data")
    m = x.finite.matrix
    trans = tuple(a + b for a, b in zip(x.translation,
                                         _mat_vec(m, y.translation)))
    return AffineWeylElement(
        FiniteWeylElement(x.datum, _mat_mul(m, y.finite.matrix)), trans)


def inverse(x: AffineWeylElement) -> AffineWeylElement:
    """Group inverse t_{-w^{-1}(gamma)} w^{-1}."""
    det, adj = det_adjugate(x.finite.matrix)  # det w = +-1
    inv = tuple(tuple(det * c for c in row) for row in adj)
    trans = tuple(-c for c in _mat_vec(inv, x.translation))
    return AffineWeylElement(FiniteWeylElement(x.datum, inv), trans)


def dot_p(x: AffineWeylElement, weight: Weight, p: int) -> Weight:
    """p-dilated dot action: t_gamma w acts by w(l + rho) - rho + p*gamma.

    >>> from weylkit.lattice import build_root_datum, Weight
    >>> d = build_root_datum("A1")
    >>> s1, s0 = generators(d)
    >>> dot_p(s1, Weight((0,)), 5)
    Weight(coords=(-2,))
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    moved = _mat_vec(x.finite.matrix, tuple(c + 1 for c in weight.coords))
    return Weight(tuple(m - 1 + p * g for m, g in zip(moved, x.translation)))


def _as_affine(x: AffineWeylElement | FiniteWeylElement) -> AffineWeylElement:
    if isinstance(x, FiniteWeylElement):
        return embed_finite(x)
    return x


def _length(x: AffineWeylElement) -> int:
    # Iwahori-Matsumoto: sum over positive roots a of |<gamma, a_check>|
    # when w^{-1}(a) stays positive and |<gamma, a_check> - 1| otherwise.
    ctx = _context(x.datum)
    got = ctx.length_memo.get(x)
    if got is None:
        gamma = x.translation
        got = 0
        for c, neg in zip(ctx.coroots, ctx.inversions(x.finite)):
            n = sum(g * a for g, a in zip(gamma, c))
            got += abs(n - 1) if neg else abs(n)
        ctx.length_memo[x] = got
    return got


def length(x: AffineWeylElement | FiniteWeylElement) -> int:
    """Coxeter length, via the translation-and-inversion count.

    >>> from weylkit.lattice import build_root_datum
    >>> d = build_root_datum("A1")
    >>> s1, s0 = generators(d)
    >>> length(multiply(s0, s1))  # the basic translation
    2
    """
    return _length(_as_affine(x))


def _reduced_word_t(x: AffineWeylElement) -> tuple[int, ...]:
    # Left-greedy: the first letter is the smallest left descent.  Only
    # this function fills word_memo, so a memoised suffix is the word
    # the walk would have produced from there on.
    ctx = _context(x.datum)
    memo = ctx.word_memo
    got = memo.get(x)
    if got is not None:
        return got
    word: list[int] = []
    cur = x
    cur_len = _length(cur)
    while cur_len > 0:
        for i, s in enumerate(ctx.gens):
            nxt = multiply(s, cur)
            if _length(nxt) < cur_len:
                word.append(i)
                cur = nxt
                cur_len -= 1
                break
        else:
            raise AssertionError("element of positive length has no descent")
        tail = memo.get(cur)
        if tail is not None:
            word.extend(tail)
            break
    got = memo[x] = tuple(word)
    return got


def reduced_word(x: AffineWeylElement | FiniteWeylElement) -> list[int]:
    """One reduced expression, as generator indices, left descents first.

    Multiplying the listed generators in order reproduces the element.
    """
    return list(_reduced_word_t(_as_affine(x)))


def bruhat_leq(x: AffineWeylElement | FiniteWeylElement,
               y: AffineWeylElement | FiniteWeylElement) -> bool:
    """Bruhat order via the descent recursion.

    With s a left descent of y: if s is also a descent of x then
    x <= y iff sx <= sy, otherwise x <= y iff x <= sy.
    """
    x = _as_affine(x)
    y = _as_affine(y)
    if x.datum is not y.datum and x.datum != y.datum:
        raise ValueError("elements belong to different root data")
    ctx = _context(x.datum)
    memo = ctx.bruhat_memo

    def rec(a: AffineWeylElement, b: AffineWeylElement) -> bool:
        if a == b:
            return True
        la, lb = _length(a), _length(b)
        if la >= lb:
            return False
        key = (a, b)
        got = memo.get(key)
        if got is not None:
            return got
        for s in ctx.gens:
            sb = multiply(s, b)
            if _length(sb) < lb:
                sa = multiply(s, a)
                if _length(sa) < la:
                    res = rec(sa, sb)
                else:
                    res = rec(a, sb)
                break
        else:
            raise AssertionError("no descent found")
        memo[key] = res
        return res

    return rec(x, y)


def is_min_coset_rep_fW(x: AffineWeylElement) -> bool:
    """True iff no finite simple reflection shortens x from the left."""
    ctx = _context(x.datum)
    lx = _length(x)
    return all(_length(multiply(s, x)) > lx for s in ctx.finite_gens)


def _elements_up_to_length(
        datum: RootDatum, max_len: int,
        keep: Callable[[AffineWeylElement], bool] = lambda x: True,
) -> list[AffineWeylElement]:
    # Breadth-first by right multiplication.  x*s is one longer than x
    # unless it is a prefix of x, which a level below already holds:
    # so ``keep`` must be closed under prefixes.
    ctx = _context(datum)
    seen = {ctx.identity}
    frontier = [ctx.identity]
    for _ in range(max_len):
        nxt = []
        for x in frontier:
            for s in ctx.gens:
                y = multiply(x, s)
                if y not in seen and keep(y):
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return list(seen)


def dominant_orbit(datum: RootDatum, p: int, max_len: int
                   ) -> list[tuple[AffineWeylElement, Weight]]:
    """Minimal coset representatives with dominant dot-image of zero.

    Walks the dominant alcoves alone: all x of length <= max_len with
    x . 0 dominant, paired with that weight, sorted by length and then
    by reduced word.

    >>> from weylkit.lattice import build_root_datum
    >>> d = build_root_datum("A1")
    >>> [w.coords[0] for _, w in dominant_orbit(d, 5, 6)]
    [0, 8, 10, 18, 20, 28, 30]
    """
    h = coxeter_number(datum)
    if p < h:
        raise ValueError(f"p must be at least the Coxeter number {h}")
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    zero = Weight((0,) * datum.rank)
    # 0 is p-regular for p >= h, so x . 0 lies inside the alcove of x
    # and x has no finite left descent exactly when x . 0 is dominant.
    # Prefixes of minimal representatives are minimal.
    out = [(x, dot_p(x, zero, p)) for x in _elements_up_to_length(
        datum, max_len, lambda x: is_dominant(dot_p(x, zero, p)))]
    out.sort(key=lambda xw: (_length(xw[0]), _reduced_word_t(xw[0])))
    return out


def is_p_regular(datum: RootDatum, weight: Weight, p: int) -> bool:
    """True iff no affine wall contains the weight (rho-shifted, mod p)."""
    if p < 1:
        raise ValueError("p must be at least 1")
    for wt, c in datum.positive_roots:
        val = sum((weight.coords[k] + 1) * c.coords[k]
                  for k in range(datum.rank))
        if val % p == 0:
            return False
    return True


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
    if p < 1:
        raise ValueError("p must be at least 1")
    a = _canonical_chamber_point(
        datum, tuple(c + 1 for c in lam.coords), p)
    b = _canonical_chamber_point(
        datum, tuple(c + 1 for c in mu.coords), p)
    return a == b


def jantzen_condition(x: AffineWeylElement, p: int) -> bool:
    """Bound test <x . 0 + rho, a_check> <= p(p - h + 2) over positive a."""
    datum = x.datum
    w = dot_p(x, Weight((0,) * datum.rank), p)
    if not is_dominant(w):
        raise ValueError("x must have a dominant dot-image of zero")
    h = coxeter_number(datum)
    bound = p * (p - h + 2)
    for wt, c in datum.positive_roots:
        val = sum((w.coords[k] + 1) * c.coords[k] for k in range(datum.rank))
        if val > bound:
            return False
    return True


def count_p_restricted_in_orbit(datum: RootDatum, p: int) -> int:
    """Number of p-restricted weights in the dot orbit of zero.

    Scans the restricted box and compares canonical alcove
    representatives; equals |W_f| / (index of connection).

    >>> from weylkit.lattice import build_root_datum
    >>> count_p_restricted_in_orbit(build_root_datum("A2"), 5)
    2
    """
    h = coxeter_number(datum)
    if p < h:
        raise ValueError(f"p must be at least the Coxeter number {h}")
    target = _canonical_chamber_point(datum, (1,) * datum.rank, p)
    count = 0
    for coords in itertools.product(range(p), repeat=datum.rank):
        nu = tuple(c + 1 for c in coords)
        if _canonical_chamber_point(datum, nu, p) == target:
            count += 1
    return count


def enumerate_finite_weyl(datum: RootDatum) -> list[tuple[FiniteWeylElement, int]]:
    """All finite Weyl group elements with their lengths."""
    return list(_context(datum).finite_elements())


def longest_finite_element(datum: RootDatum) -> FiniteWeylElement:
    """The longest element of the finite Weyl group."""
    elems = _context(datum).finite_elements()
    return max(elems, key=lambda wl: wl[1])[0]


def element_to_json(x: AffineWeylElement) -> dict:
    """Reduced word, finite matrix and the translation in simple-root
    coordinates."""
    det, adj = det_adjugate(x.datum.cartan)
    return {
        "word": reduced_word(x),
        "finite_matrix": [list(row) for row in x.finite.matrix],
        "translation": [c // det for c in _mat_vec(adj, x.translation)],
    }


if __name__ == "__main__":
    import doctest

    doctest.testmod()
