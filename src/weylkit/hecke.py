"""Hecke algebras over integer Laurent polynomials.

Standard basis {h_x}, bar involution, and the Kazhdan-Lusztig basis
{b_x}, for the finite or affine Weyl group of a root datum.  The
normalization is fixed by h_s^2 = h_id + (v^{-1} - v) h_s, so that
b_s = h_s + v is self-dual.

In this normalization every b_x = h_x + sum over y < x of P_{y,x} h_y
where P_{y,x} has nonnegative coefficients supported on exponents in
[1, l(x) - l(y)] of the correct parity.

The basis {b_x} comes from a private integer-indexed recursion in the
style of du Cloux (Experiment. Math. 11, 2002).  The datum's context
owns one recursion per table, built when that table is first read,
with its rows, pool and bar memo, under its one lock; every handle of
the datum shares them:

* ids: the datum's context in ``weylkit.coxeter`` owns one table of
  the affine group and one of W_f, shared by every handle of the
  datum, each grown level by level under the same lock: every element
  of length <= L has an integer id in (length, reduced word) order,
  and the table is extended when a longer x is asked for; an element
  that the group table numbered carries its id, which is read
  without hashing;
* action tables: per generator s, the ids of x s, kept by the same
  table, so lengths, descents and the term order need no group
  arithmetic; the id of s x = (x^{-1} s)^{-1} is read off the right
  action through the table's column of inverse ids;
* a polynomial pool: every distinct P_{y,x} is stored once per
  recursion, packed into one int, the sum of c_e 2^(w e) over its
  coefficients c_e (Kronecker substitution), next to its coefficient
  of v (mu), its value at v = 1 and, once asked for, the one
  ``LaurentPolynomial`` that every reader of it shares, unpacked on
  that first read, so that a pool nobody reads, such as the spherical
  one, holds no view; the recursion adds packed ints, and
  the packed-digit kernel of ``weylkit._exact`` reads and widens them.
  The digit width w is the pool's own: it starts at 16 bits and
  doubles, the pool packed again, whenever a step could carry a
  coefficient to 2^w; a step that could carry one to 2^64 raises
  ``ResourceLimitError`` (CLI exit 4) instead;
* compact rows: the row of x is two arrays, the ids of the y <= x in
  ascending order and the pool ids of their P_{y,x}, from the
  recursion of Kazhdan and Lusztig (Invent. Math. 53, 1979) b_x =
  b_{xs} b_s - sum of mu(y, xs) b_y over y < xs with ys < y, where s
  is the last letter of the reduced word of x.  A step sums into a
  dense list indexed by id, of length x + 1, as a row of x holds only
  ids in [0, x], and reads the row off it in C, with no sort;
* symmetric rows: the row of x is the row of an image of x
  relabelled, when that row is there.  The basis is unique, so every
  automorphism sigma of the Coxeter graph that maps the table to
  itself gives P_{y,x} = P_{sigma(y),sigma(x)}, and in a table of a
  whole group (the affine group or W_f) so does inversion, P_{y,x} =
  P_{y^{-1},x^{-1}} (the anti-involution h_w -> h_{w^{-1}} fixes the
  basis up to relabelling), and their composites: the ids go through
  the table's symmetry columns and its column of inverse ids, and the
  pool ids stay, with no arithmetic on polynomials;
* elements: every element holds the ascending ids of its support and
  their coefficients, and is read one way.  For a b_x from
  ``kl_basis_element`` these are its row, the two arrays above, and
  nothing per term: a coefficient is a pool id, unpacked only when it
  is first read, and ``kl_polynomial`` bisects one row.  Arithmetic and
  ``bar`` read (id, Laurent polynomial) pairs off their operands, and
  the action tables, not the group law.

The context's third recursion is the same one on the spherical module
triv (x)_{H_f} H: its rows are the m_{y,x} = P_{w0 y, w0 x} that the
character formula reads (see ``weylkit.lcf``), and the sum of mu b_y
then also runs over the y whose y s leaves the minimal coset
representatives.  Its ids, right action tables and last letters are
the context's third table, that of the dominant alcoves, which
``dominant_orbit`` reads as well.  The alcoves are not closed under
inverses, so that table keeps no column of inverse ids, but the
automorphisms that fix s0 map them to themselves: for A_n, n >= 2,
the flip of the finite diagram, whose column gives about half the
spherical rows; B2, C2 and G2 have none.  A spherical row is
otherwise stepped.  ``_row_at_one`` reads a row of any of the three
tables at v = 1: the row's ids and the pool's values at v = 1 of
their polynomials, which ``weylkit.lcf`` signs and keys in one pass.
For a datum of rank one the alcoves form a chain, one per length, and
m_{y,x} = v^{l(x)-l(y)} for every y <= x, so ``_row_at_one`` returns
the spherical row of x at v = 1, all ones, with no recursion: no
spherical row of rank one is stored, and the stepped rows are the
test oracle of this closed form.

>>> from weylkit.lattice import build_root_datum
>>> from weylkit.coxeter import generators, multiply
>>> d = build_root_datum("A1")
>>> s1, s0 = generators(d)
>>> print(kl_polynomial(s0, multiply(multiply(s0, s1), s0)))
v^2
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress
from operator import itemgetter

from weylkit._exact import (_Combination, _Linear, check_ints, check_kind,
                            digit_width, exact_ints, repack, unpack)
from weylkit.lattice import ResourceLimitError, RootDatum
from weylkit.coxeter import (
    AffineWeylElement,
    FiniteWeylElement,
    _Table,
    _as_affine,
    _context,
    _one_handle_per_datum,
    reduced_word,
)

__all__ = [
    "HeckeAlgebra",
    "HeckeElement",
    "LaurentPolynomial",
    "affine_hecke",
    "bar",
    "evaluate_at_one",
    "finite_hecke",
    "kl_basis_element",
    "kl_polynomial",
    "mult_standard_by_gen",
]


@dataclass(frozen=True)
class LaurentPolynomial(_Combination):
    """Sparse integer Laurent polynomial in v.

    ``coeffs`` holds (exponent, coefficient) pairs, ascending, with no
    zero coefficients.

    >>> p = LaurentPolynomial.v() + LaurentPolynomial.monomial(1, -1)
    >>> print(p)
    v^-1 + v
    >>> print(p * p)
    v^-2 + 2 + v^2
    """

    coeffs: tuple[tuple[int, int], ...] = ()

    _field, _nouns = "coeffs", ("exponents", "coefficients")

    def __post_init__(self) -> None:
        check_ints("exponents and coefficients",
                   tuple(chain.from_iterable(self.coeffs)))
        self._check(self.coeffs)

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls(((0, 1),))

    @classmethod
    def v(cls) -> "LaurentPolynomial":
        return cls(((1, 1),))

    @classmethod
    def monomial(cls, coefficient: int, exponent: int) -> "LaurentPolynomial":
        return cls.from_dict({exponent: coefficient})

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "LaurentPolynomial":
        check_ints("exponents and coefficients", (*d, *d.values()))
        return cls._sum(d.items())

    def coefficient(self, exponent: int) -> int:
        check_ints("exponent", (exponent,))
        return dict(self.coeffs).get(exponent, 0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _times(self, other) -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return LaurentPolynomial._sum(
            (e1 + e2, c1 * c2)
            for e1, c1 in self.coeffs for e2, c2 in other.coeffs)

    def bar(self) -> "LaurentPolynomial":
        """The involution v -> v^{-1}."""
        return LaurentPolynomial._trusted(
            tuple((-e, c) for e, c in reversed(self.coeffs)))

    def to_json_dict(self) -> dict[str, int]:
        return {str(e): c for e, c in self.coeffs}

    def __str__(self) -> str:
        parts = []
        for e, c in self.coeffs:
            if e == 0:
                term = str(c)
            else:
                power = "v" if e == 1 else f"v^{e}"
                if c == 1:
                    term = power
                elif c == -1:
                    term = f"-{power}"
                else:
                    term = f"{c}*{power}"
            parts.append(term)
        return " + ".join(parts).replace(" + -", " - ") or "0"


def evaluate_at_one(p: LaurentPolynomial) -> int:
    """Sum of coefficients, i.e. the specialization v = 1.

    >>> evaluate_at_one(LaurentPolynomial.from_dict({-1: 1, 1: 1}))
    2
    """
    return sum(c for _, c in check_kind(p, LaurentPolynomial).coeffs)


_ZERO = LaurentPolynomial.zero()
_ONE = LaurentPolynomial.one()
_VINV_MINUS_V = LaurentPolynomial(((-1, 1), (1, -1)))
_V_MINUS_VINV = -_VINV_MINUS_V
_Terms = tuple[tuple[int, LaurentPolynomial], ...]  # (id of x, coefficient)
_Row = tuple[array, array]  # (ids of y, ascending; pool ids of P_{y,x})


class HeckeElement(_Linear):
    """Finitely supported combination of standard basis elements h_x.

    ``terms`` pairs group elements with nonzero Laurent polynomials,
    sorted by engine id, which is (length, reduced word) order.  An
    element holds the ascending ids of its support on its algebra's
    engine, ``_ids``, and their coefficients, ``_coeffs``: the
    polynomials, for an element that arithmetic builds, and for a b_x
    from ``kl_basis_element`` the two arrays of its row of the
    recursion, the ids of the y <= x and the pool ids of their P_{y,x}.
    Every reader takes coefficients from ``_polys``, which reads pool
    ids through the recursion's views, so an element is equal to, and
    hashes like, the same element built by arithmetic.
    """

    __slots__ = ("algebra", "_ids", "_coeffs")

    def __init__(self, algebra: "HeckeAlgebra", terms: _Terms) -> None:
        self.algebra = algebra
        self._ids, self._coeffs = tuple(zip(*terms)) or ((), ())

    @classmethod
    def _of_row(cls, algebra: "HeckeAlgebra", row: _Row) -> "HeckeElement":
        """b_x from the row of x, holding the row's two arrays."""
        b = object.__new__(cls)
        b.algebra, (b._ids, b._coeffs) = algebra, row
        return b

    def _polys(self, lo: int = 0, hi: int | None = None
               ) -> tuple[LaurentPolynomial, ...]:
        """The coefficients of ``_ids[lo:hi]``: the polynomials held, or
        the views of the pool ids held, which ``views`` unpacks under the
        lock where missing."""
        cs = self._coeffs[lo:hi]
        return cs if type(cs) is tuple else self.algebra._engine.views(cs)

    @property
    def _terms(self) -> _Terms:
        return tuple(zip(self._ids, self._polys()))

    @property
    def terms(self) -> tuple[tuple[AffineWeylElement, LaurentPolynomial],
                             ...]:
        elems = self.algebra._engine.table.elems
        return tuple(zip(map(elems.__getitem__, self._ids), self._polys()))

    def support(self) -> list[AffineWeylElement]:
        return list(map(self.algebra._engine.table.elems.__getitem__,
                        self._ids))

    def coefficient(self, x: AffineWeylElement | FiniteWeylElement
                    ) -> LaurentPolynomial:
        i = self.algebra._engine.table.find(self.algebra._check_member(x))
        if i is None:
            return _ZERO
        j = bisect_left(self._ids, i)
        return self._polys(j, j + 1)[0] if i in self._ids[j:j + 1] else _ZERO

    def __eq__(self, other) -> bool:
        return (isinstance(other, HeckeElement) and
                (self.algebra, self._terms) == (other.algebra, other._terms))

    def __hash__(self) -> int:
        return hash((self.algebra, self._terms))

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if not isinstance(other, HeckeElement):
            return NotImplemented
        self.algebra._check_same(other)
        return HeckeElement(self.algebra, _sum_terms(
            (x, p, _ONE) for x, p in self._terms + other._terms))

    def _times(self, other) -> "HeckeElement":
        if isinstance(other, HeckeElement):
            return self.algebra._product(self, other)
        if isinstance(other, LaurentPolynomial):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "HeckeElement":
        if exact_ints((c,)):
            c = LaurentPolynomial.monomial(c, 0)
        elif not isinstance(c, LaurentPolynomial):
            raise ValueError(f"scalar must be an int or a polynomial: {c!r}")
        return HeckeElement(self.algebra,
                            _sum_terms((x, p, c) for x, p in self._terms))

    _scaled = scale

    def __str__(self) -> str:
        parts = []
        for x, p in self.terms:
            label = "h_" + ("".join(map(str, reduced_word(x))) or "id")
            if p == _ONE:
                parts.append(label)
            else:
                body = f"({p})" if len(p.coeffs) > 1 else str(p)
                parts.append(f"{body}*{label}")
        return " + ".join(parts) or "0"

    def to_json_dict(self) -> dict:
        return {"terms": [{"word": reduced_word(x), "poly": p.to_json_dict()}
                          for x, p in self.terms]}


def _sum_terms(triples) -> _Terms:
    """Sum of p q h_x over (id of x, p, q) triples, as nonzero terms by
    id; the products are summed without building them."""
    acc: dict[int, list[tuple[int, int]]] = {}
    for x, p, q in triples:
        acc.setdefault(x, []).extend(
            (e1 + e2, c1 * c2) for e1, c1 in p.coeffs for e2, c2 in q.coeffs)
    terms = ((x, LaurentPolynomial._sum(acc[x])) for x in sorted(acc))
    return tuple((x, p) for x, p in terms if p)


class _KLRecursion:
    """Integer-indexed Kazhdan-Lusztig tables over the ids of ``table``,
    one of the tables that the datum's context in ``weylkit.coxeter``
    owns: ids in (length, reduced word) order, so sorting ids sorts
    terms and ``y < x`` as ids whenever l(y) < l(x), the right action
    ``table.right`` and the last letters ``table.last``.

    The polynomials live in one pool per recursion: ``polys[k]`` is a
    distinct P packed into one int, the sum of c_e 2^(w e) over its
    coefficients c_e for the pool's digit width w = ``width``,
    ``poly_ids`` maps it back to k, ``mu[k]`` is its coefficient of v
    and ``ones[k]`` its value at v = 1, which the character formula
    reads off a spherical row's pool ids.  ``_step`` adds packed ints,
    and a sum is unpacked only when it is new to the pool; every
    coefficient is nonnegative (Kazhdan-Lusztig positivity).  The width
    starts at 16 bits, so that the small coefficients of most tables
    make small ints.  When a step could carry a coefficient to 2^w,
    ``_step`` first doubles w until it cannot, packs ``polys`` again
    and rebuilds ``poly_ids``; the rows hold pool ids, which stay.  A
    step that could carry one to 2^64 raises ``ResourceLimitError``
    instead.  The row ``kl[i]`` of x_i holds two arrays, the ids of the
    y <= x_i in ascending order and the pool ids of their P_{y,x_i},
    either from ``_step`` or, when it holds the row of an image of x_i
    under a symmetry of the table (an automorphism sigma of the Coxeter
    graph in ``table.symmetries``, inversion in a table with an
    ``inverse`` column, or the two composed), from ``_image_row``,
    which relabels that row.
    ``view(k)`` is the ``LaurentPolynomial`` of entry k, unpacked once
    on first use, kept in ``_views`` by pool id and shared by every
    caller; ``views(ks)`` looks up a row's entries in C, and is how a
    ``HeckeElement`` reads the coefficients of a b_x.  ``bar_memo``
    holds bar(h_x) by id, for a table of a whole group, as
    ``HeckeAlgebra.bar`` fills it.  Only ``views`` takes the context's
    lock itself, to unpack what is missing; the other callers take it,
    and read only ids the table has handed out.
    """

    def __init__(self, table: _Table) -> None:
        self.table = table
        self.width = 16
        self.polys: list[int] = []
        self.poly_ids: dict[int, int] = {}
        self.mu: list[int] = []
        self.ones: list[int] = []
        self._top = 0  # the largest coefficient in the pool
        self._views: dict[int, LaurentPolynomial] = {}
        self.bar_memo: dict[int, _Terms] = {0: ((0, _ONE),)}
        self.kl: dict[int, _Row] = {
            0: (array("i", (0,)), array("i", (self._intern(1, 1),)))}

    def _widen(self, bound: int) -> None:
        """Double the digit width until bound is below 2^width, and pack
        the pool again at the new width."""
        width = digit_width(bound, self.width)
        self.polys = [repack(m, self.width, width) for m in self.polys]
        self.poly_ids = dict(zip(self.polys, range(len(self.polys))))
        self.width = width

    def _intern(self, m: int, cap: int) -> int:
        """The pool id of the packed polynomial m, a new one if m is not
        in the pool yet; unpacked, no coefficient may exceed cap."""
        got = self.poly_ids.get(m)
        if got is None:
            p = unpack(m, self.width, cap)
            got = self.poly_ids[m] = len(self.polys)
            self.polys.append(m)
            self.mu.append(p[1] if len(p) > 1 else 0)
            self.ones.append(sum(p))
            self._top = max(self._top, max(p))
        return got

    def view(self, k: int) -> LaurentPolynomial:
        got = self._views.get(k)
        if got is None:
            coeffs = unpack(self.polys[k], self.width)
            got = self._views[k] = LaurentPolynomial._trusted(tuple(
                (e, c) for e, c in enumerate(coeffs) if c))
        return got

    def basis(self, x: int) -> _Row:
        """The row of x, computing what it needs, longest last: a row
        of z is read off a held row of an image of z under a symmetry of
        the table (``_held_image``), and is stepped from the row of z s
        otherwise.  The images of z are searched once, the first time z
        is on top: every row made from then until z is stepped is one it
        needs, shorter than z, so no image of z appears meanwhile."""
        kl, right, last = self.kl, self.table.right, self.table.last
        todo, searched = [x], set()
        while todo:
            z = todo[-1]
            if z in kl:
                todo.pop()
                continue
            if z not in searched:
                searched.add(z)
                row = self._held_image(z)
                if row is not None:
                    kl[z] = row
                    todo.pop()
                    continue
            s = last[z]
            prev = kl.get(right[s][z])
            if prev is None:
                todo.append(right[s][z])
                continue
            mus = self._mu_terms(prev, s)
            missing = [y for y, _ in mus if y not in kl]
            if missing:
                todo.extend(missing)
                continue
            kl[z] = self._step(z, prev, s, mus)
            todo.pop()
        return kl[x]

    def _held_image(self, z: int) -> _Row | None:
        """The row of z read off a held row of u = sigma(z), for sigma
        an automorphism of the Coxeter graph in ``table.symmetries``, or,
        in a table of a whole group, of u = z^{-1} or u = sigma(z)^{-1};
        None when no such row is held.  P_{y,z} = P_{sigma(y),sigma(z)}
        = P_{y^{-1},z^{-1}}, so the row of z holds the pool ids of the
        row of u, each under the image of its id v: sigma^{-1}(v), v^{-1}
        or sigma^{-1}(v^{-1})."""
        kl, inverse = self.kl, self.table.inverse
        for _, ahead, back in self.table.symmetries:
            row = kl.get(ahead[z])
            if row is not None:
                return self._image_row(row, back)
        if inverse is not None:
            row = kl.get(inverse[z])
            if row is not None:
                return self._image_row(row, inverse)
            for _, ahead, back in self.table.symmetries:
                row = kl.get(inverse[ahead[z]])
                if row is not None:
                    return self._image_row(row, inverse, back)
        return None

    def _image_row(self, row: _Row, *back: list[int]) -> _Row:
        """The row of z from a row of an image of z (see
        ``_held_image``): the same pool ids under the images of its ids
        through each column of ``back`` in turn, sorted as ints.  A row
        of z > 0 holds id 0 and z, so ``itemgetter`` of its positions
        returns a tuple."""
        ys, ks = row
        for col in back:
            ys = map(col.__getitem__, ys)
        ys = list(ys)
        take = itemgetter(*sorted(range(len(ys)), key=ys.__getitem__))
        return array("i", take(ys)), array("i", take(ks))

    def views(self, ks: array) -> tuple[LaurentPolynomial, ...]:
        """The views of the pool entries ks, looked up in C; only the
        missing ones are unpacked, under the lock, since ``_widen``
        replaces ``polys`` and ``width``."""
        try:
            return tuple(map(self._views.__getitem__, ks))
        except KeyError:
            with self.table.lock:
                return tuple(map(self.view, ks))

    def _mu_terms(self, prev: _Row, s: int) -> list[tuple[int, int]]:
        """(y, mu) with ys < y or ys a leaf, and mu the v-coefficient of
        P_{y,xs} != 0."""
        right, mu = self.table.right[s], self.mu
        return [(y, mu[k]) for y, k in zip(*prev) if mu[k] and right[y] < y]

    def _step(self, x: int, prev: _Row, s: int,
              mus: list[tuple[int, int]]) -> _Row:
        """b_x = b_{xs} b_s - sum of mu b_y, with b_s = h_s + v, on
        packed polynomials: v p is p << w, and p >> w drops the constant
        term of p and divides by v, w being the digit width.

        A coefficient of the result is the sum of at most two pool
        coefficients, less mu times pool coefficients, each mu a pool
        coefficient too.  While the largest pool coefficient times
        3 + sum of mu stays below 2^w, each packed sum unpacks exactly,
        unless a coefficient is negative: then the sum is negative, or
        its lowest negative coefficient borrows and unpacks above three
        times the largest pool coefficient, and ``_intern`` raises.  A
        bound of 2^w or more widens the pool first, and one of 2^64 or
        more raises.

        The sum runs in a list of length x + 1 indexed by id: for y <=
        xs, both y and ys are <= x in Bruhat order, as is every id of a
        subtracted b_y, and ids ascend with length, so no id of the row
        exceeds x.  The row comes out of the list in id order, its ids
        by ``compress`` and its packed sums by ``filter``, both in C."""
        top = self._top
        bound = top * (3 + sum([mu for _, mu in mus]))
        if bound >> self.width:
            if bound >> 64:
                raise ResourceLimitError(
                    "Kazhdan-Lusztig coefficients would reach 2^64")
            self._widen(bound)
        right, polys, w = self.table.right[s], self.polys, self.width
        acc = [0] * (x + 1)
        for y, k in zip(*prev):
            p = polys[k]
            ys = right[y]
            if ys > y:                       # h_y b_s = h_ys + v h_y
                acc[ys] += p
                acc[y] += p << w
            elif ys >= 0:                    # h_y b_s = h_ys + v^-1 h_y
                acc[ys] += p
                acc[y] += p >> w
            else:                            # a leaf: (v + v^-1) h_y
                acc[y] += (p << w) + (p >> w)
        for y, mu in mus:
            for z, k in zip(*self.kl[y]):
                acc[z] -= mu * polys[k]
        ys = array("i", compress(range(x + 1), acc))
        ms = list(filter(None, acc))
        ks = list(map(self.poly_ids.get, ms))
        if None in ks:
            ks = [self._intern(m, 3 * top) if k is None else k
                  for m, k in zip(ms, ks)]
        return ys, array("i", ks)


class _Recursions(dict):
    """The Kazhdan-Lusztig recursion of each table of a datum's context,
    ``group``, ``finite`` and ``alcoves``, keyed by table, each built
    under the context's lock when its table is first read."""

    def __missing__(self, table: _Table) -> _KLRecursion:
        with table.lock:
            return self.get(table) or self.setdefault(
                table, _KLRecursion(table))


@_one_handle_per_datum
def _recursions(datum: RootDatum) -> _Recursions:
    """The datum's recursions.  They are a handle of the context, so the
    context owns their rows, pools, views and bar memos, and every Hecke
    handle of the datum and the character formula share them."""
    return _Recursions()


def _row_at_one(table: _Table, x: int) -> tuple:
    """The row of x over ``table``, one of the tables of a datum's
    context, for x an id that the table has handed out: the ids of the
    y <= x, ascending, and a list of their P_{y,x}(1).

    Over the dominant alcoves of a rank-one datum these are
    ``range(x + 1)`` and x + 1 ones, with no recursion: affine A1 is the
    infinite dihedral group, its alcoves form a chain, one id per
    length, and m_{y,x} = v^{l(x)-l(y)} for every y <= x (Soergel,
    Represent. Theory 1, 1997, for SL2).  Otherwise the row is the
    one the table's recursion holds: the values are read off the pool
    under the context's lock, in C, and the ids are the row's own
    array, not to be changed."""
    ctx = table.ctx
    if table is ctx.alcoves and ctx.datum.rank == 1:
        return range(x + 1), [1] * (x + 1)
    eng = _recursions(ctx.datum)[table]
    with table.lock:
        ys, ks = eng.basis(x)
        return ys, list(map(eng.ones.__getitem__, ks))


class HeckeAlgebra:
    """Hecke algebra of the finite or affine Weyl group of a datum.

    A handle owns no table: it references the Kazhdan-Lusztig recursion
    of its group's table in the datum's context (the affine group or
    W_f), with its rows, pool and bar memo keyed by id, which every
    handle of the datum shares, ``affine_hecke``, ``finite_hecke`` and
    any built directly.  One lock guards all of these, the context's
    lock, which the tables take as well, so concurrent calls see a
    single logical table.  Elements of two handles do not mix, even of
    one datum.  A left product reads each s x = (x^{-1} s)^{-1} off the
    table's right action and its column of inverse ids.
    """

    def __init__(self, datum: RootDatum, affine: bool = True) -> None:
        self.datum = datum
        self.affine = affine
        ctx = _context(datum)
        self._engine = _recursions(datum)[ctx.group if affine else ctx.finite]
        self.gens = list(self._engine.table.gens)
        self._lock = ctx.lock

    def _check_same(self, other: HeckeElement) -> None:
        if check_kind(other, HeckeElement).algebra is not self:
            raise ValueError("elements belong to different Hecke algebras")

    def _check_member(self, x: AffineWeylElement) -> AffineWeylElement:
        x = _as_affine(x, self.datum)
        if not self.affine and any(c != 0 for c in x.translation):
            raise ValueError("finite Hecke algebra got an affine element")
        return x

    def zero(self) -> HeckeElement:
        return HeckeElement(self, ())

    def unit(self) -> HeckeElement:
        return HeckeElement(self, ((0, LaurentPolynomial.one()),))

    def standard_basis_element(self, x) -> HeckeElement:
        x = self._engine.table.element_id(self._check_member(x))
        return HeckeElement(self, ((x, LaurentPolynomial.one()),))

    def _gen_index(self, s) -> int:
        if isinstance(s, int):
            check_ints("generator index", (s,))
            if not 0 <= s < len(self.gens):
                raise ValueError(f"generator index {s} out of range")
            return s
        s = self._check_member(s)
        if s not in self.gens:
            raise ValueError("not a generator of this algebra")
        return self.gens.index(s)

    def _times_gen(self, terms: _Terms, action,
                   down: LaurentPolynomial, up: LaurentPolynomial) -> _Terms:
        """terms times h_s + c, ``action[x]`` being the id of x s: h_x goes
        to h_{xs} plus h_x times ``down`` (c + v^{-1} - v) if xs < x, else
        ``up`` (c).  Under the lock.  The group table first enumerates
        the length after the longest x (the last term)."""
        if terms:
            table = self._engine.table
            table.up_to(table.lens[terms[-1][0]] + 1)
        triples = []
        for x, p in terms:
            xs = action[x]
            triples.append((xs, p, _ONE))
            d = down if xs < x else up
            if d:
                triples.append((x, p, d))
        return _sum_terms(triples)

    def mult_standard_by_gen(self, h: HeckeElement, s,
                             side: str = "right") -> HeckeElement:
        """Multiply by h_s, using the quadratic relation when shortening;
        on the left, s x is read as (x^{-1} s)^{-1} off the table grown
        one length past the longest term."""
        self._check_same(h)
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        s = self._gen_index(s)
        table = self._engine.table
        with self._lock:
            right = action = table.right[s]
            if side == "left" and h._ids:
                table.up_to(table.lens[h._ids[-1]] + 1)
                inv = table.inverse
                action = {x: inv[right[inv[x]]] for x in h._ids}
            return HeckeElement(self, self._times_gen(
                h._terms, action, _VINV_MINUS_V, _ZERO))

    def _product(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        self._check_same(a)
        self._check_same(b)
        triples = []
        with self._lock:
            memo = {0: a._terms}
            for y, p in b._terms:
                piece = self._times_word(memo, y, _VINV_MINUS_V, _ZERO)
                triples.extend((x, q, p) for x, q in piece)
        return HeckeElement(self, _sum_terms(triples))

    def _times_word(self, memo: dict[int, _Terms], x: int,
                    down: LaurentPolynomial, up: LaurentPolynomial) -> _Terms:
        """memo[0] times the product of h_s + c over the reduced word of x
        (see ``_times_gen``), memoised in memo[x] and read back through
        ``last`` to the longest memoised prefix.  Call under the lock."""
        table = self._engine.table
        prefixes = []
        while x not in memo:
            prefixes.append(x)
            x = table.right[table.last[x]][x]
        got = memo[x]
        for x in reversed(prefixes):
            got = memo[x] = self._times_gen(
                got, table.right[table.last[x]], down, up)
        return got

    def bar(self, h: HeckeElement) -> HeckeElement:
        """Ring involution: bar(v) = v^{-1}, bar(h_s) = h_s + v - v^{-1}."""
        self._check_same(h)
        triples = []
        with self._lock:
            for x, p in h._terms:
                pb = p.bar()  # bar(h_x) = product of h_s + v - v^{-1}
                triples.extend((y, q, pb) for y, q in self._times_word(
                    self._engine.bar_memo, x, _ZERO, _V_MINUS_VINV))
        return HeckeElement(self, _sum_terms(triples))

    def kl_basis_element(self, x) -> HeckeElement:
        """The self-dual basis element b_x = sum_{y <= x} P_{y,x} h_y,
        holding the row of x."""
        eng = self._engine
        with self._lock:
            row = eng.basis(eng.table.element_id(self._check_member(x)))
        return HeckeElement._of_row(self, row)

    def kl_polynomial(self, y, x) -> LaurentPolynomial:
        """Coefficient of h_y in b_x; zero unless y <= x in Bruhat order."""
        return self.kl_basis_element(x).coefficient(y)


@_one_handle_per_datum
def affine_hecke(datum: RootDatum) -> HeckeAlgebra:
    """The Hecke algebra of the affine Weyl group, one handle per datum."""
    return HeckeAlgebra(datum, affine=True)


@_one_handle_per_datum
def finite_hecke(datum: RootDatum) -> HeckeAlgebra:
    """The Hecke algebra of the finite Weyl group, one handle per datum."""
    return HeckeAlgebra(datum, affine=False)


def _algebra_for(*elems) -> HeckeAlgebra:
    datum = _as_affine(elems[0]).datum
    if all(isinstance(e, FiniteWeylElement) for e in elems):
        return finite_hecke(datum)
    return affine_hecke(datum)


def mult_standard_by_gen(h: HeckeElement, s, side: str = "right"
                         ) -> HeckeElement:
    """h * h_s (or h_s * h): h_x h_s = h_{xs} when xs > x, and
    h_{xs} + (v^{-1} - v) h_x when xs < x.
    """
    return check_kind(h, HeckeElement).algebra.mult_standard_by_gen(
        h, s, side=side)


def bar(h: HeckeElement) -> HeckeElement:
    """Bar involution of a Hecke element."""
    return check_kind(h, HeckeElement).algebra.bar(h)


def kl_basis_element(x) -> HeckeElement:
    """b_x in the Hecke algebra x belongs to (finite element: finite
    algebra; affine element: affine algebra).

    >>> from weylkit.lattice import build_root_datum
    >>> from weylkit.coxeter import generators
    >>> d = build_root_datum("A1")
    >>> print(kl_basis_element(generators(d)[1]))
    v*h_id + h_1
    """
    return _algebra_for(x).kl_basis_element(x)


def kl_polynomial(y, x) -> LaurentPolynomial:
    """P_{y,x} for y, x in the same Weyl group."""
    return _algebra_for(y, x).kl_polynomial(y, x)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
