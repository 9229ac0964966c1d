"""Characters in the group algebra of the weight lattice.

Exact integer maps Weight -> multiplicity, with the Weyl character
formula, Frobenius twist, tensor product, the SL2 simple characters
via the p-adic digit product, and expansion of an invariant character
in the standard-character basis.

Weyl characters come from Freudenthal's multiplicity formula
(Humphreys, Introduction to Lie Algebras and Representation Theory,
22.3), evaluated at the dominant weights only and written on their
W-orbits (the orbit-wise bookkeeping of Moody and Patera, 1982).  With
lam - mu = sum_i n_i alpha_i, the formula reads, in integers,

    m(mu) * sum_i n_i d_i (lam + mu + 2 rho)_i = 2 sum_{a>0} d_a T_a(mu),
    T_a(mu) = sum_{k>=1} m(mu + k a) <mu + k a, a^vee>,

where d_i is the Cartan symmetrizer (short roots get 1) and
d_a = (a, a) / 2; a nonzero remainder raises RuntimeError.  One pass
takes the dominant weights mu <= lam level by level in depth
(sum_i n_i), from lam down: each mu - a that is dominant joins the
level deeper by the height of a.  Every mu + k a is shallower than mu,
so its multiplicity is known when mu is reached.  When mu + a is
dominant, T_a(mu) = m(mu + a) (<mu, a^vee> + 2) + T_a(mu + a), read off
the stored row of mu + a.  Otherwise the a-string is walked up from
mu: it has left the dominant chamber (a convex cone) and never comes
back, so each weight of the support is walked over at most once per
root.

A weight nu is packed into the int sum_i nu_i B^(r-1-i).  The packing
is linear, so mu + a is one int add, and the W-orbit of mu - a is the
orbit of mu less the packed w(a), one int subtraction per element w.
The support lies in the convex hull of W lam, so its coordinates are at
most M = max_{a>0} <lam, a^vee> in size, and a string walk looks at
most R = max |root coordinate| beyond it.  With B = 2M + R + 1 the
difference of a looked-up weight and a weight of the support has every
coordinate below B in size, so distinct weights never share an int;
and 2M < B, so sorted ints are in coordinate order and balanced base-B
digits unpack them.  Only the packed keys are sorted; the weights are
built from their digits in one bulk call.

Budget: every dominant mu <= lam has m(mu) >= 1, so the support has
exactly sum |W mu| terms over those mu.  ``max_terms`` caps it: the
orbit of each dominant weight is charged as the pass reaches it, before
it is stored, so ResourceLimitError is raised exactly when the support
exceeds the cap, and at most ``max_terms`` terms are ever stored.  A
cap that is not a positive int is a ValueError.

In rank one the character of highest weight n is e^{n - 2k}, k = 0 ..
n, written down at once: its n + 1 terms are checked against the cap
before any is built.

>>> from weylkit.lattice import build_root_datum, Weight
>>> d = build_root_datum("A1")
>>> print(weyl_character(d, Weight((2,))))
e^{-2} + e^{0} + e^{2}
>>> dimension(weyl_character(d, Weight((2,))))
3
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat, zip_longest
from math import prod
from operator import add, mul, sub

from weylkit._exact import (base_p_digits, check_int, check_ints,
                            check_prime, det_adjugate, exact_ints)
from weylkit.lattice import (
    ResourceLimitError,
    RootDatum,
    Weight,
    _check_weight,
    _weights,
    build_root_datum,
    is_dominant,
)
from weylkit.coxeter import (_one_handle_per_datum, enumerate_finite_weyl,
                             generators)

__all__ = [
    "Character",
    "DEFAULT_MAX_TERMS",
    "dimension",
    "expand_in_standard_basis",
    "frobenius_twist",
    "is_weyl_invariant",
    "sl2_simple_character",
    "steinberg_digits",
    "tensor",
    "trivial_character",
    "weyl_character",
]

DEFAULT_MAX_TERMS = 10 ** 6


@dataclass(frozen=True)
class Character:
    """Finitely supported integer combination of e^weight terms."""

    terms: tuple[tuple[Weight, int], ...]

    def __post_init__(self) -> None:
        rank = None  # that of the first weight
        for w, _ in self.terms:
            rank = len(_check_weight(w, rank).coords)
        check_ints("multiplicities", [c for _, c in self.terms])
        for (w1, c1), (w2, _) in zip(self.terms, self.terms[1:]):
            if w1.coords >= w2.coords:
                raise ValueError("weights must be strictly ascending")
        if any(c == 0 for _, c in self.terms):
            raise ValueError("zero multiplicities must not be stored")

    @classmethod
    def _trusted(cls, terms: tuple[tuple[Weight, int], ...]) -> "Character":
        """A character from terms known to be strictly ascending and
        nonzero, such as the ones ``weyl_character`` builds: skips the
        checks of the public constructor."""
        ch = object.__new__(cls)
        object.__setattr__(ch, "terms", terms)  # as a frozen __init__ does
        return ch

    @classmethod
    def from_dict(cls, d: dict[Weight, int]) -> "Character":
        return cls(tuple(sorted(
            ((w, c) for w, c in d.items() if c != 0),
            key=lambda wc: wc[0].coords)))

    def as_dict(self) -> dict[Weight, int]:
        return dict(self.terms)

    def coefficient(self, w: Weight) -> int:
        terms = self.terms
        _check_weight(w, self.rank)
        i = bisect_left(terms, w.coords, key=lambda t: t[0].coords)
        if i < len(terms) and terms[i][0].coords == w.coords:
            return terms[i][1]
        return 0

    @property
    def rank(self) -> int | None:
        return len(self.terms[0][0].coords) if self.terms else None

    def _check_rank(self, other: "Character") -> None:
        if other.terms:
            _check_weight(other.terms[0][0], self.rank)

    def __add__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        self._check_rank(other)
        acc = dict(self.terms)
        for w, c in other.terms:
            acc[w] = acc.get(w, 0) + c
        return Character.from_dict(acc)

    def __neg__(self) -> "Character":
        return Character(tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: "Character") -> "Character":
        return (self + -other if isinstance(other, Character)
                else NotImplemented)

    def __mul__(self, other) -> "Character":
        if exact_ints((other,)):
            if other == 0:
                return Character(())
            return Character(tuple((w, c * other) for w, c in self.terms))
        if isinstance(other, Character):
            return tensor(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.terms:
            if len(w.coords) == 1:
                expo = str(w.coords[0])
            else:
                expo = "(" + ",".join(str(x) for x in w.coords) + ")"
            term = f"e^{{{expo}}}"
            if c != 1 and c != -1:
                term = f"{abs(c)}*{term}"
            parts.append((c < 0, term))
        neg, body = parts[0]
        out = ("-" if neg else "") + body
        for neg, body in parts[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def to_json_list(self) -> list[dict]:
        return [{"weight": list(w.coords), "mult": c} for w, c in self.terms]


def trivial_character(rank: int) -> Character:
    """The character e^0 of the trivial module."""
    return Character(((Weight((0,) * check_int("rank", rank, 0)), 1),))


def dimension(ch: Character) -> int:
    """Sum of multiplicities.

    >>> dimension(trivial_character(2))
    1
    """
    return sum(c for _, c in ch.terms)


def _height(datum: RootDatum):
    """Height (sum of simple-root coordinates) of fundamental-weight
    coordinates, times det C > 0 to stay an integer; sorting by
    (height, coords) refines dominance.
    """
    _, adj = det_adjugate(datum.cartan)
    row = tuple(sum(col) for col in zip(*adj))
    return lambda coords: sum(r * c for r, c in zip(row, coords))


@dataclass(frozen=True)
class _WeylConstants:
    """What ``weyl_character`` needs of a datum: the Cartan symmetrizer
    ``sym``; per positive root its fundamental-weight coordinates, its
    simple-root coordinates, its coroot and d_a = (a, a) / 2; ``reach``,
    the largest root coordinate in size; and per element w of W, the
    columns w(omega_i) of its matrix."""

    sym: tuple[int, ...]
    roots: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...],
                       int], ...]
    reach: int
    columns: tuple[tuple[tuple[int, ...], ...], ...]


@_one_handle_per_datum
def _weyl_constants(datum: RootDatum) -> _WeylConstants:
    # the dominant short root s has full support and (s, s) = 2, so
    # s = sum_i n_i alpha_i = sum_i c_i alpha_i^vee gives d_i = c_i / n_i
    short = datum.highest_coroot()
    n = datum.root_alpha[datum.positive_roots.index(short)]
    sym = tuple(c // m for c, m in zip(short[1].coords, n))
    roots = tuple(
        (wt.coords, alpha, co.coords,
         sum(map(mul, alpha, map(mul, sym, wt.coords))) // 2)
        for (wt, co), alpha in zip(datum.positive_roots, datum.root_alpha))
    return _WeylConstants(
        sym, roots, max(abs(c) for a, *_ in roots for c in a),
        tuple(tuple(zip(*w.matrix)) for w, _ in enumerate_finite_weyl(datum)))


def weyl_character(datum: RootDatum, highest: Weight,
                   max_terms: int = DEFAULT_MAX_TERMS) -> Character:
    """Character of the induced module with the given highest weight.

    Freudenthal's formula at the dominant weights, on packed weights,
    or in rank one the closed form (see the module docstring, also for
    the ``max_terms`` rule).

    >>> from weylkit.lattice import build_root_datum, Weight
    >>> d = build_root_datum("A2")
    >>> dimension(weyl_character(d, Weight((1, 1))))
    8
    """
    if datum.variant != "sc":
        raise ValueError("characters need the simply connected variant")
    if not is_dominant(_check_weight(highest, datum.rank)):
        raise ValueError("highest weight must be dominant")
    check_int("max_terms", max_terms, 1)
    if datum.rank == 1:  # SL2: e^{n - 2k}, k = 0 .. n
        n = highest.coords[0]
        if n + 1 > max_terms:
            raise ResourceLimitError(
                f"character support exceeded {max_terms} terms")
        weights = _weights(list(zip(range(-n, n + 1, 2))))
        return Character._trusted(tuple(zip(weights, repeat(1))))
    k = _weyl_constants(datum)
    lam, r = highest.coords, datum.rank
    base = 2 * max(sum(map(mul, lam, co)) for *_, co, _ in k.roots) + (
        k.reach + 1)

    def pack(v: tuple[int, ...]) -> int:
        x = 0
        for c in v:
            x = x * base + c
        return x

    columns = [tuple(map(pack, w)) for w in k.columns]
    roots = [(a, alpha, sum(alpha), pack(a),
              [sum(map(mul, a, w)) for w in columns], co, da)
             for a, alpha, co, da in k.roots]
    lam2 = [c + 2 for c in lam]  # lam + 2 rho
    sizes: dict[tuple[bool, ...], int] = {}  # |W mu|, by where mu is 0
    mult: dict[int, int] = {}  # the support so far, packed
    tails: dict[int, list[int]] = {}  # T_a(mu) per root, mu dominant
    # the dominant weights mu <= lam by depth: packed mu -> (mu, the n
    # of lam - mu, the packed w(mu) for each w in W); mu - a lies deeper
    # than mu by the height of a, and its w(mu - a) are w(mu) - w(a)
    levels: dict[int, dict[int, tuple]] = {0: {pack(lam): (
        lam, (0,) * r, [sum(map(mul, lam, w)) for w in columns])}}
    depth = 0
    while levels:
        for p, (mu, n, orbit) in levels.pop(depth, {}).items():
            zeros = tuple(map(bool, mu))
            size = sizes.get(zeros)
            if size is None:
                size = sizes[zeros] = len(set(orbit))
            if len(mult) + size > max_terms:
                raise ResourceLimitError(
                    f"character support exceeded {max_terms} terms")
            row = []
            num = 0
            for i, (a, alpha, height, pa, wa, co, da) in enumerate(roots):
                c = sum(map(mul, mu, co))
                q = p + pa
                above = tails.get(q)  # a row iff mu + a is dominant, <= lam
                if above is not None:
                    t = mult[q] * (c + 2) + above[i]
                else:  # the a-string above mu, outside the chamber
                    t = 0
                    while q in mult:
                        c += 2
                        t += mult[q] * c
                        q += pa
                row.append(t)
                num += da * t
                below = levels.get(depth + height)
                if below is None:
                    below = levels[depth + height] = {}
                if p - pa not in below and min(map(sub, mu, a)) >= 0:
                    below[p - pa] = (tuple(map(sub, mu, a)),
                                     tuple(map(add, n, alpha)),
                                     list(map(sub, orbit, wa)))
            den = sum(map(mul, n, map(mul, k.sym, map(add, lam2, mu))))
            if den:
                m, rest = divmod(2 * num, den)
                if rest:
                    raise RuntimeError(
                        "Freudenthal's formula left a nonzero remainder")
            else:
                m = 1  # mu = lam
            tails[p] = row
            mult.update(zip(orbit, repeat(m)))
        depth += 1
    # balanced base-B digits: shifted by B // 2 in every place, they
    # are the plain digits
    keys = sorted(mult)
    half = base // 2
    shift = pack((half,) * r)
    digits = [[(x + shift) // place % base - half for x in keys]
              for place in [base ** i for i in range(r - 1, -1, -1)]]
    return Character._trusted(tuple(zip(_weights(list(zip(*digits))),
                                        map(mult.__getitem__, keys))))


def is_weyl_invariant(datum: RootDatum, ch: Character) -> bool:
    """Is the support-with-multiplicity stable under every simple
    reflection?
    """
    gens = generators(datum)[:datum.rank]
    table = ch.as_dict()
    for g in gens:
        for w, c in table.items():
            if table.get(g.finite.apply(w), 0) != c:
                return False
    return True


def frobenius_twist(ch: Character, p: int) -> Character:
    """Reindex the support by scaling every weight by p.

    >>> frobenius_twist(trivial_character(1), 7) == trivial_character(1)
    True
    """
    check_int("p", p, 1)
    return Character.from_dict(
        {Weight(tuple(p * c for c in w.coords)): m for w, m in ch.terms})


def tensor(a: Character, b: Character,
           max_terms: int = DEFAULT_MAX_TERMS) -> Character:
    """Product of characters (convolution of supports)."""
    a._check_rank(b)
    check_int("max_terms", max_terms, 1)
    acc: dict[Weight, int] = {}
    for wa, ca in a.terms:
        for wb, cb in b.terms:
            w = wa + wb
            acc[w] = acc.get(w, 0) + ca * cb
        if len(acc) > max_terms:
            raise ResourceLimitError(
                f"character support exceeded {max_terms} terms")
    return Character.from_dict(acc)


_A1 = build_root_datum("A1", "sc")


def sl2_simple_character(n: int, p: int,
                         max_terms: int = DEFAULT_MAX_TERMS) -> Character:
    """Character of the simple SL2 module of highest weight n in
    characteristic p, as the twisted digit product.

    >>> print(sl2_simple_character(5, 5))
    e^{-5} + e^{5}
    """
    check_int("n", n, 0)
    check_int("max_terms", max_terms, 1)
    out = trivial_character(1)
    for i, digit in enumerate(steinberg_digits(Weight((n,)), p)):
        out = tensor(
            out,
            frobenius_twist(weyl_character(_A1, digit, max_terms), p ** i),
            max_terms)
    return out


def _sl2_simple_in_standard_basis(n: int, p: int) -> dict[int, int]:
    """The SL2 simple character L(n) in characteristic p, p prime, as
    integers c_m with L(n) = sum of c_m * weyl_character(m), m >= 0,
    keyed by m.

    The twisted digit product L(n) = prod_i chi(d_i)^{[p^i]} is
    multiplied out one digit at a time by Brauer's formula
    chi(lam) * ch M = sum_mu dim M_mu chi(lam + mu), with M the digit
    factor (weights p^i (d_i - 2j), j = 0 .. d_i), and each chi(m) with
    m < 0 folded back by chi(-1) = 0 and chi(-m-2) = -chi(m).  No
    weight-space character is built.  The cap is the one of
    ``sl2_simple_character``: L(n) has prod_i (d_i + 1) weights.

    >>> _sl2_simple_in_standard_basis(8, 5)
    {8: 1, 0: -1}
    """
    digits = base_p_digits(n, p)
    if prod(d + 1 for d in digits) > DEFAULT_MAX_TERMS:
        raise ResourceLimitError(
            f"character support exceeded {DEFAULT_MAX_TERMS} terms")
    acc = {0: 1}
    for i, d in enumerate(digits):
        q = p ** i
        nxt: dict[int, int] = {}
        for lam, c in acc.items():
            for j in range(d + 1):
                m = lam + q * (d - 2 * j)
                if m >= 0:
                    nxt[m] = nxt.get(m, 0) + c
                elif m < -1:  # chi(-1) = 0 drops m = -1
                    nxt[-m - 2] = nxt.get(-m - 2, 0) - c
        acc = {m: c for m, c in nxt.items() if c}
    return acc


def steinberg_digits(lam: Weight, p: int) -> list[Weight]:
    """Coordinatewise base-p digits: restricted weights with
    lam = sum p^i * digit_i.

    >>> steinberg_digits(Weight((10,)), 5)
    [Weight(coords=(0,)), Weight(coords=(2,))]
    """
    check_prime(p)
    if not is_dominant(lam):
        raise ValueError("weight must be dominant")
    return [Weight(digits) for digits in zip_longest(
        *(base_p_digits(c, p) for c in lam.coords), fillvalue=0)]


@_one_handle_per_datum
def _weyl_memo(datum: RootDatum) -> dict[Weight, Character]:
    return {}


def _weyl_cached(datum: RootDatum, highest: Weight) -> Character:
    """``weyl_character(datum, highest)``, memoised in a handle of the
    datum's context, so ``_context.cache_clear()`` drops it."""
    memo = _weyl_memo(datum)
    got = memo.get(highest)
    if got is None:
        got = memo[highest] = weyl_character(datum, highest)
    return got


def expand_in_standard_basis(datum: RootDatum, ch: Character
                             ) -> dict[Weight, int]:
    """Unique integers c_mu with ch = sum of c_mu * weyl_character(mu).

    Computed by repeatedly stripping the leading (height-maximal)
    term, which must sit at a dominant weight.

    >>> from weylkit.lattice import build_root_datum, Weight
    >>> d = build_root_datum("A1")
    >>> expand_in_standard_basis(d, sl2_simple_character(8, 5))
    {Weight(coords=(8,)): 1, Weight(coords=(0,)): -1}
    """
    if not is_weyl_invariant(datum, ch):
        raise ValueError("character is not Weyl-invariant")
    height = _height(datum)
    out: dict[Weight, int] = {}
    rem = ch.as_dict()
    while rem:
        mu = max(rem, key=lambda w: (height(w.coords), w.coords))
        c = rem[mu]
        if not is_dominant(mu):
            raise RuntimeError("leading term of an invariant character "
                               "must be dominant")
        out[mu] = c
        for w, m in _weyl_cached(datum, mu).terms:
            new = rem.get(w, 0) - c * m
            if new:
                rem[w] = new
            else:
                rem.pop(w, None)
    return out


if __name__ == "__main__":
    import doctest

    doctest.testmod()
