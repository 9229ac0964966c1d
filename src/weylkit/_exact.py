"""Exact integer primitives, the package's only copy of each: standard
library only, and nothing imported from weylkit.

Among them is the packed-digit kernel.  A packed int holds the digits
d_j as the sum of d_j 2^(w j), for a digit width w that is a power of
two of at least 8 bits.  ``unpack`` reads unsigned digits, with a cap,
for the Kazhdan-Lusztig pools of ``weylkit.hecke``; ``unpack_signed``
reads digits in (-2^(w-1), 2^(w-1)) for ``unitriangular_inverse``;
``repack`` packs either kind again at a wider width; and
``digit_width`` doubles a width until a bound fits.  Signed digits are
read as unsigned ones after adding 2^(w-1) in every place.
``weylkit.charring.weyl_character`` packs weights on its own: its radix
is chosen per call from the highest weight, and it decodes the sorted
keys of the whole support place by place, one list per coordinate,
then builds every weight in one bulk call, where a call of this kernel
per weight would be slower.

The package's input contract for numbers is written here once:
``check_ints`` passes plain ints only, ``check_int`` one plain int with
a lower bound, and ``check_prime`` a prime.  Each raises ValueError
for a float, a bool or any other non-``int``, and for a value out of
range; every public function that takes an exact int, a ``p``, an
``n``, a length or weight bound or a term cap asks one of them.
``exact_ints`` is their predicate, which the scalar products ask as
well, where a non-int is an unsupported operand (TypeError).

The check of an argument's kind is written here once too:
``check_kind`` is asked wherever a root datum, a weight, a Weyl group
element, another value object of the package or a name is expected,
and raises TypeError in one form, "expected a Character, got str".

So is the arithmetic of the value objects: ``_Linear`` gives a weight,
a character, a Laurent polynomial and a Hecke element their -x, x - y
and n * x == x * n, and ``_Combination`` gives a character and a
Laurent polynomial their one invariant (keys strictly ascending, no
zero coefficient), its check, their ``+`` and their sum by key.
"""

import sys
from array import array
from itertools import compress
from math import gcd
from operator import itemgetter

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981


def exact_ints(values) -> bool:
    """Is every value a plain int?  bool and every other subclass of int
    are not: exact input is never reinterpreted or truncated.

    >>> exact_ints((3, -1)), exact_ints(()), exact_ints((1, True, 2.0))
    (True, True, False)
    """
    return set(map(type, values)) <= {int}


def check_ints(what: str, values):
    """The values, a sequence, if every one is a plain int (see
    ``exact_ints``); ValueError naming the first that is not, ``what``
    naming them all.

    >>> check_ints("coordinates", (1, -2))
    (1, -2)
    """
    if not exact_ints(values):
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"{what} must be int, got {bad!r}")
    return values


def check_int(what: str, value, low: int) -> int:
    """The value, if it is a plain int of at least low; ValueError
    otherwise, ``what`` naming it.

    >>> check_int("n", 3, 0)
    3
    """
    if type(value) is not int or value < low:
        check_ints(what, (value,))
        raise ValueError(f"{what} must be at least {low}, got {value}")
    return value


def check_prime(p) -> int:
    """p, if it is a plain int and prime; ValueError otherwise."""
    check_ints("p", (p,))
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def check_kind(value, kind: type, noun: str | None = None):
    """The value, if it is an instance of kind; TypeError otherwise,
    naming what was expected, the noun or else "a" and the kind's name,
    and the type that came.

    >>> check_kind("A1", str)
    'A1'
    >>> check_kind(3, str)
    Traceback (most recent call last):
    ...
    TypeError: expected a str, got int
    """
    if not isinstance(value, kind):
        raise TypeError(f"expected {noun or 'a ' + kind.__name__}, "
                        f"got {type(value).__name__}")
    return value


class _Linear:
    """The operators of a value object in a Z-module, written once: -x,
    x - y for y of the same kind, and n * x == x * n for a plain int n
    (see ``exact_ints``), over the class's own ``+``, ``_scaled(n)``
    and ``_times(other)``, its product with anything but an int
    (NotImplemented unless the class has one).  The reflected product
    is the same call: Python makes it only when the left operand does
    not multiply, such as an int or a scalar of the class's ring.  Any
    other operand is unsupported (TypeError).
    """

    __slots__ = ()

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        return (self._scaled(other) if exact_ints((other,))
                else self._times(other))

    __rmul__ = __mul__

    def _times(self, other):
        return NotImplemented


class _Combination(_Linear):
    """A finitely supported integer combination, held in the class's one
    field, named by ``_field``, as (key, coefficient) pairs: strictly
    ascending by ``_order``, a sort key of a pair, with no zero
    coefficient.  ``_check`` raises ValueError for pairs that break
    this, in words naming the keys and the coefficients (``_nouns``);
    ``_trusted`` wraps pairs that keep it with no check, and ``_sum``
    sums pairs by key.  ``+`` sums two combinations of one kind, once
    ``_check_operand`` has passed the right one.
    """

    __slots__ = ()
    _field: str
    _nouns: tuple[str, str]
    _order = itemgetter(0)

    def _check(self, pairs) -> None:
        keys = list(map(self._order, pairs))
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError(f"{self._nouns[0]} must be strictly ascending")
        if any(c == 0 for _, c in pairs):
            raise ValueError(f"zero {self._nouns[1]} must not be stored")

    @classmethod
    def _trusted(cls, pairs: tuple):
        """A combination of pairs known to be ascending and nonzero,
        such as the ones ``_sum`` makes: skips the checks of the public
        constructor."""
        new = object.__new__(cls)
        object.__setattr__(new, cls._field, pairs)  # as a frozen __init__
        return new

    @classmethod
    def _sum(cls, pairs):
        """The combination of the sum of pairs, by key."""
        acc: dict = {}
        for key, c in pairs:
            acc[key] = acc.get(key, 0) + c
        return cls._trusted(tuple(sorted(
            [kc for kc in acc.items() if kc[1]], key=cls._order)))

    def _check_operand(self, other) -> None:
        """Raise if other, of this kind, cannot be added to this one."""

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_operand(other)
        return self._sum(getattr(self, self._field)
                         + getattr(other, self._field))

    def _scaled(self, n: int):
        return self._trusted(tuple(
            [(key, c * n) for key, c in getattr(self, self._field)])
            if n else ())


def _bareiss(rows: list[list[int]], n: int) -> int:
    """Bareiss's fraction-free Gauss-Jordan (Math. Comp. 22, 1968) on n
    rows, in place: the determinant of their first n columns, or 0 at
    the first column without a pivot.  A swap negates a row to keep the
    determinant; if nonzero, the rows end as adj(block) times the input.
    """
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], [-x for x in rows[k]]
        pk = rows[k]
        d = pk[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(d * x - f * y) // prev
                           for x, y in zip(rows[i], pk)]
        prev = d
    return prev


def det(m) -> int:
    """Determinant of a square integer matrix, from one Bareiss pass.

    >>> det([[2, -1], [-1, 2]]), det([[1, 2], [2, 4]])
    (3, 0)
    """
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square")
    return _bareiss([list(row) for row in m], len(m))


def det_adjugate(m) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of a square integer matrix:
    m * adj = adj * m = det * I.

    >>> det_adjugate([[2, -1], [-1, 2]]), det_adjugate([[1, 2], [2, 4]])
    ((3, [[2, 1], [1, 2]]), (0, [[4, -2], [-2, 1]]))
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    rows = [list(row) + [int(i == j) for j in range(n)]
            for i, row in enumerate(m)]
    det = _bareiss(rows, n)
    if det:
        return det, [row[n:] for row in rows]
    # singular: adj[i][j] is the (j, i) cofactor
    return 0, [[(-1) ** (i + j) * _bareiss(
        [[m[r][c] for c in range(n) if c != i] for r in range(n) if r != j],
        n - 1) for j in range(n)] for i in range(n)]


# a sparse row: its nonzero entries, as (columns ascending, entries)
SparseRow = tuple[tuple[int, ...], tuple[int, ...]]


_TYPECODES = {array(t).itemsize * 8: t for t in "QLIHB"}  # width: typecode


def digit_width(bound: int, width: int) -> int:
    """The width, doubled until bound < 2^width.

    >>> digit_width(255, 8), digit_width(256, 8), digit_width(1 << 64, 16)
    (8, 16, 128)
    """
    while bound >> width:
        width *= 2
    return width


def _every(digit: int, width: int, n: int) -> int:
    """The digit in each of n places of the width."""
    return int.from_bytes(digit.to_bytes(width // 8, "little") * n, "little")


def _words(m: int, width: int) -> list[int]:
    """The base-2^width digits of m >= 0, lowest first, with no trailing
    zero: one pass through an array up to the width of a machine word,
    slices of bytes above it."""
    k = width // 8
    raw = m.to_bytes(-(-m.bit_length() // width) * k, "little")
    if width not in _TYPECODES:
        return [int.from_bytes(raw[i:i + k], "little")
                for i in range(0, len(raw), k)]
    out = array(_TYPECODES[width], raw)
    if sys.byteorder == "big":
        out.byteswap()
    return out.tolist()


def unpack(m: int, width: int, cap: int | None = None) -> list[int]:
    """The unsigned digits of m, lowest first, with no trailing zero.
    RuntimeError if m is negative or a digit exceeds cap: in a sum of
    packed polynomials with nonnegative coefficients below the cap,
    only a negative coefficient can do that, by a borrow.

    >>> unpack(0x0102, 8), unpack(0, 16)
    ([2, 1], [])
    """
    if m >= 0:
        out = _words(m, width)
        if cap is None or max(out, default=0) <= cap:
            return out
    raise RuntimeError("packed polynomial with a negative coefficient")


def unpack_signed(m: int, width: int) -> SparseRow:
    """The nonzero digits e_j of m = sum of e_j 2^(width j), each
    |e_j| < 2^(width - 1), as (places j ascending, digits): the digits
    of m plus 2^(width - 1) in every place, less 2^(width - 1), over as
    many places as m has, or one more.

    >>> unpack_signed(2 - (3 << 16), 8)
    ((0, 2), (2, -3))
    """
    half = 1 << (width - 1)
    n = abs(m).bit_length() // width + 1
    out = [d - half for d in _words(m + _every(half, width, n), width)]
    return tuple(compress(range(len(out)), out)), tuple(filter(None, out))


def repack(m: int, width: int, wider: int, signed: bool = False) -> int:
    """m, packed at the digit width, packed again at a wider one, with
    the same unsigned digits, or the same signed ones if signed (biased
    as in ``unpack_signed``): each byte of a place is copied by one
    slice, so no digit is read into an int.

    >>> repack(0x0102, 8, 16), repack(2 - (3 << 8), 8, 16, signed=True)
    (65538, -196606)
    """
    half = 1 << (width - 1) if signed else 0
    n = abs(m).bit_length() // width + 1
    k, out = width // 8, bytearray(n * wider // 8)
    raw = (m + _every(half, width, n)).to_bytes(n * k, "little")
    for b in range(k):
        out[b::wider // 8] = raw[b::k]
    return int.from_bytes(out, "little") - _every(half, wider, n)


def unitriangular_inverse(rows: list[SparseRow]) -> list[SparseRow]:
    """Inverse of a lower unitriangular integer matrix in sparse rows,
    by forward substitution: row i of the inverse is e_i minus m[i][k]
    times row k, summed over the k < i with m[i][k] != 0.  A sparse
    row is a pair (columns, entries): its nonzero entries, by ascending
    column.  The inverse comes back in the same form.  ValueError if m
    is not lower unitriangular.

    Each row of the inverse is summed as one int, entry j being the
    digit of 2^(width j), so that a row costs one big-int operation per
    nonzero of m, not one per pair of nonzeros.  Its entries are at
    most 1 + sum |m[i][k]| max |inverse row k| in absolute value; while
    that stays below 2^(width - 1) the digits are exact, and when it
    does not the width doubles and the rows are packed again.

    >>> unitriangular_inverse([((0,), (1,)), ((0, 1), (2, 1)),
    ...                        ((1, 2), (3, 1))])
    [((0,), (1,)), ((0, 1), (-2, 1)), ((0, 1, 2), (6, -3, 1))]
    """
    width = 16
    inv: list[SparseRow] = []
    packed: list[int] = []  # row k of the inverse as one int
    top: list[int] = []  # the largest |entry| of row k of the inverse
    for i, (cols, vals) in enumerate(rows):
        if (not cols or cols[-1] != i or vals[-1] != 1
                or min(cols) < 0 or max(cols[:-1], default=-1) >= i):
            raise ValueError("matrix is not unitriangular")
        below = list(zip(cols[:-1], vals[:-1]))
        bound = 1 + sum(abs(c) * top[k] for k, c in below)
        wider = digit_width(2 * bound, width)  # bound < 2^(wider - 1)
        if wider > width:
            packed = [repack(m, width, wider, signed=True) for m in packed]
            width = wider
        acc = (1 << (width * i)) - sum(c * packed[k] for k, c in below)
        inv.append(unpack_signed(acc, width))
        packed.append(acc)
        top.append(max(map(abs, inv[-1][1])))
    return inv


def smith_diagonal(mat: list[list[int]]) -> list[int]:
    """Diagonal of the Smith normal form: nonnegative, each dividing
    the next, length min(rows, cols), zeros included.
    """
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    diag = []
    top = 0
    while top < min(rows, cols):
        # the first nonzero pivot of smallest absolute value
        nonzero = [(abs(m[i][j]), i, j) for i in range(top, rows)
                   for j in range(top, cols) if m[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        m[top], m[i] = m[i], m[top]
        for r in range(rows):
            m[r][top], m[r][j] = m[r][j], m[r][top]
        for r in range(top + 1, rows):
            q = m[r][top] // m[top][top]
            if q:
                m[r] = [a - q * b for a, b in zip(m[r], m[top])]
        for c in range(top + 1, cols):
            q = m[top][c] // m[top][top]
            if q:
                for r in range(rows):
                    m[r][c] -= q * m[r][top]
        # remainders left in the pivot row or column: pivot again
        if (any(m[r][top] for r in range(top + 1, rows))
                or any(m[top][top + 1:])):
            continue
        diag.append(abs(m[top][top]))
        top += 1
    diag += [0] * (min(rows, cols) - len(diag))
    # enforce the divisibility chain (zeros are already last)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if a and b and b % a != 0:
                g = gcd(a, b)
                diag[i], diag[j] = g, a * b // g
    return diag


def is_prime(n: int) -> bool:
    """Trial division by the 13 primes up to 41, then Miller-Rabin with
    them as bases, which is exact below psi_13 (Sorenson and Webster,
    Math. Comp. 86, 2017); ValueError from psi_13 on.

    >>> is_prime(2 ** 61 - 1), is_prime(3215031751)
    (True, False)
    """
    if n >= _PSI13:
        raise ValueError("p too large to certify prime")
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def base_p_digits(n: int, p: int) -> list[int]:
    """Base-p digits of n >= 0, least significant first.

    >>> base_p_digits(0, 7), base_p_digits(48, 5)
    ([0], [3, 4, 1])
    """
    check_int("n", n, 0)
    check_int("p", p, 2)
    digits = []
    while True:
        n, r = divmod(n, p)
        digits.append(r)
        if n == 0:
            return digits
