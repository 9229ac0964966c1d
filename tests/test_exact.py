"""The exact integer primitives against independent oracles.

The oracles are the rational-arithmetic eliminations these primitives
replaced (a ``Fraction`` determinant, and ``Fraction`` heights from the
inverse Cartan matrix), Bareiss's adjugate for the unitriangular
inverse, sums of shifted digits for the packed-digit kernel, a sieve
for primality, and the classical invariant-factor identities for the
Smith diagonal.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylkit._exact
from weylkit import build_root_datum
from weylkit._exact import (
    base_p_digits, det_adjugate, exact_ints, is_prime, repack,
    smith_diagonal, unitriangular_inverse, unpack_signed)
from weylkit.charring import _height

SERIES = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "C2", "G2"]

# deterministic examples, so a failure reproduces on every run
PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


def fraction_det(m):
    """Oracle: Gaussian elimination over the rationals."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    assert det.denominator == 1
    return int(det)


def cofactor_adjugate(m):
    """Oracle: adj[i][j] is the (j, i) cofactor, by fraction_det."""
    n = len(m)
    return [[(-1) ** (i + j) * fraction_det(
        [[m[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
        for j in range(n)] for i in range(n)]


def fraction_height_key(datum):
    """Oracle: heights as Fractions, from C^-1 by rational Gauss-Jordan."""
    n = datum.rank
    aug = [[Fraction(datum.cartan[i][j]) for j in range(n)]
           + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]
    sums = [sum(inv[i][j] for i in range(n)) for j in range(n)]
    return lambda c: (sum(s * x for s, x in zip(sums, c)), c)


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def scalar(d, n):
    return [[d * (i == j) for j in range(n)] for i in range(n)]


def square_matrices(min_n, max_n):
    return st.integers(min_n, max_n).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n))


# ------------------------------------------------------ det and adjugate

@pytest.mark.parametrize("series", SERIES)
def test_adjugate_identity_on_root_data(series):
    cartan = build_root_datum(series).cartan
    basis = build_root_datum(series, "adjoint").lattice_basis
    for m in (cartan, tuple(zip(*cartan)), basis, tuple(zip(*basis))):
        n = len(m)
        det, adj = det_adjugate(m)
        assert det == fraction_det(m) != 0
        assert matmul(m, adj) == matmul(adj, m) == scalar(det, n)
        assert weylkit._exact.det(m) == det
    assert det_adjugate(cartan)[0] > 0  # so integer heights keep the order


@PROPERTY
@given(square_matrices(0, 5))
def test_det_adjugate_matches_fraction_elimination(m):
    det, adj = det_adjugate(m)
    assert det == fraction_det(m)
    assert adj == cofactor_adjugate(m)
    assert matmul(m, adj) == scalar(det, len(m))
    assert weylkit._exact.det(m) == det


def with_dependent_last_row(m):
    """Replace the last row by twice the first."""
    return m[:-1] + [[2 * a for a in m[0]]]


@PROPERTY
@given(square_matrices(2, 5).map(with_dependent_last_row))
def test_det_adjugate_on_singular_matrices(m):
    # the elimination stops at a missing pivot; adj comes from cofactors
    det, adj = det_adjugate(m)
    assert det == fraction_det(m) == 0
    assert adj == cofactor_adjugate(m)
    assert matmul(m, adj) == matmul(adj, m) == scalar(0, len(m))
    assert weylkit._exact.det(m) == 0


def test_det_adjugate_rejects_non_square():
    with pytest.raises(ValueError):
        det_adjugate([[1, 2]])
    with pytest.raises(ValueError):
        weylkit._exact.det([[1, 2]])


def affine_cartan(n):
    """The Cartan form of affine A_{n-1}: 2 on the diagonal, -1 between
    cyclic neighbours; singular, as the sum of its rows is zero."""
    return [[2 if i == j else -1 if (i - j) % n in (1, n - 1) else 0
             for j in range(n)] for i in range(n)]


def test_det_of_a_singular_form_is_one_pass(monkeypatch):
    # det_adjugate would go on to n^2 cofactor determinants
    calls = []
    bareiss = weylkit._exact._bareiss

    def counted(rows, n):
        calls.append(n)
        return bareiss(rows, n)

    monkeypatch.setattr(weylkit._exact, "_bareiss", counted)
    m = affine_cartan(12)
    assert weylkit._exact.det(m) == 0 and calls == [12]
    assert m == affine_cartan(12)  # the input is left as it was


def lower_unitriangular(m):
    """Ones on the diagonal, zeros above it, m's entries below."""
    return [[x if j < i else int(i == j) for j, x in enumerate(row)]
            for i, row in enumerate(m)]


def sparse_rows(m):
    """Each row as (columns, entries) over its nonzero entries."""
    return [tuple(map(tuple, zip(*[(j, x) for j, x in enumerate(row) if x])))
            or ((), ()) for row in m]


def dense_rows(rows, n):
    out = [[0] * n for _ in rows]
    for row, (cols, vals) in zip(out, rows):
        for j, x in zip(cols, vals):
            row[j] = x
    return out


@PROPERTY
@given(square_matrices(0, 8).map(lower_unitriangular))
def test_unitriangular_inverse_matches_bareiss(m):
    rows = unitriangular_inverse(sparse_rows(m))
    assert rows == sparse_rows(dense_rows(rows, len(m)))  # no zeros kept
    inv = dense_rows(rows, len(m))
    assert inv == det_adjugate(m)[1]  # det m = 1: adj m is the inverse
    assert matmul(m, inv) == scalar(1, len(m))


@PROPERTY
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=n, max_size=n),
    min_size=n, max_size=n)).map(lower_unitriangular))
def test_unitriangular_inverse_widens_its_digits(m):
    # entries far beyond the first digit width: the rows are packed
    # again, wider, and the inverse stays exact
    inv = dense_rows(unitriangular_inverse(sparse_rows(m)), len(m))
    assert inv == det_adjugate(m)[1]


@pytest.mark.parametrize("m", [
    [[2]],
    [[1, 1], [0, 1]],
    [[1, 0], [5, -1]],
    [[1, 0], [1]],
])
def test_unitriangular_inverse_rejects_other_matrices(m):
    with pytest.raises(ValueError, match="not unitriangular"):
        unitriangular_inverse(sparse_rows(m))


@pytest.mark.parametrize("rows", [
    [((), ())],                      # an empty row
    [((1, 0), (1, 1)), ((1,), (1,))],  # columns out of order
    [((-1, 0), (1, 1))],             # a negative column
])
def test_unitriangular_inverse_rejects_malformed_rows(rows):
    with pytest.raises(ValueError, match="not unitriangular"):
        unitriangular_inverse(rows)


WIDTHS = (8, 16, 32, 64, 128, 256)


@pytest.mark.parametrize("width", WIDTHS)
def test_signed_digits_round_trip(width):
    # digits out to +-(2^(width - 1) - 1), the widest the inverse packs
    # at a width, summed by shifts, unpacked to the nonzero ones, and
    # packed again at every wider width
    top = (1 << (width - 1)) - 1
    rng = random.Random(width)
    cases = [[], [0], [top], [-top], [top, -top], [-top, top, 0, 0],
             [0, 0, -1], [1, -1, 1, -1]]
    for _ in range(300):
        cases.append([rng.choice((0, 1, -1, top, -top,
                                  rng.randint(-top, top)))
                      for _ in range(rng.choice((1, 2, 7, 40, 200)))])
    for digits in cases:
        m = sum(e << (width * j) for j, e in enumerate(digits))
        assert unpack_signed(m, width) == sparse_rows([digits])[0]
        for wider in WIDTHS:
            if wider > width:
                assert repack(m, width, wider, signed=True) == sum(
                    e << (wider * j) for j, e in enumerate(digits))


# ----------------------------------------------------------------- Smith

@PROPERTY
@given(st.integers(1, 4).flatmap(lambda rows: st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(st.integers(-9, 9), min_size=cols,
                                   max_size=cols),
                          min_size=rows, max_size=rows))))
def test_smith_diagonal_invariant_factor_identities(m):
    diag = smith_diagonal(m)
    assert len(diag) == min(len(m), len(m[0]))
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a else b == 0
    assert diag[0] == math.gcd(*(x for row in m for x in row))
    if len(m) == len(m[0]):
        assert math.prod(diag) == abs(fraction_det(m))


# ------------------------------------------------------------ primality

def test_is_prime_against_a_sieve():
    limit = 10 ** 4
    sieve = [False, False] + [True] * (limit - 1)
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [n for n in range(-3, limit + 1) if is_prime(n)] == [
        n for n in range(limit + 1) if sieve[n]]


@pytest.mark.parametrize("n", [
    3215031751,                  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,         # ... to every prime base up to 37
    318665857834031151167461,    # psi_12: needs the 13th base, 41
    2305843009213693951 * 3,
])
def test_strong_pseudoprimes_are_composite(n):
    assert not is_prime(n)


def test_large_primes_and_the_certified_range():
    assert is_prime(2305843009213693951)       # 2^61 - 1
    assert is_prime(2 ** 31 - 1) and is_prime(1000000007)
    assert not is_prime(3317044064679887385961980)
    for n in (3317044064679887385961981, 2 ** 89 - 1, 10 ** 400 + 1):
        with pytest.raises(ValueError, match="too large to certify"):
            is_prime(n)


# --------------------------------------------------------------- heights

@pytest.mark.parametrize("series,box,rank", [
    ("A2", 12, 2), ("B2", 12, 2), ("C2", 12, 2), ("G2", 12, 2),
    ("A3", 5, 3)])
def test_integer_height_orders_like_fraction_height(series, box, rank):
    datum = build_root_datum(series)
    height = _height(datum)
    oracle = fraction_height_key(datum)
    weights = list(product(range(-box, box + 1), repeat=rank))
    weights.reverse()
    assert (sorted(weights, key=lambda c: (height(c), c))
            == sorted(weights, key=oracle))
    # the scale is det C: simple roots have height det C
    det = det_adjugate(datum.cartan)[0]
    for i in range(rank):
        assert height(datum.simple_root(i)[0].coords) == det


# ---------------------------------------------------------------- digits

@PROPERTY
@given(st.integers(0, 10 ** 30), st.integers(2, 1000))
def test_base_p_digits_round_trip(n, p):
    digits = base_p_digits(n, p)
    assert sum(d * p ** i for i, d in enumerate(digits)) == n
    assert all(0 <= d < p for d in digits)
    assert digits[-1] != 0 or digits == [0]


def test_base_p_digits_rejects_bad_input():
    with pytest.raises(ValueError):
        base_p_digits(5, 1)
    with pytest.raises(ValueError):
        base_p_digits(-1, 5)


def test_one_exact_int_test_rejects_int_subclasses():
    # exact_ints is the package's one test of exact integer input: a
    # plain int passes; bool and any other subclass of int do not, at
    # each public constructor and cap that asks it
    from enum import IntEnum

    from weylkit import Character, Weight, weyl_character
    from weylkit.hecke import LaurentPolynomial
    from weylkit.icstalk import FgAbelianGroup

    class Two(IntEnum):
        TWO = 2

    class Wide(int):
        pass

    for odd in (True, Two.TWO, Wide(2), 2.0, "2", None):
        assert not exact_ints((1, odd))
    assert exact_ints([0, -5, 10 ** 40]) and exact_ints(())
    odd = Wide(2)
    for build in (lambda: Weight((odd, 0)),
                  lambda: Character(((Weight((0,)), odd),)),
                  lambda: LaurentPolynomial(((0, odd),)),
                  lambda: LaurentPolynomial.monomial(odd, 0),
                  lambda: LaurentPolynomial.from_dict({odd: 1}),
                  lambda: FgAbelianGroup(0, (odd,)),
                  lambda: FgAbelianGroup.from_presentation(1, [[odd]]),
                  lambda: weyl_character(build_root_datum("A2"),
                                         Weight((1, 0)), max_terms=Wide(9))):
        with pytest.raises(ValueError):
            build()
