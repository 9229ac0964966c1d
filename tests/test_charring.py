"""Formal characters, Weyl characters, Frobenius twists, digit products.

Freudenthal's formula, which ``weyl_character`` evaluates, is checked
against three oracles that share none of its code.  The dimension
oracle evaluates the product formula
prod (<lam+rho, alpha_check> / <rho, alpha_check>) over positive
coroots with exact fractions.  The two others divide the alternating
sum sum_w sign(w) e^{w(lam+rho)} by the Weyl denominator: one leading
(height-maximal) term at a time from a heap, or one positive root at a
time by prefix sums along the root strings.  The package used both
divisions in turn before Freudenthal's formula replaced them.
"""

import heapq
import itertools
import tracemalloc
from fractions import Fraction

import pytest

from weylkit import (
    Character,
    ResourceLimitError,
    Weight,
    build_root_datum,
    dimension,
    enumerate_finite_weyl,
    expand_in_standard_basis,
    frobenius_twist,
    is_weyl_invariant,
    pairing,
    rho,
    sl2_simple_character,
    steinberg_digits,
    tensor,
    trivial_character,
    weyl_character,
)
from weylkit.charring import (
    _height, _weyl_cached, _weyl_constants, _weyl_memo)
from weylkit.coxeter import _context


def dimension_formula(datum, lam):
    """Independent oracle: the product formula with exact fractions."""
    shifted = lam + rho(datum)
    value = Fraction(1)
    for _, coroot in datum.positive_roots:
        value *= Fraction(pairing(shifted, coroot),
                          pairing(rho(datum), coroot))
    assert value.denominator == 1
    return int(value)


def heap_weyl_character(datum, lam):
    """Oracle: divide sum sign(w) e^{w(lam+rho)} by sum sign(w) e^{w(rho)},
    one leading (height-maximal) term at a time."""
    height = _height(datum)
    wf = enumerate_finite_weyl(datum)
    rho1 = Weight((1,) * datum.rank)
    lam1 = Weight(tuple(c + 1 for c in lam.coords))
    denom = [(w.apply(rho1).coords, -1 if ln % 2 else 1) for w, ln in wf]
    remainder = {}
    for w, ln in wf:
        mu = w.apply(lam1).coords
        remainder[mu] = remainder.get(mu, 0) + (-1 if ln % 2 else 1)
    quotient = {}
    heap = [(-height(mu), tuple(-c for c in mu)) for mu in remainder]
    heapq.heapify(heap)
    while heap:
        _, negc = heapq.heappop(heap)
        mu = tuple(-c for c in negc)
        c = remainder.get(mu, 0)
        if c == 0:
            continue
        nu = tuple(m - 1 for m in mu)  # divide the leading term by e^rho
        quotient[nu] = quotient.get(nu, 0) + c
        for wr, sign in denom:
            key = tuple(n + r for n, r in zip(nu, wr))
            old = remainder.get(key, 0)
            new = old - c * sign
            if new:
                remainder[key] = new
                if old == 0:
                    heapq.heappush(
                        heap, (-height(key), tuple(-x for x in key)))
            else:
                remainder.pop(key, None)
    assert not remainder
    return Character.from_dict({Weight(k): v for k, v in quotient.items()})


def division_weyl_character(datum, lam):
    """Oracle: divide sum sign(w) e^{w(lam+rho)} by the Weyl denominator
    e^rho prod_{a>0} (1 - e^{-a}), one positive root at a time.  Dividing
    by (1 - e^{-a}) is a prefix sum along each a-string, from its top
    down, Q(mu) = R(mu) + Q(mu + a), which must be back at zero at the
    bottom of the string.  The quotient is shifted by -rho at the end."""
    lam1 = Weight(tuple(c + 1 for c in lam.coords))
    quot = {}
    for w, ln in enumerate_finite_weyl(datum):
        mu = w.apply(lam1).coords
        quot[mu] = quot.get(mu, 0) + (-1 if ln % 2 else 1)
    for alpha in (wt.coords for wt, _ in datum.positive_roots):
        i = next(j for j, a in enumerate(alpha) if a)
        strings = {}
        for mu, c in quot.items():
            t = mu[i] // alpha[i]
            rep = tuple(m - t * a for m, a in zip(mu, alpha))
            strings.setdefault(rep, {})[t] = c
        quot = {}
        for rep, line in strings.items():
            bottom = min(line)
            run = 0
            for t in range(max(line), bottom, -1):
                run += line.get(t, 0)
                if run:
                    quot[tuple(r + t * a for r, a in zip(rep, alpha))] = run
            assert run + line[bottom] == 0
    return Character.from_dict(
        {Weight(tuple(m - 1 for m in mu)): c for mu, c in quot.items()})


DIVISION_CASES = {
    "A1": [(n,) for n in range(301)],
    "A2": list(itertools.product(range(13), repeat=2)),
    "B2": list(itertools.product(range(13), repeat=2)),
    "C2": list(itertools.product(range(13), repeat=2)),
    # the band of heights 15 .. 17 that the benchmark draws from
    "G2": [(a, h - a) for h in range(15, 18) for a in range(h + 1)],
    "A3": list(itertools.product(range(5), repeat=3)),
    "A4": list(itertools.product(range(3), repeat=4)),
}


@pytest.mark.parametrize("series", sorted(DIVISION_CASES))
def test_weyl_character_matches_per_root_division(series):
    datum = build_root_datum(series)
    for coords in DIVISION_CASES[series]:
        lam = Weight(coords)
        assert weyl_character(datum, lam) == division_weyl_character(
            datum, lam), coords


@pytest.mark.parametrize("series", sorted(DIVISION_CASES))
def test_weyl_character_passes_the_public_checks(series):
    # weyl_character skips the checks of the public constructor: each
    # result must pass them unchanged, sorted and with no zero term
    datum = build_root_datum(series)
    for coords in DIVISION_CASES[series]:
        ch = weyl_character(datum, Weight(coords))
        assert Character(ch.terms) == ch, coords


@pytest.mark.parametrize("series,sym", [
    ("A1", (1,)), ("A3", (1, 1, 1)), ("B2", (2, 1)), ("C2", (1, 2)),
    ("G2", (1, 3))])
def test_symmetrizer_and_root_lengths(series, sym):
    datum = build_root_datum(series)
    k = _weyl_constants(datum)
    assert k.sym == sym
    c = datum.cartan
    assert all(sym[i] * c[i][j] == sym[j] * c[j][i]
               for i in range(datum.rank) for j in range(datum.rank))
    # d_a = (a, a) / 2 is the d_i of a simple root of a's length, and
    # the highest root is long
    assert {da for *_, da in k.roots} == set(sym)
    top = datum.root_alpha.index(max(datum.root_alpha, key=sum))
    assert k.roots[top][3] == max(sym)


ORACLE_BOXES = {
    "A1": (61, 1),
    "A2": (9, 2),
    "B2": (9, 2),
    "C2": (9, 2),
    "G2": (7, 2),
    "A3": (3, 3),
}


@pytest.mark.parametrize("series", sorted(ORACLE_BOXES))
def test_weyl_character_matches_heap_division(series):
    datum = build_root_datum(series)
    top, rank = ORACLE_BOXES[series]
    for coords in itertools.product(range(top), repeat=rank):
        lam = Weight(coords)
        assert weyl_character(datum, lam) == heap_weyl_character(datum, lam)


BUDGET_BOXES = {"A1": 12, "A2": 4, "B2": 4, "C2": 4, "G2": 3, "A3": 2}


@pytest.mark.parametrize("series", sorted(BUDGET_BOXES))
def test_max_terms_is_the_exact_support_size(series):
    # the cap is checked against the exact support, sum |W mu| over the
    # dominant mu <= lam, counted before any multiplicity: it passes at
    # that size and raises one below it; each box holds lam = 0, whose
    # support is e^0 alone, so the smallest cap, 1, must pass
    datum = build_root_datum(series)
    for coords in itertools.product(range(BUDGET_BOXES[series]),
                                    repeat=datum.rank):
        lam = Weight(coords)
        full = weyl_character(datum, lam)
        support = len(full.terms)
        assert weyl_character(datum, lam, max_terms=support) == full
        if support > 1:
            with pytest.raises(ResourceLimitError):
                weyl_character(datum, lam, max_terms=support - 1)


@pytest.mark.parametrize("series", ["A1", "A2", "B2", "C2", "G2"])
def test_dimension_matches_product_formula(series):
    datum = build_root_datum(series)
    top = 4 if series != "G2" else 3
    for coords in itertools.product(range(top), repeat=datum.rank):
        lam = Weight(coords)
        ch = weyl_character(datum, lam)
        assert dimension(ch) == dimension_formula(datum, lam)


def test_known_dimensions():
    a1 = build_root_datum("A1")
    for n in range(8):
        assert dimension(weyl_character(a1, Weight((n,)))) == n + 1
    a2 = build_root_datum("A2")
    assert dimension(weyl_character(a2, Weight((1, 0)))) == 3
    assert dimension(weyl_character(a2, Weight((1, 1)))) == 8
    g2 = build_root_datum("G2")
    dims = sorted(dimension(weyl_character(g2, Weight(w)))
                  for w in ((1, 0), (0, 1)))
    assert dims == [7, 14]
    b2 = build_root_datum("B2")
    dims = sorted(dimension(weyl_character(b2, Weight(w)))
                  for w in ((1, 0), (0, 1)))
    assert dims == [4, 5]


def test_character_string_forms():
    a1 = build_root_datum("A1")
    assert str(weyl_character(a1, Weight((1,)))) == "e^{-1} + e^{1}"
    assert str(trivial_character(2)) == "e^{(0,0)}"
    a2 = build_root_datum("A2")
    adj = weyl_character(a2, Weight((1, 1)))
    assert str(adj) == ("e^{(-2,1)} + e^{(-1,-1)} + e^{(-1,2)} + "
                        "2*e^{(0,0)} + e^{(1,-2)} + e^{(1,1)} + e^{(2,-1)}")


def test_character_arithmetic():
    a1 = build_root_datum("A1")
    chi1 = weyl_character(a1, Weight((1,)))
    chi2 = weyl_character(a1, Weight((2,)))
    triv = trivial_character(1)
    assert chi1 * chi1 == chi2 + triv  # Clebsch-Gordan
    assert chi1 + chi1 == 2 * chi1
    assert chi1 - chi1 == Character.from_dict({})
    assert dimension(chi1 * chi2) == 6
    with pytest.raises(ValueError):
        chi1 + trivial_character(2)


def test_character_accessors():
    ch = Character.from_dict({Weight((2,)): 1, Weight((-2,)): 1,
                              Weight((0,)): 3})
    assert ch.coefficient(Weight((0,))) == 3
    assert ch.coefficient(Weight((5,))) == 0
    assert ch.rank == 1
    assert ch.as_dict() == {Weight((-2,)): 1, Weight((0,)): 3,
                            Weight((2,)): 1}
    assert ch.to_json_list() == [
        {"weight": [-2], "mult": 1},
        {"weight": [0], "mult": 3},
        {"weight": [2], "mult": 1},
    ]


def test_character_checks_its_public_input():
    # a term is a Weight with an int multiplicity, all of one rank; a
    # float or bool never enters, and no bare tuple stands for a weight
    w0, w1 = Weight((0,)), Weight((1,))
    for terms, message in [
            (((w0, 1.5),), "multiplicities must be int"),
            (((w0, True),), "multiplicities must be int"),
            (((w0, 2.0),), "multiplicities must be int"),
            (((w1, 1), (Weight((1, 2)), 1)),
             "weight of rank 2 where rank 1 is expected")]:
        with pytest.raises(ValueError, match=message):
            Character(terms)
    # a key that is no Weight is an object of the wrong kind
    for terms in ((((0,), 1),), ((w0, 1), ((1,), 1))):
        with pytest.raises(TypeError, match="expected a Weight, got tuple"):
            Character(terms)
    with pytest.raises(ValueError, match="multiplicities must be int"):
        Character.from_dict({w0: 0.5})
    with pytest.raises(ValueError,
                       match="weight of rank 2 where rank 1 is expected"):
        Character.from_dict({w0: 1, Weight((0, 0)): 1})
    # the coefficient at a weight of another rank is an error, not 0
    with pytest.raises(ValueError,
                       match="weight of rank 1 where rank 2 is expected"):
        trivial_character(2).coefficient(w0)
    assert Character(()).coefficient(Weight((0, 0))) == 0
    assert Character(((w0, -3), (w1, 2))).coefficient(w1) == 2


def test_character_scalar_must_be_an_int():
    # an int scales; a bool or a float is no exact scalar, and the
    # product is a TypeError, as for any other unsupported operand
    w0, w1 = Weight((0,)), Weight((1,))
    ch = Character(((w0, 1), (w1, -2)))
    assert ch * 3 == 3 * ch == Character(((w0, 3), (w1, -6)))
    assert ch * 0 == Character(())
    for c in (True, False, 2.0, 0.5):
        with pytest.raises(TypeError):
            ch * c
        with pytest.raises(TypeError):
            c * ch


def test_frobenius_twist_p_must_be_an_int():
    ch = sl2_simple_character(2, 5)
    assert frobenius_twist(ch, 1) == ch
    for p in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="p must be int, got"):
            frobenius_twist(ch, p)
    for p in (0, -3):
        with pytest.raises(ValueError, match="p must be at least 1, got"):
            frobenius_twist(ch, p)


def test_max_terms_must_be_an_int():
    # a cap that is not an int is invalid input, not an exceeded limit
    g2, a1 = build_root_datum("G2"), build_root_datum("A1")
    one = trivial_character(1)
    for cap in (2.5, 1000.0, True, "10"):
        with pytest.raises(ValueError, match="max_terms must be int, got"):
            weyl_character(g2, Weight((1, 1)), max_terms=cap)
        with pytest.raises(ValueError, match="max_terms must be int, got"):
            weyl_character(a1, Weight((1,)), max_terms=cap)
        with pytest.raises(ValueError, match="max_terms must be int, got"):
            tensor(one, one, max_terms=cap)
        with pytest.raises(ValueError, match="max_terms must be int, got"):
            sl2_simple_character(3, 5, max_terms=cap)


def test_weyl_memo_is_dropped_with_the_contexts():
    b2 = build_root_datum("B2")
    lam = Weight((1, 1))
    assert _weyl_cached(b2, lam) is _weyl_cached(b2, lam)
    assert _weyl_cached(b2, lam) == weyl_character(b2, lam)
    assert lam in _weyl_memo(b2)
    constants = _weyl_constants(b2)
    _context.cache_clear()
    assert _weyl_memo(b2) == {}
    assert _weyl_constants(b2) is not constants


def test_weyl_character_requires_dominant_sc():
    a1 = build_root_datum("A1")
    with pytest.raises(ValueError):
        weyl_character(a1, Weight((-1,)))
    with pytest.raises(ValueError):
        weyl_character(build_root_datum("A2", "adjoint"), Weight((1, 1)))


def test_weyl_character_zero_weight_is_trivial():
    for series in ("A1", "A2", "B2"):
        datum = build_root_datum(series)
        assert weyl_character(datum, Weight((0,) * datum.rank)) == (
            trivial_character(datum.rank))


def test_weyl_invariance():
    a2 = build_root_datum("A2")
    adj = weyl_character(a2, Weight((1, 1)))
    assert is_weyl_invariant(a2, adj)
    assert is_weyl_invariant(a2, trivial_character(2))
    lopsided = Character.from_dict({Weight((1, 1)): 1})
    assert not is_weyl_invariant(a2, lopsided)


def test_symmetry_under_longest_element():
    # -1 lies in the Weyl group of B2, so characters are even
    b2 = build_root_datum("B2")
    ch = weyl_character(b2, Weight((1, 2)))
    for w, c in ch.as_dict().items():
        assert ch.coefficient(Weight(tuple(-x for x in w.coords))) == c


def test_frobenius_twist():
    a1 = build_root_datum("A1")
    chi1 = weyl_character(a1, Weight((1,)))
    assert str(frobenius_twist(chi1, 5)) == "e^{-5} + e^{5}"
    assert frobenius_twist(chi1, 1) == chi1
    assert dimension(frobenius_twist(chi1, 7)) == 2
    with pytest.raises(ValueError):
        frobenius_twist(chi1, 0)


def test_steinberg_digits():
    assert [w.coords for w in steinberg_digits(Weight((28,)), 5)] == [
        (3,), (0,), (1,)]
    assert [w.coords for w in steinberg_digits(Weight((7, 12)), 5)] == [
        (2, 2), (1, 2)]
    assert [w.coords for w in steinberg_digits(Weight((3,)), 5)] == [(3,)]
    assert [w.coords for w in steinberg_digits(Weight((0, 0)), 5)] == [(0, 0)]
    with pytest.raises(ValueError):
        steinberg_digits(Weight((-1,)), 5)
    with pytest.raises(ValueError):
        steinberg_digits(Weight((3,)), 1)


def test_sl2_simple_characters():
    # restricted weights: simple = Weyl character
    a1 = build_root_datum("A1")
    for n in range(5):
        assert sl2_simple_character(n, 5) == weyl_character(a1, Weight((n,)))
    # the digit product every time
    assert str(sl2_simple_character(8, 5)) == (
        "e^{-8} + e^{-6} + e^{-4} + e^{-2} + e^{2} + e^{4} + e^{6} + e^{8}")
    assert dimension(sl2_simple_character(8, 5)) == 8
    assert dimension(sl2_simple_character(18, 5)) == 16
    assert dimension(sl2_simple_character(28, 5)) == 8
    # a twisted Steinberg block: n = p - 1 + p*(p - 1) keeps dim p^2
    assert dimension(sl2_simple_character(4 + 5 * 4, 5)) == 25
    with pytest.raises(ValueError):
        sl2_simple_character(3, 4)  # p must be prime
    with pytest.raises(ValueError):
        sl2_simple_character(-1, 5)


def test_expand_in_standard_basis():
    a1 = build_root_datum("A1")
    got = expand_in_standard_basis(a1, sl2_simple_character(8, 5))
    assert {w.coords[0]: c for w, c in got.items()} == {8: 1, 0: -1}
    got = expand_in_standard_basis(a1, sl2_simple_character(18, 5))
    assert {w.coords[0]: c for w, c in got.items()} == {
        18: 1, 10: -1, 8: 1, 0: -1}
    # round trip
    ch = sl2_simple_character(18, 5)
    rebuilt = Character.from_dict({})
    for w, c in expand_in_standard_basis(a1, ch).items():
        rebuilt = rebuilt + c * weyl_character(a1, w)
    assert rebuilt == ch
    with pytest.raises(ValueError):
        expand_in_standard_basis(a1, Character.from_dict({Weight((2,)): 1}))


def test_expand_round_trip_rank_two():
    b2 = build_root_datum("B2")
    ch = (weyl_character(b2, Weight((1, 1))) +
          2 * weyl_character(b2, Weight((0, 1))))
    got = expand_in_standard_basis(b2, ch)
    assert {w.coords: c for w, c in got.items()} == {(1, 1): 1, (0, 1): 2}


def test_tensor_matches_star():
    a1 = build_root_datum("A1")
    chi3 = weyl_character(a1, Weight((3,)))
    chi2 = weyl_character(a1, Weight((2,)))
    assert tensor(chi3, chi2) == chi3 * chi2
    expanded = expand_in_standard_basis(a1, tensor(chi3, chi2))
    assert {w.coords[0]: c for w, c in expanded.items()} == {
        5: 1, 3: 1, 1: 1}


def test_budget_is_spent_before_any_multiplicity():
    # G2 (80, 80) has 154 081 terms; the cap stops the pass by depth
    # after about a thousand terms, each orbit charged before it is stored
    g2 = build_root_datum("G2")
    weyl_character(g2, Weight((1, 1)))  # the datum's constants, built once
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            weyl_character(g2, Weight((80, 80)), max_terms=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 19


def test_rank_one_budget_is_charged_before_any_term():
    # e^{n - 2k} has n + 1 terms: a cap one below raises at once, even
    # where building the terms would not finish
    a1 = build_root_datum("A1")
    with pytest.raises(ResourceLimitError):
        weyl_character(a1, Weight((10 ** 15,)))
    assert len(weyl_character(a1, Weight((3000,)), max_terms=3001).terms) \
        == 3001
    with pytest.raises(ResourceLimitError):
        weyl_character(a1, Weight((3000,)), max_terms=3000)


def test_resource_limits():
    a1 = build_root_datum("A1")
    with pytest.raises(ResourceLimitError):
        weyl_character(a1, Weight((100,)), max_terms=10)
    big = weyl_character(a1, Weight((40,)))
    with pytest.raises(ResourceLimitError):
        tensor(big, big, max_terms=20)
    with pytest.raises(ResourceLimitError):
        sl2_simple_character(24, 5, max_terms=3)
    # a cap below one term is invalid input, not an exceeded limit
    for cap in (0, -1):
        with pytest.raises(ValueError,
                           match="max_terms must be at least 1, got"):
            weyl_character(a1, Weight((3,)), max_terms=cap)
        with pytest.raises(ValueError,
                           match="max_terms must be at least 1, got"):
            tensor(big, big, max_terms=cap)
        with pytest.raises(ValueError,
                           match="max_terms must be at least 1, got"):
            sl2_simple_character(3, 5, max_terms=cap)
