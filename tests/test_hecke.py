"""Laurent polynomials, Hecke algebra relations, Kazhdan-Lusztig bases.

Independent oracles frozen here:
  * the defining quadratic relation and the square of a generator's
    self-dual element, checked by direct expansion;
  * the closed form for dihedral groups (every polynomial is a single
    power of v) over all pairs up to length six;
  * structural bounds (exponent window, parity, positivity, unit top
    coefficient) that the recursion must satisfy for every pair;
  * the Kazhdan-Lusztig recursion written directly on Hecke elements
    with the public mult_standard_by_gen, against which the
    integer-indexed engine is compared element by element;
  * h_x h_s, h_s h_x and bar(h_x) written out with the group law
    (multiply, length and the left-greedy word) alone, so that the
    arithmetic on the engine's action tables (the right action, and
    for h_s h_x the right action read through the inverse ids) has an
    oracle that reads no table;
  * the recursion's step on dense coefficient lists, which the step on
    packed integers replaced, row by row over the same tables, for the
    group and for the spherical module, and with the rows asked for in
    shuffled order, so that it checks rows read off a held row of an
    image under a symmetry of the table (an automorphism of the
    Coxeter graph, inversion, or the two composed) as well as stepped
    ones;
  * the recursion's own step over the chain of rank-one dominant
    alcoves, every row stepped in id order: each of its polynomials is
    v^{l(x)-l(y)}, and the row reader's closed form at v = 1, which
    builds no recursion, hands out its ids and values.
"""

import random
import sys
import threading
import tracemalloc
from array import array
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylkit.coxeter
import weylkit.hecke
from weylkit import (
    HeckeAlgebra,
    LaurentPolynomial,
    ResourceLimitError,
    affine_hecke,
    bar,
    build_root_datum,
    coxeter_number,
    decomposition_matrix,
    dominant_orbit,
    embed_finite,
    enumerate_finite_weyl,
    evaluate_at_one,
    finite_hecke,
    generators,
    identity_element,
    inverse,
    kl_basis_element,
    kl_polynomial,
    kl_vector_finite,
    lcf_coefficients,
    length,
    longest_finite_element,
    mult_standard_by_gen,
    multiply,
    sl2_lcf_valid,
)
from weylkit._exact import repack, unpack
from weylkit.coxeter import _context

from test_coxeter import bare, greedy_word
from test_lcf import (YieldingList, check_alcove_table, row_terms,
                      spherical_recursion)

V = LaurentPolynomial.v()
ONE = LaurentPolynomial.one()
ZERO = LaurentPolynomial.zero()
VINV = LaurentPolynomial.monomial(1, -1)


def elements_up_to(datum, cap):
    gens = generators(datum)
    frontier = [identity_element(datum)]
    seen = set(frontier)
    out = list(frontier)
    for _ in range(cap):
        nxt = []
        for el in frontier:
            for g in gens:
                prod = multiply(el, g)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
        out.extend(nxt)
    return sorted(out, key=length)


def oracle_times_gen(x, s, side):
    """h_x h_s (or h_s h_x) as {element: polynomial}: h_{xs}, plus
    (v^-1 - v) h_x when xs < x."""
    xs = multiply(x, s) if side == "right" else multiply(s, x)
    if length(xs) > length(x):
        return {xs: ONE}
    return {xs: ONE, x: VINV - V}


def oracle_bar_standard(x):
    """bar(h_x), the product of bar(h_s) = h_s + v - v^-1 over the
    reduced word of x, as {element: polynomial}."""
    gens = generators(x.datum)
    out = {identity_element(x.datum): ONE}
    for i in greedy_word(x):
        nxt = {}
        for y, p in out.items():
            ys = multiply(y, gens[i])
            nxt[ys] = nxt.get(ys, ZERO) + p
            if length(ys) > length(y):
                nxt[y] = nxt.get(y, ZERO) + p * (V - VINV)
        out = {y: p for y, p in nxt.items() if p}
    return out


def assert_terms(h, expected):
    """h has exactly the expected terms, in (length, reduced word) order."""
    assert dict(h.terms) == expected
    keys = [(length(y), greedy_word(y)) for y in h.support()]
    assert keys == sorted(keys)


# ---------------------------------------------------------------- laurent

def test_laurent_arithmetic():
    assert (V + VINV) * (V + VINV) == LaurentPolynomial.from_dict(
        {-2: 1, 0: 2, 2: 1})
    assert V * VINV == ONE
    assert V - V == ZERO
    assert 3 * V == LaurentPolynomial.monomial(3, 1)
    assert (V + ONE) - ONE == V


def test_laurent_bar_swaps_v_and_v_inverse():
    p = LaurentPolynomial.from_dict({-2: 3, 0: 1, 1: -4})
    assert p.bar() == LaurentPolynomial.from_dict({2: 3, 0: 1, -1: -4})
    assert p.bar().bar() == p


def test_laurent_str():
    assert str(V + VINV) == "v^-1 + v"
    assert str(LaurentPolynomial.monomial(3, 2)) == "3*v^2"
    assert str(-V) == "-v"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(LaurentPolynomial.from_dict({0: -2})) == "-2"


def test_laurent_constructor_rejects_unnormalised_input():
    # arithmetic skips these checks on results it normalised itself;
    # the public constructor keeps them
    for coeffs in (((1, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 0),),
                   ((-1, 2), (3, 0))):
        with pytest.raises(ValueError):
            LaurentPolynomial(coeffs)
    assert LaurentPolynomial(((-1, 2), (3, -1))).coeffs == ((-1, 2), (3, -1))


def test_laurent_public_input_must_be_int():
    # exponents and coefficients are exact ints: no float or bool enters
    # through the constructor, monomial or from_dict
    for coeffs in (((0.5, 1),), ((0, 1.5),), ((True, 1),), ((0, True),),
                   ((0, 1), (1, 2.0))):
        with pytest.raises(ValueError, match="must be int"):
            LaurentPolynomial(coeffs)
    for coefficient, exponent in ((1.5, 0), (1, 0.5), (True, 0), (1, False),
                                  (0.0, 0)):
        with pytest.raises(ValueError, match="must be int"):
            LaurentPolynomial.monomial(coefficient, exponent)
    for d in ({0: 1.5}, {0.5: 1}, {True: 1}, {0: False}):
        with pytest.raises(ValueError, match="must be int"):
            LaurentPolynomial.from_dict(d)
    assert LaurentPolynomial.monomial(0, 3) == LaurentPolynomial.zero()
    assert LaurentPolynomial.from_dict({2: 3, -1: 0}).coeffs == ((2, 3),)


def test_laurent_scalar_must_be_an_int():
    # an int scales; a bool or a float is no exact scalar, and the
    # product is a TypeError, as for any other unsupported operand
    p = LaurentPolynomial.from_dict({-1: 2, 3: -5})
    assert p * 3 == 3 * p == LaurentPolynomial.from_dict({-1: 6, 3: -15})
    assert p * 0 == ZERO
    for c in (True, False, 2.0, 0.5):
        with pytest.raises(TypeError):
            p * c
        with pytest.raises(TypeError):
            c * p


def test_hecke_scalar_must_be_an_int_or_a_polynomial():
    alg = affine_hecke(build_root_datum("A1"))
    h = alg.standard_basis_element(generators(alg.datum)[1]) + alg.unit()
    two = LaurentPolynomial.monomial(2, 0)
    assert h * 2 == 2 * h == h * two == two * h == h + h
    for c in (True, False, 2.0, 0.5):
        with pytest.raises(TypeError):
            h * c
        with pytest.raises(TypeError):
            c * h


def test_hecke_scale_rejects_inexact_scalars():
    h = affine_hecke(build_root_datum("A1")).unit()
    assert h.scale(2) == h.scale(LaurentPolynomial.monomial(2, 0)) == h + h
    for c in (2.0, True, "2", None):
        with pytest.raises(ValueError, match="scalar must be an int"):
            h.scale(c)


def test_laurent_coefficient_and_json():
    p = LaurentPolynomial.from_dict({-1: 2, 3: -5})
    assert p.coefficient(-1) == 2
    assert p.coefficient(3) == -5
    assert p.coefficient(0) == 0
    assert p.to_json_dict() == {"-1": 2, "3": -5}


def test_evaluate_at_one():
    assert evaluate_at_one(V + VINV) == 2
    assert evaluate_at_one(ZERO) == 0
    assert evaluate_at_one(LaurentPolynomial.from_dict({-2: 1, 5: -3})) == -2


# ----------------------------------------------------------- hecke algebra

def test_quadratic_relation():
    for series in ("A1", "A2", "B2"):
        datum = build_root_datum(series)
        alg = affine_hecke(datum)
        for s in generators(datum):
            h_s = alg.standard_basis_element(s)
            lhs = h_s * h_s
            rhs = alg.unit() + h_s.scale(VINV - V)
            assert lhs == rhs


def test_kl_generator_squares():
    datum = build_root_datum("A2")
    for s in generators(datum):
        b_s = kl_basis_element(s)
        assert b_s * b_s == b_s.scale(V + VINV)


def test_mult_standard_by_gen_agrees_with_product():
    datum = build_root_datum("A1")
    alg = affine_hecke(datum)
    sf, sa = generators(datum)
    for x in elements_up_to(datum, 4):
        h = kl_basis_element(x)
        for s in (sf, sa):
            h_s = alg.standard_basis_element(s)
            assert mult_standard_by_gen(h, s, side="right") == h * h_s
            assert mult_standard_by_gen(h, s, side="left") == h_s * h
    # both sides against the group law, on fresh handles so that the
    # top level's products are enumerated on demand
    for series in ("A2", "B2", "G2"):
        datum = build_root_datum(series)
        alg = HeckeAlgebra(datum)
        for x in elements_up_to(datum, 6):
            h_x = alg.standard_basis_element(x)
            for s in generators(datum):
                for side in ("right", "left"):
                    assert_terms(mult_standard_by_gen(h_x, s, side=side),
                                 oracle_times_gen(x, s, side))


def test_product_with_a_deep_element_needs_no_recursion():
    # h_s0 h_x runs over the 1100 letters of x, past the interpreter's
    # recursion limit; x starts with s0, so both terms of the quadratic
    # relation appear
    datum = build_root_datum("A1")
    alg = HeckeAlgebra(datum)
    sf, sa = generators(datum)
    x = identity_element(datum)
    for i in range(1100):
        x = multiply(x, (sa, sf)[i % 2])
    h_x = alg.standard_basis_element(x)
    got = alg.standard_basis_element(sa) * h_x
    assert got == mult_standard_by_gen(h_x, sa, side="left")
    assert_terms(got, oracle_times_gen(x, sa, "left"))


def test_bar_is_an_involution_fixing_kl_basis():
    datum = build_root_datum("A2")
    for x in elements_up_to(datum, 4):
        b_x = kl_basis_element(x)
        assert bar(b_x) == b_x
        h_x = affine_hecke(datum).standard_basis_element(x)
        assert bar(bar(h_x)) == h_x


def test_bar_on_generator():
    # bar(h_s) = h_s + (v - v^-1) h_id, i.e. the inverse of h_s
    datum = build_root_datum("A1")
    alg = affine_hecke(datum)
    s = generators(datum)[0]
    h_s = alg.standard_basis_element(s)
    barred = bar(h_s)
    assert barred == h_s + alg.unit().scale(V - VINV)
    assert h_s * barred == alg.unit()


def test_kl_basis_triangular_with_unit_leading_term():
    datum = build_root_datum("A2")
    for x in elements_up_to(datum, 4):
        b_x = kl_basis_element(x)
        assert b_x.coefficient(x) == ONE
        for y in b_x.support():
            assert length(y) <= length(x)


def test_dihedral_closed_form():
    # affine rank one is the infinite dihedral group: every polynomial
    # is the pure power v^(l(x) - l(y)) for y <= x
    datum = build_root_datum("A1")
    els = elements_up_to(datum, 6)
    for x in els:
        b_x = kl_basis_element(x)
        assert sorted(b_x.support(), key=length)[-1] == x
        for y in els:
            p = kl_polynomial(y, x)
            if p == ZERO:
                continue
            gap = length(x) - length(y)
            assert p == LaurentPolynomial.monomial(1, gap)
        # support of b_x = full Bruhat interval below x: one element at
        # length 0, two at each intermediate length, one at the top
        expected = 1 if length(x) == 0 else 2 * length(x)
        assert len(b_x.support()) == expected


@pytest.mark.parametrize("series", ["A1", "A2", "B2", "G2"])
def test_finite_low_rank_polynomials_are_pure_powers(series):
    datum = build_root_datum(series)
    elements = [w for w, _ in enumerate_finite_weyl(datum)]
    for x in elements:
        for y in elements:
            p = kl_polynomial(y, x)
            if p == ZERO:
                continue
            assert p == LaurentPolynomial.monomial(1, length(x) - length(y))


def test_structural_bounds_affine():
    for series in ("A1", "A2"):
        datum = build_root_datum(series)
        els = elements_up_to(datum, 5)
        for x in els:
            for y in els:
                p = kl_polynomial(y, x)
                if p == ZERO:
                    continue
                gap = length(x) - length(y)
                exps = [e for e, _ in p.coeffs]
                if gap == 0:
                    assert y == x and p == ONE
                    continue
                assert all(1 <= e <= gap for e in exps)
                assert all(e % 2 == gap % 2 for e in exps)
                assert all(c > 0 for _, c in p.coeffs)
                assert p.coefficient(gap) == 1


def test_inverse_symmetry():
    datum = build_root_datum("A2")
    els = elements_up_to(datum, 4)
    for x in els:
        for y in els:
            assert kl_polynomial(y, x) == kl_polynomial(inverse(y),
                                                        inverse(x))


def test_finite_longest_element_column():
    # in the finite algebra of rank <= 2 every element lies under w0
    datum = build_root_datum("B2")
    w0 = longest_finite_element(datum)
    assert length(w0) == 4
    b = kl_basis_element(w0)
    assert len(b.support()) == 8  # all of W lies below w0
    for w, ell in enumerate_finite_weyl(datum):
        assert b.coefficient(w) == LaurentPolynomial.monomial(1, 4 - ell)


def test_module_level_dispatch_finite_vs_affine():
    datum = build_root_datum("A2")
    w0 = longest_finite_element(datum)
    e = [w for w, ell in enumerate_finite_weyl(datum) if ell == 0][0]
    # finite elements dispatch to the finite algebra
    assert kl_polynomial(e, w0) == LaurentPolynomial.monomial(1, 3)
    # and agree with the affine algebra on the embedded pair
    assert kl_polynomial(embed_finite(e), embed_finite(w0)) == (
        LaurentPolynomial.monomial(1, 3))


def test_mixed_algebra_rejected():
    a = generators(build_root_datum("A1"))[0]
    b = generators(build_root_datum("B2"))[0]
    with pytest.raises(ValueError):
        kl_polynomial(a, b)
    with pytest.raises(ValueError):
        kl_basis_element(b).coefficient(a)


def test_finite_algebra_rejects_translations():
    datum = build_root_datum("A1")
    sf, sa = generators(datum)
    fin = finite_hecke(datum)
    with pytest.raises(ValueError):
        fin.standard_basis_element(multiply(sa, sf))


def test_element_str_and_json():
    datum = build_root_datum("A1")
    sf, sa = generators(datum)
    b = kl_basis_element(multiply(sa, sf))
    assert str(b) == "v^2*h_id + v*h_0 + v*h_1 + h_10"
    assert b.to_json_dict() == {"terms": [
        {"word": [], "poly": {"2": 1}},
        {"word": [0], "poly": {"1": 1}},
        {"word": [1], "poly": {"1": 1}},
        {"word": [1, 0], "poly": {"0": 1}},
    ]}


def test_concurrent_kl_computation():
    datum = build_root_datum("A2")
    els = elements_up_to(datum, 4)
    alg = affine_hecke(datum)

    def work(x):
        return alg.kl_basis_element(x)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(work, els * 2))
    for x, b in zip(els * 2, results):
        assert b.coefficient(x) == ONE


# ------------------------------------------------ engine against an oracle

def oracle_kl_basis(alg, x, memo):
    """b_x = b_{xs} b_s - sum of mu(y, xs) b_y over y < xs with ys < y,
    with s the last letter of the reduced word of x and b_s = h_s + v;
    every step a HeckeElement."""
    got = memo.get(x)
    if got is not None:
        return got
    word = greedy_word(x)
    if not word:
        out = alg.unit()
    else:
        s = generators(alg.datum)[word[-1]]
        prev = oracle_kl_basis(alg, multiply(x, s), memo)
        out = mult_standard_by_gen(prev, s) + prev.scale(V)
        for y, p in prev.terms:
            mu = p.coefficient(1)
            if mu and length(multiply(y, s)) < length(y):
                out = out - oracle_kl_basis(alg, y, memo).scale(mu)
    memo[x] = out
    return out


def assert_engine_matches_oracle(alg, elements):
    memo = {}
    for x in elements:
        b = alg.kl_basis_element(x)
        assert b == oracle_kl_basis(alg, x, memo)
        keys = [(length(y), greedy_word(y)) for y in b.support()]
        assert keys == sorted(keys)
        assert [t["word"] for t in b.to_json_dict()["terms"]] == [
            word for _, word in keys]
        for y in elements:
            assert alg.kl_polynomial(y, x) == b.coefficient(y)


@pytest.mark.parametrize("series", ["A2", "B2", "G2"])
def test_engine_matches_oracle_affine(series):
    datum = build_root_datum(series)
    assert_engine_matches_oracle(affine_hecke(datum), elements_up_to(datum, 8))


@pytest.mark.parametrize("series", ["A3", "B2"])
def test_engine_matches_oracle_finite(series):
    datum = build_root_datum(series)
    elements = [embed_finite(w) for w, _ in enumerate_finite_weyl(datum)]
    assert_engine_matches_oracle(finite_hecke(datum), elements)


def test_kl_polynomial_beyond_the_enumerated_lengths():
    # y longer than x: zero, whether or not y was ever enumerated
    datum = build_root_datum("B2")
    _context.cache_clear()
    alg = HeckeAlgebra(datum)
    s = generators(datum)
    x, y = s[0], identity_element(datum)
    for i in (2, 1, 0, 2, 1, 2):
        y = multiply(y, s[i])
    assert alg.kl_polynomial(y, x) == ZERO
    assert alg.kl_polynomial(identity_element(datum), x) == V
    assert alg.kl_polynomial(identity_element(datum), y) != ZERO
    # on a fresh handle, h_y, then h_y h_s and h_s h_y, then bar(h_z)
    # with l(z) = l(y) + 2, each past the longest length enumerated
    _context.cache_clear()
    alg = HeckeAlgebra(datum)
    h_y = alg.standard_basis_element(y)
    assert_terms(h_y, {y: ONE})
    for g in s:
        for side in ("right", "left"):
            assert_terms(mult_standard_by_gen(h_y, g, side=side),
                         oracle_times_gen(y, g, side))
    z = multiply(multiply(y, s[0]), s[2])
    assert length(z) == length(y) + 2
    assert_terms(bar(alg.standard_basis_element(z)), oracle_bar_standard(z))
    eng = alg._engine.table
    assert len(set(eng.elems)) == len(eng.elems) == len(eng.index)


def test_engine_shared_by_many_threads():
    # more threads than cores on one fresh handle and a second handle of
    # the datum, which share a fresh group table, switching often: a
    # race in growing the table or filling the rows or the bar memo
    # would enumerate an element twice or give some thread a wrong result
    datum = build_root_datum("B2")
    els = elements_up_to(datum, 7)
    ref = HeckeAlgebra(datum)
    expected = {x: ref.kl_basis_element(x).terms for x in els}
    order = list(reversed(els)) + els
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            _context.cache_clear()
            alg, other = HeckeAlgebra(datum), HeckeAlgebra(datum)

            def barred(h, x):
                b = h.kl_basis_element(x)
                return b, h.bar(b)

            with ThreadPoolExecutor(max_workers=8) as pool:
                futures, other_futures = [], []
                for x in order:
                    futures.append(pool.submit(alg.kl_basis_element, x))
                    other_futures.append(
                        pool.submit(other.kl_basis_element, x))
                bar_futures, other_bar_futures = [], []
                for x in reversed(els):
                    bar_futures.append(pool.submit(barred, alg, x))
                    other_bar_futures.append(pool.submit(barred, other, x))
                results = [f.result(timeout=120) for f in futures]
                bar_results = [f.result(timeout=120) for f in bar_futures]
                other_results = [f.result(timeout=120) for f in other_futures]
                other_bar_results = [f.result(timeout=120)
                                     for f in other_bar_futures]
            for x, b in zip(order, results):
                assert b.terms == expected[x]
            for x, (b, b_bar) in zip(reversed(els), bar_results):
                assert b_bar == b
                assert b.terms == expected[x]
            for x, b in zip(order, other_results):
                assert b.terms == expected[x]
            for x, (b, b_bar) in zip(reversed(els), other_bar_results):
                assert b_bar == b
                assert b.terms == expected[x]
            assert other._engine.table is alg._engine.table
            eng = alg._engine
            assert len(set(eng.table.elems)) == len(eng.table.elems) == len(
                eng.table.index)
            assert len(set(eng.polys)) == len(eng.polys) == len(
                eng.poly_ids)
    finally:
        sys.setswitchinterval(old)


def times_gen(alg, x, s, side):
    h = alg.standard_basis_element(x)
    return dict(mult_standard_by_gen(h, s, side=side).terms)


def test_two_handles_grow_the_group_table_at_once():
    # h_x h_s and h_s h_x on two handles that share a fresh group table,
    # sorted by l(x) so that threads meet on the level that is being
    # grown, and each length and last letter stored with a pause: a
    # handle that grew the table outside its lock, or read half a level,
    # would enumerate an element twice or get a wrong product
    datum = build_root_datum("B2")
    calls = [(x, s, side) for x in elements_up_to(datum, 6)
             for s in generators(datum) for side in ("right", "left")]
    expected = [oracle_times_gen(*call) for call in calls]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(10):
            _context.cache_clear()
            table = _context(datum).group
            table.lens = YieldingList(table.lens)
            table.last = YieldingList(table.last)
            handles = [HeckeAlgebra(datum), HeckeAlgebra(datum)]
            rng = random.Random(trial)
            order = sorted(range(len(calls)), key=lambda k: (
                length(calls[k][0]), rng.random()))
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [(k, pool.submit(times_gen, handles[k % 2],
                                           *calls[k])) for k in order]
                for k, f in futures:
                    assert f.result(timeout=120) == expected[k]
            assert all(h._engine.table is table for h in handles)
            check_alcove_table(table, datum, coxeter_number(datum))
    finally:
        sys.setswitchinterval(old)


def test_kl_pool_holds_each_polynomial_once(fresh_context):
    # on a fresh context, whose pool holds only what this test asks for
    datum = build_root_datum("B2")
    alg = HeckeAlgebra(datum)
    els = elements_up_to(datum, 8)
    views = {}
    for x in els:
        for y, p in alg.kl_basis_element(x).terms:
            # equal P_{y,x} are one shared object, also from kl_polynomial
            assert views.setdefault(p.coeffs, p) is p
            assert alg.kl_polynomial(y, x) is p
    eng = alg._engine
    assert len(set(eng.polys)) == len(eng.polys) == len(eng.poly_ids)
    assert len(eng.polys) == len(views)
    w = eng.width
    for k, m in enumerate(eng.polys):
        # the key is the packed int, sum of c_e 2^(w e) at the pool's
        # width w, and its top digit is the last nonzero coefficient: no
        # trailing zero
        p = eng.view(k)
        assert views[p.coeffs] is p
        assert m == sum(c << (w * e) for e, c in p.coeffs)
        top, c = p.coeffs[-1]
        assert m >> (w * top) == c != 0
        assert eng.poly_ids[m] == k
        assert eng.mu[k] == p.coefficient(1)
        assert eng.ones[k] == evaluate_at_one(p)


def test_kl_tables_of_affine_a3_stay_small():
    # all b_x of affine A3 up to length 10 on a fresh handle: with a
    # dense list per pair the traced peak was about 14 MB (CPython 3.11),
    # with the pool and compact rows it is 1.7 MB
    datum = build_root_datum("A3")
    els = elements_up_to(datum, 10)
    _context.cache_clear()  # so that the group table grows in the trace
    alg = HeckeAlgebra(datum)
    tracemalloc.start()
    try:
        for x in els:
            alg.kl_basis_element(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(els) == 791
    assert peak < 5 * 2 ** 20


# ------------------------------------------- packed step against the dense

def dense_add(acc, y, c, p, shift):
    """acc[y] += c * v^shift * p, polynomials as dense coefficient lists
    indexed by exponent."""
    q = acc.get(y)
    if q is None:
        acc[y] = [0] * shift + [c * a for a in p]
        return
    if len(q) < len(p) + shift:
        q.extend([0] * (len(p) + shift - len(q)))
    for e, a in enumerate(p, shift):
        if a:
            q[e] += c * a


def dense_kl_rows(table, max_len):
    """Every row up to max_len of the table's recursion, by the step on
    dense coefficient lists that the packed one replaced: {x: [(y,
    coefficients by exponent)]}.  Ids ascend with length, so each x
    needs only rows with smaller ids."""
    rows = {0: [(0, (1,))]}
    for x in range(1, table.up_to(max_len)):
        right = table.right[table.last[x]]
        prev = rows[right[x]]
        acc = {}
        for y, p in prev:
            ys = right[y]
            if ys > y:                       # h_y b_s = h_ys + v h_y
                dense_add(acc, ys, 1, p, 0)
                dense_add(acc, y, 1, p, 1)
            elif ys >= 0:                    # h_y b_s = h_ys + v^-1 h_y
                dense_add(acc, ys, 1, p, 0)
                dense_add(acc, y, 1, p[1:], 0)
            else:                            # a leaf: (v + v^-1) h_y
                dense_add(acc, y, 1, p, 1)
                dense_add(acc, y, 1, p[1:], 0)
        for y, p in prev:
            mu = p[1] if len(p) > 1 else 0
            if mu and right[y] < y:
                for z, q in rows[y]:
                    dense_add(acc, z, -mu, q, 0)
        row = []
        for y in sorted(acc):
            p = acc[y]
            while p and not p[-1]:
                p.pop()
            if p:
                row.append((y, tuple(p)))
        rows[x] = row
    return rows


def assert_rows_match_dense(eng, max_len, seed=None):
    """Every row up to max_len of eng is the dense step's, the rows
    requested in id order, or shuffled by the seed."""
    rows = dense_kl_rows(eng.table, max_len)
    order = list(rows)
    if seed is not None:
        random.Random(seed).shuffle(order)
    for x in order:
        assert row_terms(eng, x) == tuple(
            (y, LaurentPolynomial.from_dict(dict(enumerate(p))))
            for y, p in rows[x]), x
    return len(rows)


@pytest.mark.parametrize("series, max_len", [
    ("A2", 9), ("B2", 9), ("G2", 9), ("A3", 8)])
def test_packed_rows_match_the_dense_step(series, max_len):
    alg = HeckeAlgebra(build_root_datum(series))
    assert assert_rows_match_dense(alg._engine, max_len) > 100


@pytest.mark.parametrize("series, max_len, seed", [
    ("A2", 9, 1), ("B2", 9, 2), ("G2", 9, 3), ("A3", 8, 4)])
def test_rows_in_shuffled_order_match_the_dense_step(series, max_len, seed,
                                                     monkeypatch,
                                                     fresh_context):
    # a row of x is read off a held row of an image of x under a
    # symmetry of the table (sigma(x), x^{-1} or sigma(x)^{-1}), and
    # stepped otherwise: with the rows asked for in shuffled order, the
    # dense step checks rows from both paths, on a fresh context so that
    # every row is made here
    made = {"step": 0, "image": 0}

    def counted(name):
        method = getattr(weylkit.hecke._KLRecursion, name)

        def wrapper(self, *args):
            made["image" if name == "_image_row" else "step"] += 1
            return method(self, *args)
        return wrapper

    for name in ("_step", "_image_row"):
        monkeypatch.setattr(weylkit.hecke._KLRecursion, name, counted(name))
    alg = HeckeAlgebra(build_root_datum(series))
    n = assert_rows_match_dense(alg._engine, max_len, seed)
    assert made["step"] + made["image"] == n - 1  # row 0 is given
    # each path makes a share of the rows: A3 steps 50 of 425 rows and
    # G2, which has no automorphism, reads 42 of 109 off inverses
    assert made["step"] > n // 10 and made["image"] > n // 4


@pytest.mark.parametrize("series, max_len", [
    # at p = 11 the A1 alcove of length k is (11 k - 1, 11 k + 10), so
    # 1331 lies in the alcove of length 121
    ("A2", 14), ("B2", 14), ("G2", 14), ("A1", 121)])
def test_packed_spherical_rows_match_the_dense_step(series, max_len,
                                                    fresh_context):
    eng = spherical_recursion(build_root_datum(series))
    assert assert_rows_match_dense(eng, max_len) > max_len


def stepped(table, max_len):
    """A recursion of its own over table, every row up to max_len made
    by ``_step`` in id order, whatever path ``basis`` would take."""
    eng = weylkit.hecke._KLRecursion(table)
    for x in range(1, table.up_to(max_len)):
        s = table.last[x]
        prev = eng.kl[table.right[s][x]]
        eng.kl[x] = eng._step(x, prev, s, eng._mu_terms(prev, s))
    return eng


@pytest.mark.parametrize("variant", ["sc", "adjoint"])
def test_rank_one_alcove_rows_at_one_are_the_stepped_ones(variant,
                                                          fresh_context):
    # the dominant alcoves of A1 form a chain, one id per length, and the
    # reader hands out the row of x at v = 1 in closed form, x + 1 ones;
    # the stepped rows are its oracle: every P_{y,x} is v^{x-y}, and the
    # reader's ids and values are theirs, with no recursion built for it
    datum = build_root_datum("A1", variant)
    table = _context(datum).alcoves
    oracle = stepped(table, 200)
    assert table.lens == list(range(201))
    for x in range(201):
        ys, ks = oracle.kl[x]
        assert ys == array("i", range(x + 1)), x
        assert oracle.views(ks) == tuple(
            LaurentPolynomial.monomial(1, x - y) for y in ys), x
        got_ys, got_ones = weylkit.hecke._row_at_one(table, x)
        assert list(got_ys) == list(ys), x
        assert got_ones == [oracle.ones[k] for k in ks], x
    assert table not in weylkit.hecke._recursions(datum)


def test_rank_one_alcove_rows_build_no_recursion(fresh_context):
    # the SL2 check, the coefficients and the character-formula matrices
    # of A1 read their rows in closed form: none of them builds the
    # recursion over the dominant alcoves, of either variant
    assert sl2_lcf_valid(1320, 11)  # the alcove of id 120 at p = 11
    assert not sl2_lcf_valid(1318, 11)  # the alcove of id 119
    data = [build_root_datum("A1", v) for v in ("sc", "adjoint")]
    for datum in data:
        m = decomposition_matrix(datum, 5, max_len=30, entries="lcf")
        top = dominant_orbit(datum, 5, 30)[-1][0]
        assert len(lcf_coefficients(top, 5)) == len(m.labels) == 31
    for datum in data:
        assert _context(datum).alcoves not in (
            weylkit.hecke._recursions(datum))


def test_basis_searches_the_images_of_each_row_once(fresh_context,
                                                    monkeypatch):
    # a row that must be stepped is searched for a held image once, not
    # again each time the recursion comes back to it: over every b_x of
    # affine A2 to length 10 asked for in shuffled order, each row made
    # is searched exactly once, and a row already held not at all
    searched = []
    held_image = weylkit.hecke._KLRecursion._held_image

    def counted(self, z):
        searched.append(z)
        return held_image(self, z)

    monkeypatch.setattr(weylkit.hecke._KLRecursion, "_held_image", counted)
    alg = HeckeAlgebra(build_root_datum("A2"))
    table = alg._engine.table
    n = table.up_to(10)
    for x in random.Random(1).sample(range(n), n):
        alg.kl_basis_element(table.elems[x])
    assert sorted(searched) == sorted(alg._engine.kl)[1:]  # row 0 is given
    assert len(searched) == n - 1


def pack(coeffs, width):
    """The polynomial with these coefficients, by exponent, packed at
    the digit width."""
    return sum(c << (width * e) for e, c in enumerate(coeffs))


def intern(eng, coeffs):
    """Put the polynomial into the pool of eng, widening the pool first
    if a coefficient does not fit its width."""
    eng._widen(max(coeffs))
    return eng._intern(pack(coeffs, eng.width), max(coeffs))


def test_packed_step_raises_before_a_coefficient_reaches_2_64():
    table = _context(build_root_datum("A2")).group
    table.up_to(1)
    # b_id scaled by c: b_s = c h_s + c v h_id, whose coefficients the
    # bound allows while 3 c < 2^64, and no further
    c = (1 << 64) // 3
    eng = weylkit.hecke._KLRecursion(table)
    eng.kl[0] = (array("i", (0,)), array("i", (intern(eng, [c]),)))
    assert eng.width == 64
    assert row_terms(eng, 1) == ((0, LaurentPolynomial(((1, c),))),
                                 (1, LaurentPolynomial(((0, c),))))
    eng = weylkit.hecke._KLRecursion(table)
    eng.kl[0] = (array("i", (0,)), array("i", (intern(eng, [c + 1]),)))
    with pytest.raises(ResourceLimitError, match="2\\^64"):
        eng.basis(1)
    # a pool that merely holds a coefficient near 2^63 stops the next step
    eng = weylkit.hecke._KLRecursion(table)
    intern(eng, [1 << 63])
    with pytest.raises(ResourceLimitError):
        eng.basis(1)
    assert list(eng.kl) == [0]


def test_step_widens_below_2_64_and_raises_at_it():
    # a pool holding c sits at the narrowest width that holds c; the
    # step b_s = c h_s + c v h_id widens it to the narrowest width that
    # holds 3 c, and raises exactly when 3 c reaches 2^64
    table = _context(build_root_datum("A2")).group
    table.up_to(1)
    first = weylkit.hecke._KLRecursion(table).width
    widened = set()
    for c in (1, 21845, 21846, (1 << 32) // 3, (1 << 32) // 3 + 1,
              (1 << 64) // 3, (1 << 64) // 3 + 1):
        eng = weylkit.hecke._KLRecursion(table)
        eng.kl[0] = (array("i", (0,)), array("i", (intern(eng, [c]),)))
        held = eng.width
        assert not c >> held and (held == first or c >> (held // 2))
        if 3 * c >> 64:
            with pytest.raises(ResourceLimitError, match="2\\^64"):
                eng.basis(1)
            assert eng.width == held and list(eng.kl) == [0]
            continue
        assert row_terms(eng, 1) == ((0, LaurentPolynomial(((1, c),))),
                                     (1, LaurentPolynomial(((0, c),))))
        want = held
        while (3 * c) >> want:
            want *= 2
        assert eng.width == want <= 64
        widened.add((held, want))
    assert {(16, 32), (32, 64)} <= widened


def test_negative_packed_rows_raise():
    # a mu correction that takes away too much: with mu(s, st) = 1 read
    # as 5, b_sts = b_st b_s - 5 b_s leaves negative coefficients, which
    # must raise, not unpack into wrong digits or loop forever
    datum = build_root_datum("A2")
    table = _context(datum).group
    gens = generators(datum)
    sts = table.element_id(multiply(multiply(gens[0], gens[1]), gens[0]))
    eng = weylkit.hecke._KLRecursion(table)
    for x in range(sts):
        eng.basis(x)
    w = eng.width
    eng.mu[eng.poly_ids[1 << w]] = 5
    with pytest.raises(RuntimeError, match="negative coefficient"):
        eng.basis(sts)
    assert sts not in eng.kl
    # negative ints, and v - 1 packed as 2^w - 1 (a borrow), never unpack
    with pytest.raises(RuntimeError, match="negative coefficient"):
        unpack(-(1 << 640), w)
    with pytest.raises(RuntimeError, match="negative coefficient"):
        eng._intern((1 << w) - 1, 3)


WIDTHS = (8, 16, 32, 64, 128, 256)


def unpack_by_shifts(m, width, cap=None):
    """The oracle: one digit of the width at a time, by shifting."""
    if cap is None:
        cap = (1 << width) - 1
    out = []
    while m > 0:
        out.append(m & ((1 << width) - 1))
        m >>= width
    if m or max(out, default=0) > cap:
        raise RuntimeError("negative coefficient")
    return out


def test_unpack_matches_the_digit_loop():
    for width in WIDTHS:
        check_unpack_at(width, random.Random(width))


def check_unpack_at(width, rng):
    for _ in range(500):
        degree = rng.choice([0, 1, 2, 7, 40, 120, 300])
        bits = rng.choice(sorted({1, 8, width // 2, width - 1, width}))
        coeffs = [rng.randrange(1 << bits) for _ in range(degree + 1)]
        if rng.random() < 0.3:
            coeffs[-1] = 0
        m = pack(coeffs, width)
        cap = rng.choice([None, (1 << width) - 1, 1 << bits,
                          max(coeffs) or 1])
        try:
            want = unpack_by_shifts(m, width, cap)
        except RuntimeError:
            with pytest.raises(RuntimeError, match="negative coefficient"):
                unpack(m, width, cap)
        else:
            got = unpack(m, width, cap)
            assert type(got) is list and got == want
            assert not got or got[-1]
            for wider in WIDTHS:
                if wider > width:
                    assert repack(m, width, wider) == pack(want, wider)
    assert unpack(0, width) == []
    for m, cap in ((-1, 1), (-(1 << 640), 1 << (width - 1)),
                   ((5 << width) + 7, 6), (1 << (2 * width), 0)):
        with pytest.raises(RuntimeError, match="negative coefficient"):
            unpack_by_shifts(m, width, cap)
        with pytest.raises(RuntimeError, match="negative coefficient"):
            unpack(m, width, cap)


@pytest.mark.parametrize("series, max_len", [("G2", 12), ("A3", 9)])
def test_pool_widened_mid_recursion_keeps_its_rows(series, max_len):
    # rows up to half the length at the first width, then the pool is
    # widened twice and packed again, and the recursion goes on: each
    # polynomial must keep its pool id under its packing at the new
    # width, and every row must still be the dense step's
    table = _context(build_root_datum(series)).group
    eng = weylkit.hecke._KLRecursion(table)
    first = eng.width
    for x in range(table.up_to(max_len // 2)):
        eng.basis(x)
    held = [eng.view(k).coeffs for k in range(len(eng.polys))]
    eng._widen(1 << (2 * first))
    assert eng.width == 4 * first
    assert len(eng.polys) == len(eng.poly_ids) == len(held)
    for k, coeffs in enumerate(held):
        m = sum(c << (eng.width * e) for e, c in coeffs)
        assert eng.polys[k] == m and eng.poly_ids[m] == k
    assert assert_rows_match_dense(eng, max_len) > 100
    assert len(eng.polys) > len(held)


@pytest.fixture
def fresh_context():
    _context.cache_clear()
    yield
    _context.cache_clear()


def test_second_handle_reads_the_walked_group(fresh_context, monkeypatch):
    # the context owns the table of the group: a second handle of the
    # datum numbers its rows by the ids the first one walked, and
    # multiplies no group elements
    datum = build_root_datum("B2")
    els = elements_up_to(datum, 8)
    first = affine_hecke(datum)
    expected = {x: first.kl_basis_element(x).terms for x in els}
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return multiply(x, y)

    for module in (weylkit.coxeter, weylkit.hecke):
        monkeypatch.setattr(module, "multiply", counted, raising=False)
    second = HeckeAlgebra(datum)
    for x in els:
        assert second.kl_basis_element(x).terms == expected[x]
    assert calls == []
    assert first._engine.table is second._engine.table
    assert second._engine.table is _context(datum).group


def test_second_handle_recomputes_nothing(fresh_context, monkeypatch):
    # the context owns the recursion of each table and its bar memo: a
    # second handle of the datum, built directly or by the builder,
    # reads the rows, pool and memo that the first one filled, with no
    # step, no new pool entry and no product of the bar's word
    datum = build_root_datum("B2")
    els = elements_up_to(datum, 8)
    longer = elements_up_to(datum, 9)[-1]
    first = HeckeAlgebra(datum)
    kl = {x: first.kl_basis_element(x).terms for x in els}
    barred = {x: first.bar(first.standard_basis_element(x)).terms
              for x in els}
    w0 = embed_finite(longest_finite_element(datum))
    finite = HeckeAlgebra(datum, affine=False)
    kl_w0 = finite.kl_basis_element(w0).terms
    calls = []
    for cls, name in ((weylkit.hecke._KLRecursion, "_step"),
                      (weylkit.hecke._KLRecursion, "_intern"),
                      (HeckeAlgebra, "_times_gen")):
        def counted(*args, method=getattr(cls, name), name=name):
            calls.append(name)
            return method(*args)
        monkeypatch.setattr(cls, name, counted)
    for second in (HeckeAlgebra(datum), affine_hecke(datum)):
        assert second is not first and second._engine is first._engine
        for x in els:
            assert second.kl_basis_element(x).terms == kl[x]
            h_x = second.standard_basis_element(x)
            assert second.bar(h_x).terms == barred[x]
    for second in (HeckeAlgebra(datum, affine=False), finite_hecke(datum)):
        assert second._engine is finite._engine
        assert second.kl_basis_element(w0).terms == kl_w0
    assert calls == []
    # the counters see what they count
    assert length(longer) == 9
    first.kl_basis_element(longer)
    first.bar(first.standard_basis_element(longer))
    assert {"_step", "_intern", "_times_gen"} <= set(calls)


def test_clearing_the_context_drops_the_handles_built_on_it():
    # a handle keeps the tables of its context, so a cleared context
    # must take the handles with it, or a new handle would walk the
    # group a second time beside the stale one
    datum = build_root_datum("B2")
    stale = affine_hecke(datum), finite_hecke(datum)
    _context.cache_clear()
    ctx = _context(datum)
    assert affine_hecke(datum)._engine.table is ctx.group
    assert spherical_recursion(datum).table is ctx.alcoves
    assert finite_hecke(datum)._engine.table is ctx.finite
    assert affine_hecke(datum) is not stale[0]
    assert finite_hecke(datum) is not stale[1]
    assert affine_hecke(datum)._engine is not stale[0]._engine


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["A2", "B2", "G2"]),
       st.lists(st.integers(0, 2), max_size=10))
def test_random_kl_basis_elements_are_self_dual_within_bounds(series, word):
    datum = build_root_datum(series)
    gens = generators(datum)
    x = identity_element(datum)
    for i in word:
        x = multiply(x, gens[i])
    b = kl_basis_element(x)
    assert bar(b) == b
    lx = length(x)
    assert b.coefficient(x) == ONE
    for y, p in b.terms:
        gap = lx - length(y)
        if y == x:
            continue
        assert gap > 0
        assert all(c > 0 and 1 <= e <= gap and (gap - e) % 2 == 0
                   for e, c in p.coeffs), (y, p)
        assert p.coefficient(gap) == 1


def first_calls_get_one_handle(handle, rounds):
    # threads released together right after cache_clear: each must get
    # the one handle of the datum, not a private copy with its own tables
    datum = build_root_datum("G2")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            _context.cache_clear()
            barrier = threading.Barrier(8)

            def first_call():
                barrier.wait(timeout=30)
                return handle(datum)

            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(first_call) for _ in range(8)]
                got = [f.result(timeout=60) for f in futures]
            assert all(h is got[0] for h in got)
            assert handle(datum) is got[0]
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("handle", [affine_hecke, finite_hecke])
def test_concurrent_first_calls_share_one_handle(handle):
    first_calls_get_one_handle(handle, 20)


def test_concurrent_first_calls_share_one_context():
    # the context owns the table of dominant alcoves, so a second context
    # would walk them a second time; under a bare lru_cache about one
    # round in 13 built two
    first_calls_get_one_handle(_context, 100)


def test_algebra_caching():
    datum = build_root_datum("A2")
    assert affine_hecke(datum) is affine_hecke(datum)
    assert finite_hecke(datum) is finite_hecke(datum)
    assert affine_hecke(datum) is not finite_hecke(datum)


def test_coefficient_reads_the_sorted_terms(fresh_context):
    # the coefficient of h_y, found by bisection, against the terms read
    # as a dict, for tagged and untagged y, y outside the support and y
    # longer than every numbered element
    datum = build_root_datum("B2")
    els = elements_up_to(datum, 7)
    longer = identity_element(datum)
    for i in [2, 0, 1] * 6:
        longer = multiply(longer, generators(datum)[i])
    for x in els[::3]:
        b = kl_basis_element(x)
        terms = dict(b.terms)
        for y in els + [longer]:
            assert b.coefficient(y) == terms.get(y, ZERO)
            assert b.coefficient(bare(y)) == terms.get(y, ZERO)
    w0 = longest_finite_element(datum)
    b = kl_basis_element(w0)
    for w, _ in enumerate_finite_weyl(datum):
        assert b.coefficient(w) == dict(b.terms)[embed_finite(w)]


def test_views_are_built_for_read_entries_only(fresh_context):
    # reading the terms of b_x views the pool entries of its own row,
    # shared with every later reader; the spherical rows, which nobody
    # views, build none
    datum = build_root_datum("G2")
    alg = affine_hecke(datum)
    decomposition_matrix(datum, 7, max_len=14)
    assert spherical_recursion(datum)._views == {}
    eng = alg._engine
    read = set()
    for x in elements_up_to(datum, 9)[::7]:
        b = alg.kl_basis_element(x)
        terms = b.terms
        read.update(eng.basis(eng.table.element_id(x))[1])
        assert eng._views.keys() == read
        again = alg.kl_basis_element(bare(x))
        assert all(p is q for (_, p), (_, q) in zip(terms, again.terms))
    assert len(eng.polys) > len(read)


def test_row_backed_element_equals_its_arithmetic_form():
    # b_{s1} b_{s0} = b_{s1 s0} in affine A1: the b_x that holds its row
    # and the product that arithmetic built are one dict key, each way,
    # hashed before anything else is read off the row
    datum = build_root_datum("A1")
    s1, s0 = generators(datum)
    b = kl_basis_element(multiply(s1, s0))
    built = kl_basis_element(s1) * kl_basis_element(s0)
    assert type(b._coeffs) is not tuple and type(built._coeffs) is tuple
    assert hash(b) == hash(built)
    assert b == built and built == b
    assert {b: "row"}[built] == "row"
    assert {built: "sum"}[kl_basis_element(multiply(s1, s0))] == "sum"
    assert b != kl_basis_element(s1) and b != built + built
    assert bar(b) == b and b + b == 2 * built


def test_held_basis_elements_copy_no_terms(fresh_context):
    # with the rows of affine G2 to length 20 computed first, holding
    # all 505 b_x costs one small object each, 32 KiB of traced memory;
    # copying each row into (id, polynomial) pairs took 5.8 MiB
    # (CPython 3.11)
    datum = build_root_datum("G2")
    els = elements_up_to(datum, 20)
    alg = affine_hecke(datum)
    for x in els:
        alg.kl_basis_element(x)
    tracemalloc.start()
    try:
        held = [alg.kl_basis_element(x) for x in els]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(held) == 505
    assert peak < 512 * 2 ** 10


def test_row_backed_elements_read_by_many_threads(fresh_context):
    # 8 threads read the terms and coefficients of shared b_x, whose
    # views are not unpacked yet, while another thread computes longer
    # rows and widens the pool twice: a view unpacked outside the lock
    # could read a width that the pool no longer has
    datum = build_root_datum("G2")
    els = elements_up_to(datum, 10)
    longer = elements_up_to(datum, 13)[len(els):]
    ref = HeckeAlgebra(datum)
    expected = {x: ref.kl_basis_element(x).terms for x in els}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(3):
            _context.cache_clear()
            alg = HeckeAlgebra(datum)
            eng = alg._engine
            shared = [alg.kl_basis_element(x) for x in els]
            assert eng._views == {}

            def read(k):
                rng = random.Random(f"{trial} {k}")
                for i in rng.sample(range(len(els)), len(els)):
                    b, want = shared[i], expected[els[i]]
                    assert b.terms == want
                    for y, p in want[k % 3::3]:
                        assert b.coefficient(y) == p

            def write():
                for n, x in enumerate(longer):
                    if n % (len(longer) // 2) == 1:
                        with alg._lock:
                            eng._widen(1 << eng.width)
                    alg.kl_basis_element(x)

            with ThreadPoolExecutor(max_workers=9) as pool:
                futures = [pool.submit(read, k) for k in range(8)]
                futures.append(pool.submit(write))
                for f in futures:
                    f.result(timeout=120)
            assert eng.width == 64
    finally:
        sys.setswitchinterval(old)


def test_only_the_recursions_read_are_built(fresh_context):
    # b_x of affine elements alone build the recursion over the group;
    # the one over W_f comes with the first finite row
    datum = build_root_datum("B2")
    ctx = _context(datum)
    for x in elements_up_to(datum, 4):
        kl_basis_element(x)
    assert list(weylkit.hecke._recursions(datum)) == [ctx.group]
    kl_vector_finite(longest_finite_element(datum))
    assert list(weylkit.hecke._recursions(datum)) == [ctx.group, ctx.finite]
