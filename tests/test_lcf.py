"""Character-formula coefficients and decomposition matrices.

The rank-one block of weights 0, 8, 10, 18, 20, 28, 30 at p = 5 is the
central worked fixture: the first five rows are honest alternating
expansions, the last two differ from the formula's prediction, and the
wall-crossing bound marks exactly those two rows as out of range.
"""

import json
import random
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylkit.charring
import weylkit.coxeter
import weylkit.hecke
import weylkit.lattice
import weylkit.lcf
from weylkit import (
    Character,
    HeckeAlgebra,
    LaurentPolynomial,
    Weight,
    affine_hecke,
    bruhat_leq,
    build_root_datum,
    coxeter_number,
    decomposition_matrix,
    dimension,
    dominant_orbit,
    dot_p,
    embed_finite,
    enumerate_finite_weyl,
    expand_in_standard_basis,
    evaluate_at_one,
    finite_hecke,
    generators,
    identity_element,
    invert_decomposition,
    is_dominant,
    is_min_coset_rep_fW,
    jantzen_condition,
    kl_basis_element,
    kl_polynomial,
    kl_vector_finite,
    lcf_character,
    lcf_coefficients,
    length,
    longest_finite_element,
    multiply,
    reduced_word,
    sl2_lcf_valid,
    sl2_simple_character,
    sl3_multiplicity_fixtures,
    weyl_character,
)
from weylkit._exact import det_adjugate
from weylkit.charring import (
    DEFAULT_MAX_TERMS,
    ResourceLimitError,
    _sl2_simple_in_standard_basis,
    _weyl_cached,
)
from weylkit.coxeter import _LEAF, AffineWeylElement, _context
from weylkit.hecke import _row_at_one
from weylkit.lcf import (
    _decomposition_matrix,
    _max_len_for_weight_bound,
    _sl2_alcove_id,
)

from test_coxeter import bfs_lengths, greedy_word

A1 = build_root_datum("A1")

SIMPLE_ROWS = (
    (1, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0),
    (1, -1, 1, 0, 0, 0, 0),
    (-1, 1, -1, 1, 0, 0, 0),
    (1, -1, 1, -1, 1, 0, 0),
    (0, 0, 0, 0, -1, 1, 0),
    (0, 0, 0, -1, 1, -1, 1),
)

LCF_ROWS = (
    (1, 0, 0, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 0),
    (1, -1, 1, 0, 0, 0, 0),
    (-1, 1, -1, 1, 0, 0, 0),
    (1, -1, 1, -1, 1, 0, 0),
    (-1, 1, -1, 1, -1, 1, 0),
    (1, -1, 1, -1, 1, -1, 1),
)

INVERSE_ROWS = (
    (1, 0, 0, 0, 0, 0, 0),
    (1, 1, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 0),
    (0, 0, 1, 1, 0, 0, 0),
    (0, 0, 0, 1, 1, 0, 0),
    (0, 0, 0, 1, 1, 1, 0),
    (0, 0, 1, 1, 0, 1, 1),
)

CSV_GOLD = (
    ",nabla_0,nabla_8,nabla_10,nabla_18,nabla_20,nabla_28,nabla_30,jantzen\n"
    "L_0,1,,,,,,,yes\n"
    "L_8,-1,1,,,,,,yes\n"
    "L_10,1,-1,1,,,,,yes\n"
    "L_18,-1,1,-1,1,,,,yes\n"
    "L_20,1,-1,1,-1,1,,,yes\n"
    "L_28,,,,,-1,1,,no\n"
    "L_30,,,,-1,1,-1,1,no\n"
)


def test_block_weights_and_wall_bound():
    m = decomposition_matrix(A1, 5, max_weight=30)
    assert [w.coords[0] for w in m.weights()] == [0, 8, 10, 18, 20, 28, 30]
    assert m.jantzen == (True, True, True, True, True, False, False)
    assert m.kind == "simple-in-standard"


def test_simple_entries():
    m = decomposition_matrix(A1, 5, max_weight=30)
    assert m.entries == SIMPLE_ROWS
    assert m.entry(Weight((28,)), Weight((20,))) == -1
    assert m.entry(Weight((28,)), Weight((0,))) == 0


def test_lcf_entries_differ_exactly_beyond_the_bound():
    m = decomposition_matrix(A1, 5, max_weight=30, entries="lcf")
    assert m.entries == LCF_ROWS
    simple = decomposition_matrix(A1, 5, max_weight=30)
    for i, ok in enumerate(simple.jantzen):
        assert (m.entries[i] == simple.entries[i]) == ok


def test_max_len_equals_max_weight_bound():
    by_len = decomposition_matrix(A1, 5, max_len=6)
    by_weight = decomposition_matrix(A1, 5, max_weight=30)
    assert by_len.entries == by_weight.entries
    assert by_len.weights() == by_weight.weights()


def test_row_dimensions_are_consistent():
    # signed sums of standard dimensions reproduce the simple dimensions
    m = decomposition_matrix(A1, 5, max_weight=30)
    for i, (_, w) in enumerate(m.labels):
        total = sum(c * dimension(weyl_character(A1, wc))
                    for c, (_, wc) in zip(m.entries[i], m.labels))
        assert total == dimension(sl2_simple_character(w.coords[0], 5))


def test_invert_round_trip():
    m = decomposition_matrix(A1, 5, max_weight=30)
    inv = invert_decomposition(m)
    assert inv.kind == "standard-in-simple"
    assert inv.entries == INVERSE_ROWS
    n = len(m.entries)
    for i in range(n):
        for j in range(n):
            dot = sum(m.entries[i][k] * inv.entries[k][j] for k in range(n))
            assert dot == (1 if i == j else 0)
    assert invert_decomposition(inv).entries == m.entries
    # composition multiplicities are nonnegative
    assert all(e >= 0 for row in inv.entries for e in row)


def test_restrict_to_jantzen():
    m = decomposition_matrix(A1, 5, max_weight=30)
    r = m.restrict_to_jantzen()
    assert [w.coords[0] for w in r.weights()] == [0, 8, 10, 18, 20]
    assert r.entries == tuple(row[:5] for row in SIMPLE_ROWS[:5])
    assert r.jantzen == (True,) * 5


def test_csv_gold():
    m = decomposition_matrix(A1, 5, max_weight=30)
    assert m.to_csv() == CSV_GOLD


def test_json_shape():
    m = decomposition_matrix(A1, 5, max_weight=30)
    body = m.to_json_dict()
    assert body["schema"] == "weylkit/decomposition-matrix/1"
    assert body["series"] == "A1" and body["variant"] == "sc"
    assert body["p"] == 5 and body["kind"] == "simple-in-standard"
    assert body["row_labels"] == [
        "L_0", "L_8", "L_10", "L_18", "L_20", "L_28", "L_30"]
    assert body["col_labels"][0] == "nabla_0"
    assert body["weights"][1] == [8]
    assert body["entries"] == [list(r) for r in SIMPLE_ROWS]
    assert body["jantzen"] == [True] * 5 + [False] * 2


def test_render_text_marks_jantzen_rows():
    text = decomposition_matrix(A1, 5, max_weight=30).render_text()
    lines = text.splitlines()
    assert lines[0].split() == [
        "nabla_0", "nabla_8", "nabla_10", "nabla_18", "nabla_20",
        "nabla_28", "nabla_30"]
    assert lines[1].split() == ["L_0", "1", ".", ".", ".", ".", ".", ".", "*"]
    assert lines[5].split()[-1] == "*"  # L_20 is the last marked row
    assert lines[6].split() == ["L_28", ".", ".", ".", ".", "-1", "1", "."]


def test_lcf_coefficients_alternate():
    orbit = dominant_orbit(A1, 5, 6)
    x28 = orbit[5][0]
    coeffs = lcf_coefficients(x28, 5)
    as_weights = {dot_p(y, Weight((0,)), 5).coords[0]: c
                  for y, c in coeffs.items()}
    assert as_weights == {0: -1, 8: 1, 10: -1, 18: 1, 20: -1, 28: 1}
    for y, c in coeffs.items():
        assert c == (-1) ** (length(x28) + length(y))


def test_lcf_character_matches_simple_in_range_only():
    orbit = dominant_orbit(A1, 5, 6)
    for i, n in enumerate([0, 8, 10, 18, 20]):
        assert lcf_character(orbit[i][0], 5) == sl2_simple_character(n, 5)
    assert lcf_character(orbit[5][0], 5) != sl2_simple_character(28, 5)
    assert lcf_character(orbit[6][0], 5) != sl2_simple_character(30, 5)


def folded_lcf_character(x, p):
    """Oracle: the a_{y,x}-weighted standard characters summed one at a
    time with Character arithmetic."""
    zero = Weight((0,) * x.datum.rank)
    out = Character(())
    for y, a in lcf_coefficients(x, p).items():
        out = out + _weyl_cached(x.datum, dot_p(y, zero, p)) * a
    return out


def test_lcf_character_matches_character_fold():
    sl2 = [x for x, w in dominant_orbit(A1, 5, 42) if w.coords[0] <= 200]
    assert len(sl2) == 41
    a2 = [x for x, _ in dominant_orbit(build_root_datum("A2"), 5, 6)]
    for x in sl2 + a2:
        assert lcf_character(x, 5) == folded_lcf_character(x, 5)


def test_lcf_input_validation():
    orbit = dominant_orbit(A1, 5, 2)
    with pytest.raises(ValueError,
                       match="^p must be at least the Coxeter number 2$"):
        lcf_coefficients(orbit[1][0], 1)
    with pytest.raises(ValueError,
                       match="^x must be a minimal coset representative$"):
        lcf_coefficients(generators(A1)[0], 5)
    with pytest.raises(ValueError, match="Coxeter number 2"):
        lcf_coefficients(generators(A1)[0], 1)  # p is checked first


def test_decomposition_matrix_validation():
    with pytest.raises(ValueError, match="^need max_len or max_weight$"):
        decomposition_matrix(A1, 5)
    with pytest.raises(ValueError, match="^unknown entries mode 'bogus'$"):
        decomposition_matrix(A1, 5, max_len=3, entries="bogus")
    a2 = build_root_datum("A2")
    with pytest.raises(ValueError, match="^entries='simple' needs the A1 "
                       "simply connected datum and a prime p$"):
        decomposition_matrix(a2, 5, max_len=2, entries="simple")
    with pytest.raises(ValueError,
                       match="^p must be at least the Coxeter number 3$"):
        decomposition_matrix(a2, 2, max_len=2)
    with pytest.raises(ValueError, match="Coxeter number 3"):
        decomposition_matrix(a2, 2, max_weight=-3, entries="bogus")
    with pytest.raises(ValueError,
                       match="^max_weight must be at least 0, got -3$"):
        decomposition_matrix(a2, 5, max_weight=-3, entries="bogus")
    with pytest.raises(ValueError, match="^need max_len or max_weight$"):
        decomposition_matrix(a2, 5, entries="bogus")


def test_rank_two_formula_matrix():
    a2 = build_root_datum("A2")
    m = decomposition_matrix(a2, 5, max_len=2, entries="lcf")
    assert [w.coords for w in m.weights()] == [
        (0, 0), (3, 3), (2, 5), (5, 2)]
    assert m.entries == (
        (1, 0, 0, 0),
        (-1, 1, 0, 0),
        (1, -1, 1, 0),
        (1, -1, 0, 1),
    )
    inv = invert_decomposition(m)
    assert all(e >= 0 for row in inv.entries for e in row)


def filtered_lcf_coefficients(x, p):
    """Oracle: a_{y,x} over the terms y = w0 z of b_{w0 x} that pass
    both the coset test and the dominance test."""
    datum = x.datum
    w0 = embed_finite(longest_finite_element(datum))
    zero = Weight((0,) * datum.rank)
    pairs = []
    for z, poly in kl_basis_element(multiply(w0, x)).terms:
        y = multiply(w0, z)
        if is_min_coset_rep_fW(y) and is_dominant(dot_p(y, zero, p)):
            sign = (-1) ** (length(x) + length(y))
            pairs.append((y, sign * evaluate_at_one(poly)))
    pairs.sort(key=lambda ya: (length(ya[0]), greedy_word(ya[0])))
    return pairs


@pytest.mark.parametrize("series,p", [
    ("A2", 5), ("B2", 5), ("C2", 5), ("G2", 7)])
def test_lcf_coefficients_match_the_coset_filter(series, p):
    for x, _ in dominant_orbit(build_root_datum(series), p, 8):
        assert list(lcf_coefficients(x, p).items()) == \
            filtered_lcf_coefficients(x, p)


def w0_lcf_coefficients(x, p):
    """Oracle: the coefficients read off b_{w0 x} in the full affine
    Hecke algebra.  (w0 z) . 0 = w0(z . 0 + rho) - rho, so w0 z is a
    minimal representative (its dot-image dominant, 0 being p-regular)
    iff z . 0 + rho is strictly antidominant; the kept terms are sorted
    by (length, reduced word)."""
    datum = x.datum
    w0 = embed_finite(longest_finite_element(datum))
    lx = length(x)
    zero = Weight((0,) * datum.rank)
    pairs = []
    for z, poly in kl_basis_element(multiply(w0, x)).terms:
        if any(c >= -1 for c in dot_p(z, zero, p).coords):
            continue
        y = multiply(w0, z)
        sign = -1 if (lx + length(y)) % 2 else 1
        pairs.append((y, sign * evaluate_at_one(poly)))
    pairs.sort(key=lambda ya: (length(ya[0]), greedy_word(ya[0])))
    return dict(pairs)


@pytest.mark.parametrize("series,p,max_len", [
    ("A1", 5, 12), ("A2", 5, 12), ("B2", 5, 12), ("C2", 5, 12),
    ("G2", 7, 12), ("A3", 5, 8)])
def test_spherical_coefficients_match_the_w0_oracle(series, p, max_len):
    for x, _ in dominant_orbit(build_root_datum(series), p, max_len):
        got, want = lcf_coefficients(x, p), w0_lcf_coefficients(x, p)
        assert list(got.items()) == list(want.items()), reduced_word(x)


@lru_cache(maxsize=None)
def orbit_elements(series, p, max_len):
    return tuple(x for x, _ in dominant_orbit(
        build_root_datum(series), p, max_len))


def members(bits):
    """The ids in an int bitset (bit y for id y), as ``_Table.ideals``
    returns them."""
    return {y for y, b in enumerate(reversed(bin(bits)[2:])) if b == "1"}


def spherical_recursion(datum):
    """The context's Kazhdan-Lusztig recursion over the dominant alcoves."""
    return weylkit.hecke._recursions(datum)[_context(datum).alcoves]


def row_terms(eng, x):
    """The row of the id x in the recursion eng as (y, P_{y,x}) pairs
    by id, each polynomial the pool's view."""
    with eng.table.lock:
        ys, ks = eng.basis(x)
        return tuple(zip(ys, map(eng.view, ks)))


def spherical_row(x):
    """{y: m_{y,x}} as Laurent polynomials, read off the engine."""
    eng = spherical_recursion(x.datum)
    return {eng.table.elems[y]: m
            for y, m in row_terms(eng, eng.table.element_id(x))}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([("A2", 5, 14), ("B2", 5, 14), ("C2", 5, 12),
                        ("G2", 7, 12), ("A3", 5, 8)]), st.data())
def test_spherical_rows_are_kl_polynomials_of_the_bruhat_ideal(case, data):
    orbit = orbit_elements(*case)
    x = data.draw(st.sampled_from(orbit))
    w0 = embed_finite(longest_finite_element(x.datum))
    row = spherical_row(x)
    lx = length(x)
    assert row[x] == LaurentPolynomial.one()
    for y, m in row.items():
        assert m == kl_polynomial(multiply(w0, y), multiply(w0, x))
        if y != x:
            gap = lx - length(y)
            assert all(c > 0 and 1 <= e <= gap and (gap - e) % 2 == 0
                       for e, c in m.coeffs), (y, m)
    # the support is the whole lower ideal, and so is the keep rule's set
    below = {y for y in orbit if length(y) <= lx and bruhat_leq(y, x)}
    assert set(row) == below
    assert all(evaluate_at_one(row[y]) >= 1 for y in below)
    table = spherical_recursion(x.datum).table
    i = table.element_id(x)
    assert {table.elems[y] for y in members(table.ideals(i + 1)[i])} == below


@pytest.fixture
def fresh_affine_hecke():
    _context.cache_clear()
    yield
    _context.cache_clear()


def test_lcf_coefficients_shared_by_many_threads(fresh_affine_hecke):
    # more threads than cores on one fresh spherical engine, switching
    # often: a race in growing the tables would enumerate an element
    # twice or give some thread a wrong row
    datum = build_root_datum("B2")
    orbit = orbit_elements("B2", 5, 12)
    expected = {x: w0_lcf_coefficients(x, 5) for x in orbit}
    order = list(reversed(orbit)) + list(orbit)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            _context.cache_clear()
            eng = spherical_recursion(datum).table
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lcf_coefficients, x, 5) for x in order]
                results = [f.result(timeout=120) for f in futures]
            for x, got in zip(order, results):
                assert list(got.items()) == list(expected[x].items())
            assert len(set(eng.elems)) == len(eng.elems) == len(eng.index)
    finally:
        sys.setswitchinterval(old)


@pytest.fixture
def fresh_context():
    _context.cache_clear()
    yield
    _context.cache_clear()


def test_orbit_and_rows_walk_the_alcoves_once(fresh_context, monkeypatch):
    # dominant_orbit and the spherical engine number one table: once the
    # orbit is walked, a weight-bounded matrix needs no group multiply
    datum = build_root_datum("G2")
    dominant_orbit(datum, 7, 48)
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return multiply(x, y)

    for module in (weylkit.coxeter, weylkit.hecke, weylkit.lcf):
        monkeypatch.setattr(module, "multiply", counted, raising=False)
    m = decomposition_matrix(datum, 7, max_weight=20)
    assert len(m.labels) == 46
    assert calls == []
    assert spherical_recursion(datum).table is _context(datum).alcoves
    # on warm tables the rows are read by alcove id: no group element is
    # hashed, under either bound
    m_len = decomposition_matrix(datum, 7, max_len=12)
    hashes = []
    element_hash = AffineWeylElement.__hash__

    def counted_hash(x):
        hashes.append(x)
        return element_hash(x)

    monkeypatch.setattr(AffineWeylElement, "__hash__", counted_hash)
    assert decomposition_matrix(datum, 7, max_len=12) == m_len
    assert decomposition_matrix(datum, 7, max_weight=20) == m
    assert hashes == []


def coefficients_through(alg, x, p):
    """lcf_coefficients, read through the row reader of the datum of
    alg, with no call of lcf."""
    table = _context(alg.datum).alcoves
    i = table.element_id(x)
    lx = table.lens[i]
    return {table.elems[y]: -m if (lx + table.lens[y]) % 2 else m
            for y, m in zip(*_row_at_one(alg.datum, table, i))}


def check_alcove_table(table, datum, p):
    gens = generators(datum)
    assert len(set(table.elems)) == len(table.elems) == len(table.index)
    assert all(table.index[x] == i for i, x in enumerate(table.elems))
    assert table.lens == [length(x) for x in table.elems]
    words = [greedy_word(x) for x in table.elems]
    assert table.last[1:] == [word[-1] for word in words[1:]]
    assert words == sorted(words, key=lambda word: (len(word), word))
    zero = Weight((0,) * datum.rank)
    for s, col in enumerate(table.right):
        assert len(col) == len(table.elems)
        for i, j in enumerate(col):
            xs = multiply(table.elems[i], gens[s])
            if j >= 0:
                assert table.elems[j] == xs
            elif j == _LEAF:
                assert not is_dominant(dot_p(xs, zero, p))
            else:
                assert not table.complete and table.lens[i] == table.lens[-1]


@pytest.mark.parametrize("series,max_len", [
    ("A2", 10), ("B2", 10), ("G2", 10), ("A3", 8)])
def test_group_table_is_every_element_in_word_order(series, max_len,
                                                    fresh_context):
    datum = build_root_datum(series)
    table = _context(datum).group
    n = table.up_to(max_len)
    assert table.lens[-1] == max_len
    check_alcove_table(table, datum, coxeter_number(datum))
    assert dict(zip(table.elems[:n], table.lens[:n])) == bfs_lengths(
        datum, max_len)


@pytest.mark.parametrize("series,order", [("A3", 24), ("B2", 8), ("G2", 12)])
def test_finite_table_is_the_finite_weyl_group(series, order, fresh_context):
    datum = build_root_datum(series)
    table = _context(datum).finite
    longest = len(datum.positive_roots)
    table.up_to(longest + 1)
    assert table.complete and len(table.elems) == order
    check_alcove_table(table, datum, coxeter_number(datum))
    assert dict(zip(table.elems, table.lens)) == {
        x: n for x, n in bfs_lengths(datum, longest).items()
        if not any(x.translation)}


class YieldingList(list):
    """A list that lets other threads run after each append."""

    def append(self, item):
        super().append(item)
        time.sleep(1e-6)


def test_alcove_table_shared_by_orbit_walks_and_two_handles(fresh_context):
    # dominant_orbit and the spherical engines of two handles grow one
    # fresh table at once, switching often, and each length and last
    # letter is stored with a pause: a thread that saw half a level
    # would get a wrong row, a short orbit, a duplicate id or a missing
    # one
    datum, p = build_root_datum("B2"), 5
    orbit = orbit_elements("B2", p, 12)
    expected = {x: w0_lcf_coefficients(x, p) for x in orbit}
    walks = {n: dominant_orbit(datum, p, n) for n in range(13)}
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(10):
            _context.cache_clear()
            table = _context(datum).alcoves
            table.lens = YieldingList(table.lens)
            table.last = YieldingList(table.last)
            handles = [affine_hecke(datum), HeckeAlgebra(datum)]
            # (length needed, call): sorted by that length, ties in
            # random order, so that the threads meet on the level that
            # is being grown
            tasks = ([(n, dominant_orbit, datum, p, n) for n in walks]
                     + [(length(x), lcf_coefficients, x, p) for x in orbit]
                     + [(length(x), coefficients_through, handles[1], x, p)
                        for x in orbit])
            rng = random.Random(trial)
            tasks.sort(key=lambda task: (task[0], rng.random()))
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(*task[1:]) for task in tasks]
                results = [f.result(timeout=120) for f in futures]
            for task, got in zip(tasks, results):
                if task[1] is dominant_orbit:
                    assert got == walks[task[0]]
                else:
                    assert list(got.items()) == list(
                        expected[task[-2]].items())
            assert _context(datum).alcoves is table
            assert spherical_recursion(datum).table is table
            assert handles[0]._engine is handles[1]._engine
            check_alcove_table(table, datum, p)
    finally:
        sys.setswitchinterval(old)


def in_threads(targets, timeout=120):
    """Run each target in a daemon thread of its own, and fail if any of
    them is still running after the timeout: a deadlocked thread is left
    behind, and the test fails instead of hanging."""
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in threads), "deadlock"


def first_calls_across_layers():
    """(name, call) pairs that between them walk the dominant alcoves,
    build the affine and finite handles of G2 and the affine one of A1,
    build G2's Weyl constants (which walk the finite table) and fill
    the Weyl memo, KL rows of both algebras and spherical rows."""
    g2 = build_root_datum("G2")
    w0 = longest_finite_element(g2)
    orbit = orbit_elements("G2", 7, 8)
    return [
        ("orbit", lambda: dominant_orbit(g2, 7, 10)),
        ("affine", lambda: affine_hecke(g2)),
        ("finite", lambda: finite_hecke(g2)),
        ("weyl", lambda: weyl_character(g2, Weight((2, 1)))),
        ("expand", lambda: expand_in_standard_basis(
            g2, weyl_character(g2, Weight((1, 2))))),
        ("kl affine", lambda: [kl_basis_element(x).terms for x in orbit]),
        ("kl finite", lambda: kl_basis_element(w0).terms),
        ("kl w0", lambda: kl_basis_element(embed_finite(w0)).terms),
        ("lcf", lambda: [lcf_coefficients(x, 7) for x in orbit]),
        ("sl2", lambda: [sl2_lcf_valid(n, 5) for n in (0, 8, 10, 48)]),
    ]


def test_first_calls_across_layers_on_one_fresh_context(
        fresh_context, monkeypatch):
    # threads released together on fresh contexts, switching often, each
    # making the first calls of every layer in its own order: all of them
    # take the one lock of the datum, so a second lock taken in the
    # other order would deadlock here, and a handle built twice or a
    # table grown twice would show in the counts or the results
    calls = first_calls_across_layers()
    expected = {}
    in_threads([lambda: expected.update(
        (name, call()) for name, call in calls)])
    built = []
    init = HeckeAlgebra.__init__

    def counted_init(self, datum, affine=True):
        built.append((datum.series, affine))
        init(self, datum, affine)

    constants = weylkit.charring._WeylConstants

    def counted_constants(*args):
        built.append(("constants",))
        return constants(*args)

    recursion = weylkit.hecke._KLRecursion

    def counted_recursion(table):
        built.append(("rows", table.elems[0].datum.series))
        return recursion(table)

    monkeypatch.setattr(HeckeAlgebra, "__init__", counted_init)
    monkeypatch.setattr(weylkit.charring, "_WeylConstants", counted_constants)
    monkeypatch.setattr(weylkit.hecke, "_KLRecursion", counted_recursion)
    g2 = build_root_datum("G2")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(5):
            _context.cache_clear()
            built.clear()
            barrier = threading.Barrier(8)
            results = [None] * 8

            def run(k):
                order = random.Random(f"{trial} {k}").sample(calls, len(calls))
                barrier.wait(timeout=30)
                results[k] = {name: call() for name, call in order}

            in_threads([lambda k=k: run(k) for k in range(8)])
            # the rank-one check reads the rows of A1 through no handle
            # and builds the recursion of its alcoves alone; each of G2's
            # three recursions is built once
            assert sorted(built) == sorted(
                [("G2", False), ("G2", True), ("constants",)]
                + [("rows", "A1")] + [("rows", "G2")] * 3)
            for got in results:
                assert got["affine"] is affine_hecke(g2)
                assert got["finite"] is finite_hecke(g2)
                assert got["affine"]._lock is got["finite"]._lock is (
                    _context(g2).lock)
                for name, value in got.items():
                    if name not in ("affine", "finite"):
                        assert value == expected[name], name
            table = _context(g2).alcoves
            assert len(set(table.elems)) == len(table.elems) == len(
                table.index)
    finally:
        sys.setswitchinterval(old)


def test_decomposition_matrix_leaves_the_full_affine_engine_empty(
        fresh_context):
    datum = build_root_datum("A2")
    decomposition_matrix(datum, 5, max_len=12)
    decomposition_matrix(datum, 5, max_weight=12)
    alg = affine_hecke(datum)
    assert alg._engine.table.elems == [identity_element(datum)]
    assert list(alg._engine.kl) == [0]
    assert len(spherical_recursion(datum).kl) > 1


def counted_rows(monkeypatch):
    """The ids x whose rows lcf reads through the row reader, from now
    on, each checked to be read over the table of dominant alcoves."""
    calls = []
    row_at_one = weylkit.lcf._row_at_one

    def counted(datum, table, x):
        assert table is _context(datum).alcoves
        calls.append(x)
        return row_at_one(datum, table, x)

    monkeypatch.setattr(weylkit.lcf, "_row_at_one", counted)
    return calls


def test_weight_bound_computes_rows_for_kept_labels_only(monkeypatch):
    calls = counted_rows(monkeypatch)
    g2 = build_root_datum("G2")
    m = decomposition_matrix(g2, 7, max_weight=20)
    assert len(m.labels) == 46
    index = _context(g2).alcoves.index
    assert calls == [index[x] for x, _ in m.labels]


def test_weight_bound_keeps_the_ideals_small():
    # one int bitset per alcove; a set per alcove held 348 424 ids here
    g2 = build_root_datum("G2")
    _context.cache_clear()
    orbit = dominant_orbit(g2, 7, _max_len_for_weight_bound(g2, 7, 40))
    tracemalloc.start()
    try:
        m = decomposition_matrix(g2, 7, max_weight=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(orbit), len(m.labels)) == (874, 164)
    assert peak < 5 * 2 ** 20


@pytest.mark.parametrize("max_weight", [3, 5, 8, 12, 20])
@pytest.mark.parametrize("series,p", [
    ("A2", 5), ("B2", 5), ("C2", 5), ("G2", 7)])
def test_weight_bound_keeps_a_closed_unitriangular_matrix(
        series, p, max_weight):
    datum = build_root_datum(series)
    m = decomposition_matrix(datum, p, max_weight=max_weight)
    n = len(m.entries)
    assert n == len(m.labels) and all(len(row) == n for row in m.entries)
    for i in range(n):
        assert m.entries[i][i] == 1
        assert not any(m.entries[i][i + 1:])
    kept = {x for x, _ in m.labels}
    assert all(max(w.coords) <= max_weight for _, w in m.labels)
    # a box label is dropped exactly when its row reaches a dropped one
    depth = _max_len_for_weight_bound(datum, p, max_weight)
    for x, w in dominant_orbit(datum, p, depth):
        if max(w.coords) <= max_weight:
            assert (x in kept) == (lcf_coefficients(x, p).keys() <= kept)


@pytest.mark.parametrize("series,p,max_len", [
    ("A2", 5, 3), ("B2", 5, 3), ("G2", 7, 2), ("C2", 5, 3)])
def test_rank_two_matrices_unitriangular(series, p, max_len):
    datum = build_root_datum(series)
    m = decomposition_matrix(datum, p, max_len=max_len, entries="lcf")
    n = len(m.entries)
    for i in range(n):
        assert m.entries[i][i] == 1
        for j in range(i + 1, n):
            assert m.entries[i][j] == 0


@pytest.mark.parametrize("series,p,bound", [
    ("A1", 5, {"max_weight": 60}), ("A2", 5, {"max_len": 8}),
    ("B2", 5, {"max_weight": 12}), ("C2", 5, {"max_len": 7}),
    ("G2", 7, {"max_weight": 20}), ("A3", 5, {"max_len": 6})])
def test_inverse_is_the_bareiss_adjugate(series, p, bound):
    m = decomposition_matrix(build_root_datum(series), p, **bound)
    inv = invert_decomposition(m).entries
    det, adj = det_adjugate(m.entries)
    assert det == 1 and inv == tuple(map(tuple, adj))
    n = len(inv)
    assert n > 10
    assert all(sum(m.entries[i][k] * inv[k][j] for k in range(n))
               == (i == j) for i in range(n) for j in range(n))


def test_sl2_validity_spot_checks():
    # two base-p digits: the formula is exact
    assert sl2_lcf_valid(8, 5)
    assert sl2_lcf_valid(0, 7)
    assert sl2_lcf_valid(20, 5)
    # three digits, formula wrong
    assert not sl2_lcf_valid(28, 5)
    assert not sl2_lcf_valid(30, 5)
    # three digits where the formula happens to remain exact
    assert sl2_lcf_valid(6, 2)
    assert sl2_lcf_valid(48, 5)
    with pytest.raises(ValueError):
        sl2_lcf_valid(1, 5)  # not in the orbit of zero
    with pytest.raises(ValueError):
        sl2_lcf_valid(8, 4)  # p must be prime


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_sl2_weights_are_the_weight_of_each_id(p):
    # the two progressions of slices against the definition, id by id
    for x in range(301):
        assert weylkit.lcf._sl2_weights(x, p) == [
            weylkit.lcf._sl2_weight(y, p) for y in range(x + 1)]


def sl2_orbit(p, count):
    """The first ``count`` dominant alcoves of SL2 at p, as (x, n)."""
    return [(x, w.coords[0]) for x, w in dominant_orbit(A1, p, count - 1)]


def weight_space_lcf_valid(x, n, p):
    """Oracle: the formula's character against the digit product, both
    expanded into weight multiplicities."""
    return lcf_character(x, p) == sl2_simple_character(n, p)


@pytest.mark.parametrize("p,count", [
    (2, 5), (3, 9), (5, 25), (7, 49), (11, 40)])
def test_sl2_verdict_matches_the_weight_space_oracle(p, count):
    # every orbit weight <= p^3 for p <= 7, the first 40 at p = 11
    orbit = sl2_orbit(p, count + 1)
    assert orbit[count - 1][1] <= p ** 3 < orbit[count][1] or p == 11
    for x, n in orbit[:count]:
        assert sl2_lcf_valid(n, p) == weight_space_lcf_valid(x, n, p), n


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_brauer_expansion_matches_leading_term_stripping(p):
    # weights outside the orbit of 0 too: only there can a lost
    # chi(-1) = 0 leave a term behind
    orbit = [n for _, n in sl2_orbit(p, 60)]
    for n in sorted(set(orbit) | set(range(60))):
        assert _sl2_simple_in_standard_basis(n, p) == {
            w.coords[0]: c for w, c in expand_in_standard_basis(
                A1, sl2_simple_character(n, p)).items()}, n


def test_brauer_expansion_keeps_the_digit_product_cap():
    # digits (999, 999) at p = 1009: L(n) has exactly 1000^2 weights
    assert 1000 * 1000 == DEFAULT_MAX_TERMS
    n = 999 + 999 * 1009
    assert _sl2_simple_in_standard_basis(n, 1009)[n] == 1
    with pytest.raises(ResourceLimitError):
        _sl2_simple_in_standard_basis(n + 1, 1009)  # digits (1000, 999)
    # one digit p - 2 of the Mersenne prime 2^61 - 1: refused at once
    mersenne = 2 ** 61 - 1
    with pytest.raises(ResourceLimitError):
        sl2_lcf_valid(2 * mersenne - 2, mersenne)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_chain_element_is_the_dominant_orbit_element(p):
    orbit = sl2_orbit(p, 41)
    elems = _context(A1).alcoves.elems
    for x, n in orbit:
        assert elems[_sl2_alcove_id(n, p)] == x
    weights = {n for _, n in orbit}
    for n in range(max(weights)):
        if n not in weights:
            with pytest.raises(ValueError, match="not in the dominant orbit"):
                _sl2_alcove_id(n, p)


def element_keyed_lcf_valid(x, n, p):
    """Oracle: the comparison by group element, with y . 0 computed by
    the dot action on each y of the row of x."""
    zero = Weight((0,))
    return ({dot_p(y, zero, p).coords[0]: a
             for y, a in lcf_coefficients(x, p).items()}
            == _sl2_simple_in_standard_basis(n, p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_sl2_verdict_matches_the_element_keyed_oracle(p):
    # every orbit weight n <= p^3
    orbit = [(x, n) for x, n in sl2_orbit(p, p * p + 2) if n <= p ** 3]
    assert orbit[-1][1] + 2 * p > p ** 3
    verdicts = [sl2_lcf_valid(n, p) for _, n in orbit]
    assert verdicts == [element_keyed_lcf_valid(x, n, p) for x, n in orbit]
    assert True in verdicts and (p == 2 or False in verdicts)


def test_sl2_check_builds_no_element_on_a_grown_table(fresh_context,
                                                      monkeypatch, capsys):
    # once the table of dominant alcoves is grown, the rank-one check
    # reads its rows by id and y . 0 off the id: no group element, dot
    # action or weight, in the library call or in the CLI
    from weylkit.cli import main
    p, upto = 5, 5 ** 3
    _context(A1).alcoves.up_to(upto // p + 2)
    built = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            built.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(AffineWeylElement, "__init__", counted(
        "element", AffineWeylElement.__init__))
    monkeypatch.setattr(Weight, "__init__", counted("weight",
                                                    Weight.__init__))
    bulk = counted("weight", weylkit.lattice._weights)
    for module in (weylkit.lattice, weylkit.charring, weylkit.lcf):
        monkeypatch.setattr(module, "_weights", bulk, raising=False)
    for module in (weylkit.coxeter, weylkit.lcf):
        monkeypatch.setattr(module, "dot_p", counted("dot_p", dot_p),
                            raising=False)
    verdicts = [sl2_lcf_valid(n, p) for n in range(upto + 1)
                if n % (2 * p) in (0, 2 * p - 2)]
    assert len(verdicts) == 25 and verdicts.count(False) > 0
    assert main(["sl2-check", "--p", str(p), "--upto", str(upto),
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out.count("\n") == 26
    assert built == []
    # the counters see what they count
    elems = _context(A1).alcoves.elems
    weylkit.lcf.dot_p(multiply(elems[1], elems[2]), Weight((0,)), p)
    assert set(built) == {"element", "dot_p", "weight"}
    two = Weight((2,))
    built.clear()
    weylkit.charring.weyl_character(A1, two)  # three weights, in bulk
    assert built == ["weight"]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_simple_entries_match_leading_term_stripping(p):
    full = decomposition_matrix(A1, p, max_len=20, entries="simple")
    index = {w: i for i, w in enumerate(full.weights())}
    size = len(index)
    stripped = []
    for w in full.weights():
        row = [0] * size
        for mu, c in expand_in_standard_basis(
                A1, sl2_simple_character(w.coords[0], p)).items():
            row[index[mu]] = c
        stripped.append(tuple(row))
    assert full.entries == tuple(stripped)
    for max_len in range(20):
        m = decomposition_matrix(A1, p, max_len=max_len, entries="simple")
        k = max_len + 1
        assert m.entries == tuple(row[:k] for row in stripped[:k])


def test_kl_vector_finite():
    a2 = build_root_datum("A2")
    w0 = longest_finite_element(a2)
    vec = kl_vector_finite(w0)
    assert len(vec) == 6
    for y, c in vec.items():
        assert c == (-1) ** (3 + length(y))
    e = [y for y in vec if length(y) == 0][0]
    assert vec[e] == -1


def test_kl_vector_finite_rejects_an_affine_element(fresh_context):
    # checked before the finite table is walked
    datum = build_root_datum("A2")
    s0 = generators(datum)[-1]
    with pytest.raises(ValueError, match="element of W_f"):
        kl_vector_finite(s0)
    assert len(_context(datum).finite.elems) == 1


def kl_vector_through_the_basis(x):
    """The oracle of kl_vector_finite, through the public Hecke layer:
    the terms of b_x, each polynomial evaluated at one and signed by the
    lengths of the group elements."""
    lx = length(x)
    out = {}
    for y, poly in kl_basis_element(x).terms:
        sign = -1 if (lx - length(y)) % 2 else 1
        out[y.finite] = sign * evaluate_at_one(poly)
    return out


@pytest.mark.parametrize("series", ["A1", "A2", "A3", "B2", "C2", "G2"])
def test_kl_vector_finite_reads_the_row_at_one(series, fresh_context,
                                               monkeypatch):
    # on a fresh context, every kl_vector_finite of W_f builds no
    # polynomial, and then equals the path through b_x, order included;
    # an element of W_f may also come as an affine one
    datum = build_root_datum(series)
    finite = [w for w, _ in enumerate_finite_weyl(datum)]
    finite += [embed_finite(w) for w in finite]
    made = []
    trusted = LaurentPolynomial._trusted

    def counted(coeffs):
        made.append(coeffs)
        return trusted(coeffs)

    monkeypatch.setattr(LaurentPolynomial, "_trusted", staticmethod(counted))
    got = [kl_vector_finite(w) for w in finite]
    assert made == []
    monkeypatch.undo()
    for w, vec in zip(finite, got):
        assert list(vec.items()) == list(kl_vector_through_the_basis(w).items())


def test_sl3_fixture_tables():
    first, second = sl3_multiplicity_fixtures(5)
    assert {w.coords: c for w, c in first.items()} == {
        (0, 0): -1, (3, 3): 1}
    table = {w.coords: c for w, c in second.items()}
    assert table == {
        (0, 0): 2, (2, 5): 1, (5, 2): 1, (5, 5): 1,
        (3, 3): -1, (3, 6): -1, (6, 3): -1}
    # seven alcoves, a single entry of 2, all others unit
    assert sorted(table.values()) == [-1, -1, -1, 1, 1, 1, 2]
    for p in (3, 7):
        a, b = sl3_multiplicity_fixtures(p)
        assert sorted(b.values()) == [-1, -1, -1, 1, 1, 1, 2]
        assert sorted(a.values()) == [-1, 1]
    with pytest.raises(ValueError):
        sl3_multiplicity_fixtures(2)


# ------------------------------------------------------------ sparse rows
#
# The matrix holds its rows sparse; the dense oracles below read the
# coefficients through the element-keyed views (lcf_coefficients, or
# the Brauer expansion keyed by weight) and render them as the dense
# implementations did.

GATE_GRID = [(series, variant, p)
             for series, primes in [("A1", (5, 7)), ("A2", (5, 7)),
                                    ("A3", (5,)), ("B2", (5,)), ("C2", (5,)),
                                    ("G2", (7, 11))]
             for variant in ("sc", "adjoint") for p in primes]


def gate_bounds(series):
    """The length and weight bounds of the gate grid."""
    if series == "A3":
        return ([{"max_len": n} for n in (0, 4, 8)]
                + [{"max_weight": n} for n in (0, 5, 10)])
    return ([{"max_len": n} for n in (0, 3, 8, 12)]
            + [{"max_weight": n} for n in (0, 5, 12, 20)])


def dense_oracle(m, entries):
    """The rows of a simple-in-standard matrix, one dense tuple each."""
    if entries == "simple":
        cols = [w.coords[0] for w in m.weights()]
        rows = [_sl2_simple_in_standard_basis(n, m.p) for n in cols]
    else:
        cols = [x for x, _ in m.labels]
        rows = [lcf_coefficients(x, m.p) for x in cols]
    return tuple(tuple(row.get(c, 0) for c in cols) for row in rows)


def label(prefix, w):
    return prefix + "_".join(map(str, w.coords))


def dense_csv(m, dense):
    rp, cp = (("L_", "nabla_") if m.kind == "simple-in-standard"
              else ("nabla_", "L_"))
    lines = [",".join([""] + [label(cp, w) for w in m.weights()]
                      + ["jantzen"])]
    for w, row, ok in zip(m.weights(), dense, m.jantzen):
        lines.append(",".join([label(rp, w)]
                              + [str(e) if e else "" for e in row]
                              + ["yes" if ok else "no"]))
    return "\n".join(lines) + "\n"


def dense_text(m, dense):
    rp, cp = (("L_", "nabla_") if m.kind == "simple-in-standard"
              else ("nabla_", "L_"))
    rows = [[""] + [label(cp, w) for w in m.weights()] + [""]]
    for w, row, ok in zip(m.weights(), dense, m.jantzen):
        rows.append([label(rp, w)] + [str(e) if e else "." for e in row]
                    + ["*" if ok else ""])
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join("  ".join(cell.rjust(widths[c])
                               for c, cell in enumerate(row)).rstrip()
                     for row in rows) + "\n"


SPARSE_CASES = [
    ("A1", 5, {"max_weight": 30}, "simple"),
    ("A1", 7, {"max_len": 12}, "lcf"),
    ("A2", 5, {"max_len": 7}, "lcf"),
    ("B2", 5, {"max_weight": 12}, "lcf"),
    ("C2", 7, {"max_len": 6}, "lcf"),
    ("G2", 7, {"max_weight": 20}, "lcf"),
    ("A3", 5, {"max_len": 6}, "lcf"),
]


@pytest.mark.parametrize("series,p,bound,entries", SPARSE_CASES)
def test_sparse_rows_read_like_the_dense_oracle(series, p, bound, entries):
    m = decomposition_matrix(build_root_datum(series), p, entries=entries,
                             **bound)
    dense = dense_oracle(m, entries)
    assert "entries" not in vars(m)  # built on first access ...
    assert m.entries == dense
    assert m.entries is m.entries  # ... and held by the matrix
    for cols, vals in m.rows:
        assert list(cols) == sorted(set(cols)) and all(vals)
    ws = m.weights()
    assert all(m.entry(ws[i], ws[j]) == dense[i][j]
               for i in range(len(ws)) for j in range(len(ws)))
    inv = invert_decomposition(m)
    keep = [i for i, ok in enumerate(m.jantzen) if ok]
    assert 0 < len(keep) <= len(ws)
    for mat, rows in [
            (m, dense), (inv, inv.entries),
            (m.restrict_to_jantzen(),
             tuple(tuple(dense[i][j] for j in keep) for i in keep))]:
        assert mat.entries == rows
        assert mat.to_csv() == dense_csv(mat, rows)
        assert mat.render_text() == dense_text(mat, rows)
        body = mat.to_json_dict()
        assert body["entries"] == [list(row) for row in rows]
        assert "".join(mat.json_chunks()) == (
            json.dumps(body, indent=2) + "\n")


@pytest.mark.parametrize("series,variant,p", GATE_GRID)
def test_jantzen_flags_are_the_jantzen_condition(series, variant, p):
    datum = build_root_datum(series, variant)
    for bound in gate_bounds(series):
        m = decomposition_matrix(datum, p, **bound)
        assert m.jantzen == tuple(jantzen_condition(x, p)
                                  for x, _ in m.labels), bound


@pytest.mark.parametrize("series,variant,p", GATE_GRID)
def test_inverse_is_bareiss_on_the_gate_grid(series, variant, p):
    datum = build_root_datum(series, variant)
    for bound in gate_bounds(series):
        m = decomposition_matrix(datum, p, **bound)
        inv = invert_decomposition(m).entries
        det, adj = det_adjugate(m.entries)
        assert det == 1 and inv == tuple(map(tuple, adj)), bound
        n = len(inv)
        assert all(sum(m.entries[i][k] * inv[k][j] for k in range(n))
                   == (i == j) for i in range(n) for j in range(n)), bound


@pytest.mark.parametrize("series,variant,p", GATE_GRID)
def test_jantzen_labels_are_closed_downward(series, variant, p):
    # no Jantzen row has an entry in a non-Jantzen column
    datum = build_root_datum(series, variant)
    for bound in gate_bounds(series):
        m = decomposition_matrix(datum, p, **bound)
        for (cols, _), jantzen in zip(m.rows, m.jantzen):
            if jantzen:
                assert all(m.jantzen[c] for c in cols), bound


@pytest.mark.parametrize("series,variant,p", GATE_GRID)
def test_jantzen_only_is_the_restriction(series, variant, p):
    datum = build_root_datum(series, variant)
    for bound in gate_bounds(series):
        full = decomposition_matrix(datum, p, **bound)
        got = _decomposition_matrix(datum, p, bound.get("max_len"),
                                    bound.get("max_weight"), "auto",
                                    jantzen_only=True)
        assert got == full.restrict_to_jantzen(), bound


@pytest.mark.parametrize("bound", [{"max_len": 24}, {"max_weight": 30}])
def test_jantzen_only_computes_the_jantzen_rows_only(bound, monkeypatch):
    calls = counted_rows(monkeypatch)
    g2 = build_root_datum("G2")
    m = _decomposition_matrix(g2, 7, bound.get("max_len"),
                              bound.get("max_weight"), "lcf",
                              jantzen_only=True)
    index = _context(g2).alcoves.index
    assert 0 < len(m.labels) == len(calls)
    assert calls == [index[x] for x, _ in m.labels]
    assert all(jantzen_condition(x, 7) for x, _ in m.labels)


def test_jantzen_only_raises_on_a_column_it_drops(monkeypatch):
    # no data checked has a Jantzen row with an entry in another column
    # (the labels are closed downward), so give every row one, at the
    # longest label, which is no Jantzen label here: restricting the
    # whole matrix drops it, and computing only the Jantzen rows, which
    # relies on the closure, must raise rather than drop it unseen
    g2 = build_root_datum("G2")
    lcf_row = weylkit.lcf._lcf_row
    top = len(dominant_orbit(g2, 7, 16)) - 1

    def padded(datum, table, x, keys):
        row = lcf_row(datum, table, x, keys)
        row[keys[top]] = 7
        return row

    want = _decomposition_matrix(g2, 7, 16, None, "lcf", jantzen_only=True)
    assert len(want.labels) > 1
    monkeypatch.setattr(weylkit.lcf, "_lcf_row", padded)
    full = decomposition_matrix(g2, 7, max_len=16)
    assert not full.jantzen[full.weights().index(dominant_orbit(
        g2, 7, 16)[top][1])]
    assert full.restrict_to_jantzen() == want
    with pytest.raises(RuntimeError, match="orbit truncation lost a term"):
        _decomposition_matrix(g2, 7, 16, None, "lcf", jantzen_only=True)
