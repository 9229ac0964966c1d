"""Character-formula coefficients and decomposition matrices.

The rank-one block of weights 0, 8, 10, 18, 20, 28, 30 at p = 5 is the
central worked fixture: the first five rows are honest alternating
expansions, the last two differ from the formula's prediction, and the
wall-crossing bound marks exactly those two rows as out of range.
"""

import pytest

from weylkit import (
    Character,
    Weight,
    build_root_datum,
    decomposition_matrix,
    dimension,
    dominant_orbit,
    dot_p,
    embed_finite,
    evaluate_at_one,
    generators,
    invert_decomposition,
    is_dominant,
    is_min_coset_rep_fW,
    kl_basis_element,
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
from weylkit.charring import _weyl_cached
from weylkit.lcf import _max_len_for_weight_bound

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
    with pytest.raises(ValueError):
        lcf_coefficients(orbit[1][0], 1)  # below the Coxeter number
    with pytest.raises(ValueError):
        lcf_coefficients(generators(A1)[0], 5)  # not a minimal coset rep


def test_decomposition_matrix_validation():
    with pytest.raises(ValueError):
        decomposition_matrix(A1, 5)  # need a bound
    with pytest.raises(ValueError):
        decomposition_matrix(A1, 5, max_len=3, entries="bogus")
    a2 = build_root_datum("A2")
    with pytest.raises(ValueError):
        decomposition_matrix(a2, 5, max_len=2, entries="simple")
    with pytest.raises(ValueError):
        decomposition_matrix(a2, 2, max_len=2)  # p below Coxeter number
    with pytest.raises(ValueError, match="max_weight must be nonnegative"):
        decomposition_matrix(a2, 5, max_weight=-3)


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
    pairs.sort(key=lambda ya: (length(ya[0]), reduced_word(ya[0])))
    return pairs


@pytest.mark.parametrize("series,p", [
    ("A2", 5), ("B2", 5), ("C2", 5), ("G2", 7)])
def test_lcf_coefficients_match_the_coset_filter(series, p):
    for x, _ in dominant_orbit(build_root_datum(series), p, 8):
        assert list(lcf_coefficients(x, p).items()) == \
            filtered_lcf_coefficients(x, p)


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


def test_kl_vector_finite():
    a2 = build_root_datum("A2")
    w0 = longest_finite_element(a2)
    vec = kl_vector_finite(w0)
    assert len(vec) == 6
    for y, c in vec.items():
        assert c == (-1) ** (3 + length(y))
    e = [y for y in vec if length(y) == 0][0]
    assert vec[e] == -1


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
