"""Finite and affine Weyl group elements, lengths, Bruhat order, orbits.

Oracles used here and frozen below:
  * word lengths from an independent breadth-first search over products
    of generators (no use of the package's length formula);
  * Bruhat order from the subword characterization, scanned over all
    subwords of a fixed reduced word;
  * restricted-weight counts from the lattice-index identity
    |W_affine mod translations| / index = |W| / kappa per p-box.
"""

import dataclasses
import itertools
import random

import pytest

from weylkit import (
    FiniteWeylElement,
    bruhat_leq,
    build_root_datum,
    count_p_restricted_in_orbit,
    coxeter_number,
    dominant_orbit,
    dot_p,
    element_to_json,
    embed_finite,
    enumerate_finite_weyl,
    generators,
    identity_element,
    inverse,
    is_min_coset_rep_fW,
    is_p_regular,
    jantzen_condition,
    length,
    longest_finite_element,
    multiply,
    reduced_word,
    rho,
    same_block,
    Weight,
)
from weylkit.coxeter import _context, _elements_up_to_length


def bfs_lengths(datum, max_len):
    """Independent length oracle: graph distance from the identity."""
    gens = generators(datum)
    frontier = {identity_element(datum)}
    seen = {identity_element(datum): 0}
    for dist in range(1, max_len + 1):
        nxt = set()
        for el in frontier:
            for g in gens:
                prod = multiply(el, g)
                if prod not in seen:
                    seen[prod] = dist
                    nxt.add(prod)
        frontier = nxt
    return seen


@pytest.mark.parametrize("series", ["A1", "A2", "B2", "G2"])
def test_affine_length_matches_graph_distance(series):
    datum = build_root_datum(series)
    cap = 6 if series == "A1" else 4
    for el, dist in bfs_lengths(datum, cap).items():
        assert length(el) == dist
        word = reduced_word(el)
        assert len(word) == dist
        rebuilt = identity_element(datum)
        for idx in word:
            rebuilt = multiply(rebuilt, generators(datum)[idx])
        assert rebuilt == el


def test_generators_are_involutions():
    for series in ("A2", "B2", "G2"):
        datum = build_root_datum(series)
        for g in generators(datum):
            assert multiply(g, g) == identity_element(datum)
            assert length(g) == 1
            assert inverse(g) == g


def test_braid_relations_a2():
    # every pair of affine A2 generators satisfies the order-3 braid move
    datum = build_root_datum("A2")
    g0, g1, g2 = generators(datum)

    def prod(*els):
        out = identity_element(datum)
        for e in els:
            out = multiply(out, e)
        return out

    assert prod(g1, g2, g1) == prod(g2, g1, g2)
    assert prod(g0, g1, g0) == prod(g1, g0, g1)
    assert prod(g0, g2, g0) == prod(g2, g0, g2)


def test_finite_group_orders():
    expected = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "C2": 8, "G2": 12}
    for series, order in expected.items():
        datum = build_root_datum(series)
        pairs = enumerate_finite_weyl(datum)
        assert len(pairs) == order
        assert len({w for w, _ in pairs}) == order
        for w, ell in pairs:
            assert length(w) == ell
            assert length(embed_finite(w)) == ell
        w0 = longest_finite_element(datum)
        n_pos = len(datum.positive_roots)
        assert length(w0) == n_pos
        assert max(ell for _, ell in pairs) == n_pos


def test_longest_element_negates_dominant_weights_when_minus_one():
    # -1 lies in the Weyl groups of A1, B2, C2, G2 (not A2)
    for series in ("A1", "B2", "C2", "G2"):
        datum = build_root_datum(series)
        w0 = longest_finite_element(datum)
        lam = Weight((2,) * datum.rank)
        assert w0.apply(lam).coords == tuple(-c for c in lam.coords)


def test_mixed_datum_multiplication_rejected():
    a = generators(build_root_datum("A2"))[0]
    b = generators(build_root_datum("B2"))[0]
    with pytest.raises(ValueError):
        multiply(a, b)


def subword_bruhat(word, datum):
    """Subword oracle: y <= x iff some subword of a reduced word for x
    multiplies to y."""
    gens = generators(datum)
    reachable = set()
    for r in range(len(word) + 1):
        for combo in itertools.combinations(range(len(word)), r):
            el = identity_element(datum)
            for pos in combo:
                el = multiply(el, gens[word[pos]])
            reachable.add(el)
    return reachable


@pytest.mark.parametrize("series,cap", [("A1", 6), ("A2", 4)])
def test_bruhat_order_matches_subword_oracle(series, cap):
    datum = build_root_datum(series)
    elements = sorted(bfs_lengths(datum, cap), key=length)
    for x in elements:
        below = subword_bruhat(reduced_word(x), datum)
        for y in elements:
            if length(y) <= length(x):
                assert bruhat_leq(y, x) == (y in below)
            else:
                assert not bruhat_leq(y, x)


def test_dot_action_fixture():
    datum = build_root_datum("A1")
    sf, sa = generators(datum)  # index 0 finite, index rank affine
    zero = Weight((0,))
    assert dot_p(sf, zero, 5).coords == (-2,)
    assert dot_p(sa, zero, 5).coords == (8,)
    assert dot_p(multiply(sa, sf), zero, 5).coords == (10,)
    assert dot_p(multiply(sf, sa), zero, 5).coords == (-10,)


def test_dot_action_is_a_group_action():
    datum = build_root_datum("B2")
    els = sorted(bfs_lengths(datum, 3), key=length)
    lam = Weight((1, 2))
    for x in els[:8]:
        for y in els[:8]:
            assert dot_p(multiply(x, y), lam, 7) == dot_p(
                x, dot_p(y, lam, 7), 7)


def test_dominant_orbit_a1_p5():
    datum = build_root_datum("A1")
    orbit = dominant_orbit(datum, 5, 6)
    assert [w.coords[0] for _, w in orbit] == [0, 8, 10, 18, 20, 28, 30]
    for x, w in orbit:
        assert is_min_coset_rep_fW(x)
        assert dot_p(x, Weight((0,)), 5) == w
    # lengths are 0..6 in order
    assert [length(x) for x, _ in orbit] == list(range(7))


def test_dominant_orbit_a2_p5_properties():
    datum = build_root_datum("A2")
    orbit = dominant_orbit(datum, 5, 4)
    weights = [w for _, w in orbit]
    assert weights[0].coords == (0, 0)
    assert weights[1].coords == (3, 3)
    # all images dominant and pairwise distinct
    assert all(min(w.coords) >= 0 for w in weights)
    assert len({w.coords for w in weights}) == len(weights)
    assert all(is_min_coset_rep_fW(x) for x, _ in orbit)
    # lengths weakly increase along the listing
    lens = [length(x) for x, _ in orbit]
    assert lens == sorted(lens) and lens[-1] == 4


def test_dominant_orbit_requires_p_at_least_h():
    datum = build_root_datum("A2")
    with pytest.raises(ValueError):
        dominant_orbit(datum, 2, 4)
    assert dominant_orbit(datum, 3, 0)  # p = h is allowed


def test_same_block_a1_p5():
    datum = build_root_datum("A1")
    assert same_block(datum, Weight((0,)), Weight((8,)), 5)
    assert not same_block(datum, Weight((0,)), Weight((2,)), 5)
    assert same_block(datum, Weight((3,)), Weight((5,)), 5)


def test_is_p_regular_a1_p5():
    datum = build_root_datum("A1")
    assert not is_p_regular(datum, Weight((4,)), 5)
    assert is_p_regular(datum, Weight((0,)), 5)
    assert not is_p_regular(datum, Weight((9,)), 5)


def test_jantzen_condition_a1_p5():
    datum = build_root_datum("A1")
    orbit = dominant_orbit(datum, 5, 6)
    flags = [jantzen_condition(x, 5) for x, _ in orbit]
    assert flags == [True, True, True, True, True, False, False]
    with pytest.raises(ValueError):
        jantzen_condition(generators(datum)[0], 5)  # dot-image -2 not dominant


def test_restricted_counts_match_index():
    # number of restricted regular dot-orbit points = |W_finite| / kappa
    expected = {"A1": 1, "A2": 2, "B2": 4, "G2": 12}
    for series, count in expected.items():
        datum = build_root_datum(series)
        h = {"A1": 2, "A2": 3, "B2": 4, "G2": 6}[series]
        for p in (h, h + 2):
            assert count_p_restricted_in_orbit(datum, p) == count


def test_element_json():
    datum = build_root_datum("A1")
    sf, sa = generators(datum)
    assert element_to_json(multiply(sa, sf)) == {
        "word": [1, 0], "finite_matrix": [[1]], "translation": [1]}
    assert element_to_json(multiply(sf, sa)) == {
        "word": [0, 1], "finite_matrix": [[1]], "translation": [-1]}


def test_inverse_and_length_symmetry():
    datum = build_root_datum("A2")
    for el in bfs_lengths(datum, 4):
        inv = inverse(el)
        assert multiply(el, inv) == identity_element(datum)
        assert length(inv) == length(el)


# ------------------------------------------------- one-matrix group element

def random_element(datum, rng, max_word):
    gens = generators(datum)
    x = identity_element(datum)
    for _ in range(rng.randrange(max_word + 1)):
        x = multiply(x, rng.choice(gens))
    return x


def test_finite_element_stores_one_matrix():
    assert [f.name for f in dataclasses.fields(FiniteWeylElement)] == [
        "datum", "matrix"]


@pytest.mark.parametrize("series", ["A1", "A2", "A3", "B2", "C2", "G2"])
def test_group_law_on_random_words(series):
    rng = random.Random(series)
    for variant in ("sc", "adjoint"):
        datum = build_root_datum(series, variant)
        e = identity_element(datum)
        for _ in range(40):
            a, b, c = (random_element(datum, rng, 12) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
            assert multiply(inverse(a), a) == e
            assert multiply(a, inverse(a)) == e
            word = reduced_word(a)
            assert length(a) == len(word)
            rebuilt = e
            for i in word:
                rebuilt = multiply(rebuilt, generators(datum)[i])
            assert rebuilt == a


def test_element_json_unchanged():
    # values recorded from the four-matrix element it replaced
    cases = [
        ("A2", "sc", [0, 1, 2], [[1, 1], [0, -1]], [-1, 0]),
        ("A2", "sc", [2, 1, 0, 2], [[-1, -1], [1, 0]], [2, 1]),
        ("A2", "sc", [2, 0, 1, 2, 0], [[1, 1], [0, -1]], [1, 2]),
        ("B2", "sc", [0, 1, 2], [[1, 0], [-2, -1]], [0, 1]),
        ("B2", "sc", [1, 2, 0, 2], [[-1, -1], [2, 1]], [1, 0]),
        ("G2", "sc", [0, 1, 2], [[1, 0], [-1, -1]], [1, 1]),
        ("G2", "sc", [1, 0, 2, 0], [[-1, -3], [1, 2]], [1, 0]),
        ("G2", "sc", [0, 2, 0, 1, 0], [[1, 3], [0, -1]], [1, 1]),
        ("B2", "adjoint", [2, 0, 1, 2], [[1, 1], [-2, -1]], [1, 2]),
    ]
    for series, variant, word, matrix, translation in cases:
        datum = build_root_datum(series, variant)
        x = identity_element(datum)
        for i in word:
            x = multiply(x, generators(datum)[i])
        assert element_to_json(x) == {
            "word": word, "finite_matrix": matrix,
            "translation": translation}


def greedy_word(x):
    """Oracle from lengths alone: the first letter is the smallest i
    with l(s_i x) < l(x), then recurse on s_i x."""
    gens = generators(x.datum)
    word = []
    while length(x) > 0:
        i = next(i for i, s in enumerate(gens)
                 if length(multiply(s, x)) < length(x))
        word.append(i)
        x = multiply(gens[i], x)
    return word


@pytest.mark.parametrize("series", ["A2", "B2", "G2"])
def test_reduced_words_do_not_depend_on_request_order(series):
    datum = build_root_datum(series)
    elements = list(bfs_lengths(datum, 8))
    expected = {x: greedy_word(x) for x in elements}
    rng = random.Random(series)
    shuffled = rng.sample(elements, len(elements))
    orders = [shuffled,
              sorted(shuffled, key=length, reverse=True),
              sorted(shuffled, key=length)]
    for order in orders:
        _context.cache_clear()
        for x in order:
            assert reduced_word(x) == expected[x]


# ------------------------------------- minimality from the dot action

def filtered_orbit(datum, p, max_len):
    """Oracle: the coset test, then the dominance test, over every
    element up to max_len."""
    zero = Weight((0,) * datum.rank)
    out = [(x, dot_p(x, zero, p))
           for x in _elements_up_to_length(datum, max_len)
           if is_min_coset_rep_fW(x)]
    out = [(x, w) for x, w in out if min(w.coords) >= 0]
    out.sort(key=lambda xw: (length(xw[0]), reduced_word(xw[0])))
    return out


@pytest.mark.parametrize("variant", ["sc", "adjoint"])
@pytest.mark.parametrize("series", ["A1", "A2", "A3", "B2", "C2", "G2"])
def test_minimality_is_read_off_the_dot_action(series, variant):
    datum = build_root_datum(series, variant)
    h = coxeter_number(datum)
    w0 = embed_finite(longest_finite_element(datum))
    zero = Weight((0,) * datum.rank)
    elements = list(bfs_lengths(datum, 8))
    minimal = {x: is_min_coset_rep_fW(x) for x in elements}
    minimal_after_w0 = {z: is_min_coset_rep_fW(multiply(w0, z))
                        for z in elements}
    for p in (h, h + 1, 2 * h + 1):
        for x in elements:
            image = dot_p(x, zero, p).coords
            assert minimal[x] == (min(image) >= 0)
            assert minimal_after_w0[x] == (max(image) < -1)


def test_full_walk_is_every_element_up_to_length():
    for series, cap in (("A1", 9), ("A2", 6), ("B2", 6), ("G2", 7)):
        datum = build_root_datum(series)
        walked = _elements_up_to_length(datum, cap)
        assert len(walked) == len(set(walked))
        assert set(walked) == set(bfs_lengths(datum, cap))


@pytest.mark.parametrize("series,p,max_len", [
    ("A1", 5, 12), ("A2", 3, 8), ("A2", 5, 8), ("A3", 4, 6), ("B2", 5, 8),
    ("C2", 9, 8), ("G2", 7, 8), ("G2", 13, 8)])
def test_dominant_orbit_matches_the_coset_filter(series, p, max_len):
    for variant in ("sc", "adjoint"):
        datum = build_root_datum(series, variant)
        assert dominant_orbit(datum, p, max_len) == filtered_orbit(
            datum, p, max_len)
