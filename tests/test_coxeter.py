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
import os
import random
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from weylkit import (
    AffineWeylElement,
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
import weylkit.coxeter
from weylkit.coxeter import (
    _context,
    _elements_up_to_length,
    _length,
    _mat_mul,
    _mat_vec,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


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
    a2, b2 = build_root_datum("A2"), build_root_datum("B2")
    x = generators(a2)[2]
    # operands from the tables, from embed_finite and built bare alike
    for y in (generators(b2)[0], embed_finite(longest_finite_element(b2)),
              bare(generators(b2)[2])):
        with pytest.raises(ValueError, match="different root data"):
            multiply(x, y)
        with pytest.raises(ValueError, match="different root data"):
            multiply(y, x)
    # an equal datum built twice is the same datum
    other = build_root_datum("A2")
    assert other is not a2
    assert multiply(x, generators(other)[0]) == multiply(
        x, generators(a2)[0])


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


def test_dot_action_rejects_a_weight_of_another_rank():
    x = generators(build_root_datum("A2"))[-1]
    for coords in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError,
                           match="weight of rank . where rank 2 is expected"):
            dot_p(x, Weight(coords), 5)


def test_embed_finite_rejects_an_affine_element():
    s1, _, s0 = generators(build_root_datum("A2"))
    for x in (s0, embed_finite(s1.finite)):
        with pytest.raises(TypeError, match="FiniteWeylElement"):
            embed_finite(x)


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


# ------------------------------------------------ the memoised group law

def arithmetic_product(x, y):
    """The oracle: (matrix, translation) of x y by the matrix arithmetic
    on the stored parts, with no memo."""
    m = x.finite.matrix
    return _mat_mul(m, y.finite.matrix), tuple(
        a + b for a, b in zip(x.translation, _mat_vec(m, y.translation)))


def bare(x):
    """x rebuilt from new tuples, outside every memo."""
    return AffineWeylElement(
        FiniteWeylElement(x.datum, tuple(tuple(c for c in row)
                                         for row in x.finite.matrix)),
        tuple(c for c in x.translation))


@pytest.mark.parametrize("series", ["A1", "A2", "B2", "C2", "G2", "A3"])
def test_group_law_matches_the_matrix_product(series):
    _context.cache_clear()
    rng = random.Random(f"law {series}")
    datum = build_root_datum(series)
    for _ in range(150):
        x, y = (random_element(datum, rng, 15) for _ in range(2))
        pairs = [(x, y), (inverse(x), y), (x, inverse(y)), (bare(x), bare(y)),
                 (embed_finite(y.finite), x), (x, embed_finite(y.finite)),
                 (embed_finite(FiniteWeylElement(datum, x.finite.matrix)),
                  bare(y))]
        for a, b in pairs:
            ab = multiply(a, b)
            assert (ab.finite.matrix, ab.translation) == arithmetic_product(
                a, b)
            assert ab.datum == datum


def test_equal_products_share_one_finite_part():
    _context.cache_clear()
    datum = build_root_datum("B2")
    rng = random.Random(5)
    seen = {}
    for _ in range(400):
        x, y = (random_element(datum, rng, 10) for _ in range(2))
        for a, b in ((x, y), (bare(x), bare(y)), (inverse(y), inverse(x))):
            f = multiply(a, b).finite
            assert seen.setdefault(f.matrix, f) is f
    e = identity_element(datum)
    assert len(seen) == 8
    for s in generators(datum):
        assert multiply(s, s).finite is e.finite
        assert multiply(e, bare(s)).finite is s.finite


@pytest.mark.parametrize("series,order", [
    ("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24)])
def test_group_law_memos_are_bounded(series, order):
    _context.cache_clear()
    datum = build_root_datum(series)
    ctx = _context(datum)
    # seeded with the identity and the generators' finite parts
    assert len(ctx.finite_parts) <= datum.rank + 2
    rng = random.Random(series)
    for _ in range(600):
        x, y = (random_element(datum, rng, 20) for _ in range(2))
        multiply(bare(x), inverse(y))
    assert len(ctx.finite_parts) <= order
    assert len(ctx.products) <= order ** 2
    # walking W_f interns each of its elements once
    assert sorted(ctx.finite_parts) == sorted(
        w.matrix for w, _ in enumerate_finite_weyl(datum))
    assert all(f.matrix is m for m, f in ctx.finite_parts.items())


def test_concurrent_products_agree():
    # eight threads multiply the same words on a freshly cleared context:
    # every memo miss is raced, and each must store the one interned part
    datum = build_root_datum("G2")
    gens = generators(datum)
    rng = random.Random(17)
    words = [[rng.randrange(3) for _ in range(rng.randrange(40))]
             for _ in range(60)]
    expected = []
    for word in words:
        x = identity_element(datum)
        for i in word:
            x = arithmetic_product(x, gens[i])
            x = AffineWeylElement(FiniteWeylElement(datum, x[0]), x[1])
        expected.append(x)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            _context.cache_clear()
            barrier = threading.Barrier(8)

            def walk():
                barrier.wait(timeout=30)
                gens = generators(datum)
                out = []
                for word in words:
                    x = identity_element(datum)
                    for i in word:
                        x = multiply(x, gens[i])
                    out.append(x)
                return out

            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(walk) for _ in range(8)]
                got = [f.result(timeout=60) for f in futures]
            for out in got:
                assert out == expected
                assert all(x.finite is y.finite for x, y in zip(out, got[0]))
            assert len(_context(datum).finite_parts) <= 12
    finally:
        sys.setswitchinterval(old)


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
    # the walk ends in whichever table holds the rest of the element, so
    # grow the tables part-way first: it then ends at other points
    h = coxeter_number(datum)
    first_steps = [lambda: None,
                   lambda: _elements_up_to_length(datum, 4),
                   lambda: dominant_orbit(datum, h, 8),
                   lambda: enumerate_finite_weyl(datum)]
    for first in first_steps:
        for order in orders:
            _context.cache_clear()
            first()
            for x in order:
                assert reduced_word(x) == expected[x]


@pytest.mark.parametrize("series,name,max_len", [
    ("A2", "group", 10), ("B2", "group", 10), ("G2", "group", 10),
    ("A3", "group", 6),
    ("A3", "finite", 6), ("B2", "finite", 4), ("G2", "finite", 6),
    ("A2", "alcoves", 20), ("B2", "alcoves", 20), ("G2", "alcoves", 20)])
def test_table_words_are_the_greedy_words(series, name, max_len):
    # a table's numbering spells the smallest reduced word of each id,
    # the one the left-greedy oracle finds from lengths alone
    datum = build_root_datum(series)
    table = getattr(_context(datum), name)
    n = table.up_to(max_len)
    if name == "finite":
        assert n == len(enumerate_finite_weyl(datum))
    for x in table.elems[:n]:
        assert table.word(x) == reduced_word(x) == greedy_word(x)


@pytest.mark.parametrize("series,max_len", [
    ("A2", 10), ("B2", 10), ("G2", 10), ("A3", 8)])
def test_inverse_column_is_the_group_inverse(series, max_len):
    # the tables of a whole group read x^{-1} off the reduced word of x,
    # with no group law; the group law (``inverse``) is the oracle, for
    # every numbered element; the dominant alcoves are not closed under
    # inverses and keep no column
    ctx = _context(build_root_datum(series))
    for table, n in ((ctx.group, ctx.group.up_to(max_len)),
                     (ctx.finite, len(ctx.finite_elements()))):
        assert len(table.inverse) == len(table.elems)
        for i, x in enumerate(table.elems[:n]):
            j = table.inverse[i]
            assert table.elems[j] == inverse(x)
            assert table.inverse[j] == i and table.lens[j] == table.lens[i]
    assert ctx.alcoves.inverse is None


# automorphisms of the Coxeter graph: of the whole affine group, and
# of those that fix s0 (W_f and the dominant alcoves)
AUTOMORPHISM_COUNTS = {"A1": (2, 1), "A2": (6, 2), "A3": (8, 2),
                       "A4": (10, 2), "B2": (2, 1), "C2": (2, 1),
                       "G2": (1, 1)}
SYMMETRY_LENGTHS = {"A1": (12, 40), "A2": (9, 24), "A3": (7, 16),
                    "A4": (5, 12), "B2": (9, 24), "C2": (9, 24),
                    "G2": (9, 24)}


def word_of(table, i):
    """The letters of the smallest reduced word of id i."""
    out = []
    while i:
        out.append(table.last[i])
        i = table.right[table.last[i]][i]
    return out[::-1]


@pytest.mark.parametrize("series", list(AUTOMORPHISM_COUNTS))
def test_symmetry_columns_are_automorphisms(series):
    # each column sigma is a bijection on every complete level, keeps
    # lengths and commutes with the right action, sigma(x s) = sigma(x)
    # sigma(s), on every edge, leaves included; ``back`` undoes it; and
    # sigma(x) is the product of the generators sigma(s) over a reduced
    # word of x, by the matrix arithmetic
    _context.cache_clear()
    datum = build_root_datum(series)
    ctx = _context(datum)
    whole, fixing = AUTOMORPHISM_COUNTS[series]
    group_len, alcove_len = SYMMETRY_LENGTHS[series]
    for table, max_len, count in ((ctx.group, group_len, whole),
                                  (ctx.finite, 99, fixing),
                                  (ctx.alcoves, alcove_len, fixing)):
        n = table.up_to(max_len)
        lens = table.lens[:n]
        top = lens[-1] if table.complete else lens[-1] - 1
        assert len(table.symmetries) == count - 1
        for sigma, col, back in table.symmetries:
            assert len(col) == len(back) == len(table.elems)
            assert sorted(sigma) == list(range(len(sigma))) != list(sigma)
            assert [back[col[i]] for i in range(n)] == list(range(n))
            for level in range(top + 1):
                ids = range(lens.index(level), len(lens) - lens[::-1].index(
                    level))
                assert sorted(col[i] for i in ids) == list(ids)
            for s, right in enumerate(table.right):
                image = table.right[sigma[s]]
                for i in range(n):
                    if right[i] == weylkit.coxeter._LEAF or right[i] < n:
                        assert image[col[i]] == (
                            right[i] if right[i] < 0 else col[right[i]])
            for i in range(n):
                m, t = bare(ctx.identity).finite.matrix, (0,) * datum.rank
                for s in word_of(table, i):
                    x = AffineWeylElement(FiniteWeylElement(datum, m), t)
                    m, t = arithmetic_product(x, ctx.gens[sigma[s]])
                y = table.elems[col[i]]
                assert (y.finite.matrix, y.translation) == (m, t)


def test_automorphisms_of_a_large_cycle_are_found_quickly():
    # affine A9 is a cycle of ten letters: its 2 * 10 automorphisms,
    # the identity left out, by a search that places one letter at a
    # time rather than trying all 10! orderings
    _context.cache_clear()
    ctx = _context(build_root_datum("A9"))
    start = time.perf_counter()
    autos = ctx.automorphisms
    assert time.perf_counter() - start < 0.05
    assert len(autos) == len(set(autos)) == 19
    cycle = {frozenset((i, (i + 1) % 10)) for i in range(10)}
    for sigma in autos:
        assert {frozenset((sigma[a], sigma[b])) for a, b in cycle} == cycle


def test_inverse_has_the_interned_finite_part():
    # one finite part per matrix: the inverse's is the context's
    ctx = _context(build_root_datum("B2"))
    elems = ctx.group.elems[:ctx.group.up_to(6)]
    assert len(elems) > 1
    for x in elems:
        w = inverse(x).finite
        assert ctx.finite_parts[w.matrix] is w
        assert inverse(inverse(x)).finite is x.finite


def test_context_keeps_no_memo_by_element():
    # lengths, words and Bruhat comparisons of elements outside every
    # table leave the context as it was, but for the memos keyed by the
    # finite parts met: inversion sets, interned parts and products
    _context.cache_clear()
    datum = build_root_datum("G2")
    gens = generators(datum)
    rng = random.Random(7)
    elements = []
    while len(elements) < 300:
        x = identity_element(datum)
        for n in range(1, 41):
            x = rng.choice([y for y in (multiply(x, g) for g in gens)
                            if length(y) == n])
            if n >= 20:
                elements.append(x)
    ctx = _context(datum)
    tables = (ctx.group, ctx.alcoves, ctx.finite)
    before = {k: len(v) for k, v in vars(ctx).items() if isinstance(v, dict)}
    sizes = [len(t.elems) for t in tables]
    for x in elements:
        assert len(reduced_word(x)) == length(x)
    for x, y in zip(elements, elements[1:]):
        bruhat_leq(x, y)
        bruhat_leq(y, x)
    after = {k: len(v) for k, v in vars(ctx).items() if isinstance(v, dict)}
    # |W_f| = 12 for G2
    for name, bound in (("inversions_memo", 12), ("finite_parts", 12),
                        ("products", 144)):
        assert after.pop(name) <= bound
        del before[name]
    assert after == before
    assert [len(t.elems) for t in tables] == sizes


def test_deep_elements_need_no_recursion():
    # past the interpreter's recursion limit: the walks are loops
    _context.cache_clear()
    datum = build_root_datum("A1")
    s1, s0 = generators(datum)
    e = identity_element(datum)
    x = e
    for i in range(1500):
        x = multiply(x, (s0, s1)[i % 2])
    assert length(x) == 1500
    assert reduced_word(x) == [1, 0] * 750
    assert bruhat_leq(e, x)
    y = multiply(x, s1)
    assert bruhat_leq(y, x) and not bruhat_leq(x, y)


# --------------------------------- the group table as the group law's memo

TABLE_STATES = {"not grown": 0, "partly grown": 4, "grown": 16}


@pytest.mark.parametrize("state", list(TABLE_STATES))
@pytest.mark.parametrize("series", ["A1", "A2", "B2", "C2", "G2", "A3"])
def test_table_products_are_the_arithmetic(series, state):
    # x s off the group table against the matrix arithmetic, with the
    # table not grown, grown below the words and grown past them; a
    # product the table holds is its element, tagged, and untagged
    # operands give equal elements; no product grows the table
    _context.cache_clear()
    datum = build_root_datum(series)
    group = _context(datum).group
    group.up_to(TABLE_STATES[state])
    size = len(group.elems)
    gens = generators(datum)
    rng = random.Random(f"table {series} {state}")
    read = 0
    for _ in range(40):
        x = identity_element(datum)
        for _ in range(rng.randrange(17)):
            s = rng.randrange(len(gens))
            y = multiply(x, gens[s])
            assert (y.finite.matrix, y.translation) == arithmetic_product(
                x, gens[s])
            i = x._gid
            if i is not None and group.right[s][i] >= 0:
                assert y is group.elems[group.right[s][i]]
                assert y._gid == group.right[s][i]
                read += 1
            for a, g in ((bare(x), gens[s]), (inverse(inverse(x)), gens[s]),
                         (x, bare(gens[s]))):
                assert multiply(a, g) == y
            f = embed_finite(x.finite)
            fs = multiply(f, gens[s])
            assert (fs.finite.matrix, fs.translation) == arithmetic_product(
                f, gens[s])
            # an untagged operand keeps only its fields
            assert vars(f).keys() == {"finite", "translation"}
            x = y
    assert len(group.elems) == size
    assert (read > 0) == (state != "not grown")


def test_tags_outlive_their_context():
    # elements numbered by one context, times the generators of the next
    # one: ids are canonical, so the new table reads the old tags, at
    # each state of its growth
    datum = build_root_datum("B2")
    _context.cache_clear()
    old = _elements_up_to_length(datum, 8)
    old_gens = generators(datum)
    for grown in (0, 4, 10):
        _context.cache_clear()
        group = _context(datum).group
        group.up_to(grown)
        gens = generators(datum)
        assert not any(g is h for g, h in zip(gens, old_gens))
        for x in old:
            for s, g in enumerate(gens):
                xs = multiply(x, g)
                assert (xs.finite.matrix, xs.translation) == (
                    arithmetic_product(x, g))
                assert multiply(x, old_gens[s]) == xs
            assert length(x) == _length(x)
            assert reduced_word(x) == greedy_word(bare(x))
        assert [group.element_id(x) for x in old] == [x._gid for x in old]


@pytest.mark.parametrize("series", ["A2", "G2", "A3"])
def test_table_ids_are_canonical(series):
    # two fresh contexts number equal elements alike; the identity is
    # id 0 and each generator is numbered itself
    datum = build_root_datum(series)
    walks = []
    for _ in range(2):
        _context.cache_clear()
        walks.append(_elements_up_to_length(datum, 7))
        gens = generators(datum)
        assert walks[-1][0] is identity_element(datum)
        assert walks[-1][1:len(gens) + 1] == gens
        assert all(a is b for a, b in zip(walks[-1][1:], gens))
    first, second = walks
    assert first == second
    assert ([x._gid for x in first] == [x._gid for x in second]
            == list(range(len(first))))


def test_products_read_while_the_table_grows():
    # eight threads multiply words while a ninth grows the table: each
    # read of the table sees a product the table has finished
    datum = build_root_datum("G2")
    rng = random.Random(19)
    words = [[rng.randrange(3) for _ in range(rng.randrange(30))]
             for _ in range(60)]
    expected = []
    for word in words:
        x = bare(identity_element(datum))
        for i in word:
            m, t = arithmetic_product(x, generators(datum)[i])
            x = AffineWeylElement(FiniteWeylElement(datum, m), t)
        expected.append(x)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _context.cache_clear()
            group = _context(datum).group
            barrier = threading.Barrier(9)

            def grow():
                barrier.wait(timeout=30)
                for n in range(1, 31):
                    group.up_to(n)

            def walk():
                barrier.wait(timeout=30)
                gens = generators(datum)
                out = []
                for word in words:
                    x = identity_element(datum)
                    for i in word:
                        x = multiply(x, gens[i])
                    out.append(x)
                return out

            with ThreadPoolExecutor(max_workers=9) as pool:
                grower = pool.submit(grow)
                futures = [pool.submit(walk) for _ in range(8)]
                got = [f.result(timeout=60) for f in futures]
                grower.result(timeout=60)
            for out in got:
                assert out == expected
                assert all(x is group.elems[x._gid] for x in out
                           if x._gid is not None)
            assert len(set(group.elems)) == len(group.elems)
    finally:
        sys.setswitchinterval(old)


def test_tagged_products_across_data_still_raise():
    a2 = build_root_datum("A2")
    x = _elements_up_to_length(a2, 3)[-1]
    assert x._gid is not None
    for other in (build_root_datum("B2"), build_root_datum("A2", "adjoint")):
        _elements_up_to_length(other, 3)
        for g in generators(other):
            with pytest.raises(ValueError, match="different root data"):
                multiply(x, g)


@pytest.mark.parametrize("series,max_len", [
    ("A2", 9), ("B2", 9), ("G2", 9), ("A3", 6)])
def test_length_and_word_by_id(series, max_len, monkeypatch):
    # a numbered element's length and word are read off the table, with
    # no length computed, and agree with the arithmetic and the greedy
    # word of an untagged copy
    _context.cache_clear()
    datum = build_root_datum(series)
    elements = _elements_up_to_length(datum, max_len)
    oracle = [(_length(bare(x)), greedy_word(bare(x))) for x in elements]
    computed = []

    def counted(x):
        computed.append(x)
        return _length(x)

    monkeypatch.setattr(weylkit.coxeter, "_length", counted)
    assert [(length(x), reduced_word(x)) for x in elements] == oracle
    assert computed == []
    assert [(length(bare(x)), reduced_word(bare(x)))
            for x in elements] == oracle


PICKLE_DUMP = """
import pickle, sys
from weylkit import build_root_datum
from weylkit.coxeter import _elements_up_to_length
d = build_root_datum("A2")
x = _elements_up_to_length(d, 3)[-1]
hash(d), hash(x)
sys.stdout.buffer.write(pickle.dumps((d, x)))
"""

PICKLE_LOAD = """
import pickle, sys
from weylkit import affine_hecke, build_root_datum, kl_basis_element
from weylkit.coxeter import _context, _elements_up_to_length
d = build_root_datum("A2")
y = _elements_up_to_length(d, 3)[-1]
ctx, alg = _context(d), affine_hecke(d)
dp, x = pickle.loads(sys.stdin.buffer.read())
print(x == y, x in {y}, y in {x}, x.finite in {y.finite}, dp in {d},
      _context(dp) is ctx, affine_hecke(dp) is alg,
      kl_basis_element(x) == kl_basis_element(y))
"""


def test_pickled_elements_hash_alike_in_another_process():
    # the cached hashes come from string hashes, which differ between
    # processes, so they must not travel with the fields
    env = {**os.environ, "PYTHONPATH": SRC}
    dumped = subprocess.run(
        [sys.executable, "-c", PICKLE_DUMP], capture_output=True,
        env={**env, "PYTHONHASHSEED": "1"})
    assert dumped.returncode == 0, dumped.stderr.decode()
    loaded = subprocess.run(
        [sys.executable, "-c", PICKLE_LOAD], input=dumped.stdout,
        capture_output=True, env={**env, "PYTHONHASHSEED": "2"})
    assert loaded.returncode == 0, loaded.stderr.decode()
    assert loaded.stdout.split() == [b"True"] * 8


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
