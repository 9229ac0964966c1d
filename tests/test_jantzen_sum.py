"""Decomposition matrices against Jantzen's sum formula.

An oracle that is neither a digest nor a Kazhdan-Lusztig computation.
For a dominant weight lam, the Weyl module V(lam) has a filtration
V(lam) = V^0 > V^1 > ... with V^0 / V^1 = L(lam), and (J. C. Jantzen,
Representations of Algebraic Groups, II.8.19)

    sum_{i>0} ch V^i = sum_{a>0} sum_{0 < mp < <lam + rho, a^vee>}
                       nu_p(mp) chi(s_{a,mp} . lam),

where s_{a,mp} . lam = lam - (<lam + rho, a^vee> - mp) a, and chi of a
weight that is not dominant is straightened by the dot action of W_f:
chi(w . mu) = (-1)^l(w) chi(mu), and chi(mu) = 0 when mu + rho lies on
a wall.  Written in the simple characters through the standard-in-
simple rows, chi(mu) = sum_nu [V(mu) : L(nu)] L(nu), the left side
holds every composition factor L(nu), nu != lam, of V(lam), and at
least as often as V(lam) does, since V^1 is the radical.  So on every
Jantzen label two checks must hold:

* the sound check: the L-support of the sum is exactly the off-diagonal
  support of the row of lam in ``invert_decomposition``, and each
  coefficient is at least the entry there;
* an exact identity: the coefficient of L(nu) is n'(1), where n(v) is
  the (lam, nu) entry of the inverse of the graded matrix A(v)_{x,y} =
  m_{y,x}(-v), the spherical polynomials of the context's recursion.
  A(1) is the decomposition matrix.  Jantzen's conjecture on the layers
  of the filtration predicts the identity; it is observed here, not a
  theorem the package relies on.

Only n(1) and n'(1) are read, so the graded inverse is taken over the
dual numbers Z[e]/(e^2), with v = 1 + e: an entry f(v) of A is the pair
(f(1), f'(1)), and forward substitution on the unitriangular A(1 + e)
gives the pair (n(1), n'(1)) of each entry of the inverse, exactly.

Outside the Jantzen region the formula's rows need not be simple
characters, and for p small against the rank Lusztig's formula itself
can fail (Williamson, J. Amer. Math. Soc. 30, 2017), so the cases keep
to Jantzen labels of the windows below.
"""

import pytest

from weylkit import (build_root_datum, decomposition_matrix,
                     invert_decomposition)
from weylkit._exact import unpack
from weylkit.coxeter import _context
from weylkit.hecke import _recursions


def nu_p(n, p):
    """The exponent of p in n > 0."""
    k = 0
    while n % p == 0:
        n, k = n // p, k + 1
    return k


def straighten(datum, coords):
    """(sign, dominant coordinates) with chi(coords) = sign chi(dominant),
    by simple reflections of coords + rho; (0, None) on a wall."""
    simple = [datum.simple_root(i)[0].coords for i in range(datum.rank)]
    shifted, sign = [c + 1 for c in coords], 1
    while 0 not in shifted:
        i = next((i for i, c in enumerate(shifted) if c < 0), None)
        if i is None:
            return sign, tuple(c - 1 for c in shifted)
        a = shifted[i]
        shifted = [s - a * r for s, r in zip(shifted, simple[i])]
        sign = -sign
    return 0, None


def sum_formula(datum, p, lam, position, standard_rows):
    """The right side of the sum formula for the weight lam, in the basis
    of simple characters: {column of L(nu): coefficient}, nonzero only.
    position maps dominant coordinates to a row of standard_rows, the
    standard-in-simple rows as (columns, entries)."""
    acc = {}
    shifted = [c + 1 for c in lam]
    for root, coroot in datum.positive_roots:
        top = sum(a * b for a, b in zip(coroot.coords, shifted))
        for mp in range(p, top, p):
            sign, dom = straighten(datum, tuple(
                c - (top - mp) * r for c, r in zip(lam, root.coords)))
            if sign:
                cols, vals = standard_rows[position[dom]]
                for j, e in zip(cols, vals):
                    acc[j] = acc.get(j, 0) + sign * nu_p(mp, p) * e
    return {j: c for j, c in acc.items() if c}


def graded_rows(datum, m):
    """Row k of A(1 + e) as {column: (m(-1), d/dv m(-v) at v = 1)}, from
    the context's spherical recursion, which computed the rows of m."""
    table = _context(datum).alcoves
    eng = _recursions(datum)[table]
    column = {table.element_id(x): k for k, (x, _) in enumerate(m.labels)}
    rows = []
    for x, _ in m.labels:
        with table.lock:
            ys, ks = eng.basis(table.element_id(x))
            polys = [unpack(eng.polys[k], eng.width) for k in ks]
        rows.append({column[y]: (sum(c * (-1) ** e for e, c in enumerate(f)),
                                 sum(c * e * (-1) ** e
                                     for e, c in enumerate(f)))
                     for y, f in zip(ys, polys) if y in column})
    return rows


def unitriangular_inverse_at_one(rows):
    """The inverse of a lower unitriangular matrix over Z[e]/(e^2), its
    rows given as {column: (value, derivative)}; the inverse's rows in
    the same form, by forward substitution."""
    inverse = []
    for i, row in enumerate(rows):
        assert row[i] == (1, 0) and max(row) == i, "not lower unitriangular"
        acc = {i: (1, 0)}
        for k, (a0, a1) in row.items():
            if k == i:
                continue
            for j, (b0, b1) in inverse[k].items():
                c0, c1 = acc.get(j, (0, 0))
                acc[j] = (c0 - a0 * b0, c1 - a0 * b1 - a1 * b0)
        inverse.append(acc)
    return inverse


# (series, p, max_len, Jantzen labels)
CASES = [("A2", 5, 30, 16), ("A2", 7, 40, 36), ("B2", 5, 30, 9),
         ("B2", 7, 40, 25), ("G2", 7, 50, 9), ("G2", 11, 60, 49),
         ("A3", 5, 30, 27), ("A3", 7, 30, 125)]


@pytest.mark.parametrize("series, p, max_len, labels", CASES)
def test_jantzen_rows_meet_the_sum_formula(series, p, max_len, labels):
    datum = build_root_datum(series)
    m = decomposition_matrix(datum, p, max_len=max_len).restrict_to_jantzen()
    assert len(m.labels) == labels
    standard = invert_decomposition(m).rows
    graded = graded_rows(datum, m)
    assert [{j: v for j, (v, _) in row.items()} for row in graded] == [
        dict(zip(*row)) for row in m.rows]
    at_one = unitriangular_inverse_at_one(graded)
    position = {w.coords: k for k, (_, w) in enumerate(m.labels)}
    for i, (_, lam) in enumerate(m.labels):
        assert {j: n for j, (n, _) in at_one[i].items() if n} == dict(
            zip(*standard[i]))
        got = sum_formula(datum, p, lam.coords, position, standard)
        below = {j: e for j, e in zip(*standard[i]) if j != i}
        assert got.keys() == below.keys(), lam
        assert all(got[j] >= e for j, e in below.items()), lam
        assert got == {j: d for j, (_, d) in at_one[i].items()
                       if j != i and d}, lam
