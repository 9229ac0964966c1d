"""The spherical rows at pairs of translations, against Lusztig and Kato.

An oracle that is not a Kazhdan-Lusztig recursion.  For lambda and mu
dominant and in the root lattice, t_lambda is a dominant alcove, and
its spherical polynomial at t_mu is the q-analogue of the weight
multiplicity (Lusztig, "Singularities, character formulas, and a
q-analog of weight multiplicities", Asterisque 101-102, 1983; Kato,
Invent. Math. 66, 1982):

    m_{t_mu, t_lambda}(v) = m^mu_lambda(v^2),
    m^mu_lambda(q) = sum over w in W_f of
                     (-1)^l(w) P_q(w(lambda + rho) - (mu + rho)),

where P_q is Kostant's partition function with q^k counting the ways
to write a weight as a sum of k positive roots.  Only the finite Weyl
group, the positive roots and the Cartan matrix go into the oracle; at
q = 1 it is Kostant's multiplicity formula, the dimension of the mu
weight space of V(lambda), which ``weyl_character`` computes by
Freudenthal's formula.
"""

import itertools

import pytest

from weylkit import (
    Weight,
    build_root_datum,
    enumerate_finite_weyl,
    weyl_character,
)
from weylkit._exact import det_adjugate, unpack
from weylkit.coxeter import _context
from weylkit.hecke import _recursions


def kostant_q(alphas, box):
    """{beta: coefficients of P_q(beta) by power of q} for every beta in
    simple-root coordinates with 0 <= beta <= box, by one unbounded
    knapsack per positive root: cells in lexicographic order, so beta -
    alpha comes before beta."""
    cells = list(itertools.product(*(range(b + 1) for b in box)))
    table = {c: [] for c in cells}
    table[cells[0]] = [1]
    for alpha in alphas:
        for c in cells:
            prev = tuple(a - b for a, b in zip(c, alpha))
            if min(prev) < 0 or not table[prev]:
                continue
            acc, shifted = table[c], [0] + table[prev]  # q P_q(beta - alpha)
            acc.extend([0] * (len(shifted) - len(acc)))
            for k, a in enumerate(shifted):
                acc[k] += a
    return table


class LusztigKato:
    """m^mu_lambda(q) for one root datum, with P_q tabled on the box of
    the largest lambda that will be asked for."""

    def __init__(self, datum, lambdas):
        self.det, self.adj = det_adjugate(datum.cartan)
        self.rho = (1,) * datum.rank
        box = [max(c) for c in zip(*map(self.root_coords, lambdas))]
        self.partitions = kostant_q(datum.root_alpha, box)
        self.weyl = enumerate_finite_weyl(datum)

    def root_coords(self, coords):
        """Weight coordinates to simple-root coordinates."""
        out = []
        for row in self.adj:
            n = sum(a * c for a, c in zip(row, coords))
            assert n % self.det == 0, "not in the root lattice"
            out.append(n // self.det)
        return tuple(out)

    def m(self, mu, lam):
        """m^mu_lambda(q), coefficients by power of q, no trailing zero."""
        shifted = Weight(tuple(a + r for a, r in zip(lam, self.rho)))
        acc = []
        for w, length in self.weyl:
            beta = self.root_coords(tuple(
                a - b - r for a, b, r in zip(w.apply(shifted).coords, mu,
                                             self.rho)))
            coeffs = self.partitions.get(beta, ())
            acc.extend([0] * (len(coeffs) - len(acc)))
            for k, c in enumerate(coeffs):
                acc[k] += -c if length % 2 else c
        while acc and not acc[-1]:
            acc.pop()
        return acc


def translations(datum, max_len):
    """(alcove id, lambda) over the translations t_lambda of the table of
    dominant alcoves up to max_len: the alcoves with trivial finite
    part, lambda dominant and in the root lattice."""
    table = _context(datum).alcoves
    one = table.elems[0].finite
    return [(i, x.translation) for i, x in enumerate(
        table.elems[:table.up_to(max_len)]) if x.finite == one]


# (series, length bound, pairs with m^mu_lambda != 0).  The bounds reach
# past the SHA-256 sets of b_x and the dense-step tests of the spherical
# rows: A3 to length 30 is 1041 rows, G2 to 60 is 403
CASES = [("A1", 30, 136), ("A2", 24, 396), ("B2", 30, 345),
         ("C2", 30, 345), ("G2", 40, 207), ("A3", 18, 117),
         ("B2", 44, 1224), ("G2", 60, 795), ("A3", 30, 1041)]


@pytest.mark.parametrize("series, max_len, nonzero", CASES)
def test_spherical_rows_at_translations_are_q_weight_multiplicities(
        series, max_len, nonzero):
    datum = build_root_datum(series)
    eng = _recursions(datum)[_context(datum).alcoves]
    pairs = translations(datum, max_len)
    oracle = LusztigKato(datum, [lam for _, lam in pairs])
    found = 0
    for x, lam in pairs:
        ys, ks = eng.basis(x)
        row = dict(zip(ys, ks))
        for y, mu in pairs:
            want = oracle.m(mu, lam)
            got = unpack(eng.polys[row[y]], eng.width) if y in row else []
            # m(v) = m^mu_lambda(v^2): the even coefficients are m's
            assert got[::2] == want and not any(got[1::2]), (lam, mu)
            found += bool(want)
    assert found == nonzero


@pytest.mark.parametrize("series, max_len", [("A2", 12), ("G2", 16),
                                              ("A3", 10)])
def test_kostant_at_one_is_the_weight_multiplicity(series, max_len):
    # the oracle itself, at q = 1, against Freudenthal's formula
    datum = build_root_datum(series)
    pairs = translations(datum, max_len)
    oracle = LusztigKato(datum, [lam for _, lam in pairs])
    for _, lam in pairs:
        char = weyl_character(datum, Weight(lam))
        for _, mu in pairs:
            assert sum(oracle.m(mu, lam)) == char.coefficient(Weight(mu))
