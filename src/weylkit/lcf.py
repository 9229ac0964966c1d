"""Grothendieck-group computations from Kazhdan-Lusztig data.

Signed KL vectors for finite Weyl groups, the affine character-formula
coefficients a_{y,x} = (-1)^{l(x)+l(y)} m_{y,x}(1), the characters
they predict, decomposition matrices (with exact integer inversion),
and the SL2 validity test against the Steinberg digit product as
ground truth.

The m_{y,x} are the Kazhdan-Lusztig polynomials of the spherical
module M = triv (x)_{H_f} H (V. Deodhar, J. Algebra 111, 1987; W.
Soergel, Represent. Theory 1, 1997, section 3), in the normalisation
of ``weylkit.hecke``: h_s^2 = 1 + (v^{-1} - v) h_s, b_s = h_s + v, and
a finite simple h_t acts on triv by v^{-1}.  M has a basis M_x over
the minimal coset representatives x in ^fW, which are the dominant
alcoves, and b_s acts in one of three ways:

* x s in ^fW and longer: M_x b_s = M_{xs} + v M_x;
* x s in ^fW and shorter: M_x b_s = M_{xs} + v^{-1} M_x;
* x s not in ^fW: then x s = t x for a finite simple t (Deodhar's
  lemma), and M_x b_s = (v + v^{-1}) M_x.

The self-dual basis is b_x = sum over y <= x in ^fW of m_{y,x} M_y.
The map 1 (x) h -> b_{w0} h embeds M in H and sends b_x to b_{w0 x},
so m_{y,x} = P_{w0 y, w0 x}, w0 being the longest finite element.
The row of x is computed in M alone, without the other terms of
b_{w0 x}, which the formula does not read.  In rank one the dominant
alcoves form a chain and m_{y,x} = v^{l(x)-l(y)} for every y <= x, so
``weylkit.hecke``'s reader returns the row of x at v = 1, all ones,
with no recursion: the SL2 check and the A1 coefficients and matrices
store no row.  Every row, here and in ``kl_vector_finite``, is read
one way, by that reader, given the table alone: the ids y <= x in one
of the tables of a datum's context and the values at v = 1 of their
polynomials.  One dict comprehension signs them by the parity of l(x)
+ l(y), read off the table, and keys them as the caller needs.  Over
the dominant alcoves, position i of ``dominant_orbit`` being id i,
that is by matrix position in ``decomposition_matrix``, by element in
``lcf_coefficients`` and by weight in ``sl2_lcf_valid``; over W_f it
is by finite element in ``kl_vector_finite``.  Whether p is at least
the Coxeter number and whether a weight lies in Jantzen's region are
decided in ``weylkit.coxeter``.

The SL2 test compares coefficient vectors in the basis of Weyl
characters chi(m), m >= 0, not weight multiplicities: the formula's
side is {y . 0: a_{y,x}}, and the truth side is the digit product
expanded by Brauer's formula chi(lam) * ch M = sum_mu dim M_mu
chi(lam + mu) (J. C. Jantzen, Representations of Algebraic Groups,
II.5).  Both sides are keyed by the int m of chi(m): the row of x is
read by alcove id, and in rank one the alcoves form a chain, so y . 0
is a closed form in the id of y.  The same expansion gives the
"simple" entries of rank-one decomposition matrices.

>>> from weylkit.lattice import build_root_datum
>>> sl2_lcf_valid(20, 5)
True
>>> sl2_lcf_valid(28, 5)
False
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

from weylkit.lattice import RootDatum, Weight, build_root_datum
from weylkit.coxeter import (
    AffineWeylElement,
    FiniteWeylElement,
    _Table,
    _as_affine,
    _check_p,
    _context,
    _in_jantzen_region,
    _rho_pairings,
    dominant_orbit,
    dot_p,
    reduced_word,
)
from weylkit.hecke import _row_at_one
from weylkit.charring import (
    Character,
    _A1,
    _height,
    _sl2_simple_in_standard_basis,
    _weyl_cached,
)
from weylkit._exact import (SparseRow, check_int, check_prime, is_prime,
                            unitriangular_inverse)

__all__ = [
    "DecompositionMatrix",
    "decomposition_matrix",
    "invert_decomposition",
    "kl_vector_finite",
    "lcf_character",
    "lcf_coefficients",
    "sl2_lcf_valid",
    "sl3_multiplicity_fixtures",
]


def kl_vector_finite(x: FiniteWeylElement) -> dict[FiniteWeylElement, int]:
    """Coefficients of the standard classes in the simple class [L_x]
    for a finite Weyl group: (-1)^{l(x)-l(y)} P_{y,x}(1) on [Delta_y].

    >>> from weylkit.lattice import build_root_datum
    >>> from weylkit.coxeter import generators
    >>> d = build_root_datum("A1")
    >>> s = generators(d)[0].finite
    >>> sorted(kl_vector_finite(s).values())
    [-1, 1]
    """
    x = _as_affine(x)
    if any(x.translation):
        raise ValueError("kl_vector_finite needs an element of W_f")
    table = _context(x.datum).finite
    i = table.element_id(x)
    return _lcf_row(table, i, [y.finite for y in table.elems])


def _lcf_row(table: _Table, x: int, keys: list) -> dict:
    """{keys[y]: (-1)^{l(x)+l(y)} P_{y,x}(1)} over the ids y <= x,
    ascending, in the recursion over ``table``, one of the tables of a
    datum's context, for x an id that the table has handed out: the
    a_{y,x} over ``alcoves``, the signed KL vector over ``finite``.
    keys names each id as the caller needs it: a matrix position (None
    for a dropped column), an element, or an SL2 weight."""
    lens, lx = table.lens, table.lens[x]
    ys, ms = _row_at_one(table, x)
    return {keys[y]: -m if (lx + lens[y]) % 2 else m for y, m in zip(ys, ms)}


def lcf_coefficients(x: AffineWeylElement, p: int
                     ) -> dict[AffineWeylElement, int]:
    """The character-formula coefficients a_{y,x} = (-1)^{l(x)+l(y)}
    m_{y,x}(1) over the minimal representatives y <= x, in (length,
    reduced word) order.
    """
    x = _as_affine(x)
    _check_p(x.datum, p)
    ctx = _context(x.datum)
    if not ctx.is_alcove(x):
        raise ValueError("x must be a minimal coset representative")
    table = ctx.alcoves
    return _lcf_row(table, table.element_id(x), table.elems)


def lcf_character(x: AffineWeylElement, p: int) -> Character:
    """The character the formula predicts for the simple module at
    x . 0: the a_{y,x}-weighted sum of standard characters.
    """
    x = _as_affine(x)
    datum = x.datum
    zero = _context(datum).origin
    acc: dict[tuple[int, ...], int] = {}
    for y, a in lcf_coefficients(x, p).items():
        for w, c in _weyl_cached(datum, dot_p(y, zero, p)).terms:
            acc[w.coords] = acc.get(w.coords, 0) + a * c
    return Character.from_dict({Weight(k): c for k, c in acc.items()})


def _sparse_row(row: dict[int, int]) -> SparseRow:
    """A row given as {column: entry}, by ascending column.  A column of
    None is a weight outside the labels, which a row must not reach:
    the labels of a truncated orbit are closed downward."""
    if None in row:
        raise RuntimeError("orbit truncation lost a term below a kept label")
    cols = sorted(row)
    return tuple(cols), tuple(map(row.__getitem__, cols))


def _dense(cols: Iterable[int], vals: Iterable, n: int, zero=0) -> list:
    """A sparse row as a list of n cells, ``zero`` off its columns."""
    cells = [zero] * n
    for j, e in zip(cols, vals):
        cells[j] = e
    return cells


def _json_list(items: list[str], depth: int) -> str:
    """Items written as JSON, as ``json.dumps(..., indent=2)`` writes a
    list of them ``depth`` levels deep: each on its own line, two spaces
    deeper than the brackets, or "[]" when there is none."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + pad[:-2] + "]"


def _json_item(value) -> str:
    """An item of a matrix's header list, a label, a flag or a list of
    ints (a weight or a word), as ``json.dumps(..., indent=2)`` writes
    it one level inside the list."""
    if isinstance(value, list):
        return _json_list(list(map(str, value)), 2)
    if isinstance(value, bool):
        return "true" if value else "false"
    return json.dumps(value)


@dataclass(frozen=True)
class DecompositionMatrix:
    """Square integer matrix over a shared list of orbit labels.

    kind "simple-in-standard": rows are simple classes, columns
    standard classes, entry = coefficient of the column's standard
    class in the row's simple class.  kind "standard-in-simple" is the
    inverse reading (entries are composition multiplicities).

    ``rows`` holds row i as its nonzero entries by position: a pair
    (columns, entries), columns ascending.  ``entries``, the dense
    rows, is built on first access and held by the matrix.
    """

    datum: RootDatum
    p: int
    kind: str
    labels: tuple[tuple[AffineWeylElement, Weight], ...]
    rows: tuple[SparseRow, ...]
    jantzen: tuple[bool, ...]

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.labels)
        return tuple(tuple(_dense(*row, n)) for row in self.rows)

    def _cells(self, zero: str) -> Iterator[list[str]]:
        """Each row as strings: ``zero`` for a zero entry."""
        n = len(self.labels)
        for cols, vals in self.rows:
            yield _dense(cols, map(str, vals), n, zero)

    def weights(self) -> list[Weight]:
        return [w for _, w in self.labels]

    def entry(self, row: Weight, col: Weight) -> int:
        ws = self.weights()
        cols, vals = self.rows[ws.index(row)]
        return dict(zip(cols, vals)).get(ws.index(col), 0)

    def _label_lists(self) -> tuple[list[str], list[str]]:
        """The row labels and the column labels, L_ or nabla_ by kind
        and a weight's coordinates, each weight written once."""
        coords = ["_".join(map(str, w.coords)) for _, w in self.labels]
        rp, cp = (("L_", "nabla_") if self.kind == "simple-in-standard"
                  else ("nabla_", "L_"))
        return [rp + c for c in coords], [cp + c for c in coords]

    def restrict_to_jantzen(self) -> "DecompositionMatrix":
        keep = [i for i, ok in enumerate(self.jantzen) if ok]
        new = {i: k for k, i in enumerate(keep)}
        rows = [_sparse_row({new[j]: e for j, e in zip(*self.rows[i])
                             if j in new}) for i in keep]
        return DecompositionMatrix(
            self.datum, self.p, self.kind,
            tuple(self.labels[i] for i in keep), tuple(rows),
            tuple(True for _ in keep))

    def csv_lines(self) -> Iterator[str]:
        """The lines of ``to_csv``, one per row after the header."""
        row_labels, col_labels = self._label_lists()
        yield ",".join(["", *col_labels, "jantzen"]) + "\n"
        for label, ok, cells in zip(row_labels, self.jantzen,
                                    self._cells("")):
            yield ",".join([label, *cells, "yes" if ok else "no"]) + "\n"

    def to_csv(self) -> str:
        return "".join(self.csv_lines())

    def _json_body(self, entries: list) -> dict:
        row_labels, col_labels = self._label_lists()
        return {
            "schema": "weylkit/decomposition-matrix/1",
            "series": self.datum.series,
            "variant": self.datum.variant,
            "p": self.p,
            "kind": self.kind,
            "row_labels": row_labels,
            "col_labels": col_labels,
            "weights": [list(w.coords) for _, w in self.labels],
            "words": [reduced_word(x) for x, _ in self.labels],
            "entries": entries,
            "jantzen": list(self.jantzen),
        }

    def to_json_dict(self) -> dict:
        n = len(self.labels)
        return self._json_body([_dense(*row, n) for row in self.rows])

    def json_chunks(self) -> Iterator[str]:
        """The text of ``json.dumps(self.to_json_dict(), indent=2)`` and
        a newline, one piece per row of entries.  With an indent, dumps
        writes a value k levels deep as its own text with 2k more spaces
        after each newline; every list, of the header and of entries, is
        written by ``_json_list``, with no call of the encoder per
        item."""
        sep = "{"
        for key, value in self._json_body(None).items():
            yield f"{sep}\n  {json.dumps(key)}: "
            sep = ","
            if key == "entries":
                row_sep = "["
                for cells in self._cells("0"):
                    yield f"{row_sep}\n    " + _json_list(cells, 2)
                    row_sep = ","
                yield "\n  ]" if self.rows else "[]"
            elif isinstance(value, list):
                yield _json_list([_json_item(v) for v in value], 1)
            else:
                yield json.dumps(value)
        yield "\n}\n"

    def text_lines(self) -> Iterator[str]:
        """The lines of ``render_text``: a header, then one per row,
        each cell right-aligned to the widest cell of its column.  A row
        is a copy of one row of padded "." cells with only its nonzero
        cells written over it."""
        row_labels, col_labels = self._label_lists()
        widths = list(map(len, col_labels))
        for cols, vals in self.rows:
            for j, k in zip(cols, map(len, map(str, vals))):
                if k > widths[j]:
                    widths[j] = k
        label_width = max(map(len, row_labels), default=0)

        def line(label: str, cells: Iterable[str], mark: str) -> str:
            return "  ".join([label.rjust(label_width), *cells,
                              mark]).rstrip() + "\n"

        yield line("", map(str.rjust, col_labels, widths), "")
        blank = [".".rjust(width) for width in widths]
        for label, ok, (cols, vals) in zip(row_labels, self.jantzen,
                                           self.rows):
            cells = blank.copy()
            for j, cell in zip(cols, map(str, vals)):
                cells[j] = cell.rjust(widths[j])
            yield line(label, cells, "*" if ok else "")

    def render_text(self) -> str:
        return "".join(self.text_lines())


def _check_decomposition_matrix(m) -> DecompositionMatrix:
    """m, if it is a ``DecompositionMatrix``: TypeError for any other
    object."""
    if not isinstance(m, DecompositionMatrix):
        raise TypeError(
            f"expected a DecompositionMatrix, got {type(m).__name__}")
    return m


def _max_len_for_weight_bound(datum: RootDatum, p: int, bound: int) -> int:
    """Number of affine walls between the base alcove and the weight
    with every coordinate equal to the bound: a sufficient search
    depth for the orbit enumeration.
    """
    return sum(n // p for n in _rho_pairings(datum, (bound,) * datum.rank))


def decomposition_matrix(datum: RootDatum, p: int,
                         max_len: int | None = None,
                         max_weight: int | None = None,
                         entries: str = "auto") -> DecompositionMatrix:
    """Decomposition matrix of the block of zero.

    Rows and columns run over the dominant orbit, bounded either by
    word length or by largest weight coordinate; a weight bound keeps
    only the labels whose rows stay within it.  Entry source:
    "lcf" uses the character-formula coefficients; "simple" expands
    the true simple characters (available for A1 with p prime);
    "auto" picks "simple" when available, else "lcf".
    """
    return _decomposition_matrix(datum, p, max_len, max_weight, entries)


def _decomposition_matrix(datum: RootDatum, p: int, max_len: int | None,
                          max_weight: int | None, entries: str,
                          jantzen_only: bool = False) -> DecompositionMatrix:
    """``decomposition_matrix``, or with ``jantzen_only`` its
    ``restrict_to_jantzen()``: then only the rows of the Jantzen labels
    are computed, and only their entries in Jantzen columns kept."""
    _check_p(datum, p)
    if max_len is None and max_weight is None:
        raise ValueError("need max_len or max_weight")
    if max_weight is not None:
        check_int("max_weight", max_weight, 0)
    if entries not in ("auto", "lcf", "simple"):
        raise ValueError(f"unknown entries mode {entries!r}")
    sl2 = datum.series == "A1" and datum.variant == "sc" and is_prime(p)
    if entries == "auto":
        entries = "simple" if sl2 else "lcf"
    if entries == "simple" and not sl2:
        raise ValueError("entries='simple' needs the A1 simply connected "
                         "datum and a prime p")
    if max_len is None:
        max_len = _max_len_for_weight_bound(datum, p, max_weight)
    # orbit position i is id i of the context's alcove table
    orbit = dominant_orbit(datum, p, max_len)
    table = _context(datum).alcoves
    ids = range(len(orbit))
    if max_weight is not None:
        # A weight box need not be closed downward (it is not in rank
        # two).  The row of x involves exactly the y <= x in ^fW
        # (m_{y,x}(1) >= 1 on the Bruhat interval), so x is kept when
        # its lower ideal lies in the box, before any row is computed.
        ideals = table.ideals(len(orbit))
        outside = sum(1 << i for i, (_, w) in enumerate(orbit)
                      if max(w.coords) > max_weight)
        ids = [i for i, ideal in enumerate(ideals) if not ideal & outside]
    height = _height(datum)
    ids = sorted(ids, key=lambda i: (height(orbit[i][1].coords),
                                     orbit[i][1].coords))
    jantzen = [_in_jantzen_region(datum, w, p)
               for _, w in map(orbit.__getitem__, ids)]
    if jantzen_only:
        ids = list(itertools.compress(ids, jantzen))
        jantzen = [True] * len(ids)
    # column k for label k; a weight outside every label has None, and a
    # row that reaches one raises below: the labels of a length window,
    # of a weight box (by the ideal test above) and of a Jantzen set are
    # each closed downward
    labels = tuple(orbit[i] for i in ids)
    if entries == "lcf":
        pos = [None] * len(orbit)
        for k, i in enumerate(ids):
            pos[i] = k
        rows = (_lcf_row(table, i, pos) for i in ids)
    else:
        index = {w.coords[0]: k for k, (_, w) in enumerate(labels)}
        rows = ({index.get(m): a for m, a in
                 _sl2_simple_in_standard_basis(w.coords[0], p).items()}
                for _, w in labels)
    return DecompositionMatrix(
        datum, p, "simple-in-standard", labels,
        tuple(map(_sparse_row, rows)), tuple(jantzen))


def invert_decomposition(m: DecompositionMatrix) -> DecompositionMatrix:
    """Exact integer inverse of a unitriangular decomposition matrix."""
    _check_decomposition_matrix(m)
    kind = ("standard-in-simple" if m.kind == "simple-in-standard"
            else "simple-in-standard")
    return DecompositionMatrix(m.datum, m.p, kind, m.labels,
                               tuple(unitriangular_inverse(m.rows)),
                               m.jantzen)


def _sl2_weight(i: int, p: int) -> int:
    """x . 0 for the x of id i in the table of dominant alcoves of SL2.
    These form a chain 0, 2p-2, 2p, 4p-2, ..., one of each length: id
    2q has length 2q and weight 2pq, id 2q + 1 length 2q + 1 and weight
    2pq + 2p - 2."""
    return i // 2 * 2 * p + i % 2 * (2 * p - 2)


def _sl2_weights(x: int, p: int) -> list[int]:
    """``_sl2_weight`` of the ids 0 .. x, with no call per id: the even
    ids and the odd ones are two progressions of step 2p, and id i has
    a weight below p (x + 1) exactly when i <= x."""
    weights = [0] * (x + 1)
    weights[0::2] = range(0, p * (x + 1), 2 * p)
    weights[1::2] = range(2 * p - 2, p * (x + 1), 2 * p)
    return weights


def _sl2_alcove_id(n: int, p: int) -> int:
    """The id of the x with x . 0 = n for SL2 in the table of dominant
    alcoves, grown to it (see ``_sl2_weight``)."""
    q, r = divmod(n, 2 * p)
    i = 2 * q + (r != 0)
    if _sl2_weight(i, p) != n:
        raise ValueError(f"{n} is not in the dominant orbit of zero")
    return _context(_A1).alcoves.up_to(i) - 1


def sl2_lcf_valid(n: int, p: int) -> bool:
    """Does the character formula give the true simple character at
    orbit weight n for SL2 in characteristic p?

    Both sides are compared in the basis of Weyl characters: the
    coefficients a_{y,x} keyed by y . 0, against the Steinberg digit
    product expanded by Brauer's formula (see the module docstring).
    The row of x is read by alcove id, and y . 0 is computed from the
    id of y, so no group element or weight is built.  The row is the
    closed form m_{y,x} = v^{l(x)-l(y)} of rank one, read at v = 1 as
    x + 1 ones: a check stores no row and runs no recursion.

    >>> sl2_lcf_valid(0, 5)
    True
    """
    check_prime(p)
    x = _sl2_alcove_id(check_int("n", n, 0), p)
    return (_lcf_row(_context(_A1).alcoves, x, _sl2_weights(x, p))
            == _sl2_simple_in_standard_basis(n, p))


def sl3_multiplicity_fixtures(p: int
                              ) -> tuple[dict[Weight, int], dict[Weight, int]]:
    """The two A2 coefficient vectors at the weights (p-2)rho and
    p*rho, keyed by the dominant weights of their supports.
    """
    d = build_root_datum("A2", "sc")
    orbit = dominant_orbit(d, p, 6)
    zero = _context(d).origin
    targets = {Weight((p - 2, p - 2)): None, Weight((p, p)): None}
    for x, w in orbit:
        if w in targets and targets[w] is None:
            targets[w] = x
    out = []
    for w, x in targets.items():
        if x is None:
            raise RuntimeError(f"orbit search missed the weight {w.coords}")
        out.append({dot_p(y, zero, p): a
                    for y, a in lcf_coefficients(x, p).items()})
    return out[0], out[1]


if __name__ == "__main__":
    import doctest

    doctest.testmod()
