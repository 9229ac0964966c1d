"""Grothendieck-group computations from Kazhdan-Lusztig data.

Signed KL vectors for finite Weyl groups, the affine character-formula
coefficients a_{y,x} = (-1)^{l(x)+l(y)} P_{w0 y, w0 x}(1), the
characters they predict, decomposition matrices (with exact integer
inversion), and the SL2 validity test against the Steinberg digit
product as ground truth.

>>> from weylkit.lattice import build_root_datum
>>> sl2_lcf_valid(20, 5)
True
>>> sl2_lcf_valid(28, 5)
False
"""

from __future__ import annotations

from dataclasses import dataclass

from weylkit.lattice import (
    RootDatum,
    Weight,
    build_root_datum,
    coxeter_number,
    is_dominant,
)
from weylkit.coxeter import (
    AffineWeylElement,
    FiniteWeylElement,
    dominant_orbit,
    dot_p,
    embed_finite,
    jantzen_condition,
    length,
    longest_finite_element,
    multiply,
    reduced_word,
)
from weylkit.hecke import evaluate_at_one, kl_basis_element
from weylkit.charring import (
    Character,
    _height,
    _weyl_cached,
    expand_in_standard_basis,
    sl2_simple_character,
)
from weylkit._exact import det_adjugate, is_prime

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
    lx = length(x)
    out: dict[FiniteWeylElement, int] = {}
    for y, poly in kl_basis_element(x).terms:
        sign = -1 if (lx - length(y)) % 2 else 1
        out[y.finite] = sign * evaluate_at_one(poly)
    return out


def _check_lcf_input(x: AffineWeylElement, p: int) -> None:
    h = coxeter_number(x.datum)
    if p < h:
        raise ValueError(f"p must be at least the Coxeter number {h}")
    # 0 is p-regular for p >= h: x is minimal iff x . 0 is dominant
    if not is_dominant(dot_p(x, Weight((0,) * x.datum.rank), p)):
        raise ValueError("x must be a minimal coset representative")


def lcf_coefficients(x: AffineWeylElement, p: int
                     ) -> dict[AffineWeylElement, int]:
    """The character-formula coefficients a_{y,x} over minimal
    representatives y below x with dominant dot-image.
    """
    _check_lcf_input(x, p)
    datum = x.datum
    w0 = embed_finite(longest_finite_element(datum))
    lx = length(x)
    zero = Weight((0,) * datum.rank)
    pairs = []
    for z, poly in kl_basis_element(multiply(w0, x)).terms:
        # (w0 z) . 0 = w0(z . 0 + rho) - rho, so w0 z is minimal (its
        # dot-image dominant, 0 being p-regular) iff z . 0 + rho is
        # strictly antidominant
        if any(c >= -1 for c in dot_p(z, zero, p).coords):
            continue
        y = multiply(w0, z)
        sign = -1 if (lx + length(y)) % 2 else 1
        pairs.append((y, sign * evaluate_at_one(poly)))
    pairs.sort(key=lambda ya: (length(ya[0]), reduced_word(ya[0])))
    return dict(pairs)


def lcf_character(x: AffineWeylElement, p: int) -> Character:
    """The character the formula predicts for the simple module at
    x . 0: the a_{y,x}-weighted sum of standard characters.
    """
    datum = x.datum
    zero = Weight((0,) * datum.rank)
    acc: dict[tuple[int, ...], int] = {}
    for y, a in lcf_coefficients(x, p).items():
        for w, c in _weyl_cached(datum, dot_p(y, zero, p)).terms:
            acc[w.coords] = acc.get(w.coords, 0) + a * c
    return Character.from_dict({Weight(k): c for k, c in acc.items()})


def _weight_label(prefix: str, w: Weight) -> str:
    return prefix + "_".join(str(c) for c in w.coords)


@dataclass(frozen=True)
class DecompositionMatrix:
    """Square integer matrix over a shared list of orbit labels.

    kind "simple-in-standard": rows are simple classes, columns
    standard classes, entry = coefficient of the column's standard
    class in the row's simple class.  kind "standard-in-simple" is the
    inverse reading (entries are composition multiplicities).
    """

    datum: RootDatum
    p: int
    kind: str
    labels: tuple[tuple[AffineWeylElement, Weight], ...]
    entries: tuple[tuple[int, ...], ...]
    jantzen: tuple[bool, ...]

    def weights(self) -> list[Weight]:
        return [w for _, w in self.labels]

    def entry(self, row: Weight, col: Weight) -> int:
        ws = self.weights()
        return self.entries[ws.index(row)][ws.index(col)]

    def _prefixes(self) -> tuple[str, str]:
        if self.kind == "simple-in-standard":
            return "L_", "nabla_"
        return "nabla_", "L_"

    def restrict_to_jantzen(self) -> "DecompositionMatrix":
        keep = [i for i, ok in enumerate(self.jantzen) if ok]
        return DecompositionMatrix(
            self.datum, self.p, self.kind,
            tuple(self.labels[i] for i in keep),
            tuple(tuple(self.entries[i][j] for j in keep) for i in keep),
            tuple(True for _ in keep),
        )

    def to_csv(self) -> str:
        rp, cp = self._prefixes()
        lines = [",".join(
            [""] + [_weight_label(cp, w) for _, w in self.labels]
            + ["jantzen"])]
        for i, (_, w) in enumerate(self.labels):
            cells = [str(e) if e else "" for e in self.entries[i]]
            lines.append(",".join(
                [_weight_label(rp, w)] + cells
                + ["yes" if self.jantzen[i] else "no"]))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        rp, cp = self._prefixes()
        return {
            "schema": "weylkit/decomposition-matrix/1",
            "series": self.datum.series,
            "variant": self.datum.variant,
            "p": self.p,
            "kind": self.kind,
            "row_labels": [_weight_label(rp, w) for _, w in self.labels],
            "col_labels": [_weight_label(cp, w) for _, w in self.labels],
            "weights": [list(w.coords) for _, w in self.labels],
            "words": [reduced_word(x) for x, _ in self.labels],
            "entries": [list(row) for row in self.entries],
            "jantzen": list(self.jantzen),
        }

    def render_text(self) -> str:
        rp, cp = self._prefixes()
        header = [""] + [_weight_label(cp, w) for _, w in self.labels] + [""]
        rows = [header]
        for i, (_, w) in enumerate(self.labels):
            cells = [str(e) if e else "." for e in self.entries[i]]
            rows.append([_weight_label(rp, w)] + cells
                        + ["*" if self.jantzen[i] else ""])
        widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
        return "\n".join(
            "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)).rstrip()
            for row in rows) + "\n"


def _max_len_for_weight_bound(datum: RootDatum, p: int, bound: int) -> int:
    """Number of affine walls between the base alcove and the weight
    with every coordinate equal to the bound: a sufficient search
    depth for the orbit enumeration.
    """
    total = 0
    for wt, c in datum.positive_roots:
        val = sum((bound + 1) * cc for cc in c.coords)
        total += val // p
    return total


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
    h = coxeter_number(datum)
    if p < h:
        raise ValueError(f"p must be at least the Coxeter number {h}")
    if max_len is None and max_weight is None:
        raise ValueError("need max_len or max_weight")
    if max_weight is not None and max_weight < 0:
        raise ValueError("max_weight must be nonnegative")
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
    orbit = dominant_orbit(datum, p, max_len)
    if max_weight is not None:
        orbit = [(x, w) for x, w in orbit
                 if all(c <= max_weight for c in w.coords)]
    height = _height(datum)
    orbit.sort(key=lambda xw: (height(xw[1].coords), xw[1].coords))
    # A weight box need not be closed downward (it is not in rank two):
    # walking up by height, a label is kept only when every term of its
    # row is a label kept already.  A length bound loses no term.
    index: dict[AffineWeylElement, int] = {}
    windex: dict[Weight, int] = {}
    labels, rows = [], []
    for x, w in orbit:
        index[x] = windex[w] = len(labels)
        if entries == "lcf":
            row = {index.get(y): a for y, a in lcf_coefficients(x, p).items()}
        else:
            row = {windex.get(wt): a for wt, a in expand_in_standard_basis(
                datum, sl2_simple_character(w.coords[0], p)).items()}
        if None in row:
            if max_weight is None:
                raise RuntimeError("orbit truncation lost a term "
                                   "below a kept label")
            del index[x], windex[w]
            continue
        labels.append((x, w))
        rows.append(row)
    return DecompositionMatrix(
        datum, p, "simple-in-standard", tuple(labels),
        tuple(tuple(row.get(j, 0) for j in range(len(labels)))
              for row in rows),
        tuple(jantzen_condition(x, p) for x, _ in labels))


def invert_decomposition(m: DecompositionMatrix) -> DecompositionMatrix:
    """Exact integer inverse of a unitriangular decomposition matrix."""
    n = len(m.labels)
    a = m.entries
    for i in range(n):
        if a[i][i] != 1:
            raise ValueError("matrix is not unitriangular")
        for j in range(i + 1, n):
            if a[i][j] != 0:
                raise ValueError("matrix is not unitriangular")
    _, inv = det_adjugate(a)  # det a = 1: the adjugate is the inverse
    kind = ("standard-in-simple" if m.kind == "simple-in-standard"
            else "simple-in-standard")
    return DecompositionMatrix(
        m.datum, m.p, kind, m.labels,
        tuple(tuple(row) for row in inv), m.jantzen)


def sl2_lcf_valid(n: int, p: int) -> bool:
    """Does the character formula give the true simple character at
    orbit weight n for SL2 in characteristic p?

    >>> sl2_lcf_valid(0, 5)
    True
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 0:
        raise ValueError("weight must be nonnegative")
    d = build_root_datum("A1", "sc")
    target = Weight((n,))
    found = None
    for x, w in dominant_orbit(d, p, n // p + 2):
        if w == target:
            found = x
            break
    if found is None:
        raise ValueError(f"{n} is not in the dominant orbit of zero")
    return lcf_character(found, p) == sl2_simple_character(n, p)


def sl3_multiplicity_fixtures(p: int
                              ) -> tuple[dict[Weight, int], dict[Weight, int]]:
    """The two A2 coefficient vectors at the weights (p-2)rho and
    p*rho, keyed by the dominant weights of their supports.
    """
    if p < 3:
        raise ValueError("p must be at least the Coxeter number 3")
    d = build_root_datum("A2", "sc")
    orbit = dominant_orbit(d, p, 6)
    zero = Weight((0, 0))
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
