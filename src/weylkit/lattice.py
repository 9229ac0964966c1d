"""Root data for the irreducible series A_n (n >= 1), B2, C2 and G2.

A root datum is the combinatorial seed for everything else in this
package: a weight lattice with a chosen basis, the finite sets of
positive roots and coroots, and the integer pairing between them.

Conventions, fixed once and used everywhere:

* ``Weight`` coordinates are in the fundamental-weight basis, so pairing
  a weight with the i-th simple coroot reads off coordinate i.  This
  makes dominance and p-restriction O(rank) coordinate tests.
* ``Coroot`` coordinates are in the simple-coroot basis.
* ``cartan[i][j]`` is the pairing of the j-th simple root with the i-th
  simple coroot; column j of the Cartan matrix is the j-th simple root
  written in fundamental-weight coordinates.
* The ``sc`` (simply connected) variant uses the full weight lattice.
  The ``adjoint`` variant restricts to the root lattice, recorded in
  ``lattice_basis`` (rows are basis vectors of the sublattice, written
  in fundamental-weight coordinates).  Weight coordinates themselves
  stay in the fundamental-weight basis for both variants.

>>> d = build_root_datum("A2", "sc")
>>> [w.coords for w, _ in d.positive_roots]
[(2, -1), (-1, 2), (1, 1)]
>>> coxeter_number(d)
3
>>> index_of_connection(d)
3
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, fields
from itertools import repeat

from weylkit._exact import (check_int, check_ints, det, det_adjugate,
                            exact_ints)

__all__ = [
    "Coroot",
    "ResourceLimitError",
    "RootDatum",
    "UnsupportedDatumError",
    "Weight",
    "build_root_datum",
    "coxeter_number",
    "dual_root_datum",
    "index_of_connection",
    "is_dominant",
    "is_p_restricted",
    "pairing",
    "rho",
]


class UnsupportedDatumError(ValueError):
    """Raised for a series or variant this package does not model."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed its budget: a character's
    support cap, or Kazhdan-Lusztig coefficients past 2^64."""


@dataclass(frozen=True, slots=True)
class Weight:
    """Element of the weight lattice, in fundamental-weight coordinates.

    Slotted: a weight holds its coordinates and nothing else, with no
    instance attributes and no weak references.

    >>> Weight((1, 0)) + Weight((0, 2))
    Weight(coords=(1, 2))
    >>> 3 * Weight((1, -1))
    Weight(coords=(3, -3))
    """

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        _set_coords(self, check_ints("Weight coordinates", tuple(self.coords)))

    def __reduce__(self):
        # through the public constructor, the same on every supported
        # Python: the default state setter cannot fill the slot of a
        # frozen dataclass, and not every release gives it its own
        return Weight, (self.coords,)

    def __add__(self, other: "Weight") -> "Weight":
        _check_weight(other, len(self.coords))
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        _check_weight(other, len(self.coords))
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def __rmul__(self, n: int) -> "Weight":
        if not exact_ints((n,)):
            return NotImplemented
        return Weight(tuple(n * a for a in self.coords))


_set_coords = Weight.coords.__set__  # the slot's own setter


def _check_weight(weight, rank: int | None = None) -> Weight:
    """The weight, if it is a ``Weight`` of the rank (of any rank when
    rank is None): TypeError for any other object, ValueError for a
    weight of another rank.  Every public function that takes a weight
    asks it.

    >>> _check_weight(Weight((1, 0)), 2)
    Weight(coords=(1, 0))
    """
    if not isinstance(weight, Weight):
        raise TypeError(f"expected a Weight, got {type(weight).__name__}")
    if rank is not None and len(weight.coords) != rank:
        raise ValueError(f"weight of rank {len(weight.coords)} where rank "
                         f"{rank} is expected")
    return weight


def _weights(coords: list[tuple[int, ...]]) -> list[Weight]:
    """The weights of coordinate tuples the package has built from ints,
    all at once: the package's one trusted construction of weights.  It
    skips the checks of the public constructor, and ``object.__new__``
    and the slot's setter are mapped in C, with no Python call per
    weight.

    >>> _weights([(1, 0), (-2, 3)])
    [Weight(coords=(1, 0)), Weight(coords=(-2, 3))]
    """
    out = list(map(object.__new__, repeat(Weight, len(coords))))
    deque(map(_set_coords, out, coords), maxlen=0)
    return out


@dataclass(frozen=True)
class Coroot:
    """Element of the coweight lattice, in simple-coroot coordinates."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", check_ints(
            "Coroot coordinates", tuple(self.coords)))


def pairing(weight: Weight, coroot: Coroot) -> int:
    """Perfect pairing between the weight and coweight lattices.

    With weights in fundamental-weight coordinates and coroots in
    simple-coroot coordinates this is the plain dot product.

    >>> pairing(Weight((1, 1)), Coroot((1, 1)))
    2
    """
    _check_weight(weight, len(coroot.coords))
    return sum(a * b for a, b in zip(weight.coords, coroot.coords))


@dataclass(frozen=True)
class RootDatum:
    """Root datum of an irreducible series in a chosen lattice variant.

    ``positive_roots`` pairs each positive root (as a Weight) with its
    coroot; ``root_alpha`` holds the simple-root coordinates of each
    positive root, in the same order.
    """

    series: str
    variant: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[Weight, Coroot], ...]
    simple_indices: tuple[int, ...]
    lattice_basis: tuple[tuple[int, ...], ...]
    root_alpha: tuple[tuple[int, ...], ...]
    _hash = None  # cached on first use; not a field

    def __post_init__(self) -> None:
        for i in range(self.rank):
            if self.cartan[i][i] != 2:
                raise ValueError("Cartan diagonal must be 2")
            for j in range(self.rank):
                if i != j and self.cartan[i][j] > 0:
                    raise ValueError("Cartan off-diagonal must be <= 0")

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.series, self.variant, self.cartan))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __reduce__(self):
        # the fields only: the cached hash is a string hash, which
        # differs between processes
        return RootDatum, tuple(getattr(self, f.name) for f in fields(self))

    def simple_root(self, i: int) -> tuple[Weight, Coroot]:
        return self.positive_roots[self.simple_indices[i]]

    def highest_root(self) -> tuple[Weight, Coroot]:
        """The positive root of maximal height (sum of root coordinates)."""
        idx = max(range(len(self.positive_roots)),
                  key=lambda k: sum(self.root_alpha[k]))
        return self.positive_roots[idx]

    def highest_coroot(self) -> tuple[Weight, Coroot]:
        """The (root, coroot) pair whose coroot has maximal height.

        The coroot of this pair is the highest coroot; the root itself is
        the dominant short root.  For simply laced series it coincides
        with ``highest_root``.
        """
        idx = max(range(len(self.positive_roots)),
                  key=lambda k: sum(self.positive_roots[k][1].coords))
        return self.positive_roots[idx]

    def as_json_dict(self) -> dict:
        return {
            "series": self.series,
            "variant": self.variant,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "positive_roots": [
                {"root": list(w.coords), "coroot": list(c.coords)}
                for w, c in self.positive_roots
            ],
        }


def _cartan_for(series: str) -> tuple[tuple[int, ...], ...]:
    # one spelling per series: ASCII digits, no leading zero
    if re.fullmatch("A[1-9][0-9]*", series):
        n = int(series[1:])
        rows = []
        for i in range(n):
            row = [0] * n
            row[i] = 2
            if i > 0:
                row[i - 1] = -1
            if i + 1 < n:
                row[i + 1] = -1
            rows.append(tuple(row))
        return tuple(rows)
    fixed = {
        "B2": ((2, -1), (-2, 2)),
        "C2": ((2, -2), (-1, 2)),
        "G2": ((2, -3), (-1, 2)),
    }
    if series in fixed:
        return fixed[series]
    raise UnsupportedDatumError(f"unsupported series {series!r}")


def _root_closure(
    cartan: tuple[tuple[int, ...], ...],
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All positive roots as (root, coroot) coordinate pairs.

    Roots are in simple-root coordinates, coroots in simple-coroot
    coordinates.  Start from the simple pairs and close under the simple
    reflections, discarding anything that leaves the positive cone.
    """
    rank = len(cartan)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    queue: list[tuple[int, ...]] = []
    for i in range(rank):
        e = tuple(1 if j == i else 0 for j in range(rank))
        seen[e] = e
        queue.append(e)
    while queue:
        b = queue.pop()
        c = seen[b]
        for i in range(rank):
            pr = sum(cartan[i][j] * b[j] for j in range(rank))
            nb = list(b)
            nb[i] -= pr
            nbt = tuple(nb)
            if any(x < 0 for x in nbt):
                continue  # only a simple root reflects out of the cone
            pc = sum(c[k] * cartan[k][i] for k in range(rank))
            nc = list(c)
            nc[i] -= pc
            nct = tuple(nc)
            if nbt in seen:
                if seen[nbt] != nct:
                    raise AssertionError("inconsistent coroot closure")
            else:
                seen[nbt] = nct
                queue.append(nbt)
    return sorted(seen.items(),
                  key=lambda bc: (sum(bc[0]), tuple(-x for x in bc[0])))


def build_root_datum(series: str, variant: str = "sc") -> RootDatum:
    """Build the root datum of an irreducible series.

    ``series`` is one of A1, A2, ... (any rank), B2, C2, G2; ``variant``
    is ``"sc"`` (simply connected) or ``"adjoint"``.

    >>> d = build_root_datum("A1", "sc")
    >>> d.positive_roots
    ((Weight(coords=(2,)), Coroot(coords=(1,))),)
    >>> len(build_root_datum("G2").positive_roots)
    6
    """
    if variant not in ("sc", "adjoint"):
        raise UnsupportedDatumError(f"unsupported variant {variant!r}")
    cartan = _cartan_for(series)
    rank = len(cartan)
    pairs = _root_closure(cartan)
    positive = []
    alphas = []
    for b, c in pairs:
        w = Weight(tuple(sum(cartan[a][j] * b[j] for j in range(rank))
                         for a in range(rank)))
        positive.append((w, Coroot(c)))
        alphas.append(b)
    simple_indices = tuple(
        alphas.index(tuple(1 if j == i else 0 for j in range(rank)))
        for i in range(rank))
    if variant == "sc":
        basis = tuple(tuple(1 if j == i else 0 for j in range(rank))
                      for i in range(rank))
    else:
        basis = tuple(tuple(cartan[a][i] for a in range(rank))
                      for i in range(rank))
    return RootDatum(
        series=series,
        variant=variant,
        rank=rank,
        cartan=cartan,
        positive_roots=tuple(positive),
        simple_indices=simple_indices,
        lattice_basis=basis,
        root_alpha=tuple(alphas),
    )


def is_dominant(weight: Weight) -> bool:
    """True iff the pairing with every simple coroot is >= 0.

    >>> is_dominant(Weight((0, 3)))
    True
    >>> is_dominant(Weight((-1, 3)))
    False
    """
    return all(c >= 0 for c in _check_weight(weight).coords)


def is_p_restricted(weight: Weight, p: int) -> bool:
    """True iff dominant with all simple-coroot pairings < p.

    >>> is_p_restricted(Weight((4,)), 5), is_p_restricted(Weight((5,)), 5)
    (True, False)
    """
    check_int("p", p, 2)
    return all(0 <= c < p for c in _check_weight(weight).coords)


def rho(datum: RootDatum) -> Weight:
    """Half-sum of the positive roots, as an element of the lattice.

    Equals the sum of the fundamental weights, i.e. (1, ..., 1) in
    fundamental-weight coordinates.  Raises if that vector is not in the
    variant's lattice (e.g. the adjoint form of A1).

    >>> rho(build_root_datum("G2"))
    Weight(coords=(1, 1))
    """
    # x * B = (1, ..., 1) is solved by x = adj(B^T) (1, ..., 1) / det B
    det_b, adj = det_adjugate(tuple(zip(*datum.lattice_basis)))
    if det_b == 0 or any(sum(row) % det_b for row in adj):
        raise ValueError(
            f"rho is not in the weight lattice of the {datum.variant} variant")
    return Weight((1,) * datum.rank)


def coxeter_number(datum: RootDatum) -> int:
    """Coxeter number h: one plus the height of the highest coroot.

    >>> [coxeter_number(build_root_datum(s)) for s in ("A1", "A2", "B2", "G2")]
    [2, 3, 4, 6]
    """
    return 1 + max(sum(c.coords) for _, c in datum.positive_roots)


def index_of_connection(datum: RootDatum) -> int:
    """Order of (weight lattice) / (root lattice) for this variant.

    >>> index_of_connection(build_root_datum("A2"))
    3
    >>> index_of_connection(build_root_datum("G2"))
    1
    """
    return abs(det(datum.cartan)) // abs(det(datum.lattice_basis))


_DUAL_SERIES = {"B2": "C2", "C2": "B2"}
_DUAL_VARIANT = {"sc": "adjoint", "adjoint": "sc"}


def dual_root_datum(datum: RootDatum) -> RootDatum:
    """Root datum with roots and coroots interchanged.

    Series are mapped A_n -> A_n, B2 <-> C2, G2 -> G2 (with the canonical
    node labelling), and the lattice variant is flipped, so applying this
    twice returns the original datum.

    >>> dual_root_datum(build_root_datum("B2")).series
    'C2'
    >>> d = build_root_datum("A2", "sc")
    >>> dual_root_datum(dual_root_datum(d)) == d
    True
    """
    series = _DUAL_SERIES.get(datum.series, datum.series)
    return build_root_datum(series, _DUAL_VARIANT[datum.variant])


if __name__ == "__main__":
    import doctest

    doctest.testmod()
