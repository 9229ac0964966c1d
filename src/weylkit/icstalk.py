"""Stalk tables for intersection cohomology on two-strata cones.

The cone over a compact (2d-1)-manifold link has an open smooth
stratum and a point stratum.  Given the integral cohomology of the
link, these routines produce the stalk tables of the shifted
pushforward, of IC with field coefficients (truncate below degree 0),
and of the two integral models (IC and IC+, differing by the torsion
of H^d(link) in degree 0), plus the torsion and intersection-form
decomposition tests.

>>> t = cone_ic_stalks_field(link_preset("rp3"), 2, 2)
>>> t.point_entries()
{-2: 1, -1: 1}
>>> mod_p_simple(link_preset("rp3"), 2, 3)
True
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from weylkit._exact import (check_int, check_ints, check_prime, det,
                            smith_diagonal)

__all__ = [
    "FgAbelianGroup",
    "GradedAbelianGroup",
    "StalkTable",
    "cone_ic_integral",
    "cone_ic_plus",
    "cone_ic_stalks_field",
    "cone_pushforward_stalks",
    "cotangent_self_intersection",
    "intersection_form_semisimple",
    "link_preset",
    "mod_p_simple",
    "perverse_constraint_check",
    "uct_field",
]


@dataclass(frozen=True)
class FgAbelianGroup:
    """Finitely generated abelian group in invariant-factor form."""

    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.torsion, (tuple, list)):
            raise ValueError("torsion must be a sequence of integers")
        check_int("free rank", self.free_rank, 0)
        object.__setattr__(self, "torsion", tuple(
            check_int("invariant factors", t, 2) for t in self.torsion))
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a "
                                 "divisibility chain")

    @classmethod
    def zero(cls) -> "FgAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, n: int) -> "FgAbelianGroup":
        return cls(n, ())

    @classmethod
    def cyclic(cls, m: int) -> "FgAbelianGroup":
        return cls(0, (m,))

    @classmethod
    def from_presentation(cls, num_generators: int,
                          relations: list[list[int]]) -> "FgAbelianGroup":
        """Cokernel of the relation matrix (rows = relations)."""
        if any(len(r) != num_generators for r in relations):
            raise ValueError("relation rows must match the generator count")
        check_ints("relation entries", [x for r in relations for x in r])
        diag = smith_diagonal(relations)
        nonzero = [d for d in diag if d != 0]
        return cls(num_generators - len(nonzero),
                   tuple(d for d in nonzero if d >= 2))

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def torsion_part(self) -> "FgAbelianGroup":
        return FgAbelianGroup(0, self.torsion)

    def p_torsion_count(self, p: int) -> int:
        """Number of invariant factors divisible by p; 0 when p = 0."""
        if p == 0:
            return 0
        return sum(1 for t in self.torsion if t % p == 0)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json_dict(self) -> dict:
        return {"free": self.free_rank, "torsion": list(self.torsion)}


def _check_fg_abelian_group(g) -> FgAbelianGroup:
    """g, if it is an ``FgAbelianGroup``: TypeError for any other
    object."""
    if not isinstance(g, FgAbelianGroup):
        raise TypeError(f"expected an FgAbelianGroup, got {type(g).__name__}")
    return g


@dataclass(frozen=True)
class GradedAbelianGroup:
    """Finitely supported map degree -> FgAbelianGroup."""

    groups: tuple[tuple[int, FgAbelianGroup], ...] = ()

    def __post_init__(self) -> None:
        for d, g in self.groups:
            check_int("degrees", d, 0)
            _check_fg_abelian_group(g)
        for (d1, _), (d2, _) in zip(self.groups, self.groups[1:]):
            if d1 >= d2:
                raise ValueError("degrees must be strictly ascending")
        if any(g.is_trivial for _, g in self.groups):
            raise ValueError("trivial groups must not be stored")

    @classmethod
    def from_dict(cls, d: dict[int, FgAbelianGroup]) -> "GradedAbelianGroup":
        return cls(tuple(sorted(
            (deg, g) for deg, g in d.items() if not g.is_trivial)))

    def group(self, degree: int) -> FgAbelianGroup:
        for deg, g in self.groups:
            if deg == degree:
                return g
        return FgAbelianGroup.zero()

    def degrees(self) -> list[int]:
        return [deg for deg, _ in self.groups]

    @property
    def max_degree(self) -> int:
        return self.groups[-1][0] if self.groups else 0

    def to_json_dict(self) -> dict:
        return {str(deg): g.to_json_dict() for deg, g in self.groups}


_Z = FgAbelianGroup.free(1)


def link_preset(name: str) -> GradedAbelianGroup:
    """Built-in link cohomologies: "rp3", "s3", "s1", "lens:m".

    >>> link_preset("rp3").group(2)
    FgAbelianGroup(free_rank=0, torsion=(2,))
    """
    if name == "rp3":
        return GradedAbelianGroup.from_dict(
            {0: _Z, 2: FgAbelianGroup.cyclic(2), 3: _Z})
    if name == "s3":
        return GradedAbelianGroup.from_dict({0: _Z, 3: _Z})
    if name == "s1":
        return GradedAbelianGroup.from_dict({0: _Z, 1: _Z})
    if name.startswith("lens:"):
        m = int(name.split(":", 1)[1])
        return GradedAbelianGroup.from_dict(
            {0: _Z, 2: FgAbelianGroup.cyclic(m), 3: _Z})
    raise ValueError(f"unknown link preset {name!r}")


def _check_graded_abelian_group(H) -> GradedAbelianGroup:
    """H, if it is a ``GradedAbelianGroup``: TypeError for any other
    object.  Every public function that takes a link cohomology asks
    it."""
    if not isinstance(H, GradedAbelianGroup):
        raise TypeError(
            f"expected a GradedAbelianGroup, got {type(H).__name__}")
    return H


def _check_characteristic(p: int) -> None:
    """A characteristic is 0 or a prime."""
    if check_int("p", p, 0):
        check_prime(p)


def uct_field(H: GradedAbelianGroup, p: int) -> dict[int, int]:
    """Field-coefficient dimensions from integral cohomology:
    dim H^i(-;k) = rank H^i + p-torsion of H^i + p-torsion of H^{i+1}.

    >>> uct_field(link_preset("rp3"), 2)
    {0: 1, 1: 1, 2: 1, 3: 1}
    """
    _check_graded_abelian_group(H)
    _check_characteristic(p)
    out = {}
    for i in range(0, H.max_degree + 1):
        out[i] = (H.group(i).free_rank
                  + H.group(i).p_torsion_count(p)
                  + H.group(i + 1).p_torsion_count(p))
    return out


@dataclass(frozen=True)
class StalkTable:
    """Stalks over the two strata of a cone, per cohomological degree.

    Field mode stores dimensions; integral mode stores groups.  Both
    strata are stored densely over the table's degree range.
    """

    kind: str  # "field" or "integral"
    characteristic: int | None
    cone_dimension: int
    open_stratum: tuple[tuple[int, object], ...]
    point_stratum: tuple[tuple[int, object], ...]

    def point_entries(self) -> dict:
        return dict(self.point_stratum)

    def _support(self, row: tuple[tuple[int, object], ...]) -> list[int]:
        if self.kind == "field":
            return [d for d, e in row if e != 0]
        return [d for d, g in row if not g.is_trivial]

    def open_support(self) -> list[int]:
        return self._support(self.open_stratum)

    def point_support(self) -> list[int]:
        return self._support(self.point_stratum)

    def _cell(self, entry) -> str:
        if self.kind == "field":
            if entry == 0:
                return "0"
            return "k" if entry == 1 else f"k^{entry}"
        return str(entry)

    def render_text(self) -> str:
        degrees = sorted({d for d, _ in self.open_stratum}
                         | {d for d, _ in self.point_stratum})
        opens = dict(self.open_stratum)
        points = dict(self.point_stratum)
        zero = 0 if self.kind == "field" else FgAbelianGroup.zero()
        rows = [["degree"] + [str(d) for d in degrees],
                ["open"] + [self._cell(opens.get(d, zero)) for d in degrees],
                ["point"] + [self._cell(points.get(d, zero)) for d in degrees]]
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        return "\n".join(
            "  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row))
            for row in rows) + "\n"

    def to_json_dict(self) -> dict:
        def enc(entry):
            return entry if self.kind == "field" else entry.to_json_dict()

        return {
            "schema": "weylkit/stalk-table/1",
            "kind": self.kind,
            "characteristic": self.characteristic,
            "cone_dimension": self.cone_dimension,
            "open": {str(d): enc(e) for d, e in self.open_stratum},
            "point": {str(d): enc(e) for d, e in self.point_stratum},
        }


def _check_link(H: GradedAbelianGroup, d: int) -> None:
    _check_graded_abelian_group(H)
    check_int("d", d, 1)
    if any(deg < 0 or deg > 2 * d - 1 for deg in H.degrees()):
        raise ValueError("link cohomology degrees must lie in "
                         f"[0, {2 * d - 1}]")


def _field_stalks(H_link: GradedAbelianGroup, d: int, p: int,
                  top: int) -> StalkTable:
    """The shifted pushforward from the punctured cone, with
    coefficients in a field k of characteristic p, in the degrees i in
    [-d, top): the open stalk is k in degree -d, and the point stalk in
    degree i is H^{i+d}(link; k)."""
    _check_link(H_link, d)
    dims = uct_field(H_link, p)
    degrees = range(-d, top)
    return StalkTable(
        "field", p, d,
        tuple((i, 1 if i == -d else 0) for i in degrees),
        tuple((i, dims.get(i + d, 0)) for i in degrees))


def cone_pushforward_stalks(H_link: GradedAbelianGroup, d: int, p: int
                            ) -> StalkTable:
    """Stalks of the full (untruncated) shifted pushforward from the
    punctured cone: point stalk in degree i is H^{i+d}(link; k).
    """
    return _field_stalks(H_link, d, p, d)


def cone_ic_stalks_field(H_link: GradedAbelianGroup, d: int, p: int
                         ) -> StalkTable:
    """IC stalks with coefficients in a field of characteristic p:
    truncate the pushforward below degree 0.

    >>> cone_ic_stalks_field(link_preset("rp3"), 2, 3).point_entries()
    {-2: 1, -1: 0}
    """
    return _field_stalks(H_link, d, p, 0)


def cone_ic_integral(H_link: GradedAbelianGroup, d: int) -> StalkTable:
    """The integral model with stalks truncated below degree 0."""
    _check_link(H_link, d)
    return StalkTable(
        "integral", None, d,
        tuple((i, _Z if i == -d else FgAbelianGroup.zero())
              for i in range(-d, 0)),
        tuple((i, H_link.group(i + d)) for i in range(-d, 0)))


def cone_ic_plus(H_link: GradedAbelianGroup, d: int) -> StalkTable:
    """The second integral model: the strata of ``cone_ic_integral``,
    extended to degree 0, where the point stalk is the torsion of
    H^d(link).
    """
    base = cone_ic_integral(H_link, d)
    return replace(
        base,
        open_stratum=base.open_stratum + ((0, FgAbelianGroup.zero()),),
        point_stratum=base.point_stratum
        + ((0, H_link.group(d).torsion_part()),))


def mod_p_simple(H_link: GradedAbelianGroup, d: int, p: int) -> bool:
    """Does reducing the integral model mod p give the field-model
    stalks?  Compares the field dimensions degree by degree with the
    coefficient reduction (``uct_field``) of the truncated integral
    stalks, shifted from degrees -d .. -1 to 0 .. d-1.

    >>> mod_p_simple(link_preset("rp3"), 2, 2)
    False
    """
    field = cone_ic_stalks_field(H_link, d, p).point_entries()
    stalks = cone_ic_integral(H_link, d).point_entries()
    reduced = uct_field(GradedAbelianGroup.from_dict(
        {i + d: g for i, g in stalks.items()}), p)
    return all(field[i] == reduced.get(i + d, 0) for i in range(-d, 0))


def intersection_form_semisimple(form, p: int) -> bool:
    """Is the symmetric integer form nondegenerate over a field of
    characteristic p (p = 0 for the rationals)?

    >>> intersection_form_semisimple([[-2]], 2)
    False
    >>> intersection_form_semisimple([[-2]], 3)
    True
    """
    mat = [list(row) for row in form]
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("matrix must be square")
    check_ints("matrix entries", [x for row in mat for x in row])
    if mat != [list(col) for col in zip(*mat)]:
        raise ValueError("matrix must be symmetric")
    _check_characteristic(p)
    d = det(mat)
    return d % p != 0 if p else d != 0


def cotangent_self_intersection(euler_characteristic: int) -> int:
    """Self-intersection of a variety in its cotangent bundle: the
    negative of its Euler characteristic.

    >>> cotangent_self_intersection(2)
    -2
    """
    check_ints("Euler characteristic", (euler_characteristic,))
    return -euler_characteristic


def _check_stalk_table(table) -> StalkTable:
    """table, if it is a ``StalkTable``: TypeError for any other
    object."""
    if not isinstance(table, StalkTable):
        raise TypeError(f"expected a StalkTable, got {type(table).__name__}")
    return table


def perverse_constraint_check(table: StalkTable, *, strict: bool = False
                              ) -> bool:
    """Support bounds for a two-strata cone of dimension d: open stratum
    only in degree -d; point stratum within [-d, 0], or [-d, -1] when
    strict (the genuine-IC bound).
    """
    d = _check_stalk_table(table).cone_dimension
    if any(deg != -d for deg in table.open_support()):
        return False
    hi = -1 if strict else 0
    return all(-d <= deg <= hi for deg in table.point_support())


if __name__ == "__main__":
    import doctest

    doctest.testmod()
