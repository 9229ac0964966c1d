"""Abelian-group bookkeeping and cone stalk tables.

The independent oracle for presentations checks the classical
invariant-factor identities: the product of invariant factors equals
the absolute determinant for square nonsingular relation matrices, and
the first factor is the gcd of all entries.
"""

import math

import pytest

import weylkit._exact
from weylkit import (
    FgAbelianGroup,
    GradedAbelianGroup,
    cone_ic_integral,
    cone_ic_plus,
    cone_ic_stalks_field,
    cone_pushforward_stalks,
    cotangent_self_intersection,
    intersection_form_semisimple,
    link_preset,
    mod_p_simple,
    perverse_constraint_check,
    uct_field,
)
from weylkit._exact import det_adjugate

from test_exact import affine_cartan

RP3 = link_preset("rp3")


# --------------------------------------------------------------- groups

def test_group_constructors_and_str():
    assert str(FgAbelianGroup.zero()) == "0"
    assert str(FgAbelianGroup.free(1)) == "Z"
    assert str(FgAbelianGroup.free(2)) == "Z^2"
    assert str(FgAbelianGroup.cyclic(4)) == "Z/4"
    assert str(FgAbelianGroup(1, (2,))) == "Z + Z/2"
    assert FgAbelianGroup.zero().is_trivial
    assert not FgAbelianGroup.cyclic(2).is_trivial


def test_group_validation():
    with pytest.raises(ValueError):
        FgAbelianGroup.cyclic(1)
    with pytest.raises(ValueError):
        FgAbelianGroup(-1, ())
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (3, 2))  # not a divisibility chain
    # exact input only: no floats, strings or bools, no silent int()
    for free, torsion in [(1.5, ()), (True, ()), ("1", ()), (0, (2.0,)),
                          (0, (True,)), (0, ("2",)), (0, 5)]:
        with pytest.raises(ValueError):
            FgAbelianGroup(free, torsion)
    for rel in ([[1.5]], [[True]], [["a"]]):
        with pytest.raises(ValueError):
            FgAbelianGroup.from_presentation(1, rel)


def test_presentations_reduce_to_invariant_factors():
    P = FgAbelianGroup.from_presentation
    assert P(2, [[2, 0], [0, 3]]).torsion == (6,)
    assert P(2, [[2, 4], [0, 2]]).torsion == (2, 2)
    assert P(2, [[1, 2], [3, 4]]).torsion == (2,)
    assert P(1, [[0]]) == FgAbelianGroup.free(1)
    assert P(3, []) == FgAbelianGroup.free(3)
    assert P(2, [[2, 0]]) == FgAbelianGroup(1, (2,))
    assert P(1, [[5], [7]]).is_trivial  # gcd(5, 7) = 1


def test_presentation_invariant_factor_identities():
    # oracle: prod of factors = |det|, first factor = gcd of entries
    cases = [
        [[4, 2], [2, 4]],
        [[6, 0], [0, 10]],
        [[2, 1], [1, 2]],
        [[8, 4], [4, 8]],
        [[3, 1], [0, 9]],
    ]
    for rel in cases:
        det = abs(rel[0][0] * rel[1][1] - rel[0][1] * rel[1][0])
        g = FgAbelianGroup.from_presentation(2, rel)
        assert g.free_rank == 0
        # pad dropped unit factors back onto the chain
        factors = (1,) * (2 - len(g.torsion)) + g.torsion
        assert factors[0] * factors[1] == det
        entry_gcd = math.gcd(*(abs(e) for row in rel for e in row))
        assert factors[0] == entry_gcd
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_p_torsion_count():
    g = FgAbelianGroup.from_presentation(1, [[12]])
    assert g.torsion == (12,)
    assert g.p_torsion_count(2) == 1
    assert g.p_torsion_count(3) == 1
    assert g.p_torsion_count(5) == 0
    assert g.p_torsion_count(0) == 0
    assert FgAbelianGroup(2, (2, 4)).p_torsion_count(2) == 2


def test_group_json():
    assert FgAbelianGroup(1, (2, 4)).to_json_dict() == {
        "free": 1, "torsion": [2, 4]}
    assert FgAbelianGroup.zero().to_json_dict() == {"free": 0, "torsion": []}


def test_graded_group():
    gd = GradedAbelianGroup.from_dict({
        0: FgAbelianGroup.free(1),
        2: FgAbelianGroup.cyclic(2),
        3: FgAbelianGroup.free(1),
    })
    assert gd == RP3
    assert gd.degrees() == [0, 2, 3]
    assert gd.max_degree == 3
    assert gd.group(1).is_trivial
    assert str(gd.group(2)) == "Z/2"
    assert gd.to_json_dict() == {
        "0": {"free": 1, "torsion": []},
        "2": {"free": 0, "torsion": [2]},
        "3": {"free": 1, "torsion": []},
    }
    with pytest.raises(ValueError):
        GradedAbelianGroup.from_dict({-1: FgAbelianGroup.free(1)})


def test_link_presets():
    s3 = link_preset("s3")
    assert {i: str(s3.group(i)) for i in s3.degrees()} == {0: "Z", 3: "Z"}
    s1 = link_preset("s1")
    assert {i: str(s1.group(i)) for i in s1.degrees()} == {0: "Z", 1: "Z"}
    lens = link_preset("lens:4")
    assert {i: str(lens.group(i)) for i in lens.degrees()} == {
        0: "Z", 2: "Z/4", 3: "Z"}
    assert link_preset("lens:2") == RP3
    with pytest.raises(ValueError):
        link_preset("torus")
    with pytest.raises(ValueError):
        link_preset("lens:1")


def test_uct_field_dimensions():
    assert uct_field(RP3, 2) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert uct_field(RP3, 3) == {0: 1, 1: 0, 2: 0, 3: 1}
    assert uct_field(RP3, 0) == {0: 1, 1: 0, 2: 0, 3: 1}
    lens = link_preset("lens:6")
    assert uct_field(lens, 2) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert uct_field(lens, 3) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert uct_field(lens, 5) == {0: 1, 1: 0, 2: 0, 3: 1}
    with pytest.raises(ValueError):
        uct_field(RP3, 4)


# --------------------------------------------------------- stalk tables

def test_field_table_characteristic_two():
    t = cone_ic_stalks_field(RP3, 2, 2)
    assert (t.kind, t.characteristic, t.cone_dimension) == ("field", 2, 2)
    assert t.open_stratum == ((-2, 1), (-1, 0))
    assert t.point_stratum == ((-2, 1), (-1, 1))
    assert t.open_support() == [-2]
    assert t.point_support() == [-2, -1]
    assert t.render_text() == (
        "degree  -2  -1\n"
        "  open   k   0\n"
        " point   k   k\n")


def test_field_table_characteristic_three():
    t = cone_ic_stalks_field(RP3, 2, 3)
    assert t.point_stratum == ((-2, 1), (-1, 0))
    assert t.point_support() == [-2]
    assert t.render_text() == (
        "degree  -2  -1\n"
        "  open   k   0\n"
        " point   k   0\n")


def test_integral_table():
    t = cone_ic_integral(RP3, 2)
    assert (t.kind, t.characteristic) == ("integral", None)
    assert t.open_support() == [-2]
    assert t.point_support() == [-2]
    assert str(dict(t.point_stratum)[-2]) == "Z"
    assert dict(t.point_stratum)[-1].is_trivial
    assert t.render_text() == (
        "degree  -2  -1\n"
        "  open   Z   0\n"
        " point   Z   0\n")


def test_plus_table_carries_torsion_in_degree_zero():
    t = cone_ic_plus(RP3, 2)
    assert t.kind == "integral"
    assert t.point_support() == [-2, 0]
    assert str(dict(t.point_stratum)[0]) == "Z/2"
    assert dict(t.open_stratum)[0].is_trivial
    assert t.render_text() == (
        "degree  -2  -1    0\n"
        "  open   Z   0    0\n"
        " point   Z   0  Z/2\n")


def test_pushforward_table():
    t = cone_pushforward_stalks(RP3, 2, 2)
    assert t.open_stratum == ((-2, 1), (-1, 0), (0, 0), (1, 0))
    assert t.point_stratum == ((-2, 1), (-1, 1), (0, 1), (1, 1))
    assert t.render_text() == (
        "degree  -2  -1  0  1\n"
        "  open   k   0  0  0\n"
        " point   k   k  k  k\n")


def test_table_json():
    body = cone_ic_integral(RP3, 2).to_json_dict()
    assert body == {
        "schema": "weylkit/stalk-table/1",
        "kind": "integral",
        "characteristic": None,
        "cone_dimension": 2,
        "open": {"-2": {"free": 1, "torsion": []},
                 "-1": {"free": 0, "torsion": []}},
        "point": {"-2": {"free": 1, "torsion": []},
                  "-1": {"free": 0, "torsion": []}},
    }


def test_mod_p_simple_detects_torsion_primes():
    assert [p for p in (2, 3, 5, 7) if not mod_p_simple(RP3, 2, p)] == [2]
    lens = link_preset("lens:6")
    assert [p for p in (2, 3, 5, 7) if not mod_p_simple(lens, 2, p)] == [2, 3]
    s3 = link_preset("s3")
    # torsion-free link: simple in every characteristic
    assert all(mod_p_simple(s3, 2, p) for p in (2, 3, 5))


def test_perverse_constraints():
    assert perverse_constraint_check(cone_ic_stalks_field(RP3, 2, 2))
    assert perverse_constraint_check(cone_ic_integral(RP3, 2), strict=True)
    plus = cone_ic_plus(RP3, 2)
    assert perverse_constraint_check(plus)
    assert not perverse_constraint_check(plus, strict=True)
    push = cone_pushforward_stalks(RP3, 2, 2)
    assert not perverse_constraint_check(push)


def test_cone_dimension_validation():
    with pytest.raises(ValueError):
        cone_ic_stalks_field(RP3, 0, 2)
    high = GradedAbelianGroup.from_dict({
        0: FgAbelianGroup.free(1), 5: FgAbelianGroup.free(1)})
    with pytest.raises(ValueError):
        cone_ic_stalks_field(high, 2, 2)  # degrees exceed 2d-1
    with pytest.raises(ValueError):
        cone_ic_stalks_field(RP3, 2, 6)  # characteristic must be prime


def test_higher_cone_dimension_window():
    # d = 3 over a 3-sphere link: lone entry in degree -3
    s3 = link_preset("s3")
    t = cone_ic_stalks_field(s3, 2, 5)
    assert t.open_support() == [-2]
    assert t.point_support() == [-2]


def test_intersection_forms():
    assert [p for p in (2, 3, 5, 7)
            if not intersection_form_semisimple([[-2]], p)] == [2]
    # det = 3 degenerates exactly at 3
    assert [p for p in (2, 3, 5)
            if not intersection_form_semisimple([[2, 1], [1, 2]], p)] == [3]
    assert intersection_form_semisimple([], 5)
    assert intersection_form_semisimple([[1]], 2)
    with pytest.raises(ValueError):
        intersection_form_semisimple([[1, 2]], 5)
    with pytest.raises(ValueError):
        intersection_form_semisimple([[0, 1], [2, 0]], 5)
    for form in ([["a"]], [[1.5]], [[True]], [[2, 1.0], [1.0, 2]]):
        with pytest.raises(ValueError):
            intersection_form_semisimple(form, 3)


def test_singular_form_takes_one_elimination(monkeypatch):
    # the affine A11 Cartan form: the determinant alone, with none of the
    # adjugate's 144 cofactor determinants
    calls = []
    bareiss = weylkit._exact._bareiss

    def counted(rows, n):
        calls.append(n)
        return bareiss(rows, n)

    monkeypatch.setattr(weylkit._exact, "_bareiss", counted)
    for p in (0, 2, 3):
        calls.clear()
        assert not intersection_form_semisimple(affine_cartan(12), p)
        assert calls == [12]


@pytest.mark.parametrize("form", [
    [[-2]], [[2, 1], [1, 2]], [], [[1]], [[2, -1], [-1, 2]],
    [[4, 2], [2, 1]], affine_cartan(3), affine_cartan(12),
    [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [[0, 5], [5, 0]]])
def test_semisimple_reads_the_adjugate_determinant(form):
    d = det_adjugate(form)[0]
    for p in (0, 2, 3, 5, 7):
        assert intersection_form_semisimple(form, p) == (
            d % p != 0 if p else d != 0)


def test_cotangent_self_intersection():
    assert cotangent_self_intersection(2) == -2
    assert cotangent_self_intersection(-3) == 3
    assert cotangent_self_intersection(0) == 0
