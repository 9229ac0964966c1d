"""Root datum construction, pairings, and derived constants."""

import pytest

from weylkit import (
    Coroot,
    UnsupportedDatumError,
    Weight,
    build_root_datum,
    coxeter_number,
    dual_root_datum,
    index_of_connection,
    is_dominant,
    is_p_restricted,
    pairing,
    rho,
)

SERIES = ("A1", "A2", "A3", "B2", "C2", "G2")


def test_cartan_matrices():
    assert build_root_datum("A1").cartan == ((2,),)
    assert build_root_datum("A2").cartan == ((2, -1), (-1, 2))
    assert build_root_datum("A3").cartan == (
        (2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert build_root_datum("B2").cartan == ((2, -1), (-2, 2))
    assert build_root_datum("C2").cartan == ((2, -2), (-1, 2))
    assert build_root_datum("G2").cartan == ((2, -3), (-1, 2))


def test_unsupported_series_rejected():
    # one spelling per series: no leading zero, ASCII digits only
    for bad in ("F4", "D4", "E6", "A0", "X9", "B3", "", "A01", "A001",
                "A\u0663"):
        with pytest.raises(UnsupportedDatumError):
            build_root_datum(bad)
    with pytest.raises(ValueError):
        build_root_datum("A2", "simply-connected")


def test_positive_root_counts():
    expected = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "C2": 4, "G2": 6}
    for series, count in expected.items():
        assert len(build_root_datum(series).positive_roots) == count


def test_simple_roots_come_first_in_order():
    for series in SERIES:
        d = build_root_datum(series)
        assert d.simple_indices == tuple(range(d.rank))
        for i in range(d.rank):
            wt, _ = d.positive_roots[i]
            # weight coords of a simple root = Cartan column
            assert wt.coords == tuple(d.cartan[a][i] for a in range(d.rank))
            assert d.root_alpha[i] == tuple(
                1 if j == i else 0 for j in range(d.rank))


def test_root_coroot_pairing_is_two():
    for series in SERIES:
        d = build_root_datum(series)
        for wt, c in d.positive_roots:
            assert pairing(wt, c) == 2


def test_pairing_rank_mismatch():
    with pytest.raises(ValueError):
        pairing(Weight((1, 0)), Coroot((1,)))


def test_weight_arithmetic():
    a = Weight((1, 2))
    b = Weight((3, -1))
    assert (a + b).coords == (4, 1)
    assert (a - b).coords == (-2, 3)
    assert (-a).coords == (-1, -2)
    assert (3 * a).coords == (3, 6)
    with pytest.raises(ValueError):
        a + Weight((1,))


def test_rho_simply_connected_is_all_ones():
    for series in SERIES:
        d = build_root_datum(series)
        assert rho(d).coords == (1,) * d.rank


def test_rho_adjoint():
    # half-sum of the single root of rank one is not in the root lattice
    with pytest.raises(ValueError):
        rho(build_root_datum("A1", "adjoint"))
    # but the rank-two half-sum is a sum of simple roots
    assert rho(build_root_datum("A2", "adjoint")).coords == (1, 1)


def test_coxeter_numbers():
    expected = {"A1": 2, "A2": 3, "A3": 4, "B2": 4, "C2": 4, "G2": 6}
    for series, h in expected.items():
        d = build_root_datum(series)
        assert coxeter_number(d) == h
        # cross-check: h * rank = number of roots
        assert h * d.rank == 2 * len(d.positive_roots)


def test_index_of_connection():
    expected = {"A1": 2, "A2": 3, "A3": 4, "B2": 2, "C2": 2, "G2": 1}
    for series, kappa in expected.items():
        assert index_of_connection(build_root_datum(series)) == kappa
        # the adjoint lattice is the root lattice: index 1
        assert index_of_connection(build_root_datum(series, "adjoint")) == 1


def test_highest_root_and_coroot():
    d = build_root_datum("B2")
    # highest root is long (coroot of height 2), the dominant short
    # root carries the highest coroot (height 3)
    assert d.highest_root()[1].coords == (1, 1)
    assert d.highest_coroot() == (Weight((1, 0)), Coroot((2, 1)))
    g = build_root_datum("G2")
    assert g.highest_root()[0].coords == (0, 1)
    assert g.highest_coroot()[1].coords == (2, 3)
    a = build_root_datum("A2")
    assert a.highest_root() == (Weight((1, 1)), Coroot((1, 1)))
    assert a.highest_root() == a.highest_coroot()


def test_dominance():
    assert is_dominant(Weight((0, 0)))
    assert is_dominant(Weight((3, 1)))
    assert not is_dominant(Weight((-1, 2)))


def test_p_restricted():
    assert is_p_restricted(Weight((4,)), 5)
    assert not is_p_restricted(Weight((5,)), 5)
    assert not is_p_restricted(Weight((-1,)), 5)
    assert is_p_restricted(Weight((1, 0)), 2)
    with pytest.raises(ValueError):
        is_p_restricted(Weight((0,)), 1)


def test_duality():
    db = dual_root_datum(build_root_datum("B2", "sc"))
    assert (db.series, db.variant) == ("C2", "adjoint")
    assert db.cartan == build_root_datum("C2").cartan
    dd = dual_root_datum(db)
    assert (dd.series, dd.variant) == ("B2", "sc")
    assert dual_root_datum(build_root_datum("A2", "adjoint")).variant == "sc"
    for series in SERIES:
        d = build_root_datum(series)
        dual = dual_root_datum(d)
        assert len(dual.positive_roots) == len(d.positive_roots)
        assert dual_root_datum(dual) == d


def test_adjoint_lattice_basis():
    d = build_root_datum("A2", "adjoint")
    # basis columns are the simple roots in weight coordinates
    assert d.lattice_basis == ((2, -1), (-1, 2))
    assert build_root_datum("A2").lattice_basis == ((1, 0), (0, 1))


def test_json_shape():
    body = build_root_datum("A2").as_json_dict()
    assert sorted(body) == ["cartan", "positive_roots", "rank", "series",
                            "variant"]
    assert body["rank"] == 2


def test_datum_hash_and_equality():
    a = build_root_datum("A2")
    b = build_root_datum("A2")
    assert a == b and hash(a) == hash(b)
    assert a != build_root_datum("A2", "adjoint")


@pytest.mark.parametrize("cls", [Weight, Coroot])
@pytest.mark.parametrize("coords", [(1.5, 0), (True, 1), (1, False),
                                    (2.0,), ("1",), (1, None)])
def test_non_int_coordinates_rejected(cls, coords):
    with pytest.raises(ValueError):
        cls(coords)


def test_int_coordinates_kept_exactly():
    assert Weight([1, -2]).coords == (1, -2)
    assert Coroot(iter([0, 3])).coords == (0, 3)
    assert Weight((10 ** 30,)).coords == (10 ** 30,)
    # a float scalar is an unsupported operand, as for every product
    with pytest.raises(TypeError):
        1.5 * Weight((1, 1))


def test_float_weight_never_reaches_a_character():
    from weylkit import dimension, weyl_character
    d = build_root_datum("A2")
    with pytest.raises(ValueError):
        dimension(weyl_character(d, Weight((1.7, 0))))
    assert dimension(weyl_character(d, Weight((1, 0)))) == 3


def test_trusted_weights_equal_checked_ones():
    # weyl_character builds its weights in bulk from ints it computed
    # itself, without the constructor's checks: each must be the same
    # value, with the same hash, as the checked weight of those
    # coordinates, as frozen and as slotted, and pickle and copy alike
    import copy
    import pickle
    import weakref
    from dataclasses import FrozenInstanceError
    from weylkit import weyl_character
    from weylkit.lattice import _weights
    coords = [(2, -1), (0,), (), (10 ** 30, -3, 7)]
    built = _weights(coords)
    assert [w.coords for w in built] == coords
    for w, c in zip(built, coords):
        checked = Weight(c)
        assert type(w) is Weight
        assert w == checked and hash(w) == hash(checked)
        with pytest.raises(FrozenInstanceError):
            w.coords = (0, 0)
        assert not hasattr(w, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(w)
        for twin in (pickle.loads(pickle.dumps(w)), copy.copy(w),
                     copy.deepcopy(w)):
            assert type(twin) is Weight
            assert twin == checked and hash(twin) == hash(checked)
    assert _weights([]) == []
    for series in ("A2", "G2"):
        d = build_root_datum(series)
        for mu, _ in weyl_character(d, Weight((2, 1))).terms:
            checked = Weight(mu.coords)
            assert mu == checked and hash(mu) == hash(checked)
            assert type(mu.coords) is tuple
