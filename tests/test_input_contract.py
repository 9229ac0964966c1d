"""The input contract at the public boundary.

Each kind of argument is checked by one function.  An exact int, with
or without a lower bound, and a prime are checked in
``weylkit._exact``, and so is the kind of every argument: a root datum,
a coroot, a weight, a Weyl group element or another value object of
the package (a character, a Hecke element, a polynomial, a graded
group, a stalk table, a decomposition matrix), by ``_exact.check_kind``.
The rank of a weight is checked in ``weylkit.lattice``, and the datum
of an element in ``weylkit.coxeter``.  A float, a bool or any other
non-int where an int is expected is a ValueError, and so is a value out
of range, a weight of another rank or an element of another datum; an
object of the wrong kind is a TypeError.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylkit
from weylkit import (
    Character,
    Coroot,
    FgAbelianGroup,
    GradedAbelianGroup,
    HeckeAlgebra,
    LaurentPolynomial,
    ResourceLimitError,
    Weight,
    affine_hecke,
    bar,
    bruhat_leq,
    build_root_datum,
    cone_ic_integral,
    cone_ic_stalks_field,
    cone_pushforward_stalks,
    cotangent_self_intersection,
    count_p_restricted_in_orbit,
    coxeter_number,
    decomposition_matrix,
    dimension,
    dominant_orbit,
    dot_p,
    dual_root_datum,
    element_to_json,
    embed_finite,
    enumerate_finite_weyl,
    evaluate_at_one,
    expand_in_standard_basis,
    finite_hecke,
    frobenius_twist,
    generators,
    identity_element,
    index_of_connection,
    intersection_form_semisimple,
    inverse,
    invert_decomposition,
    is_dominant,
    is_min_coset_rep_fW,
    is_p_regular,
    is_p_restricted,
    is_weyl_invariant,
    jantzen_condition,
    kl_basis_element,
    kl_polynomial,
    kl_vector_finite,
    lcf_character,
    lcf_coefficients,
    length,
    link_preset,
    longest_finite_element,
    mod_p_simple,
    mult_standard_by_gen,
    multiply,
    pairing,
    perverse_constraint_check,
    reduced_word,
    rho,
    same_block,
    sl2_lcf_valid,
    sl2_simple_character,
    sl3_multiplicity_fixtures,
    steinberg_digits,
    tensor,
    trivial_character,
    uct_field,
    weyl_character,
)
from weylkit._exact import base_p_digits, is_prime

A1, A2, B2 = (build_root_datum(s) for s in ("A1", "A2", "B2"))
S1 = generators(A2)[0]
X = dominant_orbit(A2, 5, 3)[1][0]  # a dominant alcove of A2
W = Weight((1, 1))
ALG = affine_hecke(A2)
ONE = trivial_character(1)
RP3 = link_preset("rp3")
M = decomposition_matrix(A1, 5, max_len=4)
W0 = M.weights()[0]  # the labels' weights are 0, 8, 10, 18 and 20


# ---------------------------- documented errors, not bare ones or results

@pytest.mark.parametrize("call,error,message", [
    (lambda: same_block(A2, Weight((1,)), Weight((1, 1)), 5), ValueError,
     "weight of rank 1 where rank 2 is expected"),
    (lambda: length("s"), TypeError, "got str"),
    (lambda: reduced_word(None), TypeError, "got NoneType"),
    (lambda: bruhat_leq("a", X), TypeError, "got str"),
    (lambda: inverse(None), TypeError, "got NoneType"),
    (lambda: is_min_coset_rep_fW(None), TypeError, "got NoneType"),
    (lambda: element_to_json(None), TypeError, "got NoneType"),
    (lambda: multiply(X, "x"), TypeError, "got str"),
    (lambda: kl_basis_element("x"), TypeError, "got str"),
    (lambda: embed_finite("x"), TypeError,
     "expected a FiniteWeylElement, got str"),
    # a foreign operand is unsupported, and a scalar product asks
    # exact_ints: neither yields a result or a bare AttributeError
    (lambda: ONE + None, TypeError, "unsupported operand"),
    (lambda: ONE - 3, TypeError, "unsupported operand"),
    (lambda: LaurentPolynomial.one() + 3, TypeError, "unsupported operand"),
    (lambda: kl_basis_element(X) + None, TypeError, "unsupported operand"),
    (lambda: True * Weight((1, -1)), TypeError, "unsupported operand"),
    (lambda: 2.0 * W, TypeError, "unsupported operand"),
    # a wrong kind of value object is a TypeError
    (lambda: tensor(ONE, "x"), TypeError, "expected a Character, got str"),
    (lambda: tensor("x", ONE), TypeError, "expected a Character, got str"),
    (lambda: dimension("x"), TypeError, "expected a Character, got str"),
    (lambda: frobenius_twist("x", 3), TypeError,
     "expected a Character, got str"),
    (lambda: is_weyl_invariant(A1, "x"), TypeError,
     "expected a Character, got str"),
    (lambda: expand_in_standard_basis(A1, "x"), TypeError,
     "expected a Character, got str"),
    (lambda: bar("x"), TypeError, "expected a HeckeElement, got str"),
    (lambda: mult_standard_by_gen("x", 0), TypeError,
     "expected a HeckeElement, got str"),
    (lambda: evaluate_at_one("x"), TypeError,
     "expected a LaurentPolynomial, got str"),
    (lambda: uct_field("x", 2), TypeError,
     "expected a GradedAbelianGroup, got str"),
    (lambda: cone_ic_integral("x", 2), TypeError,
     "expected a GradedAbelianGroup, got str"),
    (lambda: cone_ic_stalks_field("x", 2, 2), TypeError,
     "expected a GradedAbelianGroup, got str"),
    (lambda: mod_p_simple("x", 2, 2), TypeError,
     "expected a GradedAbelianGroup, got str"),
    (lambda: perverse_constraint_check("x"), TypeError,
     "expected a StalkTable, got str"),
    (lambda: GradedAbelianGroup(((0, "x"),)), TypeError,
     "expected an FgAbelianGroup, got str"),
    (lambda: invert_decomposition("x"), TypeError,
     "expected a DecompositionMatrix, got str"),
    # a wrong kind of root datum, coroot or series name too
    (lambda: weyl_character("x", W), TypeError,
     "expected a RootDatum, got str"),
    (lambda: generators("x"), TypeError, "expected a RootDatum, got str"),
    (lambda: dominant_orbit("x", 5, 2), TypeError,
     "expected a RootDatum, got str"),
    (lambda: coxeter_number("x"), TypeError, "expected a RootDatum, got str"),
    (lambda: rho("x"), TypeError, "expected a RootDatum, got str"),
    (lambda: decomposition_matrix("x", 5, max_len=2), TypeError,
     "expected a RootDatum, got str"),
    (lambda: affine_hecke("x"), TypeError, "expected a RootDatum, got str"),
    (lambda: HeckeAlgebra("x"), TypeError, "expected a RootDatum, got str"),
    (lambda: is_p_regular("x", W, 5), TypeError,
     "expected a RootDatum, got str"),
    (lambda: pairing(W, "x"), TypeError, "expected a Coroot, got str"),
    (lambda: build_root_datum(3), TypeError, "expected a str, got int"),
    (lambda: build_root_datum("A1", None), TypeError,
     "expected a str, got NoneType"),
    # a value object's own methods follow the contract too
    (lambda: LaurentPolynomial.v().coefficient("x"), ValueError,
     "exponent must be int, got 'x'"),
    (lambda: FgAbelianGroup.cyclic(2).p_torsion_count(-2), ValueError,
     "p must be at least 0, got -2"),
    (lambda: M.entry("x", W0), TypeError, "expected a Weight, got str"),
    (lambda: M.entry(W0, Weight((1,))), ValueError,
     r"no label has the weight \(1,\)"),
], ids=["same_block-rank", "length-str", "reduced_word-None",
        "bruhat_leq-str", "inverse-None", "is_min_coset_rep_fW-None",
        "element_to_json-None", "multiply-str", "kl_basis_element-str",
        "embed_finite-str",
        "Character-add-None", "Character-sub-int",
        "LaurentPolynomial-add-int", "HeckeElement-add-None",
        "Weight-rmul-bool", "Weight-rmul-float", "tensor-right-str",
        "tensor-left-str", "dimension-str", "frobenius_twist-str",
        "is_weyl_invariant-str", "expand_in_standard_basis-str", "bar-str",
        "mult_standard_by_gen-str", "evaluate_at_one-str", "uct_field-str",
        "cone_ic_integral-str", "cone_ic_stalks_field-str",
        "mod_p_simple-str", "perverse_constraint_check-str",
        "GradedAbelianGroup-str", "invert_decomposition-str",
        "weyl_character-datum-str", "generators-datum-str",
        "dominant_orbit-datum-str", "coxeter_number-datum-str",
        "rho-datum-str", "decomposition_matrix-datum-str",
        "affine_hecke-datum-str", "HeckeAlgebra-datum-str",
        "is_p_regular-datum-str", "pairing-coroot-str",
        "build_root_datum-series-int", "build_root_datum-variant-None",
        "LaurentPolynomial.coefficient-str", "p_torsion_count-negative",
        "DecompositionMatrix.entry-str",
        "DecompositionMatrix.entry-unlabelled"])
def test_bare_errors_are_documented_ones(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: decomposition_matrix(A2, 5, max_len=3.0),
     "max_len must be int, got 3.0"),
    (lambda: decomposition_matrix(A2, 5, max_weight=3.5),
     "max_weight must be int, got 3.5"),
    (lambda: dominant_orbit(A2, 5, 2.5), "max_len must be int, got 2.5"),
    (lambda: lcf_coefficients(X, 5.5), "p must be int, got 5.5"),
    (lambda: is_p_regular(A2, W, 5.0), "p must be int, got 5.0"),
    (lambda: same_block(A2, W, W, 5.0), "p must be int, got 5.0"),
    (lambda: is_p_restricted(W, 5.0), "p must be int, got 5.0"),
    (lambda: dot_p(X, W, True), "p must be int, got True"),
    (lambda: base_p_digits(4, 5.0), "p must be int, got 5.0"),
    (lambda: sl2_lcf_valid(4, 5.0), "p must be int, got 5.0"),
    (lambda: decomposition_matrix(A2, 5.0, max_len=3),
     "p must be int, got 5.0"),
    (lambda: count_p_restricted_in_orbit(A2, 5.0), "p must be int, got 5.0"),
    (lambda: cotangent_self_intersection(2.5),
     "Euler characteristic must be int, got 2.5"),
    (lambda: LaurentPolynomial.v().coefficient(1.0),
     "exponent must be int, got 1.0"),
    (lambda: LaurentPolynomial.v().coefficient(True),
     "exponent must be int, got True"),
    (lambda: RP3.group(2.0), "degree must be int, got 2.0"),
    (lambda: RP3.group(True), "degree must be int, got True"),
    (lambda: FgAbelianGroup.cyclic(2).p_torsion_count(2.0),
     "p must be int, got 2.0"),
], ids=["decomposition_matrix-max_len", "decomposition_matrix-max_weight",
        "dominant_orbit-max_len", "lcf_coefficients-p", "is_p_regular-p",
        "same_block-p", "is_p_restricted-p", "dot_p-p", "base_p_digits-p",
        "sl2_lcf_valid-p", "decomposition_matrix-p",
        "count_p_restricted_in_orbit-p",
        "cotangent_self_intersection-euler_characteristic",
        "LaurentPolynomial.coefficient-float",
        "LaurentPolynomial.coefficient-bool", "GradedAbelianGroup.group-float",
        "GradedAbelianGroup.group-bool", "p_torsion_count-float"])
def test_floats_and_bools_are_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# ----------------------------------------- bad arguments at the boundary

# values of the wrong type for an int, integral floats among them
NOT_INT = st.one_of(st.floats(), st.integers(-3, 20).map(float),
                    st.booleans(), st.text(max_size=3), st.none())
# objects of the wrong kind for an element or a weight
WRONG_KIND = st.one_of(st.floats(), st.booleans(), st.text(max_size=3),
                       st.none(), st.just((1, 1)), st.just(A2))


def below(low):
    """Ints below the bound, and non-ints: each a ValueError."""
    return st.one_of(NOT_INT, st.integers(max_value=low - 1)).map(
        lambda v: (v, ValueError))


COMPOSITE = st.integers(4, 60).filter(lambda n: not is_prime(n))
NOT_PRIME = st.one_of(below(2), COMPOSITE.map(lambda v: (v, ValueError)))
# a characteristic is 0 or a prime
NOT_CHARACTERISTIC = st.one_of(
    below(0), COMPOSITE.map(lambda v: (v, ValueError)))


def elements(*other_data):
    """Objects of the wrong kind, and elements of the other data."""
    kinds = WRONG_KIND.map(lambda v: (v, TypeError))
    others = [x for d in other_data for x in generators(d)]
    if not others:
        return kinds
    return st.one_of(kinds, st.sampled_from(others).map(
        lambda v: (v, ValueError)))


# objects of the wrong kind for a root datum or a coroot
DATA = st.one_of(WRONG_KIND.filter(lambda v: v is not A2),
                 st.just(W)).map(lambda v: (v, TypeError))


# a generator is an element or its index, so a bool there is a non-int
GENERATORS = elements(B2, A1).map(
    lambda ve: (ve[0], ValueError) if type(ve[0]) is bool else ve)


def weights(rank=None):
    """Objects of the wrong kind, and weights of another rank."""
    kinds = WRONG_KIND.map(lambda v: (v, TypeError))
    if rank is None:
        return kinds
    return st.one_of(kinds, st.lists(st.integers(-3, 3), max_size=4).filter(
        lambda c: len(c) != rank).map(lambda c: (Weight(tuple(c)),
                                                ValueError)))


# (function, argument, call with the bad value, its bad values); every
# function of weylkit.__all__ that takes a datum, a coroot, an element,
# a weight, p, n, max_len, max_weight or max_terms is listed, with each
# such argument
CASES = [
    ("coxeter_number", "datum", coxeter_number, DATA),
    ("dual_root_datum", "datum", dual_root_datum, DATA),
    ("index_of_connection", "datum", index_of_connection, DATA),
    ("rho", "datum", rho, DATA),
    ("pairing", "coroot", lambda v: pairing(W, v), DATA),
    ("count_p_restricted_in_orbit", "datum",
     lambda v: count_p_restricted_in_orbit(v, 5), DATA),
    ("dominant_orbit", "datum", lambda v: dominant_orbit(v, 5, 2), DATA),
    ("enumerate_finite_weyl", "datum", enumerate_finite_weyl, DATA),
    ("generators", "datum", generators, DATA),
    ("identity_element", "datum", identity_element, DATA),
    ("is_p_regular", "datum", lambda v: is_p_regular(v, W, 5), DATA),
    ("longest_finite_element", "datum", longest_finite_element, DATA),
    ("same_block", "datum", lambda v: same_block(v, W, W, 5), DATA),
    ("affine_hecke", "datum", affine_hecke, DATA),
    ("finite_hecke", "datum", finite_hecke, DATA),
    ("HeckeAlgebra", "datum", HeckeAlgebra, DATA),
    ("expand_in_standard_basis", "datum",
     lambda v: expand_in_standard_basis(v, ONE), DATA),
    ("is_weyl_invariant", "datum", lambda v: is_weyl_invariant(v, ONE),
     DATA),
    ("weyl_character", "datum", lambda v: weyl_character(v, W), DATA),
    ("decomposition_matrix", "datum",
     lambda v: decomposition_matrix(v, 5, max_len=2), DATA),
    ("is_dominant", "weight", is_dominant, weights()),
    ("is_p_restricted", "weight", lambda v: is_p_restricted(v, 5), weights()),
    ("is_p_restricted", "p", lambda v: is_p_restricted(W, v), below(2)),
    ("pairing", "weight", lambda v: pairing(v, Coroot((1, 1))), weights(2)),
    ("bruhat_leq", "x", lambda v: bruhat_leq(v, X), elements(B2, A1)),
    ("bruhat_leq", "y", lambda v: bruhat_leq(X, v), elements(B2, A1)),
    ("count_p_restricted_in_orbit", "p",
     lambda v: count_p_restricted_in_orbit(A2, v), below(3)),
    ("dominant_orbit", "p", lambda v: dominant_orbit(A2, v, 2), below(3)),
    ("dominant_orbit", "max_len", lambda v: dominant_orbit(A2, 5, v),
     below(0)),
    ("dot_p", "x", lambda v: dot_p(v, W, 5), elements(A1)),
    ("dot_p", "weight", lambda v: dot_p(X, v, 5), weights(2)),
    ("dot_p", "p", lambda v: dot_p(X, W, v), below(1)),
    ("element_to_json", "x", element_to_json, elements()),
    ("embed_finite", "w", embed_finite, elements()),
    ("inverse", "x", inverse, elements()),
    ("is_min_coset_rep_fW", "x", is_min_coset_rep_fW, elements()),
    ("is_p_regular", "weight", lambda v: is_p_regular(A2, v, 5), weights(2)),
    ("is_p_regular", "p", lambda v: is_p_regular(A2, W, v), below(1)),
    ("jantzen_condition", "x", lambda v: jantzen_condition(v, 5), elements()),
    ("jantzen_condition", "p", lambda v: jantzen_condition(X, v), below(1)),
    ("length", "x", length, elements()),
    ("multiply", "x", lambda v: multiply(v, X), elements(B2, A1)),
    ("multiply", "y", lambda v: multiply(X, v), elements(B2, A1)),
    ("reduced_word", "x", reduced_word, elements()),
    ("same_block", "lam", lambda v: same_block(A2, v, W, 5), weights(2)),
    ("same_block", "mu", lambda v: same_block(A2, W, v, 5), weights(2)),
    ("same_block", "p", lambda v: same_block(A2, W, W, v), below(1)),
    ("kl_basis_element", "x", kl_basis_element, elements()),
    ("kl_polynomial", "y", lambda v: kl_polynomial(v, X), elements(B2, A1)),
    ("kl_polynomial", "x", lambda v: kl_polynomial(X, v), elements(B2, A1)),
    ("mult_standard_by_gen", "s",
     lambda v: mult_standard_by_gen(ALG.unit(), v), GENERATORS),
    ("HeckeAlgebra.standard_basis_element", "x",
     ALG.standard_basis_element, elements(B2, A1)),
    ("HeckeAlgebra.kl_basis_element", "x", ALG.kl_basis_element,
     elements(B2, A1)),
    ("HeckeElement.coefficient", "x", ALG.unit().coefficient,
     elements(B2, A1)),
    ("FiniteWeylElement.apply", "weight", S1.finite.apply, weights(2)),
    ("Character", "terms",
     lambda v: Character(((Weight((-9, -9)), 1), (v, 1))), weights(2)),
    ("Character.coefficient", "w", trivial_character(2).coefficient,
     weights(2)),
    ("frobenius_twist", "p", lambda v: frobenius_twist(ONE, v), below(1)),
    ("sl2_simple_character", "n", lambda v: sl2_simple_character(v, 5),
     below(0)),
    ("sl2_simple_character", "p", lambda v: sl2_simple_character(3, v),
     NOT_PRIME),
    ("sl2_simple_character", "max_terms",
     lambda v: sl2_simple_character(3, 5, v), below(1)),
    ("steinberg_digits", "lam", lambda v: steinberg_digits(v, 5), weights()),
    ("steinberg_digits", "p", lambda v: steinberg_digits(W, v), NOT_PRIME),
    ("tensor", "max_terms", lambda v: tensor(ONE, ONE, v), below(1)),
    ("weyl_character", "highest", lambda v: weyl_character(A2, v),
     weights(2)),
    ("weyl_character", "max_terms", lambda v: weyl_character(A2, W, v),
     below(1)),
    ("decomposition_matrix", "p",
     lambda v: decomposition_matrix(A2, v, max_len=2), below(3)),
    ("decomposition_matrix", "max_len",
     lambda v: decomposition_matrix(A2, 5, max_len=v), below(0)),
    ("decomposition_matrix", "max_weight",
     lambda v: decomposition_matrix(A2, 5, max_weight=v), below(0)),
    ("kl_vector_finite", "x", kl_vector_finite, elements()),
    ("lcf_character", "x", lambda v: lcf_character(v, 5), elements()),
    ("lcf_character", "p", lambda v: lcf_character(X, v), below(3)),
    ("lcf_coefficients", "x", lambda v: lcf_coefficients(v, 5), elements()),
    ("lcf_coefficients", "p", lambda v: lcf_coefficients(X, v), below(3)),
    ("sl2_lcf_valid", "n", lambda v: sl2_lcf_valid(v, 5), below(0)),
    ("sl2_lcf_valid", "p", lambda v: sl2_lcf_valid(4, v), NOT_PRIME),
    ("sl3_multiplicity_fixtures", "p", sl3_multiplicity_fixtures, below(3)),
    ("uct_field", "p", lambda v: uct_field(RP3, v), NOT_CHARACTERISTIC),
    ("cone_ic_stalks_field", "p", lambda v: cone_ic_stalks_field(RP3, 2, v),
     NOT_CHARACTERISTIC),
    ("cone_pushforward_stalks", "p",
     lambda v: cone_pushforward_stalks(RP3, 2, v), NOT_CHARACTERISTIC),
    ("mod_p_simple", "p", lambda v: mod_p_simple(RP3, 2, v),
     NOT_CHARACTERISTIC),
    ("intersection_form_semisimple", "p",
     lambda v: intersection_form_semisimple([[-2]], v), NOT_CHARACTERISTIC),
]

# the argument names of the kinds above; evaluate_at_one's p is a
# Laurent polynomial, not a characteristic
CHECKED = {"datum", "coroot", "x", "y", "w", "weight", "lam", "mu",
           "highest", "p", "n", "max_len", "max_weight", "max_terms"}


def test_every_checked_argument_of_the_public_functions_is_listed():
    listed = {(fn, arg) for fn, arg, _, _ in CASES}
    public = {(name, arg) for name in weylkit.__all__
              if inspect.isfunction(getattr(weylkit, name))
              and name != "evaluate_at_one"
              for arg in inspect.signature(getattr(weylkit, name)).parameters
              if arg in CHECKED}
    assert public - listed == set()


@pytest.mark.parametrize("call,bad", [case[2:] for case in CASES],
                         ids=[f"{fn}-{arg}" for fn, arg, _, _ in CASES])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_bad_arguments_raise_the_documented_error(call, bad, data):
    # a wrong kind of element or weight is a TypeError; a non-int, a
    # value out of range, another rank or another datum a ValueError;
    # no bad argument yields a result
    value, error = data.draw(bad)
    with pytest.raises((ValueError, TypeError, ResourceLimitError)) as got:
        call(value)
    assert issubclass(got.type, error), (value, got.value)
