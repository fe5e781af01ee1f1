import itertools
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzmin import (
    FiniteLatticeAlgebra,
    GodelAlgebra,
    LukasiewiczAlgebra,
    ProductAlgebra,
    UsageError,
    bundled_lattice_path,
    check_axioms,
    load_lattice,
    make_algebra,
)

GODEL = GodelAlgebra()
PRODUCT = ProductAlgebra()
LUK = LukasiewiczAlgebra()
FAMILIES = [GODEL, PRODUCT, LUK]

degrees = st.fractions(min_value=0, max_value=1, max_denominator=30)


def all_triples(lat):
    return itertools.product(range(lat.size), repeat=3)


def boolean_lattice():
    return FiniteLatticeAlgebra(
        2, [[0, 0], [0, 1]], [[0, 1], [1, 1]], [[1, 1], [0, 1]], [1, 0]
    )


# --- operator golden values -------------------------------------------------

def test_tnorm_godel_is_min():
    assert GODEL.tnorm(F("0.7"), F("0.6")) == F("0.6")


def test_tnorm_lukasiewicz_truncated_sum():
    # max{0, 0.7 + 0.6 - 1}
    assert LUK.tnorm(F("0.7"), F("0.6")) == F("0.3")


@given(degrees)
def test_tnorm_top_identity(x):
    for alg in FAMILIES:
        assert alg.tnorm(x, alg.top) == x


def test_snorm_product():
    # x + y - x*y
    assert PRODUCT.snorm(F("0.5"), F("0.5")) == F("0.75")


def test_snorm_godel_is_max():
    assert GODEL.snorm(F("0.2"), F("0.9")) == F("0.9")


@given(degrees)
def test_snorm_bottom_identity(x):
    for alg in FAMILIES:
        assert alg.snorm(x, alg.bottom) == x


def test_residuum_product_divides():
    assert PRODUCT.residuum(F("0.8"), F("0.4")) == F("0.5")


def test_residuum_lukasiewicz():
    # min{1, 1 - 0.9 + 0.4}
    assert LUK.residuum(F("0.9"), F("0.4")) == F("0.5")


@given(degrees, degrees)
def test_residuum_top_iff_leq(a, b):
    for alg in FAMILIES:
        assert (alg.residuum(a, b) == alg.top) == (a <= b)


def test_negation_defaults():
    assert LUK.neg(F("0.3")) == F("0.7")
    assert GODEL.neg(F(0)) == F(1)
    assert GODEL.neg(F("0.3")) == F(0)
    assert PRODUCT.neg(F("0.3")) == F(0)


def test_baaz_projection():
    for alg in FAMILIES:
        assert alg.baaz(F(1)) == F(1)
        assert alg.baaz(F("0.999")) == F(0)
        assert alg.baaz(F(0)) == F(0)


def test_baaz_is_structural_not_table_driven():
    # even a lattice with a strange neg table crisps by equality with top
    lat = FiniteLatticeAlgebra(
        3,
        [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
        [[2, 2, 2], [0, 2, 2], [0, 1, 2]],
        [2, 2, 2],
    )
    assert lat.baaz(2) == 2
    assert lat.baaz(1) == 0
    assert lat.baaz(0) == 0


def big_tnorm(alg, values):
    """Fold tnorm over a finite multiset; the empty fold is top."""
    return reduce(alg.tnorm, values, alg.top)


def test_big_tnorm():
    assert big_tnorm(GODEL, []) == F(1)
    assert big_tnorm(GODEL, [F("0.8"), F("0.5"), F("0.9")]) == F("0.5")
    assert big_tnorm(PRODUCT, [F("0.5"), F("0.5")]) == F("0.25")


@given(st.lists(degrees, max_size=6))
def test_big_tnorm_order_invariant(values):
    for alg in FAMILIES:
        assert big_tnorm(alg, values) == big_tnorm(alg, list(reversed(values)))
        if len(values) == 1:
            assert big_tnorm(alg, values) == values[0]


# --- derived properties -----------------------------------------------------

@given(degrees, degrees)
def test_tnorm_bounded_by_arguments(a, b):
    for alg in FAMILIES:
        t = alg.tnorm(a, b)
        assert t <= a and t <= b
        assert (t == alg.top) == (a == alg.top and b == alg.top)


# --- axiom checking ----------------------------------------------------------

@settings(max_examples=300)
@given(degrees, degrees, degrees)
def test_families_pass_sampled_triples(x, y, z):
    for alg in FAMILIES:
        assert check_axioms(alg, [(x, y, z)]) == []


def test_boolean_two_chain_valid():
    lat = boolean_lattice()
    assert check_axioms(lat, all_triples(lat)) == []


def test_noncommutative_tnorm_reported():
    tnorm = [[0, 0, 0], [0, 1, 2], [0, 1, 2]]  # tnorm(1,2)=2 but tnorm(2,1)=1
    snorm = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
    residuum = [[2, 2, 2], [0, 2, 2], [0, 1, 2]]
    lat = FiniteLatticeAlgebra(3, tnorm, snorm, residuum, [2, 0, 0])
    violations = check_axioms(lat, all_triples(lat))
    assert any(v.startswith("commutativity") for v in violations)


@pytest.mark.parametrize("name", ["boolean", "godel5", "lukasiewicz4"])
def test_bundled_lattices_valid(name):
    alg = load_lattice(bundled_lattice_path(name))
    assert check_axioms(alg, all_triples(alg)) == []


# --- parsing, validation, errors ---------------------------------------------

def test_parse_degree_decimal_and_fraction():
    assert GODEL.parse_degree("0.8") == F(4, 5)
    assert GODEL.parse_degree("7/10") == F(7, 10)
    assert GODEL.parse_degree(1) == F(1)


def test_float_rejected():
    with pytest.raises(UsageError):
        GODEL.parse_degree(0.8)
    with pytest.raises(UsageError):
        GODEL.check(0.8)


@pytest.mark.parametrize("value", [True, False])
def test_bool_rejected(value):
    # bool is an int subclass: True must not pass for the degree 1
    lattice = boolean_lattice()
    for alg in (GODEL, lattice):
        with pytest.raises(UsageError, match="bool degree"):
            alg.parse_degree(value)
        with pytest.raises(UsageError, match="bool degree"):
            alg.check(value)
    with pytest.raises(UsageError, match="bool degree"):
        FiniteLatticeAlgebra(2, [[0, 0], [0, value]], [[0, 1], [1, 1]], [[1, 1], [0, 1]], [1, 0])


def test_out_of_range_rejected():
    with pytest.raises(UsageError):
        GODEL.check(F(3, 2))
    with pytest.raises(UsageError):
        boolean_lattice().check(5)


def test_mixed_backend_rejected():
    with pytest.raises(UsageError):
        boolean_lattice().tnorm(F(1, 2), 1)
    with pytest.raises(UsageError):
        GODEL.tnorm(F(1, 2), 3)


def test_make_algebra_selectors():
    assert make_algebra("godel").name == "godel"
    assert make_algebra("product").name == "product"
    assert make_algebra("lukasiewicz").name == "lukasiewicz"
    lat = make_algebra("lattice:" + bundled_lattice_path("boolean"))
    assert isinstance(lat, FiniteLatticeAlgebra)
    with pytest.raises(UsageError):
        make_algebra("zadeh")


def test_lattice_table_shape_validated():
    with pytest.raises(UsageError):
        FiniteLatticeAlgebra(2, [[0, 0]], [[0, 1], [1, 1]], [[1, 1], [0, 1]], [1, 0])
    with pytest.raises(UsageError):
        FiniteLatticeAlgebra(2, [[0, 9], [0, 1]], [[0, 1], [1, 1]], [[1, 1], [0, 1]], [1, 0])


def test_load_lattice_rejects_violating_tables(tmp_path):
    import json

    doc = {
        "chain": 2,
        "tnorm": [[0, 1], [0, 1]],  # not commutative
        "snorm": [[0, 1], [1, 1]],
        "residuum": [[1, 1], [0, 1]],
        "neg": [1, 0],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(UsageError, match="violates"):
        load_lattice(str(path))


def test_load_lattice_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"chain": 2}')
    with pytest.raises(UsageError, match="missing"):
        load_lattice(str(path))


def test_lattice_format_roundtrip():
    lat = boolean_lattice()
    assert lat.parse_degree("1") == 1
    assert lat.format_degree(1) == "1"
    with pytest.raises(UsageError):
        lat.parse_degree("0.5")
