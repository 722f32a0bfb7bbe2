from fractions import Fraction as F

import pytest

from quantadist.quantale import (BOOLEAN, EXT_PLUS, INF, UNIT_OPLUS, QuantaleError,
                                 get_quantale)
from quantadist.galois import Grid, grid_values
from quantadist.suites import quantale_suite


def test_tensor_examples():
    assert UNIT_OPLUS.tensor(F(7, 10), F(3, 5)) == F(1)
    assert EXT_PLUS.tensor(F(2), INF) is INF
    assert BOOLEAN.tensor(True, False) is False


def test_residuation_examples():
    assert BOOLEAN.residuate(True, False) is False
    assert UNIT_OPLUS.residuate(F(3, 10), F(4, 5)) == F(1, 2)
    # d_V(k, w) = w across a 1/8 grid
    for w in grid_values(UNIT_OPLUS, Grid(8)):
        assert UNIT_OPLUS.residuate(UNIT_OPLUS.unit, w) == w


def test_lattice_examples():
    assert UNIT_OPLUS.meet([F(1, 5), F(7, 10)]) == F(7, 10)
    assert UNIT_OPLUS.join([]) == F(1)  # bottom is numeric 1
    assert BOOLEAN.join([False, True]) is True
    assert BOOLEAN.meet([]) is True
    assert EXT_PLUS.join([]) is INF


def test_mixed_operands_rejected():
    with pytest.raises(QuantaleError):
        BOOLEAN.tensor(True, F(1, 2))
    with pytest.raises(QuantaleError):
        UNIT_OPLUS.tensor(F(1, 2), True)
    with pytest.raises(QuantaleError):
        UNIT_OPLUS.validate(F(3, 2))
    with pytest.raises(QuantaleError):
        UNIT_OPLUS.validate(INF)
    with pytest.raises(QuantaleError):
        EXT_PLUS.validate(F(-1))


def test_order_is_reversed_on_reals():
    assert UNIT_OPLUS.leq(F(1), F(0))
    assert not UNIT_OPLUS.leq(F(0), F(1))
    assert EXT_PLUS.leq(INF, F(5))
    assert EXT_PLUS.top == F(0) and EXT_PLUS.bottom is INF


def test_value_json_roundtrip():
    assert UNIT_OPLUS.value_from_json(UNIT_OPLUS.value_to_json(F(1, 3))) == F(1, 3)
    assert EXT_PLUS.value_to_json(INF) == "inf"
    assert EXT_PLUS.value_from_json("inf") is INF
    assert BOOLEAN.value_from_json(True) is True
    assert UNIT_OPLUS.value_to_json(F(2, 4)) == "1/2"


def test_get_quantale():
    assert get_quantale("boolean") is BOOLEAN
    assert get_quantale("unit-oplus") is UNIT_OPLUS
    assert get_quantale("ext-plus") is EXT_PLUS
    with pytest.raises(QuantaleError):
        get_quantale("lukasiewicz")


def test_law_suite_small_grids():
    results = quantale_suite(grid=8, ext_cap=2)
    failures = [r for r in results if not r.passed]
    assert not failures, [r.line() for r in failures]
