import random
from fractions import Fraction as F

import pytest

from conftest import geo, graph_equal
from grid_oracle import generic_residual_meet, grid_alpha, grid_gamma
from quantadist.galois import (BudgetError, Grid, PredSet, alpha, extension_largest,
                               extension_smallest, gamma_enum, grid_values,
                               residual_meet)
from quantadist.quantale import BOOLEAN, EXT_PLUS, UNIT_OPLUS, QuantaleError
from quantadist.suites import all_bool_graphs
from quantadist.vgraph import (carrier, graph_from_entries,
                               is_vcat, metric_closure)


XY = carrier(["x", "y"])


def test_alpha_characteristic_predicate():
    pred = {"x": True, "y": False}
    d = alpha(PredSet(XY, [pred]))
    assert d.at("x", "y") is False
    assert d.at("y", "x") is True
    assert d.at("x", "x") is True and d.at("y", "y") is True


def test_alpha_empty_is_top():
    d = alpha(PredSet(XY, []))
    assert d.quantale is BOOLEAN
    assert all(v is True for _x, _y, v in d.pairs())
    # The grid oracle's alpha, over unit-oplus.
    d = grid_alpha(UNIT_OPLUS, PredSet(XY, []))
    assert all(v == F(0) for _x, _y, v in d.pairs())


def test_alpha_single_real_predicate():
    # ``alpha`` is boolean; the grid oracle's alpha reads real-valued predicates.
    d = grid_alpha(UNIT_OPLUS, PredSet(XY, [{"x": F(0), "y": F(2, 5)}]))
    assert d.at("x", "y") == F(2, 5)
    assert d.at("y", "x") == F(0)


def assert_boolean_fold_agrees(n, vectors):
    got = residual_meet(n, (list(s) for s in vectors))
    assert got == generic_residual_meet(BOOLEAN, n, vectors)
    assert len(got) == n
    assert all(len(row) == n and all(type(v) is bool for v in row) for row in got)


@pytest.mark.parametrize("n", range(7))
def test_boolean_residual_meet_matches_the_generic_fold(n):
    rng = random.Random(n)
    for count in (0, 1, 2, 3, 5, 9, 20):
        for _ in range(8):
            vectors = [[rng.random() < 0.5 for _ in range(n)] for _ in range(count)]
            assert_boolean_fold_agrees(n, vectors)


def test_boolean_residual_meet_edge_vectors():
    for n in range(7):
        assert residual_meet(n, []) == [[True] * n for _ in range(n)]
        assert_boolean_fold_agrees(n, [[False] * n])
        assert_boolean_fold_agrees(n, [[True] * n, [True] * n])
        assert_boolean_fold_agrees(n, [[i == k for i in range(n)] for k in range(n)])


def test_gamma_boolean_discrete():
    d = graph_from_entries(BOOLEAN, XY, {("x", "x"): True, ("y", "y"): True},
                           default=False)
    preds = gamma_enum(d)
    assert len(preds) == 4


def test_gamma_boolean_total_order_monotone():
    # x below y: the non-expansive predicates are exactly the monotone ones.
    d = graph_from_entries(BOOLEAN, XY,
                           {("x", "x"): True, ("y", "y"): True, ("x", "y"): True},
                           default=False)
    preds = gamma_enum(d)
    found = {(p["x"], p["y"]) for p in preds.preds}
    assert found == {(False, False), (False, True), (True, True)}


def test_gamma_unit_discrete_all_maps():
    # The grid oracle's gamma over unit-oplus.
    d = graph_from_entries(UNIT_OPLUS, XY, {("x", "y"): F(1), ("y", "x"): F(1)},
                           default=F(0))
    preds = grid_gamma(d, Grid(2))
    assert len(preds) == 9  # every grid map is non-expansive under the discrete metric


def test_gamma_budget_refusal():
    d = graph_from_entries(BOOLEAN, carrier(["x", "y", "z"]), {}, default=True)
    with pytest.raises(BudgetError, match="8 candidates"):
        gamma_enum(d, budget=4)
    assert len(gamma_enum(d, budget=8)) == 2  # the constant predicates


@pytest.mark.parametrize("size", [2, 3])
def test_gamma_enum_matches_the_generic_enumerator(size):
    # The entry test against one leq and residuate per entry: the same
    # predicates in the same order, on every boolean graph.
    c = carrier([f"e{i}" for i in range(size)])
    counts = set()
    for d in all_bool_graphs(c):
        preds = gamma_enum(d)
        assert preds.preds == grid_gamma(d, Grid(1)).preds, d.dist
        counts.add(len(preds))
    assert min(counts) == 2 and max(counts) == 2 ** size


def test_gamma_enum_refuses_a_unit_oplus_graph():
    d = graph_from_entries(UNIT_OPLUS, XY, {("x", "y"): F(1, 2)}, default=F(0))
    with pytest.raises(QuantaleError, match="boolean"):
        gamma_enum(d)


def test_extension_full_carrier_identity():
    d = geo()
    f = {"A": F(0), "B": F(3), "C": F(5)}
    assert extension_largest(d, ["A", "B", "C"], f) == f
    assert extension_smallest(d, ["A", "B", "C"], f) == f


def test_extension_geo_instance():
    # The quantale-order-largest extension is the numerically smallest
    # one and vice versa (reversed order on the reals).
    d = geo()
    f = {"A": F(0), "B": F(3)}
    big = extension_largest(d, ["A", "B"], f)
    small = extension_smallest(d, ["A", "B"], f)
    assert big["A"] == F(0) and big["B"] == F(3)
    assert small["A"] == F(0) and small["B"] == F(3)
    assert small["C"] == F(5)  # numerically largest competitive value
    assert big["C"] == F(0)    # numerically smallest
    # Oracle: scan an eighth-grid for the extreme valid values at C.
    valid = []
    for v in grid_values(EXT_PLUS, Grid(8, cap=8)):
        h = {"A": F(0), "B": F(3), "C": v}
        if all(EXT_PLUS.leq(d.at(x, y), EXT_PLUS.residuate(h[x], h[y]))
               for x in d.carrier for y in d.carrier):
            valid.append(v)
    finite = [v for v in valid if isinstance(v, F)]
    assert max(finite) == small["C"]
    assert min(finite) == big["C"]


def test_extension_constant_unit_predicate():
    d = geo()
    f = {"A": F(0), "B": F(0)}
    big = extension_largest(d, ["A", "B"], f)
    for x in d.carrier:
        assert EXT_PLUS.leq(EXT_PLUS.unit, big[x]) or big[x] == F(0)


def test_unit_coclosure_converges_to_closure():
    c = carrier(["x", "y", "z"])
    d = graph_from_entries(UNIT_OPLUS, c, {
        ("x", "y"): F(1, 4), ("y", "z"): F(1, 4), ("x", "z"): F(3, 4)},
        default=F(0))
    closed = metric_closure(d)
    prev = None
    for k in (2, 4, 8):
        approx = grid_alpha(UNIT_OPLUS, grid_gamma(d, Grid(k)))
        # Approximations sit above the closure in the quantale order
        # (numerically below) and tighten as k grows.
        assert all(approx.at(x, y) <= closed.at(x, y) for x in c for y in c)
        if prev is not None:
            assert all(prev.at(x, y) <= approx.at(x, y) for x in c for y in c)
        prev = approx
    # Entries are quarter-grid rationals, so k=4 and k=8 are exact.
    assert graph_equal(grid_alpha(UNIT_OPLUS, grid_gamma(d, Grid(4))), closed)
    assert graph_equal(grid_alpha(UNIT_OPLUS, grid_gamma(d, Grid(8))), closed)


def test_boolean_unique_extensions_collapse():
    # Whenever exactly one completion of a partial predicate is
    # non-expansive, both canonical extensions return it.
    from itertools import product as iproduct

    c = carrier(["x", "y", "z"])
    for d in all_bool_graphs(c):
        if not is_vcat(d):
            continue
        for sub in (["x"], ["x", "z"]):
            free = [e for e in c if e not in sub]
            for fvals in iproduct([False, True], repeat=len(sub)):
                f = dict(zip(sub, fvals))
                if any(not BOOLEAN.leq(d.at(a, b), BOOLEAN.residuate(f[a], f[b]))
                       for a in sub for b in sub):
                    continue
                valid = []
                for hvals in iproduct([False, True], repeat=len(free)):
                    h = dict(f)
                    h.update(dict(zip(free, hvals)))
                    if all(BOOLEAN.leq(d.at(a, b), BOOLEAN.residuate(h[a], h[b]))
                           for a in c for b in c):
                        valid.append(h)
                if len(valid) == 1:
                    assert extension_largest(d, sub, f) == valid[0]
                    assert extension_smallest(d, sub, f) == valid[0]

