import random
from fractions import Fraction as F
from itertools import product

import pytest

from conftest import geo
from grid_oracle import grid_gamma, grid_lifting
from quantadist.functor import MonadEval, compile_lifting
from quantadist.galois import Grid, gamma_enum
from quantadist.monadlift import (POWERSET, SUBDIST, dirac, finsubset,
                                  hausdorff_directed, kantorovich_lp, pricing_lp,
                                  subdist)
from quantadist.quantale import BOOLEAN, EXT_PLUS, INF, UNIT_OPLUS, QuantaleError
from quantadist.simplex import simplex_solve
from quantadist.vgraph import VGraph, carrier, graph_from_entries, is_vcat, metric_closure


# -- monad structure ---------------------------------------------------------

def test_powerset_ops():
    assert POWERSET.unit("x") == finsubset(["x"])
    nested = finsubset([finsubset(["x"]), finsubset(["x", "y"])])
    assert POWERSET.mult(nested) == finsubset(["x", "y"])
    assert POWERSET.map(lambda s: s.upper(), finsubset(["a", "b"])) == \
        finsubset(["A", "B"])


def test_subdist_mult_case_study_value():
    # Flattening one half of a Dirac at x plus one half of a Dirac at y.
    nested = subdist({dirac("x"): F(1, 2), dirac("y"): F(1, 2)})
    assert SUBDIST.mult(nested) == subdist({"x": F(1, 2), "y": F(1, 2)})


def test_subdist_validation():
    with pytest.raises(ValueError):
        subdist({"x": F(3, 4), "y": F(1, 2)})
    assert subdist({"x": F(1, 2), "y": F(0)}).support() == ("x",)


def test_monad_laws_sampled():
    rng = random.Random(5)
    elements = ["a", "b", "c"]

    def rand_nested(monad, depth):
        if depth == 0:
            return rng.choice(elements)
        if monad is POWERSET:
            return finsubset(rand_nested(monad, depth - 1)
                             for _ in range(rng.randint(0, 2)))
        return subdist([(rand_nested(monad, depth - 1), F(1, 4))
                        for _ in range(rng.randint(0, 3))])

    for monad in (POWERSET, SUBDIST):
        for _ in range(25):
            t = rand_nested(monad, 1)
            assert monad.mult(monad.unit(t)) == t
            assert monad.mult(monad.map(lambda x: monad.unit(x), t)) == t
        for _ in range(25):
            ttt = rand_nested(monad, 3)
            flatten_outer = monad.mult(monad.mult(ttt))
            flatten_inner = monad.mult(monad.map(lambda tt: monad.mult(tt), ttt))
            assert flatten_outer == flatten_inner


# -- evaluation maps ---------------------------------------------------------

def test_ev_monad_examples():
    assert POWERSET.ev(finsubset([F(0), F(1, 2), F(0)]), UNIT_OPLUS) == F(1, 2)
    assert POWERSET.ev(finsubset([]), UNIT_OPLUS) == F(0)
    assert SUBDIST.ev(dirac(F(3, 4)), UNIT_OPLUS) == F(3, 4)
    assert SUBDIST.ev(subdist({INF: F(1, 2), F(0): F(1, 2)}), EXT_PLUS) is INF
    assert POWERSET.ev(finsubset([True, False]), BOOLEAN) is False


def _expectation_oracle(pairs):
    if any(v is INF for v, _w in pairs):
        return INF
    return sum((w * v for v, w in pairs), F(0))


@pytest.mark.parametrize("q", [UNIT_OPLUS, EXT_PLUS], ids=lambda q: q.ident)
def test_ev_weighted_matches_a_fraction_sum(q):
    """The expectation, summed in integers, is the Fraction sum of the
    weighted values: INF wins, int values count as they are, the empty
    list gives 0, and the result is a Fraction."""
    rng = random.Random(35)

    def value():
        if q is EXT_PLUS and rng.random() < 0.1:
            return INF
        if rng.random() < 0.3:
            return rng.randint(0, 1 if q is UNIT_OPLUS else 5)
        den = rng.randint(1, 12)
        return F(rng.randint(0, den if q is UNIT_OPLUS else 3 * den), den)

    lists = [[]] + [[(value(), F(rng.randint(1, 5), rng.choice((1, 2, 3, 4, 6, 8, 30))))
                     for _ in range(rng.randint(1, 6))] for _ in range(400)]
    assert any(v is INF for pairs in lists for v, _w in pairs) == (q is EXT_PLUS)
    assert any(type(v) is int for pairs in lists for v, _w in pairs)
    for pairs in lists:
        got = SUBDIST.ev_weighted(pairs, q)
        want = _expectation_oracle(pairs)
        assert got == want and type(got) is type(want), pairs
    with pytest.raises(QuantaleError):
        SUBDIST.ev_weighted([(True, F(1))], BOOLEAN)


# -- directed Hausdorff ---------------------------------------------------------

def test_hausdorff_singletons_and_conventions():
    d = geo()
    assert hausdorff_directed(d, finsubset(["A"]), finsubset(["C"])) == F(5)
    assert hausdorff_directed(d, finsubset(["A"]), finsubset([])) == F(0)
    assert hausdorff_directed(d, finsubset([]), finsubset(["A"])) is INF
    c = carrier(["x", "y"])
    disc = graph_from_entries(UNIT_OPLUS, c, {("x", "y"): F(1), ("y", "x"): F(1)},
                              default=F(0))
    assert hausdorff_directed(disc, finsubset(["x", "y"]), finsubset(["x"])) == F(0)


def test_hausdorff_monotonicity():
    d = geo()
    smaller = hausdorff_directed(d, finsubset(["A", "B"]), finsubset(["C"]))
    larger_left = hausdorff_directed(d, finsubset(["A"]), finsubset(["C"]))
    assert smaller <= larger_left  # growing the left set shrinks the value
    grown_right = hausdorff_directed(d, finsubset(["A"]), finsubset(["B", "C"]))
    assert hausdorff_directed(d, finsubset(["A"]), finsubset(["B"])) <= grown_right


def test_hausdorff_agrees_with_boolean_generic():
    c = carrier(["x", "y"])
    subsets = [finsubset(s) for s in ([], ["x"], ["y"], ["x", "y"])]
    from quantadist.suites import all_bool_graphs
    lifting = compile_lifting([MonadEval(POWERSET)], subsets)
    for d in all_bool_graphs(c):
        oracle = lifting(gamma_enum(d))
        for i, u in enumerate(subsets):
            for j, v in enumerate(subsets):
                assert hausdorff_directed(d, u, v) == oracle.dist[i][j], (d.dist, u, v)


def test_hausdorff_grid_oracle_unit():
    c = carrier(["x", "y"])
    d = graph_from_entries(UNIT_OPLUS, c, {("x", "y"): F(1, 4), ("y", "x"): F(3, 4)},
                           default=F(0))
    subsets = [finsubset(s) for s in (["x"], ["y"], ["x", "y"])]
    exact = {(u, v): hausdorff_directed(d, u, v) for u in subsets for v in subsets}
    lifting = grid_lifting(UNIT_OPLUS, None, [MonadEval(POWERSET)], subsets)
    prev_gap = None
    for k in (2, 4, 8):
        oracle = lifting(grid_gamma(d, Grid(k)))
        gaps = []
        for i, u in enumerate(subsets):
            for j, v in enumerate(subsets):
                approx = oracle.dist[i][j]
                assert approx <= exact[(u, v)]  # grid meets fewer predicates
                gaps.append(exact[(u, v)] - approx)
        total = sum(gaps)
        if prev_gap is not None:
            assert total <= prev_gap
        prev_gap = total
    assert prev_gap == 0  # quarter-grid data: k=8 closes the gap


# -- transportation LP -----------------------------------------------------------

def transport_instance():
    d = geo()
    p = subdist({"A": F(7, 10), "B": F(1, 10), "C": F(1, 5)})
    q = subdist({"A": F(1, 5), "B": F(3, 10), "C": F(1, 2)})
    return d, p, q


def test_transport_example_value():
    d, p, q = transport_instance()
    assert kantorovich_lp(d, p, q) == F(21, 10)


def test_transport_pricing_assignment_feasible_and_optimal():
    d, p, q = transport_instance()
    lp = pricing_lp(d, p, q)
    stated = {"f_A": F(0), "f_B": F(3), "f_C": F(5)}
    for con in lp.constraints:
        lhs = sum(c * stated[v] for v, c in con.coeffs.items())
        assert lhs <= con.rhs
    objective = sum(c * stated[v] for v, c in lp.objective.items())
    assert objective == F(21, 10)
    assert simplex_solve(lp).optimum == F(21, 10)


def test_lp_zero_on_equal_and_dirac_closure():
    d, p, _ = transport_instance()
    assert kantorovich_lp(d, p, p) == F(0)
    dc = metric_closure(d)
    for x in d.carrier:
        for y in d.carrier:
            assert kantorovich_lp(d, dirac(x), dirac(y)) == dc.at(x, y)


def test_lp_two_point_formula():
    c = carrier(["x", "y"])
    disc = graph_from_entries(UNIT_OPLUS, c, {("x", "y"): F(1), ("y", "x"): F(1)},
                              default=F(0))
    for p_w, q_w in [(F(1, 3), F(3, 4)), (F(1, 2), F(1, 2)), (F(0), F(1))]:
        p = subdist({"x": p_w, "y": 1 - p_w})
        q = subdist({"x": q_w, "y": 1 - q_w})
        forward = kantorovich_lp(disc, p, q)
        backward = kantorovich_lp(disc, q, p)
        assert max(forward, backward) == abs(q_w - p_w)


def test_lp_mass_mismatch_rejected():
    d, p, _ = transport_instance()
    with pytest.raises(ValueError, match="mass"):
        kantorovich_lp(d, p, subdist({"A": F(1, 2)}))


def test_lp_output_is_vcat_on_random_instances():
    rng = random.Random(2)
    c = carrier(["x", "y", "z"])
    grid = [F(i, 4) for i in range(5)]
    for _ in range(3):
        d = VGraph(UNIT_OPLUS, c, [[rng.choice(grid) for _ in range(3)] for _ in range(3)])
        dists = []
        while len(dists) < 3:
            a = rng.choice(grid)
            b = rng.choice([g for g in grid if g <= 1 - a])
            cand = subdist({"x": a, "y": b, "z": 1 - a - b})
            if cand not in dists:
                dists.append(cand)
        n = len(dists)
        mat = [[kantorovich_lp(d, dists[i], dists[j]) for j in range(n)] for i in range(n)]
        keys = carrier([p.canon() for p in dists])
        assert is_vcat(VGraph(UNIT_OPLUS, keys, mat))


def test_lp_grid_oracle_unit():
    c = carrier(["x", "y"])
    d = graph_from_entries(UNIT_OPLUS, c, {("x", "y"): F(1, 4), ("y", "x"): F(1)},
                           default=F(0))
    p = dirac("x")
    q = dirac("y")
    exact = kantorovich_lp(d, p, q)
    assert exact == F(1, 4)
    lifting = grid_lifting(UNIT_OPLUS, None, [MonadEval(SUBDIST)], [p, q])
    prev = None
    for k in (2, 4, 8):
        oracle = lifting(grid_gamma(d, Grid(k)))
        approx = oracle.dist[0][1]
        assert approx <= exact
        if prev is not None:
            assert prev <= approx
        prev = approx
    assert prev == exact


def test_lp_constraints_against_closure_match_raw_graph():
    # Non-expansiveness against a graph and against its closure agree.
    c = carrier(["x", "y", "z"])
    d = graph_from_entries(EXT_PLUS, c, {("x", "y"): F(3), ("y", "z"): F(4),
                                         ("x", "z"): F(20)}, default=F(0))
    p = subdist({"x": F(1)})
    q = subdist({"z": F(1)})
    # Direct check: optimum with closure constraints equals the brute
    # grid optimum with raw-graph constraints.
    best = F(0)
    for fx, fy, fz in product(range(0, 8), repeat=3):
        f = {"x": F(fx), "y": F(fy), "z": F(fz)}
        ok = all(EXT_PLUS.leq(d.at(a, b), EXT_PLUS.residuate(f[a], f[b]))
                 for a in c for b in c)
        if ok:
            best = max(best, f["z"] - f["x"])
    assert kantorovich_lp(d, p, q) == best == F(7)


def test_tvalue_json_roundtrip():
    s = finsubset(["y", "x"])
    assert POWERSET.to_json(s) == {"set": ["x", "y"]}
    assert POWERSET.from_json({"set": ["x", "y"]}) == s
    p = subdist({"x": F(1, 2), "y": F(1, 2)})
    doc = SUBDIST.to_json(p)
    assert doc == {"dist": {"x": "1/2", "y": "1/2"}}
    assert SUBDIST.from_json(doc) == p
