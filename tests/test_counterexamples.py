from fractions import Fraction as F
from itertools import product

import pytest

import quantadist.counterex as counterex
from conftest import origin_feasible
from quantadist.canon import canon_key
from quantadist.counterex import (CASES, combined_dist_pow, combined_pow_dist,
                                  discrete_two_points, inner_graph)
from quantadist.monadlift import dirac, finsubset, subdist
from quantadist.quantale import UNIT_OPLUS


#: The (two-step, combined-map) value of each case.
EXPECTED = {
    "pp": (F(1), F(0)),
    "pd": (F(1, 2), F(0)),
    "dp": (F(1), F(1, 2)),
    "dd": (F(1, 2), F(0)),
}


@pytest.mark.parametrize("key", sorted(CASES))
def test_counterexample_values(key):
    report = CASES[key]()
    assert (report.composed, report.combined) == EXPECTED[key]


def test_counterexample_lps_meet_the_solver_precondition(monkeypatch):
    solved = []

    def recording(lp):
        solved.append(lp)
        return solve(lp)

    solve = counterex.simplex_solve
    monkeypatch.setattr(counterex, "simplex_solve", recording)
    for key, case in CASES.items():
        report = case()
        assert (report.composed, report.combined) == EXPECTED[key]
    assert len(solved) >= 2 and all(origin_feasible(lp) for lp in solved)


def test_composed_always_dominates():
    for case in CASES.values():
        report = case()
        assert report.composed >= report.combined


def test_pow_dist_lower_bound_via_published_witness():
    # The witness scoring a distribution by the smaller of its two
    # weights is non-expansive for the inner transport distance and
    # separates the two sets by one half.
    d = discrete_two_points()
    q = UNIT_OPLUS
    dists = [subdist({"x": F(i, 4), "y": F(4 - i, 4)}) for i in range(5)]
    score = {canon_key(p): min(p.weight("x"), p.weight("y")) for p in dists}
    inner = inner_graph(d, dists)
    for a in dists:
        for b in dists:
            w = inner.at(canon_key(a), canon_key(b))
            assert q.leq(w, q.residuate(score[canon_key(a)], score[canon_key(b)]))
    u_val = max(score[canon_key(dirac("x"))], score[canon_key(dirac("y"))])
    mid = subdist({"x": F(1, 2), "y": F(1, 2)})
    v_val = max(u_val, score[canon_key(mid)])
    assert q.residuate(u_val, v_val) == F(1, 2)


def test_combined_pow_dist_brute_force_grid():
    # Grid search over quarter-valued pricing maps never beats the LP
    # case enumeration (and matches it on this instance).
    d = discrete_two_points()
    dx, dy = dirac("x"), dirac("y")
    mid = subdist({"x": F(1, 2), "y": F(1, 2)})
    left, right = finsubset([dx, dy]), finsubset([dx, mid, dy])
    exact = combined_pow_dist(d, left, right)
    best = F(0)
    for gx, gy in product([F(i, 4) for i in range(5)], repeat=2):
        ev = lambda p: p.weight("x") * gx + p.weight("y") * gy
        val = max(ev(m) for m in right.members) - max(ev(m) for m in left.members)
        best = max(best, val)
    assert best <= exact
    assert best == exact == F(0)


def test_combined_dist_pow_brute_force_grid():
    d = discrete_two_points()
    sx, sy, sxy = finsubset(["x"]), finsubset(["y"]), finsubset(["x", "y"])
    mu = subdist({sx: F(1, 2), sy: F(1, 2)})
    nu = subdist({sxy: F(1)})
    exact = combined_dist_pow(d, mu, nu)
    best = F(0)
    for gx, gy in product([F(i, 8) for i in range(9)], repeat=2):
        g = {"x": gx, "y": gy}
        ev = lambda s: max(g[m] for m in s.members)
        val = sum(w * ev(s) for s, w in nu.items()) - \
            sum(w * ev(s) for s, w in mu.items())
        best = max(best, val)
    assert best <= exact
    assert best == exact == F(1, 2)
