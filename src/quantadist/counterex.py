"""Exact computation of the four monad-composition counterexamples.

For each combination of the powerset and distribution functors (each
carrying its single evaluation map) the composed two-step lifting and
the single combined-map lifting are computed exactly on the standard
two-point discrete instance: closed forms (directed Hausdorff, the
transportation LP) for the two-step side, and flattening or
attaining-member case enumeration for the combined side.  The
combined-map objectives are piecewise linear, so enumerating the
attaining members and solving one LP per case is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Sequence

from .canon import canon_key
from .monadlift import (POWERSET, SUBDIST, FinSubset, SubDist, dirac, finsubset,
                        hausdorff_directed, kantorovich_lp, price_polytope,
                        subdist)
from .quantale import UNIT_OPLUS
from .simplex import LinearConstraint, LPProblem, simplex_solve
from .vgraph import Carrier, VGraph, graph_from_entries


def discrete_two_points() -> VGraph:
    c = Carrier(("x", "y"))
    return graph_from_entries(UNIT_OPLUS, c,
                              {("x", "y"): Fraction(1), ("y", "x"): Fraction(1)},
                              default=Fraction(0))


def graph_on_subsets(d: VGraph, subsets: Sequence[FinSubset]) -> VGraph:
    keys = Carrier(tuple(canon_key(s) for s in subsets))
    n = len(subsets)
    dist = [[hausdorff_directed(d, subsets[i], subsets[j]) for j in range(n)]
            for i in range(n)]
    return VGraph(d.quantale, keys, dist)


def graph_on_dists(d: VGraph, dists: Sequence[SubDist]) -> VGraph:
    keys = Carrier(tuple(canon_key(p) for p in dists))
    n = len(dists)
    dist = [[kantorovich_lp(d, dists[i], dists[j]) for j in range(n)]
            for i in range(n)]
    return VGraph(d.quantale, keys, dist)


def combined_pow_pow(d: VGraph, left: FinSubset, right: FinSubset):
    """sup-after-sup collapses to the flattened subsets."""
    return hausdorff_directed(d, POWERSET.mult(left), POWERSET.mult(right))


def combined_dist_dist(d: VGraph, left: SubDist, right: SubDist):
    """expectation-after-expectation collapses to the flattened mixtures."""
    return kantorovich_lp(d, SUBDIST.mult(left), SUBDIST.mult(right))


def combined_pow_dist(d: VGraph, left: FinSubset, right: FinSubset):
    """The sup-of-expectations lifting at a pair of sets of distributions.

    For each member of the right-hand set an LP maximizes its expected
    score against the best left-hand member (the inner max turns into
    min-constraints); the overall value is the best case, truncated at
    zero.
    """
    q = d.quantale
    variables, bounds, base = price_polytope(d)
    best = Fraction(0)
    for nu in right.members:
        constraints = list(base)
        for mu in left.members:
            coeffs = {"t": Fraction(1)}
            for x in d.carrier:
                delta = mu.weight(x) - nu.weight(x)
                if delta != 0:
                    coeffs[f"f_{x}"] = coeffs.get(f"f_{x}", Fraction(0)) + delta
            constraints.append(LinearConstraint(coeffs, "<=", Fraction(0)))
        lp = LPProblem(variables + ["t"], {"t": Fraction(1)}, constraints,
                       {**bounds, "t": (None, None)})
        best = max(best, simplex_solve(lp).optimum)
    return q.validate(min(best, Fraction(1))) if best > 0 else q.validate(Fraction(0))


def combined_dist_pow(d: VGraph, left: SubDist, right: SubDist):
    """The expectation-of-sups lifting at a pair of distributions over
    sets, by enumerating which member of each subset attains its sup."""
    q = d.quantale
    variables, bounds, base = price_polytope(d)
    sets = list(dict.fromkeys(list(left.support()) + list(right.support())))
    best = Fraction(0)
    for selection in product(*[list(s.members) for s in sets]):
        attain = dict(zip(sets, selection))
        constraints = list(base)
        objective: Dict[str, Fraction] = {}
        for s in sets:
            top = attain[s]
            for z in s.members:
                if z != top:
                    constraints.append(LinearConstraint(
                        {f"f_{z}": Fraction(1), f"f_{top}": Fraction(-1)},
                        "<=", Fraction(0)))
            coeff = right.weight(s) - left.weight(s)
            if coeff != 0:
                objective[f"f_{top}"] = objective.get(f"f_{top}", Fraction(0)) + coeff
        lp = LPProblem(variables, objective, constraints, bounds)
        best = max(best, simplex_solve(lp).optimum)
    return q.validate(best if best > 0 else Fraction(0))


@dataclass
class CounterexampleReport:
    name: str
    composed: object
    combined: object


def pow_pow_case() -> CounterexampleReport:
    d = discrete_two_points()
    sx, sy, sxy = finsubset(["x"]), finsubset(["y"]), finsubset(["x", "y"])
    inner = [sx, sy, sxy]
    inner_graph = graph_on_subsets(d, inner)
    left = finsubset([canon_key(sx), canon_key(sy)])
    right = finsubset([canon_key(sx), canon_key(sy), canon_key(sxy)])
    composed = hausdorff_directed(inner_graph, left, right)
    combined = combined_pow_pow(d, finsubset([sx, sy]), finsubset([sx, sy, sxy]))
    return CounterexampleReport("powerset after powerset", composed, combined)


def _three_dists():
    return dirac("x"), subdist({"x": Fraction(1, 2), "y": Fraction(1, 2)}), dirac("y")


def pow_dist_case() -> CounterexampleReport:
    d = discrete_two_points()
    dx, mid, dy = _three_dists()
    inner_graph = graph_on_dists(d, [dx, mid, dy])
    left = finsubset([canon_key(dx), canon_key(dy)])
    right = finsubset([canon_key(dx), canon_key(mid), canon_key(dy)])
    composed = hausdorff_directed(inner_graph, left, right)
    combined = combined_pow_dist(d, finsubset([dx, dy]), finsubset([dx, mid, dy]))
    return CounterexampleReport("powerset after distribution", composed, combined)


def dist_pow_case() -> CounterexampleReport:
    d = discrete_two_points()
    sx, sy, sxy = finsubset(["x"]), finsubset(["y"]), finsubset(["x", "y"])
    inner_graph = graph_on_subsets(d, [sx, sy, sxy])
    mu = subdist({canon_key(sx): Fraction(1, 2), canon_key(sy): Fraction(1, 2)})
    nu = subdist({canon_key(sxy): Fraction(1)})
    composed = kantorovich_lp(inner_graph, mu, nu)
    combined = combined_dist_pow(
        d,
        subdist({sx: Fraction(1, 2), sy: Fraction(1, 2)}),
        subdist({sxy: Fraction(1)}))
    return CounterexampleReport("distribution after powerset", composed, combined)


def dist_dist_case() -> CounterexampleReport:
    d = discrete_two_points()
    dx, mid, dy = _three_dists()
    inner_graph = graph_on_dists(d, [dx, mid, dy])
    mu = subdist({canon_key(dx): Fraction(1, 2), canon_key(dy): Fraction(1, 2)})
    nu = subdist({canon_key(mid): Fraction(1)})
    composed = kantorovich_lp(inner_graph, mu, nu)
    combined = combined_dist_dist(
        d,
        subdist({dx: Fraction(1, 2), dy: Fraction(1, 2)}),
        subdist({mid: Fraction(1)}))
    return CounterexampleReport("distribution after distribution", composed, combined)


CASES = {
    "pp": pow_pow_case,
    "pd": pow_dist_case,
    "dp": dist_pow_case,
    "dd": dist_dist_case,
}
