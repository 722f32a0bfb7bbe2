import random
from fractions import Fraction as F
from itertools import combinations
from math import lcm

import pytest

from conftest import origin_feasible
from quantadist.simplex import LinearConstraint, LPProblem, UnboundedError, simplex_solve


def test_single_variable_cap():
    lp = LPProblem(["x"], {"x": F(1)},
                   [LinearConstraint({"x": F(1)}, F(3))])
    sol = simplex_solve(lp)
    assert sol.optimum == F(3)
    assert sol.assignment["x"] == F(3)


def test_degenerate_ties_deterministic():
    # Two constraints tie at the optimum; Bland's rule resolves the pivots.
    lp = LPProblem(["x", "y"], {"x": F(1), "y": F(1)},
                   [LinearConstraint({"x": F(1), "y": F(1)}, F(1)),
                    LinearConstraint({"x": F(1)}, F(1)),
                    LinearConstraint({"y": F(1)}, F(1))])
    first = simplex_solve(lp)
    second = simplex_solve(lp)
    assert first.optimum == F(1)
    assert first.assignment == second.assignment


def test_free_variable_split():
    lp = LPProblem(["t", "g"], {"t": F(1)},
                   [LinearConstraint({"t": F(1), "g": F(-1)}, F(0))],
                   bounds={"t": (None, None), "g": (F(0), F(1, 2))})
    sol = simplex_solve(lp)
    assert sol.optimum == F(1, 2)


def test_unbounded():
    lp = LPProblem(["x"], {"x": F(1)}, [])
    with pytest.raises(UnboundedError):
        simplex_solve(lp)


def test_exact_fractions_survive():
    lp = LPProblem(["x", "y"], {"x": F(1, 3), "y": F(1, 7)},
                   [LinearConstraint({"x": F(2), "y": F(5)}, F(1, 11))])
    sol = simplex_solve(lp)
    assert sol.optimum == F(1, 66)
    assert sol.assignment["x"] == F(1, 22)


def test_empty_objective_is_a_fraction():
    sol = simplex_solve(LPProblem(["x"], {}, [], {"x": (F(0), F(1))}))
    assert sol.optimum == 0 and isinstance(sol.optimum, F)


# -- vertex enumeration oracle ------------------------------------------------------

def halfspaces(lp):
    """Every inequality of the LP as (coefficient vector, rhs) over
    ``lp.variables``, scaled to integers: the rows, the upper bounds and
    the lower bound 0 of each variable that is not free."""
    index = {v: i for i, v in enumerate(lp.variables)}

    def space(coeffs, rhs):
        vec = [F(0)] * len(index)
        for v, a in coeffs.items():
            vec[index[v]] = a
        scale = lcm(*(a.denominator for a in vec + [rhs]))
        return [int(a * scale) for a in vec], int(rhs * scale)

    out = [space(c.coeffs, c.rhs) for c in lp.constraints]
    for v in lp.variables:
        lo, hi = lp.bounds.get(v, (F(0), None))
        if hi is not None:
            out.append(space({v: F(1)}, hi))
        if lo is not None:
            out.append(space({v: F(-1)}, F(0)))
    return out


def solve_square(rows, rhs):
    """The unique solution of a square integer system by fraction-free
    Gauss-Jordan elimination, as integer numerators over one positive
    denominator, or None when it is singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                a, b = m[c][c], m[r][c]
                m[r] = [a * x - b * y for x, y in zip(m[r], m[c])]
    den = lcm(*(abs(m[i][i]) for i in range(n)))
    return [m[i][n] * (den // m[i][i]) for i in range(n)], den


def feasible(spaces, nums, den):
    return all(sum(a * x for a, x in zip(vec, nums)) <= b * den for vec, b in spaces)


def vertex_optimum(lp):
    """The best objective over the vertices: every point where n of the
    inequalities are tight and independent.  The generated polyhedra
    are bounded in the objective's direction and have a vertex, so this
    is the optimum."""
    spaces = halfspaces(lp)
    c = [lp.objective.get(v, F(0)) for v in lp.variables]
    best = None
    for tight in combinations(spaces, len(lp.variables)):
        point = solve_square([vec for vec, _b in tight], [b for _vec, b in tight])
        if point is not None and feasible(spaces, *point):
            nums, den = point
            value = sum(a * x for a, x in zip(c, nums)) / den
            best = value if best is None else max(best, value)
    return best


def random_lp(rng):
    """A bounded LP of the form ``src`` builds: 2-4 boxed variables,
    rows ``a . x <= b`` with b >= 0, repeated and scaled copies of rows
    (tied and degenerate vertices), and optionally a free ``t`` bounded
    above by rows ``t + a . x <= 0``, as in ``counterex``."""
    names = [f"x{i}" for i in range(rng.randint(2, 4))]
    bounds = {v: (F(0), F(rng.randint(0, 3), rng.randint(1, 2))) for v in names}

    def coeffs(lead=None):
        out = {} if lead is None else {lead: F(1)}
        for v in names:
            if rng.random() < 0.7:
                out[v] = F(rng.randint(-3, 3), rng.randint(1, 3))
        return out

    rows = [LinearConstraint(coeffs(), F(rng.randint(0, 4), rng.randint(1, 2)))
            for _ in range(rng.randint(0, 3))]
    if rows and rng.random() < 0.5:
        rows.append(rng.choice(rows))
    if rows and rng.random() < 0.5:
        row = rng.choice(rows)
        rows.append(LinearConstraint({v: 2 * a for v, a in row.coeffs.items()}, 2 * row.rhs))
    objective = {v: F(rng.randint(-3, 3), rng.randint(1, 2)) for v in names
                 if rng.random() < 0.8}
    variables = list(names)
    if rng.random() < 0.5:
        variables.append("t")
        bounds["t"] = (None, None)
        rows += [LinearConstraint(coeffs("t"), F(0)) for _ in range(rng.randint(1, 3))]
        objective["t"] = F(rng.randint(1, 2))
    rng.shuffle(rows)
    return LPProblem(variables, objective, rows, bounds)


def test_simplex_matches_vertex_enumeration():
    rng = random.Random(26)
    with_t = tied = 0
    for _ in range(60):
        lp = random_lp(rng)
        assert origin_feasible(lp)
        sol = simplex_solve(lp)
        assert sol.optimum == vertex_optimum(lp), lp
        den = lcm(*(sol.assignment[v].denominator for v in lp.variables))
        nums = [int(sol.assignment[v] * den) for v in lp.variables]
        assert feasible(halfspaces(lp), nums, den), (lp, sol)
        assert sum(a * sol.assignment[v] for v, a in lp.objective.items()) == sol.optimum
        with_t += "t" in lp.variables
        tied += len({(tuple(sorted(c.coeffs.items())), c.rhs) for c in lp.constraints}) \
            < len(lp.constraints)
    assert with_t > 10 and tied > 10
