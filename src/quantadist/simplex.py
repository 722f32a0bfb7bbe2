"""Exact rational linear programming via a one-phase tableau simplex.

Everything is computed over ``fractions.Fraction``; Bland's rule is
used for both the entering and the leaving choice, so the solver never
cycles.  It serves ``repro transport`` (the paper's stated dual against
``monadlift.pricing_lp``) and the LPs of ``counterex``; the transport
distance itself is solved in the primal by ``monadlift.kantorovich_lp``.
Every one of those LPs maximizes over rows ``a . x <= b`` with
``b >= 0``, so the origin is feasible and the slack basis is a starting
vertex: no phase 1 is needed.  Problem sizes are tiny (a handful of
pricing variables), so no effort is spent on sparsity or
revised-simplex machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple


class UnboundedError(RuntimeError):
    """The objective is unbounded over the feasible region."""


@dataclass
class LinearConstraint:
    """``coeffs . x <= rhs``; a trusted record (see ``LPProblem``)."""

    coeffs: Dict[str, Fraction]
    rhs: Fraction


@dataclass
class LPProblem:
    """maximize objective . x subject to the constraints.

    Variable bounds: the lower bound may be 0 (default) or None for a
    free variable; an optional finite upper bound is allowed.

    A trusted record, like ``LinearConstraint``: its builders
    (``monadlift.price_polytope`` and ``pricing_lp``, the ``counterex``
    LPs) declare every variable they use, give each lower bound as 0 or
    None, and give every rhs and every upper bound non-negative, so
    that the origin is feasible; ``simplex_solve`` checks none of that.
    """

    variables: List[str]
    objective: Dict[str, Fraction]
    constraints: List[LinearConstraint] = field(default_factory=list)
    bounds: Dict[str, Tuple[Optional[Fraction], Optional[Fraction]]] = field(default_factory=dict)


@dataclass
class LPSolution:
    optimum: Fraction
    assignment: Dict[str, Fraction]


def _pivot(rows: List[List[Fraction]], rhs: List[Fraction], basis: List[int],
           r: int, c: int):
    piv = rows[r][c]
    inv = Fraction(1) / piv
    rows[r] = [v * inv for v in rows[r]]
    rhs[r] *= inv
    for i in range(len(rows)):
        if i == r:
            continue
        factor = rows[i][c]
        if factor == 0:
            continue
        pr = rows[r]
        rows[i] = [rows[i][j] - factor * pr[j] for j in range(len(pr))]
        rhs[i] -= factor * rhs[r]
    basis[r] = c


def _optimize(rows, rhs, basis, cost):
    """Maximize cost.x on the tableau with Bland's rule; mutates in place."""
    m = len(rows)
    while True:
        dual = [cost[basis[i]] for i in range(m)]
        entering = -1
        for j in range(len(cost)):
            if j in basis:
                continue
            reduced = cost[j] - sum(dual[i] * rows[i][j] for i in range(m))
            if reduced > 0:
                entering = j
                break  # smallest index: Bland
        if entering < 0:
            return
        leave = -1
        best: Optional[Fraction] = None
        for i in range(m):
            a = rows[i][entering]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise UnboundedError("no leaving row: objective direction is unbounded")
        _pivot(rows, rhs, basis, leave, entering)


def simplex_solve(lp: LPProblem) -> LPSolution:
    """Solve exactly from the slack basis; raises UnboundedError."""
    # Map user variables to columns; free variables are split into a
    # positive and a negative part.
    col_of: Dict[str, int] = {}
    split: Dict[str, int] = {}  # var -> column of the negative part
    ncols = 0
    for v in lp.variables:
        col_of[v] = ncols
        ncols += 1
        lo, _hi = lp.bounds.get(v, (0, None))
        if lo is None:
            split[v] = ncols
            ncols += 1

    def expand(coeffs: Dict[str, Fraction]) -> Dict[int, Fraction]:
        out: Dict[int, Fraction] = {}
        for v, a in coeffs.items():
            out[col_of[v]] = a
            if v in split:
                out[split[v]] = -a
        return out

    # One row per constraint and per finite upper bound, each with its
    # slack column, which starts in the basis at the row's rhs.
    raw = [(expand(con.coeffs), con.rhs) for con in lp.constraints]
    raw += [(expand({v: Fraction(1)}), hi)
            for v, (_lo, hi) in lp.bounds.items() if hi is not None]
    nstruct = ncols
    ncols += len(raw)
    rows = [[Fraction(0)] * ncols for _ in raw]
    for i, (coeffs, _b) in enumerate(raw):
        for j, a in coeffs.items():
            rows[i][j] = a
        rows[i][nstruct + i] = Fraction(1)
    rhs = [b for _coeffs, b in raw]
    basis = [nstruct + i for i in range(len(raw))]

    cost = [Fraction(0)] * ncols
    for j, a in expand(lp.objective).items():
        cost[j] = a
    _optimize(rows, rhs, basis, cost)

    values = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        values[b] = rhs[i]
    assignment = {v: values[col_of[v]] - (values[split[v]] if v in split else 0)
                  for v in lp.variables}
    optimum = sum((a * assignment[v] for v, a in lp.objective.items()), Fraction(0))
    return LPSolution(optimum, assignment)
