"""Exact rational linear programming via a two-phase tableau simplex.

Everything is computed over ``fractions.Fraction``; Bland's rule is
used for both the entering and the leaving choice, so the solver never
cycles.  It serves ``repro transport`` (the paper's stated dual against
``monadlift.pricing_lp``) and the LPs of ``counterex``; the transport
distance itself is solved in the primal by ``monadlift.kantorovich_lp``.
Problem sizes are tiny (a handful of pricing variables), so no effort
is spent on sparsity or revised-simplex machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple


class UnboundedError(RuntimeError):
    """The objective is unbounded over the feasible region."""


class InfeasibleError(RuntimeError):
    """The constraint system has no solution."""


@dataclass
class LinearConstraint:
    """``coeffs . x rel rhs``; a trusted record (see ``LPProblem``)."""

    coeffs: Dict[str, Fraction]
    rel: str  # one of "<=", ">=", "=="
    rhs: Fraction


@dataclass
class LPProblem:
    """maximize (or minimize) objective . x subject to the constraints.

    Variable bounds: the lower bound may be 0 (default) or None for a
    free variable; an optional finite upper bound is allowed.

    A trusted record, like ``LinearConstraint``: its builders
    (``monadlift.price_polytope`` and ``pricing_lp``, the ``counterex``
    LPs) declare every variable they use, give each relation as one of
    the three above and each lower bound as 0 or None, and
    ``simplex_solve`` checks none of that.
    """

    variables: List[str]
    objective: Dict[str, Fraction]
    constraints: List[LinearConstraint] = field(default_factory=list)
    bounds: Dict[str, Tuple[Optional[Fraction], Optional[Fraction]]] = field(default_factory=dict)
    maximize: bool = True


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


def _optimize(rows, rhs, basis, cost, candidate_cols):
    """Maximize cost.x on the tableau with Bland's rule; mutates in place."""
    m = len(rows)
    while True:
        dual = [cost[basis[i]] for i in range(m)]
        entering = -1
        for j in candidate_cols:
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
    """Solve exactly; raises UnboundedError / InfeasibleError."""
    # Map user variables to columns; free variables are split into a
    # positive and a negative part.
    col_of: Dict[str, int] = {}
    split: Dict[str, int] = {}  # var -> column of the negative part
    ncols = 0
    for v in lp.variables:
        col_of[v] = ncols
        ncols += 1
        lo, _hi = lp.bounds.get(v, (Fraction(0), None))
        if lo is None:
            split[v] = ncols
            ncols += 1

    sign = Fraction(1) if lp.maximize else Fraction(-1)

    def expand(coeffs: Dict[str, Fraction]) -> Dict[int, Fraction]:
        out: Dict[int, Fraction] = {}
        for v, a in coeffs.items():
            a = Fraction(a)
            out[col_of[v]] = out.get(col_of[v], Fraction(0)) + a
            if v in split:
                out[split[v]] = out.get(split[v], Fraction(0)) - a
        return out

    raw: List[Tuple[Dict[int, Fraction], str, Fraction]] = []
    for con in lp.constraints:
        raw.append((expand(con.coeffs), con.rel, con.rhs))
    for v, (_lo, hi) in lp.bounds.items():
        if hi is not None:
            raw.append((expand({v: Fraction(1)}), "<=", Fraction(hi)))

    # Normalize to nonnegative right-hand sides.
    normalized = []
    for coeffs, rel, b in raw:
        if b < 0:
            coeffs = {j: -a for j, a in coeffs.items()}
            b = -b
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        normalized.append((coeffs, rel, b))

    nstruct = ncols
    m = len(normalized)
    # Count slack/surplus and artificial columns.
    for coeffs, rel, _b in normalized:
        if rel in ("<=", ">="):
            ncols += 1
    artificial_start = ncols
    nart = 0
    for _c, rel, _b in normalized:
        if rel in (">=", "=="):
            nart += 1
    ncols += nart

    rows = [[Fraction(0)] * ncols for _ in range(m)]
    rhs: List[Fraction] = [Fraction(0)] * m
    basis: List[int] = [-1] * m
    slack_col = nstruct
    art_col = artificial_start
    artificial_cols = []
    for i, (coeffs, rel, b) in enumerate(normalized):
        for j, a in coeffs.items():
            rows[i][j] = a
        rhs[i] = b
        if rel == "<=":
            rows[i][slack_col] = Fraction(1)
            basis[i] = slack_col
            slack_col += 1
        elif rel == ">=":
            rows[i][slack_col] = Fraction(-1)
            slack_col += 1
            rows[i][art_col] = Fraction(1)
            basis[i] = art_col
            artificial_cols.append(art_col)
            art_col += 1
        else:
            rows[i][art_col] = Fraction(1)
            basis[i] = art_col
            artificial_cols.append(art_col)
            art_col += 1

    all_cols = list(range(ncols))
    real_cols = [j for j in all_cols if j < artificial_start]

    if artificial_cols:
        phase1 = [Fraction(0)] * ncols
        for j in artificial_cols:
            phase1[j] = Fraction(-1)
        _optimize(rows, rhs, basis, phase1, all_cols)
        value = sum(rhs[i] for i in range(m) if basis[i] in artificial_cols)
        if value != 0:
            raise InfeasibleError("phase 1 left artificial slack in the basis")
        # Pivot any artificial variables (at zero) out of the basis.
        for i in range(m):
            if basis[i] in artificial_cols:
                for j in real_cols:
                    if rows[i][j] != 0:
                        _pivot(rows, rhs, basis, i, j)
                        break

    cost = [Fraction(0)] * ncols
    for v, a in lp.objective.items():
        a = sign * Fraction(a)
        cost[col_of[v]] += a
        if v in split:
            cost[split[v]] -= a
    _optimize(rows, rhs, basis, cost, real_cols)

    values = [Fraction(0)] * ncols
    for i in range(m):
        if basis[i] >= 0:
            values[basis[i]] = rhs[i]
    assignment: Dict[str, Fraction] = {}
    for v in lp.variables:
        val = values[col_of[v]]
        if v in split:
            val -= values[split[v]]
        assignment[v] = val
    optimum = sum(Fraction(a) * assignment[v] for v, a in lp.objective.items())
    return LPSolution(Fraction(optimum), assignment)
