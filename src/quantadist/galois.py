"""Predicate sets, the generating/observing Galois pair, and extensions.

``alpha`` turns a set of quantale-valued predicates into the greatest
conformance making them all non-expansive; ``gamma_enum`` enumerates
the non-expansive predicates with values restricted to a finite grid
(exact for the boolean quantale, a finite approximation otherwise).
The pair restricts to a contravariant Galois connection, and
``alpha(gamma(d))`` is the metric closure of ``d``.

``extension_largest`` and ``extension_smallest`` realize the two
canonical non-expansive extensions of a predicate defined on a
sub-carrier of a V-category; note that "largest"/"smallest" refer to
the quantale order, which is the reversed numeric order on the
real-valued quantales.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .quantale import BOOLEAN, INF, Quantale, QuantaleError
from .vgraph import Carrier, VGraph, is_vcat, metric_closure

#: Predicates are total dicts element -> value.
Pred = Dict[str, object]


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget."""


@dataclass
class PredSet:
    """Total predicates on a carrier.  ``source`` is the graph that
    ``gamma_enum`` enumerated the set from, every predicate non-expansive
    for it; None for a set built any other way."""

    quantale: Quantale
    carrier: Carrier
    preds: List[Pred]
    source: Optional[VGraph] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for p in self.preds:
            for x in self.carrier:
                if x not in p:
                    raise ValueError(f"predicate not total: missing {x!r}")

    def __len__(self):
        return len(self.preds)


@dataclass(frozen=True)
class Grid:
    """Finite value grid used by enumeration oracles.

    For unit-oplus the grid is {0, 1/k, ..., 1}; for ext-plus it is
    {0, 1/k, ..., cap} plus infinity; for boolean it is the whole
    quantale regardless of the resolution.
    """

    resolution: int
    cap: int = 4

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError("grid resolution must be >= 1")


def grid_values(q: Quantale, grid: Grid) -> List[object]:
    if q is BOOLEAN or q.ident == "boolean":
        return [False, True]
    k = grid.resolution
    if q.ident == "unit-oplus":
        return [Fraction(i, k) for i in range(k + 1)]
    if q.ident == "ext-plus":
        vals: List[object] = [Fraction(i, k) for i in range(k * grid.cap + 1)]
        vals.append(INF)
        return vals
    raise QuantaleError(f"no grid for quantale {q.ident!r}")


def residual_meet(q: Quantale, n: int, vectors: Iterable[Sequence]) -> List[List]:
    """The n x n matrix whose (i, j) entry is the meet, over the score
    vectors ``s``, of ``residuate(s[i], s[j])``; top everywhere when
    there is no vector.

    Each vector is folded in as it arrives, so ``vectors`` may be a
    generator and no more than one vector is held at a time.

    Over the boolean quantale ``residuate(a, b)`` is ``not a or b`` and
    the meet is conjunction, so entry (i, j) is True exactly when no
    vector is True at i and False at j.  That fold keeps two bitmasks
    per vector, the positions where it is True and where it is False,
    and ORs the False mask into a per-row mask at each True position;
    equal vectors give equal masks and are folded once.  It computes
    the same booleans as the generic fold without a ``residuate`` or
    ``meet2`` call per entry.
    """
    if q is BOOLEAN:
        return _boolean_residual_meet(n, vectors)
    dist = [[q.top] * n for _ in range(n)]
    meet2, residuate = q.meet2, q.residuate
    for s in vectors:
        for row, si in zip(dist, s):
            for j, sj in enumerate(s):
                row[j] = meet2(row[j], residuate(si, sj))
    return dist


def _boolean_residual_meet(n: int, vectors: Iterable[Sequence]) -> List[List[bool]]:
    """``residual_meet`` over the boolean quantale, by bitmasks."""
    full = (1 << n) - 1
    true_masks = set()
    for s in vectors:
        true_masks.add(sum(1 << i for i, v in enumerate(s) if v))
    # broken[i]: the positions j with some vector True at i and False at j.
    broken = [0] * n
    for mask in true_masks:
        false_mask = full & ~mask
        for i in range(n):
            if mask >> i & 1:
                broken[i] |= false_mask
    return [[not (row >> j) & 1 for j in range(n)] for row in broken]


def alpha(preds: PredSet) -> VGraph:
    """Greatest conformance turning every predicate into a non-expansive map.

    The empty predicate set yields the all-top graph.
    """
    q = preds.quantale
    c = preds.carrier
    vectors = ([p[x] for x in c.elements] for p in preds.preds)
    return VGraph(q, c, residual_meet(q, len(c), vectors))


def nonexpansive_into_value(q: Quantale, d: VGraph, p: Pred) -> Optional[Tuple[str, str]]:
    """Return a violating pair if ``p`` fails d <= d_V o (p x p), else None."""
    for x, y, v in d.pairs():
        if not q.leq(v, q.residuate(p[x], p[y])):
            return (x, y)
    return None


def gamma_enum(d: VGraph, grid: Grid, budget: int = 10 ** 6) -> PredSet:
    """All grid-valued predicates that are non-expansive from ``d`` into
    the residuation distance.

    Exact for the boolean quantale; a finite under-approximation of the
    full predicate class otherwise.  Refuses (rather than truncating)
    when the candidate space exceeds ``budget``.
    """
    q = d.quantale
    vals = grid_values(q, grid)
    n = len(d.carrier)
    total = len(vals) ** n
    if total > budget:
        raise BudgetError(
            f"gamma enumeration needs {total} candidates, budget is {budget}"
        )
    els = d.carrier.elements
    preds: List[Pred] = []
    for combo in product(vals, repeat=n):
        p = dict(zip(els, combo))
        if nonexpansive_into_value(q, d, p) is None:
            preds.append(p)
    return PredSet(q, d.carrier, preds, source=d)


def reindex_preds(preds: PredSet, f) -> PredSet:
    """Precompose every predicate with a finite map (predicate reindexing)."""
    if f.codomain != preds.carrier:
        raise ValueError("predicate reindexing: carrier mismatch")
    out = [{x: p[f(x)] for x in f.domain} for p in preds.preds]
    return PredSet(preds.quantale, f.domain, out)


def _closed_input(d: VGraph) -> VGraph:
    if is_vcat(d):
        return d
    warnings.warn(
        "extension applied to a V-graph; using its metric closure",
        stacklevel=3,
    )
    return metric_closure(d)


def _check_partial_nonexpansive(q: Quantale, d: VGraph, sub: Sequence[str], f: Pred):
    for x in sub:
        for y in sub:
            if not q.leq(d.at(x, y), q.residuate(f[x], f[y])):
                raise ValueError(
                    f"predicate is not non-expansive on the sub-carrier at ({x!r}, {y!r})"
                )


def extension_largest(d: VGraph, sub: Sequence[str], f: Pred) -> Pred:
    """The greatest (in the quantale order) non-expansive extension of ``f``.

    On the real-valued quantales this is the numerically smallest
    extension.
    """
    d = _closed_input(d)
    q = d.quantale
    _check_partial_nonexpansive(q, d, sub, f)
    return {
        x: q.meet(q.residuate(d.at(x, y), f[y]) for y in sub)
        for x in d.carrier
    }


def extension_smallest(d: VGraph, sub: Sequence[str], f: Pred) -> Pred:
    """The least non-expansive extension (numerically largest on the reals)."""
    d = _closed_input(d)
    q = d.quantale
    _check_partial_nonexpansive(q, d, sub, f)
    return {
        x: q.join(q.tensor(f[y], d.at(y, x)) for y in sub)
        for x in d.carrier
    }

