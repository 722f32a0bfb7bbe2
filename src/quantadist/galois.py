"""Predicate sets, the generating/observing Galois pair, and extensions.

``alpha`` turns a set of boolean predicates into the greatest boolean
conformance making them all non-expansive; ``gamma_enum`` enumerates
the non-expansive boolean predicates of a boolean graph, which is the
whole predicate class, so the pair is exact: it restricts to a
contravariant Galois connection, and ``alpha(gamma(d))`` is the metric
closure of ``d``.  On the real-valued quantales the liftings are the
closed forms in ``functor`` and ``monadlift``; the grid-predicate form
of the same formula is a test-side oracle for them.

``extension_largest`` and ``extension_smallest`` realize the two
canonical non-expansive extensions of a predicate defined on a
sub-carrier of a V-category over any of the quantales; note that
"largest"/"smallest" refer to the quantale order, which is the reversed
numeric order on the real-valued quantales.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Iterable, List, Sequence

from .quantale import BOOLEAN, INF, Quantale, QuantaleError
from .vgraph import Carrier, VGraph

#: Predicates are total dicts element -> value.
Pred = Dict[str, object]


class BudgetError(RuntimeError):
    """An enumeration would exceed its configured budget."""


@dataclass
class PredSet:
    """Total predicates on a carrier: every predicate maps each carrier
    element to a value.  A trusted record; the sets the lifting reads are
    enumerated by ``gamma_enum``, total and non-expansive by
    construction."""

    carrier: Carrier
    preds: List[Pred]

    def __len__(self):
        return len(self.preds)


@dataclass(frozen=True)
class Grid:
    """Finite value grid, the value lists of the law suites.

    For unit-oplus the grid is {0, 1/k, ..., 1}; for ext-plus it is
    {0, 1/k, ..., cap} plus infinity; for boolean it is the whole
    quantale regardless of the resolution, which is at least 1 (the
    command line refuses a smaller ``--grid``).
    """

    resolution: int
    cap: int = 4


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


def residual_meet(n: int, vectors: Iterable[Sequence]) -> List[List[bool]]:
    """The n x n boolean matrix whose (i, j) entry is the meet, over the
    boolean score vectors ``s``, of ``residuate(s[i], s[j])``; True
    everywhere when there is no vector.

    Over the booleans ``residuate(a, b)`` is ``not a or b`` and the meet
    is conjunction, so entry (i, j) is True exactly when no vector is
    True at i and False at j.  Each vector is folded in as it arrives
    (``vectors`` may be a generator) as the bitmask of its True
    positions, so equal vectors are folded once; then every row i ORs in
    the False mask of each vector True at i.
    """
    full = (1 << n) - 1
    true_masks = {sum(1 << i for i, v in enumerate(s) if v) for s in vectors}
    # broken[i]: the positions j with some vector True at i and False at j.
    broken = [0] * n
    for mask in true_masks:
        false_mask = full & ~mask
        for i in range(n):
            if mask >> i & 1:
                broken[i] |= false_mask
    return [[not (row >> j) & 1 for j in range(n)] for row in broken]


def alpha(preds: PredSet) -> VGraph:
    """Greatest boolean conformance turning every boolean predicate into
    a non-expansive map.

    The empty predicate set yields the all-True graph.
    """
    c = preds.carrier
    vectors = ([p[x] for x in c.elements] for p in preds.preds)
    return VGraph(BOOLEAN, c, residual_meet(len(c), vectors))


def nonexpansive_into_value(d: VGraph, p: Pred) -> bool:
    """Whether the boolean predicate ``p`` satisfies d <= d_V o (p x p)
    on the boolean graph ``d``: no pair with d(x, y), p(x) and not p(y)."""
    for x, y, v in d.pairs():
        if v and p[x] and not p[y]:
            return False
    return True


def gamma_enum(d: VGraph, budget: int = 10 ** 6) -> PredSet:
    """All boolean predicates that are non-expansive from the boolean
    graph ``d`` into the residuation distance, in the order of
    ``product((False, True), repeat=n)``.

    This is the whole predicate class, so the Kantorovich lifting over
    it is exact.  Refuses a graph over another quantale, and refuses
    (rather than truncating) when the 2**n candidates exceed ``budget``.
    """
    if d.quantale is not BOOLEAN:
        raise QuantaleError(f"gamma_enum needs a boolean graph, got {d.quantale.ident}")
    n = len(d.carrier)
    total = 2 ** n
    if total > budget:
        raise BudgetError(
            f"gamma enumeration needs {total} candidates, budget is {budget}"
        )
    els = d.carrier.elements
    preds: List[Pred] = []
    for combo in product((False, True), repeat=n):
        p = dict(zip(els, combo))
        if nonexpansive_into_value(d, p):
            preds.append(p)
    return PredSet(d.carrier, preds)


def reindex_preds(preds: PredSet, f) -> PredSet:
    """Precompose every predicate with a finite map (predicate
    reindexing); ``f``'s codomain must be the predicates' carrier."""
    out = [{x: p[f(x)] for x in f.domain} for p in preds.preds]
    return PredSet(f.domain, out)


def extension_largest(d: VGraph, sub: Sequence[str], f: Pred) -> Pred:
    """The greatest (in the quantale order) non-expansive extension of ``f``.

    On the real-valued quantales this is the numerically smallest
    extension.  Two preconditions, not checked: ``d`` is a V-category
    (a metric closure, say), and ``f`` is non-expansive on ``sub``
    (a restriction of a globally non-expansive map, say).
    """
    q = d.quantale
    return {
        x: q.meet(q.residuate(d.at(x, y), f[y]) for y in sub)
        for x in d.carrier
    }


def extension_smallest(d: VGraph, sub: Sequence[str], f: Pred) -> Pred:
    """The least non-expansive extension (numerically largest on the
    reals), under the preconditions of ``extension_largest``."""
    q = d.quantale
    return {
        x: q.join(q.tensor(f[y], d.at(y, x)) for y in sub)
        for x in d.carrier
    }

