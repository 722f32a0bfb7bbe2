"""The real-valued grid oracle of the generic Kantorovich formula.

``quantadist`` computes the formula (alpha applied to the evaluations of
the predicates in gamma(d)) over the booleans only, where the predicate
class is enumerable and the formula is exact.  On the real-valued
quantales the exact liftings are the closed forms
(``functor.lift_closed``, ``monadlift.hausdorff_directed``,
``monadlift.kantorovich_lp``).  The same formula over the grid-valued
non-expansive predicates is a quantale-order under-approximation of
them that tightens as the grid refines, and the tests compare the closed
forms against it.  Everything here is generic over the quantale: one
``leq`` and ``residuate`` per graph entry and candidate, one
``residuate`` and ``meet2`` per matrix entry and score vector.
"""

from itertools import product
from operator import itemgetter

from conftest import shape_check
from quantadist.functor import _reader, _term_carrier
from quantadist.galois import PredSet, grid_values
from quantadist.vgraph import VGraph


def grid_gamma(d, grid):
    """All ``grid``-valued predicates that are non-expansive from ``d``
    into the residuation distance, in the order of
    ``product(grid_values(q, grid), repeat=n)``.  Over the booleans this
    is ``galois.gamma_enum(d)``."""
    q = d.quantale
    els = d.carrier.elements
    preds = []
    for combo in product(grid_values(q, grid), repeat=len(els)):
        p = dict(zip(els, combo))
        if all(q.leq(v, q.residuate(p[x], p[y])) for x, y, v in d.pairs()):
            preds.append(p)
    return PredSet(d.carrier, preds)


def generic_residual_meet(q, n, vectors):
    """The per-entry fold: the n x n matrix of the meets, over the score
    vectors ``s``, of ``residuate(s[i], s[j])``, top with no vector."""
    dist = [[q.top] * n for _ in range(n)]
    for s in vectors:
        for i in range(n):
            for j in range(n):
                dist[i][j] = q.meet2(dist[i][j], q.residuate(s[i], s[j]))
    return dist


def grid_alpha(q, preds):
    """The greatest conformance over ``q`` making every predicate in
    ``preds`` non-expansive."""
    c = preds.carrier
    vectors = [[p[x] for x in c.elements] for p in preds.preds]
    return VGraph(q, c, generic_residual_meet(q, len(c), vectors))


def grid_lifting(q, functor, evals, terms):
    """The generic formula over ``q`` on ``terms``: ``lifting(preds)``
    folds, for every evaluation map and predicate, the terms' scores read
    by ``functor._reader``; ``preds`` is ``grid_gamma(d, grid)`` for a
    graph d over ``q``.  The terms are checked against ``functor``
    unless it is None."""
    if functor is not None:
        for t in terms:
            shape_check(functor, t)
    keys = _term_carrier(terms)
    readers = [[_reader(q, ev, t, itemgetter) for t in terms] for ev in evals]

    def lifting(preds):
        vectors = [[read(f) for read in row] for row in readers for f in preds.preds]
        return VGraph(q, keys, generic_residual_meet(q, len(terms), vectors))
    return lifting
