"""Powerset and subdistribution monads with their evaluation maps,
plus closed-form and LP-based liftings of distances to them.

The powerset evaluation map is the lattice meet of the members (the
numeric supremum on the real-valued quantales, with the empty set
evaluating to top); the subdistribution evaluation map is the expected
value, with the convention that a positive weight times infinity is
infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .canon import canon_key
from .galois import Pred, PredSet, nonexpansive_into_value
from .quantale import INF, Quantale, QuantaleError, is_inf
from .simplex import LinearConstraint, LPProblem, simplex_solve
from .vgraph import Carrier, VGraph, metric_closure

POWERSET = "powerset"
SUBDIST = "subdist"
MONADS = (POWERSET, SUBDIST)


def check_monad(monad: str):
    if monad not in MONADS:
        raise ValueError(f"unknown monad {monad!r}; expected one of {MONADS}")


@dataclass(frozen=True)
class FinSubset:
    """A finite subset in canonical (sorted by canonical key) order."""

    members: Tuple[object, ...]

    def canon(self) -> str:
        return "{" + ",".join(canon_key(m) for m in self.members) + "}"

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self.members


def finsubset(members: Iterable[object]) -> FinSubset:
    seen = {}
    for m in members:
        seen[canon_key(m)] = m
    return FinSubset(tuple(seen[k] for k in sorted(seen)))


@dataclass(frozen=True)
class SubDist:
    """Weighted elements with positive rational weights summing to <= 1."""

    weights: Tuple[Tuple[object, Fraction], ...]

    def canon(self) -> str:
        return "+".join(f"{canon_key(x)}:{w}" for x, w in self.weights)

    def items(self):
        return self.weights

    def support(self) -> Tuple[object, ...]:
        return tuple(x for x, _w in self.weights)

    def mass(self) -> Fraction:
        return sum((w for _x, w in self.weights), Fraction(0))

    def weight(self, x) -> Fraction:
        key = canon_key(x)
        for y, w in self.weights:
            if canon_key(y) == key:
                return w
        return Fraction(0)

    def __len__(self):
        return len(self.weights)


def subdist(weights) -> SubDist:
    """Build a subdistribution from a mapping or (element, weight) pairs.

    Zero weights are dropped; repeated elements are merged; the total
    mass must not exceed 1.
    """
    if isinstance(weights, dict):
        pairs = weights.items()
    else:
        pairs = weights
    acc: Dict[str, Tuple[object, Fraction]] = {}
    for x, w in pairs:
        w = Fraction(w)
        if w < 0:
            raise ValueError(f"negative weight {w} for {x!r}")
        if w == 0:
            continue
        key = canon_key(x)
        if key in acc:
            acc[key] = (acc[key][0], acc[key][1] + w)
        else:
            acc[key] = (x, w)
    total = sum((w for _x, w in acc.values()), Fraction(0))
    if total > 1:
        raise ValueError(f"subdistribution mass {total} exceeds 1")
    return SubDist(tuple(acc[k] for k in sorted(acc)))


def dirac(x) -> SubDist:
    return SubDist(((x, Fraction(1)),))


def is_distribution(p: SubDist) -> bool:
    return p.mass() == 1


# -- monad structure ---------------------------------------------------------

def monad_unit(monad: str, x):
    check_monad(monad)
    if monad == POWERSET:
        return finsubset([x])
    return dirac(x)


def monad_map(monad: str, fn, t):
    check_monad(monad)
    if monad == POWERSET:
        return finsubset(fn(m) for m in t.members)
    return subdist((fn(x), w) for x, w in t.items())


def monad_mult(monad: str, tt):
    check_monad(monad)
    return flatten(monad, weighted(monad, tt))


def monad_ops(monad: str, which: str, *args):
    """Dispatch entry point: which is one of 'unit', 'mult', 'map'."""
    if which == "unit":
        return monad_unit(monad, *args)
    if which == "mult":
        return monad_mult(monad, *args)
    if which == "map":
        return monad_map(monad, *args)
    raise ValueError(f"unknown monad operation {which!r}")


def ev_monad(monad: str, t, q: Quantale):
    """The single evaluation map of the monad.

    Powerset: the meet of the members (numeric sup; empty set gives
    top).  Subdistribution: the expected value, with w * inf = inf for
    w > 0 (weights are strictly positive by construction).
    """
    check_monad(monad)
    return ev_weighted(monad, weighted(monad, t), q)


# -- weighted member lists ------------------------------------------------------
#
# A monad value spread out as a list of (member, weight) pairs, with
# weight None for powerset.  Members may repeat: the lists are merged
# only when ``pack`` or ``flatten`` builds a canonical value, which is
# exact because union and the meet are idempotent and the expectation
# and the merge of a subdistribution are linear in unmerged weights.
# The monad name is not checked here; callers validate it first.

Weighted = Sequence[Tuple[object, Optional[Fraction]]]


def weighted(monad: str, t) -> Weighted:
    if monad == POWERSET:
        return [(m, None) for m in t.members]
    return t.weights


def pack(monad: str, pairs: Weighted):
    """The canonical monad value of a weighted member list."""
    if monad == POWERSET:
        return finsubset(m for m, _w in pairs)
    return subdist(pairs)


def flatten(monad: str, pairs: Weighted):
    """The monad multiplication of a weighted list of monad values."""
    if monad == POWERSET:
        return finsubset(x for inner, _w in pairs for x in inner.members)
    return subdist((x, w * v) for inner, w in pairs for x, v in inner.weights)


def ev_weighted(monad: str, pairs: Weighted, q: Quantale):
    """The evaluation map (see ``ev_monad``) on a weighted member list."""
    if monad == POWERSET:
        return q.meet(q.validate(m) for m, _w in pairs)
    if q.ident == "boolean":
        raise QuantaleError("expectation is not defined over the boolean quantale")
    total = Fraction(0)
    for x, w in pairs:
        v = q.validate(x)
        if is_inf(v):
            return INF
        total += w * v
    return q.validate(total)


# -- liftings ---------------------------------------------------------------

def hausdorff_directed(d: VGraph, left: FinSubset, right: FinSubset):
    """Closed form of the powerset lifting at a pair of subsets.

    meet over members of the right of the join over members of the
    left of the closure distance; on the real-valued quantales this is
    sup_{v in right} inf_{u in left} dc(u, v).  Conventions: an empty
    right gives top, an empty left (nonempty right) gives bottom.
    """
    q = d.quantale
    dc = metric_closure(d)
    return q.meet(
        q.join(dc.at(u, v) for u in left.members)
        for v in right.members
    )


def pricing_lp(d: VGraph, p: SubDist, q_dist: SubDist) -> LPProblem:
    """The dual transportation LP for a pair of (sub)distributions.

    Variables are prices per point, constrained to be non-expansive
    against the metric closure of ``d`` and boxed by the range cap (1
    on the unit interval, the largest finite closure entry otherwise);
    the objective maximizes the price difference of the two masses.
    """
    q = d.quantale
    if q.ident not in ("unit-oplus", "ext-plus"):
        raise QuantaleError("the pricing LP needs a real-valued quantale")
    if p.mass() != q_dist.mass():
        raise ValueError(
            f"mass mismatch: {p.mass()} vs {q_dist.mass()}; "
            "the pricing objective is only translation-invariant at equal mass"
        )
    dc = metric_closure(d)
    els = list(d.carrier.elements)
    if q.ident == "unit-oplus":
        cap = Fraction(1)
    else:
        finite = [v for _x, _y, v in dc.pairs() if not is_inf(v)]
        cap = max(finite) if finite else Fraction(0)
    objective: Dict[str, Fraction] = {}
    for x in els:
        coeff = q_dist.weight(x) - p.weight(x)
        if coeff != 0:
            objective[f"f_{x}"] = coeff
    constraints = []
    for x in els:
        for y in els:
            if x == y:
                continue
            bound = dc.at(x, y)
            if is_inf(bound):
                continue  # vacuous against the box
            constraints.append(LinearConstraint(
                {f"f_{y}": Fraction(1), f"f_{x}": Fraction(-1)}, "<=", Fraction(bound)))
    variables = [f"f_{x}" for x in els]
    bounds = {v: (Fraction(0), cap) for v in variables}
    return LPProblem(variables, objective, constraints, bounds, maximize=True)


def kantorovich_lp(d: VGraph, p: SubDist, q_dist: SubDist):
    """Exact optimal value of the dual transportation problem."""
    for x in tuple(p.support()) + tuple(q_dist.support()):
        d.carrier.index(x)
    lp = pricing_lp(d, p, q_dist)
    sol = simplex_solve(lp)
    opt = sol.optimum if sol.optimum > 0 else Fraction(0)
    return d.quantale.validate(opt)


def expectation_of_pred(p: SubDist, f: Pred, q: Quantale):
    return ev_monad(SUBDIST, monad_map(SUBDIST, lambda x: f[x], p), q)


def kantorovich_monad_generic(monad: str, d: VGraph, preds: PredSet,
                              tvalues: Sequence[object]) -> VGraph:
    """Grid/enumeration oracle for the monad lifting.

    Computes the meet over the supplied predicates of the residuated
    evaluation differences.  With the full boolean predicate class this
    is the exact lifting; with grids it under-approximates the true
    value in the quantale order (numerically a lower bound).
    """
    q = d.quantale
    for f in preds.preds:
        witness = nonexpansive_into_value(q, d, f)
        if witness is not None:
            raise ValueError(f"predicate not non-expansive at pair {witness}")
    keys = [canon_key(t) for t in tvalues]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate T-values supplied")
    out_carrier = Carrier(tuple(keys))
    n = len(tvalues)
    dist = [[q.top] * n for _ in range(n)]
    evaluated = [
        [ev_monad(monad, monad_map(monad, lambda x: f[x], t), q) for t in tvalues]
        for f in preds.preds
    ]
    for fi in range(len(preds.preds)):
        row = evaluated[fi]
        for i in range(n):
            for j in range(n):
                dist[i][j] = q.meet2(dist[i][j], q.residuate(row[i], row[j]))
    return VGraph(q, out_carrier, dist)


# -- JSON ---------------------------------------------------------------------

def tvalue_to_json(monad: str, t, value_to_json=None):
    check_monad(monad)
    if monad == POWERSET:
        return {"set": [m if isinstance(m, str) else canon_key(m) for m in t.members]}
    return {"dist": {x if isinstance(x, str) else canon_key(x): str(w)
                     for x, w in t.items()}}


def tvalue_from_json(monad: str, doc: dict):
    check_monad(monad)
    if monad == POWERSET:
        if not isinstance(doc, dict) or not isinstance(doc.get("set"), list) \
                or not all(isinstance(m, str) for m in doc["set"]):
            raise ValueError(f"expected a set literal with a member list, got {doc!r}")
        return finsubset(doc["set"])
    if not isinstance(doc, dict) or not isinstance(doc.get("dist"), dict):
        raise ValueError(f"expected a dist literal with a weight object, got {doc!r}")
    return subdist({x: Fraction(w) for x, w in doc["dist"].items()})
