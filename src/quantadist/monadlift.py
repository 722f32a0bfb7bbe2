"""Powerset and subdistribution monads with their evaluation maps,
plus the liftings of distances to them: the closed-form directed
Hausdorff distance and exact optimal transport.

Each monad is one ``Monad`` object (``POWERSET``, ``SUBDIST``; by name
through ``get_monad``) carrying its unit, map, multiplication,
evaluation map and the JSON form of its values.  The powerset
evaluation map is the lattice meet of the members (the numeric
supremum on the real-valued quantales, with the empty set evaluating
to top); the subdistribution evaluation map is the expected value,
with the convention that a positive weight times infinity is infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Tuple

from .canon import canon_key
from .quantale import INF, Quantale, QuantaleError, parse_rational
from .simplex import LinearConstraint, LPProblem
from .vgraph import VGraph, scaled_closure


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
    # From a list: a generator would build a 10-slot tuple and shrink it.
    return FinSubset(tuple([seen[k] for k in sorted(seen)]))


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
    """Build a subdistribution from a mapping or (element, weight) pairs,
    checked: the constructor for values that enter from outside (CLI
    literals, sampled suite inputs).

    Weights that are not ``Fraction``s yet (ints, rational strings) are
    converted; none may be negative, and the total mass must not exceed 1.
    Zero weights are dropped and repeated elements merged (``_merge``).
    """
    pairs = []
    for x, w in (weights.items() if isinstance(weights, dict) else weights):
        if not isinstance(w, Fraction):
            w = Fraction(w)
        if w < 0:
            raise ValueError(f"negative weight {w} for {x!r}")
        pairs.append((x, w))
    total = sum((w for _x, w in pairs), Fraction(0))
    if total > 1:
        raise ValueError(f"subdistribution mass {total} exceeds 1")
    return _merge(pairs)


def _merge(pairs) -> SubDist:
    """The subdistribution of (element, weight) pairs whose weights are
    already known to be non-negative ``Fraction``s of mass at most 1:
    zero weights are dropped (a certificate witness may give a part
    weight 0) and the weights of repeated elements added up."""
    acc: Dict[str, Tuple[object, Fraction]] = {}
    for x, w in pairs:
        if not w:
            continue
        key = canon_key(x)
        old = acc.get(key)
        acc[key] = (x, w) if old is None else (old[0], old[1] + w)
    return SubDist(tuple([acc[k] for k in sorted(acc)]))


def set_members_from_json(doc) -> List[str]:
    """The member names of a set literal ``{"set": [...]}``, as listed."""
    if not isinstance(doc, dict) or not isinstance(doc.get("set"), list) \
            or not all(isinstance(m, str) for m in doc["set"]):
        raise ValueError(f"expected a set literal with a member list, got {doc!r}")
    return doc["set"]


def dirac(x) -> SubDist:
    return SubDist(((x, Fraction(1)),))


def _weight_parts(w) -> Tuple[int, int]:
    """The numerator and denominator of the weight literal ``w`` (see
    ``parse_rational``)."""
    if isinstance(w, bool) or not isinstance(w, (str, int)):
        raise ValueError(f"a weight must be a rational string, got {w!r}")
    try:
        return parse_rational(w)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in weight {w!r}") from None


def weight_from_json(w) -> Fraction:
    return Fraction(*_weight_parts(w))


#: A checked weight of a distribution literal: (member, numerator,
#: denominator), the weight positive and not necessarily in lowest terms.
Row = Tuple[str, int, int]


def dist_rows(doc) -> Tuple[Row, ...]:
    """The rows of the distribution literal ``doc`` (``{"dist": {member:
    weight}}``), sorted by member, checked as ``subdist`` checks weights
    but in integers, with no ``Fraction`` built: every weight is a
    rational literal, none is negative, zero weights are dropped and the
    mass is at most 1.  ``subdist_of_rows`` builds the value."""
    weights = doc.get("dist") if isinstance(doc, dict) else None
    if not isinstance(weights, dict):
        raise ValueError(f"expected a dist literal with a weight object, got {doc!r}")
    rows = []
    negative = None
    num, den = 0, 1                    # the mass so far
    for x, w in weights.items():
        n, d = _weight_parts(w)
        if n > 0:
            rows.append((x, n, d))
            num, den = (num + n, den) if d == den else (num * d + n * den, den * d)
        elif n < 0 and negative is None:
            negative = x, n, d
    if negative is not None:
        x, n, d = negative
        raise ValueError(f"negative weight {Fraction(n, d)} for {x!r}")
    if num > den:
        raise ValueError(f"subdistribution mass {Fraction(num, den)} exceeds 1")
    rows.sort()
    return tuple(rows)


def subdist_of_rows(rows: Iterable[Row]) -> SubDist:
    """The subdistribution of rows checked by ``dist_rows``."""
    return SubDist(tuple([(x, Fraction(n, d)) for x, n, d in rows]))


# -- the monads ----------------------------------------------------------------
#
# A monad value spread out as a weighted member list: (member, weight)
# pairs, with weight None for powerset.  Members may repeat: the lists
# are merged only when ``pack`` or ``flatten`` builds a canonical value,
# which is exact because union and the meet are idempotent and the
# expectation and the merge of a subdistribution are linear in unmerged
# weights.  A subdistribution's weights are checked once, where its value
# enters (``subdist`` for CLI literals and sampled values, ``dist_rows``
# for documents, ``certificate_from_json`` for witnesses), so ``map``,
# ``pack`` and ``flatten`` merge with ``_merge`` and check nothing.


class Monad:
    """A monad with its evaluation map into a quantale: the data (T, unit,
    multiplication, ev) that the liftings are built from.  The instances
    are ``POWERSET`` and ``SUBDIST``; each provides

    * ``name`` (as in model files and check names);
    * ``unit(x)`` and ``map(fn, t)``;
    * on weighted member lists: ``weighted(t)`` (the list of a canonical
      value), ``pack(pairs)`` (the canonical value of a list),
      ``flatten(pairs)`` (the multiplication) and ``ev_weighted(pairs,
      q)`` (the evaluation map);
    * ``to_json(t)`` / ``from_json(doc)`` for its values;
    * ``part_weight(doc)``, the weight of a certificate witness part read
      from its JSON part object (a witness is a monad value over pairs in
      the ``weighted`` form: ``((left, right), weight)`` parts).
    """

    name: str = ""

    def mult(self, tt):
        return self.flatten(self.weighted(tt))

    def ev(self, t, q: Quantale):
        return self.ev_weighted(self.weighted(t), q)

    def __repr__(self):
        return f"<monad {self.name}>"


class _Powerset(Monad):
    """Finite subsets.  The evaluation map is the lattice meet of the
    members (the numeric supremum on the real-valued quantales, with the
    empty set evaluating to top)."""

    name = "powerset"

    def unit(self, x):
        return finsubset([x])

    def map(self, fn, t):
        return finsubset(fn(m) for m in t.members)

    def weighted(self, t):
        return [(m, None) for m in t.members]

    def pack(self, pairs):
        return finsubset(m for m, _w in pairs)

    def flatten(self, pairs):
        return finsubset(x for inner, _w in pairs for x in inner.members)

    def ev_weighted(self, pairs, q):
        return q.meet(m for m, _w in pairs)

    def to_json(self, t):
        return {"set": [m if isinstance(m, str) else canon_key(m) for m in t.members]}

    def from_json(self, doc):
        # canon_key of a name is the name itself: finsubset's order.
        return FinSubset(tuple(sorted(set(set_members_from_json(doc)))))

    def part_weight(self, doc):
        return None


class _SubDist(Monad):
    """Subdistributions.  The evaluation map is the expected value, with
    w * inf = inf for w > 0 (weights are strictly positive by
    construction)."""

    name = "subdist"

    def unit(self, x):
        return dirac(x)

    def map(self, fn, t):
        return _merge([(fn(x), w) for x, w in t.weights])

    def weighted(self, t):
        return t.weights

    def pack(self, pairs):
        return _merge(pairs)

    def flatten(self, pairs):
        return _merge([(x, w * v) for inner, w in pairs for x, v in inner.weights])

    def ev_weighted(self, pairs, q):
        # One integer numerator and denominator, normalized once at the
        # end, rather than a Fraction (and its gcd) per term.
        if q.ident == "boolean":
            raise QuantaleError("expectation is not defined over the boolean quantale")
        num, den = 0, 1
        for v, w in pairs:
            if v is INF:
                return INF
            n = w.numerator * v.numerator
            d = w.denominator * v.denominator
            if d == den:
                num += n
            else:
                num, den = num * d + n * den, den * d
        return Fraction(num, den)

    def to_json(self, t):
        return {"dist": {x if isinstance(x, str) else canon_key(x): str(w)
                         for x, w in t.items()}}

    def from_json(self, doc):
        """The value of a distribution literal, built from the rows
        ``dist_rows`` checks."""
        return subdist_of_rows(dist_rows(doc))

    def part_weight(self, doc):
        return weight_from_json(doc["weight"])


POWERSET = _Powerset()
SUBDIST = _SubDist()

_BY_NAME = {m.name: m for m in (POWERSET, SUBDIST)}


def get_monad(name: str) -> Monad:
    if not isinstance(name, str) or name not in _BY_NAME:
        raise ValueError(f"unknown monad {name!r}; expected one of {tuple(_BY_NAME)}")
    return _BY_NAME[name]


# -- liftings ---------------------------------------------------------------

def hausdorff_directed(d: VGraph, left: FinSubset, right: FinSubset):
    """Closed form of the powerset lifting at a pair of subsets.

    meet over members of the right of the join over members of the
    left of the closure distance; on the real-valued quantales this is
    sup_{v in right} inf_{u in left} dc(u, v).  It reads the |left| x
    |right| entries it needs off ``scaled_closure`` (the booleans as
    {0, inf}).  In the quantale's constants: an empty right or a worst
    entry of 0 gives top; an empty left, or a right member no left
    member reaches (inf on ext-plus, false on the booleans), gives bottom.
    """
    q = d.quantale
    if not right.members:
        return q.top
    if not left.members:
        return q.bottom
    index = d.carrier.index
    rows = [index(u) for u in left.members]
    cols = [index(v) for v in right.members]
    m, scale = scaled_closure(d)
    worst = 0
    for j in cols:
        finite = [m[i][j] for i in rows if m[i][j] is not None]
        if not finite:
            return q.bottom
        worst = max(worst, min(finite))
    return q.top if worst == 0 else Fraction(worst, scale)


def _check_transport(d: VGraph, p: SubDist, q_dist: SubDist):
    if d.quantale.ident not in ("unit-oplus", "ext-plus"):
        raise QuantaleError("transportation needs a real-valued quantale")
    if p.mass() != q_dist.mass():
        raise ValueError(
            f"mass mismatch: {p.mass()} vs {q_dist.mass()}; "
            "the pricing objective is only translation-invariant at equal mass"
        )


def price_polytope(d: VGraph):
    """The feasible prices of the transportation dual over ``d``: one
    price ``f_x`` per point, non-negative, at most 1 on unit-oplus (the
    range of its values) and unbounded above on ext-plus, and
    non-expansive against the metric closure dc of ``d``: f_y - f_x <=
    dc(x, y) for every finite entry, and no constraint for an infinite
    one.  Returns the variables, their bounds and the
    non-expansiveness constraints.
    """
    m, scale = scaled_closure(d)
    cap = Fraction(1) if d.quantale.ident == "unit-oplus" else None
    variables = [f"f_{x}" for x in d.carrier.elements]
    constraints = [LinearConstraint({fy: Fraction(1), fx: Fraction(-1)},
                                    Fraction(v, scale))
                   for fx, row in zip(variables, m)
                   for fy, v in zip(variables, row) if fx != fy and v is not None]
    return variables, {v: (Fraction(0), cap) for v in variables}, constraints


def pricing_lp(d: VGraph, p: SubDist, q_dist: SubDist) -> LPProblem:
    """The dual transportation LP for a pair of (sub)distributions: over
    the ``price_polytope`` of ``d``, maximize the price difference of
    the two masses.  ``kantorovich_lp`` solves the primal of this LP;
    the tests use this one with ``simplex_solve`` as its oracle.  At
    equal mass the objective is translation-invariant, so the box of
    unit-oplus never binds and the optimum is the transport cost.  On
    ext-plus the LP is unbounded exactly when every plan ships over an
    infinite closure entry, where the cost is inf.
    """
    _check_transport(d, p, q_dist)
    variables, bounds, constraints = price_polytope(d)
    objective: Dict[str, Fraction] = {}
    for x in d.carrier.elements:
        coeff = q_dist.weight(x) - p.weight(x)
        if coeff != 0:
            objective[f"f_{x}"] = coeff
    return LPProblem(variables, objective, constraints, bounds)


def kantorovich_lp(d: VGraph, p: SubDist, q_dist: SubDist):
    """Exact optimal transport cost of moving ``p`` onto ``q_dist``.

    Moving a unit of mass from x to y costs dc(x, y), the metric closure
    of ``d``.  dc vanishes on the diagonal and obeys the triangle
    inequality dc(y, z) <= dc(y, x) + dc(x, z), with inf on ext-plus
    for a pair no path joins.  The cost is inf when every plan ships
    some mass over such a pair; by LP duality it is the optimum of
    ``pricing_lp`` (unbounded when inf).

    Only the excess moves: the problem solved ships the net mass
    (p - q_dist)+ onto (q_dist - p)+, and the mass both share at a point
    stays there at cost 0.  That loses nothing.  Take an optimal plan
    that moves the least mass off the diagonal.  If it shipped mass from
    y into x and from x on to z (x other than y and z), routing some of
    it from y to z directly and keeping as much at x would never cost
    more, by the triangle inequality, and would move less mass off the
    diagonal.  So no point both sends and receives, and the plan keeps
    min(p(x), q_dist(x)) in place at every x and ships exactly the
    excess.  ``p == q_dist`` gives an empty problem, of cost 0.

    The costs are read off the integer closure of ``scaled_closure``,
    and the masses are scaled to integers too, so the flow computation
    runs on plain ints; the answer is one ``Fraction`` over both scales.
    The masses are equal exactly when the scaled net masses sum to 0, so
    that integer sum is the mass check; ``_check_transport`` (the
    quantale, then the masses, as in ``pricing_lp``) runs only to word a
    refusal, after the carrier check of reading the supports.
    An infinite entry is priced above every plan that avoids such
    entries: the largest finite cost times the units shipped, plus one.
    So the optimum ships over one only when every plan must, and then
    the answer is inf.
    """
    index = d.carrier.index
    supply = [(index(x), w) for x, w in p.items()]
    demand = [(index(y), w) for y, w in q_dist.items()]
    mass_scale = lcm(*[w.denominator for _i, w in supply + demand])  # a list, as in finsubset
    net: Dict[int, int] = {}
    for i, w in supply:
        net[i] = w.numerator * (mass_scale // w.denominator)
    for j, w in demand:
        net[j] = net.get(j, 0) - w.numerator * (mass_scale // w.denominator)
    if sum(net.values()) or d.quantale.ident == "boolean":
        _check_transport(d, p, q_dist)  # words the refusal, as pricing_lp's
    sources = [i for i, v in net.items() if v > 0]
    if not sources:
        return Fraction(0)
    sinks = [j for j, v in net.items() if v < 0]
    m, scale = scaled_closure(d)
    units = [net[i] for i in sources]
    finite = [m[i][j] for i in sources for j in sinks if m[i][j] is not None]
    over = max(finite, default=0) * sum(units) + 1
    cost = [[over if m[i][j] is None else m[i][j] for j in sinks] for i in sources]
    total = _min_cost_transport(units, [-net[j] for j in sinks], cost)
    if total >= over:
        return INF
    return Fraction(total, mass_scale * scale)


def _min_cost_transport(supply: List[int], demand: List[int],
                       cost: List[List[int]]) -> int:
    """Least total cost of shipping ``supply`` onto ``demand`` (equal
    totals) when a unit from source i to sink j costs ``cost[i][j]``.

    Successive shortest paths: each round runs Bellman-Ford from every
    source with supply left over the residual graph (a forward arc i->j
    of cost c, and a reverse arc j->i of cost -c wherever flow is
    positive) and augments along a shortest path to a sink with demand
    left.  The residual graph never has a negative cycle, so the final
    flow is optimal; every augmentation moves at least one unit, so the
    loop ends.
    """
    supply = list(supply)
    demand = list(demand)
    m, k = len(supply), len(demand)
    flow = [[0] * k for _ in range(m)]
    while any(demand):
        dist_src: List[Optional[int]] = [0 if s else None for s in supply]
        dist_sink: List[Optional[int]] = [None] * k
        into_sink = [0] * k            # the source a shortest path enters j from
        into_src: List[Optional[int]] = [None] * m  # the sink a path reaches i from
        changed = True
        while changed:
            changed = False
            for i in range(m):
                di = dist_src[i]
                if di is None:
                    continue
                row = cost[i]
                for j in range(k):
                    nd = di + row[j]
                    dj = dist_sink[j]
                    if dj is None or nd < dj:
                        dist_sink[j] = nd
                        into_sink[j] = i
                        changed = True
            for i in range(m):
                row, fl = cost[i], flow[i]
                for j in range(k):
                    if fl[j]:
                        nd = dist_sink[j] - row[j]
                        di = dist_src[i]
                        if di is None or nd < di:
                            dist_src[i] = nd
                            into_src[i] = j
                            changed = True
        sink = min((j for j in range(k) if demand[j]), key=lambda j: dist_sink[j])
        path = []                      # (source, sink, +1 forward / -1 reverse)
        amount = demand[sink]
        j = sink
        while True:
            i = into_sink[j]
            path.append((i, j, 1))
            back = into_src[i]
            if back is None:
                amount = min(amount, supply[i])
                break
            amount = min(amount, flow[i][back])
            path.append((i, back, -1))
            j = back
        supply[i] -= amount
        demand[sink] -= amount
        for i, j, sign in path:
            flow[i][j] += sign * amount
    return sum(c * f for row, fl in zip(cost, flow) for c, f in zip(row, fl))
