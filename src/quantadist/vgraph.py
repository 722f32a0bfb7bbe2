"""Finite quantale-valued graphs and categories.

A VGraph is a finite carrier of named points together with a square
matrix of quantale values (no axioms).  A V-category additionally
satisfies reflexivity (unit below the diagonal) and the tensor-triangle
inequality; `metric_closure` computes the least V-category above a
graph by shortest-path style saturation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Optional, Tuple

from .quantale import BOOLEAN, INF, Quantale


class CarrierMismatchError(ValueError):
    """A name is not an element of the carrier it is looked up in."""


@dataclass(frozen=True)
class Carrier:
    """Ordered tuple of distinct element names; the order is canonical."""

    elements: Tuple[str, ...]
    _positions: Dict[str, int] = field(init=False, repr=False, compare=False)
    _bits: Optional[Dict[str, int]] = field(default=None, init=False, repr=False,
                                            compare=False)

    def __post_init__(self):
        positions = {x: i for i, x in enumerate(self.elements)}
        if len(positions) != len(self.elements):
            raise ValueError(f"duplicate carrier elements: {self.elements}")
        object.__setattr__(self, "_positions", positions)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self._positions

    def index(self, x: str) -> int:
        try:
            return self._positions[x]
        except KeyError:
            raise CarrierMismatchError(f"{x!r} is not a carrier element") from None

    def bits(self) -> Dict[str, int]:
        """Each element's one-bit mask, ``1 << index``, in a table built on
        first use: the bit a set of elements read as a bitmask gives it."""
        if self._bits is None:
            object.__setattr__(self, "_bits", {x: 1 << i for x, i in self._positions.items()})
        return self._bits


def carrier(elements: Iterable[str]) -> Carrier:
    return Carrier(tuple(elements))


@dataclass
class VGraph:
    """A square matrix of quantale values over a carrier.  A trusted
    record: it checks nothing itself.  Its entries are canonical values
    of the quantale, read by ``value_from_json`` (the ``vgraph`` branch
    of ``models.model_from_json``, which also checks the matrix size),
    checked by ``graph_from_entries``, or computed by quantale
    operations."""

    quantale: Quantale
    carrier: Carrier
    dist: List[List[object]]

    def at(self, x: str, y: str):
        return self.dist[self.carrier.index(x)][self.carrier.index(y)]

    def pairs(self):
        els = self.carrier.elements
        for i, x in enumerate(els):
            for j, y in enumerate(els):
                yield x, y, self.dist[i][j]


def constant_graph(q: Quantale, c: Carrier, value) -> VGraph:
    n = len(c)
    return VGraph(q, c, [[value] * n for _ in range(n)])


def all_bottom(q: Quantale, c: Carrier) -> VGraph:
    return constant_graph(q, c, q.bottom)


def graph_from_entries(q: Quantale, c: Carrier, entries: Dict[Tuple[str, str], object],
                       default=None) -> VGraph:
    """Build a graph from an entry map; missing entries use ``default``
    (the quantale top if not given).  Values written in code enter here,
    so each one, the default included, goes through ``q.validate``."""
    default = q.top if default is None else q.validate(default)
    n = len(c)
    dist = [[default] * n for _ in range(n)]
    for (x, y), v in entries.items():
        dist[c.index(x)][c.index(y)] = q.validate(v)
    return VGraph(q, c, dist)


@dataclass
class FiniteMap:
    """A total map between carriers: ``assignment`` sends every element
    of ``domain`` into ``codomain`` (a trusted record, built by the law
    suites' ``all_maps``).  ``reindex``, ``direct_image`` and
    ``galois.reindex_preds`` trust it to fit the graph or predicate set
    they apply it to."""

    domain: Carrier
    codomain: Carrier
    assignment: Dict[str, str]

    def __call__(self, x: str) -> str:
        return self.assignment[x]


def reindex(f: FiniteMap, d_cod: VGraph) -> VGraph:
    """Pull a graph on the codomain back along f (d o (f x f)).  ``f``'s
    codomain must be the graph's carrier; it is not checked."""
    q = d_cod.quantale
    dom = f.domain
    dist = [[d_cod.at(f(x), f(y)) for y in dom] for x in dom]
    return VGraph(q, dom, dist)


def direct_image(f: FiniteMap, d_dom: VGraph) -> VGraph:
    """Push a graph forward along f: the join over preimage pairs.

    Pairs with an empty preimage get the empty join, i.e. bottom.
    ``f``'s domain must be the graph's carrier; it is not checked.
    """
    q = d_dom.quantale
    cod = f.codomain
    out = all_bottom(q, cod)
    for x1 in f.domain:
        for x2 in f.domain:
            i = cod.index(f(x1))
            j = cod.index(f(x2))
            out.dist[i][j] = q.join2(out.dist[i][j], d_dom.at(x1, x2))
    return out


def is_vcat(d: VGraph) -> bool:
    """Reflexivity (unit below every diagonal entry) plus the triangle law."""
    q = d.quantale
    n = len(d.carrier)
    m = d.dist
    for i in range(n):
        if not q.leq(q.unit, m[i][i]):
            return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not q.leq(q.tensor(m[i][j], m[j][k]), m[i][k]):
                    return False
    return True


def scaled_closure(d: VGraph) -> Tuple[List[List[Optional[int]]], int]:
    """The metric closure of a graph on plain ints: returns ``(m,
    scale)`` where entry (i, j) of the least V-category above ``d`` is
    ``m[i][j] / scale``, with ``None`` for ``INF``.  A real-valued graph
    is scaled by the least common multiple of its finite denominators; a
    boolean one is the sub-quantale {0, inf} of ext-plus (true as 0,
    false as ``None``, scale 1).  ``metric_closure`` says why the pass is
    exact.  With the diagonal at 0, row k does not change in round k, so
    its finite entries are read once per round.
    """
    if d.quantale is BOOLEAN:
        scale = 1
        m = [[0 if v else None for v in row] for row in d.dist]
    else:
        # A list, not a generator, which would build a tuple and shrink it.
        scale = lcm(*[v.denominator for row in d.dist for v in row if v is not INF])
        m = [[None if v is INF else v.numerator * (scale // v.denominator) for v in row]
             for row in d.dist]
    for i, row in enumerate(m):
        row[i] = 0
    for k, row_k in enumerate(m):
        through_k = [(j, b) for j, b in enumerate(row_k) if b is not None]
        for row in m:
            a = row[k]
            if a is None or row is row_k:
                continue
            for j, b in through_k:
                cand = a + b
                old = row[j]
                if old is None or cand < old:
                    row[j] = cand
    return m, scale


def metric_closure(d: VGraph) -> VGraph:
    """Least V-category above ``d``.

    Saturates the diagonal with the unit, then runs one Floyd-Warshall
    pass (k outermost) joining each entry with its tensor-composites
    through k.  One pass reaches the fixpoint because all three
    quantales are integral: the unit is top, so going round a cycle
    never improves a path and the best path through {0..k} is a simple
    one.  The pass runs in ``scaled_closure`` on plain ints, which is
    exact: scaling by a positive integer commutes with addition and
    minimum, and on the booleans, {0, inf}, "and" is + and "or" the
    minimum.  An entry reads back as a ``Fraction`` (``INF`` for
    ``None``), or as true where it is finite.  A composite replaces an
    entry only when it is numerically below it, hence below 1 on
    unit-oplus, so the truncation of the sum never applies.
    """
    m, scale = scaled_closure(d)
    if d.quantale is BOOLEAN:
        dist = [[v is not None for v in row] for row in m]
    else:
        dist = [[INF if v is None else Fraction(v, scale) for v in row] for row in m]
    return VGraph(d.quantale, d.carrier, dist)
