"""Finite-coproduct polynomial functors: syntax, terms, generated
evaluation maps, closed-form lifted distances, and the generic meet
formula for the Kantorovich lifting over the booleans, where the full
predicate class is enumerable and the formula is exact.

Functor grammar: constants over the quantale's own values (evaluated
by the identity), the identity functor, finite labelled products, and
binary coproducts.  Powers are sugar for labelled products of copies
of the body.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .canon import canon_key
from .galois import Pred, PredSet, gamma_enum, residual_meet
from .monadlift import Monad
from .quantale import BOOLEAN, Quantale
from .vgraph import Carrier, VGraph, metric_closure


class ShapeError(ValueError):
    """A value is not a term (``map_payloads``, ``iter_payloads``)."""


# -- functor expressions ------------------------------------------------------

@dataclass(frozen=True)
class ConstF:
    """Constant functor: the constant carrier is the quantale itself and
    its evaluation map is the identity.  An exchange law needs this: the
    constant's algebra is the monad's evaluation map on quantale values.
    """


@dataclass(frozen=True)
class IdF:
    pass


@dataclass(frozen=True)
class ProdF:
    """A product of ``parts``, at least one; ``labels``, when given, names
    each part (``pow_functor`` gives one label per part).
    ``models.functor_from_json`` refuses an empty product."""

    parts: Tuple["FunctorExpr", ...]
    labels: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class CoprodF:
    left: "FunctorExpr"
    right: "FunctorExpr"


FunctorExpr = object  # ConstF | IdF | ProdF | CoprodF

ID = IdF()


def pow_functor(labels: Sequence[str], body: FunctorExpr) -> ProdF:
    labels = tuple(labels)
    return ProdF(parts=(body,) * len(labels), labels=labels)


def machine_functor(labels: Sequence[str]) -> ProdF:
    """Payoff paired with a labelled family of successors."""
    return ProdF(parts=(ConstF(), pow_functor(labels, ID)), labels=None)


def exception_functor(labels: Sequence[str]) -> CoprodF:
    """Either a terminal output value or a labelled family of successors."""
    return CoprodF(ConstF(), pow_functor(labels, ID))


# -- terms --------------------------------------------------------------------
#
# Terms are values: equality and hash go by class and fields, and nothing
# assigns to a field after construction (``tests/test_reachability.py``
# guards this).  They are slotted rather than frozen, because a frozen
# dataclass sets each field through ``object.__setattr__`` and costs
# about twice as much to build, and model loading builds one per node.

@dataclass(unsafe_hash=True, slots=True)
class ConstLeaf:
    atom: object  # a quantale value

    def canon(self) -> str:
        return f"c({canon_key(self.atom)})"


@dataclass(unsafe_hash=True, slots=True)
class IdLeaf:
    payload: object  # carrier element, quantale value, or T-value

    def canon(self) -> str:
        return f"i({canon_key(self.payload)})"


@dataclass(unsafe_hash=True, slots=True)
class Tup:
    items: Tuple[object, ...]

    def canon(self) -> str:
        return "(" + ",".join(canon_key(t) for t in self.items) + ")"


@dataclass(unsafe_hash=True, slots=True)
class Inl:
    item: object

    def canon(self) -> str:
        return f"l({canon_key(self.item)})"


@dataclass(unsafe_hash=True, slots=True)
class Inr:
    item: object

    def canon(self) -> str:
        return f"r({canon_key(self.item)})"


def map_payloads(term, fn: Callable[[object], object]):
    """Apply ``fn`` at every identity leaf, preserving structure."""
    if isinstance(term, IdLeaf):
        return IdLeaf(fn(term.payload))
    if isinstance(term, ConstLeaf):
        return term
    if isinstance(term, Tup):
        return Tup(tuple(map_payloads(t, fn) for t in term.items))
    if isinstance(term, Inl):
        return Inl(map_payloads(term.item, fn))
    if isinstance(term, Inr):
        return Inr(map_payloads(term.item, fn))
    raise ShapeError(f"not a term: {term!r}")


def iter_payloads(term):
    if isinstance(term, IdLeaf):
        yield term.payload
    elif isinstance(term, Tup):
        for t in term.items:
            yield from iter_payloads(t)
    elif isinstance(term, (Inl, Inr)):
        yield from iter_payloads(term.item)
    elif not isinstance(term, ConstLeaf):
        raise ShapeError(f"not a term: {term!r}")


# -- evaluation maps ----------------------------------------------------------

@dataclass(frozen=True)
class ConstEval:
    pass


@dataclass(frozen=True)
class IdEval:
    pass


@dataclass(frozen=True)
class ProjEval:
    index: int
    inner: object


@dataclass(frozen=True)
class CoprodEval:
    side: str  # 'left' = [ev, top], 'right' = [bottom, ev], 'split' = [bottom, top]
    inner: object = None


@dataclass(frozen=True)
class MonadEval:
    monad: Monad


@dataclass(frozen=True)
class StarEval:
    """ev_outer composed with the outer functor's action on ev_inner."""

    outer: object
    inner: object


EvalMap = object


def eval_map(q: Quantale, ev, term):
    """The value of an evaluation map on a term whose carrier leaves
    (identity-leaf payloads and monad members) are quantale values: the
    map's reader (see ``_reader``) with each leaf read as itself."""
    return _reader(q, ev, term, _constant)(None)


def build_lambda(functor: FunctorExpr) -> List[EvalMap]:
    """The generated evaluation-map set of a polynomial functor."""
    if isinstance(functor, ConstF):
        return [ConstEval()]
    if isinstance(functor, IdF):
        return [IdEval()]
    if isinstance(functor, ProdF):
        out: List[EvalMap] = []
        for i, part in enumerate(functor.parts):
            for inner in build_lambda(part):
                out.append(ProjEval(i, inner))
        return out
    if isinstance(functor, CoprodF):
        out = [CoprodEval("left", e) for e in build_lambda(functor.left)]
        out += [CoprodEval("right", e) for e in build_lambda(functor.right)]
        out.append(CoprodEval("split"))
        return out
    raise TypeError(f"not a functor expression: {functor!r}")


def star(lam_outer: Sequence[EvalMap], lam_inner: Sequence[EvalMap]) -> List[EvalMap]:
    """All pairwise compositions ev_outer o F(ev_inner)."""
    return [StarEval(a, b) for a in lam_outer for b in lam_inner]


# -- closed-form lifted distance ----------------------------------------------
#
# The lifted distance of a composite functor is the composite of the
# liftings of its nodes, so a functor is compiled once into a distance
# program: one function ``(s, t, leaf)`` per node, with the quantale
# operations bound and the children's programs closed over, and a term
# pair runs through it with no dispatch on the functor syntax.

#: A compiled lifted distance: ``program(s, t, leaf)`` with ``leaf(x, y)``
#: the distance at a pair of identity-leaf payloads.
DistanceProgram = Callable[[object, object, Callable[[object, object], object]], object]


def distance_program(q: Quantale, functor: FunctorExpr) -> DistanceProgram:
    """Compile the structural lifted distance of ``functor`` over ``q``.

    Constants take the residuated values; products take the
    componentwise meet (a part at top leaves the meet as it is);
    coproducts compare same-side terms recursively, give top on
    left-versus-right and bottom on right-versus-left.  The program
    trusts its terms to match ``functor`` and checks no shape: the
    model loader and the determinization build terms to the functor's
    shape, and so do the law suites that call ``lift_closed``.  The
    program binds the quantale's operations when it is built, so build
    it where it is used (``DetCoalgebra.distance`` holds one per
    determinization).
    """
    if isinstance(functor, ConstF):
        return _const_program(q)
    if isinstance(functor, IdF):
        return _id_program
    if isinstance(functor, ProdF):
        return _prod_program(q, functor)
    if isinstance(functor, CoprodF):
        return _coprod_program(q, functor)
    raise TypeError(f"not a functor expression: {functor!r}")


def _const_program(q: Quantale) -> DistanceProgram:
    residuate = q.residuate

    def const(s, t, leaf):
        return residuate(s.atom, t.atom)
    return const


def _id_program(s, t, leaf):
    return leaf(s.payload, t.payload)


def _prod_program(q: Quantale, functor: ProdF) -> DistanceProgram:
    parts = tuple(distance_program(q, part) for part in functor.parts)
    meet2, top = q.meet2, q.top

    def prod(s, t, leaf):
        value = top
        for part, a, b in zip(parts, s.items, t.items):
            v = part(a, b, leaf)
            if v is not top:
                value = v if value is top else meet2(value, v)
        return value
    return prod


def _coprod_program(q: Quantale, functor: CoprodF) -> DistanceProgram:
    left = distance_program(q, functor.left)
    right = distance_program(q, functor.right)
    top, bottom = q.top, q.bottom

    def coprod(s, t, leaf):
        if isinstance(s, Inl):
            return left(s.item, t.item, leaf) if isinstance(t, Inl) else top
        return right(s.item, t.item, leaf) if isinstance(t, Inr) else bottom
    return coprod


def polynomial_distance(q: Quantale, functor: FunctorExpr, leaf_dist, s, t):
    """Structural lifted distance with a caller-supplied distance at
    identity leaves: ``distance_program(q, functor)`` built and run once.
    Code that compares many pairs builds the program once instead."""
    return distance_program(q, functor)(s, t, leaf_dist)


def _term_carrier(terms: Sequence[object]) -> Carrier:
    """The terms named by their canonical keys; ``Carrier`` refuses a
    repeated term."""
    return Carrier(tuple(canon_key(t) for t in terms))


def lift_closed(functor: FunctorExpr, d: VGraph, terms: Sequence[object]) -> VGraph:
    """Closed-form lifted distance on an explicit finite term carrier.

    Identity leaves are compared with the metric closure of ``d``
    (payloads must be elements of d's carrier).  The terms must match
    ``functor``; like ``distance_program``, this checks no shape.
    """
    q = d.quantale
    dc = metric_closure(d)
    leaf = lambda x, y: dc.at(x, y)
    out_carrier = _term_carrier(terms)
    distance = distance_program(q, functor)
    dist = [[distance(s, t, leaf) for t in terms] for s in terms]
    return VGraph(q, out_carrier, dist)


# -- generic Kantorovich formula ------------------------------------------------
#
# The formula is compiled over the booleans only (``score_program``,
# ``compile_lifting``); readers and ``eval_map`` serve every quantale.
# A reader is an evaluation map compiled on one term: a function from a
# predicate to the term's score, that is, to the value of the map on the
# term with the predicate applied at its carrier leaves.  A polynomial
# map ends in a constant or in one identity leaf, so its reader returns
# a constant or looks up a single ``f[x]``; a monad map reads every
# member and applies the monad's evaluation map.  In ``StarEval(outer,
# inner)`` the outer map reads the term and the inner map reads the
# payload of each identity leaf (or member) the outer map reaches; the
# layering alone says where the predicate applies.

Reader = Callable[[Pred], object]


def _constant(value) -> Reader:
    return lambda f: value


def _reader(q: Quantale, ev, term, at_leaf: Callable[[object], Reader]) -> Reader:
    """Compile ``ev`` on ``term``; ``at_leaf`` compiles the payload of
    each identity leaf or monad member that ``ev`` reads.  The term must
    have the shape of the functor whose maps ``ev`` is built from
    (``build_lambda``, ``star``); no shape is checked."""
    if isinstance(ev, ConstEval):
        return _constant(term.atom)
    if isinstance(ev, IdEval):
        return at_leaf(term.payload)
    if isinstance(ev, ProjEval):
        return _reader(q, ev.inner, term.items[ev.index], at_leaf)
    if isinstance(ev, CoprodEval):
        if isinstance(term, Inl):
            if ev.side == "left":
                return _reader(q, ev.inner, term.item, at_leaf)
            return _constant(q.bottom)
        if ev.side == "right":
            return _reader(q, ev.inner, term.item, at_leaf)
        return _constant(q.top)
    if isinstance(ev, MonadEval):
        monad = ev.monad
        parts = [(at_leaf(m), w) for m, w in monad.weighted(term)]
        return lambda f: monad.ev_weighted([(read(f), w) for read, w in parts], q)
    if isinstance(ev, StarEval):
        return _reader(q, ev.outer, term,
                       lambda payload: _reader(q, ev.inner, payload, at_leaf))
    raise TypeError(f"not an evaluation map: {ev!r}")


def _recording_lookup(reads: Dict[object, None]) -> Callable[[object], Reader]:
    def at_leaf(x) -> Reader:
        reads[x] = None
        return itemgetter(x)
    return at_leaf


#: Compiled score vectors: ``scores(preds)`` yields the terms' score
#: vectors, one list per evaluation map and distinct predicate reading.
ScoreProgram = Callable[[Sequence[Pred]], Iterator[List[object]]]


def score_program(evals: Sequence[EvalMap], terms: Sequence[object]) -> ScoreProgram:
    """Compile the boolean score vectors of ``terms`` under ``evals``.

    Each (map, term) pair is compiled once into a reader, along with the
    carrier elements the map reads on any of the terms.  Running the
    program on a list of predicates yields, for every map, the terms'
    score vector under each predicate; predicates that agree on every
    element the map reads give the same vector, which is yielded once.
    """
    compiled = []
    for ev in evals:
        reads: Dict[object, None] = {}
        readers = [_reader(BOOLEAN, ev, t, _recording_lookup(reads)) for t in terms]
        compiled.append((tuple(reads), readers))

    def scores(preds: Sequence[Pred]) -> Iterator[List[object]]:
        for read, readers in compiled:
            seen = set()
            for f in preds:
                key = tuple(f[x] for x in read)
                if key not in seen:
                    seen.add(key)
                    yield [score(f) for score in readers]
    return scores


#: A compiled Kantorovich lifting: ``lifting(preds)`` is the lifted graph
#: on the compiled terms, given the predicate set ``gamma_enum(d)`` of a
#: boolean graph d.
Lifting = Callable[[PredSet], VGraph]


def compile_lifting(evals: Sequence[EvalMap], terms: Sequence[object]) -> Lifting:
    """Compile the generic Kantorovich formula over the booleans on
    ``terms``: the meet over evaluation maps and supplied predicates of
    the residuated evaluation differences.

    Compiling builds the term carrier and compiles the score vectors
    (``score_program``); none of that depends on the graph.  The terms
    must have the shape the maps in ``evals`` read (see ``_reader``):
    the law suites and ``distlaw`` build both from one functor.  The
    lifting of a boolean graph d is ``lifting(gamma_enum(d))``: it reads
    d only through its predicate set, which ``gamma_enum`` enumerates
    from a boolean graph only and fills with non-expansive predicates,
    so the run checks neither again.  With that full predicate class
    the formula is the lifting exactly.  The result's entries are
    booleans by construction.
    """
    out_carrier = _term_carrier(terms)
    scores = score_program(evals, terms)
    n = len(terms)

    def lifting(preds: PredSet) -> VGraph:
        return VGraph(BOOLEAN, out_carrier, residual_meet(n, scores(preds.preds)))
    return lifting


#: A compiled compositionality check: ``check(preds)`` is the report on a
#: boolean graph d, given ``preds`` = ``gamma_enum(d)``.
CompositionalityCheck = Callable[[PredSet], dict]


def compositionality_check(lam_outer: Sequence[EvalMap], lam_inner: Sequence[EvalMap],
                           inner_terms: Sequence[object],
                           composed_terms: Sequence[object]) -> CompositionalityCheck:
    """Compile the boolean-exact comparison of the two-step lifting with
    the single combined-map lifting.

    Over the boolean quantale the full predicate class is enumerable, so
    both sides are exact.  The report also checks the one inequality
    that holds unconditionally: the composed lifting is below the
    combined one in the quantale order.

    ``lam_outer`` and ``lam_inner`` are the generated maps
    (``build_lambda``) of an outer and an inner functor, ``inner_terms``
    terms of the inner functor and ``composed_terms`` terms of the outer
    functor over inner terms; as in ``compile_lifting``, no shape is
    checked.  Its three liftings are compiled once: the inner one on
    ``inner_terms``, the outer one on the composed terms with each inner
    term replaced by its key (the inner graph's carrier), and the
    combined ``star`` one on ``composed_terms``.  The returned check
    runs them on the predicate set ``preds`` = ``gamma_enum(d)`` of a
    boolean graph d; only the outer lifting enumerates predicates, those
    of the inner graph.  Every value compared is a function of
    ``preds``: both liftings of d read d only through it, and the outer
    lifting reads the inner graph, itself a lifting of d.  So graphs with
    the same predicate set get the same report, which lets the
    exhaustive boolean suites run the check once per set
    (``suites.BooleanFibre``).
    """
    inner_lifting = compile_lifting(lam_inner, inner_terms)
    outer_lifting = compile_lifting(
        lam_outer, [map_payloads(t, canon_key) for t in composed_terms])
    combined_lifting = compile_lifting(star(lam_outer, lam_inner), composed_terms)
    n = len(composed_terms)
    leq = BOOLEAN.leq

    def check(preds: PredSet) -> dict:
        lhs = outer_lifting(gamma_enum(inner_lifting(preds)))
        rhs = combined_lifting(preds)
        equal = lhs.dist == rhs.dist
        composed_below_combined = all(
            leq(lhs.dist[i][j], rhs.dist[i][j]) for i in range(n) for j in range(n))
        return {
            "lhs": lhs,
            "rhs": rhs,
            "equal": equal,
            "composed_below_combined": composed_below_combined,
        }
    return check
