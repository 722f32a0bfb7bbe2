"""Behaviour distances on determinized systems.

The one-step behaviour function reindexes the closed-form polynomial
lifting along the determinized transition structure.  Its greatest
fixpoint in the quantale order (the numerically least one) is the
behavioural distance; Kleene iteration from the top graph descends
towards it, so truncated runs are sound quantale-order upper bounds
(numeric lower bounds).

Distance queries and trace bounds run ``pair_gfp``: one breadth-first
pass over the pairs reachable from the query pair in the synchronized
product (the lifted distance reads successor pairs at matching
positions only), one depth layer per Kleene iterate.  A run cut at
depth k answers the k-th iterate, the trace bound over words shorter
than k; an exhausted pair graph answers the fixpoint.  ``kleene_gfp``
iterates over every pair of a successor-closed carrier; it is the
reference the local solver is tested against.

Upper bounds in the numeric order come from certificates: sparse
distances on the states of one determinization whose support pairs are
post-fixpoints up to the algebraic structure of the monad.  The checker
bounds the up-to function through explicit decomposition witnesses
(unions for the powerset monad, convex combinations for
subdistributions) and never computes it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .canon import canon_key
from .distlaw import DetCoalgebra, DistLaw
from .monadlift import Monad
from .quantale import Quantale
from .vgraph import Carrier, VGraph


class ModelError(ValueError):
    """A caller's table or carrier does not cover what a model reaches:
    ``beh_apply`` finds no bound for a successor pair, or ``kleene_gfp``
    a carrier not closed under successors."""


@dataclass
class CoalgebraModel:
    """A coalgebra X -> F T X: every state's transition term, with a
    monad value over the states at each identity leaf, held as a state of
    the determinization (``DetCoalgebra``): for powerset the bitmask of
    ``distlaw.point_mask`` over ``states``, for subdistributions the
    subdistribution itself.  A trusted record: ``models.model_from_json``
    checks a model where it is read (term shapes, successors, labels,
    transition keys and the exchange law), and code that builds one
    directly is responsible for the same invariants."""

    quantale: Quantale
    functor: object
    monad: Monad
    states: Carrier
    labels: Carrier
    transitions: Dict[str, object]

    def law(self) -> DistLaw:
        return DistLaw(self.functor, self.monad, self.quantale)

    def det(self, max_states: int = 100_000) -> DetCoalgebra:
        return DetCoalgebra(self.law(), self.transitions, self.states,
                            max_states=max_states)


# -- the behaviour function -----------------------------------------------------

def beh_value(det: DetCoalgebra, dfun: Callable[[object, object], object],
              p, q):
    """One-step behaviour bound at a pair, with the distance at identity
    leaves supplied by the caller (already-saturated bounds plug in
    directly; no closure is re-applied here): the determinization's
    compiled lifted distance (``DetCoalgebra.distance``) on the two
    successor terms.  This is the term path on every monad, with one
    successor rule for both (the unit law at a point state, else the
    exchange law over the members' transitions); ``pair_gfp`` and
    ``certify`` run ``DetCoalgebra.step_distance``, which gives the same
    value, and ``kleene_gfp`` through this function is the reference
    they are tested against."""
    return det.distance(det.successor(p), det.successor(q), dfun)


def beh_apply(det: DetCoalgebra, d: Dict[Tuple[object, object], object],
              pairs: Iterable[Tuple[object, object]]):
    """Apply the behaviour function to a pair-indexed bound table."""

    def leaf(x, y):
        try:
            return d[(x, y)]
        except KeyError:
            raise ModelError(
                f"no bound for successor pair ({canon_key(det.value(x))}, "
                f"{canon_key(det.value(y))})") from None

    return {(p, q): beh_value(det, leaf, p, q) for p, q in pairs}


@dataclass
class KleeneResult:
    states: List[object]
    graph: VGraph
    converged: bool
    iterations: int

    def at(self, p, q):
        return self.graph.dist[self.states.index(p)][self.states.index(q)]


def kleene_gfp(det: DetCoalgebra, states: Sequence[object],
               max_iters: int = 1000) -> KleeneResult:
    """Iterate the behaviour function from the all-top graph.

    The carrier must be closed under one-step successors.  On exact
    stabilization the result is the greatest fixpoint; otherwise the
    last iterate is returned flagged as an approximation (still a
    quantale-order upper bound on the fixpoint, i.e. a numeric lower
    bound on every distance).  The graph's carrier names each state by
    the canonical key of its monad value (``DetCoalgebra.value``).
    """
    states = list(dict.fromkeys(states))
    known = set(states)
    for s in states:
        for succ in det.successor_states(s):
            if succ not in known:
                raise ModelError(
                    f"carrier not closed under successors: {canon_key(det.value(s))} "
                    f"reaches {canon_key(det.value(succ))}")
    q = det.law.quantale
    pairs = [(p, r) for p in states for r in states]
    current = {pair: q.top for pair in pairs}
    converged = False
    iterations = 0
    for _ in range(max_iters):
        new = beh_apply(det, current, pairs)
        iterations += 1
        if new == current:
            converged = True
            break
        current = new
    keys = Carrier(tuple(canon_key(det.value(s)) for s in states))
    n = len(states)
    dist = [[current[(states[i], states[j])] for j in range(n)] for i in range(n)]
    return KleeneResult(states, VGraph(q, keys, dist), converged, iterations)


def reachable_states(det: DetCoalgebra, seeds: Sequence[object]) -> List[object]:
    """Successor-closure of the seeds (for finite determinized systems;
    ``det.max_states`` bounds the exploration)."""
    out: List[object] = []
    seen: Set[object] = set()
    queue = list(seeds)
    while queue:
        s = queue.pop(0)
        if s in seen:
            continue
        seen.add(s)
        out.append(s)
        queue.extend(det.successor_states(s))
    return out


#: A reported value prints in at most this many decimal digits, in its
#: numerator and in its denominator: CPython's default limit on
#: converting an int to a string, fixed here whatever the running
#: interpreter's limit is.
MAX_DIGITS = 4300
_TOO_LONG = 10 ** MAX_DIGITS
_TOO_LONG_BITS = _TOO_LONG.bit_length()


def overlong_part(value) -> Optional[str]:
    """``"numerator"`` or ``"denominator"``, the first part of a
    ``Fraction`` value with more than ``MAX_DIGITS`` decimal digits,
    measured without printing it; None when the value prints."""
    if isinstance(value, Fraction):
        for name, part in (("numerator", value.numerator),
                           ("denominator", value.denominator)):
            if part.bit_length() >= _TOO_LONG_BITS and abs(part) >= _TOO_LONG:
                return name
    return None


@dataclass
class PairResult:
    """The behaviour-function iterate at one query pair: ``value`` is
    the ``iterations``-th Kleene iterate there."""

    value: object
    converged: bool  # the pair graph was exhausted: value is the fixpoint
    iterations: int  # depth layers evaluated
    states: int      # determinized states the evaluated pairs touch
    pairs: int       # pairs evaluated


def pair_gfp(det: DetCoalgebra, p, q, max_iters: int = 1000) -> PairResult:
    """The ``max_iters``-th Kleene iterate of the behaviour function at
    ``(p, q)``, from one breadth-first pass over the synchronized pair
    graph.

    The lifted distance (``DetCoalgebra.distance``) has no tensor: it
    meets local constant comparisons with the distance at the identity
    leaves in the same position of both one-step terms.  So the k-th
    iterate at the query is the meet of the local values (leaves read as
    top) of the pairs within depth k - 1.  Each layer's pairs are
    evaluated once, queueing unseen leaf pairs as the next layer; an
    empty layer means the pair graph is exhausted and the value is the
    fixpoint.  Only the states of evaluated pairs are determinized.

    Each pair is evaluated by ``DetCoalgebra.step_distance``: on
    powerset the mask program over the compiled nodes, which builds no
    successor term, or the unit law when both states are point states;
    on subdistributions the lifted distance on the two successor terms.

    The run also ends, unconverged, after the first layer that leaves the
    value too long to print (``overlong_part``), so a value that outgrows
    the limit costs the layers up to that one, not ``max_iters``.  The
    command line refuses such a run even where a later layer would have
    given a shorter value.
    """
    qt = det.law.quantale
    top, meet2 = qt.top, qt.meet2
    step = det.step_distance
    value = top
    seen = {(p, q)}
    layer = [(p, q)]
    states: Set[object] = set()
    iterations = 0
    while layer and iterations < max_iters:
        following: List[Tuple[object, object]] = []

        def record(x, y):
            if (x, y) not in seen:
                seen.add((x, y))
                following.append((x, y))
            return top

        for a, b in layer:
            states.update((a, b))
            local = step(a, b, record)
            if local is not top:
                value = meet2(value, local)
        layer = following
        iterations += 1
        if overlong_part(value) is not None:
            break
    return PairResult(value, not layer, iterations, len(states), len(seen) - len(layer))


def trace_lower_bound(model: CoalgebraModel, p, q, max_words: int, *,
                      max_states: int = 100_000):
    """Numeric lower bound on the behavioural distance at (p, q), valid
    for any polynomial-functor model: the ``max_words``-th Kleene
    iterate, which on machine- and exception-shaped models reads every
    word of length strictly below ``max_words``.  Monotone (numerically
    non-decreasing) in ``max_words``.  Determinizing more than
    ``max_states`` states raises ``galois.BudgetError``."""
    return pair_gfp(model.det(max_states), p, q, max_iters=max_words).value


# -- witnesses, certificates -----------------------------------------------------------

#: A decomposition witness is a monad value over pairs in ``Monad.weighted``
#: form: a tuple of ((left, right), weight) parts, weight None for powerset.
Witness = tuple


@dataclass
class Certificate:
    """A sparse distance claimed on the states of ``det``, the
    determinization it was read against: ``entries`` maps a pair of
    states to the value claimed there (a pair off the support claims
    bottom, the trivial claim), and ``witnesses`` lists each pair's
    decomposition witnesses.  A trusted record: its values are canonical
    values of the quantale and its witnesses are checked, as
    ``models.certificate_from_json`` reads them."""

    det: DetCoalgebra
    entries: Dict[Tuple[object, object], object]
    witnesses: Dict[Tuple[object, object], List[Witness]]


def witness_bound(cert: Certificate, pair):
    """The best (quantale-largest, numerically smallest) available bound
    on the up-to function at a pair: the entry itself (the unit witness)
    together with the value of every listed decomposition, the evaluation
    map of the determinization's monad applied to the entries on its
    parts.  A part reads its entry alone (bottom off the support), never
    another witness's bound.  ``certify`` evaluates this once per
    witnessed pair.  Nothing is checked: ``models.certificate_from_json``
    has checked that each witness's parts flatten to its pair."""
    law = cert.det.law
    q = law.quantale
    bottom = q.bottom
    entry = cert.entries.get
    bounds = [entry(pair, bottom)]
    for parts in cert.witnesses.get(pair, []):
        bounds.append(law.monad.ev_weighted([(entry(p, bottom), w) for p, w in parts], q))
    return q.join(bounds)  # numeric min


@dataclass
class Verdict:
    failures: List[Tuple[object, object, str]]
    checked: int

    @property
    def accepted(self) -> bool:
        return not self.failures

    def reason(self) -> str:
        if self.accepted:
            return f"accepted ({self.checked} support pairs verified)"
        pair_l, pair_r, why = self.failures[0]
        return (f"rejected at ({canon_key(pair_l)}, {canon_key(pair_r)}): {why}")


def certify(cert: Certificate) -> Verdict:
    """Check that the certificate's entries are a post-fixpoint up to the
    monad structure, which certifies each as a numeric upper bound on
    the behavioural distance of ``cert.det`` at its pair.

    For each support pair, the one-step behaviour value is computed
    by ``DetCoalgebra.step_distance`` (the value ``beh_value`` gives)
    with identity leaves bounded by ``witness_bound`` at the successor
    pairs; the pair passes when its entry is below that value in the
    quantale order (numerically at least it).  Off-support pairs carry
    the trivial bottom claim and need no check.

    The bounds are one table, built once per call: the entries, with
    each witnessed pair's slot replaced by its ``witness_bound``, so a
    successor bound is one read of it (bottom off the table).  A pair
    of point states, the usual support of a sparse certificate, is
    compared on the model's own transitions: succ(η x) = c(x) by the
    unit law of the exchange law (see ``DetCoalgebra``), and nothing is
    compiled for it.  A powerset pair with a side of several members
    (or none) runs the mask program, which builds no successor term; a
    subdistribution pair compares its two successor terms.  The
    verdict's failures name monad values (``DetCoalgebra.value``).

    The check runs on the determinization the certificate holds, so its
    monad and states are the ones the certificate was read against.
    What stays trusted is what ``models.certificate_from_json`` checks of
    the witnesses: there are witnesses only where
    ``DistLaw.witnesses_sound`` holds, and each witness's weights are a
    subdistribution whose parts flatten to its pair.  So the check is
    the one step alone, and nothing is caught.
    """
    det = cert.det
    q = det.law.quantale
    bottom = q.bottom
    failures: List[Tuple[object, object, str]] = []
    bounds = dict(cert.entries)
    for pair in cert.witnesses:
        bounds[pair] = witness_bound(cert, pair)
    read = bounds.get

    def leaf(x, y):
        return read((x, y), bottom)

    for (p_state, q_state), stated in cert.entries.items():
        bound = det.step_distance(p_state, q_state, leaf)
        if not q.leq(stated, bound):
            failures.append((det.value(p_state), det.value(q_state),
                             f"one-step bound {canon_key(bound)} exceeds the stated "
                             f"{canon_key(stated)} numerically"))
    return Verdict(failures, len(cert.entries))
