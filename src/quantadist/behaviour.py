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
candidate distances whose support pairs are post-fixpoints up to the
algebraic structure of the monad.  The checker bounds the up-to
function through explicit decomposition witnesses (unions for the
powerset monad, convex combinations for subdistributions) and never
computes it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from .canon import canon_key
from .distlaw import DetCoalgebra, DistLaw
from .monadlift import POWERSET, Monad
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
    return PairResult(value, not layer, iterations, len(states), len(seen) - len(layer))


def trace_lower_bound(model: CoalgebraModel, p, q, max_words: int, *,
                      max_states: int = 100_000):
    """Numeric lower bound on the behavioural distance at (p, q), valid
    for any polynomial-functor model: the ``max_words``-th Kleene
    iterate, which on machine- and exception-shaped models reads every
    word of length strictly below ``max_words``.  Monotone (numerically
    non-decreasing) in ``max_words``.  Determinizing more than
    ``max_states`` states raises ``StateBudgetError``."""
    return pair_gfp(model.det(max_states), p, q, max_iters=max_words).value


# -- candidates, witnesses, certificates --------------------------------------------

@dataclass
class SparseDist:
    """Sparse candidate distance on determinized states; off-support
    pairs default to bottom (the trivial claim).  A trusted record: its
    values are canonical values of the quantale, as
    ``models.certificate_from_json`` reads them."""

    quantale: Quantale
    entries: Dict[Tuple[object, object], object]

    def value_at(self, pair):
        return self.entries.get(pair, self.quantale.bottom)

    def support(self):
        return list(self.entries)


#: A decomposition witness is a monad value over pairs in ``Monad.weighted``
#: form: a tuple of ((left, right), weight) parts, weight None for powerset.
Witness = tuple


@dataclass
class Certificate:
    monad: Monad
    candidate: SparseDist
    witnesses: Dict[Tuple[object, object], List[Witness]] = field(default_factory=dict)


class WitnessError(ValueError):
    """A decomposition witness fails its marginal conditions: its
    ``side`` marginal is the state ``got``, not the pair's ``want``."""

    def __init__(self, side: str, got, want):
        super().__init__(f"{side} marginal differs from the pair's {side} state")
        self.side, self.got, self.want = side, got, want

    def describe(self, value: Callable[[object], object]) -> str:
        """The failure with both states read as monad values by ``value``
        (``DetCoalgebra.value``)."""
        return (f"{self.side} marginal {canon_key(value(self.got))} differs from "
                f"{canon_key(value(self.want))}")


def _check_marginals(monad: Monad, pair, parts):
    """The flattened marginals of a witness must be the pair itself.  On
    powerset states, masks, the multiplication is the union of bits."""
    left, right = pair
    if monad is POWERSET:
        lhs = rhs = 0
        for (a, b), _w in parts:
            lhs |= a
            rhs |= b
    else:
        lhs = monad.flatten([(a, w) for (a, _b), w in parts])
        rhs = monad.flatten([(b, w) for (_a, b), w in parts])
    if lhs != left:
        raise WitnessError("left", lhs, left)
    if rhs != right:
        raise WitnessError("right", rhs, right)


def witness_bound(cert: Certificate, pair, q: Quantale):
    """The best (quantale-largest, numerically smallest) available bound
    on the up-to function at a pair: the candidate entry itself (the
    unit witness) together with the value of every listed decomposition."""
    value_at = cert.candidate.value_at
    bounds = [value_at(pair)]
    for parts in cert.witnesses.get(pair, []):
        _check_marginals(cert.monad, pair, parts)
        # The evaluation map applied to the candidate on the witness pairs.
        bounds.append(cert.monad.ev_weighted([(value_at(p), w) for p, w in parts], q))
    return q.join(bounds)  # numeric min


@dataclass
class Verdict:
    accepted: bool
    failures: List[Tuple[object, object, str]] = field(default_factory=list)
    checked: int = 0

    def reason(self) -> str:
        if self.accepted:
            return f"accepted ({self.checked} support pairs verified)"
        pair_l, pair_r, why = self.failures[0]
        return (f"rejected at ({canon_key(pair_l)}, {canon_key(pair_r)}): {why}")


def certify(cert: Certificate, model: CoalgebraModel) -> Verdict:
    """Check that the candidate is a post-fixpoint up to the monad
    structure, which certifies it as a numeric upper bound on the
    behavioural distance at every pair.

    For each support pair, the one-step behaviour value is computed
    by ``DetCoalgebra.step_distance`` (the value ``beh_value`` gives)
    with identity leaves bounded by ``witness_bound`` at the successor
    pairs; the pair passes when the candidate entry is below that value
    in the quantale order (numerically at least it).  Off-support pairs
    carry the trivial bottom claim and need no check.

    Each successor pair is bounded once per call, and a witness that
    fails its marginals fails every support pair that reads it.  A
    pair of point states, the usual support of a sparse certificate,
    is compared on the model's own transitions: succ(η x) = c(x) by the
    unit law of the exchange law (see ``DetCoalgebra``), and nothing is
    compiled for it.  A powerset pair with a side of several members (or
    none) runs the mask program, which builds no successor term; a
    subdistribution pair compares its two successor terms.  The
    certificate's pairs are determinized states, as
    ``models.certificate_from_json`` reads them; the verdict's failures
    name monad values (``DetCoalgebra.value``).

    The certificate is trusted to be one ``certificate_from_json`` read
    against ``model``: it has the model's monad, its pairs are states of
    the model's determinization, and it has witnesses only where
    ``DistLaw.witnesses_sound`` holds, so nothing but a witness's
    marginals is checked, and only a ``WitnessError`` is caught.
    """
    q = model.quantale
    det = model.det()
    failures: List[Tuple[object, object, str]] = []
    bounds: Dict[Tuple[object, object], object] = {}

    def leaf(x, y):
        pair = (x, y)
        bound = bounds.get(pair)
        if bound is None:
            try:
                bound = witness_bound(cert, pair, q)
            except WitnessError as exc:
                bound = exc
            bounds[pair] = bound
        if isinstance(bound, WitnessError):
            raise bound.with_traceback(None)
        return bound

    support = cert.candidate.support()
    for pair in support:
        p_state, q_state = pair
        stated = cert.candidate.value_at(pair)
        try:
            bound = det.step_distance(p_state, q_state, leaf)
        except WitnessError as exc:
            why = exc.describe(det.value)
        else:
            if q.leq(stated, bound):
                continue
            why = (f"one-step bound {canon_key(bound)} exceeds the stated "
                   f"{canon_key(stated)} numerically")
        failures.append((det.value(p_state), det.value(q_state), why))
    return Verdict(not failures, failures, len(support))
