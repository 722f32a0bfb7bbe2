"""Inductive exchange laws between a monad and a polynomial functor,
determinization, and the law suites that license the lifting.

The coproduct case routes through a prioritizing transformation that
keeps the left summand whenever it is inhabited: for the powerset
monad the left intersection (if non-empty), for the subdistribution
monad the restriction to the left part of the support.  ``law_suite``
checks the monad/functor exchange diagrams, the compatibility and
well-behavedness of the prioritizing transformation, the evaluation
exchange identity, and non-expansiveness of the exchange components
between the two composite liftings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, islice, product
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .canon import canon_key
from .functor import (ConstF, ConstLeaf, CoprodF, DistanceProgram, IdF, IdLeaf, Inl,
                      Inr, MonadEval, ProdF, StarEval, Tup, build_lambda,
                      compile_lifting, distance_program, eval_map, iter_payloads,
                      exception_functor, machine_functor, map_payloads,
                      score_program)
from .galois import BudgetError, Grid, grid_values, residual_meet
from .monadlift import (POWERSET, SUBDIST, FinSubset, Monad, SubDist, finsubset,
                        kantorovich_lp, subdist)
from .quantale import BOOLEAN, EXT_PLUS, UNIT_OPLUS, Quantale
from .suites import CheckResult, boolean_fibre
from .vgraph import Carrier, CarrierMismatchError, VGraph


PRIORITY_LEFT = "priority-left"
ALWAYS_LEFT = "always-left"  # law-suite mutant: drops the priority test


@dataclass
class DistLaw:
    """An exchange law for a monad over a polynomial functor.

    Constant nodes are quantale-valued; their algebra is the monad
    evaluation map (numeric sup for powerset, expectation for
    subdistributions), which is an algebra homomorphism into itself.
    A trusted record: ``models.model_from_json`` refuses a model whose
    law has constants with no algebra (``constants_defined``).

    ``witnesses_sound`` says whether a certificate's witnesses may bound
    a pair: a witness bounds it by the evaluation map of the entries on
    its parts, which is sound only where the lifted distance is
    convex along the monad.  That fails for subdistributions over
    unit-oplus with a coproduct anywhere in the functor: a coproduct
    compares right against left at bottom, 1 on unit-oplus, and a part
    of weight w < 1 scales that bottom down to w (on ext-plus w * inf
    stays inf).  On subdistributions over the booleans the bound is not
    defined at all: it is an expectation.  ``models.certificate_from_json``
    refuses witnesses on such a law; plain entries are ordinary
    coinduction and stay sound.
    """

    functor: object
    monad: Monad
    quantale: Quantale
    g_variant: str = PRIORITY_LEFT

    @property
    def witnesses_sound(self) -> bool:
        return not (self.monad is SUBDIST and (
            self.quantale is BOOLEAN
            or (self.quantale is UNIT_OPLUS
                and any(isinstance(n, CoprodF) for n in _nodes(self.functor)))))


def constants_defined(functor, monad: Monad, quantale: Quantale) -> bool:
    """Whether the law of ``monad`` over ``functor`` has an algebra on its
    constants: not for subdistributions over the booleans with a constant
    node, where the expectation of booleans is undefined."""
    return not (monad is SUBDIST and quantale is BOOLEAN
                and any(isinstance(n, ConstF) for n in _nodes(functor)))


def _nodes(functor):
    """Yield every node of the functor."""
    yield functor
    if isinstance(functor, ProdF):
        for part in functor.parts:
            yield from _nodes(part)
    elif isinstance(functor, CoprodF):
        yield from _nodes(functor.left)
        yield from _nodes(functor.right)
    elif not isinstance(functor, (ConstF, IdF)):
        raise TypeError(f"not a functor expression: {functor!r}")


def _prioritize(items: Sequence, in_left: Callable[[object], bool], variant: str):
    """The priority decision of g on a sequence of members: keep those in
    the left summand when there is one (always, for the mutant
    variant), else keep everything."""
    left = [x for x in items if in_left(x)]
    if variant == ALWAYS_LEFT or left:
        return "left", left
    return "right", items


def apply_g(monad: Monad, t, in_left: Callable[[object], bool],
            variant: str = PRIORITY_LEFT):
    """The prioritizing transformation: tag and restrict a monad value
    over a disjoint union.

    Returns (side, restricted) where side is 'left' when the left part
    is inhabited (always, for the mutant variant), 'right' otherwise.
    """
    side, kept = _prioritize(monad.weighted(t), lambda pair: in_left(pair[0]), variant)
    return side, monad.pack(kept)


def apply_zeta(law: DistLaw, t):
    """One component of the exchange law: a monad value of F-terms
    becomes an F-term over monad values."""
    return _zeta(law, law.functor, law.monad.weighted(t), law.monad.pack)


def _in_left(pair) -> bool:
    return isinstance(pair[0], Inl)


def _zeta(law: DistLaw, functor, pairs, leaf):
    """Walk the functor over a weighted list of F-terms (see
    ``Monad.weighted``) without building a monad value of F-terms;
    ``leaf`` turns the weighted payload list at each identity node into
    its monad value."""
    if isinstance(functor, ConstF):
        return ConstLeaf(law.monad.ev_weighted([(m.atom, w) for m, w in pairs],
                                               law.quantale))
    if isinstance(functor, IdF):
        return IdLeaf(leaf([(m.payload, w) for m, w in pairs]))
    if isinstance(functor, ProdF):
        return Tup(tuple(_zeta(law, part, [(m.items[i], w) for m, w in pairs], leaf)
                         for i, part in enumerate(functor.parts)))
    if isinstance(functor, CoprodF):
        side, kept = _prioritize(pairs, _in_left, law.g_variant)
        stripped = [(m.item, w) for m, w in kept]
        if side == "left":
            return Inl(_zeta(law, functor.left, stripped, leaf))
        return Inr(_zeta(law, functor.right, stripped, leaf))
    raise TypeError(f"not a functor expression: {functor!r}")


# -- determinization -----------------------------------------------------------

def point_mask(names: Iterable[str], states: Carrier) -> int:
    """The powerset state with the given members: the bitmask whose bit i
    stands for the point state ``states.elements[i]``.  A name that is not
    a state raises ``CarrierMismatchError``."""
    bits = states.bits()
    mask = 0
    for x in names:
        try:
            mask |= bits[x]
        except KeyError:
            raise CarrierMismatchError(f"{x!r} is not a carrier element") from None
    return mask


def mask_value(mask: int, states: Carrier) -> FinSubset:
    """The set of point states a powerset state stands for, in
    ``finsubset`` order (a name is its own canonical key)."""
    return FinSubset(tuple(sorted(states.elements[low.bit_length() - 1]
                                  for low in _bits(mask))))


def _bits(mask: int):
    """The one-bit masks of the members of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _union(pairs) -> int:
    """The powerset multiplication on states: the union of the members'
    masks."""
    out = 0
    for mask, _w in pairs:
        out |= mask
    return out


@dataclass
class DetCoalgebra:
    """Memoized determinized transition structure over monad states.

    A powerset state is an ``int``, the bitmask over the point states
    of ``point_mask``; a subdistribution state is the subdistribution
    itself.  The identity-leaf payloads of the transition terms are
    states in the same form (``models.model_from_json`` reads them so),
    and so are those of every successor, which is a term built from
    ``Inl``/``Inr``/``Tup``/``IdLeaf``/``ConstLeaf``.  ``state`` and
    ``value`` convert a monad value over the point states to its state
    and back, where states enter or leave the program: command line
    pairs, reports and failure messages.

    ``successor`` has one rule on both monads.  A point state, the unit
    η(x) of a base state x (a one-member set, or a subdistribution with
    one member of weight 1), steps to the model's own transition term:
    succ(η x) = c(x).  The exchange law's unit axiom λ∘η_F = Fη together
    with μ∘η_T = id makes η a coalgebra morphism from the model into its
    determinization, so ``successor`` reads c(x) off ``transitions``
    instead of running the exchange law and the multiplication.  Any
    other state runs the exchange law (``_zeta``) over its members'
    transitions, with the multiplication on states at each identity
    leaf (``mult``, on a ``Monad.weighted`` list of states): the union of
    the leaf masks on powerset, ``SUBDIST.flatten`` on subdistributions.
    ``models.certificate_from_json`` flattens a witness's parts with the
    same ``mult``.  So the law must be an exact one, as
    ``CoalgebraModel.law`` builds it: the mutant prioritizer breaks the
    unit axiom, and only ``law_suite`` reads it.  Transition terms must be
    canonical and built to the functor's shape (monad values as built by
    their constructors, constants canonical quantale values), as they
    are when read from a model file.

    ``distance`` is the law's functor compiled once into its lifted
    distance (``functor.distance_program``): ``distance(s, t, leaf)``
    compares two successors with ``leaf`` at their identity leaves.
    ``step_distance(s, t, leaf)`` is ``distance(successor(s),
    successor(t), leaf)``, with ``leaf`` called on the same pairs in the
    same order; ``pair_gfp`` and ``certify`` run it.  It takes one of
    three paths.  A pair of two powerset point states takes the unit
    law: ``distance`` on the two transition terms, compiling nothing.
    Any other powerset pair (a side empty or with several members)
    compiles its new members and runs the mask program
    (``_mask_program``), which builds no successor term: the lifted
    distance built once over the functor on the two states' masks (the
    lifting of a composite functor is the composite of its nodes'
    liftings).  On subdistributions it is the term path, ``distance`` on
    the two successors.  The behaviour function (``beh_value``,
    ``kleene_gfp``) keeps the term path, the reference the mask program
    is tested against.

    States are determinized lazily, on their first read by
    ``successor`` or ``step_distance``; reading a new state once
    ``max_states`` distinct states have been read raises
    ``galois.BudgetError`` rather than truncating.
    """

    law: DistLaw
    transitions: Dict[str, object]
    states: Carrier
    memo: Dict[object, object] = field(default_factory=dict, init=False)
    max_states: int = 100_000
    distance: DistanceProgram = field(init=False, repr=False, compare=False)
    mult: Callable[[list], object] = field(init=False, repr=False, compare=False)
    _read: Set[object] = field(default_factory=set, init=False, repr=False)
    _compile_point: Optional[MaskCompile] = field(default=None, init=False, repr=False)
    _pair: Optional[MaskProgram] = field(default=None, init=False, repr=False)
    _compiled: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        self.distance = distance_program(self.law.quantale, self.law.functor)
        if self.law.monad is POWERSET:
            self.mult = _union
            self._compile_point, self._pair = _mask_program(self.law.quantale,
                                                            self.law.functor)
        else:
            self.mult = SUBDIST.flatten

    def state(self, t):
        """The state of a monad value over the point states."""
        return point_mask(t, self.states) if self.law.monad is POWERSET else t

    def value(self, state):
        """The monad value a state stands for."""
        return mask_value(state, self.states) if self.law.monad is POWERSET else state

    def _members(self, state):
        """A state's members in the ``Monad.weighted`` form over the
        point states' names: weight None on powerset."""
        if self.law.monad is POWERSET:
            elements = self.states.elements
            return [(elements[low.bit_length() - 1], None) for low in _bits(state)]
        return state.weights

    def _admit(self, state):
        """Count a state against ``max_states`` on its first read."""
        if state not in self._read:
            if len(self._read) >= self.max_states:
                raise BudgetError(
                    f"determinization exceeded the budget of {self.max_states} states")
            self._read.add(state)

    def _compile(self, mask):
        """Compile the point states of ``mask`` not compiled yet."""
        new = mask & ~self._compiled
        for low in _bits(new):
            x = self.states.elements[low.bit_length() - 1]
            self._compile_point(low, self.transitions[x])
        self._compiled |= new

    def successor(self, state):
        if state in self.memo:
            return self.memo[state]
        self._admit(state)
        members = self._members(state)
        if len(members) == 1 and members[0][1] in (None, 1):
            out = self.transitions[members[0][0]]  # the unit law
        else:
            # The exchange law followed by the multiplication at each
            # identity leaf, fused: each leaf is multiplied once.
            lifted = [(self.transitions[x], w) for x, w in members]
            out = _zeta(self.law, self.law.functor, lifted, self.mult)
        self.memo[state] = out
        return out

    def successor_states(self, state):
        return list(iter_payloads(self.successor(state)))

    def step_distance(self, s, t, leaf):
        """``distance(successor(s), successor(t), leaf)``, with ``leaf``
        read on the same pairs in the same order: on powerset the unit
        law on two point states, else the mask program (see the
        class)."""
        pair = self._pair
        if pair is None:
            return self.distance(self.successor(s), self.successor(t), leaf)
        read = self._read
        if s not in read or t not in read:
            self._admit(s)
            self._admit(t)
        if s and t and not s & (s - 1) and not t & (t - 1):
            # Two point states: the unit law.
            elements, transitions = self.states.elements, self.transitions
            return self.distance(transitions[elements[s.bit_length() - 1]],
                                 transitions[elements[t.bit_length() - 1]], leaf)
        if (s | t) & ~self._compiled:
            self._compile(s | t)
        return pair(s, t, leaf)


#: Compiles one powerset point state into a node: ``(bit, term)``, with
#: ``term`` the part of the point's transition term at that node.
MaskCompile = Callable[[int, object], None]
#: The lifted distance on two powerset states' masks: ``(s, t, leaf)``
#: to a quantale value.
MaskProgram = Callable[[int, int, Callable[[int, int], object]], object]


def _mask_program(q: Quantale, functor) -> Tuple[MaskCompile, MaskProgram]:
    """The lifted distance (``functor.distance_program``) on two powerset
    states' masks, built once over the functor with no point state
    compiled, and the step that compiles a point state into it.

    Each node keeps one rule on a state's mask, read off its compiled
    point states: a coproduct keeps the members on its left summand when
    there are any, an identity leaf is the union of the members' leaf
    masks, and a constant the meet of their constants (top on the empty
    mask); unions and meets are memoized per mask.  The program compares
    two masks node by node: a coproduct compares the kept left members
    when both sides keep some, gives top on left-versus-right and bottom
    on right-versus-left; a product meets its parts (a part at top leaves
    the meet as it is); an identity leaf reads ``leaf`` on the two
    unions, a constant residuates the two meets.  The compiled tables are
    read at each call, so points compiled later are seen."""
    if isinstance(functor, ConstF):
        atoms: Dict[int, object] = {}
        meets: Dict[int, object] = {}
        meet, residuate = q.meet, q.residuate

        def compile_const(bit, term):
            atoms[bit] = term.atom

        def value(mask):
            out = meets.get(mask)
            if out is None:
                out = meets[mask] = meet([atoms[low] for low in _bits(mask)])
            return out
        return compile_const, lambda s, t, leaf: residuate(value(s), value(t))
    if isinstance(functor, IdF):
        leaves: Dict[int, int] = {}
        unions: Dict[int, int] = {}

        def compile_leaf(bit, term):
            leaves[bit] = term.payload

        def union(mask):
            out = unions.get(mask)
            if out is None:
                out = 0
                rest = mask
                while rest:
                    low = rest & -rest
                    out |= leaves[low]
                    rest ^= low
                unions[mask] = out
            return out
        return compile_leaf, lambda s, t, leaf: leaf(union(s), union(t))
    if isinstance(functor, ProdF):
        compiles, parts = zip(*(_mask_program(q, part) for part in functor.parts))
        meet2, top = q.meet2, q.top

        def compile_prod(bit, term):
            for compile_part, item in zip(compiles, term.items):
                compile_part(bit, item)

        def prod(s, t, leaf):
            value = top
            for part in parts:
                v = part(s, t, leaf)
                if v is not top:
                    value = v if value is top else meet2(value, v)
            return value
        return compile_prod, prod
    if isinstance(functor, CoprodF):
        compile_left, left = _mask_program(q, functor.left)
        compile_right, right = _mask_program(q, functor.right)
        top, bottom = q.top, q.bottom
        on_left = 0  # the compiled point states whose term takes the left summand

        def compile_coprod(bit, term):
            nonlocal on_left
            if isinstance(term, Inl):
                on_left |= bit
                compile_left(bit, term.item)
            else:
                compile_right(bit, term.item)

        def coprod(s, t, leaf):
            ks, kt = s & on_left, t & on_left
            if ks:
                return left(ks, kt, leaf) if kt else top
            return bottom if kt else right(s, t, leaf)
        return compile_coprod, coprod
    raise TypeError(f"not a functor expression: {functor!r}")


# -- law suites -----------------------------------------------------------------

def _f_terms_over(functor, payloads, const_vals):
    """All F-terms over the given payloads with constants from const_vals."""
    if isinstance(functor, ConstF):
        return [ConstLeaf(v) for v in const_vals]
    if isinstance(functor, IdF):
        return [IdLeaf(p) for p in payloads]
    if isinstance(functor, ProdF):
        parts = [_f_terms_over(p, payloads, const_vals) for p in functor.parts]
        return [Tup(combo) for combo in product(*parts)]
    if isinstance(functor, CoprodF):
        return ([Inl(t) for t in _f_terms_over(functor.left, payloads, const_vals)]
                + [Inr(t) for t in _f_terms_over(functor.right, payloads, const_vals)])
    raise TypeError(functor)


def _small_subsets(items, max_size, keep: Optional[int] = None):
    """The first ``keep`` (all, when None) subsets of at most
    ``max_size`` items, smallest first; none past them is built."""
    combos = chain.from_iterable(combinations(items, size)
                                 for size in range(max_size + 1))
    return [finsubset(c) for c in islice(combos, keep)]


def _draw_quarters(rng: random.Random, n: int):
    """The draw of a subdistribution on at most two of ``n`` items,
    weights in quarters: (item index, quarters) pairs, the indices
    distinct and the quarters adding up to at most 4.  ``rng.sample``
    picks by position, so the indices are those sampling the items
    themselves would pick."""
    size = rng.randint(0, 2)
    remaining = 4
    draw = []
    for i in rng.sample(range(n), min(size, n)):
        w = rng.randint(0, remaining)
        remaining -= w
        draw.append((i, w))
    return draw


def _subdist_of_draw(items, draw) -> SubDist:
    return subdist([(items[i], Fraction(w, 4)) for i, w in draw])


def _sample_subdist(rng: random.Random, items) -> SubDist:
    """A subdistribution on at most two of ``items``, weights in quarters."""
    return _subdist_of_draw(items, _draw_quarters(rng, len(items)))


def _tvalues(law: DistLaw, rng: random.Random, items: Sequence, count: int,
             keep: Optional[int] = None):
    """The T-values a check runs on, at most ``keep`` of them: every
    subset of at most two items for powerset, the distinct values among
    ``count`` samples for subdistributions (all ``count`` are drawn
    whatever is kept, so later draws do not depend on ``keep``).

    The items are distinct values, so two draws give the same
    subdistribution exactly when they put the same positive weights on
    the same indices: each draw is keyed by those, and a value is built
    only for a new key."""
    if law.monad is POWERSET:  # enumerable; subdistributions are sampled
        return _small_subsets(items, 2, keep)
    out = []
    seen = set()
    for _ in range(count):
        draw = _draw_quarters(rng, len(items))
        key = tuple(sorted((i, w) for i, w in draw if w))
        if key not in seen:
            seen.add(key)
            out.append(_subdist_of_draw(items, draw))
    return out[:keep]


def _unit_compat(law: DistLaw, terms) -> CheckResult:
    name = f"{law.monad.name}/{_shape_name(law)}: exchange respects the unit"
    for t in terms:
        lhs = apply_zeta(law, law.monad.unit(t))
        rhs = map_payloads(t, law.monad.unit)
        if lhs != rhs:
            return CheckResult(name, False, f"term {canon_key(t)}")
    return CheckResult(name, True)


def _pentagon(law: DistLaw, doubles) -> CheckResult:
    name = f"{law.monad.name}/{_shape_name(law)}: exchange respects the multiplication"
    # The doubles are drawn from a few singles, so the same inner values
    # recur: apply zeta once to each.  They are keyed by identity (the
    # doubles hold the singles themselves, and keep them alive for the
    # call), since hashing a T-value walks all of it.
    zeta_of: Dict[int, object] = {}

    def inner_zeta(t):
        z = zeta_of.get(id(t))
        if z is None:
            z = zeta_of[id(t)] = apply_zeta(law, t)
        return z

    for tt in doubles:
        lhs = apply_zeta(law, law.monad.mult(tt))
        inner = law.monad.map(inner_zeta, tt)
        rhs = map_payloads(apply_zeta(law, inner), law.monad.mult)
        if lhs != rhs:
            return CheckResult(name, False, f"input {canon_key(tt)}")
    return CheckResult(name, True)


def _g_compat_unit(law: DistLaw) -> CheckResult:
    monad = law.monad
    name = f"{monad.name} ({law.g_variant}): prioritizer compatible with the unit"
    elements = ["l_a", "l_b", "r_a", "r_b"]
    in_left = lambda x: x.startswith("l")
    for x in elements:
        side, restricted = apply_g(monad, monad.unit(x), in_left, law.g_variant)
        want_side = "left" if in_left(x) else "right"
        if side != want_side or restricted != monad.unit(x):
            return CheckResult(name, False, f"unit at {x}: got {side} {canon_key(restricted)}")
    return CheckResult(name, True)


def _g_compat_mult(law: DistLaw, rng: random.Random) -> CheckResult:
    monad = law.monad
    name = f"{monad.name} ({law.g_variant}): prioritizer compatible with the multiplication"
    elements = ["l_a", "l_b", "r_a", "r_b"]
    in_left = lambda x: x.startswith("l")
    inners = _tvalues(law, rng, elements, 12)
    doubles = _tvalues(law, rng, inners, 40)
    for tt in doubles:
        lhs = apply_g(monad, monad.mult(tt), in_left, law.g_variant)
        # Right side: apply g inside, tag, apply g at the outer level on
        # the tags, then flatten the surviving side.
        tagged = monad.map(lambda t: apply_g(monad, t, in_left, law.g_variant), tt)
        outer_side, outer = apply_g(monad, tagged,
                                    lambda pair: pair[0] == "left", law.g_variant)
        flattened = monad.mult(monad.map(lambda pair: pair[1], outer))
        rhs = (outer_side, flattened)
        if lhs != rhs:
            return CheckResult(name, False,
                               f"input {canon_key(tt)}: {lhs} vs {rhs}")
    return CheckResult(name, True)


def _well_behaved(law: DistLaw, rng: random.Random) -> CheckResult:
    """The three squares relating g to the monad evaluation map.

    These are quantale-specific statements: the expectation square
    needs the extended reals (a positive weight times bottom = infinity
    must stay bottom), so the subdistribution check always runs there;
    the powerset check runs over the law's own quantale.
    """
    q = EXT_PLUS if law.monad is SUBDIST else law.quantale
    name = f"{law.monad.name} over {q.ident} ({law.g_variant}): prioritizer well-behaved"
    left_els = ["l_a", "l_b"]
    right_els = ["r_a", "r_b"]
    in_left = lambda x: x.startswith("l")
    vals = grid_values(q, Grid(2, cap=1))
    fs = [dict(zip(left_els + right_els, combo))
          for combo in _sampled_combos(rng, vals, 4, 40)]
    ts = _tvalues(law, rng, left_els + right_els, 40)

    def run_side(t, bracket):
        monad = law.monad
        return monad.ev_weighted([(bracket(x), w) for x, w in monad.weighted(t)], q)

    for t in ts:
        side, restricted = apply_g(law.monad, t, in_left, law.g_variant)
        # The split square reads no f, so its sides are computed once per
        # t; it is still compared third for each f, which keeps the first
        # failure, and so the witness, that of the per-f loop.
        split = (run_side(t, lambda x: q.bottom if in_left(x) else q.top),
                 q.bottom if side == "left" else q.top)
        for f in fs:
            cases = [
                ("left-eval", lambda: run_side(t, lambda x: f[x] if in_left(x) else q.top),
                 (lambda: run_side(restricted, lambda x: f[x]) if side == "left" else q.top)),
                ("right-eval", lambda: run_side(t, lambda x: q.bottom if in_left(x) else f[x]),
                 (lambda: q.bottom if side == "left"
                  else run_side(restricted, lambda x: f[x]))),
                ("split", lambda: split[0], lambda: split[1]),
            ]
            for tag, via_direct, via_g in cases:
                direct = via_direct()
                routed = via_g()
                if direct != routed:
                    return CheckResult(
                        name, False,
                        f"{tag} square at {canon_key(t)}, f={ {k: canon_key(v) for k, v in f.items()} }: "
                        f"{canon_key(direct)} vs {canon_key(routed)}")
    return CheckResult(name, True)


def _sampled_combos(rng, vals, width, count):
    seen = set()
    out = []
    for _ in range(count):
        combo = tuple([rng.choice(vals) for _ in range(width)])  # a list, as in finsubset
        if combo not in seen:
            seen.add(combo)
            out.append(combo)
    return out


def _exchange_identity(law: DistLaw, rng: random.Random) -> CheckResult:
    """Composite evaluation maps agree across the exchange component."""
    q = law.quantale
    name = f"{law.monad.name}/{_shape_name(law)}: evaluation-map exchange identity"
    vals = grid_values(q, Grid(2, cap=1))
    f_terms = _f_terms_over(law.functor, vals, vals)
    if len(f_terms) > 24:
        f_terms = f_terms[:: max(1, len(f_terms) // 24)]
    inputs = _tvalues(law, rng, f_terms, 60)
    lam_f = build_lambda(law.functor)
    ev_t = MonadEval(law.monad)
    images = [apply_zeta(law, t) for t in inputs]

    def via_zeta_vector(ev):
        return tuple([canon_key(eval_map(q, StarEval(ev, ev_t), z)) for z in images])

    def direct_vector(ev):
        return tuple([canon_key(eval_map(q, StarEval(ev_t, ev), t)) for t in inputs])

    lhs = sorted(via_zeta_vector(ev) for ev in lam_f)
    rhs = sorted(direct_vector(ev) for ev in lam_f)
    if lhs != rhs:
        return CheckResult(name, False, "composite evaluations differ on grid inputs")
    return CheckResult(name, True)


def _const_algebra_hom(law: DistLaw, rng: random.Random) -> CheckResult:
    """The evaluation map, the algebra of every value constant, is an
    Eilenberg-Moore algebra: ev(unit(v)) = v on the grid values, and
    ev(mult(tt)) = ev(map(ev, tt)) on every pair (s, t) of sampled
    T-values, with tt the value of s whose members are replaced by s
    and t in turn."""
    q = law.quantale
    monad = law.monad
    name = f"{monad.name} over {q.ident}: constant algebras are evaluation homomorphisms"
    vals = grid_values(q, Grid(2, cap=1))
    for v in vals:
        if monad.ev(monad.unit(v), q) != v:
            return CheckResult(name, False, f"unit at {canon_key(v)}")
    ts = _tvalues(law, rng, vals, 30)
    # tt stays a weighted list: the multiplication and the evaluation
    # map read repeated members as the canonical value merges them.
    evs = [monad.ev(t, q) for t in ts]
    for s, ev_s in zip(ts, evs):
        weights = [w for _v, w in monad.weighted(s)]
        for t, ev_t in zip(ts, evs):
            tt = [(t if i % 2 else s, w) for i, w in enumerate(weights)]
            if monad.ev(monad.flatten(tt), q) != monad.ev_weighted(
                    [(ev_t if i % 2 else ev_s, w) for i, w in enumerate(weights)], q):
                return CheckResult(name, False, canon_key(monad.pack(tt)))
    return CheckResult(name, True)


def _zeta_nonexpansive_boolean(law: DistLaw) -> CheckResult:
    """Exact non-expansiveness of the exchange component between the two
    composite liftings, over the boolean quantale (powerset only).

    Both liftings read each boolean graph only through its predicate
    set, so each gamma-class is checked once (``BooleanFibre``).  The
    lifting on the T(F)-terms and the readers of their images are
    compiled once and run on each class's predicate set."""
    name = f"{law.monad.name}/{_shape_name(law)}: exchange component non-expansive (boolean exact)"
    bool_law = DistLaw(law.functor, law.monad, BOOLEAN, law.g_variant)
    c = Carrier(("x", "y"))
    f_terms = _f_terms_over(law.functor, list(c.elements), [False, True])
    tf_terms = _small_subsets(f_terms, 2, keep=12)
    ft_terms = [apply_zeta(bool_law, t) for t in tf_terms]
    lam_f = build_lambda(law.functor)
    ev_t = MonadEval(law.monad)
    tf_evals = [StarEval(ev_t, ev) for ev in lam_f]
    ft_evals = [StarEval(ev, ev_t) for ev in lam_f]
    n = len(tf_terms)
    tf_lifting = compile_lifting(tf_evals, tf_terms)
    # The images may collide, so the other side is a matrix by position
    # rather than a graph keyed by term.
    ft_scores = score_program(ft_evals, ft_terms)

    def fails(d, preds):
        d_tf = tf_lifting(preds)
        d_ft = residual_meet(n, ft_scores(preds.preds))
        for i in range(n):
            for j in range(n):
                if not BOOLEAN.leq(d_tf.dist[i][j], d_ft[i][j]):
                    return (f"d={d.dist} at pair "
                            f"({canon_key(tf_terms[i])}, {canon_key(tf_terms[j])})")
        return None

    witness = boolean_fibre(c).first_failure(fails)
    return CheckResult(name, witness is None, witness or "")


def _zeta_nonexpansive_machine_lp(law: DistLaw, rng: random.Random) -> CheckResult:
    """Exact check for the product-shaped subdistribution law: both
    composite liftings reduce to output differences plus per-label
    transport problems, and the exchange component preserves them."""
    name = f"{law.monad.name}/{_shape_name(law)}: exchange component non-expansive (transport exact)"
    q = law.quantale
    c = Carrier(("x", "y"))
    labels = law.functor.parts[1].labels or ("a",)
    vals = [Fraction(0), Fraction(1, 2), Fraction(1)]
    f_terms = _f_terms_over(law.functor, list(c.elements), vals)
    grid = [Fraction(i, 4) for i in range(5)]
    for _ in range(6):
        d = VGraph(q, c, [[rng.choice(grid) for _ in c.elements] for _ in c.elements])
        dists = [t for t in (_sample_subdist(rng, f_terms) for _ in range(24))
                 if t.mass() == 1][:6]
        # Each distribution's output expectation and label distributions,
        # pushed forward and through the exchange component, once.
        images = []
        for mu in dists:
            z = apply_zeta(law, mu)
            images.append((
                (SUBDIST.ev(SUBDIST.map(lambda t: t.items[0].atom, mu), q),
                 [SUBDIST.map(lambda t, i=i: t.items[1].items[i].payload, mu)
                  for i in range(len(labels))]),
                (z.items[0].atom, [z.items[1].items[i].payload for i in range(len(labels))])))
        solved = {}

        def lifted(a, b):
            # The pairs of the pushed distributions repeat; each distinct
            # transport problem on this graph is solved once.
            pairs = list(zip(a[1], b[1]))
            for pair in pairs:
                if pair not in solved:
                    solved[pair] = kantorovich_lp(d, *pair)
            return q.meet([q.residuate(a[0], b[0])] + [solved[pair] for pair in pairs])

        for mu, (m_pushed, m_zeta) in zip(dists, images):
            for nu, (n_pushed, n_zeta) in zip(dists, images):
                lhs = lifted(m_pushed, n_pushed)
                rhs = lifted(m_zeta, n_zeta)
                if lhs != rhs:
                    return CheckResult(name, False,
                                       f"{canon_key(mu)} vs {canon_key(nu)}")
    return CheckResult(name, True)


def _shape_name(law: DistLaw) -> str:
    f = law.functor
    if isinstance(f, ProdF):
        return "product-shape"
    if isinstance(f, CoprodF):
        return "coproduct-shape"
    return type(f).__name__


def law_suite(law: DistLaw, seed: int = 0) -> List[CheckResult]:
    """Run every exchange-law check for one monad/functor combination."""
    rng = random.Random(seed)
    q = law.quantale
    vals = grid_values(q, Grid(2, cap=1))
    payloads = ["s0", "s1"]
    f_terms = _f_terms_over(law.functor, payloads, vals)
    if len(f_terms) > 12:
        f_terms = f_terms[:: max(1, len(f_terms) // 12)]
    singles = _tvalues(law, rng, f_terms, 100)
    doubles = _tvalues(law, rng, singles, 100, keep=150)
    results = [
        _unit_compat(law, f_terms),
        _pentagon(law, doubles),
        _g_compat_unit(law),
        _g_compat_mult(law, rng),
        _well_behaved(law, rng),
        _const_algebra_hom(law, rng),
        _exchange_identity(law, rng),
    ]
    # The exact exchange-component check where one exists (none for
    # coproduct-shaped subdist yet).
    if law.monad is POWERSET:
        results.append(_zeta_nonexpansive_boolean(law))
    elif isinstance(law.functor, ProdF):
        results.append(_zeta_nonexpansive_machine_lp(law, rng))
    return results


def case_study_laws() -> Dict[str, DistLaw]:
    """The three standard law instances exercised by the suite."""
    return {
        "machine-subdist": DistLaw(machine_functor(["a"]), SUBDIST, UNIT_OPLUS),
        "exception-powerset": DistLaw(exception_functor(["a", "b"]), POWERSET,
                                      UNIT_OPLUS),
        "exception-subdist": DistLaw(exception_functor(["a"]), SUBDIST, EXT_PLUS),
    }
