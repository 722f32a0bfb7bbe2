"""Determinization and the exchange law against two oracles.

``apply_zeta`` walks the functor over weighted member lists and builds
one canonical monad value per identity leaf; so does
``finsubset_successor``, the successor on monad values that
``DetCoalgebra`` ran before powerset states became bitmasks.  The
level-by-level oracle is the pipeline both replaced: map the
transitions into the monad, apply the exchange law on canonical monad
values at every level of the functor, then flatten each identity leaf
with the multiplication.  Its multiplication, evaluation map and
prioritizer are written out here, so it shares no code with the
weighted path beyond the canonical constructors.

``DetCoalgebra.successor`` on powerset masks is checked against
``finsubset_successor`` through ``DetCoalgebra.value``; on
subdistributions it is that successor.
"""

import random
from fractions import Fraction as F

import pytest

from conftest import build_exceptions
from quantadist.distlaw import (ALWAYS_LEFT, PRIORITY_LEFT, DetCoalgebra, DistLaw,
                                _zeta, apply_zeta, case_study_laws, law_suite,
                                point_mask)
from quantadist.functor import (ID, ConstF, ConstLeaf, CoprodF, IdF, IdLeaf, Inl,
                                Inr, ProdF, Tup, map_payloads, pow_functor)
from quantadist.monadlift import POWERSET, SUBDIST, SubDist, finsubset, subdist
from quantadist.quantale import EXT_PLUS, INF, UNIT_OPLUS, is_inf
from quantadist.vgraph import carrier

# The suite seeds the benchmark's `laws` workload draws from.
BENCH_SUITE_SEEDS = [7919 * k for k in range(4)]


# -- the oracle -----------------------------------------------------------------

def oracle_mult(monad, tt):
    if monad is POWERSET:
        return finsubset(x for inner in tt.members for x in inner.members)
    return subdist((x, w * v) for inner, w in tt.items() for x, v in inner.items())


def oracle_ev(monad, t, q):
    if monad is POWERSET:
        return q.meet(q.validate(m) for m in t.members)
    total = F(0)
    for x, w in t.items():
        v = q.validate(x)
        if is_inf(v):
            return INF
        total += w * v
    return q.validate(total)


def oracle_g(monad, t, variant):
    if monad is POWERSET:
        left = [m for m in t.members if isinstance(m, Inl)]
        if variant == ALWAYS_LEFT or left:
            return "left", finsubset(left)
        return "right", t
    left = [(x, w) for x, w in t.items() if isinstance(x, Inl)]
    if variant == ALWAYS_LEFT or left:
        return "left", SubDist(tuple(left))
    return "right", t


def oracle_zeta(law, functor, t):
    monad = law.monad
    if isinstance(functor, ConstF):
        return ConstLeaf(oracle_ev(monad, monad.map(lambda m: m.atom, t),
                                   law.quantale))
    if isinstance(functor, IdF):
        return IdLeaf(monad.map(lambda m: m.payload, t))
    if isinstance(functor, ProdF):
        return Tup(tuple(oracle_zeta(law, part, monad.map(lambda m: m.items[i], t))
                         for i, part in enumerate(functor.parts)))
    side, restricted = oracle_g(monad, t, law.g_variant)
    stripped = monad.map(lambda m: m.item, restricted)
    if side == "left":
        return Inl(oracle_zeta(law, functor.left, stripped))
    return Inr(oracle_zeta(law, functor.right, stripped))


def oracle_successor(law, transitions, state):
    lifted = law.monad.map(lambda x: transitions[x], state)
    step = oracle_zeta(law, law.functor, lifted)
    return map_payloads(step, lambda tt: oracle_mult(law.monad, tt))


def finsubset_successor(law, transitions, state):
    """The successor of a monad value over transitions whose leaves hold
    monad values: the unit law at a point state, else the exchange law
    and the multiplication fused over weighted member lists."""
    monad = law.monad
    members = monad.weighted(state)
    if len(members) == 1 and members[0][1] in (None, 1):
        return transitions[members[0][0]]  # the unit law
    lifted = [(transitions[x], w) for x, w in members]
    return _zeta(law, law.functor, lifted, monad.flatten)


def state_transitions(law, states, transitions):
    """Transitions over monad values, with each leaf read as a state of
    the determinization, as ``models.model_from_json`` reads them."""
    if law.monad is not POWERSET:
        return transitions
    return {x: map_payloads(t, lambda v: point_mask(v, states))
            for x, t in transitions.items()}


def value_transitions(det):
    """The determinization's transitions with each leaf state read back as
    its monad value: the form ``finsubset_successor`` reads."""
    return {x: map_payloads(t, det.value) for x, t in det.transitions.items()}


# -- generated inputs -------------------------------------------------------------

NESTED = CoprodF(ProdF((ConstF(), ID)),
                 CoprodF(ConstF(), pow_functor(["a", "b"], ID)))


def all_laws():
    shapes = dict(case_study_laws())
    shapes["nested-powerset"] = DistLaw(NESTED, POWERSET, UNIT_OPLUS)
    shapes["nested-subdist"] = DistLaw(NESTED, SUBDIST, EXT_PLUS)
    return [(f"{name}/{variant}", DistLaw(law.functor, law.monad, law.quantale, variant))
            for name, law in sorted(shapes.items())
            for variant in (PRIORITY_LEFT, ALWAYS_LEFT)]


LAWS = all_laws()
# Determinization runs only the exact prioritizer; the mutant one is
# read by ``apply_zeta`` and the law suites.
EXACT_LAWS = [(name, law) for name, law in LAWS if law.g_variant == PRIORITY_LEFT]


def const_pool(law):
    pool = [F(0), F(1, 4), F(1, 2), F(1)]
    return pool + [F(3), INF] if law.quantale is EXT_PLUS else pool


def random_tvalue(rng, monad, items, max_size=3):
    chosen = rng.sample(items, rng.randint(0, min(max_size, len(items))))
    if monad is POWERSET:
        return finsubset(chosen)
    denom = rng.choice([2, 3, 4, 6])
    remaining = denom
    weights = []
    for x in chosen:
        w = rng.randint(1, remaining) if remaining else 0
        remaining -= w
        weights.append((x, F(w, denom)))
    return subdist(weights)


def random_term(rng, functor, payload, consts, p_left=0.4):
    """A term of ``functor`` that takes each coproduct's left summand
    with probability ``p_left``."""
    if isinstance(functor, ConstF):
        return ConstLeaf(rng.choice(consts))
    if isinstance(functor, IdF):
        return IdLeaf(payload())
    if isinstance(functor, ProdF):
        return Tup(tuple(random_term(rng, p, payload, consts, p_left)
                         for p in functor.parts))
    if rng.random() < p_left:
        return Inl(random_term(rng, functor.left, payload, consts, p_left))
    return Inr(random_term(rng, functor.right, payload, consts, p_left))


def random_model(rng, law, n_states=6, n_terms=3, p_left=0.4):
    """Transitions drawn from a pool of ``n_terms`` terms, so several
    states share a transition term and their weights merge.  Leaves hold
    monad values (``state_transitions`` reads them as states)."""
    states = [f"s{i}" for i in range(n_states)]
    consts = const_pool(law)
    pool = [random_term(rng, law.functor,
                        lambda: random_tvalue(rng, law.monad, states), consts, p_left)
            for _ in range(n_terms)]
    return states, {s: rng.choice(pool) for s in states}


def random_det(rng, law, **sizes):
    """A random model's determinization and its transitions over monad
    values."""
    states, transitions = random_model(rng, law, **sizes)
    c = carrier(states)
    return DetCoalgebra(law, state_transitions(law, c, transitions), c), transitions


def explore(det, seeds, depth):
    """Memoize every state within ``depth`` steps of the seeds, level by
    level."""
    level = list(seeds)
    for _ in range(depth + 1):
        level = [succ for state in level if state not in det.memo
                 for succ in det.successor_states(state)]


def assert_memo_matches_finsubset_successor(det, transitions):
    """Every memoized successor, read back as monad values, is the
    ``finsubset_successor`` of the state's monad value."""
    assert det.memo
    for state, step in det.memo.items():
        value = det.value(state)
        assert map_payloads(step, det.value) == \
            finsubset_successor(det.law, transitions, value), value


# -- tests --------------------------------------------------------------------------

@pytest.mark.parametrize("name,law", EXACT_LAWS, ids=[name for name, _law in EXACT_LAWS])
def test_successor_matches_oracle(name, law):
    rng = random.Random(f"successor:{name}")
    for _ in range(25):
        det, transitions = random_det(rng, law)
        seeds = [det.state(random_tvalue(rng, law.monad, list(det.states), max_size=6))
                 for _ in range(4)]
        explore(det, seeds, depth=3)
        assert_memo_matches_finsubset_successor(det, transitions)
        for state in det.memo:
            value = det.value(state)
            assert finsubset_successor(law, transitions, value) == \
                oracle_successor(law, transitions, value), value


@pytest.mark.parametrize("variant", [PRIORITY_LEFT])
@pytest.mark.parametrize("n", range(2, 9))
def test_mask_successor_on_the_exception_family(n, variant):
    model = build_exceptions(n)
    law = DistLaw(model.functor, model.monad, model.quantale, variant)
    det = DetCoalgebra(law, model.transitions, model.states)
    seeds = [det.state(finsubset(names))
             for names in (["x0", "y0"], ["z0"], ["x0", "z1", f"y{n}"], [], [f"x{n}"])]
    explore(det, seeds, depth=n + 1)
    assert_memo_matches_finsubset_successor(det, value_transitions(det))


def test_mask_states_round_trip():
    model = build_exceptions(40)  # 123 point states: masks past one machine word
    det = model.det()
    names = ["x0", "y7", "z40", "x40"]
    mask = det.state(finsubset(names))
    assert mask == sum(1 << model.states.index(x) for x in names)
    assert det.value(mask) == finsubset(names)
    assert det.value(0) == finsubset([]) and det.state(finsubset([])) == 0


@pytest.mark.parametrize("name,law", LAWS, ids=[name for name, _law in LAWS])
def test_apply_zeta_matches_oracle(name, law):
    rng = random.Random(f"zeta:{name}")
    consts = const_pool(law)
    payloads = ["p0", "p1", "p2"]
    for _ in range(60):
        # Few distinct payloads and constants, so distinct terms share
        # components and merge below the top level.
        terms = [random_term(rng, law.functor, lambda: rng.choice(payloads), consts)
                 for _ in range(4)]
        t = random_tvalue(rng, law.monad, terms, max_size=4)
        assert apply_zeta(law, t) == oracle_zeta(law, law.functor, t), t


def test_subdist_successor_merges_shared_terms():
    """Two states with one transition term: the lifted value puts their
    summed weight on that term."""
    law = dict(LAWS)["machine-subdist/priority-left"]
    term = Tup((ConstLeaf(F(1, 2)), Tup((IdLeaf(subdist({"x": F(1, 2), "y": F(1, 2)})),))))
    transitions = {"x": term, "y": term}
    state = subdist({"x": F(1, 3), "y": F(1, 3)})
    det = DetCoalgebra(law, transitions, carrier(["x", "y"]))
    step = det.successor(state)
    assert step == oracle_successor(law, transitions, state)
    assert step.items[0].atom == F(1, 3)
    assert step.items[1].items[0].payload == subdist({"x": F(1, 3), "y": F(1, 3)})


@pytest.mark.parametrize("seed", BENCH_SUITE_SEEDS)
def test_law_suite_and_mutant_on_benchmark_seeds(seed):
    for name, law in sorted(case_study_laws().items()):
        failed = [r.line() for r in law_suite(law, seed=seed) if not r.passed]
        assert not failed, (name, failed)
        mutant = DistLaw(law.functor, law.monad, law.quantale, g_variant=ALWAYS_LEFT)
        rows = {r.name: r.passed for r in law_suite(mutant, seed=seed)}
        unit = f"{law.monad.name} ({ALWAYS_LEFT}): prioritizer compatible with the unit"
        assert rows[unit] is False, name
