"""The local pair solver against the global Kleene oracle and the word
enumerator.

``kleene_gfp`` iterates over every pair of a successor-closed carrier;
``pair_gfp`` evaluates the pairs reachable from the query, one depth
layer per iterate.  Their k-th iterates must agree at the query pair
for every k, and so must their fixpoints.  On the two trace-characterized
shapes, the trace bound over words shorter than k must be that iterate
too.
"""

import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

from conftest import build_exceptions, build_probchain
from quantadist import behaviour
from quantadist.behaviour import (CoalgebraModel, kleene_gfp, pair_gfp, reachable_states,
                                  trace_lower_bound)
from quantadist.distlaw import point_mask
from quantadist.functor import (ConstF, ConstLeaf, CoprodF, IdF, IdLeaf, Inl, Inr, ProdF,
                                Tup, exception_functor, machine_functor)
from quantadist.galois import BudgetError
from quantadist.models import fixture_model, load_fixture, model_from_json
from quantadist.monadlift import POWERSET, SUBDIST, dirac, finsubset, subdist
from quantadist.quantale import UNIT_OPLUS
from quantadist.vgraph import carrier

SEED_SETS = [finsubset(c) for size in range(4)
             for c in combinations(["x0", "y0", "z0"], size)]


def oracle_iterates(monkeypatch, det, states):
    """One ``kleene_gfp`` run over a closed carrier, with every iterate
    it computes (the k-th table is the iterate after k rounds)."""
    tables = []
    apply = behaviour.beh_apply

    def recording(*args):
        tables.append(apply(*args))
        return tables[-1]

    with monkeypatch.context() as patch:
        patch.setattr(behaviour, "beh_apply", recording)
        result = kleene_gfp(det, states)
    assert result.converged
    return result, tables


def assert_agrees(monkeypatch, det, queries):
    """Every truncated and converged ``pair_gfp`` value at the queries
    (pairs of monad values) equals the oracle's, within the oracle's
    carrier."""
    queries = [(det.state(a), det.state(b)) for a, b in queries]
    states = reachable_states(det, [s for pair in queries for s in pair])
    oracle, tables = oracle_iterates(monkeypatch, det, states)
    top = det.law.quantale.top
    for p, q in queries:
        local = pair_gfp(det, p, q)
        assert local.converged
        assert local.value == oracle.at(p, q)
        closure = reachable_states(det, [p, q])
        assert local.states <= len(closure)
        assert local.pairs <= len(closure) ** 2
        assert pair_gfp(det, p, q, max_iters=0).value == top
        # The pair graph can be deeper than the rounds the values take to
        # stabilize, and shallower: compare every iterate up to both.
        for k in range(1, max(oracle.iterations, local.iterations) + 1):
            truncated = pair_gfp(det, p, q, max_iters=k)
            assert truncated.value == iterate(tables, k, p, q), (p, q, k)
            assert truncated.converged == (k >= local.iterations)


def iterate(tables, k, p, q):
    """The oracle's k-th iterate at (p, q), k >= 1; its last table is
    the fixpoint."""
    return tables[min(k, len(tables)) - 1][(p, q)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exception_family_matches_kleene(monkeypatch, n):
    rng = random.Random(n)
    values = tuple(F(rng.randint(0, 12), 12) for _ in range(3))
    det = build_exceptions(n, values).det()
    assert_agrees(monkeypatch, det, [(a, b) for a in SEED_SETS for b in SEED_SETS])


def test_published_exception_distance():
    for model in (build_exceptions(3), fixture_model("exceptions.json")):
        det = model.det()
        result = pair_gfp(det, det.state(finsubset(["x0", "y0"])),
                          det.state(finsubset(["z0"])))
        assert result.converged and result.value == F(1, 4)


def test_exception_fixture_matches_kleene(monkeypatch):
    det = fixture_model("exceptions.json").det()
    assert_agrees(monkeypatch, det, [(a, b) for a in SEED_SETS for b in SEED_SETS])


def random_machine(rng, size=4, labels=("a", "b")) -> CoalgebraModel:
    """A probchain-style subdistribution machine whose determinization is
    finite: every state either is absorbing or sends sub-probability
    mass only to later states, and the last state is absorbing."""
    names = [f"s{i}" for i in range(size)]
    trans = {}
    for i, name in enumerate(names):
        later = names[i + 1:]
        steps = []
        for _ in labels:
            if not later or rng.random() < 0.25:
                steps.append(dirac(name))
                continue
            support = rng.sample(later, rng.randint(1, len(later)))
            weights = [rng.randint(1, 4) for _ in support]
            total = sum(weights) + rng.randint(0, 2)
            steps.append(subdist({x: F(w, total) for x, w in zip(support, weights)}))
        out = F(rng.randint(0, 4), 4)
        trans[name] = Tup((ConstLeaf(out), Tup(tuple(IdLeaf(d) for d in steps))))
    return CoalgebraModel(UNIT_OPLUS, machine_functor(labels), SUBDIST,
                          carrier(names), carrier(labels), trans)


@pytest.mark.parametrize("seed", range(6))
def test_random_machines_match_kleene(monkeypatch, seed):
    rng = random.Random(seed)
    model = random_machine(rng)
    names = list(model.states.elements)
    seeds = [dirac(x) for x in names]
    seeds.append(subdist({names[0]: F(1, 2), names[1]: F(1, 3)}))
    seeds.append(subdist({x: F(1, len(names)) for x in names}))
    det = model.det()
    assert_agrees(monkeypatch, det, [(a, b) for a in seeds for b in seeds])


def random_exception_model(rng, size=5, labels=("a", "b")) -> CoalgebraModel:
    """An exception-shaped model with arbitrary successor sets, so its
    pair graph has cycles through the query pair."""
    names = [f"e{i}" for i in range(size)]
    states = carrier(names)
    trans = {}
    for name in names:
        if rng.random() < 0.3:
            trans[name] = Inl(ConstLeaf(F(rng.randint(0, 12), 12)))
        else:
            trans[name] = Inr(Tup(tuple(
                IdLeaf(point_mask(rng.sample(names, rng.randint(0, 2)), states))
                for _ in labels)))
    return CoalgebraModel(UNIT_OPLUS, exception_functor(labels), POWERSET,
                          states, carrier(labels), trans)


@pytest.mark.parametrize("seed", range(4))
def test_random_cyclic_exception_models_match_kleene(monkeypatch, seed):
    rng = random.Random(seed)
    model = random_exception_model(rng)
    names = list(model.states.elements)
    seeds = [finsubset([x]) for x in names] + [finsubset(names[:2]), finsubset([])]
    assert_agrees(monkeypatch, model.det(), [(a, b) for a in seeds for b in seeds])


def random_dirac_machine(rng, size=4, labels=("a", "b")) -> CoalgebraModel:
    """A machine whose steps are Dirac jumps to any state: cyclic, yet
    every determinized state is an image of a seed, so finitely many."""
    names = [f"d{i}" for i in range(size)]
    trans = {name: Tup((ConstLeaf(F(rng.randint(0, 4), 4)),
                        Tup(tuple(IdLeaf(dirac(rng.choice(names))) for _ in labels))))
             for name in names}
    return CoalgebraModel(UNIT_OPLUS, machine_functor(labels), SUBDIST,
                          carrier(names), carrier(labels), trans)


@pytest.mark.parametrize("seed", range(4))
def test_random_cyclic_machines_match_kleene(monkeypatch, seed):
    rng = random.Random(seed)
    model = random_dirac_machine(rng)
    names = list(model.states.elements)
    seeds = [subdist({x: F(rng.randint(0, 2), 2 * len(names)) for x in names})
             for _ in range(3)]
    assert_agrees(monkeypatch, model.det(), [(a, b) for a in seeds for b in seeds])


def test_probchain_fixture(monkeypatch):
    det = build_probchain().det()
    absorbing = [dirac("y"), dirac("x'")]
    assert_agrees(monkeypatch, det, [(a, b) for a in absorbing for b in absorbing])
    # From 1*x the determinized system is infinite: both solvers refuse.
    with pytest.raises(BudgetError):
        reachable_states(build_probchain().det(max_states=40), [dirac("y"), dirac("x")])
    with pytest.raises(BudgetError):
        pair_gfp(build_probchain().det(max_states=40), dirac("y"), dirac("x"))


# -- the word enumerator ------------------------------------------------------------

def word_shape(model):
    """'machine' or 'exception' for the two trace-characterized shapes,
    None for any other model."""
    f = model.functor
    value = lambda g: isinstance(g, ConstF)
    power = lambda g: isinstance(g, ProdF) and g.labels is not None \
        and all(isinstance(part, IdF) for part in g.parts)
    if model.monad is SUBDIST and isinstance(f, ProdF) and f.labels is None \
            and len(f.parts) == 2 and value(f.parts[0]) and power(f.parts[1]):
        return "machine"
    if model.monad is POWERSET and isinstance(f, CoprodF) \
            and value(f.left) and power(f.right):
        return "exception"
    return None


def machine_output(det, state, word):
    """The expected payoff after reading the word."""
    for i in word:
        state = det.successor(state).items[1].items[i].payload
    return det.successor(state).items[0].atom


def exception_probe(det, state, word):
    """First-throw time and value along a word (None, None when the word
    never reaches a throwing state)."""
    for k in range(len(word) + 1):
        step = det.successor(state)
        if isinstance(step, Inl):
            return k, step.item.atom
        if k < len(word):
            state = step.item.items[word[k]].payload
    return None, None


def exception_word_distance(det, qt, p, q, word):
    time_p, value_p = exception_probe(det, p, word)
    time_q, value_q = exception_probe(det, q, word)
    if time_q is None:
        return qt.top
    if time_p is None:
        return qt.bottom
    if time_p == time_q:
        return qt.residuate(value_p, value_q)
    return qt.bottom if time_p > time_q else qt.top


def word_bounds(model, p, q, max_words):
    """The trace bounds at (p, q) over the words shorter than L, for
    every L from 0 to ``max_words``, by enumerating the words."""
    shape = word_shape(model)
    assert shape is not None
    det = model.det()
    qt = model.quantale
    bounds = [qt.top]  # the empty word set gives the trivial numeric-0 bound
    for length in range(max_words):
        best = bounds[-1]
        for word in product(range(len(model.labels)), repeat=length):
            if shape == "machine":
                value = qt.residuate(machine_output(det, p, word),
                                     machine_output(det, q, word))
            else:
                value = exception_word_distance(det, qt, p, q, word)
            best = qt.meet2(best, value)  # numeric max
        bounds.append(best)
    return bounds


def assert_trace_agrees(monkeypatch, model, queries, max_words):
    """``trace_lower_bound`` equals the word enumerator and the Kleene
    oracle's iterate at every word length up to ``max_words``, at the
    queries (pairs of monad values)."""
    det = model.det()
    queries = [(det.state(a), det.state(b)) for a, b in queries]
    states = reachable_states(det, [s for pair in queries for s in pair])
    _oracle, tables = oracle_iterates(monkeypatch, det, states)
    for p, q in queries:
        words = word_bounds(model, p, q, max_words)
        for k in range(max_words + 1):
            bound = trace_lower_bound(model, p, q, k)
            assert bound == words[k], (p, q, k)
            assert bound == (det.law.quantale.top if k == 0
                             else iterate(tables, k, p, q)), (p, q, k)


def sample_pairs(rng, seeds, count):
    pairs = [(a, b) for a in seeds for b in seeds]
    return rng.sample(pairs, min(count, len(pairs)))


def test_word_shapes():
    assert word_shape(build_probchain()) == "machine"
    assert word_shape(build_exceptions(2)) == "exception"
    other = CoalgebraModel(UNIT_OPLUS, exception_functor(["a"]), SUBDIST,
                           carrier(["s"]), carrier(["a"]), {"s": Inl(ConstLeaf(F(0)))})
    assert word_shape(other) is None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_matches_words_on_exception_family(monkeypatch, n):
    rng = random.Random(100 + n)
    values = tuple(F(rng.randint(0, 12), 12) for _ in range(3))
    model = build_exceptions(n, values)
    assert_trace_agrees(monkeypatch, model, sample_pairs(rng, SEED_SETS, 12), 2 * n + 2)


def test_trace_matches_words_on_fixtures(monkeypatch):
    model = fixture_model("exceptions.json")
    assert_trace_agrees(monkeypatch, model, sample_pairs(random.Random(7), SEED_SETS, 12), 8)
    chain = build_probchain()
    absorbing = [dirac("y"), dirac("x'")]
    assert_trace_agrees(monkeypatch, chain, [(a, b) for a in absorbing for b in absorbing], 6)
    # From 1*x the determinized system is infinite: words only.
    for p, q in [(dirac("y"), dirac("x")), (dirac("x"), dirac("y"))]:
        words = word_bounds(chain, p, q, 10)
        assert [trace_lower_bound(chain, p, q, k) for k in range(11)] == words


@pytest.mark.parametrize("seed", range(3))
def test_trace_matches_words_on_random_models(monkeypatch, seed):
    rng = random.Random(200 + seed)
    machine = random_machine(rng)
    names = list(machine.states.elements)
    seeds = [dirac(x) for x in names] + [subdist({names[0]: F(1, 2), names[1]: F(1, 3)})]
    assert_trace_agrees(monkeypatch, machine, sample_pairs(rng, seeds, 6), 2 * len(names) + 2)
    cyclic = random_dirac_machine(rng)
    names = list(cyclic.states.elements)
    seeds = [subdist({x: F(rng.randint(0, 2), 2 * len(names)) for x in names})
             for _ in range(3)]
    assert_trace_agrees(monkeypatch, cyclic, sample_pairs(rng, seeds, 6), 2 * len(names) + 2)
    exceptions = random_exception_model(rng)
    names = list(exceptions.states.elements)
    seeds = [finsubset([x]) for x in names] + [finsubset(names[:2]), finsubset([])]
    assert_trace_agrees(monkeypatch, exceptions, sample_pairs(rng, seeds, 6),
                        2 * len(names) + 2)


def test_pair_gfp_ends_after_the_first_layer_too_long_to_print():
    """probchain.json with y's self-loop weight 0.99...9 (200 nines): the
    value at (y, x) outgrows ``MAX_DIGITS`` within a few dozen layers,
    and the run ends there, unconverged, not after ``max_iters``."""
    doc = load_fixture("probchain.json")
    doc["transitions"]["y"]["tuple"][1]["pow"]["a"]["id"]["dist"]["y"] = "0." + "9" * 200
    model = model_from_json(doc)
    result = pair_gfp(model.det(), dirac("y"), dirac("x"), max_iters=1000)
    assert not result.converged and result.iterations < 100
    assert behaviour.overlong_part(result.value) is not None
    shorter = pair_gfp(model.det(), dirac("y"), dirac("x"), max_iters=result.iterations - 1)
    assert shorter.iterations == result.iterations - 1
    assert behaviour.overlong_part(shorter.value) is None
