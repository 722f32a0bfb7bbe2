"""The local pair solver against the global Kleene oracle.

``kleene_gfp`` iterates over every pair of a successor-closed carrier;
``pair_gfp`` only over the pairs reachable from the query.  Their k-th
iterates must agree at the query pair for every k, and so must their
fixpoints.
"""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from conftest import build_exceptions, build_probchain
from quantadist import behaviour
from quantadist.behaviour import CoalgebraModel, kleene_gfp, pair_gfp, reachable_states
from quantadist.distlaw import StateBudgetError
from quantadist.functor import (ConstLeaf, IdLeaf, Inl, Inr, Tup, exception_functor,
                                machine_functor)
from quantadist.galois import BudgetError
from quantadist.models import fixture_model
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
    equals the oracle's, within the oracle's carrier."""
    states = reachable_states(det, [s for pair in queries for s in pair])
    oracle, tables = oracle_iterates(monkeypatch, det, states)
    top = det.law.quantale.top
    for p, q in queries:
        local = pair_gfp(det, p, q)
        assert local.converged
        assert local.value == oracle.at(p, q)
        assert local.iterations <= oracle.iterations
        closure = reachable_states(det, [p, q])
        assert local.states <= len(closure)
        assert local.pairs <= len(closure) ** 2
        assert pair_gfp(det, p, q, max_iters=0).value == top
        for k in range(1, oracle.iterations + 1):
            truncated = pair_gfp(det, p, q, max_iters=k)
            assert truncated.value == tables[k - 1][(p, q)], (p, q, k)
            assert truncated.converged == (k >= local.iterations)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exception_family_matches_kleene(monkeypatch, n):
    rng = random.Random(n)
    values = tuple(F(rng.randint(0, 12), 12) for _ in range(3))
    det = build_exceptions(n, values).det()
    assert_agrees(monkeypatch, det, [(a, b) for a in SEED_SETS for b in SEED_SETS])


def test_published_exception_distance():
    for model in (build_exceptions(3), fixture_model("exceptions.json")):
        result = pair_gfp(model.det(), finsubset(["x0", "y0"]), finsubset(["z0"]))
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
    trans = {}
    for name in names:
        if rng.random() < 0.3:
            trans[name] = Inl(ConstLeaf(F(rng.randint(0, 12), 12)))
        else:
            trans[name] = Inr(Tup(tuple(
                IdLeaf(finsubset(rng.sample(names, rng.randint(0, 2)))) for _ in labels)))
    return CoalgebraModel(UNIT_OPLUS, exception_functor(labels), POWERSET,
                          carrier(names), carrier(labels), trans)


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
        reachable_states(det, [dirac("y"), dirac("x")], max_states=40)
    with pytest.raises(StateBudgetError):
        pair_gfp(build_probchain().det(max_states=40), dirac("y"), dirac("x"))
