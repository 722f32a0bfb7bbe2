from fractions import Fraction as F

import pytest

from quantadist.behaviour import reachable_states
from quantadist.distlaw import (ALWAYS_LEFT, DetCoalgebra, DistLaw, StateBudgetError,
                                apply_g_carriers, apply_zeta, case_study_laws,
                                law_suite)
from quantadist.functor import (ConstLeaf, IdLeaf, Inl, Inr, Tup, const_atoms,
                                exception_functor, machine_functor, map_payloads)
from quantadist.monadlift import POWERSET, SUBDIST, dirac, finsubset, subdist
from quantadist.quantale import INF, UNIT_OPLUS


MACHINE_LAW = DistLaw(machine_functor(["a"]), SUBDIST, UNIT_OPLUS)
EXC_LAW = DistLaw(exception_functor(["a", "b"]), POWERSET, UNIT_OPLUS)


def machine_term(out, dist):
    return Tup((ConstLeaf(out), Tup((IdLeaf(dist),))))


# -- prioritizing transformation -----------------------------------------------

def test_apply_g_powerset():
    side, kept = apply_g_carriers(POWERSET, ["x1", "y1"], ["x2", "y2"],
                                  finsubset(["x1", "y2"]))
    assert side == "left" and kept == finsubset(["x1"])
    side, kept = apply_g_carriers(POWERSET, ["x1"], ["x2"], finsubset([]))
    assert side == "right" and kept == finsubset([])


def test_apply_g_subdist():
    t = subdist({"x1": F(1, 2), "y2": F(1, 2)})
    side, kept = apply_g_carriers(SUBDIST, ["x1"], ["y2"], t)
    assert side == "left" and kept == subdist({"x1": F(1, 2)})
    side, kept = apply_g_carriers(SUBDIST, ["z1"], ["y2"],
                                  subdist({"y2": F(1, 3)}))
    assert side == "right" and kept == subdist({"y2": F(1, 3)})


def test_apply_g_rejects_overlapping_carriers():
    with pytest.raises(ValueError, match="disjoint"):
        apply_g_carriers(POWERSET, ["x"], ["x"], finsubset(["x"]))


# -- zeta components -------------------------------------------------------------

def test_zeta_machine_component():
    mu = subdist({
        machine_term(F(1, 2), dirac("x")): F(1, 2),
        machine_term(F(1), dirac("x'")): F(1, 2),
    })
    out = apply_zeta(MACHINE_LAW, mu)
    assert out.items[0] == ConstLeaf(F(3, 4))  # expected payoff
    inner = out.items[1].items[0].payload
    assert inner == subdist({dirac("x"): F(1, 2), dirac("x'"): F(1, 2)})


def test_zeta_exception_prefers_thrown_values():
    pool = finsubset([
        Inl(ConstLeaf(F(1, 4))),
        Inl(ConstLeaf(F(1, 8))),
        Inr(Tup((IdLeaf(finsubset(["x1"])), IdLeaf(finsubset(["x2"]))))),
    ])
    out = apply_zeta(EXC_LAW, pool)
    assert out == Inl(ConstLeaf(F(1, 4)))  # numeric sup of the thrown values


def test_zeta_exception_all_transitions():
    pool = finsubset([
        Inr(Tup((IdLeaf(finsubset(["x1"])), IdLeaf(finsubset(["y1"]))))),
        Inr(Tup((IdLeaf(finsubset(["x2"])), IdLeaf(finsubset(["y1"]))))),
    ])
    out = apply_zeta(EXC_LAW, pool)
    assert isinstance(out, Inr)
    assert out.item.items[0].payload == finsubset([finsubset(["x1"]), finsubset(["x2"])])


def test_zeta_empty_set_transitions_to_empty():
    out = apply_zeta(EXC_LAW, finsubset([]))
    assert isinstance(out, Inr)
    for leaf in out.item.items:
        assert leaf.payload == finsubset([])


def test_zeta_unit_image():
    term = machine_term(F(1, 4), dirac("x"))
    lhs = apply_zeta(MACHINE_LAW, SUBDIST.unit(term))
    rhs = map_payloads(term, lambda p: SUBDIST.unit(p))
    assert lhs == rhs


def test_law_requires_value_constants():
    named = const_atoms(["a"], [{"a": F(0)}])
    with pytest.raises(ValueError, match="quantale-valued"):
        DistLaw(named, POWERSET, UNIT_OPLUS)


def test_law_rejects_unknown_monad():
    with pytest.raises(ValueError, match="unknown monad"):
        DistLaw(exception_functor(["a"]), "list", UNIT_OPLUS)


# -- determinization ----------------------------------------------------------------

def exception_transitions(n=3):
    trans = {}
    for fam, val in (("x", F(1, 4)), ("y", F(1, 3)), ("z", F(1, 2))):
        for i in range(n):
            if i == 0:
                if fam == "x":
                    succ = {"a": ["x0", "x1"], "b": ["x0"]}
                elif fam == "y":
                    succ = {"a": ["y0"], "b": ["y0", "y1"]}
                else:
                    succ = {"a": ["z0", "z1"], "b": ["z0", "z1"]}
            else:
                succ = {"a": [f"{fam}{i + 1}"], "b": [f"{fam}{i + 1}"]}
            trans[f"{fam}{i}"] = Inr(Tup((IdLeaf(finsubset(succ["a"])),
                                          IdLeaf(finsubset(succ["b"])))))
        trans[f"{fam}{n}"] = Inl(ConstLeaf(val))
    return trans


def test_determinize_exception_successors():
    det = DetCoalgebra(DistLaw(exception_functor(["a", "b"]), POWERSET, UNIT_OPLUS),
                       exception_transitions())
    step = det.successor(finsubset(["x0", "y0"]))
    assert step.item.items[0].payload == finsubset(["x0", "x1", "y0"])
    assert step.item.items[1].payload == finsubset(["x0", "y0", "y1"])


def test_determinize_probabilistic_chain():
    trans = {
        "x": machine_term(F(1, 2), subdist({"x": F(1, 2), "x'": F(1, 2)})),
        "x'": machine_term(F(1), dirac("x'")),
        "y": machine_term(F(1, 2), dirac("y")),
    }
    det = DetCoalgebra(MACHINE_LAW, trans)
    first = det.successor(dirac("x"))
    assert first.items[0].atom == F(1, 2)
    half = subdist({"x": F(1, 2), "x'": F(1, 2)})
    assert first.items[1].items[0].payload == half
    second = det.successor(half)
    assert second.items[0].atom == F(3, 4)
    assert second.items[1].items[0].payload == subdist({"x": F(1, 4), "x'": F(3, 4)})


def test_determinize_budget_refusal():
    det = DetCoalgebra(DistLaw(exception_functor(["a", "b"]), POWERSET, UNIT_OPLUS),
                       exception_transitions(), max_states=3)
    with pytest.raises(StateBudgetError, match="budget"):
        reachable_states(det, [finsubset(["x0", "y0"])])


# -- law suites -----------------------------------------------------------------------

@pytest.mark.parametrize("name,law", sorted(case_study_laws().items()))
def test_law_suite_passes(name, law):
    results = law_suite(law)
    bad = [r.line() for r in results if not r.passed]
    assert not bad, bad


def _empty_set_is_bottom(pairs, q):
    """Mutant powerset evaluation map: the empty set evaluates to bottom."""
    return q.meet(q.validate(m) for m, _w in pairs) if pairs else q.bottom


def _normalized_expectation(pairs, q):
    """Mutant subdistribution evaluation map: the expectation divided by
    the mass."""
    values = [q.validate(x) for x, _w in pairs]
    if INF in values:
        return INF
    mass = sum((w for _x, w in pairs), F(0))
    total = sum((w * v for v, (_x, w) in zip(values, pairs)), F(0))
    return q.validate(total / mass) if mass else q.top


ALGEBRA_CHECK = "constant algebras are evaluation homomorphisms"


def _algebra_rows(law):
    return [r.passed for r in law_suite(law) if r.name.endswith(ALGEBRA_CHECK)]


@pytest.mark.parametrize("name,monad,mutant_ev", [
    ("exception-powerset", POWERSET, _empty_set_is_bottom),
    ("machine-subdist", SUBDIST, _normalized_expectation),
])
def test_law_suite_catches_mutant_evaluation_map(monkeypatch, name, monad, mutant_ev):
    law = case_study_laws()[name]
    assert _algebra_rows(law) == [True]
    monkeypatch.setattr(monad, "ev_weighted", mutant_ev)
    assert _algebra_rows(law) == [False]


def test_law_suite_mutant_fails_unit_compatibility():
    law = DistLaw(exception_functor(["a"]), POWERSET, UNIT_OPLUS,
                  g_variant=ALWAYS_LEFT)
    results = law_suite(law)
    by_name = {r.name: r for r in results}
    unit_rows = [r for n, r in by_name.items() if "unit" in n and "prioritizer" in n]
    assert unit_rows and not unit_rows[0].passed
