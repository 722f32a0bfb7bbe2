"""The point-state shortcut of determinization and the certificate
checker built on it, against the general path.

A point state η(x) steps to the model's own transition term c(x)
(the unit law of the exchange law).  The general path runs the exchange
law over the lifted transitions and flattens every identity leaf; the
reference checker below uses it for every state of the certificate, read
back as a monad value, and bounds every leaf read afresh, as the checker
did before it read point states off the model and bounded each successor
pair once; it compares successors with the recursive lifted distance
(``test_functor.oracle_polynomial_distance``).
"""

import random
import sys
from fractions import Fraction as F

import pytest

import quantadist.canon as canon
import quantadist.distlaw as distlaw
from conftest import build_exceptions, build_probchain
from quantadist.behaviour import Verdict, certify, pair_gfp
from quantadist.canon import canon_key
from quantadist.distlaw import DistLaw, _zeta, case_study_laws
from quantadist.functor import (ID, ConstF, ConstLeaf, CoprodF, Inl, Inr, ProdF,
                                Tup, iter_payloads, map_payloads, pow_functor)
from quantadist.galois import BudgetError
from quantadist.models import certificate_from_json, fixture_certificate, fixture_model
from quantadist.monadlift import POWERSET, SUBDIST, finsubset, subdist
from quantadist.quantale import EXT_PLUS, INF, UNIT_OPLUS
from test_determinize import random_det, value_transitions
from test_functor import oracle_polynomial_distance


def general_successor(law, transitions, state):
    monad = law.monad
    lifted = [(transitions[x], w) for x, w in monad.weighted(state)]
    return _zeta(law, law.functor, lifted, monad.flatten)


def point_states(det):
    """The point states of a determinization, as states."""
    return [det.state(det.law.monad.unit(x)) for x in det.states]


def assert_canonical(law, term):
    """Every identity leaf holds a canonical monad value and every
    constant a validated quantale value."""
    monad = law.monad
    for payload in iter_payloads(term):
        assert payload == monad.pack(monad.weighted(payload))
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, ConstLeaf):
            assert law.quantale.validate(t.atom) == t.atom
        elif isinstance(t, Tup):
            stack.extend(t.items)
        elif isinstance(t, (Inl, Inr)):
            stack.append(t.item)


# -- successor on point states ---------------------------------------------------

def random_functor(rng, depth):
    """A polynomial functor with value constants only."""
    kinds = ["value", "id"] + (["prod", "pow", "coprod"] if depth else [])
    kind = rng.choice(kinds)
    if kind == "value":
        return ConstF()
    if kind == "id":
        return ID
    if kind == "prod":
        return ProdF(tuple(random_functor(rng, depth - 1)
                           for _ in range(rng.randint(1, 3))))
    if kind == "pow":
        return pow_functor(["a", "b"], random_functor(rng, depth - 1))
    return CoprodF(random_functor(rng, depth - 1), random_functor(rng, depth - 1))


def random_laws():
    rng = random.Random("point-state laws")
    laws = [(f"case-{name}", law) for name, law in sorted(case_study_laws().items())]
    for k in range(12):
        monad = (POWERSET, SUBDIST)[k % 2]
        quantale = (UNIT_OPLUS, EXT_PLUS)[(k // 2) % 2]
        laws.append((f"random-{k}-{monad.name}-{quantale.ident}",
                     DistLaw(random_functor(rng, 3), monad, quantale)))
    return laws


LAWS = random_laws()


@pytest.mark.parametrize("name,law", LAWS, ids=[name for name, _law in LAWS])
def test_point_state_successor_matches_general_path(name, law):
    rng = random.Random(f"point:{name}")
    for _ in range(20):
        det, transitions = random_det(rng, law, n_states=5, n_terms=4)
        for x, state in zip(det.states, point_states(det)):
            step = det.successor(state)
            assert det.memo[state] is step is det.transitions[x]
            fast = map_payloads(step, det.value)
            general = general_successor(law, transitions, det.value(state))
            assert fast == general, state
            assert canon_key(fast) == canon_key(general)
            assert_canonical(law, fast)


@pytest.mark.parametrize("name,law", LAWS[:3], ids=[name for name, _law in LAWS[:3]])
def test_point_state_shortcut_skips_the_exchange_law(name, law, monkeypatch):
    """Point states never reach the exchange law: their successor is the
    transition term itself."""
    calls = []
    original = distlaw._zeta

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(distlaw, "_zeta", counting)
    rng = random.Random(f"skip:{name}")
    det, _transitions = random_det(rng, law, n_states=5, n_terms=4)
    for x, state in zip(det.states, point_states(det)):
        assert det.successor(state) is det.transitions[x]
    assert calls == []


def test_point_state_shortcut_keeps_budget():
    model = build_exceptions(2)
    det = model.det(max_states=1)
    det.successor(det.state(finsubset(["x0"])))
    with pytest.raises(BudgetError):
        det.successor(det.state(finsubset(["y0"])))


def test_subdist_state_of_mass_below_one_takes_general_path():
    model = build_probchain()
    det = model.det()
    half = subdist({"x": F(1, 2)})
    assert det.successor(half) == general_successor(model.law(), model.transitions, half)
    assert det.successor(half) != model.transitions["x"]


# -- certify against the reference checker --------------------------------------

def reference_certify(cert, model):
    """Every support pair through the general path on monad values (the
    certificate's states read back by ``DetCoalgebra.value``), every leaf
    bounded on each read by the witness bound on monad values."""
    law = model.law()
    monad = law.monad
    q = model.quantale
    det = model.det()
    value = det.value
    transitions = value_transitions(det)
    entries = {(value(l), value(r)): v for (l, r), v in cert.entries.items()}
    witnesses = {(value(l), value(r)): [tuple(((value(a), value(b)), w)
                                              for (a, b), w in parts)
                                        for parts in wits]
                 for (l, r), wits in cert.witnesses.items()}

    def bound(x, y):
        bounds = [entries.get((x, y), q.bottom)]
        for parts in witnesses.get((x, y), []):
            for side, want, got in (
                    ("left", x, monad.flatten([(a, w) for (a, _b), w in parts])),
                    ("right", y, monad.flatten([(b, w) for (_a, b), w in parts]))):
                if got != want:
                    raise ValueError(f"{side} marginal {canon_key(got)} differs "
                                     f"from {canon_key(want)}")
            bounds.append(monad.ev_weighted(
                [(entries.get(pair, q.bottom), w) for pair, w in parts], q))
        return q.join(bounds)

    failures = []
    for p_state, q_state in entries:
        stated = entries[(p_state, q_state)]
        try:
            bound_value = oracle_polynomial_distance(
                q, law.functor, bound,
                general_successor(law, transitions, p_state),
                general_successor(law, transitions, q_state))
        except (ValueError, KeyError) as exc:  # a broken witness
            failures.append((p_state, q_state, str(exc)))
            continue
        if not q.leq(stated, bound_value):
            failures.append((
                p_state, q_state,
                f"one-step bound {canon_key(bound_value)} exceeds the stated "
                f"{canon_key(stated)} numerically"))
    return Verdict(failures, len(entries))


def exception_certificate_doc(n, values):
    """The 2n+1-entry certificate bracketing ({x0,y0},{z0}) with its two
    union witnesses."""
    vx, vy, vz = values
    cx, cy = max(vz - vx, F(0)), max(vz - vy, F(0))
    s = lambda *members: {"set": list(members)}
    entries = [{"lhs": s("x0", "y0"), "rhs": s("z0"), "value": str(max(cx, cy))}]
    for i in range(1, n + 1):
        entries.append({"lhs": s(f"x{i}"), "rhs": s(f"z{i}"), "value": str(cx)})
        entries.append({"lhs": s(f"y{i}"), "rhs": s(f"z{i}"), "value": str(cy)})
    witnesses = [
        {"lhs": s("x0", "x1", "y0"), "rhs": s("z0", "z1"),
         "parts": [{"lhs": s("x0", "y0"), "rhs": s("z0")},
                   {"lhs": s("x1"), "rhs": s("z1")}]},
        {"lhs": s("x0", "y0", "y1"), "rhs": s("z0", "z1"),
         "parts": [{"lhs": s("x0", "y0"), "rhs": s("z0")},
                   {"lhs": s("y1"), "rhs": s("z1")}]},
    ]
    return {"entries": entries, "witnesses": witnesses}


def certified_cases():
    cases = [
        ("fixture-exceptions", fixture_model("exceptions.json"), "exceptions_cert.json"),
        ("fixture-probchain", fixture_model("probchain.json"), "probchain_cert.json"),
    ]
    out = [(name, model, fixture_certificate(cert, model)) for name, model, cert in cases]
    values = (F(1, 4), F(1, 3), F(1, 2))
    for n in (1, 5, 20):
        model = build_exceptions(n, values)
        out.append((f"exceptions-n{n}", model,
                    certificate_from_json(exception_certificate_doc(n, values), model)))
    return out


CASES = certified_cases()


@pytest.mark.parametrize("name,model,cert", CASES, ids=[c[0] for c in CASES])
def test_certify_matches_reference(name, model, cert):
    verdict = certify(cert)
    assert verdict.accepted
    assert verdict == reference_certify(cert, model)
    assert verdict.checked == len(cert.entries)


#: Entries above the behavioural distance: probchain's x' and y both
#: stay put and x' outputs more, so their distance is 0 and the entry
#: 1/2 can be lowered all the way.
SLACK_ENTRIES = {("fixture-probchain", "x':1", "y:1")}


@pytest.mark.parametrize("name,model,cert", CASES, ids=[c[0] for c in CASES])
def test_every_single_entry_lowering_is_judged_like_the_reference(name, model, cert):
    """Halving one entry is rejected unless the entry is slack, and
    gives the reference verdict either way."""
    q = model.quantale
    lowered = 0
    for pair, value in list(cert.entries.items()):
        if value == q.top:
            continue  # numerically 0: nothing below it
        assert value is not INF
        cert.entries[pair] = value / 2
        try:
            verdict = certify(cert)
            slack = (name, canon_key(pair[0]), canon_key(pair[1])) in SLACK_ENTRIES
            assert verdict.accepted == slack, pair
            assert verdict == reference_certify(cert, model), pair
        finally:
            cert.entries[pair] = value
        lowered += 1
    assert lowered == len(cert.entries)


def test_certify_evaluates_each_witnessed_pair_once(monkeypatch):
    """Successor bounds are read from one table: ``witness_bound`` runs
    for the witnessed pairs only, each once, not for every successor."""
    import quantadist.behaviour as behaviour

    model = build_exceptions(5)
    cert = certificate_from_json(
        exception_certificate_doc(5, (F(1, 4), F(1, 3), F(1, 2))), model)
    reads = []
    original = behaviour.witness_bound

    def counting(cert, pair):
        reads.append(pair)
        return original(cert, pair)

    monkeypatch.setattr(behaviour, "witness_bound", counting)
    assert certify(cert).accepted
    assert len(reads) == len(set(reads)) and set(reads) == set(cert.witnesses)


def test_pair_gfp_and_certify_read_no_canonical_keys(monkeypatch):
    """Once the query and the certificate are read as states, neither the
    pair solver nor the checker computes a canonical key."""
    model = build_exceptions(8)
    cert = certificate_from_json(
        exception_certificate_doc(8, (F(1, 4), F(1, 3), F(1, 2))), model)
    det = model.det()
    query = det.state(["x0", "y0"]), det.state(["z0"])
    calls = []
    original = canon.canon_key

    def counting(x):
        calls.append(x)
        return original(x)

    for name, module in list(sys.modules.items()):
        if name.startswith("quantadist") and getattr(module, "canon_key", None) is original:
            monkeypatch.setattr(module, "canon_key", counting)
    result = pair_gfp(det, *query)
    assert (result.value, result.converged, result.states) == (F(1, 4), True, 520)
    assert certify(cert).accepted
    assert calls == []
    assert canon_key(det.value(query[0])) == "{x0,y0}" and calls
