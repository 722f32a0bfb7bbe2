import random
from fractions import Fraction as F

import pytest

from conftest import build_exceptions, machine_term
from quantadist import distlaw
from quantadist.behaviour import reachable_states
from quantadist.canon import canon_key
from quantadist.distlaw import (ALWAYS_LEFT, PRIORITY_LEFT, DetCoalgebra, DistLaw,
                                apply_g, apply_zeta,
                                case_study_laws, law_suite)
from quantadist.functor import (ID, ConstF, ConstLeaf, CoprodF, IdLeaf, Inl, Inr,
                                MonadEval, ProdF, StarEval, Tup,
                                build_lambda, eval_map,
                                exception_functor, machine_functor, map_payloads)
from quantadist.galois import BudgetError, Grid, grid_values
from quantadist.monadlift import (POWERSET, SUBDIST, dirac, finsubset, kantorovich_lp,
                                  subdist)
from quantadist.quantale import BOOLEAN, EXT_PLUS, INF, UNIT_OPLUS
from quantadist.suites import CheckResult
from quantadist.vgraph import Carrier, VGraph


MACHINE_LAW = DistLaw(machine_functor(["a"]), SUBDIST, UNIT_OPLUS)
EXC_LAW = DistLaw(exception_functor(["a", "b"]), POWERSET, UNIT_OPLUS)


# -- prioritizing transformation -----------------------------------------------

def in_part(*members):
    return lambda x: x in members


def test_apply_g_powerset():
    in_left = in_part("x1", "y1")
    side, kept = apply_g(POWERSET, finsubset(["x1", "y2"]), in_left)
    assert side == "left" and kept == finsubset(["x1"])
    side, kept = apply_g(POWERSET, finsubset(["y2"]), in_left)
    assert side == "right" and kept == finsubset(["y2"])
    side, kept = apply_g(POWERSET, finsubset([]), in_part("x1"))
    assert side == "right" and kept == finsubset([])
    side, kept = apply_g(POWERSET, finsubset(["y2"]), in_left, ALWAYS_LEFT)
    assert side == "left" and kept == finsubset([])


def test_apply_g_subdist():
    t = subdist({"x1": F(1, 2), "y2": F(1, 2)})
    side, kept = apply_g(SUBDIST, t, in_part("x1"))
    assert side == "left" and kept == subdist({"x1": F(1, 2)})
    side, kept = apply_g(SUBDIST, subdist({"y2": F(1, 3)}), in_part("z1"))
    assert side == "right" and kept == subdist({"y2": F(1, 3)})


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


# -- determinization ----------------------------------------------------------------

def test_determinize_exception_successors():
    model = build_exceptions(3)
    det = DetCoalgebra(EXC_LAW, model.transitions, model.states)
    step = det.successor(det.state(finsubset(["x0", "y0"])))
    assert det.value(step.item.items[0].payload) == finsubset(["x0", "x1", "y0"])
    assert det.value(step.item.items[1].payload) == finsubset(["x0", "y0", "y1"])


def test_determinize_probabilistic_chain():
    trans = {
        "x": machine_term(F(1, 2), subdist({"x": F(1, 2), "x'": F(1, 2)})),
        "x'": machine_term(F(1), dirac("x'")),
        "y": machine_term(F(1, 2), dirac("y")),
    }
    det = DetCoalgebra(MACHINE_LAW, trans, Carrier(("x", "x'", "y")))
    first = det.successor(dirac("x"))
    assert first.items[0].atom == F(1, 2)
    half = subdist({"x": F(1, 2), "x'": F(1, 2)})
    assert first.items[1].items[0].payload == half
    second = det.successor(half)
    assert second.items[0].atom == F(3, 4)
    assert second.items[1].items[0].payload == subdist({"x": F(1, 4), "x'": F(3, 4)})


def test_determinize_budget_refusal():
    model = build_exceptions(3)
    det = DetCoalgebra(EXC_LAW, model.transitions, model.states, max_states=3)
    with pytest.raises(BudgetError, match="budget"):
        reachable_states(det, [det.state(finsubset(["x0", "y0"]))])


def test_witnesses_unsound_only_on_subdist_over_unit_oplus_with_a_coproduct():
    nested = ProdF((ConstF(), CoprodF(ConstF(), ID)))
    for functor, coprod in [(machine_functor(["a"]), False),
                            (exception_functor(["a", "b"]), True), (nested, True)]:
        for monad in (POWERSET, SUBDIST):
            for q in (UNIT_OPLUS, EXT_PLUS):
                unsound = coprod and monad is SUBDIST and q is UNIT_OPLUS
                assert DistLaw(functor, monad, q).witnesses_sound is not unsound


def test_witnesses_undefined_on_subdist_over_boolean():
    """A subdistribution witness bounds a pair by an expectation, which
    the booleans do not have: no boolean subdist law admits witnesses,
    with or without a coproduct, and the same powerset laws do."""
    for functor in (ID, ProdF((ID,), ("a",)), CoprodF(ID, ID)):
        assert not DistLaw(functor, SUBDIST, BOOLEAN).witnesses_sound
        assert DistLaw(functor, POWERSET, BOOLEAN).witnesses_sound


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


MUTANT_EVS = [
    ("exception-powerset", POWERSET, _empty_set_is_bottom),
    ("machine-subdist", SUBDIST, _normalized_expectation),
]


@pytest.mark.parametrize("name,monad,mutant_ev", MUTANT_EVS)
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


# -- law-suite checks against their per-pair oracles ------------------------------------
#
# The suite evaluates each sampled input once.  These oracles are the
# per-pair loops it replaced; with them patched in, the suite must
# print the same rows, witness strings included, and leave the
# generator where the fast checks leave it.

def oracle_well_behaved(law, rng):
    q = EXT_PLUS if law.monad is SUBDIST else law.quantale
    name = f"{law.monad.name} over {q.ident} ({law.g_variant}): prioritizer well-behaved"
    left_els = ["l_a", "l_b"]
    right_els = ["r_a", "r_b"]
    in_left = lambda x: x.startswith("l")
    vals = grid_values(q, Grid(2, cap=1))
    fs = [dict(zip(left_els + right_els, combo))
          for combo in distlaw._sampled_combos(rng, vals, 4, 40)]
    ts = distlaw._tvalues(law, rng, left_els + right_els, 40)

    def run_side(t, bracket):
        monad = law.monad
        return monad.ev_weighted([(bracket(x), w) for x, w in monad.weighted(t)], q)

    for t in ts:
        side, restricted = apply_g(law.monad, t, in_left, law.g_variant)
        for f in fs:
            cases = [
                ("left-eval", lambda x: f[x] if in_left(x) else q.top,
                 (lambda: run_side(restricted, lambda x: f[x]) if side == "left" else q.top)),
                ("right-eval", lambda x: q.bottom if in_left(x) else f[x],
                 (lambda: q.bottom if side == "left"
                  else run_side(restricted, lambda x: f[x]))),
                ("split", lambda x: q.bottom if in_left(x) else q.top,
                 (lambda: q.bottom if side == "left" else q.top)),
            ]
            for tag, bracket, via_g in cases:
                direct = run_side(t, bracket)
                routed = via_g()
                if direct != routed:
                    return CheckResult(
                        name, False,
                        f"{tag} square at {canon_key(t)}, f={ {k: canon_key(v) for k, v in f.items()} }: "
                        f"{canon_key(direct)} vs {canon_key(routed)}")
    return CheckResult(name, True)


def oracle_const_algebra_hom(law, rng):
    q = law.quantale
    monad = law.monad
    name = f"{monad.name} over {q.ident}: constant algebras are evaluation homomorphisms"
    vals = grid_values(q, Grid(2, cap=1))
    for v in vals:
        if monad.ev(monad.unit(v), q) != v:
            return CheckResult(name, False, f"unit at {canon_key(v)}")
    ts = distlaw._tvalues(law, rng, vals, 30)
    for s in ts:
        for t in ts:
            tt = monad.pack([(t if i % 2 else s, w)
                             for i, (_v, w) in enumerate(monad.weighted(s))])
            if monad.ev(monad.mult(tt), q) != \
                    monad.ev(monad.map(lambda u: monad.ev(u, q), tt), q):
                return CheckResult(name, False, canon_key(tt))
    return CheckResult(name, True)


def oracle_zeta_nonexpansive_machine_lp(law, rng):
    name = (f"{law.monad.name}/{distlaw._shape_name(law)}: exchange component "
            "non-expansive (transport exact)")
    q = law.quantale
    c = Carrier(("x", "y"))
    labels = law.functor.parts[1].labels or ("a",)
    vals = [F(0), F(1, 2), F(1)]
    f_terms = distlaw._f_terms_over(law.functor, list(c.elements), vals)
    grid = [F(i, 4) for i in range(5)]
    for _ in range(6):
        d = VGraph(q, c, [[rng.choice(grid) for _ in c.elements] for _ in c.elements])
        dists = [t for t in (oracle_sample_subdist(rng, f_terms) for _ in range(24))
                 if t.mass() == 1][:6]
        for mu in dists:
            for nu in dists:
                out_diff = q.residuate(
                    SUBDIST.ev(SUBDIST.map(lambda t: t.items[0].atom, mu), q),
                    SUBDIST.ev(SUBDIST.map(lambda t: t.items[0].atom, nu), q))
                label_vals = []
                for i, _lab in enumerate(labels):
                    push = lambda t, i=i: t.items[1].items[i].payload
                    label_vals.append(kantorovich_lp(
                        d, SUBDIST.map(push, mu), SUBDIST.map(push, nu)))
                lhs = q.meet([out_diff] + label_vals)
                zm, zn = distlaw.apply_zeta(law, mu), distlaw.apply_zeta(law, nu)
                rhs_out = q.residuate(zm.items[0].atom, zn.items[0].atom)
                rhs_vals = [kantorovich_lp(d, zm.items[1].items[i].payload,
                                           zn.items[1].items[i].payload)
                            for i in range(len(labels))]
                rhs = q.meet([rhs_out] + rhs_vals)
                if lhs != rhs:
                    return CheckResult(name, False,
                                       f"{canon_key(mu)} vs {canon_key(nu)}")
    return CheckResult(name, True)


def oracle_pentagon(law, doubles):
    name = f"{law.monad.name}/{distlaw._shape_name(law)}: exchange respects the multiplication"
    for tt in doubles:
        lhs = distlaw.apply_zeta(law, law.monad.mult(tt))
        inner = law.monad.map(lambda t: distlaw.apply_zeta(law, t), tt)
        rhs = map_payloads(distlaw.apply_zeta(law, inner), law.monad.mult)
        if lhs != rhs:
            return CheckResult(name, False, f"input {canon_key(tt)}")
    return CheckResult(name, True)


def oracle_exchange_identity(law, rng):
    """``_exchange_identity`` with the exchange component applied to
    every input once per evaluation map."""
    q = law.quantale
    name = f"{law.monad.name}/{distlaw._shape_name(law)}: evaluation-map exchange identity"
    vals = grid_values(q, Grid(2, cap=1))
    f_terms = distlaw._f_terms_over(law.functor, vals, vals)
    if len(f_terms) > 24:
        f_terms = f_terms[:: max(1, len(f_terms) // 24)]
    inputs = distlaw._tvalues(law, rng, f_terms, 60)
    ev_t = MonadEval(law.monad)
    lhs = sorted(tuple(canon_key(eval_map(q, StarEval(ev, ev_t), distlaw.apply_zeta(law, t)))
                       for t in inputs) for ev in build_lambda(law.functor))
    rhs = sorted(tuple(canon_key(eval_map(q, StarEval(ev_t, ev), t)) for t in inputs)
                 for ev in build_lambda(law.functor))
    if lhs != rhs:
        return CheckResult(name, False, "composite evaluations differ on grid inputs")
    return CheckResult(name, True)


ORACLES = {
    "_pentagon": oracle_pentagon,
    "_exchange_identity": oracle_exchange_identity,
    "_well_behaved": oracle_well_behaved,
    "_const_algebra_hom": oracle_const_algebra_hom,
    "_zeta_nonexpansive_machine_lp": oracle_zeta_nonexpansive_machine_lp,
}


def _suite_rows(law, seed):
    return [(r.name, r.passed, r.detail) for r in law_suite(law, seed)]


def assert_rows_match_the_oracles(monkeypatch, law, seeds=(0,)):
    fast = [_suite_rows(law, seed) for seed in seeds]
    with monkeypatch.context() as patch:
        for check, oracle in ORACLES.items():
            patch.setattr(distlaw, check, oracle)
        slow = [_suite_rows(law, seed) for seed in seeds]
    assert fast == slow
    return fast


@pytest.mark.parametrize("variant", [PRIORITY_LEFT, ALWAYS_LEFT])
@pytest.mark.parametrize("name", sorted(case_study_laws()))
def test_law_suite_rows_match_the_per_pair_oracles(monkeypatch, name, variant):
    base = case_study_laws()[name]
    law = DistLaw(base.functor, base.monad, base.quantale, g_variant=variant)
    fast = assert_rows_match_the_oracles(monkeypatch, law, [7919 * k for k in range(4)])
    if variant == ALWAYS_LEFT:  # the mutant's witness strings are compared too
        assert any(not passed and detail for rows in fast for _n, passed, detail in rows)


TRANSPORT_CHECK = "exchange component non-expansive (transport exact)"


def _transport_rows(law):
    return [r.passed for r in law_suite(law) if r.name.endswith(TRANSPORT_CHECK)]


def test_mutant_rows_match_the_oracles(monkeypatch):
    """The failing rows of a mutant evaluation map or exchange component
    carry the oracles' witness strings."""
    for name, monad, mutant_ev in MUTANT_EVS:
        with monkeypatch.context() as patch:
            patch.setattr(monad, "ev_weighted", mutant_ev)
            rows = assert_rows_match_the_oracles(patch, case_study_laws()[name])
        assert any(n.endswith(ALGEBRA_CHECK) and not ok and detail
                   for n, ok, detail in rows[0])
    with monkeypatch.context() as patch:
        patch.setattr(distlaw, "apply_zeta", _mass_to_first_member(distlaw.apply_zeta))
        rows = assert_rows_match_the_oracles(patch, case_study_laws()["machine-subdist"])
    assert any(n.endswith(TRANSPORT_CHECK) and not ok and detail for n, ok, detail in rows[0])


def _mass_to_first_member(exact):
    """A mutant exchange component: each identity leaf's payload mass all
    on its first member."""
    def to_first_member(p):
        return subdist([(p.support()[0], p.mass())]) if len(p) else p
    return lambda law, t: map_payloads(exact(law, t), to_first_member)


def test_transport_exact_row_catches_a_mutant_exchange_component(monkeypatch):
    """An exchange component that moves all of a label's payload mass to
    its first member keeps every shape and mass but not the transport
    distances, so only the exact check can see it."""
    law = case_study_laws()["machine-subdist"]
    assert _transport_rows(law) == [True]
    monkeypatch.setattr(distlaw, "apply_zeta", _mass_to_first_member(distlaw.apply_zeta))
    assert _transport_rows(law) == [False]


def test_pentagon_applies_zeta_once_per_distinct_inner_value(monkeypatch):
    pentagon, exact = distlaw._pentagon, distlaw.apply_zeta
    seen = {}

    def counted_pentagon(law, doubles):
        calls = seen["calls"] = []
        seen["doubles"] = doubles
        with monkeypatch.context() as patch:
            patch.setattr(distlaw, "apply_zeta",
                          lambda law, t: calls.append(t) or exact(law, t))
            return pentagon(law, doubles)

    monkeypatch.setattr(distlaw, "_pentagon", counted_pentagon)
    for seed in (0, 7919):
        for name, law in sorted(case_study_laws().items()):
            assert all(r.passed for r in law_suite(law, seed)), name
            doubles, calls = seen["doubles"], seen["calls"]
            inner = [t for tt in doubles for t, _w in law.monad.weighted(tt)]
            distinct = len(set(inner))
            # The inner values are the singles themselves, so equal ones
            # are one object.
            assert len({id(t) for t in inner}) == distinct < len(inner), name
            # Per double its flattening and its mapped value, then one
            # call per distinct inner value.
            assert len(calls) == 2 * len(doubles) + distinct, name


def test_exchange_identity_applies_zeta_once_per_input(monkeypatch):
    exchange_identity, tvalues, exact = (distlaw._exchange_identity, distlaw._tvalues,
                                         distlaw.apply_zeta)
    seen = {}

    def recorded_tvalues(*args):
        inputs = seen["inputs"] = tvalues(*args)
        return inputs

    def counted_exchange_identity(law, rng):
        calls = seen["calls"] = []
        with monkeypatch.context() as patch:
            patch.setattr(distlaw, "_tvalues", recorded_tvalues)
            patch.setattr(distlaw, "apply_zeta",
                          lambda law, t: calls.append(t) or exact(law, t))
            return exchange_identity(law, rng)

    monkeypatch.setattr(distlaw, "_exchange_identity", counted_exchange_identity)
    for seed in (0, 7919):
        for name, law in sorted(case_study_laws().items()):
            assert all(r.passed for r in law_suite(law, seed)), name
            # Every evaluation map reads the same images (at seed 0, 316
            # calls for 79 inputs on exception-powerset before).
            assert len(build_lambda(law.functor)) > 1
            assert seen["calls"] == seen["inputs"], name


# -- sampled T-values against the build-then-dedupe loop ------------------------------
#
# The suite draws each subdistribution as (index, quarters) pairs and
# builds a value only for a draw it has not kept yet.  The oracle builds
# every sampled value from the items themselves and dedupes the values.

def oracle_sample_subdist(rng, items):
    size = rng.randint(0, 2)
    chosen = rng.sample(list(items), min(size, len(items)))
    remaining = 4
    weights = []
    for x in chosen:
        w = rng.randint(0, remaining)
        remaining -= w
        weights.append((x, F(w, 4)))
    return subdist(weights)


def oracle_tvalues(law, rng, items, count, keep=None):
    if law.monad is POWERSET:
        return distlaw._small_subsets(items, 2, keep)
    out = []
    seen = set()
    for _ in range(count):
        t = oracle_sample_subdist(rng, items)
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out[:keep]


@pytest.mark.parametrize("name", sorted(case_study_laws()))
def test_tvalues_match_the_build_then_dedupe_oracle(monkeypatch, name):
    """On every item list the suite samples from, at each benchmark seed,
    ``_tvalues`` and ``_sample_subdist`` return what the oracles return,
    in the same order, and leave the generator where they leave it."""
    law = case_study_laws()[name]
    tvalues, sample_subdist = distlaw._tvalues, distlaw._sample_subdist
    calls = []                # (state before, state after, value, oracle)
    sizes = []                # (drawn, kept) per _tvalues call

    def recorded_tvalues(law, rng, items, count, keep=None):
        before = rng.getstate()
        got = tvalues(law, rng, items, count, keep)
        calls.append((before, rng.getstate(), got,
                      lambda rng: oracle_tvalues(law, rng, items, count, keep)))
        sizes.append((count, len(got)))
        return got

    def recorded_sample_subdist(rng, items):
        before = rng.getstate()
        got = sample_subdist(rng, items)
        calls.append((before, rng.getstate(), got,
                      lambda rng: oracle_sample_subdist(rng, items)))
        return got

    monkeypatch.setattr(distlaw, "_tvalues", recorded_tvalues)
    monkeypatch.setattr(distlaw, "_sample_subdist", recorded_sample_subdist)
    for seed in (7919 * k for k in range(4)):
        assert all(r.passed for r in law_suite(law, seed)), seed
    for before, after, got, oracle in calls:
        rng = random.Random()
        rng.setstate(before)
        assert oracle(rng) == got
        assert rng.getstate() == after
    # The subdistribution suites sample duplicates, which the key drops.
    if law.monad is SUBDIST:
        assert sum(k for _d, k in sizes) < sum(d for d, _k in sizes)
