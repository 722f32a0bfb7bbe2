"""The exhaustive boolean law checks run once per gamma-class.

``suites.BooleanFibre`` groups the boolean graphs on a carrier by their
predicate set gamma(d); ``polyfunctor_suite``, ``_zeta_nonexpansive_boolean``
and ``galois_suite`` read it.  The oracles below are the per-graph loops
those checks ran before the grouping: the grouped versions must give the
same rows and witness strings, also under a mutant lifting that fails
only away from the first graph.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import graph_leq
from grid_oracle import grid_gamma, grid_lifting
from quantadist import distlaw, functor, galois, suites
from quantadist.canon import canon_key
from quantadist.distlaw import (ALWAYS_LEFT, _f_terms_over, _shape_name,
                                _small_subsets, _zeta_nonexpansive_boolean, apply_zeta,
                                case_study_laws, law_suite)
from quantadist.functor import (ConstF, ConstLeaf, CoprodF, IdF, IdLeaf, Inl, Inr,
                                MonadEval, StarEval, Tup, build_lambda,
                                exception_functor, machine_functor, score_program)
from quantadist.galois import Grid, gamma_enum, grid_values, residual_meet
from quantadist.monadlift import POWERSET
from quantadist.quantale import BOOLEAN, UNIT_OPLUS
from quantadist.suites import (CheckResult, _predset_keys, all_bool_graphs,
                               boolean_fibre, polyfunctor_suite)
from quantadist.vgraph import VGraph, carrier

XY = carrier(["x", "y"])
SHAPES = {"machine": machine_functor(["a"]),
          "exception": exception_functor(["a"])}


# -- oracles: the per-graph loops ------------------------------------------------

def oracle_compositionality_rows():
    inners = {
        "identity": (IdF(), [IdLeaf("x"), IdLeaf("y")]),
        "coproduct": (CoprodF(ConstF(), IdF()),
                      [Inl(ConstLeaf(False)), Inl(ConstLeaf(True)),
                       Inr(IdLeaf("x")), Inr(IdLeaf("y"))]),
    }
    out = []
    for shape_name, outer in SHAPES.items():
        for inner_name, (inner, g_terms) in inners.items():
            if shape_name == "machine":
                fg_terms = [Tup((ConstLeaf(b), Tup((IdLeaf(g),))))
                            for b in (False, True) for g in g_terms]
            else:
                fg_terms = [Inl(ConstLeaf(b)) for b in (False, True)] + \
                    [Inr(Tup((IdLeaf(g),))) for g in g_terms]
            # Read through the module so that a patched lifting reaches here too.
            check = functor.compositionality_check(
                build_lambda(outer), build_lambda(inner), g_terms, fg_terms)
            ok = True
            witness = ""
            for d in all_bool_graphs(XY):
                report = check(gamma_enum(d))
                if not (report["equal"] and report["composed_below_combined"]):
                    ok = False
                    witness = f"d={d.dist}"
                    break
            out.append(CheckResult(
                f"compositionality: {shape_name} after {inner_name} "
                "(boolean, exhaustive)", ok, witness))
    return out


def oracle_zeta_nonexpansive_boolean(law):
    name = f"{law.monad.name}/{_shape_name(law)}: exchange component non-expansive (boolean exact)"
    bool_law = distlaw.DistLaw(law.functor, law.monad, BOOLEAN, law.g_variant)
    f_terms = _f_terms_over(law.functor, list(XY.elements), [False, True])
    tf_terms = _small_subsets(f_terms, 2)[:12]
    ft_terms = [apply_zeta(bool_law, t) for t in tf_terms]
    lam_f = build_lambda(law.functor)
    ev_t = MonadEval(law.monad)
    tf_evals = [StarEval(ev_t, ev) for ev in lam_f]
    ft_evals = [StarEval(ev, ev_t) for ev in lam_f]
    n = len(tf_terms)
    # Read through the module so that a patched lifting reaches here too.
    tf_lifting = functor.compile_lifting(tf_evals, tf_terms)
    for d in all_bool_graphs(XY):
        preds = gamma_enum(d)
        d_tf = tf_lifting(preds)
        d_ft = residual_meet(n, score_program(ft_evals, ft_terms)(preds.preds))
        for i in range(n):
            for j in range(n):
                if not BOOLEAN.leq(d_tf.dist[i][j], d_ft[i][j]):
                    return CheckResult(
                        name, False,
                        f"d={d.dist} at pair ({canon_key(tf_terms[i])}, {canon_key(tf_terms[j])})")
    return CheckResult(name, True)


def _laws():
    return [replace(law, g_variant=variant)
            for law in case_study_laws().values()
            for variant in (law.g_variant, ALWAYS_LEFT)]


def _rows(results):
    return [(r.name, r.passed, r.detail) for r in results]


# -- the table -------------------------------------------------------------------

@pytest.mark.parametrize("size", [2, 3])
def test_fibre_lists_every_graph_with_its_gamma(size):
    c = carrier([f"e{i}" for i in range(size)])
    fibre = boolean_fibre(c)
    graphs = all_bool_graphs(c)
    assert [d.dist for d in fibre.graphs] == [d.dist for d in graphs]
    for i, d in enumerate(graphs):
        assert fibre.index(d) == i
        assert fibre.gammas[i].preds == gamma_enum(d).preds
        assert fibre.keys[i] == _predset_keys(fibre.gammas[i])
    for i, k in enumerate(fibre.classes):
        assert fibre.firsts[k] <= i
        assert fibre.keys[i] == fibre.keys[fibre.firsts[k]]
    assert fibre.firsts == sorted(fibre.firsts)
    assert len(fibre.firsts) == len(set(fibre.keys))


def _leq_by_index(fibre, d, e):
    """d <= e read off the index bits, as ``galois_suite`` reads
    d <= alpha(S)."""
    return not fibre.index(d) & ~fibre.index(e)


def test_index_bits_decide_graph_leq_on_two_points():
    fibre = boolean_fibre(XY)
    for d in fibre.graphs:
        for e in fibre.graphs:
            assert _leq_by_index(fibre, d, e) == graph_leq(d, e), (d.dist, e.dist)


def test_index_bits_decide_graph_leq_on_three_points():
    rng = random.Random(11)
    fibre = boolean_fibre(carrier(["e0", "e1", "e2"]))
    graphs = fibre.graphs
    outcomes = set()
    for _ in range(400):
        d = rng.choice(graphs)
        # Half the pairs grow d, so both answers occur.
        e = graphs[fibre.index(d) | rng.randrange(512)] if rng.random() < 0.5 \
            else rng.choice(graphs)
        leq = graph_leq(d, e)
        outcomes.add(leq)
        assert _leq_by_index(fibre, d, e) == leq, (d.dist, e.dist)
    assert outcomes == {False, True}


def test_two_point_fibre_has_four_classes():
    # gamma(d) depends on d(x, y) and d(y, x) only: four predicate sets.
    fibre = boolean_fibre(XY)
    assert len(fibre.graphs) == 16
    assert fibre.firsts == [0, 2, 4, 6]
    assert [len(fibre.gammas[i]) for i in fibre.firsts] == [4, 3, 3, 2]


def test_first_failure_reports_the_first_failing_graph():
    fibre = boolean_fibre(XY)
    seen = []

    def check(d, preds):
        seen.append(fibre.index(d))
        return f"d={d.dist}" if len(preds) == 3 else None

    assert fibre.first_failure(check) == f"d={fibre.graphs[2].dist}"
    assert seen == [0, 2]
    assert fibre.first_failure(lambda d, preds: None) is None


# -- grouped versus per-graph ------------------------------------------------------

def test_polyfunctor_rows_match_the_per_graph_oracle():
    assert _rows(polyfunctor_suite()[:4]) == _rows(oracle_compositionality_rows())


@pytest.mark.parametrize("law", _laws(), ids=lambda law: f"{law.monad.name}-"
                         f"{_shape_name(law)}-{law.g_variant}")
def test_exchange_check_matches_the_per_graph_oracle(law):
    """The suite's boolean exchange row is the oracle's on powerset; an
    expectation is not boolean-valued, so on subdist there is no row."""
    rows = [row for row in _rows(law_suite(law)) if row[0].endswith("(boolean exact)")]
    assert rows == (_rows([oracle_zeta_nonexpansive_boolean(law)])
                    if law.monad is POWERSET else [])


def _flip_on(size):
    """A lifting compiler whose liftings are wrong, at one entry, on
    predicate sets of one size."""
    compile_lifting = functor.compile_lifting

    def mutant(*args):
        lifting = compile_lifting(*args)

        def flipped(preds):
            out = lifting(preds)
            if len(preds) != size:
                return out
            dist = [row[:] for row in out.dist]
            dist[0][1] = not dist[0][1]
            return VGraph(out.quantale, out.carrier, dist)
        return flipped
    return mutant


@pytest.mark.parametrize("size,first", [(2, 6), (3, 2)])
def test_mutant_failing_away_from_the_first_graph(monkeypatch, size, first):
    # Size 2 fails on one class only; size 3 on two, the first of them
    # starting at graph 2 and the second at graph 4.  The suites compile
    # their liftings once and run them per class, so the mutant replaces
    # the compiler; the oracles reach it through ``functor.compile_lifting``
    # and ``functor.compositionality_check``.
    mutant = _flip_on(size)
    monkeypatch.setattr(functor, "compile_lifting", mutant)
    monkeypatch.setattr(distlaw, "compile_lifting", mutant)
    witness = f"d={all_bool_graphs(XY)[first].dist}"

    grouped = _rows(polyfunctor_suite()[:4])
    assert grouped == _rows(oracle_compositionality_rows())
    assert any(not passed for _, passed, _ in grouped)
    for _, passed, detail in grouped:
        assert passed or detail == witness

    exchange_failed = False
    for law in (law for law in _laws() if law.monad is POWERSET):
        row = _zeta_nonexpansive_boolean(law)
        assert _rows([row]) == _rows([oracle_zeta_nonexpansive_boolean(law)])
        if not row.passed:
            exchange_failed = True
            assert row.detail.startswith(witness + " at pair")
    assert exchange_failed


# -- counts ------------------------------------------------------------------------

def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def _count_runs(monkeypatch, module, name):
    """Count the runs of what ``module.name`` compiles."""
    runs = []
    real = getattr(module, name)

    def compiled(*args, **kwargs):
        run = real(*args, **kwargs)

        def counted(*run_args):
            runs.append(None)
            return run(*run_args)
        return counted
    monkeypatch.setattr(module, name, compiled)
    return runs


def test_polyfunctor_suite_checks_once_per_class(monkeypatch):
    checks = _count_runs(monkeypatch, suites, "compositionality_check")
    compiles = _count_calls(monkeypatch, suites, "compositionality_check")
    assert all(r.passed for r in polyfunctor_suite())
    assert len(compiles) == 4  # one per shape pair
    assert len(checks) == 4 * 4  # four shape pairs, four classes


def test_polyfunctor_suite_compiles_each_lifting_once(monkeypatch):
    # Inner, outer and combined lifting once per shape pair: 12, where
    # compiling per class made 48.
    compiles = _count_calls(monkeypatch, functor, "compile_lifting")
    # The fibre enumerates each of the 16 graphs once, and each check
    # enumerates its inner graph's set: 16 + 4 * 4 = 32.  The check runs
    # on the class's own set, so gamma(d) is not enumerated again (48
    # calls when it was).
    enumerations = []
    real = galois.gamma_enum
    for module in (suites, functor):
        monkeypatch.setattr(module, "gamma_enum",
                            lambda *args: enumerations.append(None) or real(*args))
    assert all(r.passed for r in polyfunctor_suite())
    assert len(compiles) == 12
    assert len(enumerations) == 32


def test_polyfunctor_suite_checks_each_predicate_once(monkeypatch):
    # gamma_enum admits only non-expansive predicates, so the lifting
    # never checks them again, and each class's gamma(d) is enumerated
    # once, by the fibre: the 224 checks are those of the fibre's and the
    # inner graphs' enumerations (160 more were re-checks, and 64 more
    # re-enumerated gamma(d)).
    calls = _count_calls(monkeypatch, galois, "nonexpansive_into_value")
    assert all(r.passed for r in polyfunctor_suite())
    assert len(calls) == 224


def test_galois_suite_enumerates_each_graph_once(monkeypatch):
    calls = _count_calls(monkeypatch, suites, "gamma_enum")
    assert all(r.passed for r in suites.galois_suite())
    # Graphs on the carriers {e0, e1}, {e0, e1, e2}, {a0, a1} and {b0, b1, b2}.
    assert len(calls) == 16 + 512 + 16 + 512


# -- the invariant the grouping relies on -------------------------------------------

def _assert_lifting_is_a_function_of_gamma(lifting, gamma, graphs):
    by_gamma = {}
    repeated = 0
    for d in graphs:
        preds = gamma(d)
        lifted = lifting(preds).dist
        key = _predset_keys(preds)
        if key in by_gamma:
            repeated += 1
            assert lifted == by_gamma[key], d.dist
        else:
            by_gamma[key] = lifted
    assert repeated > 0


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_boolean_lifting_depends_only_on_gamma(shape):
    f = SHAPES[shape]
    terms = _f_terms_over(f, list(XY.elements), [False, True])
    lifting = functor.compile_lifting(build_lambda(f), terms)
    _assert_lifting_is_a_function_of_gamma(lifting, gamma_enum, all_bool_graphs(XY))

    xyz = carrier(["x", "y", "z"])
    rng = random.Random(11)
    graphs = rng.sample(all_bool_graphs(xyz), 96)
    terms = _f_terms_over(f, list(xyz.elements), [False, True])
    lifting = functor.compile_lifting(build_lambda(f), terms)
    _assert_lifting_is_a_function_of_gamma(lifting, gamma_enum, graphs)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_grid_lifting_depends_only_on_grid_gamma(shape):
    # On unit-oplus, the grid oracle over Grid(2) is the grid under-approximation.
    f = SHAPES[shape]
    vals = grid_values(UNIT_OPLUS, Grid(2))
    rng = random.Random(5)
    graphs = [VGraph(UNIT_OPLUS, XY, [[rng.choice(vals) for _ in XY] for _ in XY])
              for _ in range(60)]
    terms = _f_terms_over(f, list(XY.elements), [Fraction(0), Fraction(1, 2)])
    lifting = grid_lifting(UNIT_OPLUS, f, build_lambda(f), terms)
    _assert_lifting_is_a_function_of_gamma(lifting, lambda d: grid_gamma(d, Grid(2)), graphs)
