"""Acceptance gate: every published number is recomputed exactly, the
property suites run at full desk scale, and each criterion carries its
stated runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
pass/fail line per criterion.
"""

import time
from fractions import Fraction as F


from quantadist.behaviour import (Certificate, certify, kleene_gfp, reachable_states,
                                  trace_lower_bound, witness_bound)
from quantadist.functor import MonadEval, compile_lifting
from quantadist.galois import Grid, gamma_enum, grid_values
from quantadist.models import fixture_certificate, fixture_model
from quantadist.monadlift import (POWERSET, SUBDIST, dirac, finsubset,
                                  hausdorff_directed, kantorovich_lp, pricing_lp,
                                  subdist)
from quantadist.quantale import EXT_PLUS, UNIT_OPLUS
from quantadist.repro import REPRODUCTIONS
from quantadist.simplex import simplex_solve
from quantadist.suites import (all_bool_graphs, extension_suite, galois_suite,
                               polyfunctor_suite, quantale_suite)
from quantadist.vgraph import carrier, graph_from_entries

from grid_oracle import grid_gamma, grid_lifting
from test_behaviour import tiny_powerset_model, u_exact


def _report(name: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_transport_lp():
    started = time.monotonic()
    instance = fixture_model("transport.json")
    graph = instance.graph
    p, q = instance.distribution("P"), instance.distribution("Q")
    assert kantorovich_lp(graph, p, q) == F(21, 10)
    lp = pricing_lp(graph, p, q)
    stated = {"f_A": F(0), "f_B": F(3), "f_C": F(5)}
    for con in lp.constraints:
        assert sum(c * stated[v] for v, c in con.coeffs.items()) <= con.rhs
    assert sum(c * stated[v] for v, c in lp.objective.items()) == F(21, 10)
    assert simplex_solve(lp).optimum == F(21, 10)
    _report("1 (transport distance 21/10)", started, 1.0)


def test_criterion_2_probabilistic_running_example():
    started = time.monotonic()
    model = fixture_model("probchain.json")
    cert = fixture_certificate("probchain_cert.json", model)
    verdict = certify(cert)
    assert verdict.accepted
    dy, dx = dirac("y"), dirac("x")
    # The certificate bounds both orientations of the Dirac pair by 1/2.
    assert cert.entries[(dx, dy)] == F(1, 2)
    assert cert.entries[(dy, dx)] == F(1, 2)
    lower = trace_lower_bound(model, dy, dx, 10)
    assert lower == F(2 ** 10 - 1, 2 ** 10) - F(1, 2) == F(511, 1024)
    assert F(1, 2) - lower == F(1, 1024)  # two-sided bracket within 1/1024
    _report("2 (running example bracketed at 1/2)", started, 5.0)


def test_criterion_3_exception_case_study():
    started = time.monotonic()
    model = fixture_model("exceptions.json")
    n = 3
    det = model.det()
    seeds = [det.state(finsubset(["x0", "y0"])), det.state(finsubset(["z0"]))]
    states = reachable_states(det, seeds)
    result = kleene_gfp(det, states)
    assert result.converged
    assert result.at(seeds[0], seeds[1]) == F(1, 4)
    cert = fixture_certificate("exceptions_cert.json", model)
    values = sorted(set(cert.entries.values()))
    assert values == [F(1, 6), F(1, 4)]  # entries 1/4 and 1/6, default 1
    assert certify(cert).accepted
    assert trace_lower_bound(model, seeds[0], seeds[1], n + 2) == F(1, 4)
    _report("3 (exception study at 1/4)", started, 30.0)


def test_criterion_4_compositionality_counterexamples():
    started = time.monotonic()
    expected = {
        "pp": (F(1), F(0)),
        "pd": (F(1, 2), F(0)),
        "dp": (F(1), F(1, 2)),
        "dd": (F(1, 2), F(0)),
    }
    for key, (composed, combined) in expected.items():
        result = REPRODUCTIONS[key]()
        assert result.matches, [r.label for r in result.rows if not r.ok]
        got = {r.label.split(": ")[-1]: r.computed for r in result.rows}
        assert got["two-step lifting"] == str(composed)
        assert got["combined-map lifting"] == str(combined)
    assert expected["pd"][0] >= F(1, 2) and expected["dd"][0] >= F(1, 2)
    assert expected["dp"][1] <= F(1, 2)
    _report("4 (PP, PD, DP, DD counterexamples)", started, 10.0)


def test_criterion_5_property_suites():
    started = time.monotonic()
    from quantadist.distlaw import case_study_laws, law_suite

    unit_vals = grid_values(UNIT_OPLUS, Grid(21))
    ext_vals = grid_values(EXT_PLUS, Grid(4, cap=4))
    triples = len(unit_vals) ** 3 + len(ext_vals) ** 3 + 2 ** 3
    assert triples >= 10 ** 4
    results = quantale_suite(grid=21)
    results += galois_suite()
    results += extension_suite()
    results += polyfunctor_suite()
    for _name, law in sorted(case_study_laws().items()):
        results += law_suite(law)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, failures
    print(f"\n  {len(results)} property checks, {triples} residuation triples")
    _report("5 (full property suites, zero failures)", started, 120.0)


def test_criterion_6_oracle_consistency():
    started = time.monotonic()
    # Boolean: the closed-form powerset lifting equals the enumeration
    # oracle exactly.
    c = carrier(["x", "y"])
    subsets = [finsubset(s) for s in ([], ["x"], ["y"], ["x", "y"])]
    oracle_lifting = compile_lifting([MonadEval(POWERSET)], subsets)
    for d in all_bool_graphs(c):
        oracle = oracle_lifting(gamma_enum(d))
        for i, u in enumerate(subsets):
            for j, v in enumerate(subsets):
                assert hausdorff_directed(d, u, v) == oracle.dist[i][j]

    # Real-valued: closed forms dominate every value of the grid oracle
    # and the gap closes as the grid refines.
    d = graph_from_entries(UNIT_OPLUS, c,
                           {("x", "y"): F(1, 4), ("y", "x"): F(1, 2)},
                           default=F(0))
    sub_pairs = [finsubset(["x"]), finsubset(["y"]), finsubset(["x", "y"])]
    dist_pairs = [dirac("x"), dirac("y"),
                  subdist({"x": F(1, 2), "y": F(1, 2)})]
    exact_h = {(i, j): hausdorff_directed(d, sub_pairs[i], sub_pairs[j])
               for i in range(3) for j in range(3)}
    exact_w = {(i, j): kantorovich_lp(d, dist_pairs[i], dist_pairs[j])
               for i in range(3) for j in range(3)}
    hausdorff = grid_lifting(UNIT_OPLUS, None, [MonadEval(POWERSET)], sub_pairs)
    wasserstein = grid_lifting(UNIT_OPLUS, None, [MonadEval(SUBDIST)], dist_pairs)
    prev_h = prev_w = None
    for k in (2, 4, 8):
        preds = grid_gamma(d, Grid(k))
        grid_h = hausdorff(preds)
        grid_w = wasserstein(preds)
        gap_h = sum(exact_h[(i, j)] - grid_h.dist[i][j]
                    for i in range(3) for j in range(3))
        gap_w = sum(exact_w[(i, j)] - grid_w.dist[i][j]
                    for i in range(3) for j in range(3))
        assert gap_h >= 0 and gap_w >= 0
        if prev_h is not None:
            assert gap_h <= prev_h and gap_w <= prev_w
        prev_h, prev_w = gap_h, gap_w
    assert prev_h == 0 and prev_w == 0  # quarter-grid instance: k=8 is exact

    # Witness bounds never undercut the exact up-to oracle.
    model = tiny_powerset_model()
    S = lambda *xs: finsubset(list(xs))
    cand = {
        (S("p"), S("r")): F(1, 3),
        (S("p", "r"), S("r")): F(1, 8),
        (S("r"), S("r")): F(0),
    }
    det = model.det()
    state = det.state
    M = lambda *xs: state(xs)
    wits = {
        (M("p", "r"), M("r")): [(((M("p"), M("r")), None), ((M("r"), M("r")), None))],
    }
    cert = Certificate(det, {(state(a), state(b)): v for (a, b), v in cand.items()}, wits)
    states = [S(), S("p"), S("r"), S("p", "r")]
    for left in states:
        for right in states:
            pair = (left, right)
            exact = u_exact(model, cand, pair)
            assert witness_bound(cert, (state(left), state(right))) >= exact, pair
    _report("6 (oracle consistency)", started, 60.0)
