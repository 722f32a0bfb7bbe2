"""Recomputation of every worked number from the bundled examples.

Each routine recomputes its values from scratch and lines them up
against the expected results; a reproduction succeeds only if every
row matches exactly (rationals are compared bit-for-bit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import List

from .behaviour import certify, pair_gfp, trace_lower_bound
from .counterex import CASES
from .models import fixture_certificate, fixture_model
from .monadlift import dirac, kantorovich_lp, pricing_lp
from .simplex import simplex_solve


@dataclass
class ReproRow:
    label: str
    computed: str
    expected: str

    @property
    def ok(self) -> bool:
        return self.computed == self.expected


@dataclass
class ReproResult:
    name: str
    rows: List[ReproRow] = field(default_factory=list, init=False)

    def add(self, label, computed, expected):
        self.rows.append(ReproRow(label, str(computed), str(expected)))

    @property
    def matches(self) -> bool:
        return all(r.ok for r in self.rows)


def repro_transport() -> ReproResult:
    out = ReproResult("transport")
    instance = fixture_model("transport.json")
    graph, p, q = instance.graph, instance.distribution("P"), instance.distribution("Q")
    value = kantorovich_lp(graph, p, q)
    out.add("transport distance", value, Fraction(21, 10))
    lp = pricing_lp(graph, p, q)
    stated = {"f_A": Fraction(0), "f_B": Fraction(3), "f_C": Fraction(5)}
    feasible = all(
        sum(c * stated[v] for v, c in con.coeffs.items()) <= con.rhs
        for con in lp.constraints)
    out.add("stated pricing feasible", feasible, True)
    objective = sum(c * stated[v] for v, c in lp.objective.items())
    out.add("stated pricing objective", objective, Fraction(21, 10))
    out.add("solver optimum", simplex_solve(lp).optimum, Fraction(21, 10))
    return out


def _counterexample_repro(key: str, expected_composed: Fraction,
                          expected_combined: Fraction) -> ReproResult:
    out = ReproResult(key)
    report = CASES[key]()
    out.add(f"{report.name}: two-step lifting", report.composed, expected_composed)
    out.add(f"{report.name}: combined-map lifting", report.combined,
            expected_combined)
    # The unconditional inequality: the two-step value dominates numerically.
    out.add("two-step dominates combined (numeric)",
            report.composed >= report.combined, True)
    return out


def repro_probchain() -> ReproResult:
    out = ReproResult("probchain")
    model = fixture_model("probchain.json")
    cert = fixture_certificate("probchain_cert.json", model)
    out.add("certificate accepted", certify(cert).accepted, True)
    dy, dx = dirac("y"), dirac("x")
    out.add("candidate upper bound at (1*y, 1*x)", cert.entries[(dy, dx)], Fraction(1, 2))
    bound = trace_lower_bound(model, dy, dx, 10)
    out.add("trace lower bound (10 word lengths)", bound, Fraction(511, 1024))
    out.add("two-sided gap", Fraction(1, 2) - bound, Fraction(1, 1024))
    return out


def repro_exceptions() -> ReproResult:
    out = ReproResult("exceptions")
    model = fixture_model("exceptions.json")
    det = model.det()
    seeds = [det.state(["x0", "y0"]), det.state(["z0"])]
    result = pair_gfp(det, seeds[0], seeds[1])
    out.add("fixpoint iteration converged", result.converged, True)
    out.add("distance at ({x0,y0}, {z0})", result.value, Fraction(1, 4))
    cert = fixture_certificate("exceptions_cert.json", model)
    out.add("certificate accepted", certify(cert).accepted, True)
    out.add("trace lower bound (5 word lengths)",
            trace_lower_bound(model, seeds[0], seeds[1], 5), Fraction(1, 4))
    return out


REPRODUCTIONS = {
    "transport": repro_transport,
    "pp": partial(_counterexample_repro, "pp", Fraction(1), Fraction(0)),
    "pd": partial(_counterexample_repro, "pd", Fraction(1, 2), Fraction(0)),
    "dp": partial(_counterexample_repro, "dp", Fraction(1), Fraction(1, 2)),
    "dd": partial(_counterexample_repro, "dd", Fraction(1, 2), Fraction(0)),
    "probchain": repro_probchain,
    "exceptions": repro_exceptions,
}
