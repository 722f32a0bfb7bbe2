"""Command line front end.

A thin shell over the library: model and certificate loading, distance
computation (fixpoint iteration, trace bounds, optimal transport,
directed Hausdorff), certificate checking, the law suites, and the
bundled reproductions.  Exit codes: 0 success/accepted, 1
rejected/mismatch/law failure, 2 usage or parse error, 3 budget
refusal.  JSON reports are deterministic (sorted keys, no timing).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import List, Optional

from .behaviour import CoalgebraModel, certify, pair_gfp, trace_lower_bound
from .canon import canon_key
from .distlaw import (ALWAYS_LEFT, DistLaw, StateBudgetError, case_study_laws,
                      law_suite)
from .galois import BudgetError
from .models import (DistanceInstance, certificate_from_json, check_members,
                     load_json_file, model_from_json)
from .monadlift import (POWERSET, SUBDIST, FinSubset, SubDist, finsubset,
                        hausdorff_directed, kantorovich_lp, subdist, weight_from_json)
from .quantale import QuantaleError
from .repro import REPRODUCTIONS
from .suites import galois_suite, extension_suite, polyfunctor_suite, quantale_suite

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _CliError(Exception):
    """A usage error: the command line names no valid input (exit 2)."""


def _parse_set_literal(text: str):
    if not (text.startswith("{") and text.endswith("}")):
        raise _CliError(f"expected a set literal like '{{x0,y0}}', got {text!r}")
    inner = text[1:-1].strip()
    members = [m.strip() for m in inner.split(",") if m.strip()] if inner else []
    return finsubset(members)


def _parse_tvalue(text: str, instance):
    text = text.strip()
    if isinstance(instance, DistanceInstance):
        if text.startswith("{"):
            return _parse_set_literal(text)
        if text in instance.distributions:
            return instance.distributions[text]
        return _parse_dist_literal(text)
    if instance.monad is POWERSET:
        return _parse_set_literal(text)
    if text.startswith("{"):
        raise _CliError(f"a {instance.monad.name} model compares distributions "
                        f"like 'x:1/2,y:1/2', got {text!r}")
    return _parse_dist_literal(text)


def _parse_dist_literal(text: str):
    """A distribution literal 'x:1/2,y:1/2'; ``subdist`` adds up the
    weights of a repeated name."""
    weights = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise _CliError(f"expected 'state:weight' entries, got {chunk!r}")
        name, w = chunk.rsplit(":", 1)
        weights.append((name.strip(), weight_from_json(w.strip())))
    return subdist(weights)


def _parse_pair(text: str, instance):
    if text.count("|") != 1:  # no name holds a '|' (``models._reserved``)
        raise _CliError("a pair looks like 'lhs|rhs'")
    left, right = text.split("|")
    pair = _parse_tvalue(left, instance), _parse_tvalue(right, instance)
    for t in pair:
        if isinstance(instance, CoalgebraModel):
            check_members(instance.monad, t, instance.states)
        else:
            check_members(POWERSET if isinstance(t, FinSubset) else SUBDIST, t,
                          instance.graph.carrier, "an element")
    return pair


def _count(text: str) -> int:
    """The argparse type of a budget: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def _emit(report: dict, as_json: bool, lines: List[str]):
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _cmd_distance(args) -> int:
    instance = model_from_json(load_json_file(args.model))
    pair = _parse_pair(args.pair, instance)
    report = {"command": "distance", "model": args.model, "method": args.method,
              "pair": [canon_key(pair[0]), canon_key(pair[1])]}
    lines = []
    if args.method in ("lp", "hausdorff"):
        if not isinstance(instance, DistanceInstance):
            raise _CliError(f"method {args.method!r} needs a distance-matrix model")
        kind, name = (SubDist, "distributions") if args.method == "lp" \
            else (FinSubset, "sets")
        if not all(isinstance(t, kind) for t in pair):
            raise _CliError(f"method {args.method!r} compares two {name}")
        if args.method == "lp":
            value = kantorovich_lp(instance.graph, pair[0], pair[1])
        else:
            value = hausdorff_directed(instance.graph, pair[0], pair[1])
        q = instance.graph.quantale
        report.update(value=q.value_to_json(value), soundness="exact")
    elif args.method == "kleene":
        if not isinstance(instance, CoalgebraModel):
            raise _CliError("method 'kleene' needs a coalgebra model")
        det = instance.det(max_states=args.max_states)
        result = pair_gfp(det, det.state(pair[0]), det.state(pair[1]),
                          max_iters=args.max_iters)
        q = instance.quantale
        report.update(value=q.value_to_json(result.value),
                      soundness="exact" if result.converged
                      else "lower bound (numeric)",
                      iterations=result.iterations,
                      carrier_size=result.states,
                      pairs=result.pairs)
        lines.append(f"carrier: {result.states} determinized states, "
                     f"{result.pairs} pairs, {result.iterations} iterations"
                     + ("" if result.converged else " (not stabilized)"))
    elif args.method == "trace":
        if not isinstance(instance, CoalgebraModel):
            raise _CliError("method 'trace' needs a coalgebra model")
        state = instance.det().state
        value = trace_lower_bound(instance, state(pair[0]), state(pair[1]),
                                  args.max_words, max_states=args.max_states)
        q = instance.quantale
        report.update(value=q.value_to_json(value),
                      soundness="lower bound (numeric)",
                      max_words=args.max_words)
    else:
        raise _CliError(f"unknown method {args.method!r}")
    lines.insert(0, f"{report['value']}  [{report['soundness']}]")
    _emit(report, args.json, lines)
    return EXIT_OK


def _cmd_certify(args) -> int:
    instance = model_from_json(load_json_file(args.model))
    if not isinstance(instance, CoalgebraModel):
        raise _CliError("certification needs a coalgebra model")
    cert = certificate_from_json(load_json_file(args.cert), instance)
    verdict = certify(cert, instance)
    report = {
        "command": "certify", "model": args.model, "certificate": args.cert,
        "accepted": verdict.accepted, "support_pairs": verdict.checked,
        "failures": [
            {"lhs": canon_key(l), "rhs": canon_key(r), "reason": why}
            for l, r, why in verdict.failures],
    }
    _emit(report, args.json, [verdict.reason()])
    return EXIT_OK if verdict.accepted else EXIT_MISMATCH


def _cmd_laws(args) -> int:
    if args.scope == "quantale":
        results = quantale_suite(grid=args.grid)
    elif args.scope == "galois":
        results = galois_suite() + extension_suite()
    elif args.scope == "polyfunctor":
        results = polyfunctor_suite()
    elif args.scope == "distlaw":
        results = []
        for _name, law in sorted(case_study_laws().items()):
            if args.mutant_g:
                law = DistLaw(law.functor, law.monad, law.quantale,
                              g_variant=ALWAYS_LEFT)
            results.extend(law_suite(law, seed=args.seed))
    else:
        raise _CliError(f"unknown law scope {args.scope!r}")
    report = {
        "command": "laws", "scope": args.scope,
        "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(report, args.json, [r.line() for r in results])
    return EXIT_OK if report["all_passed"] else EXIT_MISMATCH


def _cmd_repro(args) -> int:
    result = REPRODUCTIONS[args.example]()
    report = {
        "command": "repro", "example": args.example,
        "rows": [{"label": r.label, "computed": r.computed,
                  "expected": r.expected, "ok": r.ok} for r in result.rows],
        "matches": result.matches,
    }
    lines = [f"{'ok ' if r.ok else 'BAD'} {r.label}: {r.computed}"
             + ("" if r.ok else f" (expected {r.expected})") for r in result.rows]
    lines.append("all values reproduced" if result.matches
                 else "MISMATCH against the published values")
    _emit(report, args.json, lines)
    return EXIT_OK if result.matches else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantadist",
        description="Exact quantale-valued behavioural distances and "
                    "up-to certificate checking.")
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("distance", help="compute a distance or bound")
    dist.add_argument("--model", required=True)
    dist.add_argument("--pair", required=True,
                      help="'lhs|rhs'; sets as {x0,y0}, distributions as "
                           "x:1/2,y:1/2, or names from the model file")
    dist.add_argument("--method", required=True,
                      choices=["kleene", "trace", "lp", "hausdorff"])
    dist.add_argument("--max-words", type=_count, default=10,
                      help="trace: the bound after this many Kleene iterates, "
                           "which reads words of length strictly below it")
    dist.add_argument("--max-iters", type=_count, default=1000)
    dist.add_argument("--max-states", type=_count, default=10_000,
                      help="kleene and trace: refuse (exit 3) beyond this "
                           "many determinized states")
    dist.add_argument("--json", action="store_true")
    dist.set_defaults(func=_cmd_distance)

    cert = sub.add_parser("certify", help="check an up-to certificate")
    cert.add_argument("--model", required=True)
    cert.add_argument("--cert", required=True)
    cert.add_argument("--json", action="store_true")
    cert.set_defaults(func=_cmd_certify)

    laws = sub.add_parser("laws", help="run a property suite")
    laws.add_argument("--scope", required=True,
                      choices=["quantale", "galois", "polyfunctor", "distlaw"])
    laws.add_argument("--grid", type=int, default=8)
    laws.add_argument("--seed", type=int, default=0)
    laws.add_argument("--mutant-g", action="store_true",
                      help="distlaw: inject the no-priority mutant prioritizer")
    laws.add_argument("--json", action="store_true")
    laws.set_defaults(func=_cmd_laws)

    rep = sub.add_parser("repro", help="recompute a bundled example")
    rep.add_argument("example", choices=sorted(REPRODUCTIONS))
    rep.add_argument("--json", action="store_true")
    rep.set_defaults(func=_cmd_repro)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call of ``main``
    (parsing keeps no state in it)."""
    return build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    started = time.monotonic()
    try:
        code = args.func(args)
    except (BudgetError, StateBudgetError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (_CliError, QuantaleError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"elapsed: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
