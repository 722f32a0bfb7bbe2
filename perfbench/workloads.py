"""Seeded request streams for the four benchmark workloads, with the
expected answer of every request.

Nothing here imports ``quantadist``: model and certificate files are
written as plain JSON, and every expected value comes from a small
reference computed on the benchmark side (set-pair exploration for the
exception family, distribution stepping for machines, Floyd-Warshall
plus an integer min-cost flow for transport, the published verdicts for
the law suites and reproductions).

A workload is a repeating cycle of requests.  Each cycle unit
interleaves cost classes in fixed proportions, chosen so that the
median and the 90th percentile of a run each fall well inside one
class; the seed only permutes variants and draws values, so every seed
sees the same mix of work.  No single request may take more than a few
percent of a run: a run lasts a fixed time, so a heavy request would
make the mix a run completes depend on the machine's speed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("fixpoint", "bracket", "transport", "laws")

# Query pairs whose determinized carrier is that of the published pair
# ({x0,y0}, {z0}) at every size n, so that a size class costs the same
# whichever pair the seed picks.
EXCEPTION_PAIRS = [
    (("x0", "y0"), ("z0",)), (("z0",), ("x0", "y0")),
    (("x0", "z0"), ("z0",)), (("z0",), ("x0", "z0")),
    (("y0", "z0"), ("z0",)), (("z0",), ("y0", "z0")),
    (("x0", "y0", "z0"), ("z0",)), (("z0",), ("x0", "y0", "z0")),
]
FAMILIES = ("x", "y", "z")
LABELS = ("a", "b")


def interleave(counts: Dict[str, int]) -> List[str]:
    """One cycle unit: each class spread evenly over the unit."""
    slots = []
    for order, (cls, k) in enumerate(counts.items()):
        slots.extend(((i + 0.5) / k, order, cls) for i in range(k))
    return [cls for _pos, _order, cls in sorted(slots)]


def _set_literal(members: Sequence[str]) -> str:
    return "{" + ",".join(members) + "}"


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# -- exception family -------------------------------------------------------------

def exception_transitions(n: int, values: Sequence[Fraction]):
    """The scaled exception family: per state either ("throw", value) or
    ("step", {label: successor list})."""
    first = {"x": {"a": ["x0", "x1"], "b": ["x0"]},
             "y": {"a": ["y0"], "b": ["y0", "y1"]},
             "z": {"a": ["z0", "z1"], "b": ["z0", "z1"]}}
    trans = {}
    for fam, value in zip(FAMILIES, values):
        for i in range(n):
            succ = first[fam] if i == 0 else {lab: [f"{fam}{i + 1}"] for lab in LABELS}
            trans[f"{fam}{i}"] = ("step", succ)
        trans[f"{fam}{n}"] = ("throw", value)
    return trans


def exception_model_doc(n: int, values: Sequence[Fraction]) -> dict:
    trans = {}
    for state, (kind, body) in exception_transitions(n, values).items():
        if kind == "throw":
            trans[state] = {"inl": {"const": str(body)}}
        else:
            trans[state] = {"inr": {"pow": {lab: {"id": {"set": body[lab]}}
                                            for lab in LABELS}}}
    return {
        "kind": "coalgebra", "quantale": "unit-oplus", "monad": "powerset",
        "functor": {"coprod": [{"const": "value"},
                               {"pow": {"labels": list(LABELS), "body": "id"}}]},
        "labels": list(LABELS),
        "states": [f"{fam}{i}" for fam in FAMILIES for i in range(n + 1)],
        "transitions": trans,
    }


def exception_distance(trans, lhs: Sequence[str], rhs: Sequence[str],
                       max_words: Optional[int] = None) -> Fraction:
    """Trace distance of two state sets of an exception system.

    Along a word both sets move by union of successors until some
    member throws; the thrown value of a set is the largest value among
    its throwing members.  A word scores max(v_rhs - v_lhs, 0) when both
    sides throw at the same step, 1 when only the right side throws, 0
    otherwise.  The distance is the largest score over all words
    (``max_words`` None) or over words shorter than ``max_words``.
    Set pairs are explored breadth first, so unbounded words terminate.
    """
    def thrown(states):
        vals = [trans[s][1] for s in states if trans[s][0] == "throw"]
        return max(vals) if vals else None

    def step(states, lab):
        return frozenset(t for s in states for t in trans[s][1][lab])

    best = Fraction(0)
    level = {(frozenset(lhs), frozenset(rhs))}
    seen = set(level)
    depth = 0
    while level and (max_words is None or depth < max_words):
        nxt = set()
        for left, right in level:
            v1, v2 = thrown(left), thrown(right)
            if v1 is not None and v2 is not None:
                best = max(best, v2 - v1)
            elif v2 is not None:
                best = max(best, Fraction(1))
            elif v1 is None:
                for lab in LABELS:
                    pair = (step(left, lab), step(right, lab))
                    if max_words is not None or pair not in seen:
                        seen.add(pair)
                        nxt.add(pair)
        level = nxt
        depth += 1
    return best


def exception_certificate_doc(n: int, values: Sequence[Fraction]) -> dict:
    """A sparse up-to certificate bracketing ({x0,y0},{z0}) from above:
    2n+1 support pairs and the two union witnesses of the fixture."""
    vx, vy, vz = values
    cx, cy = max(vz - vx, Fraction(0)), max(vz - vy, Fraction(0))
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


# -- probabilistic machines ---------------------------------------------------------

def machine_params(rng: random.Random):
    """A probchain-style machine: x leaks to the absorbing x' with
    probability 1 - r; y stays put."""
    r = Fraction(rng.randint(1, 7), 8)
    outs = {s: Fraction(rng.randint(0, 8), 8) for s in ("x", "x'", "y")}
    steps = {"x": {"x": r, "x'": 1 - r}, "x'": {"x'": Fraction(1)},
             "y": {"y": Fraction(1)}}
    return outs, steps


def machine_model_doc(outs, steps) -> dict:
    return {
        "kind": "coalgebra", "quantale": "unit-oplus", "monad": "subdist",
        "functor": {"prod": [{"const": "value"},
                             {"pow": {"labels": ["a"], "body": "id"}}]},
        "labels": ["a"], "states": list(outs),
        "transitions": {
            s: {"tuple": [{"const": str(outs[s])},
                          {"pow": {"a": {"id": {"dist": {t: str(w) for t, w
                                                          in steps[s].items() if w}}}}}]}
            for s in outs},
    }


def machine_trace(outs, steps, p: Dict[str, Fraction], q: Dict[str, Fraction],
                  max_words: int) -> Fraction:
    """max over word lengths k < max_words of max(out_k(q) - out_k(p), 0)."""
    def out(mu):
        return sum((w * outs[s] for s, w in mu.items()), Fraction(0))

    def step(mu):
        nxt: Dict[str, Fraction] = {}
        for s, w in mu.items():
            for t, v in steps[s].items():
                nxt[t] = nxt.get(t, Fraction(0)) + w * v
        return nxt

    best = Fraction(0)
    for _ in range(max_words):
        best = max(best, out(q) - out(p))
        p, q = step(p), step(q)
    return best


MACHINE_PAIRS = [
    ({"y": 1}, {"x": 1}), ({"x": 1}, {"x'": 1}), ({"y": 1}, {"x'": 1}),
    ({"x'": 1}, {"x": 1}), ({"y": Fraction(1, 2), "x": Fraction(1, 2)}, {"x'": 1}),
    ({"y": 1}, {"x": Fraction(1, 2), "x'": Fraction(1, 2)}),
]


def _dist_literal(mu) -> str:
    return ",".join(f"{s}:{Fraction(w)}" for s, w in mu.items())


# -- transport --------------------------------------------------------------------------

def transport_graph(rng: random.Random, n: int):
    """A strongly connected ext-plus graph (ring plus random chords) with
    integer weights, and four full-support rational distributions."""
    els = [f"v{i}" for i in range(n)]
    w = [[0 if i == j else None for j in range(n)] for i in range(n)]
    for i in range(n):
        w[i][(i + 1) % n] = rng.randint(1, 20)
        for j in range(n):
            if w[i][j] is None and rng.random() < 0.3:
                w[i][j] = rng.randint(1, 20)
    dists = []
    for _ in range(4):
        raw = [rng.randint(1, 9) for _ in range(n)]
        total = sum(raw)
        dists.append([Fraction(x, total) for x in raw])
    return els, w, dists


def transport_model_doc(els, w, dists) -> dict:
    return {
        "kind": "vgraph", "quantale": "ext-plus", "elements": els,
        "dist": [["inf" if v is None else str(v) for v in row] for row in w],
        "distributions": {f"P{k}": {e: str(x) for e, x in zip(els, d)}
                          for k, d in enumerate(dists)},
    }


def floyd_warshall(w) -> List[List[Optional[int]]]:
    n = len(w)
    d = [row[:] for row in w]
    for k in range(n):
        for i in range(n):
            if d[i][k] is None:
                continue
            for j in range(n):
                if d[k][j] is not None and (d[i][j] is None or d[i][k] + d[k][j] < d[i][j]):
                    d[i][j] = d[i][k] + d[k][j]
    return d


def transport_cost(closure, p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    """Optimal transport of p onto q over the closure, as an integer
    min-cost flow after scaling the masses to integers."""
    import networkx as nx

    scale = lcm(*(x.denominator for x in list(p) + list(q)))
    g = nx.DiGraph()
    n = len(p)
    for i in range(n):
        g.add_node(("s", i), demand=-int(p[i] * scale))
        g.add_node(("t", i), demand=int(q[i] * scale))
    for i in range(n):
        for j in range(n):
            g.add_edge(("s", i), ("t", j), weight=closure[i][j])
    cost, _flow = nx.network_simplex(g)
    return Fraction(cost, scale)


def hausdorff(closure, left: Sequence[int], right: Sequence[int]) -> Fraction:
    return Fraction(max(min(closure[u][v] for u in left) for v in right))


# -- request plans --------------------------------------------------------------------------

def _request(kind: str, argv: List[str], expect: dict, code: int = 0) -> dict:
    return {"kind": kind, "argv": argv + ["--json"], "code": code, "expect": expect}


class _Plan:
    """Builds request files in a work directory."""

    def __init__(self, workload: str, seed: int, work: Path, root: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.work = work
        self.root = root
        self.count = 0
        self.rotations: Dict[str, List] = {}

    def file(self, stem: str, doc) -> str:
        self.count += 1
        return _write_json(self.work / f"{self.count:04d}-{stem}.json", doc)

    def rotate(self, key: str, variants: Sequence):
        """Cycle through a seed-permuted copy of the variants."""
        queue = self.rotations.get(key)
        if not queue:
            queue = list(variants)
            self.rng.shuffle(queue)
            self.rotations[key] = queue
        return queue.pop()

    def values(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(self.rng.randint(0, 12), 12) for _ in FAMILIES)

    # fixpoint / bracket

    def kleene(self, n: int) -> dict:
        values = self.values()
        lhs, rhs = self.rotate(f"pair{n}", EXCEPTION_PAIRS)
        path = self.file(f"exc{n}", exception_model_doc(n, values))
        expected = exception_distance(exception_transitions(n, values), lhs, rhs)
        return _request(f"kleene-n{n}", [
            "distance", "--model", path, "--pair",
            f"{_set_literal(lhs)}|{_set_literal(rhs)}", "--method", "kleene"],
            {"value": str(expected), "soundness": "exact"})

    def exception_trace(self, n: int) -> dict:
        values = self.values()
        lhs, rhs = self.rotate(f"tpair{n}", EXCEPTION_PAIRS)
        words = n + 2
        path = self.file(f"exc{n}", exception_model_doc(n, values))
        expected = exception_distance(exception_transitions(n, values), lhs, rhs, words)
        return _request(f"trace-n{n}", [
            "distance", "--model", path, "--pair",
            f"{_set_literal(lhs)}|{_set_literal(rhs)}", "--method", "trace",
            "--max-words", str(words)], {"value": str(expected)})

    def machine_trace(self) -> dict:
        outs, steps = machine_params(self.rng)
        p, q = self.rotate("mpair", MACHINE_PAIRS)
        words = self.rng.randint(5, 40)
        path = self.file("machine", machine_model_doc(outs, steps))
        p = {s: Fraction(w) for s, w in p.items()}
        q = {s: Fraction(w) for s, w in q.items()}
        expected = machine_trace(outs, steps, p, q, words)
        return _request("trace-machine", [
            "distance", "--model", path, "--pair",
            f"{_dist_literal(p)}|{_dist_literal(q)}", "--method", "trace",
            "--max-words", str(words)], {"value": str(expected)})

    def certify(self, n: int) -> dict:
        values = self.values()
        model = self.file(f"exc{n}", exception_model_doc(n, values))
        cert = self.file(f"cert{n}", exception_certificate_doc(n, values))
        return _request(f"certify-n{n}", ["certify", "--model", model, "--cert", cert],
                        {"accepted": True, "support_pairs": 2 * n + 1})

    def certify_probchain(self) -> dict:
        fixtures = self.root / "src" / "quantadist" / "fixtures"
        return _request("certify-probchain", [
            "certify", "--model", str(fixtures / "probchain.json"),
            "--cert", str(fixtures / "probchain_cert.json")],
            {"accepted": True, "support_pairs": 4})

    # transport

    def transport(self, method: str, n: int) -> dict:
        els, w, dists = transport_graph(self.rng, n)
        path = self.file(f"graph{n}", transport_model_doc(els, w, dists))
        closure = floyd_warshall(w)
        if method == "lp":
            i, j = self.rng.sample(range(len(dists)), 2)
            pair = f"P{i}|P{j}"
            expected = transport_cost(closure, dists[i], dists[j])
        else:
            left = sorted(self.rng.sample(range(n), self.rng.randint(1, n // 2)))
            right = sorted(self.rng.sample(range(n), self.rng.randint(1, n // 2)))
            pair = (f"{_set_literal([els[u] for u in left])}|"
                    f"{_set_literal([els[v] for v in right])}")
            expected = hausdorff(closure, left, right)
        return _request(f"{method}-n{n}", [
            "distance", "--model", path, "--pair", pair, "--method", method],
            {"value": str(expected), "soundness": "exact"})

    # laws

    def repro(self, example: str = "") -> dict:
        example = example or self.rotate("repro", ["transport", "pp", "pd", "dp", "dd",
                                                   "probchain"])
        return _request(f"repro-{example}", ["repro", example], {"matches": True})

    def laws(self, scope: str, *extra: str) -> dict:
        return _request(f"laws-{scope}", ["laws", "--scope", scope, *extra],
                        {"all_passed": True})

    def distlaw(self) -> dict:
        """The distlaw suite or its mutant, with a suite seed from a fixed
        pool: the suite's cost depends on its seed, and every benchmark
        seed should get the same mix of costs."""
        mutant, seed = self.rotate("distlaw", [(m, str(7919 * k))
                                               for m in (False, True) for k in range(4)])
        if mutant:
            return _request("laws-distlaw-mutant",
                            ["laws", "--scope", "distlaw", "--mutant-g", "--seed", seed],
                            {"all_passed": False}, code=1)
        return self.laws("distlaw", "--seed", seed)


def _spec(workload: str, plan: _Plan):
    """(class counts per cycle unit, class builders, units per cycle).

    A cycle holds about as many requests as a run completes, so a run
    rarely repeats an input; transport needs the most because simplex
    cost varies widely between random instances of one size."""
    if workload == "fixpoint":
        counts = {"n3": 7, "n4": 8, "n5": 5}
        build = {"n3": lambda: plan.kleene(3), "n4": lambda: plan.kleene(4),
                 "n5": lambda: plan.kleene(5)}
        units = 10
    elif workload == "bracket":
        counts = {"probchain": 2, "machine": 2, "trace-small": 4,
                  "certify-mid": 5, "trace-mid": 3, "certify-large": 4}
        build = {"probchain": plan.certify_probchain,
                 "machine": plan.machine_trace,
                 "trace-small": lambda: plan.exception_trace(plan.rotate("tn", [4, 5])),
                 "certify-mid": lambda: plan.certify(100),
                 "trace-mid": lambda: plan.exception_trace(7),
                 "certify-large": lambda: plan.certify(300)}
        units = 10
    elif workload == "transport":
        counts = {"h8": 3, "h10": 3, "lp6": 10, "lp8": 4}
        build = {"h8": lambda: plan.transport("hausdorff", 8),
                 "h10": lambda: plan.transport("hausdorff", 10),
                 "lp6": lambda: plan.transport("lp", 6),
                 "lp8": lambda: plan.transport("lp", 8)}
        units = 60
    elif workload == "laws":
        counts = {"repro": 16, "exceptions": 16, "polyfunctor": 7, "distlaw": 1}
        build = {"repro": plan.repro,
                 "exceptions": lambda: plan.repro("exceptions"),
                 "polyfunctor": lambda: plan.laws("polyfunctor"),
                 "distlaw": plan.distlaw}
        units = 14
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return counts, build, units


def build_plan(workload: str, seed: int, work: Path, root: Path) -> dict:
    """Write the workload's input files under ``work`` and return its plan,
    the request cycle."""
    plan = _Plan(workload, seed, work, root)
    counts, build, units = _spec(workload, plan)
    unit = interleave(counts)
    return {"workload": workload, "seed": seed,
            "cycle": [build[cls]() for _ in range(units) for cls in unit]}
