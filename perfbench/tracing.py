"""Per-layer tracing installed from outside the package.

Wrappers are placed around the public functions of each module.  A
wrapped function is replaced under every name that refers to it in any
``quantadist`` module (``cli`` binds ``kleene_gfp``, ``certify`` and
others by name), and methods are replaced on their classes.  Timed
wrappers open a span; a span's self time is its duration minus the
time its child spans cover, so the self times of one request add up to
the duration of its root span, ``cli.main``.  Operations cheaper than a
timing wrapper (quantale lattice operations, ``canon_key``,
``polynomial_distance``, ...) are only counted.

Spans of the first request of each kind are kept in memory with their
request id and parent span and written out when the run ends, with that
request's self time per layer; all other spans are folded into per-name
totals as they close.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List

# What each per-layer metric should move: an end-to-end metric on a
# workload.  Names, units and directions are declared in BENCHMARK.json.
MOVES = {
    "cli.self_ms":
        "latency_p50_ms on transport and bracket (argument parsing, report emission)",
    "models.load_json_file.self_ms":
        "throughput_rps and latency_p90_ms on bracket; flat elsewhere",
    "models.model_from_json.self_ms":
        "throughput_rps and latency_p90_ms on bracket; flat elsewhere",
    "models.certificate_from_json.self_ms": "throughput_rps and latency_p90_ms on bracket",
    "distlaw.successor.calls": "latency on fixpoint and bracket",
    "distlaw.states_determinized": "latency on fixpoint and bracket",
    "distlaw.memo_hit_ratio": "latency on fixpoint and bracket",
    "distlaw.successor.self_ms": "latency on fixpoint and bracket",
    "distlaw.law_suite.self_ms": "throughput_rps on laws",
    "behaviour.reachable_states.self_ms":
        "throughput_rps, latency_p90_ms and peak_rss_mb on fixpoint; no change on transport",
    "behaviour.kleene_gfp.self_ms":
        "throughput_rps, latency_p90_ms and peak_rss_mb on fixpoint; no change on transport",
    "behaviour.kleene.iterations": "throughput_rps and latency_p90_ms on fixpoint",
    "behaviour.kleene.carrier_states":
        "throughput_rps, latency_p90_ms and peak_rss_mb on fixpoint",
    "behaviour.beh_value.calls":
        "throughput_rps and latency_p90_ms on fixpoint; bracket through certify",
    "behaviour.kleene.useful_pair_ratio":
        "throughput_rps, latency_p90_ms and peak_rss_mb on fixpoint",
    "behaviour.certify.self_ms": "throughput_rps and latency on bracket",
    "behaviour.certify.support_pairs":
        "none (input size: certify must keep checking every support pair)",
    "behaviour.witness_bound.calls": "throughput_rps on bracket",
    "behaviour.trace_lower_bound.self_ms": "latency_p50_ms and throughput_rps on bracket",
    "behaviour.trace.words": "throughput_rps on bracket",
    "functor.polynomial_distance.calls": "throughput_rps on laws most, then fixpoint",
    "canon.canon_key.calls": "throughput_rps on laws most, then fixpoint",
    "quantale.validate.calls": "throughput_rps on laws most, then fixpoint",
    "quantale.tensor.calls": "throughput_rps on laws most, then fixpoint",
    "quantale.residuate.calls": "throughput_rps on laws most, then fixpoint",
    "quantale.join2.calls": "throughput_rps on laws most, then fixpoint",
    "quantale.meet2.calls": "throughput_rps on laws most, then fixpoint",
    "quantale.leq.calls": "throughput_rps on laws most, then fixpoint",
    "vgraph.metric_closure.calls":
        "latency_p50_ms on transport (Hausdorff requests are closure-bound), and laws",
    "vgraph.metric_closure.self_ms": "latency_p50_ms on transport, and throughput_rps on laws",
    "vgraph.carrier_index.calls": "latency_p50_ms on transport, and laws",
    "monadlift.pricing_lp.rows":
        "latency_p90_ms and throughput_rps on transport; no change on fixpoint or bracket",
    "monadlift.pricing_lp.self_ms":
        "latency_p90_ms and throughput_rps on transport; no change on fixpoint or bracket",
    "monadlift.kantorovich_lp.self_ms":
        "latency_p90_ms and throughput_rps on transport; no change on fixpoint or bracket",
    "monadlift.hausdorff_directed.self_ms": "latency_p50_ms on transport",
    "simplex.simplex_solve.calls":
        "latency_p90_ms and throughput_rps on transport; no change on fixpoint or bracket",
    "simplex.simplex_solve.self_ms":
        "latency_p90_ms and throughput_rps on transport; no change on fixpoint or bracket",
    "suites.polyfunctor_suite.self_ms":
        "latency_p50_ms, latency_p90_ms and throughput_rps on laws",
    "galois.gamma_enum.self_ms": "throughput_rps on laws",
    "suites.checks": "none (input size: the suites must keep running every check)",
    "trace.throughput_rps":
        "none (traced throughput; its ratio to the untraced throughput_rps is the "
        "tracing overhead)",
}

# Timed spans: (module, attribute) of a function, or (module, "Class.method").
TIMED = [
    ("quantadist.cli", "main", "cli"),
    ("quantadist.models", "load_json_file", "models.load_json_file"),
    ("quantadist.models", "model_from_json", "models.model_from_json"),
    ("quantadist.models", "certificate_from_json", "models.certificate_from_json"),
    ("quantadist.distlaw", "DetCoalgebra.successor", "distlaw.successor"),
    ("quantadist.distlaw", "law_suite", "distlaw.law_suite"),
    ("quantadist.behaviour", "reachable_states", "behaviour.reachable_states"),
    ("quantadist.behaviour", "kleene_gfp", "behaviour.kleene_gfp"),
    ("quantadist.behaviour", "certify", "behaviour.certify"),
    ("quantadist.behaviour", "trace_lower_bound", "behaviour.trace_lower_bound"),
    ("quantadist.vgraph", "metric_closure", "vgraph.metric_closure"),
    ("quantadist.monadlift", "pricing_lp", "monadlift.pricing_lp"),
    ("quantadist.monadlift", "kantorovich_lp", "monadlift.kantorovich_lp"),
    ("quantadist.monadlift", "hausdorff_directed", "monadlift.hausdorff_directed"),
    ("quantadist.simplex", "simplex_solve", "simplex.simplex_solve"),
    ("quantadist.suites", "polyfunctor_suite", "suites.polyfunctor_suite"),
    ("quantadist.galois", "gamma_enum", "galois.gamma_enum"),
]

COUNTED = [
    ("quantadist.behaviour", "beh_value", "behaviour.beh_value"),
    ("quantadist.behaviour", "witness_bound", "behaviour.witness_bound"),
    ("quantadist.functor", "polynomial_distance", "functor.polynomial_distance"),
    ("quantadist.canon", "canon_key", "canon.canon_key"),
    ("quantadist.vgraph", "Carrier.index", "vgraph.carrier_index"),
]

QUANTALE_OPS = ("validate", "tensor", "residuate", "join2", "meet2", "leq")

SAMPLE_SPAN_LIMIT = 20_000


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self.stack: List[list] = []       # open spans: [child seconds, span id]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.request_id = 0
        self.next_span = 0
        self.recording = False
        self.samples: Dict[str, dict] = {}
        self._sample: dict = {}           # the sample being recorded
        self._query = None                # (det, seeds) of the last reachable_states
        self.pending_queries: list = []
        self._restore: list = []

    # -- wrappers -------------------------------------------------------------------

    def timed(self, name: str, fn: Callable, pre=None, post=None) -> Callable:
        stack = self.stack
        self_s = self.self_s
        calls = name + ".calls"
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if pre is not None:
                pre(args)
            frame = [0.0, self.next_span]
            self.next_span += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if self.recording:
                    self._record(name, frame[1], stack[-1][1] if stack else None,
                                 start, end)
            if post is not None:
                post(result, args)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------------

    def install(self):
        import quantadist.cli  # noqa: F401  (the package imports every module)
        from quantadist import quantale

        hooks = self._hooks()
        for module, attr, name in TIMED:
            pre, post = hooks.get(name, (None, None))
            self._replace(module, attr, lambda fn, n=name, a=pre, b=post:
                          self.timed(n, fn, a, b))
        for module, attr, name in COUNTED:
            self._replace(module, attr, lambda fn, n=name: self.counted(n, fn))
        for cls in (quantale.Quantale, *_subclasses(quantale.Quantale)):
            for op in QUANTALE_OPS:
                if op in vars(cls):
                    self._set(cls, op, self.counted(f"quantale.{op}", vars(cls)[op]))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, module: str, attr: str, make: Callable):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(sys.modules[module], cls_name)
            self._set(cls, meth, make(vars(cls)[meth]))
            return
        original = getattr(sys.modules[module], attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "quantadist" or mod_name.startswith("quantadist."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _hooks(self):
        counts = self.counts

        def successor_pre(args):
            det, state = args
            if state not in det.memo:
                counts["distlaw.states_determinized"] += 1

        def reachable_pre(args):
            self._query = (args[0], list(args[1]))

        def kleene_post(result, args):
            counts["behaviour.kleene.runs"] += 1
            counts["behaviour.kleene.iterations"] += result.iterations
            counts["behaviour.kleene.carrier_states"] += len(result.states)
            counts["behaviour.kleene.pairs_evaluated"] += len(result.states) ** 2
            query = self._query
            if query is not None and query[0] is args[0] and len(query[1]) == 2:
                self.pending_queries.append(query)
            self._query = None

        def certify_post(verdict, _args):
            counts["behaviour.certify.support_pairs"] += verdict.checked

        def trace_pre(args):
            model, _p, _q, max_words = args
            labels = len(model.labels)
            counts["behaviour.trace.words"] += sum(labels ** k for k in range(max_words))

        def pricing_post(lp, _args):
            counts["monadlift.pricing_lp.rows"] += len(lp.constraints)

        def suite_post(rows, _args):
            counts["suites.checks"] += len(rows)

        suites = {name: (None, suite_post)
                  for name in ("suites.polyfunctor_suite", "distlaw.law_suite")}
        return {
            "distlaw.successor": (successor_pre, None),
            "behaviour.reachable_states": (reachable_pre, None),
            "behaviour.kleene_gfp": (None, kleene_post),
            "behaviour.certify": (None, certify_post),
            "behaviour.trace_lower_bound": (trace_pre, None),
            "monadlift.pricing_lp": (None, pricing_post),
            **suites,
        }

    # -- requests -----------------------------------------------------------------

    def begin_request(self, request_id: int, kind: str):
        self.request_id = request_id
        self.recording = kind not in self.samples
        if self.recording:
            self._sample = {"request": request_id, "kind": kind, "spans": [],
                            "truncated": False, "self_before": dict(self.self_s)}
            self.samples[kind] = self._sample

    def end_request(self, latency_s: float):
        """Close a request: count the pairs its Kleene queries could reach
        (outside any span) and finish its sample record."""
        for det, seeds in self.pending_queries:
            self.counts["behaviour.kleene.useful_pairs"] += reachable_pairs(det, *seeds)
        self.pending_queries.clear()
        if self.recording:
            before = self._sample.pop("self_before")
            by_layer = {name: (total - before.get(name, 0.0)) * 1e3
                        for name, total in self.self_s.items()
                        if total != before.get(name, 0.0)}
            self._sample.update(latency_ms=latency_s * 1e3, self_ms_by_layer=by_layer,
                                self_ms_sum=sum(by_layer.values()))
            self.recording = False

    def _record(self, name, span_id, parent, start, end):
        spans = self._sample["spans"]
        if len(spans) >= SAMPLE_SPAN_LIMIT:
            self._sample["truncated"] = True
            return
        spans.append({"request": self.request_id, "span": span_id, "parent": parent,
                      "name": name, "start": start, "end": end})

    # -- results ------------------------------------------------------------------

    def metrics(self, completed: int, busy_s: float, scale: float) -> Dict[str, float]:
        """Per-layer metrics; times are multiplied by ``scale``."""
        per = max(completed, 1)
        c = self.counts
        values: Dict[str, float] = {}
        for name in MOVES:
            if name.endswith(".self_ms"):
                values[name] = self.self_s.get(name[:-len(".self_ms")], 0.0) * scale * 1e3 / per
            elif name.endswith(".calls"):
                values[name] = c[name] / per
        successor_calls = c["distlaw.successor.calls"]
        values["distlaw.states_determinized"] = c["distlaw.states_determinized"] / per
        values["distlaw.memo_hit_ratio"] = (
            1 - c["distlaw.states_determinized"] / successor_calls if successor_calls else 0.0)
        runs = c["behaviour.kleene.runs"]
        values["behaviour.kleene.iterations"] = c["behaviour.kleene.iterations"] / runs if runs else 0.0
        values["behaviour.kleene.carrier_states"] = (
            c["behaviour.kleene.carrier_states"] / runs if runs else 0.0)
        evaluated = c["behaviour.kleene.pairs_evaluated"]
        values["behaviour.kleene.useful_pair_ratio"] = (
            c["behaviour.kleene.useful_pairs"] / evaluated if evaluated else 0.0)
        for name in ("behaviour.certify.support_pairs", "behaviour.trace.words",
                     "monadlift.pricing_lp.rows", "suites.checks"):
            values[name] = c[name] / per
        values["trace.throughput_rps"] = completed / (busy_s * scale) if busy_s > 0 else 0.0
        return values

    def write_samples(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(list(self.samples.values()), handle)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def reachable_pairs(det, left, right) -> int:
    """Pairs reachable from (left, right) in the synchronized product of
    the determinized system: successor pairs at the same position of
    both one-step terms.  Reads the memo only, so it adds no calls."""
    from quantadist.functor import IdLeaf, Inl, Inr, Tup

    def successors(s, t):
        if isinstance(s, Tup) and isinstance(t, Tup):
            for a, b in zip(s.items, t.items):
                yield from successors(a, b)
        elif (isinstance(s, Inl) and isinstance(t, Inl)) or \
                (isinstance(s, Inr) and isinstance(t, Inr)):
            yield from successors(s.item, t.item)
        elif isinstance(s, IdLeaf) and isinstance(t, IdLeaf):
            yield s.payload, t.payload

    seen = {(left, right)}
    queue = [(left, right)]
    while queue:
        p, q = queue.pop()
        for pair in successors(det.memo[p], det.memo[q]):
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return len(seen)
