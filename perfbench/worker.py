"""One workload run: a closed loop with a single client driving
``quantadist.cli.main`` in process.

Each request is sent only after the previous reply has been checked.
The worker reads a plan written by ``workloads.build_plan``, cycles
through its requests for a fixed number of seconds, and prints one JSON
object with its counts and metrics as the last line of its standard
output.  A calibration probe runs before every request, outside the
timed spans, and each request's times are scaled by the calibration
around it (see ``calibrate``); the unscaled figures go to standard
error.  With ``--trace 1`` the per-layer wrappers are
installed first and the per-layer metrics are reported instead of the
end-to-end ones.

    python3 perfbench/worker.py --plan PLAN.json --seconds 25 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent


def load_package():
    """Import ``quantadist.cli`` from this checkout's ``src`` only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from quantadist import cli

    where = Path(cli.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"quantadist was imported from {where}, not from {src}")
    return cli


def check(request: dict, code, stdout: str):
    """None when the reply is the expected one, else what is wrong."""
    if code != request["code"]:
        return f"exit code {code!r}, expected {request['code']}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "no JSON report on stdout"
    for key, want in request["expect"].items():
        if key not in report:
            return f"missing {key!r}"
        if report[key] != want:
            return f"{key} = {report[key]!r}, expected {want!r}"
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB.  Read from VmHWM,
    which starts afresh at exec: ``ru_maxrss`` would carry over the
    resident size of the process that started this one."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[rank - 1]


def run(cli, plan: dict, seconds: float, tracer=None):
    cycle = plan["cycle"]
    latencies = []   # (seconds inside main, or inf for a failure; scale)
    by_kind = defaultdict(list)
    failures = []
    probes = []
    busy = []        # loop time of each request outside the probes
    attempted = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        probes.append(calibrate.probe())
        request = cycle[attempted % len(cycle)]
        attempted += 1
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_request(attempted, request["kind"])
        problem = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(request["argv"]))
        except (Exception, SystemExit) as exc:
            code = None
            problem = f"exception escaped main: {exc!r}"
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_request(t1 - t0)
        problem = problem or check(request, code, out.getvalue())
        busy.append(perf_counter() - t0)
        if problem is None:
            latencies.append(t1 - t0)
            by_kind[request["kind"]].append(t1 - t0)
        else:
            latencies.append(math.inf)  # a failure misses every latency target
            failures.append((request["kind"], request["argv"], problem,
                             err.getvalue()[-500:]))
    return {"attempted": attempted, "failures": failures, "latencies": latencies,
            "by_kind": by_kind, "busy": busy, "scales": calibrate.scales(probes)}


def end_to_end(result, scaled: bool = True) -> dict:
    """The end-to-end metrics; with ``scaled``, every request's times are
    multiplied by the calibration scale around it."""
    scales = result["scales"] if scaled else [1.0] * len(result["busy"])
    lat = sorted(v * s for v, s in zip(result["latencies"], scales))
    completed = result["attempted"] - len(result["failures"])

    def ms(v):
        return v * 1e3 if math.isfinite(v) else 1e12

    return {
        "throughput_rps": completed / sum(b * s for b, s in zip(result["busy"], scales)),
        "latency_p50_ms": ms(percentile(lat, 0.5)),
        "latency_p90_ms": ms(percentile(lat, 0.9)),
        "peak_rss_mb": peak_rss_mb(),
    }


def mean_scale(result) -> float:
    """The run's calibration scale, weighted by loop time."""
    return sum(b * s for b, s in zip(result["busy"], result["scales"])) / sum(result["busy"])


def summary(result, workload: str) -> str:
    n = len(result["latencies"])
    beyond = n - max(1, math.ceil(0.9 * n))
    raw = end_to_end(result, scaled=False)
    lines = [f"{workload}: {result['attempted']} requests, "
             f"{len(result['failures'])} failed, {n} latency samples, "
             f"{beyond} beyond p90, calibration factor {mean_scale(result):.3f}",
             "  unscaled: " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items())]
    if beyond < 10:
        lines.append(f"warning: only {beyond} samples beyond p90 (want at least 10)")
    for kind, values in sorted(result["by_kind"].items()):
        values = sorted(values)
        lines.append(f"  {kind:22s} n={len(values):4d}  median "
                     f"{percentile(values, 0.5) * 1e3:9.2f} ms (unscaled)")
    for kind, argv, problem, err in result["failures"][:5]:
        lines.append(f"  FAILED {kind}: {problem}  argv={argv}  stderr={err!r}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="traced run: where to write sample spans")
    args = parser.parse_args(argv)

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    cli = load_package()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = run(cli, plan, args.seconds, tracer)
    print(summary(result, plan["workload"]), file=sys.stderr)
    completed = result["attempted"] - len(result["failures"])
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics(completed, sum(result["busy"]), mean_scale(result))
        for sample in list(tracer.samples.values())[:3]:
            print(f"  sample {sample['kind']}: latency {sample['latency_ms']:.3f} ms, "
                  f"sum of self times {sample['self_ms_sum']:.3f} ms (unscaled)",
                  file=sys.stderr)
        if args.spans:
            tracer.write_samples(args.spans)
    else:
        metrics = end_to_end(result)
    print(json.dumps({"attempted": result["attempted"],
                      "failed": len(result["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
