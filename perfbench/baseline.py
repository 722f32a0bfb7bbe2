"""Repeat benchmark runs over several seeds and summarise them.

    python3 perfbench/baseline.py --seeds 1-10 --trace-seed 1 --repeat 2 \
        --out perfbench/baseline.json
    python3 perfbench/baseline.py --workloads laws --seeds 1-5

For every workload, one untraced run per seed gives each end-to-end
metric's median and quartile spread (the distance between the first
and third quartile as a share of the median, from
``statistics.quantiles(values, n=4)``).  With ``--repeat N`` the whole
set of runs is made N times, one set after the other; the sets after
the first go under ``repeat_sets``, each metric with its median's shift
from the first set's (positive is worse).  With ``--trace-seed`` one
traced run per workload adds the per-layer breakdown and the tracing
overhead (untraced median throughput over traced throughput, minus
one).  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import MOVES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=seconds + 300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    found = re.search(r"calibration factor ([0-9.]+)", proc.stderr)
    result["calibration_factor"] = float(found.group(1)) if found else None
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def hardware() -> str:
    model = "unknown CPU"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} logical CPUs, Python {platform.python_version()}"


def measure_set(workloads, seeds, seconds, metrics):
    """One untraced run per workload and seed: {workload: entry}."""
    entries = {}
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {"attempted": [r["attempted"] for r in runs],
                 "calibration_factor": [r["calibration_factor"] for r in runs],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs), "end_to_end": {}}
        for metric in metrics:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            s = entry["end_to_end"][name] = dict(spread(values), unit=metric["unit"],
                                                 bound=metric["bound"])
            print(f"{workload:10s} {name:16s} median {s['median']:10.4f} "
                  f"spread {s['spread']:.3f} (bound {metric['bound']})", flush=True)
        entries[workload] = entry
    return entries


def shift(first: dict, later: dict, better: str) -> float:
    """How much worse ``later``'s median is than ``first``'s, as a share."""
    change = later["median"] / first["median"] - 1
    return -change if better == "higher" else change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repeat benchmark runs over seeds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    report = {"hardware": hardware(), "run_seconds": seconds, "seeds": seeds,
              "command": bench["command"],
              "workloads": measure_set(workloads, seeds, seconds, bench["end_to_end"])}
    if args.trace_seed is not None:
        for workload in workloads:
            traced = run_once(workload, args.trace_seed, seconds, 1)
            layers = {m["name"]: traced["metrics"][m["name"]]["value"]
                      for m in bench["per_layer"]}
            entry = report["workloads"][workload]
            untraced = entry["end_to_end"]["throughput_rps"]["median"]
            entry["per_layer"] = {"seed": args.trace_seed, "metrics": layers,
                                  "tracing_overhead": untraced / layers["trace.throughput_rps"] - 1}
            print(f"{workload:10s} tracing overhead {entry['per_layer']['tracing_overhead']:.2f}",
                  flush=True)
    report["repeat_sets"] = []
    for _ in range(args.repeat - 1):
        later = measure_set(workloads, seeds, seconds, bench["end_to_end"])
        for workload, entry in later.items():
            for metric in bench["end_to_end"]:
                s = entry["end_to_end"][metric["name"]]
                s["median_shift"] = shift(
                    report["workloads"][workload]["end_to_end"][metric["name"]], s,
                    metric["better"])
                print(f"{workload:10s} {metric['name']:16s} median shift "
                      f"{s['median_shift']:+.3f} (bound {metric['bound']})", flush=True)
        report["repeat_sets"].append(later)
    report["per_layer_moves"] = dict(MOVES)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
