"""The quantadist benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fixpoint --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run generates the workload's
inputs from the seed into ``.perfbench_work/`` (removed afterwards),
measures set-up time as the median time a fresh interpreter takes to
import ``quantadist.cli``, then starts a fresh single-threaded worker
process that drives the command line in process as a closed loop and
checks every reply.  Reported times are scaled to a reference machine
speed by calibration probes run during the measurement (see
``calibrate``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (where sample spans are also written to
``.perfbench_work/spans-<workload>-<seed>.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import WORKLOADS, build_plan  # noqa: E402

SETUP_SAMPLES = 9



def declared_units(kind: str) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares under ``kind``
    (``end_to_end`` or ``per_layer``)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in bench[kind]}


def measure_setup(src: Path) -> float:
    """Median time a fresh interpreter takes to import quantadist.cli,
    after one untimed import that leaves the bytecode cache warm.  Each
    import is scaled by the calibration probes run just before and
    after it."""
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, "-c", "import quantadist.cli"]
    subprocess.run(command, env=env, cwd=ROOT, check=True, timeout=60)

    def probes():
        return [calibrate.probe() for _ in range(10)]

    around = [probes()]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True, timeout=60)
        times.append(perf_counter() - t0)
        around.append(probes())
    return statistics.median(t * calibrate.factor(around[i] + around[i + 1])
                             for i, t in enumerate(times))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quantadist benchmark run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "quantadist" / "cli.py").is_file():
        print(f"error: no quantadist sources under {src}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = build_plan(args.workload, args.seed, work, ROOT)
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        setup_s = None if args.trace else measure_setup(src)
        command = [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            command += ["--spans", str(base / f"spans-{args.workload}-{args.seed}.json")]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = setup_s
    units = declared_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
