"""Self-check: the benchmark counts wrong answers and escaping
exceptions as failures.

    python3 perfbench/selfcheck.py

The package is not modified: wrong behaviour is injected by replacing,
in memory and for this process only, names that ``quantadist.cli``
calls.  Exits 0 when every check holds.
"""

from __future__ import annotations

import math
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import end_to_end, load_package, run  # noqa: E402
from workloads import build_plan  # noqa: E402


def inject_and_run(cli, plan, attr, replacement, seconds=3.0):
    original = getattr(cli, attr)
    setattr(cli, attr, replacement(original))
    try:
        return run(cli, plan, seconds)
    finally:
        setattr(cli, attr, original)


def main() -> int:
    problems = []

    cli = load_package()
    work = ROOT / ".perfbench_work" / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = build_plan("transport", 0, work, ROOT)

        clean = run(cli, plan, 2.0)
        if clean["failures"]:
            problems.append(f"unmodified package failed: {clean['failures'][0]}")

        # A transport value off by 1/100: every LP reply is wrong, every
        # Hausdorff reply is still right.
        wrong = inject_and_run(cli, plan, "kantorovich_lp",
                               lambda f: lambda *a: f(*a) + Fraction(1, 100))
        kinds = {kind for kind, *_ in wrong["failures"]}
        if not kinds or not all(k.startswith("lp-") for k in kinds):
            problems.append(f"wrong LP values not detected as such: {sorted(kinds)}")
        if any(k.startswith("hausdorff") for k in kinds):
            problems.append("correct Hausdorff replies counted as failures")
        if any(k.startswith("lp-") for k in wrong["by_kind"]):
            problems.append("a wrong LP value was accepted")
        if sum(1 for x in wrong["latencies"] if math.isinf(x)) != len(wrong["failures"]):
            problems.append("failed requests are not counted as missing every latency target")
        metrics = end_to_end(wrong, scaled=False)
        completed = wrong["attempted"] - len(wrong["failures"])
        if not math.isclose(metrics["throughput_rps"] * sum(wrong["busy"]), completed):
            problems.append("throughput counts failed requests as completed")
        print(f"wrong LP values: {len(wrong['failures'])} of {wrong['attempted']} requests failed, "
              f"kinds {sorted(kinds)}")

        # An exception escaping main is a failure, not a crash of the run.
        def raising(_f):
            def load(_path):
                raise RuntimeError("injected")
            return load

        escaped = inject_and_run(cli, plan, "load_json_file", raising)
        reasons = {problem for _k, _a, problem, _e in escaped["failures"]}
        if len(escaped["failures"]) != escaped["attempted"] or \
                not all(r.startswith("exception escaped main") for r in reasons):
            problems.append(f"escaping exceptions not counted: {sorted(reasons)[:2]}")
        print(f"escaping exceptions: {len(escaped['failures'])} of "
              f"{escaped['attempted']} requests failed")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck passed" if not problems else "selfcheck failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
