#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload at its smallest size and at two seeds it checks that

* the untraced and the traced run print every metric that
  ``BENCHMARK.json`` declares, with the declared unit, and end with the
  result JSON line;
* ``error_rate`` is 0 and the result is marked correct;
* perturbing one recorded reference value makes the output checks fail.

Exits non-zero and lists the failures if any check does not hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)


def check_printed(workload: str, seed: int, trace: int, spec: dict,
                  problems: List[str]) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--size", "small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    where = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    declared = spec["per_layer" if trace else "end_to_end"]
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{where}: metric {m['name']} missing or not in "
                            f"{m['unit']}: {got}")
        elif not any(l.startswith(f"metric {m['name']} = ")
                     and l.endswith(f" {m['unit']}") for l in lines):
            problems.append(f"{where}: metric {m['name']} not printed with "
                            f"its unit")
    if set(result["metrics"]) != {m["name"] for m in declared}:
        problems.append(f"{where}: undeclared metrics "
                        f"{sorted(set(result['metrics']) - {m['name'] for m in declared})}")
    if not any(l.startswith("metric error_rate = 0 fraction") for l in lines):
        problems.append(f"{where}: error_rate is not 0")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: result not correct: {lines[-1][:200]}")


def check_perturbation(problems: List[str]) -> None:
    """One perturbed reference per workload must raise the error rate."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from clock import WallClock
    from run import REFERENCES, measure
    from workloads import WORKLOADS

    refs = json.loads(REFERENCES.read_text())["small"]
    for name, cls in WORKLOADS.items():
        key = next(k for k in sorted(refs) if k.startswith(name + "."))
        perturbed = dict(refs, **{key: refs[key] * 1.0001})
        run = measure(cls(small=True), SEEDS[0], 0, perturbed, WallClock())
        if not run.failed or not any(key in f for f in run.failed):
            problems.append(f"{name}: perturbing reference {key} left "
                            f"error_rate at 0")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: List[str] = []
    for w in spec["workloads"]:
        for seed in SEEDS:
            for trace in (0, 1):
                check_printed(w["name"], seed, trace, spec, problems)
    check_perturbation(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
