"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 perfbench/compare.py A B

``A`` (the parent, or the first set) and ``B`` (the change, or the second
set) are each a directory of ``result-*.json`` files written by ``run.py``,
or one such file.  For every workload both sides ran, and every end-to-end
metric that workload measures, prints each side's median and quartiles, the
change in the median and the bound it is judged against.

Verdicts follow the choosing-metrics guide: ``REGRESSION`` when B's median
is worse than A's by more than the bound; ``unresolved`` when either side's
own spread (quartile distance over median) exceeds the bound, unless every
B run reads better — or every B run worse — than every A run.  Any B run
with a wrong output is a regression whatever the timings say.  Exits 1 on
a regression, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402


def load_runs(path: Path) -> Dict[str, List[dict]]:
    """Untraced, full-size results under ``path``, grouped by workload."""
    files = sorted(path.glob("result-*.json")) if path.is_dir() else [path]
    runs: Dict[str, List[dict]] = {}
    for file in files:
        result = json.loads(file.read_text())
        if result["trace"] or result["smoke"]:
            continue
        runs.setdefault(result["workload"], []).append(result)
    return runs


def judge(a: List[float], b: List[float], better: str, bound: float) -> dict:
    """Verdict for one (metric, workload) pair; see the module docstring."""
    q1a, med_a, q3a = harness.quartiles(a)
    q1b, med_b, q3b = harness.quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a
    spread = max((q3a - q1a) / med_a, (q3b - q1b) / med_b)
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    all_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not (all_better or all_worse):
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "REGRESSION"
    else:
        verdict = "ok"
    return {"a": (q1a, med_a, q3a), "b": (q1b, med_b, q3b),
            "worse_by": worse_by, "spread": spread, "verdict": verdict}


def compare(runs_a: Dict[str, List[dict]], runs_b: Dict[str, List[dict]],
            spec: dict, out=sys.stdout) -> int:
    """Print the table; returns the number of regressions."""
    regressions = unresolved = 0
    for workload in (w["name"] for w in spec["workloads"]):
        side_a, side_b = runs_a.get(workload), runs_b.get(workload)
        if not side_a or not side_b:
            continue
        hosts = {(r["host"]["cpu_model"], r["host"]["nproc"])
                 for r in side_a + side_b}
        noisy = sum(r["host"]["noisy"] for r in side_a + side_b)
        print(f"{workload}: A n={len(side_a)}, B n={len(side_b)}"
              + (f", {noisy} run(s) flagged noisy" if noisy else "")
              + (", DIFFERENT HOSTS" if len(hosts) > 1 else ""), file=out)
        wrong = sum(r["failed"] for r in side_b)
        if wrong:
            regressions += 1
            print(f"  failed_frac: {wrong} wrong output(s) in B  "
                  "REGRESSION", file=out)
        native = harness.NATIVE_END_TO_END[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in native:
                continue  # reports pass_s on this workload
            verdict = judge(
                [r["end_to_end"][name]["value"] for r in side_a],
                [r["end_to_end"][name]["value"] for r in side_b],
                metric["better"], metric["bound"])
            regressions += verdict["verdict"] == "REGRESSION"
            unresolved += verdict["verdict"] == "unresolved"
            (q1a, ma, q3a), (q1b, mb, q3b) = verdict["a"], verdict["b"]
            print(f"  {name:14s} {metric['unit']:3s} "
                  f"A {ma:10.4f} [{q1a:10.4f}, {q3a:10.4f}]  "
                  f"B {mb:10.4f} [{q1b:10.4f}, {q3b:10.4f}]  "
                  f"worse by {verdict['worse_by']:+7.2%} "
                  f"(bound {metric['bound']:.0%}, spread "
                  f"{verdict['spread']:.2%})  {verdict['verdict']}",
                  file=out)
    print(f"{regressions} regression(s), {unresolved} unresolved", file=out)
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="first set (parent)")
    parser.add_argument("b", type=Path, help="second set (change)")
    args = parser.parse_args(argv)
    regressions = compare(load_runs(args.a), load_runs(args.b),
                          harness.load_spec())
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
