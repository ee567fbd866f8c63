"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kernels-rmat16 --seed 1
    python3 perfbench/run.py --workload service-http --seed 1 --trace

Runs the program in its default configuration (inherited ``REPRO_*``
variables are dropped; only ``REPRO_ARTIFACT_DIR`` is set, to a store built
during set-up), prints every metric by name with its unit, checks the
program's outputs, and exits non-zero when any output is wrong.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Without ``--trace`` the metrics are the end-to-end ones, measured with no
span recorded and no profiler loaded.  ``--trace`` is a separate run that
records spans around the harness's calls into each layer, writes them to
``<out>/trace-<workload>.jsonl`` and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import harness  # noqa: E402  (needs the path set above)

WORKLOADS = ("kernels-rmat16", "rounds-road", "study-grid", "service-http")


def _workload_module(name: str):
    if name in ("kernels-rmat16", "rounds-road"):
        from perfbench import inprocess as module
    elif name == "study-grid":
        from perfbench import grid as module
    else:
        from perfbench import service as module
    return module


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure (default: run_seconds "
                             "from BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="traced run: spans + per-layer metrics")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="result/trace directory (default: "
                             "perfbench_out/ in the checkout)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the harness self-test (1 pass, "
                             "100 jobs, one grid graph); not comparable")
    return parser


def _stand_in(pass_s: float, unit: str) -> float:
    """``pass_s`` in ``unit``: what a metric that has no meaning on this
    workload reports, since every run must carry every end-to-end name."""
    return pass_s * {"s": 1.0, "ms": 1e3}[unit]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program's sources are not at "
              f"{ROOT / 'src' / 'repro'}; nothing to measure",
              file=sys.stderr)
        return 2
    spec = harness.load_spec()
    dropped = harness.scrub_repro_env()
    seconds = float(spec["run_seconds"] if args.seconds is None
                    else args.seconds)
    trace = bool(args.trace)

    out = Path(args.out) if args.out else ROOT / "perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=out))

    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in child_env.get("PYTHONPATH", "").split(os.pathsep)
           if p])
    child_env["TMPDIR"] = str(tmp)
    children = harness.Children(child_env)
    tracer = harness.Tracer(trace)

    try:
        t0 = time.perf_counter()
        import repro.core.systems  # noqa: F401  (timed: part of set-up)
        import repro.graphs.datasets  # noqa: F401
        import_s = time.perf_counter() - t0

        fingerprint = harness.host_fingerprint(args.seed)
        ctx = harness.Context(
            workload=args.workload, seed=args.seed, seconds=seconds,
            trace=trace, smoke=args.smoke, tmp=tmp, tracer=tracer,
            children=children, import_s=import_s)
        with tracer.span("workload", trace=args.workload,
                         seed=args.seed):
            outcome = _workload_module(args.workload).run(ctx)
    finally:
        children.close()
        if trace:
            tracer.write(out / f"trace-{args.workload}.jsonl")
        shutil.rmtree(tmp, ignore_errors=True)

    native = harness.NATIVE_END_TO_END[args.workload]
    if set(outcome.end_to_end) != set(native):
        raise RuntimeError(
            f"{args.workload} measured {sorted(outcome.end_to_end)}, "
            f"expected {sorted(native)}")

    attempted, failed = outcome.attempted, len(outcome.failures)
    failed_frac = failed / attempted
    pass_s = outcome.end_to_end["pass_s"]
    end_to_end = {}
    for metric in spec["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        value = outcome.end_to_end.get(name)
        end_to_end[name] = {
            "value": value if value is not None
            else _stand_in(pass_s, unit),
            "unit": unit}
    per_layer = {}
    if trace:
        outcome.per_layer["failed_frac"] = failed_frac
        unknown = set(outcome.per_layer) - {
            m["name"] for m in spec["per_layer"]}
        if unknown:
            raise RuntimeError(f"per-layer metrics not in BENCHMARK.json: "
                               f"{sorted(unknown)}")
        for metric in spec["per_layer"]:
            # A layer the workload does not exercise reads 0.
            per_layer[metric["name"]] = {
                "value": float(outcome.per_layer.get(metric["name"], 0.0)),
                "unit": metric["unit"]}

    result = {
        "workload": args.workload,
        "trace": trace,
        "smoke": args.smoke,
        "seconds": seconds,
        "host": fingerprint,
        "dropped_env": dropped,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed_frac,
        "end_to_end": end_to_end,
        "native_end_to_end": sorted(native),
        "per_layer": per_layer,
        "layers_self_s": outcome.layers_self_s,
        "samples": outcome.samples,
        "failures": outcome.failures[:50],
    }
    tag = "trace" if trace else "e2e"
    (out / f"result-{args.workload}-seed{args.seed}-{tag}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")

    mode = "traced" if trace else "untraced"
    print(f"{args.workload} seed={args.seed} {mode}"
          f"{' smoke' if args.smoke else ''}: attempted {attempted}, "
          f"failed {failed} (failed_frac {failed_frac:.6g})")
    if fingerprint["noisy"]:
        print(f"  NOISY: load average {fingerprint['load1_at_start']:.2f} "
              f"exceeds {fingerprint['nproc']} cores at start")
    for name, entry in end_to_end.items():
        note = "" if name in native else "   (= pass_s: not measured here)"
        print(f"  {name:34s} {entry['value']:14.6f} {entry['unit']}{note}")
    for name, entry in per_layer.items():
        print(f"  {name:34s} {entry['value']:14.6f} {entry['unit']}")
    for line in outcome.failures[:20]:
        print(f"  WRONG: {line}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": per_layer if trace else end_to_end,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
