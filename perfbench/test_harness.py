"""Self-test of the benchmark harness.

    python -m pytest perfbench -q

Not collected by tier-1 (``testpaths = tests``).  Runs every workload at
``--smoke`` sizes, untraced and traced, once per session (~80 s).
"""

from __future__ import annotations

import io
import json
import math
import re
import subprocess
import sys
import time

import pytest

from perfbench import cells, compare, harness

ROOT = harness.ROOT
SPEC = harness.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# BENCHMARK.json against the driver's contract
# ----------------------------------------------------------------------

def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    for native in harness.NATIVE_END_TO_END.values():
        assert set(native) <= {m["name"] for m in SPEC["end_to_end"]}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    hundred = list(range(1, 101))
    assert harness.percentile(hundred, 50) == 50
    assert harness.percentile(hundred, 90) == 90  # exactly 10 beyond
    with pytest.raises(ValueError):
        harness.percentile(hundred[:99], 90)      # only 9 beyond
    with pytest.raises(ValueError):
        harness.percentile(hundred, 99)
    assert harness.percentile(hundred, 99, allow_thin=True) == 99
    thousand = list(range(1, 1001))
    assert harness.percentile(thousand, 99) == 990   # exactly 10 beyond
    with pytest.raises(ValueError):
        harness.percentile(thousand[:999], 99)
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def _assert_nested(spans):
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans)
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            # 1 ms slack: event-clock spans come from another process.
            assert parent["start"] - 1e-3 <= span["start"]
            assert span["end"] <= parent["end"] + 1e-3


def test_tracer_nests_and_can_be_disabled():
    tracer = harness.Tracer(True)
    with tracer.span("pass", trace="p0") as outer:
        with tracer.span("cell") as inner:
            with tracer.span("run"):
                time.sleep(0.001)
        tracer.add("observed", outer["start"], time.time(), parent=outer,
                   trace="p0")
    assert inner["parent"] == outer["id"] and inner["trace"] == "p0"
    assert {s["name"] for s in tracer.spans} == {"pass", "cell", "run",
                                                 "observed"}
    _assert_nested(tracer.spans)
    off = harness.Tracer(False)
    with off.span("pass") as nothing:
        assert nothing is None
    assert off.add("x", 0, 1) is None and off.spans == []


def test_scrub_drops_only_repro_variables():
    env = {"REPRO_FUSION": "0", "REPRO_KERNEL_THREADS": "4", "HOME": "/x"}
    assert harness.scrub_repro_env(env) == ["REPRO_FUSION",
                                            "REPRO_KERNEL_THREADS"]
    assert env == {"HOME": "/x"}


def test_layer_attribution():
    assert harness.layer_of("/c/src/repro/sparse/spmv.py") == "sparse"
    assert harness.layer_of("/c/src/repro/galoisblas/backend.py") == \
        "graphblas"
    assert harness.layer_of("/c/src/repro/galois/graph.py") == "galois"
    assert harness.layer_of("/c/src/repro/errors.py") == "errors"
    assert harness.layer_of("/c/perfbench/cells.py") == "harness"
    assert harness.layer_of("/usr/lib/python3/site-packages/numpy/x.py") \
        is None
    assert harness.layer_of("~") is None


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert compare.judge(steady, [v * 1.02 for v in steady], "lower",
                         0.08)["verdict"] == "ok"
    assert compare.judge(steady, [v * 1.20 for v in steady], "lower",
                         0.08)["verdict"] == "REGRESSION"
    assert compare.judge(steady, [v * 0.80 for v in steady], "lower",
                         0.08)["verdict"] == "ok"
    wide = [8.0, 12.0, 10.0, 9.0, 11.0]
    assert compare.judge(wide, [9.0, 13.0, 11.0, 10.0, 12.0], "lower",
                         0.08)["verdict"] == "unresolved"
    assert compare.judge(wide, [v + 20 for v in wide], "lower",
                         0.08)["verdict"] == "REGRESSION"
    assert compare.judge(steady, [v * 0.5 for v in steady], "higher",
                         0.08)["verdict"] == "REGRESSION"


# ----------------------------------------------------------------------
# Every workload at smoke sizes, untraced and traced
# ----------------------------------------------------------------------

@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    """{(workload, traced): (seconds, last-line JSON, result, stdout)}"""
    out = tmp_path_factory.mktemp("perfbench")
    runs = {}
    for workload in WORKLOADS:
        for traced in (0, 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", "3", "--smoke",
                 "--trace", str(traced), "--out", str(out)],
                capture_output=True, text=True, timeout=170, cwd=ROOT)
            seconds = time.perf_counter() - t0
            assert proc.returncode == 0, proc.stdout + proc.stderr
            tag = "trace" if traced else "e2e"
            result = json.loads(
                (out / f"result-{workload}-seed3-{tag}.json").read_text())
            runs[workload, traced] = (
                seconds, json.loads(proc.stdout.splitlines()[-1]), result,
                proc.stdout)
    runs["out"] = out
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced", (0, 1))
def test_smoke_emits_every_named_metric(smoke, workload, traced):
    seconds, last, result, stdout = smoke[workload, traced]
    assert seconds < 60
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    wanted = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = last["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])
        assert metric["name"] in stdout  # printed by name, with its unit
    if not traced:
        assert all(e["value"] > 0 for e in last["metrics"].values())
    host = result["host"]
    assert {"nproc", "cpu_model", "python", "numpy", "git_commit", "seed",
            "load1_at_start", "noisy"} <= set(host)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_spans_nest_inside_their_parents(smoke, workload):
    lines = (smoke["out"] / f"trace-{workload}.jsonl").read_text()
    spans = [json.loads(line) for line in lines.splitlines()]
    _assert_nested(spans)
    names = {s["name"] for s in spans}
    assert {"workload", "set_up", "cell", "instantiate", "load",
            "run"} <= names
    if workload == "service-http":
        assert {"job", "post", "queue_wait", "service", "get_result",
                "drain", "first_commit"} <= names
        jobs = [s for s in spans if s["name"] == "job"]
        assert len({s["trace"] for s in jobs}) == len(jobs) == 100
    elif workload == "study-grid":
        assert {"cli", "replay"} <= names
    else:
        assert "pass" in names


def test_workloads_discriminate_between_layers(smoke):
    """The reason there are two in-process workloads: the kernel layer
    dominates one, the per-call layers the other."""
    def shares(workload):
        layers = smoke[workload, 1][2]["layers_self_s"]
        total = sum(layers.values())
        per_call = sum(layers.get(k, 0.0)
                       for k in ("graphblas", "perf", "engine"))
        return layers["sparse"] / total, per_call / total

    kernel_sparse, kernel_per_call = shares("kernels-rmat16")
    road_sparse, road_per_call = shares("rounds-road")
    assert kernel_sparse >= 2 * road_sparse
    assert road_per_call >= 2 * kernel_per_call


# ----------------------------------------------------------------------
# Negative control: a wrong answer must be noticed
# ----------------------------------------------------------------------

def test_tampered_expected_row_fails_the_run(tmp_path, monkeypatch, capsys):
    from perfbench import run

    pinned = cells.load_expected()
    victim = cells.Cell("GB", "bfs", "road-USA-W")
    tampered = dict(pinned)
    tampered[victim] = dict(pinned[victim],
                            counters=dict(pinned[victim]["counters"],
                                          loops=1))
    monkeypatch.setattr(cells, "load_expected", lambda: tampered)
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", "")  # restored afterwards
    code = run.main(["--workload", "rounds-road", "--seed", "3", "--smoke",
                     "--out", str(tmp_path)])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] == 1
    result = json.loads(
        (tmp_path / "result-rounds-road-seed3-e2e.json").read_text())
    assert result["failed_frac"] > 0
    assert "counters" in result["failures"][0]


def test_compare_flags_wrong_outputs_and_regressions(tmp_path):
    def result(pass_s, failed=0):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        metrics["pass_s"]["value"] = pass_s
        return {"workload": "study-grid", "trace": False, "smoke": False,
                "failed": failed, "end_to_end": metrics,
                "host": {"cpu_model": "x", "nproc": 2, "noisy": False}}

    base = {"study-grid": [result(20.0), result(20.2), result(19.9)]}
    same = {"study-grid": [result(20.1), result(20.3), result(19.8)]}
    slow = {"study-grid": [result(30.0), result(30.2), result(29.9)]}
    wrong = {"study-grid": [result(20.0, failed=1)]}
    sink = io.StringIO()
    assert compare.compare(base, same, SPEC, out=sink) == 0
    assert compare.compare(base, slow, SPEC, out=sink) == 1
    assert compare.compare(base, wrong, SPEC, out=sink) == 1
    assert "REGRESSION" in sink.getvalue()
