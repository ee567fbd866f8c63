"""Fault injection (repro.faults) and graceful per-cell failure."""

import time

import pytest

from repro import errors, faults
from repro.core import experiments, tables
from repro.core.experiments import CANCELLED, ERR, OK, OOM, TIMEOUT, run_cell
from repro.core.variants import run_variant
from repro.engine import cancel

CELL = ("LS", "bfs", "rmat22")  # the cheapest real cell


def run(plan=None, cell=CELL, **kwargs):
    kwargs.setdefault("use_cache", False)
    if plan is None:
        return run_cell(*cell, **kwargs)
    with faults.injected(plan):
        return run_cell(*cell, **kwargs)


class TestFaultSpec:
    def test_window_matching(self):
        spec = faults.FaultSpec("kernel", "fault", nth=3, times=2)
        assert [spec.matches("kernel", n) for n in (2, 3, 4, 5)] == \
            [False, True, True, False]
        assert not spec.matches("alloc", 3)

    def test_wildcard_site_and_forever(self):
        spec = faults.FaultSpec("*", "fault", nth=2, times=0)
        assert spec.matches("alloc", 2) and spec.matches("kernel", 99)

    def test_invalid_specs_rejected(self):
        with pytest.raises(errors.InvalidValue):
            faults.FaultSpec("gpu", "fault")
        with pytest.raises(errors.InvalidValue):
            faults.FaultSpec("kernel", "segfault")
        with pytest.raises(errors.InvalidValue):
            faults.FaultSpec("kernel", "fault", nth=0)

    def test_parse_spec_roundtrip(self):
        spec = faults.plan.parse_spec("alloc:oom:transient:nth=7:times=2")
        assert spec == faults.FaultSpec("alloc", "oom", nth=7, times=2,
                                        transient=True)
        for bad in ("kernel", "kernel:fault:nth=x", "kernel:fault:loud"):
            with pytest.raises(errors.InvalidValue):
                faults.plan.parse_spec(bad)

    def test_plan_from_env(self):
        env = {"REPRO_FAULTS": "kernel:fault:transient:nth=5; alloc:oom"}
        plan = faults.plan_from_env(env)
        assert len(plan.specs) == 2 and plan.specs[0].transient
        assert faults.plan_from_env({}) is None
        env = {"REPRO_FAULTS": "*:fault:transient:times=0:rate=0.5",
               "REPRO_FAULTS_SEED": "11"}
        plan = faults.plan_from_env(env)
        assert plan.specs[0].rate == 0.5 and plan.seed == 11


class TestPlanDeterminism:
    def test_counters_are_per_site(self):
        plan = faults.FaultPlan()
        plan.trip("kernel")
        plan.trip("kernel")
        plan.trip("alloc")
        assert plan.counts == {"kernel": 2, "alloc": 1}

    def test_seeded_rate_replays_identically(self):
        def fire_pattern():
            plan = faults.FaultPlan([faults.FaultSpec(
                "kernel", "fault", times=0, transient=True, rate=0.3)],
                seed=42)
            fired = []
            for i in range(50):
                try:
                    plan.trip("kernel")
                    fired.append(False)
                except faults.TransientFault:
                    fired.append(True)
            return fired

        first, second = fire_pattern(), fire_pattern()
        assert first == second
        assert any(first) and not all(first)

    def test_uninstalled_plan_is_noop(self):
        faults.clear()
        faults.trip("kernel")  # must not raise


@pytest.mark.usefixtures("isolated_grid")
class TestRunCellFailurePaths:
    def test_transient_fault_retried_to_ok(self):
        plan = faults.FaultPlan([faults.FaultSpec("kernel", "fault",
                                                  nth=1, transient=True)])
        baseline = run()
        result = run(plan)
        assert result.status == OK
        assert result.attempts == 2
        assert result.error is None
        # The retry's answer and modeled time match an uninjected run.
        assert result.answer == baseline.answer
        assert result.seconds == baseline.seconds

    def test_transient_faults_exhaust_to_err(self):
        plan = faults.FaultPlan([faults.FaultSpec("kernel", "fault",
                                                  nth=1, times=0,
                                                  transient=True)])
        policy = faults.RetryPolicy(max_attempts=3, backoff_base=0.0)
        result = run(plan, retry=policy)
        assert result.status == ERR
        assert result.attempts == 3
        assert result.error["type"] == "TransientFault"

    def test_permanent_fault_is_err_not_retried(self):
        plan = faults.FaultPlan([faults.FaultSpec("kernel", "fault", nth=1)])
        result = run(plan)
        assert result.status == ERR
        assert result.attempts == 1
        assert result.error["type"] == "InjectedFault"
        assert "kernel trip #1" in result.error["message"]
        assert result.error["traceback"]

    def test_injected_oom_keeps_paper_annotation(self):
        plan = faults.FaultPlan([faults.FaultSpec("alloc", "oom", nth=2)])
        result = run(plan, cell=("GB", "bfs", "rmat22"))
        assert result.status == OOM
        assert result.error is None

    def test_injected_timeout_keeps_paper_annotation(self):
        plan = faults.FaultPlan([faults.FaultSpec("kernel", "timeout",
                                                  nth=3)])
        result = run(plan)
        assert result.status == TIMEOUT
        assert result.error is None

    def test_fatal_fault_escapes_run_cell(self):
        plan = faults.FaultPlan([faults.FaultSpec("kernel", "fatal", nth=2)])
        with pytest.raises(faults.FatalFault):
            run(plan)

    def test_unexpected_exception_becomes_err(self, monkeypatch):
        from repro.core import systems

        def boom(self, app):
            raise ZeroDivisionError("synthetic harness bug")

        monkeypatch.setattr(systems.SystemInstance, "run", boom)
        result = run()
        assert result.status == ERR
        assert result.error["type"] == "ZeroDivisionError"
        assert "synthetic harness bug" in result.error["message"]

    def test_wallclock_watchdog_converts_to_err(self):
        # A blown budget cancels cooperatively: CANCELLED with the
        # partial trace, and not retried.
        result = run(wall_budget=-1.0)
        assert result.status == CANCELLED
        assert result.attempts == 1
        assert result.error["type"] == "Cancelled"
        assert "wall_budget" in result.error["message"]
        assert result.seconds is None
        assert result.counters["instructions"] > 0
        assert cancel.active_token() is None

    def test_wallclock_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_WALL_BUDGET", "-1")
        result = run()
        assert result.status == CANCELLED
        assert result.counters["instructions"] > 0
        monkeypatch.delenv("REPRO_CELL_WALL_BUDGET")
        assert run().status == OK

    def test_earlier_of_job_deadline_and_wall_budget_stops_the_cell(self):
        # An expired job deadline stops the cell under a generous budget:
        # the budget's token nests in the job's instead of shadowing it.
        job = cancel.CancelToken(deadline=-1.0)
        with cancel.scope(job):
            result = run(wall_budget=3600.0)
            assert cancel.active_token() is job
        assert result.status == CANCELLED
        assert "(deadline)" in result.error["message"]
        # A blown budget stops the cell under a distant job deadline, and
        # leaves the job's token untripped for the next attempt.
        job = cancel.CancelToken(deadline=time.monotonic() + 3600.0)
        with cancel.scope(job):
            result = run(wall_budget=-1.0)
        assert result.status == CANCELLED
        assert "(wall_budget)" in result.error["message"]
        assert job.tripped() is None


#: The malformed fault/watchdog/kernel-width knobs both study CLIs must
#: refuse up front.
BAD_KNOBS = [("REPRO_CELL_WALL_BUDGET", "abc"),
             ("REPRO_FAULTS", "kernel:fault:rate=lots"),
             ("REPRO_FAULTS_SEED", "x"), ("REPRO_KERNEL_THREADS", "0")]


@pytest.mark.usefixtures("isolated_grid")
class TestMalformedKnobsAtStartup:
    @pytest.mark.parametrize("name,bad", BAD_KNOBS)
    def test_repro_study_exits_2(self, monkeypatch, capsys, name, bad):
        from repro.core.runner import main

        monkeypatch.setenv(name, bad)
        # With --workers the cells would otherwise crash every worker.
        assert main(["table2", "--graphs", "road-USA-W", "--apps", "bfs",
                     "--workers", "2"]) == 2
        assert capsys.readouterr().err.startswith(f"repro-study: {name}")
        assert experiments.all_results() == {}

    @pytest.mark.parametrize("name,bad", BAD_KNOBS)
    def test_run_full_study_exits_2(self, monkeypatch, capsys, tmp_path,
                                    name, bad):
        # The full study (``all --out``) refuses before it touches DIR.
        from repro.core.runner import main

        monkeypatch.setenv(name, bad)
        assert main(["all", "--out", str(tmp_path), "--graphs",
                     "road-USA-W", "--apps", "bfs"]) == 2
        assert capsys.readouterr().err.startswith(f"repro-study: {name}")
        assert not (tmp_path / "queue.db").exists()


@pytest.mark.usefixtures("isolated_grid")
class TestRenderingWithErrCells:
    def test_table2_renders_err_without_aborting(self):
        plan = faults.FaultPlan([faults.FaultSpec("kernel", "fault",
                                                  nth=1, times=0)])
        with faults.injected(plan):
            t = tables.table2(["rmat22"], ["bfs"])
        assert "ERR" in t.text
        assert all(c.status == ERR for c in t.data.values())

    def test_one_err_cell_leaves_others_intact(self, monkeypatch):
        from repro.core import systems

        original = systems.SystemInstance.run

        def selective(self, app):
            if self.code == "GB":
                raise RuntimeError("GB-only failure")
            return original(self, app)

        monkeypatch.setattr(systems.SystemInstance, "run", selective)
        t = tables.table2(["rmat22"], ["bfs"])
        assert t.data[("bfs", "GB", "rmat22")].status == ERR
        assert t.data[("bfs", "SS", "rmat22")].status == OK
        assert t.data[("bfs", "LS", "rmat22")].status == OK
        assert "*" in t.text  # a fastest cell is still highlighted

    def test_table3_and_figure2_tolerate_err(self):
        from repro.core import figures

        plan = faults.FaultPlan([faults.FaultSpec("kernel", "fault",
                                                  nth=1, times=0)])
        with faults.injected(plan):
            t3 = tables.table3(["rmat22"], ["bfs"])
            f2 = figures.figure2(apps=["bfs"], graphs=["rmat22"])
        assert len(t3.data) == 3
        assert "ERR" in f2.text

    def test_variant_err_recorded_not_raised(self):
        plan = faults.FaultPlan([faults.FaultSpec("kernel", "fault", nth=1)])
        with faults.injected(plan):
            r = run_variant("pr", "ls", "rmat22", use_cache=False)
        assert r.status == ERR
        assert r.error["type"] == "InjectedFault"


class TestRetryPolicy:
    def test_backoff_growth_and_cap(self):
        policy = faults.RetryPolicy(max_attempts=5, backoff_base=0.1,
                                    backoff_factor=2.0, backoff_cap=0.3)
        assert [policy.delay(a) for a in (1, 2, 3, 4)] == \
            [0.1, 0.2, 0.3, 0.3]

    def test_wait_uses_injected_sleep(self):
        slept = []
        policy = faults.RetryPolicy(backoff_base=0.05, sleep=slept.append)
        policy.wait(1)
        assert slept == [0.05]

    def test_invalid_policy_rejected(self):
        with pytest.raises(errors.InvalidValue):
            faults.RetryPolicy(max_attempts=0)
        with pytest.raises(errors.InvalidValue):
            faults.RetryPolicy(backoff_base=-1.0)
