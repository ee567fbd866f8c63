"""Tables, figures, variants and the CLI runner on a reduced grid."""

import json
import pathlib

import numpy as np
import pytest

from repro.core import experiments, figures, tables
from repro.core.results import RESULTS
from repro.core.runner import main as runner_main
from repro.core.variants import VARIANTS, run_problem_variants, run_variant

GRAPHS = ["road-USA-W", "rmat22"]
APPS = ["bfs", "cc"]

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent \
    / "benchmarks" / "results"
#: What ``repro-study all --out`` writes.
EXPECTED_FILES = {f"{name}.txt" for name in RESULTS} | {"cells.json"}


class TestTable1:
    def test_all_nine_rows(self):
        t = tables.table1()
        assert len(t.data) == 9
        assert "road-USA" in t.text and "uk07" in t.text

    def test_properties_sane(self):
        t = tables.table1(GRAPHS)
        p = t.data["road-USA-W"]
        assert p.approx_diameter > 1000  # road networks are high diameter
        q = t.data["rmat22"]
        assert q.max_out_degree > 50 * q.avg_degree  # power law


class TestTable2:
    def test_grid_and_highlight(self):
        t = tables.table2(GRAPHS, APPS)
        assert len(t.data) == len(GRAPHS) * len(APPS) * 3
        assert "*" in t.text
        # Exactly one fastest per (app, graph) among ok cells.
        for app in APPS:
            for g in GRAPHS:
                row = [t.data[(app, s, g)] for s in ("SS", "GB", "LS")]
                ok = [r for r in row if r.status == "ok"]
                fastest = min(ok, key=lambda r: r.seconds)
                assert fastest.seconds <= min(r.seconds for r in ok)

    def test_lonestar_wins_bfs_cells(self):
        t = tables.table2(GRAPHS, ["bfs"])
        for g in GRAPHS:
            ls = t.data[("bfs", "LS", g)].seconds
            assert ls <= t.data[("bfs", "GB", g)].seconds
            assert ls <= t.data[("bfs", "SS", g)].seconds


class TestTable3:
    def test_mrss_grid(self):
        t = tables.table3(GRAPHS, ["bfs"])
        for key, cell in t.data.items():
            assert cell.mrss_gb > 0


class TestTable4:
    def test_ratios_above_one(self):
        t = tables.table4(GRAPHS, APPS)
        for app in APPS:
            assert t.data[app]["instructions"] > 1.0
            assert t.data[app]["memory_accesses"] > 0.5


class TestVariants:
    def test_pr_variant_speedups(self):
        results = run_problem_variants("pr", "rmat22")
        assert set(results) == set(VARIANTS["pr"])
        assert all(r.status == "ok" for r in results.values())
        # ls beats gb; gb-res beats gb (Figure 3a orderings).
        assert results["ls"].seconds < results["gb"].seconds
        assert results["gb-res"].seconds < results["gb"].seconds

    def test_pr_answers_match(self):
        results = run_problem_variants("pr", "road-USA-W")
        assert len({r.answer for r in results.values()}) == 1

    def test_cc_variants(self):
        results = run_problem_variants("cc", "road-USA-W")
        # Afforest fastest; sv beats bulk-sync FastSV on the high-diameter
        # road graph (Figure 3c).
        assert results["ls"].seconds <= results["ls-sv"].seconds
        assert results["ls-sv"].seconds < results["gb"].seconds
        assert len({r.answer for r in results.values()}) == 1

    def test_sssp_variants(self):
        results = run_problem_variants("sssp", "road-USA-W")
        assert results["ls"].seconds < results["gb"].seconds / 10
        assert results["ls-notile"].seconds < results["gb"].seconds
        assert len({r.answer for r in results.values()}) == 1

    def test_tc_variants(self):
        results = run_problem_variants("tc", "rmat22")
        assert results["ls"].seconds < results["gb"].seconds
        # gb-ll never does more multiply work than gb-sort: its L-only
        # product bounds every dot by the shorter (lower-degree) row.  On
        # power-law inputs the two can tie; the win is decisive on web
        # crawls (Figure 3b), asserted below via counters.
        assert (results["gb-ll"].counters["memory_accesses"]
                <= results["gb-sort"].counters["memory_accesses"] * 1.1)
        assert results["gb-ll"].seconds < results["gb"].seconds
        assert len({r.answer for r in results.values()}) == 1

    def test_unknown_variant(self):
        from repro.errors import InvalidValue

        with pytest.raises(InvalidValue):
            run_variant("pr", "gb-magic", "rmat22")


class TestFigures:
    def test_figure2_series(self):
        f = figures.figure2(apps=["bfs"], graphs=["rmat22"])
        key = ("bfs", "rmat22", "LS")
        assert key in f.series
        sweep = f.series[key]
        assert sweep[1] >= sweep[56]
        assert "t56" in f.text

    def test_figure2_gap_persists_across_threads(self):
        # Figure 2: both systems scale, the gap remains.
        f = figures.figure2(apps=["sssp"], graphs=["road-USA-W"])
        for p in (1, 56):
            gb_t = f.series[("sssp", "road-USA-W", "GB")][p]
            ls_t = f.series[("sssp", "road-USA-W", "LS")][p]
            assert gb_t > ls_t

    def test_figure3_speedups(self):
        f = figures.figure3(problems=["cc"], graphs=["road-USA-W"])
        assert f.series[("cc", "road-USA-W", "gb")] == pytest.approx(1.0)
        assert f.series[("cc", "road-USA-W", "ls")] > 1.0


class TestTable5:
    def test_variant_ratio_rows(self):
        t = tables.table5(["rmat22"])
        assert "pr gb-res/ls-soa" in t.data
        assert "cc gb/ls-sv" in t.data
        # gb-res iterates the residual twice per round: more instructions
        # than the fused ls-soa loop (Table V).
        assert t.data["pr gb-res/ls-soa"]["instructions"] > 1.0


class TestRunner:
    def test_cli_table1(self, capsys):
        assert runner_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_cli_subset_grid(self, capsys):
        assert runner_main(["table2", "--graphs", "road-USA-W",
                            "--apps", "bfs"]) == 0
        out = capsys.readouterr().out
        assert "bfs LS" in out

    def test_cli_save_load(self, tmp_path, capsys):
        path = str(tmp_path / "cells.json")
        assert runner_main(["table2", "--graphs", "road-USA-W",
                            "--apps", "bfs", "--save", path]) == 0
        assert runner_main(["table2", "--graphs", "road-USA-W",
                            "--apps", "bfs", "--load", path]) == 0

    def test_cli_save_load_roundtrip_preserves_cells(self, tmp_path,
                                                     capsys,
                                                     isolated_grid):
        import dataclasses

        from repro.core import experiments

        def persisted(results):
            # wall_seconds is measured, not modeled; it is not saved.
            return {k: dataclasses.replace(r, wall_seconds=0.0)
                    for k, r in results.items()}

        path = str(tmp_path / "cells.json")
        assert runner_main(["table2", "--graphs", "rmat22",
                            "--apps", "bfs", "--save", path]) == 0
        saved = experiments.all_results()
        experiments.clear_cache()
        assert runner_main(["table2", "--graphs", "rmat22",
                            "--apps", "bfs", "--load", path]) == 0
        err = capsys.readouterr().err
        assert "loaded 3 cached cells" in err
        assert persisted(experiments.all_results()) == persisted(saved)

    def test_cli_explain(self, capsys):
        assert runner_main(["explain", "--system", "LS",
                            "--graphs", "rmat22", "--apps", "bfs"]) == 0
        out = capsys.readouterr().out
        assert "LS bfs rmat22:" in out

    def test_cli_rejects_unknown_names(self, capsys):
        assert runner_main(["table2", "--graphs", "no-such-graph"]) == 2
        err = capsys.readouterr().err
        assert "no-such-graph" in err and "known graphs" in err
        assert runner_main(["table2", "--apps", "sorting"]) == 2
        err = capsys.readouterr().err
        assert "sorting" in err and "known applications" in err

    def test_cli_resume_requires_journal(self, capsys):
        assert runner_main(["table2", "--resume"]) == 2
        assert "--resume requires --queue" in capsys.readouterr().err

    def test_cli_resume_skips_journaled_cells(self, tmp_path, capsys,
                                              isolated_grid):
        from repro.core.experiments import CellResult, cell_to_row
        from repro.service import JobQueue

        path = tmp_path / "q.db"
        queue = JobQueue(path)
        for system in ("SS", "GB", "LS"):
            job = queue.submit(system, "bfs", "rmat22", tenant="study",
                               idem_key=f"study:{system}:bfs:rmat22")
            lease = queue.lease(job.id, "killed-run")
            queue.complete(job.id, "killed-run", lease.attempts,
                           cell_to_row(CellResult(
                               system=system, app="bfs", graph="rmat22",
                               status="ok", seconds=424242.0, mrss_gb=1.0,
                               counters={}, answer=0)))
        queue.close()
        assert runner_main(["table2", "--graphs", "rmat22", "--apps",
                            "bfs", "--queue", str(path),
                            "--resume"]) == 0
        captured = capsys.readouterr()
        assert "3 cells recalled" in captured.err
        assert "424242.00" in captured.out  # recalled, not re-run

    def test_cli_journal_records_cells(self, tmp_path, capsys,
                                       isolated_grid):
        from repro.service import JobQueue

        path = tmp_path / "q.db"
        assert runner_main(["table2", "--graphs", "rmat22", "--apps",
                            "bfs", "--queue", str(path)]) == 0
        queue = JobQueue(path)
        assert queue.counts()["done"] == 3
        queue.close()

    def test_all_out_writes_every_artifact_and_resumes(self, tmp_path,
                                                       capsys,
                                                       isolated_grid):
        # One command writes the registered files plus cells.json (the
        # kept queue aside); a resume into the same directory recalls
        # every cell and rewrites the same bytes.
        argv = ["all", "--out", str(tmp_path), "--graphs", *GRAPHS,
                "--apps", *APPS]

        def written():
            return {p.name: p.read_bytes() for p in tmp_path.iterdir()
                    if not p.name.startswith("queue.db")}

        assert runner_main(argv) == 0
        first = written()
        assert set(first) == EXPECTED_FILES
        assert (tmp_path / "queue.db").exists()
        assert capsys.readouterr().out == ""
        cells = len(json.loads(first["cells.json"])["cells"])
        experiments.clear_cache()
        assert runner_main(argv + ["--resume"]) == 0
        assert f"{cells} cells recalled" in capsys.readouterr().err
        assert written() == first

    def test_registry_covers_the_checked_in_results(self):
        checked_in = {p.name for p in RESULTS_DIR.iterdir()
                      if not p.name.startswith("queue.db")}
        assert checked_in == EXPECTED_FILES

    def test_out_needs_the_all_target(self, tmp_path, capsys):
        assert runner_main(["table2", "--out", str(tmp_path)]) == 2
        assert "'all'" in capsys.readouterr().err


class TestSelectionValidation:
    def test_unknown_names_listed_with_known_ones(self):
        from repro.core.experiments import validate_selection
        from repro.errors import InvalidValue

        validate_selection(graphs=["rmat22"], apps=["bfs"])  # no raise
        with pytest.raises(InvalidValue, match="known graphs"):
            validate_selection(graphs=["rmat22", "typo-graph"])
        with pytest.raises(InvalidValue, match="known applications"):
            validate_selection(apps=["bfs", "typo-app"])

    def _bench_conftest(self):
        import importlib.util
        import pathlib

        path = (pathlib.Path(__file__).resolve().parent.parent
                / "benchmarks" / "conftest.py")
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_bench_session_rejects_bad_graph_env(self, monkeypatch):
        conftest = self._bench_conftest()
        monkeypatch.setenv("REPRO_BENCH_GRAPHS", "rmat22,typo-graph")
        with pytest.raises(pytest.UsageError, match="typo-graph"):
            conftest.pytest_sessionstart(None)

    def test_bench_session_rejects_bad_app_env(self, monkeypatch):
        conftest = self._bench_conftest()
        monkeypatch.setenv("REPRO_BENCH_APPS", "bfs,sorting")
        with pytest.raises(pytest.UsageError, match="sorting"):
            conftest.pytest_sessionstart(None)

    def test_bench_session_accepts_defaults(self):
        self._bench_conftest().pytest_sessionstart(None)


class TestTable4Detail:
    def test_per_graph_ratios(self):
        from repro.core.tables import table4_detail

        t = table4_detail("bfs", ["road-USA-W", "road-USA"])
        assert "road-USA" in t.data
        # The matrix API's extra passes show up in total memory accesses on
        # the round-dominated road graphs (paper §V-B bfs).
        for g in t.data:
            assert t.data[g]["memory_accesses"] > 1.0
            assert t.data[g]["instructions"] > 1.0

    def test_failed_cells_annotated(self):
        from repro.core.tables import table4_detail
        from repro.core.experiments import run_cell

        # uk07 tc: SS OOMs, but GB/LS complete -> numeric row expected.
        t = table4_detail("cc", ["road-USA-W"])
        assert t.text.count("\n") >= 1
