"""Unit tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main
from repro.experiments import EXPERIMENTS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.model == "resnet50"
        assert args.gbps == 3.0
        assert args.sync == "bsp"

    def test_sweep_accepts_multiple_bandwidths(self):
        args = build_parser().parse_args(["sweep", "--gbps", "1", "2.5"])
        assert args.gbps == [1.0, 2.5]

    def test_experiments_list_matches_package(self):
        import repro.experiments as ex

        assert len(EXPERIMENTS) == 22
        for experiment in ex.EXPERIMENTS.values():
            assert callable(experiment.run) and experiment.tables

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.model == "resnet18"
        assert args.crash_at == 2.0
        assert args.restart_after == 0.5
        assert args.drop == 0.02
        assert args.backend == "ps"
        assert args.workers == 3
        assert args.n_servers == 1

    def test_chaos_accepts_backend_and_tier_flags(self):
        args = build_parser().parse_args(
            [
                "chaos",
                "--backend", "allreduce",
                "--collective", "hierarchical",
                "--group-size", "3",
                "--workers", "6",
            ]
        )
        assert args.backend == "allreduce"
        assert args.collective == "hierarchical"
        assert args.group_size == 3
        assert args.workers == 6
        args = build_parser().parse_args(["chaos", "--n-servers", "2"])
        assert args.n_servers == 2

    def test_run_accepts_jobs_and_no_cache(self):
        args = build_parser().parse_args(["run", "fig8", "-j", "4", "--no-cache"])
        assert args.jobs == 4
        assert args.no_cache is True
        args = build_parser().parse_args(["run", "fig8"])
        assert args.jobs is None
        assert args.no_cache is False

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.jobs is None
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_cache_defaults_to_stats(self):
        args = build_parser().parse_args(["cache"])
        assert args.action == "stats"
        args = build_parser().parse_args(["cache", "clear"])
        assert args.action == "clear"

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile", "fig8"])
        assert args.experiment == "fig8"
        assert args.top == 25
        assert args.sort == "cumulative"
        assert args.dump is None
        assert args.use_cache is False

    def test_profile_accepts_sort_and_dump(self):
        args = build_parser().parse_args(
            ["profile", "fig2", "--top", "10", "--sort", "tottime",
             "--dump", "out.prof", "--use-cache"]
        )
        assert args.top == 10
        assert args.sort == "tottime"
        assert args.dump == "out.prof"
        assert args.use_cache is True


class TestErrorHandling:
    """Unknown names exit with a one-line ``error:`` message and status 2
    instead of an argparse usage dump or a traceback."""

    def _assert_one_line_error(self, capsys, kind):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: unknown {kind}")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        self._assert_one_line_error(capsys, "experiment")

    def test_unknown_model_in_info(self, capsys):
        assert main(["info", "lenet"]) == 2
        self._assert_one_line_error(capsys, "model")

    def test_unknown_strategy_in_sched(self, capsys):
        assert main(["sched", "tcp-fair"]) == 2
        self._assert_one_line_error(capsys, "strategy")

    def test_unknown_model_in_compare(self, capsys):
        assert main(["compare", "--model", "lenet"]) == 2
        self._assert_one_line_error(capsys, "model")

    def test_unknown_model_in_chaos(self, capsys):
        assert main(["chaos", "--model", "lenet"]) == 2
        self._assert_one_line_error(capsys, "model")

    def test_unknown_experiment_in_profile(self, capsys):
        assert main(["profile", "fig99"]) == 2
        self._assert_one_line_error(capsys, "experiment")

    @pytest.mark.parametrize("command", ["run", "profile"])
    @pytest.mark.parametrize("name", ["common", "fig3a"])
    def test_only_registry_names_run(self, capsys, command, name):
        # A module of the package or a panel of a figure is not an entry.
        assert name not in EXPERIMENTS
        assert main([command, name]) == 2
        self._assert_one_line_error(capsys, "experiment")

    def test_error_message_lists_alternatives(self, capsys):
        main(["sched", "tcp-fair"])
        err = capsys.readouterr().err
        assert "prophet" in err and "bytescheduler" in err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out
        assert "prophet" in out
        assert "table2" in out

    def test_list_prints_exactly_the_registry(self, capsys):
        assert main(["list"]) == 0
        line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("experiments:")
        )
        assert line.split(":", 1)[1].strip().split(", ") == list(EXPERIMENTS)

    def test_info(self, capsys):
        assert main(["info", "resnet50"]) == 0
        out = capsys.readouterr().out
        assert "25,557,032" in out
        assert "161" in out

    def test_compare_runs_tiny_sweep(self, capsys):
        code = main(
            [
                "compare",
                "--model", "resnet18",
                "--batch", "16",
                "--gbps", "4",
                "--workers", "2",
                "--iterations", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "prophet" in out
        assert "mg-wfbp" in out

    def test_sweep_prints_all_bandwidth_rows(self, capsys):
        code = main(
            [
                "sweep",
                "--model", "resnet18",
                "--batch", "16",
                "--gbps", "2", "8",
                "--workers", "2",
                "--iterations", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 4

    def test_chaos_runs_tiny_plan(self, capsys):
        code = main(
            [
                "chaos",
                "--model", "resnet18",
                "--batch", "16",
                "--iterations", "4",
                "--crash-at", "0.4",
                "--restart-after", "0.2",
                "--drop", "0.03",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "goodput retained" in out
        assert "prophet" in out and "mxnet-fifo" in out

    def test_chaos_runs_on_ring_allreduce(self, capsys):
        code = main(
            [
                "chaos",
                "--backend", "allreduce",
                "--model", "resnet18",
                "--batch", "16",
                "--workers", "2",
                "--iterations", "4",
                "--crash-at", "0.4",
                "--restart-after", "0.2",
                "--drop", "0.03",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stall amp." in out
        assert "allreduce/ring" in out


class TestRunnerCommands:
    def test_run_restores_runner_environment(self, capsys, monkeypatch):
        from repro.runner import JOBS_ENV, NO_CACHE_ENV

        monkeypatch.setenv(JOBS_ENV, "2")
        monkeypatch.delenv(NO_CACHE_ENV, raising=False)
        assert main(["run", "fig4", "-j", "1", "--no-cache"]) == 0
        assert os.environ[JOBS_ENV] == "2"
        assert NO_CACHE_ENV not in os.environ

    def test_run_rejects_bad_job_count(self, capsys):
        assert main(["run", "fig8", "-j", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "jobs" in err

    def test_cache_stats_and_clear(self, capsys, tmp_path):
        from repro.runner import ResultCache
        from tests.runner.test_cache import FP, _result

        ResultCache(tmp_path).put(FP, _result())

        assert main(["cache", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "1" in out

        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
        assert ResultCache(tmp_path).stats().entries == 0

    def test_bench_reports_time_and_cache(self, capsys, tmp_path, monkeypatch):
        import repro.experiments.fig8 as fig8

        monkeypatch.setattr(
            fig8, "DEFAULT_WORKLOADS", (("resnet18", 16),)
        )
        code = main(["bench", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "wall time" in out
        assert "0 hits, 2 misses" in out

        # Warm rerun: everything served from the cache.
        assert main(["bench", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 hits, 0 misses" in out

    def test_bench_no_cache_skips_store(self, capsys, tmp_path, monkeypatch):
        import repro.experiments.fig8 as fig8

        monkeypatch.setattr(
            fig8, "DEFAULT_WORKLOADS", (("resnet18", 16),)
        )
        code = main(["bench", "--no-cache", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache: disabled" in out
        assert not list(tmp_path.rglob("*.json"))


class TestSchedCommand:
    def test_sched_defaults(self):
        args = build_parser().parse_args(["sched", "prophet"])
        assert args.strategy == "prophet"
        assert args.trace is None
        assert args.trace_jsonl is None

    def test_sched_untraced_run(self, capsys):
        code = main(
            [
                "sched", "prophet",
                "--model", "resnet18",
                "--batch", "16",
                "--gbps", "4",
                "--workers", "2",
                "--iterations", "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "training rate" in out
        assert "mean gradient wait" in out
        assert "trace:" not in out  # no trace summary without --trace

    def test_sched_traced_run_writes_chrome_json(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "run.json"
        jsonl_path = tmp_path / "run.jsonl"
        code = main(
            [
                "sched", "prophet",
                "--model", "resnet18",
                "--batch", "16",
                "--gbps", "4",
                "--workers", "2",
                "--iterations", "6",
                "--trace", str(trace_path),
                "--trace-jsonl", str(jsonl_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        events = json.loads(trace_path.read_text())["traceEvents"]
        span_cats = {e.get("cat") for e in events if e.get("ph") == "X"}
        assert {"compute", "assembly", "transfer"} <= span_cats
        assert jsonl_path.read_text().count("\n") == sum(
            1 for e in events if e.get("ph") != "M"
        )


class TestPsTierFlags:
    def test_defaults_leave_config_untouched(self):
        for cmd in ("compare", "sched", "sweep"):
            argv = [cmd, "prophet"] if cmd == "sched" else [cmd]
            args = build_parser().parse_args(argv)
            assert args.n_servers == 1
            assert args.ps_gbps is None

    def test_parse_n_servers_and_ps_gbps(self):
        args = build_parser().parse_args(
            ["sched", "prophet", "--n-servers", "4", "--ps-gbps", "3"]
        )
        assert args.n_servers == 4
        assert args.ps_gbps == 3.0

    def test_sched_runs_sharded(self, capsys):
        code = main(
            [
                "sched", "prophet",
                "--model", "resnet18",
                "--batch", "16",
                "--gbps", "10",
                "--workers", "2",
                "--iterations", "5",
                "--n-servers", "2",
                "--ps-gbps", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "training rate" in out

    def test_invalid_n_servers_is_clean_error(self, capsys):
        code = main(["sched", "prophet", "--n-servers", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestBackendFlags:
    def test_defaults_leave_config_untouched(self):
        # --collective/--group-size default to None sentinels so the CLI
        # can tell "never mentioned" from "typed the default" when
        # rejecting PS/allreduce flag mixtures; resolution to ring/2
        # happens only once --backend allreduce is validated.
        for cmd in ("compare", "sched"):
            argv = [cmd, "prophet"] if cmd == "sched" else [cmd]
            args = build_parser().parse_args(argv)
            assert args.backend == "ps"
            assert args.collective is None
            assert args.group_size is None

    def test_parse_backend_and_collective(self):
        args = build_parser().parse_args(
            ["compare", "--backend", "allreduce",
             "--collective", "hierarchical", "--group-size", "4"]
        )
        assert args.backend == "allreduce"
        assert args.collective == "hierarchical"
        assert args.group_size == 4

    def test_compare_runs_allreduce(self, capsys):
        code = main(
            [
                "compare",
                "--model", "resnet18",
                "--batch", "16",
                "--gbps", "4",
                "--workers", "2",
                "--iterations", "5",
                "--backend", "allreduce",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ring allreduce" in out
        assert "prophet" in out and "mg-wfbp" in out

    def test_sched_runs_hierarchical(self, capsys):
        code = main(
            [
                "sched", "prophet",
                "--model", "resnet18",
                "--batch", "16",
                "--gbps", "4",
                "--workers", "4",
                "--iterations", "5",
                "--backend", "allreduce",
                "--collective", "hierarchical",
                "--group-size", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "training rate" in out
        assert "hierarchical allreduce" in out

    def test_allreduce_rejects_ps_tier_flags(self, capsys):
        code = main(
            ["compare", "--backend", "allreduce", "--n-servers", "2"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFlagRejectionMatrix:
    """Invalid flag combinations fail fast with one-line errors, exit 2.

    Every row is a combination that the parser would otherwise accept and
    then silently ignore half of — the CLI's error contract promises an
    ``error: ...`` line on stderr instead.
    """

    @pytest.mark.parametrize(
        ("argv", "fragment"),
        [
            (["compare", "--backend", "allreduce", "--n-servers", "2"],
             "--n-servers is a parameter-server knob"),
            (["compare", "--backend", "allreduce", "--ps-gbps", "4"],
             "--ps-gbps is a parameter-server knob"),
            (["compare", "--collective", "ring"],
             "--collective requires --backend allreduce"),
            (["compare", "--collective", "hierarchical"],
             "--collective requires --backend allreduce"),
            (["compare", "--group-size", "4"],
             "--group-size requires --backend allreduce"),
            (["sched", "prophet", "--group-size", "2"],
             "--group-size requires --backend allreduce"),
            (["sched", "prophet", "--backend", "allreduce",
              "--group-size", "2"],
             "--group-size only applies to --collective hierarchical"),
            (["sched", "prophet", "--backend", "allreduce",
              "--collective", "ring", "--group-size", "2"],
             "--group-size only applies to --collective hierarchical"),
            (["chaos", "--backend", "allreduce", "--n-servers", "2"],
             "--n-servers is a parameter-server knob"),
            (["chaos", "--collective", "hierarchical"],
             "--collective requires --backend allreduce"),
            (["chaos", "--workers", "1"],
             "--workers must be >= 2 (chaos crashes worker 1), got 1"),
        ],
        ids=[
            "allreduce-n-servers", "allreduce-ps-gbps",
            "ring-without-backend", "hierarchical-without-backend",
            "group-size-without-backend", "sched-group-size-without-backend",
            "group-size-without-hierarchical",
            "group-size-with-ring", "chaos-allreduce-n-servers",
            "chaos-collective-without-backend", "chaos-one-worker",
        ],
    )
    def test_rejected_with_one_line_error(self, capsys, argv, fragment):
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert fragment in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--bogus-flag"],
            ["sched"],  # missing strategy positional
            ["fleet", "--policy", "lottery"],
            ["fleet", "--n-jobs", "many"],
        ],
        ids=["unknown-flag", "missing-positional", "bad-choice", "bad-int"],
    )
    def test_parse_failures_follow_the_same_contract(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_valid_hierarchical_combo_still_parses(self):
        args = build_parser().parse_args(
            ["compare", "--backend", "allreduce",
             "--collective", "hierarchical", "--group-size", "4"]
        )
        assert args.group_size == 4


class TestFleetCommand:
    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.n_jobs == 8
        assert args.policy == "fifo"
        assert args.strategies == ["prophet"]

    def test_fleet_runs_and_prints_summary(self, capsys):
        code = main(
            [
                "fleet", "--n-jobs", "3", "--policy", "fifo",
                "--strategies", "prophet", "mg-wfbp",
                "--iterations", "3", "--interarrival", "0.01",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet goodput" in out
        assert "Jain fairness" in out
        assert "per-strategy breakdown" in out

    def test_fleet_rejects_unknown_strategy(self, capsys):
        code = main(["fleet", "--strategies", "prophet", "warlock"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "warlock" in err
