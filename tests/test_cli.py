"""CLI tests (``python -m repro ...``)."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_translate_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["translate"])

    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_sweep_verify_is_gone(self, capsys):
        # The registry's conformance check is ``fuzz --registry``.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--verify"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --verify" in capsys.readouterr().err

    def test_pool_subcommand_is_gone(self, capsys):
        # The daemon pool lives and dies with one process; jobs drive it.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["pool", "status"])
        assert exc.value.code == 2
        assert "invalid choice: 'pool'" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["run", "trace", "stats"])
    def test_app_help_lists_every_registry_app(self, cmd, capsys):
        from repro.scenarios import APP_ORDER

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        tags = help_text.split("benchmark tag (")[1].split(")")[0].split()
        assert sorted(tags) == sorted(APP_ORDER)

    @pytest.mark.parametrize("cmd", ["run", "trace", "stats"])
    @pytest.mark.parametrize("flag", ["--records", "--split-kb"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_sizes_are_usage_errors(self, cmd, flag, value,
                                                capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "WC", flag, value])
        assert exc.value.code == 2
        assert f"{flag}: must be >= 1" in capsys.readouterr().err

    # Knobs that used to be accepted and quietly do something else:
    # a non-positive --task-scale simulated one task, --show -3 printed
    # all but three outputs, --count -5 reported "0/-5 cases ... OK".
    @pytest.mark.parametrize("argv, complaint", [
        (["simulate", "WC", "--task-scale", "0"], "--task-scale: must be > 0"),
        (["simulate", "WC", "--task-scale", "-1"], "--task-scale: must be > 0"),
        (["simulate", "WC", "--task-scale", "nan"], "--task-scale: must be > 0"),
        (["trace", "WC", "--mode", "simulate", "--task-scale", "0"],
         "--task-scale: must be > 0"),
        (["stats", "WC", "--mode", "simulate", "--task-scale", "-1"],
         "--task-scale: must be > 0"),
        (["experiment", "fig4a", "--task-scale", "0"],
         "--task-scale: must be > 0"),
        (["simulate", "WC", "--gpus", "-1"], "--gpus: must be >= 0"),
        (["stats", "WC", "--mode", "simulate", "--gpus", "-2"],
         "--gpus: must be >= 0"),
        (["run", "WC", "--show", "-3"], "--show: must be >= 0"),
        (["fuzz", "--count", "-5"], "--count: must be >= 0"),
        # --time-budget -5 ran 0/5 cases and said OK; nan meant no budget.
        (["fuzz", "--time-budget", "0"], "--time-budget: must be > 0"),
        (["fuzz", "--time-budget", "-5"], "--time-budget: must be > 0"),
        (["fuzz", "--time-budget", "nan"], "--time-budget: must be > 0"),
        (["fuzz", "--time-budget", "inf"], "--time-budget: must be > 0"),
    ])
    def test_out_of_range_knobs_are_usage_errors(self, argv, complaint,
                                                 capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert complaint in capsys.readouterr().err

    def test_zero_is_a_valid_count(self):
        args = build_parser().parse_args(["run", "WC", "--show", "0"])
        assert args.show == 0
        args = build_parser().parse_args(["simulate", "WC", "--gpus", "0"])
        assert args.gpus == 0
        args = build_parser().parse_args(["fuzz", "--count", "0"])
        assert args.count == 0


#: ``vars(build_parser().parse_args(argv))`` per subcommand — every dest
#: and default — computed on the commit *before* cli.py declared each
#: shared option set once (``func`` recorded by name). One default moved
#: since: ``--gpus`` is ``None``, the cluster's own GPU count (it was 1,
#: which put Cluster2 at 1 GPU per node instead of Table 3's 3).
PARENT_NAMESPACES = {
    "apps": (["apps"], {"command": "apps", "func": "_cmd_apps"}),
    "translate": (["translate", "--app", "WC"], {
        "command": "translate", "func": "_cmd_translate", "app": "WC",
        "file": None, "optimize": True}),
    "run": (["run", "WC"], {
        "command": "run", "func": "_cmd_run", "app": "WC", "cluster": 1,
        "cpu_only": False, "records": 400, "seed": 7, "show": 8,
        "split_kb": 32, "workers": None}),
    "simulate": (["simulate", "BS"], {
        "command": "simulate", "func": "_cmd_simulate", "app": "BS",
        "cluster": 1, "gpus": None, "policy": None, "task_scale": 1.0}),
    "sweep": (["sweep"], {
        "command": "sweep", "func": "_cmd_sweep", "apps": None,
        "json": False, "list": False, "out": None, "policies": None,
        "scale": "small", "scenarios": None, "shapes": None}),
    "trace": (["trace", "WC"], {
        "command": "trace", "func": "_cmd_trace", "app": "WC", "cluster": 1,
        "cpu_only": False, "gpus": None, "mode": "local", "out": None,
        "policy": "tail", "records": 400, "seed": 7, "split_kb": 32,
        "task_scale": 0.02, "workers": None}),
    "stats": (["stats", "KM"], {
        "command": "stats", "func": "_cmd_stats", "app": "KM", "cluster": 1,
        "cpu_only": False, "gpus": None, "mode": "local", "policy": "tail",
        "records": 400, "seed": 7, "split_kb": 32, "task_scale": 0.02,
        "workers": None}),
    "fuzz": (["fuzz"], {
        "command": "fuzz", "func": "_cmd_fuzz", "corpus_dir": None,
        "count": 300, "kinds": None, "no_shrink": False, "quiet": False,
        "registry": False, "scale": "small", "seed": 0,
        "time_budget": None, "workers": None}),
    "experiment": (["experiment", "fig5"], {
        "command": "experiment", "func": "_cmd_experiment", "name": "fig5",
        "task_scale": 1.0}),
}

_POLICIES = ("cpu-only", "gpu-first", "tail")

#: Every flag of the commands that share an option set, with its
#: choices (None = free-form) — also from the parent commit.
PARENT_FLAGS = {
    "run": {"app": None, "--cluster": (1, 2), "--cpu-only": None,
            "--records": None, "--seed": None, "--show": None,
            "--split-kb": None, "--workers": None},
    "simulate": {"app": None, "--cluster": (1, 2), "--gpus": None,
                 "--policy": _POLICIES, "--task-scale": None},
    "trace": {"app": None, "--cluster": (1, 2), "--cpu-only": None,
              "--gpus": None, "--mode": ("local", "simulate"),
              "--policy": _POLICIES, "--records": None, "--seed": None,
              "--split-kb": None, "--task-scale": None, "--workers": None,
              "-o/--out": None},
    "stats": {"app": None, "--cluster": (1, 2), "--cpu-only": None,
              "--gpus": None, "--mode": ("local", "simulate"),
              "--policy": _POLICIES, "--records": None, "--seed": None,
              "--split-kb": None, "--task-scale": None, "--workers": None},
    "experiment": {"name": None, "--task-scale": None},
}


class TestOptionSurfaceUnchanged:
    @pytest.mark.parametrize("cmd", sorted(PARENT_NAMESPACES))
    def test_namespace_equals_parent(self, cmd):
        argv, expected = PARENT_NAMESPACES[cmd]
        namespace = vars(build_parser().parse_args(argv))
        namespace["func"] = namespace["func"].__name__
        assert namespace == expected

    def test_every_subcommand_is_pinned(self):
        assert set(_subparsers()) == set(PARENT_NAMESPACES)

    @pytest.mark.parametrize("cmd", sorted(PARENT_FLAGS))
    def test_flags_and_choices_equal_parent(self, cmd):
        import argparse

        flags = {
            "/".join(a.option_strings) or a.dest:
                tuple(a.choices) if a.choices else None
            for a in _subparsers()[cmd]._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert flags == PARENT_FLAGS[cmd]


def _subparsers():
    import argparse

    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


#: ``experiment <name>`` → (producer, its keywords, renderer, its title),
#: read off the parent's ``if name ==`` chain.
EXPERIMENTS = {
    "table1": ("tables.table1", {}, "render_table", "Table 1"),
    "table2": ("tables.table2", {}, "render_table", "Table 2"),
    "table3": ("tables.table3", {}, "render_table", "Table 3"),
    "fig3": ("figures.fig3", {}, "render_fig3", None),
    "fig4a": ("figures.fig4a", {"task_scale": 0.5}, "render_fig4",
              "Fig. 4a"),
    "fig4b": ("figures.fig4b", {"task_scale": 0.5}, "render_fig4",
              "Fig. 4b"),
    "fig5": ("figures.fig5", {}, "render_fig5", None),
    "fig6": ("figures.fig6", {}, "render_fig6", None),
    "fig7": ("figures.fig7", {"subfigure": None}, "render_fig7", None),
    **{f"fig7{sub}": ("figures.fig7", {"subfigure": f"7{sub}"},
                      "render_fig7", None) for sub in "abcde"},
}


class TestExperimentDispatch:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_name_reaches_its_producer_and_renderer(self, name, monkeypatch,
                                                    capsys):
        from repro import experiments

        producer, kwargs, renderer, title = EXPERIMENTS[name]
        calls = []

        def spy(label, result):
            def call(*args, **kw):
                calls.append((label, args, kw))
                return result
            return call

        module, func = producer.split(".")
        monkeypatch.setattr(getattr(experiments, module), func,
                            spy(producer, "DATA"))
        monkeypatch.setattr(experiments.report, renderer,
                            spy(renderer, "RENDERED"))
        assert main(["experiment", name, "--task-scale", "0.5"]) == 0
        assert capsys.readouterr().out == "RENDERED\n"
        (_, pargs, pkw), (_, rargs, rkw) = calls
        assert (pargs, pkw) == ((), kwargs)
        assert rargs + tuple(rkw.values()) == \
            (("DATA",) if title is None else ("DATA", title))

    def test_fourteen_names(self):
        assert len(EXPERIMENTS) == 14

    @pytest.mark.parametrize("name", ["fig99", "fig7z", "table4", ""])
    def test_unknown_name_fails_cleanly(self, name, capsys):
        assert main(["experiment", name]) == 1
        assert capsys.readouterr().err == \
            f"error: unknown experiment {name!r}\n"


class TestCommands:
    def test_apps_lists_every_registry_app(self, capsys):
        from repro.scenarios import APP_ORDER

        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for tag in APP_ORDER:
            assert tag in out

    def test_translate_app(self, capsys):
        assert main(["translate", "--app", "WC"]) == 0
        out = capsys.readouterr().out
        assert "__global__ void gpu_mapper" in out
        assert "Algorithm 1" in out

    @pytest.mark.parametrize("tag, plan", [
        ("KM", ["vector regions: 2"]),
        ("BS", ["vector regions: 1"]),
        ("CL", ["vector regions: 1", "  line 21: call"]),
        ("LR", ["vector regions: 0", "  line 25: loop-header",
                "  line 32: statement"]),
        ("PR", ["vector regions: 0", "  line 31: loop-header"]),
        ("WC", ["vector regions: 0", "  no for loop in kernel body"]),
    ])
    def test_translate_lists_the_lane_engine_plan(self, tag, plan, capsys):
        assert main(["translate", "--app", tag]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index(plan[0])
        # the plan is the whole block: a blank line ends it
        assert lines[start:start + len(plan) + 1] == plan + [""]

    def test_translate_file(self, tmp_path, capsys):
        src = tmp_path / "map.c"
        src.write_text("""
int main() {
    char *line; size_t n; int read, k, v;
    n = 64; line = (char*) malloc(64);
    #pragma mapreduce mapper key(k) value(v)
    while ( (read = getline(&line, &n, stdin)) != -1 ) {
        k = 1; v = 1; printf("%d\\t%d\\n", k, v);
    }
    return 0;
}
""")
        assert main(["translate", "--file", str(src)]) == 0
        assert "gpu_mapper" in capsys.readouterr().out

    def test_translate_unreadable_file_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nope.c"
        assert main(["translate", "--file", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: cannot read {missing}: "
                       "No such file or directory\n")

    @pytest.mark.parametrize("argv", [
        ["trace", "WC", "--records", "40"],
        ["sweep", "--scenarios", "wc-mini-tail"],
    ], ids=["trace", "sweep"])
    def test_unwritable_out_path_fails_cleanly(self, argv, tmp_path, capsys):
        # The job/sweep has run by then; the answer is still one error
        # line and exit 1, not a traceback.
        out = tmp_path / "no-such-dir" / "report.json"
        assert main(argv + ["-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: cannot write {out}: "
                                "No such file or directory\n")
        assert not out.parent.exists()

    @staticmethod
    def _map_report(out):
        """(map tasks, simulated ms, GPU tasks, CPU tasks) of a ``run``
        report — the map-time line reads the job's one task list, so it
        is printed on both paths."""
        tasks = int(re.search(r": (\d+) map tasks on the", out).group(1))
        ms, gpu, cpu = re.search(
            r"^simulated map time +: (\d+\.\d{3}) ms "
            r"\((\d+) GPU tasks, (\d+) CPU tasks\)$", out, re.M).groups()
        return tasks, float(ms), int(gpu), int(cpu)

    def test_run_small_job(self, capsys):
        assert main(["run", "HS", "--records", "80", "--split-kb", "1"]) == 0
        out = capsys.readouterr().out
        assert "map tasks" in out and "final keys" in out
        tasks, ms, gpu, cpu = self._map_report(out)
        assert ms > 0 and (gpu, cpu) == (tasks, 0) and tasks > 1

    def test_run_cpu_only(self, capsys):
        assert main(["run", "HS", "--records", "80", "--split-kb", "1",
                     "--cpu-only"]) == 0
        out = capsys.readouterr().out
        assert "CPU (Hadoop Streaming)" in out
        tasks, ms, gpu, cpu = self._map_report(out)
        assert ms > 0 and (gpu, cpu) == (0, tasks) and tasks > 1

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "kvpairs" in capsys.readouterr().out

    def test_experiment_fig3(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["experiment", "fig99"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_app_fails_cleanly(self, capsys):
        assert main(["run", "XX"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_local_writes_valid_json(self, tmp_path, capsys):
        import json

        from repro import obs

        out = tmp_path / "t.json"
        assert main(["trace", "HS", "--records", "80", "--split-kb", "8",
                     "-o", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert obs.validate_trace(trace) == []
        assert "chrome://tracing" in capsys.readouterr().err

    def test_stats_prints_span_and_counter_totals(self, capsys):
        assert main(["stats", "HS", "--records", "60",
                     "--split-kb", "8"]) == 0
        out = capsys.readouterr().out
        assert "spans by category" in out
        assert "gpu-task" in out
        assert "gpu.kernel_launches" in out

    def test_stats_simulate_mode(self, capsys):
        assert main(["stats", "WC", "--mode", "simulate",
                     "--policy", "tail", "--task-scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "attempt" in out
        assert "sim.heartbeats" in out

    @pytest.mark.parametrize("argv", [
        ["simulate", "KM", "--cluster", "2"],
        ["trace", "KM", "--cluster", "2", "--mode", "simulate"],
        ["stats", "KM", "--cluster", "2", "--mode", "simulate"],
    ])
    def test_simulating_a_table2_na_point_fails_cleanly(self, argv, capsys):
        # The task-time table has no KM/Cluster2 row: nothing runs on
        # an M2090 to find that out.
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: KM has no Table 2 entry for "
                                "Cluster2 (the paper marks it NA)\n")

    @pytest.mark.parametrize("argv, header", [
        (["CL", "--cluster", "2"], "CL on Cluster2 (3 GPU/node)"),
        (["CL", "--cluster", "2", "--gpus", "1"],
         "CL on Cluster2 (1 GPU/node)"),
        (["WC"], "WC on Cluster1 (1 GPU/node)"),
    ])
    def test_simulate_defaults_to_the_clusters_gpus(self, argv, header,
                                                    capsys):
        # Table 3: Cluster1 has 1 GPU per node, Cluster2 has 3.
        assert main(["simulate", *argv, "--policy", "tail",
                     "--task-scale", "0.02"]) == 0
        assert capsys.readouterr().out.startswith(header + ", ")

    def test_simulate_unknown_app_lists_the_known_tags(self, capsys):
        assert main(["simulate", "XX"]) == 1
        assert "unknown app 'XX'; known: ['BS'" in capsys.readouterr().err

    def test_stats_reports_reduce_breakdown(self, capsys):
        """``run`` and ``stats`` print the same simulated numbers at
        every worker count: only ``run``'s header names the workers and
        only ``stats`` lists the pool's own counters."""
        job = ["WC", "--records", "120", "--split-kb", "2"]
        outputs = []
        for workers in ("1", "2"):
            assert main(["run", *job, "--workers", workers]) == 0
            run_lines = capsys.readouterr().out.splitlines()[1:]
            assert main(["stats", *job, "--workers", workers]) == 0
            stats_lines = [line for line in capsys.readouterr().out
                           .splitlines() if "pool." not in line]
            outputs.append((run_lines, stats_lines))
        (run1, stats1), (run2, stats2) = outputs
        assert any(line.startswith("simulated map time") for line in run1)
        assert "reduce phase:" in stats1
        assert any("reduce.tasks" in line for line in stats1)
        assert run1 == run2
        assert stats1 == stats2
