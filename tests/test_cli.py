"""Tests for the ``python -m repro`` CLI."""

from repro.__main__ import main


def test_list_prints_ids(capsys):
    assert main(["--list"]) == 0
    printed = capsys.readouterr().out.split()
    assert "fig11" in printed
    assert "headline" in printed


def test_single_experiment(capsys):
    assert main(["tab01"]) == 0
    out = capsys.readouterr().out
    assert "Platform configuration" in out
    assert "Mate 60 Pro" in out


def test_quick_flag(capsys):
    assert main(["fig01", "--quick"]) == 0
    assert "CDF" in capsys.readouterr().out


def test_no_arguments_shows_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_experiment_id_runs_nothing(capsys, monkeypatch):
    import pytest

    import repro.__main__ as cli

    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda key, **_: ran.append(key))
    for argv, unknown in ((["fig05", "fig99"], "fig99"), (["fuzz"], "fuzz")):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert ran == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown experiment id(s) {unknown}" in captured.err.splitlines()[-1]


def test_faults_flag_runs_the_drill(capsys):
    assert main(["--faults", "none", "--scenario", "animation"]) == 0
    out = capsys.readouterr().out
    assert "fault drill" in out
    assert "vsync" in out and "dvsync" in out


def test_faults_flag_accepts_clause_syntax(capsys):
    clauses = "thermal(factor=2.0,start_ms=50,end_ms=150)"
    assert main(["--faults", clauses, "--scenario", "animation"]) == 0
    out = capsys.readouterr().out
    assert "thermal" in out
    assert "injected" in out


def test_trace_flag_writes_valid_chrome_trace(tmp_path, capsys, monkeypatch):
    import json

    from repro.telemetry.chrome import validate_chrome_trace

    monkeypatch.chdir(tmp_path)
    path = tmp_path / "out.json"
    assert main(["fig05", "--quick", "--trace", str(path), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "trace:" in out
    document = json.loads(path.read_text())
    assert validate_chrome_trace(document) > 0


def test_profile_flag_is_a_usage_error(capsys):
    import pytest

    with pytest.raises(SystemExit) as exit_info:
        main(["fig05", "--quick", "--profile"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --profile" in capsys.readouterr().err


def test_trace_metrics_are_identical_on_a_warm_cache(tmp_path, capsys, monkeypatch):
    """The warm run reads every snapshot back from the cache, byte for byte."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reports, traces = [], []
    for name in ("cold.json", "warm.json"):
        assert main(["fig05", "--quick", "--trace", name]) == 0
        out = capsys.readouterr().out
        # Everything after the trace path: its counts and the metrics table.
        reports.append(out.partition(f"trace: {name}")[2])
        traces.append((tmp_path / name).read_bytes())
    assert "23 cache hits" in out
    assert "display.presents" in reports[0] and "janks.drops" in reports[0]
    # Merging sums the per-run gauges, so they read as totals over the runs.
    values = dict(
        line.split() for line in reports[0].splitlines() if len(line.split()) == 2
    )
    assert values["run.presents"] == values["display.presents"]
    assert reports[0] == reports[1]
    assert traces[0] == traces[1]


def test_no_telemetry_flags_record_nothing(tmp_path, capsys, monkeypatch):
    from repro.telemetry import runtime

    monkeypatch.chdir(tmp_path)
    assert main(["fig05", "--quick", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "trace:" not in out and "display.presents" not in out
    assert runtime.enabled() is False
    assert runtime.collector().snapshots == []


def test_cache_subcommand_stats_gc_scrub(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE_QUOTA_MB", raising=False)
    assert main(["cache", "stats"]) == 0
    assert "0 entries" in capsys.readouterr().out
    assert main(["cache", "scrub"]) == 0
    assert "scrub: removed 0" in capsys.readouterr().out
    assert main(["cache", "gc", "--quota-mb", "1"]) == 0
    out = capsys.readouterr().out
    assert "gc: evicted 0 entries" in out
    assert "quota" in out


def test_cache_gc_requires_a_quota(tmp_path, capsys, monkeypatch):
    import pytest

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE_QUOTA_MB", raising=False)
    with pytest.raises(SystemExit):
        main(["cache", "gc"])
    assert "needs a quota" in capsys.readouterr().err


def test_governance_flags_validate(capsys):
    import pytest

    for flags in (
        ["fig05", "--max-events", "0"],
        ["fig05", "--memory-mb", "-1"],
        ["fig05", "--cache-quota-mb", "0"],
    ):
        with pytest.raises(SystemExit):
            main(flags)


def test_governance_flags_reach_the_executor(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert (
        main(
            [
                "fig05",
                "--quick",
                "--no-cache",
                "--max-events",
                "5000000",
                "--memory-mb",
                "8192",
            ]
        )
        == 0
    )
    assert "executor:" in capsys.readouterr().out
