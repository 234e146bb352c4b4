"""Command-line entry point: ``python -m repro``.

Thin wrapper over the experiment registry so the paper's artifacts can be
regenerated without writing any code:

    python -m repro --list
    python -m repro fig11 fig15
    python -m repro --all --quick

and over the fault drill, for robustness questions:

    python -m repro --faults standard
    python -m repro --faults "vsync-jitter(sigma_us=500);thermal(factor=2.5,start_ms=300,end_ms=800)" --scenario interaction

and over the telemetry subsystem, for observability questions:

    python -m repro fig05 --trace out.json
    python -m repro --all --quick --trace all.json

and over the verification subsystem, for correctness questions:

    python -m repro --verify
    python -m repro --verify --jobs 4

and over the resource governor, for runs that must stay bounded:

    python -m repro --all --max-events 2000000 --memory-mb 2048 --keep-going
    python -m repro cache stats
    python -m repro cache gc --quota-mb 256
    python -m repro cache scrub
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from repro.errors import ConfigurationError
from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.exec.executor import Executor, set_default_executor
from repro.exec.governor import ResourceBudget, budget_from_env
from repro.experiments import registry
from repro.experiments.registry import EXPERIMENTS, run_all, run_experiment
from repro.experiments.runner import DEFAULT_RUNS
from repro.faults.drill import DRILL_SCENARIOS, run_fault_drill
from repro.metrics.report import format_table
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.chrome import save_chrome_trace


def _cache_main(argv: list[str]) -> int:
    """``python -m repro cache stats|gc|scrub`` — result-cache maintenance."""
    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Inspect and maintain the on-disk result cache.",
    )
    parser.add_argument(
        "action",
        choices=("stats", "gc", "scrub"),
        help=(
            "stats prints quota/usage/eviction counters; gc LRU-evicts "
            "entries until the store fits its disk quota; scrub eagerly "
            "removes entries that no longer deserialize"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: REPRO_CACHE_DIR or .repro-cache/)",
    )
    parser.add_argument(
        "--quota-mb",
        type=float,
        default=None,
        metavar="MB",
        help="disk quota for gc (default: REPRO_CACHE_QUOTA_MB)",
    )
    args = parser.parse_args(argv)
    if args.quota_mb is not None and not args.quota_mb > 0:
        parser.error("--quota-mb must be > 0")
    cache_dir = args.cache_dir or os.environ.get(
        "REPRO_CACHE_DIR", DEFAULT_CACHE_DIR
    )
    try:
        budget = budget_from_env()
    except ConfigurationError as exc:
        parser.error(str(exc))
    quota_bytes = None
    if args.quota_mb is not None:
        quota_bytes = int(args.quota_mb * 1024 * 1024)
    elif budget is not None:
        quota_bytes = budget.cache_quota_bytes
    cache = ResultCache(cache_dir, quota_bytes=quota_bytes)
    if args.action == "gc":
        if quota_bytes is None:
            parser.error(
                "gc needs a quota: pass --quota-mb or set REPRO_CACHE_QUOTA_MB"
            )
        print(f"gc: evicted {cache.gc()} entries")
    elif args.action == "scrub":
        print(f"scrub: removed {cache.scrub()} corrupt entries")
    print(cache.describe())
    return 0


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "cache":
        return _cache_main(arguments[1:])
    argv = arguments
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate D-VSync paper artifacts (figures/tables).",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids, e.g. fig11 tab02")
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="subset/fast mode: experiments trim scenarios and cap repetitions",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=DEFAULT_RUNS,
        help=(
            "repetitions per scenario (default: %(default)s; --quick may cap "
            "this further per experiment)"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "parallel simulation workers (default: all CPUs); 1 runs "
            "in-process"
        ),
    )
    parser.add_argument(
        "--engine",
        choices=("auto", "event", "fastpath"),
        default=None,
        help=(
            "simulation engine for engine='auto' specs: 'auto' (default) "
            "replays trace-pure runs through the vectorized fastpath and "
            "falls back to the event loop, 'event' forces the full "
            "discrete-event simulator, 'fastpath' forces replay (errors on "
            "specs that cannot be replayed)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed result cache (.repro-cache/)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-run wall-clock deadline; an overdue run fails with a "
            "structured timeout record instead of hanging the batch"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "extra attempts for crashed or timed-out runs (default: 1), "
            "with seeded-deterministic backoff; 0 disables retrying"
        ),
    )
    policy_group = parser.add_mutually_exclusive_group()
    policy_group.add_argument(
        "--fail-fast",
        dest="policy",
        action="store_const",
        const="fail-fast",
        help=(
            "abort on the first failed run after salvaging its batch "
            "siblings (default)"
        ),
    )
    policy_group.add_argument(
        "--keep-going",
        dest="policy",
        action="store_const",
        const="keep-going",
        help=(
            "run everything runnable; failed runs are dropped from "
            "aggregates and reported as structured failure records"
        ),
    )
    parser.set_defaults(policy="fail-fast")
    parser.add_argument(
        "--max-events",
        type=int,
        default=None,
        metavar="N",
        help=(
            "per-run simulator event budget; a run trips at exactly this "
            "many events with a deterministic, replayable 'budget' failure"
        ),
    )
    parser.add_argument(
        "--memory-mb",
        type=int,
        default=None,
        metavar="MB",
        help=(
            "per-run worker address-space cap (RLIMIT_AS, process backend); "
            "a blown cap fails the run with kind 'oom' instead of invoking "
            "the OS OOM-killer on the pool"
        ),
    )
    parser.add_argument(
        "--cache-quota-mb",
        type=float,
        default=None,
        metavar="MB",
        help=(
            "result-cache disk quota; every store LRU-evicts back under it "
            "(see also: python -m repro cache gc)"
        ),
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help=(
            "print result-cache contents; combined with experiment ids or "
            "--all, runs them first and also reports how many specs the "
            "batch collapsed by content hash (deduped)"
        ),
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        help=(
            "run the fault drill under SPEC: 'standard', 'none', or "
            "'kind(key=value,...);...' clauses (see repro.faults)"
        ),
    )
    parser.add_argument(
        "--scenario",
        default="composite",
        choices=DRILL_SCENARIOS,
        help="scenario for the fault drill (default: composite)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help="seed for the fault drill rngs"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "run the correctness suite: the differential VSync/D-VSync "
            "oracle over every registered scenario, then the golden-trace "
            "comparator (exit 1 on any failed claim or drifted golden)"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "record telemetry and write a Chrome trace JSON of every "
            "instrumented run (load in Perfetto or chrome://tracing), then "
            "print the runs' merged metrics"
        ),
    )
    args = parser.parse_args(argv)
    unknown = [key for key in args.ids if key not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment id(s) {', '.join(unknown)}; see --list")

    if args.trace is not None:
        telemetry_runtime.reset()
        telemetry_runtime.set_enabled(True)

    cache_dir = os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
    if args.cache_stats and not (args.all or args.ids):
        print(ResultCache(cache_dir).describe())
        return 0
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.timeout is not None and not args.timeout > 0:
        parser.error("--timeout must be > 0 seconds")
    if args.retries is not None and args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.max_events is not None and args.max_events < 1:
        parser.error("--max-events must be >= 1")
    if args.memory_mb is not None and args.memory_mb < 1:
        parser.error("--memory-mb must be >= 1")
    if args.cache_quota_mb is not None and not args.cache_quota_mb > 0:
        parser.error("--cache-quota-mb must be > 0")
    try:
        budget = budget_from_env()
    except ConfigurationError as exc:
        parser.error(str(exc))
    overrides = {
        name: value
        for name, value in (
            ("max_events", args.max_events),
            ("memory_mb", args.memory_mb),
            ("cache_quota_mb", args.cache_quota_mb),
        )
        if value is not None
    }
    if overrides:
        budget = dataclasses.replace(budget or ResourceBudget(), **overrides)
    if args.engine is not None:
        from repro.fastpath.engine import set_default_engine

        # The env var makes process-pool workers inherit the choice; the
        # setter covers this process, whose default may already be cached.
        os.environ["REPRO_ENGINE"] = args.engine
        set_default_engine(args.engine)
    executor = Executor(
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=cache_dir,
        timeout_s=args.timeout,
        retries=args.retries,
        policy=args.policy,
        budget=budget,
    )
    set_default_executor(executor)

    if args.verify:
        from repro.verify.golden import check_goldens
        from repro.verify.oracle import run_differential_oracle

        oracle_report = run_differential_oracle(executor=executor)
        golden_report = check_goldens(executor=executor)
        try:
            print(oracle_report.render())
            print()
            print(golden_report.render())
            print(f"executor: {executor.stats.describe()}")
        except BrokenPipeError:  # piping into `head` etc. is fine
            pass
        executor.close()
        return 0 if oracle_report.passed and golden_report.passed else 1
    if args.faults is not None:
        try:
            drill = run_fault_drill(
                args.faults,
                scenario=args.scenario,
                seed=args.fault_seed,
                timeout_s=args.timeout,
            )
        except ConfigurationError as exc:
            parser.error(str(exc))  # exits 2 with a one-line message
        try:
            print(drill.render())
        except BrokenPipeError:  # piping into `head` etc. is fine
            pass
        return 0
    if args.list:
        try:
            for experiment_id in EXPERIMENTS:
                print(experiment_id)
        except BrokenPipeError:  # piping into `head` etc. is fine
            pass
        return 0
    if args.all:
        results = run_all(runs=args.runs, quick=args.quick)
    elif args.ids:
        results = [
            run_experiment(experiment_id, runs=args.runs, quick=args.quick)
            for experiment_id in args.ids
        ]
    else:
        parser.print_help()
        return 2
    try:
        for result in results:
            print(result.render())
            print()
        print(f"executor: {executor.stats.describe()}")
        if args.all and registry.last_union_stats is not None:
            print(f"study: {registry.last_union_stats.describe()}")
        if args.cache_stats:
            print(
                f"dedup: {executor.stats.deduplicated} specs collapsed by "
                f"content hash within batches"
            )
        if executor.cache is not None:
            print(executor.cache.describe())
        if args.trace is not None:
            collector = telemetry_runtime.collector()
            document = save_chrome_trace(args.trace, collector.snapshots)
            print(
                f"trace: {args.trace} ({len(collector.snapshots)} runs, "
                f"{len(document['traceEvents'])} events)"
            )
            metrics = collector.merged_metrics()
            rows = [[name, metrics.value(name)] for name in metrics.names()]
            if rows:
                print(format_table(["metric", "value"], rows))
    except BrokenPipeError:  # piping into `head` etc. is fine
        pass
    executor.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
