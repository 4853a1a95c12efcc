"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   simulate a corpus and print its statistics (Table 2 style)
``evaluate``   evaluate one model on one source and print MAP vs baselines
``sweep``      run a configuration sweep and save it as JSON
``replay``     stream timelines through incremental profile updates,
               checking parity against batch rebuilds
``monitor``    live progress view of a running sweep (events file or journal)
``export``     convert saved telemetry: chrome-trace JSON, flamegraph
               formats (collapsed stacks, speedscope)
``profile``    statistical stack profiling: wrap sweep/replay/evaluate
               under a sampler, or diff two saved profiles
``report``     render a saved sweep as the paper's figures/tables, or a
               saved trace or profile
``lint``       run reprolint, the repo's AST-based invariant linter

``evaluate`` and ``sweep`` accept observability flags: ``--trace-out
trace.json`` saves a span trace (manifest + per-phase timing tree +
metrics), ``--log-json [PATH]`` streams structured JSON-lines events
(to stderr when no path is given), and ``--profile-resources`` runs the
background sampler so every span also records its memory cost and the
trace carries a stack profile. ``report --artifact trace --trace
trace.json`` renders a saved trace as one per-phase tree with wall,
self, CPU and memory columns, followed by TTime/ETime, peak RSS, the
serial critical path, the top straggler cells and the parallel
efficiency; ``--artifact hotspots`` renders its profile.

A running sweep narrates itself: executors emit heartbeat events (cell
started/finished with worker id and attempt, EWMA cell rate, ETA) into
the event stream and, when journaling, into the journal. ``repro
monitor PATH`` renders that state -- cells done/total, per-worker
occupancy, quarantine count, ETA -- either once (``--snapshot``, with
``--json`` for machines) or as a refreshing view. ``repro export trace
--trace trace.json`` converts a saved span trace to Chrome trace-event
JSON (open in https://ui.perfetto.dev). ``sweep --progress`` drives a
minimal inline progress line; add ``--quiet`` to drop the per-cell
lines and keep only that.

``sweep`` supervises its cells: ``--cell-timeout`` bounds each attempt's
wall clock (with ``--jobs``), ``--max-attempts``/``--retry-backoff``
shape the retry policy, and cells that exhaust their attempts are
*quarantined* -- the sweep completes, reports them, exits 3, and a
``--resume`` run retries exactly those cells. ``--inject-faults
plan.json`` (or the ``REPRO_FAULT_PLAN`` variable) arms deterministic
fault injection for testing those paths; see ``repro.faults``.

Examples
--------
::

    python -m repro generate --users 40 --ticks 150 --seed 7
    python -m repro evaluate --model TN --source R --users 40 --trace-out trace.json
    python -m repro sweep --out sweep.json --sources R T --fast --log-json
    python -m repro sweep --out sweep.json --jobs 4 --journal --progress --quiet
    python -m repro sweep --out sweep.json --fast --temporal none half-life:3600
    python -m repro replay --users 16 --ticks 40 --group-size 3 --min-retweets 3
    python -m repro replay --models TN TNG --jobs 2 --json replay.json
    python -m repro monitor sweep.journal.jsonl --snapshot
    python -m repro export trace --trace trace.json --out trace.chrome.json
    python -m repro report --artifact trace --trace trace.json --top 5
    python -m repro profile -- sweep --out sweep.json --fast --jobs 2
    python -m repro profile --hz 251 --out pr.json -- evaluate --model LDA
    python -m repro profile diff before.json after.json
    python -m repro export profile --profile profile.json --format speedscope
    python -m repro report --artifact hotspots --profile profile.json --top 10
    python -m repro report --sweep sweep.json --artifact figure --group "All Users"
    python -m repro lint src benchmarks tests --format json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Iterator, Sequence
from contextlib import ExitStack, contextmanager
from functools import lru_cache
from pathlib import Path

from repro.core.pipeline import ExperimentPipeline
from repro.core.sources import ALL_SOURCES, RepresentationSource
from repro.core.temporal import TemporalWeighting
from repro.errors import ConfigurationError, PersistenceError
from repro.eval.metrics import map_over_users
from repro.experiments.configs import MODEL_NAMES, ConfigGrid, ModelConfig, cross_temporal
from repro.experiments.executors import (
    GridSpec,
    PipelineSpec,
    ProcessCellExecutor,
    SerialCellExecutor,
    SweepSpec,
)
from repro.experiments.persistence import SweepJournal, load_sweep, save_sweep
from repro.experiments.replay import REPLAY_MODELS, ReplaySpec, run_replay
from repro.experiments.supervision import RetryPolicy, SupervisionPolicy
from repro.faults import FaultPlan
from repro.experiments.report import (
    format_figure7,
    format_figure_map,
    format_table2,
    format_table6,
    format_table7,
)
from repro.experiments.runner import SweepRunner
from repro.experiments.standard import bench_grid, fast_grid
from repro.obs import (
    DEFAULT_HZ,
    JsonLinesSink,
    RunManifest,
    Sampler,
    Telemetry,
    active_sampler,
    collapsed_stacks,
    format_chrome_trace,
    format_hotspots,
    format_profile_diff,
    format_snapshot,
    format_trace_report,
    load_profile,
    load_progress,
    load_trace,
    speedscope_document,
)
from repro.twitter.dataset import DatasetConfig, generate_dataset, select_user_groups
from repro.twitter.entities import UserType
from repro.twitter.stats import group_statistics

__all__ = ["main", "build_parser"]


def _make_dataset(args: argparse.Namespace):
    dataset = generate_dataset(
        DatasetConfig(n_users=args.users, n_ticks=args.ticks, seed=args.seed)
    )
    groups = select_user_groups(
        dataset, group_size=args.group_size, min_retweets=args.min_retweets
    )
    return dataset, groups


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", type=int, default=40, help="simulated users")
    parser.add_argument("--ticks", type=int, default=150, help="simulation ticks")
    parser.add_argument("--seed", type=int, default=7, help="random seed")
    parser.add_argument("--group-size", type=int, default=8, help="users per group")
    parser.add_argument(
        "--min-retweets", type=int, default=8,
        help="eligibility threshold for evaluated users",
    )


@lru_cache(maxsize=1)
def _fast_configs() -> dict[str, ModelConfig]:
    """One fast_grid scan, indexed by model name (built once per process)."""
    return {config.model: config for config in fast_grid(seed=0)}


def _build_model(name: str):
    """The fast_grid representative configuration of a model."""
    config = _fast_configs().get(name)
    if config is None:
        raise SystemExit(f"unknown model {name!r}; pick from {', '.join(MODEL_NAMES)}")
    return config.build()


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="save a span trace (manifest + timing tree + metrics) as JSON",
    )
    parser.add_argument(
        "--log-json", metavar="PATH", nargs="?", const="-", default=None,
        help="stream structured JSON-lines events (to stderr without PATH)",
    )
    parser.add_argument(
        "--profile-resources", action="store_true",
        help="sample RSS/CPU per span and stacks so the trace carries memory "
             "columns (report --artifact trace) and a profile "
             "(report --artifact hotspots)",
    )


@contextmanager
def _telemetry_scope(
    args: argparse.Namespace, command: str, models: Sequence[str]
) -> Iterator[Telemetry | None]:
    """Telemetry wired from the observability flags, for one command run.

    Yields None when no flag asked for telemetry. Otherwise the scope
    owns the whole lifecycle: the sampler (from ``--profile-resources``)
    runs for the command body, the manifest's wall clock is stamped,
    the trace is saved -- with the sampler's profile, once the sampler
    has exited and banked its wall time -- and the JSON-lines sink is
    closed, also on error, so an interrupted run still leaves a
    readable partial trace.

    An active :class:`Sampler` (the ``repro profile`` wrapper) also
    forces telemetry on: the profiler needs open spans for attribution,
    and worker profile payloads only flow through
    :meth:`Telemetry.absorb`. It serves ``--profile-resources`` too, so
    the process runs one sampling thread.
    """
    if not (
        args.trace_out
        or args.log_json
        or args.profile_resources
        or active_sampler() is not None
    ):
        yield None
        return
    with ExitStack() as stack:
        manifest = RunManifest.create(
            seed=args.seed,
            dataset={
                "n_users": args.users,
                "n_ticks": args.ticks,
                "group_size": args.group_size,
                "min_retweets": args.min_retweets,
            },
            models=list(models),
            command=command,
        )
        telemetry = Telemetry(manifest=manifest)
        if args.log_json:
            sink = JsonLinesSink(args.log_json)
            stack.callback(sink.close)
            telemetry.events.add_sink(sink)
        sampler = None
        try:
            with ExitStack() as sampling:
                if args.profile_resources and active_sampler() is None:
                    sampler = sampling.enter_context(Sampler())
                yield telemetry
        finally:
            manifest.finish()
            if args.trace_out:
                profile = sampler.profile if sampler is not None else None
                path = telemetry.save_trace(args.trace_out, profile)
                print(f"trace written to {path}")


def cmd_generate(args: argparse.Namespace) -> int:
    dataset, groups = _make_dataset(args)
    print(dataset)
    print()
    print(format_table2(group_statistics(dataset, groups)))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    with _telemetry_scope(args, "evaluate", [args.model]) as telemetry:
        dataset, groups = _make_dataset(args)
        pipeline = ExperimentPipeline(
            dataset, seed=args.seed, max_train_docs_per_user=args.max_train_docs,
            telemetry=telemetry,
        )
        users = pipeline.eligible_users(groups[UserType.ALL])
        model = _build_model(args.model)
        source = RepresentationSource(args.source)
        result = pipeline.evaluate(model, source, users)
        ran = map_over_users(pipeline.evaluate_random(users, iterations=200))
        chrono = map_over_users(pipeline.evaluate_chronological(users))
        print(f"model {args.model} on source {source.value} over {len(users)} users")
        print(f"  MAP  = {result.map_score:.3f}")
        print(f"  RAN  = {ran:.3f}")
        print(f"  CHR  = {chrono:.3f}")
        print(f"  TTime = {result.training_seconds:.2f}s  ETime = {result.testing_seconds:.3f}s")
    return 0


def _journal_path(args: argparse.Namespace) -> Path | None:
    """Resolve the journal path from ``--journal`` / ``--resume``.

    ``--journal`` without a PATH (and plain ``--resume``) derive it from
    the output file, so ``--out sweep.json`` journals to
    ``sweep.journal.jsonl``.
    """
    if args.journal is not None:
        return Path(args.journal) if args.journal else Path(args.out).with_suffix(
            ".journal.jsonl"
        )
    if args.resume:
        return Path(args.out).with_suffix(".journal.jsonl")
    return None


def _temporal_axis(specs: Sequence[str] | None) -> tuple[TemporalWeighting, ...]:
    """Parse ``--temporal`` specs, turning config errors into usage errors."""
    if not specs:
        return ()
    try:
        return tuple(TemporalWeighting.parse(spec) for spec in specs)
    except ConfigurationError as error:
        raise SystemExit(f"--temporal: {error}") from error


def cmd_sweep(args: argparse.Namespace) -> int:
    temporal_axis = _temporal_axis(args.temporal)
    if args.fast:
        grid = bench_grid(seed=args.seed, temporal_axis=temporal_axis)
        configs = cross_temporal(fast_grid(seed=args.seed), temporal_axis)
    else:
        grid = ConfigGrid(
            topic_scale=args.topic_scale,
            iteration_scale=args.iteration_scale,
            seed=args.seed,
            temporal_axis=temporal_axis,
        )
        configs = list(grid.iter_all())
    models = sorted({c.model for c in configs})
    with _telemetry_scope(args, "sweep", models) as telemetry:
        # Sweep JSON always embeds a manifest, even without tracing enabled.
        manifest = (
            telemetry.manifest
            if telemetry is not None
            else RunManifest.create(
                seed=args.seed,
                dataset={
                    "n_users": args.users,
                    "n_ticks": args.ticks,
                    "group_size": args.group_size,
                    "min_retweets": args.min_retweets,
                },
                models=models,
                command="sweep",
            )
        )
        dataset, groups = _make_dataset(args)
        pipeline = ExperimentPipeline(
            dataset, seed=args.seed, max_train_docs_per_user=args.max_train_docs,
            telemetry=telemetry,
        )
        runner = SweepRunner(pipeline, groups, telemetry=telemetry)
        sources = [RepresentationSource(s) for s in args.sources]
        policy = SupervisionPolicy(
            timeout_seconds=args.cell_timeout,
            retry=RetryPolicy(
                max_attempts=args.max_attempts,
                backoff_seconds=args.retry_backoff,
                seed=args.seed,
            ),
        )
        # --inject-faults beats the ambient REPRO_FAULT_PLAN variable.
        fault_plan = (
            FaultPlan.parse(args.inject_faults)
            if args.inject_faults
            else FaultPlan.from_env()
        )
        if args.jobs > 1:
            spec = SweepSpec(
                pipeline=PipelineSpec(
                    dataset=DatasetConfig(
                        n_users=args.users, n_ticks=args.ticks, seed=args.seed
                    ),
                    seed=args.seed,
                    max_train_docs_per_user=args.max_train_docs,
                ),
                grid=GridSpec.from_grid(grid),
            )
            executor = ProcessCellExecutor(
                spec, jobs=args.jobs, policy=policy, fault_plan=fault_plan
            )
        else:
            executor = SerialCellExecutor(
                pipeline, policy=policy, fault_plan=fault_plan
            )
        journal_path = _journal_path(args)
        journal = (
            SweepJournal(journal_path, resume=args.resume) if journal_path else None
        )
        if journal is not None and journal.restored:
            print(f"resuming: {journal.restored} cells restored from {journal.path}")
            quarantined = journal.quarantined()
            if quarantined:
                print(f"retrying {len(quarantined)} quarantined cells")
        try:
            result = runner.run(
                configs, sources,
                progress=args.progress and not args.quiet,
                progress_line=args.progress,
                executor=executor, journal=journal,
            )
        except KeyboardInterrupt:
            if journal is not None:
                journal.close()
                print(
                    f"\ninterrupted; {len(journal)} completed cells journaled to "
                    f"{journal.path} -- rerun with --resume to continue"
                )
            else:
                print("\ninterrupted (no journal; rerun with --journal to make "
                      "sweeps resumable)")
            return 130
        if journal is not None:
            journal.close()
        manifest.finish()
        path = save_sweep(result, args.out, manifest=manifest)
        print(f"{len(result.rows)} rows saved to {path}")
        if result.failures:
            print(
                f"{len(result.failures)}/{result.cell_count()} cells quarantined:",
                file=sys.stderr,
            )
            for failed in result.failures:
                print(
                    f"  {failed.model} on {failed.source.value}: "
                    f"{failed.failure.kind} ({failed.failure.error}) after "
                    f"{failed.failure.attempts} attempt(s)",
                    file=sys.stderr,
                )
            print(
                "rerun with --resume to retry quarantined cells", file=sys.stderr
            )
            return 3
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if not path.exists():
        print(f"error: {path} does not exist", file=sys.stderr)
        return 2
    if args.snapshot:
        snapshot = load_progress(path)
        print(
            json.dumps(snapshot, indent=1, sort_keys=True)
            if args.json
            else format_snapshot(snapshot)
        )
        return 0
    # Refreshing view: re-read the (still growing) file each interval
    # until its stream says the sweep finished. All timing state comes
    # from the records' own timestamps; this loop only paces redraws.
    try:
        while True:
            snapshot = load_progress(path)
            sys.stdout.write("\x1b[2J\x1b[H" + format_snapshot(snapshot) + "\n")
            sys.stdout.flush()
            if snapshot.get("finished"):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 130


def _emit_rendered(rendered: str, out: str | None) -> None:
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered + ("" if rendered.endswith("\n") else "\n"))
        print(f"written to {path}")
    else:
        print(rendered)


def cmd_export(args: argparse.Namespace) -> int:
    try:
        trace = load_trace(args.trace)
    except (PersistenceError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _emit_rendered(format_chrome_trace(trace), args.out)
    return 0


def cmd_export_profile(args: argparse.Namespace) -> int:
    try:
        profile = load_profile(args.profile)
    except (PersistenceError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "speedscope":
        rendered = json.dumps(
            speedscope_document(profile, name=Path(args.profile).name),
            indent=1,
            sort_keys=True,
        )
    else:
        rendered = collapsed_stacks(profile)
    _emit_rendered(rendered, args.out)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        raise SystemExit(
            "profile: give a command to wrap after --, e.g. "
            "'repro profile -- sweep --out sweep.json --fast', or "
            "'repro profile diff BEFORE.json AFTER.json'"
        )
    if rest[0] == "diff":
        if len(rest) != 3:
            raise SystemExit("usage: repro profile diff BEFORE.json AFTER.json")
        try:
            before = load_profile(rest[1])
            after = load_profile(rest[2])
        except (PersistenceError, OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(format_profile_diff(before, after, top=args.top))
        return 0
    if rest[0] not in ("sweep", "replay", "evaluate"):
        raise SystemExit(
            f"profile: cannot wrap {rest[0]!r}; profileable commands: "
            "sweep, replay, evaluate (or the 'diff' subcommand)"
        )
    with Sampler(hz=args.hz) as sampler:
        code = main(rest)
    profile = sampler.profile
    path = profile.save(args.out)
    print(
        f"profile written to {path} ({profile.samples} samples @ "
        f"{profile.hz:g} Hz, sampler overhead "
        f"{100.0 * profile.overhead_ratio:.2f}%)"
    )
    print()
    print(format_hotspots(profile.to_dict(), top=args.top))
    return code


def cmd_report(args: argparse.Namespace) -> int:
    if args.artifact == "hotspots":
        source = args.profile or args.trace
        if not source:
            raise SystemExit(
                "--profile (or --trace with an embedded profile) is required "
                "for the hotspots artifact"
            )
        try:
            profile = load_profile(source)
        except (PersistenceError, OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(format_hotspots(profile, top=args.top))
        return 0
    if args.artifact == "trace":
        if not args.trace:
            raise SystemExit("--trace is required for the trace artifact")
        print(format_trace_report(load_trace(args.trace), top=args.top))
        return 0
    if not args.sweep:
        raise SystemExit(f"--sweep is required for the {args.artifact} artifact")
    result = load_sweep(args.sweep)
    sources = (
        [RepresentationSource(s) for s in args.sources]
        if args.sources
        else sorted({row.source for row in result.rows}, key=lambda s: s.value)
    )
    group = UserType(args.group)
    if args.artifact == "figure":
        print(format_figure_map(result, group, sources))
    elif args.artifact == "table6":
        groups = sorted({row.group for row in result.rows}, key=lambda g: g.value)
        print(format_table6(result, sources, groups))
    elif args.artifact == "table7":
        print(format_table7(result, sources))
    else:
        print(format_figure7(result))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    models = tuple(args.models)
    with _telemetry_scope(args, "replay", list(models)) as telemetry:
        _dataset, groups = _make_dataset(args)
        spec = ReplaySpec(
            pipeline=PipelineSpec(
                dataset=DatasetConfig(
                    n_users=args.users, n_ticks=args.ticks, seed=args.seed
                ),
                seed=args.seed,
                max_train_docs_per_user=args.max_train_docs,
            ),
            grid=GridSpec.from_grid(bench_grid(seed=args.seed)),
            source=args.source,
            users=tuple(sorted(groups[UserType.ALL])),
            models=models,
            chunk_size=args.chunk_size,
            deterministic_topics=not args.stochastic_topics,
        )
        results = run_replay(spec, jobs=args.jobs, telemetry=telemetry)
    passed = True
    for replay in results:
        parity = replay.parity_ok(args.tolerance)
        passed = passed and parity
        status = "exact" if replay.exact else f"max_delta={replay.max_delta:.3e}"
        verdict = "" if parity else "  PARITY FAIL"
        print(
            f"{replay.model} on {replay.source}: {len(replay.users)} users, "
            f"{sum(u.updates for u in replay.users)} updates, {status}, "
            f"update={replay.mean_update_seconds * 1e3:.3f}ms "
            f"rebuild={replay.mean_full_rebuild_seconds * 1e3:.3f}ms "
            f"speedup={replay.speedup:.1f}x{verdict}"
        )
    if args.json:
        out = Path(args.json)
        out.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "source": args.source,
            "chunk_size": args.chunk_size,
            "tolerance": args.tolerance,
            "jobs": args.jobs,
            "models": [replay.to_dict() for replay in results],
        }
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"replay results written to {out}")
    if not passed:
        print(
            f"replay parity check failed (tolerance {args.tolerance:g})",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    # Lazy import: the linter is stdlib-only and must stay importable
    # (and fast) even where the numeric stack is broken.
    from repro.analysis import default_rules, lint_paths
    from repro.analysis.baseline import (
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.analysis.reporting import format_json, format_rules, format_text
    from repro.errors import ConfigurationError

    rules = default_rules()
    if args.list_rules:
        print(format_rules(rules))
        return 0

    known = {rule.id for rule in rules}
    selected = set(args.select or ())
    ignored = {
        rule_id
        for chunk in (args.ignore or ())
        for rule_id in chunk.split(",")
        if rule_id
    }
    # RPR900 (stale pragma) is synthesized by the engine rather than
    # registered, so it cannot be selected -- but it can be ignored.
    for label, requested, legal in (
        ("--select", selected, known),
        ("--ignore", ignored, known | {"RPR900"}),
    ):
        unknown = sorted(requested - legal)
        if unknown:
            raise SystemExit(
                f"unknown rule id(s) in {label}: {', '.join(unknown)}; "
                f"known: {', '.join(sorted(legal))}"
            )
    conflict = sorted(selected & ignored)
    if conflict:
        raise ConfigurationError(
            f"rule(s) both selected and ignored: {', '.join(conflict)} -- "
            "--select and --ignore must not overlap"
        )
    if selected:
        rules = [rule for rule in rules if rule.id in selected]
    if ignored:
        rules = [rule for rule in rules if rule.id not in ignored]

    if args.update_baseline and not args.baseline:
        raise ConfigurationError("--update-baseline requires --baseline PATH")

    report = lint_paths(args.paths, rules=rules, cache_path=args.cache)
    if "RPR900" in ignored:
        report.violations = [
            violation
            for violation in report.violations
            if violation.rule != "RPR900"
        ]

    if args.baseline:
        if args.update_baseline:
            count = write_baseline(args.baseline, report.violations)
            print(
                f"baseline updated: {count} finding(s) written to "
                f"{args.baseline}"
            )
            return 2 if report.errors else 0
        report.violations, report.baselined = apply_baseline(
            report.violations, load_baseline(args.baseline)
        )

    print(format_json(report) if args.format == "json" else format_text(report))
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Content-based personalized microblog recommendation (EDBT 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="simulate a corpus, print statistics")
    _add_dataset_arguments(p_generate)
    p_generate.set_defaults(func=cmd_generate)

    p_eval = sub.add_parser("evaluate", help="evaluate one model on one source")
    _add_dataset_arguments(p_eval)
    p_eval.add_argument("--model", required=True, choices=MODEL_NAMES)
    p_eval.add_argument("--source", default="R",
                        choices=[s.value for s in ALL_SOURCES])
    p_eval.add_argument("--max-train-docs", type=int, default=100)
    _add_telemetry_arguments(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="run a sweep, save to JSON")
    _add_dataset_arguments(p_sweep)
    p_sweep.add_argument("--out", required=True, help="output JSON path")
    p_sweep.add_argument("--sources", nargs="+", default=["R"],
                         choices=[s.value for s in ALL_SOURCES])
    p_sweep.add_argument("--fast", action="store_true",
                         help="one configuration per model instead of the grid")
    p_sweep.add_argument("--topic-scale", type=float, default=0.1)
    p_sweep.add_argument("--iteration-scale", type=float, default=0.02)
    p_sweep.add_argument("--max-train-docs", type=int, default=100)
    p_sweep.add_argument(
        "--progress", action="store_true",
        help="show a minimal self-updating progress line (cells done/total, "
             "ETA, quarantines) plus per-cell result lines",
    )
    p_sweep.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-cell result lines; with --progress only the "
             "inline progress line remains",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="evaluate (config, source) cells on N worker processes; "
             "rows are identical to a serial run",
    )
    p_sweep.add_argument(
        "--journal", metavar="PATH", nargs="?", const="", default=None,
        help="journal completed cells to PATH as JSON lines "
             "(default: OUT with a .journal.jsonl suffix)",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="restore completed cells from the journal instead of re-running "
             "them; quarantined cells are retried",
    )
    p_sweep.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock budget for one cell; overruns are "
             "terminated and retried (needs --jobs > 1 to preempt)",
    )
    p_sweep.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="supervised attempts per cell before it is quarantined",
    )
    p_sweep.add_argument(
        "--retry-backoff", type=float, default=0.5, metavar="SECONDS",
        help="base of the exponential retry backoff (seeded jitter on top)",
    )
    p_sweep.add_argument(
        "--inject-faults", metavar="PLAN", default=None,
        help="fault-injection plan: a JSON file path or inline JSON "
             "(testing; overrides the REPRO_FAULT_PLAN variable)",
    )
    p_sweep.add_argument(
        "--temporal", nargs="+", metavar="SPEC", default=None,
        help="temporal-weighting axis crossed over every configuration: "
             "'none', 'window:SECONDS' or 'half-life:SECONDS' "
             "(e.g. --temporal none half-life:3600)",
    )
    _add_telemetry_arguments(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_replay = sub.add_parser(
        "replay",
        help="stream user timelines through incremental profile updates, "
             "checking parity against batch rebuilds",
    )
    _add_dataset_arguments(p_replay)
    p_replay.add_argument(
        "--models", nargs="+", default=list(REPLAY_MODELS), choices=MODEL_NAMES,
        help="models to replay (default: one per family: TN TNG LDA)",
    )
    p_replay.add_argument("--source", default="R",
                          choices=[s.value for s in ALL_SOURCES])
    p_replay.add_argument("--max-train-docs", type=int, default=100)
    p_replay.add_argument(
        "--chunk-size", type=int, default=1, metavar="N",
        help="tweets folded per incremental update (default: 1)",
    )
    p_replay.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="replay user chunks on N worker processes; digests are "
             "identical to a serial run",
    )
    p_replay.add_argument(
        "--tolerance", type=float, default=0.0, metavar="DELTA",
        help="largest allowed |incremental - rebuilt| profile entry; the "
             "default 0 demands bit-identical profiles",
    )
    p_replay.add_argument(
        "--stochastic-topics", action="store_true",
        help="keep topic inference stochastic instead of per-document "
             "seeded; pair with a nonzero --tolerance",
    )
    p_replay.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the full per-user replay results as JSON",
    )
    _add_telemetry_arguments(p_replay)
    p_replay.set_defaults(func=cmd_replay)

    p_monitor = sub.add_parser(
        "monitor", help="live progress view of a sweep (events file or journal)"
    )
    p_monitor.add_argument(
        "path",
        help="a --log-json events file or a --journal sweep journal "
             "(the kind is detected from the file itself)",
    )
    p_monitor.add_argument(
        "--snapshot", action="store_true",
        help="print one progress snapshot and exit instead of refreshing",
    )
    p_monitor.add_argument(
        "--json", action="store_true",
        help="with --snapshot: print the snapshot as JSON for scripting",
    )
    p_monitor.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period of the live view (default: 2s)",
    )
    p_monitor.set_defaults(func=cmd_monitor)

    p_export = sub.add_parser(
        "export", help="convert saved telemetry for external tools"
    )
    export_sub = p_export.add_subparsers(dest="export_command", required=True)
    p_export_trace = export_sub.add_parser(
        "trace", help="span trace -> Chrome trace-event JSON (Perfetto)"
    )
    p_export_trace.add_argument(
        "--trace", required=True, help="trace JSON written by --trace-out"
    )
    p_export_trace.add_argument(
        "--out", metavar="PATH", default=None,
        help="output path (default: stdout); load it at https://ui.perfetto.dev",
    )
    p_export_trace.set_defaults(func=cmd_export)
    p_export_profile = export_sub.add_parser(
        "profile", help="stack profile -> collapsed stacks / speedscope JSON"
    )
    p_export_profile.add_argument(
        "--profile", required=True,
        help="profile JSON written by `repro profile` (or a trace with an "
             "embedded profile)",
    )
    p_export_profile.add_argument(
        "--format", choices=["collapsed", "speedscope"], default="speedscope",
        help="collapsed: flamegraph.pl lines; speedscope: JSON for "
             "https://www.speedscope.app (default)",
    )
    p_export_profile.add_argument(
        "--out", metavar="PATH", default=None,
        help="output path (default: stdout)",
    )
    p_export_profile.set_defaults(func=cmd_export_profile)

    p_report = sub.add_parser("report", help="render a saved sweep or trace")
    p_report.add_argument("--sweep", help="sweep JSON path")
    p_report.add_argument("--trace", help="trace JSON path (trace artifact)")
    p_report.add_argument("--profile",
                          help="profile JSON path (hotspots artifact)")
    p_report.add_argument("--artifact", default="figure",
                          choices=["figure", "table6", "table7", "figure7",
                                   "trace", "hotspots"])
    p_report.add_argument("--top", type=int, default=5, metavar="N",
                          help="straggler cells listed by trace / "
                               "functions per phase listed by hotspots "
                               "(default: 5)")
    p_report.add_argument("--group", default=UserType.ALL.value,
                          choices=[g.value for g in UserType])
    p_report.add_argument("--sources", nargs="*",
                          choices=[s.value for s in ALL_SOURCES])
    p_report.set_defaults(func=cmd_report)

    p_lint = sub.add_parser(
        "lint", help="run reprolint (determinism / taxonomy / telemetry rules)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  clean (no violations, no errors)\n"
            "  1  violations found\n"
            "  2  engine errors (unreadable/unparsable input, or no Python\n"
            "     files to analyze)"
        ),
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p_lint.add_argument("--format", choices=["text", "json"], default="text")
    p_lint.add_argument(
        "--select", nargs="+", metavar="RPRnnn",
        help="run only these rule ids",
    )
    p_lint.add_argument(
        "--ignore", nargs="+", metavar="RPRnnn[,RPRnnn...]",
        help="run every rule except these ids (complement of --select; "
             "selecting and ignoring the same rule is a configuration error)",
    )
    p_lint.add_argument(
        "--baseline", metavar="PATH",
        help="ratchet baseline: suppress findings recorded in this file "
             "(by rule + file + stable fingerprint, not line number)",
    )
    p_lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite --baseline with the current findings and exit 0",
    )
    p_lint.add_argument(
        "--cache", nargs="?", const=".reprolint-cache.json", default=None,
        metavar="PATH",
        help="incremental mode: cache per-file analysis keyed on content "
             "hashes (default cache file: .reprolint-cache.json)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="describe every registered rule and exit",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_profile = sub.add_parser(
        "profile",
        help="statistical stack profiler: wrap a command, or diff profiles",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  repro profile -- sweep --out sweep.json --fast --jobs 2\n"
            "  repro profile --hz 251 --out fit.json -- evaluate --model LDA\n"
            "  repro profile diff before.json after.json"
        ),
    )
    p_profile.add_argument(
        "--hz", type=float, default=DEFAULT_HZ, metavar="RATE",
        help=f"sampling rate in samples/second (default: {DEFAULT_HZ:g}; "
             "prime, to avoid phase-locking with periodic work)",
    )
    p_profile.add_argument(
        "--out", default="profile.json", metavar="PATH",
        help="where to write the profile document (default: profile.json)",
    )
    p_profile.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="functions per phase in the printed hotspot summary "
             "(default: 10)",
    )
    p_profile.add_argument(
        "rest", nargs=argparse.REMAINDER,
        help="after --: the repro command to profile (sweep, replay, "
             "evaluate); or: diff BEFORE.json AFTER.json",
    )
    p_profile.set_defaults(func=cmd_profile)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
