"""Batch scenario runner: ``python -m repro.run <scenario> --horizon-ms N``.

Runs any scenario from :mod:`repro.workloads.registry` over a configurable
simulated horizon and prints its statistics together with wall-clock timing.
``--compare`` runs the same scenario under both kernels (legacy dense and
event-driven) and reports the speedup, which is also how the quiescence
skipping is validated end to end from the command line.

The ``sweep`` subcommand executes a whole campaign of scenario points
(:mod:`repro.sweep`), sharded across a process pool, and writes JSON + CSV
artifacts plus a reproducibility manifest under ``results/sweeps/``.
Batched execution (``--batch``, on by default where the scenario supports
it) lets points that differ only in their horizon share one simulation —
byte-identical artifacts, measured ≥1.5x faster on multi-horizon campaigns.
``--shard I/N`` restricts a run to one slice of the grid for multi-host
distribution, ``sweep merge`` stitches the per-host artifact directories
back into the single-host artifacts, and ``sweep merge --heal`` emits the
exact re-run commands (plus ``heal.json``) when the fleet left gaps.

The ``fleet`` subcommand (:mod:`repro.fleet`) drives all of that
autonomously: it cuts the campaign into cost-weighted shards, runs them as
supervised ``sweep --shard`` workers with timeouts and kill discipline,
heals gaps by consuming ``heal.json`` with exponential backoff, merges the
result, and records everything in a ``fleet.json`` ledger (rendered by
``fleet status``).  Exit 0 = complete, 4 = retry budget exhausted with
partial artifacts preserved.  See ``docs/fleet.md``.

Examples::

    python -m repro.run --list
    python -m repro.run duty-cycled-logging --horizon-ms 20
    python -m repro.run always-on-monitor --horizon-cycles 500000 --compare
    python -m repro.run burst-spi-dma --dense
    python -m repro.run sweep --list
    python -m repro.run sweep pipeline-clock-ratio --jobs 4
    python -m repro.run sweep watchdog-fault-injection --dry-run
    python -m repro.run sweep smoke --shard 0/3 --out /tmp/shards
    python -m repro.run sweep merge /tmp/shards/smoke/shard-0-of-3 \\
        /tmp/shards/smoke/shard-1-of-3 /tmp/shards/smoke/shard-2-of-3
    python -m repro.run sweep smoke --trace-out trace.json --profile
    python -m repro.run fleet fleet-scale --workers 4 --timeout 120
    python -m repro.run fleet status results/sweeps/fleet-scale
    python -m repro.run stats results/sweeps/smoke
    python -m repro.run store ingest results/sweeps/smoke
    python -m repro.run store query --campaign smoke --aggregate mean:power_uw.Total
    python -m repro.run store info
    python -m repro.run sweep smoke --resume-from-store results/store.sqlite

Telemetry (``--trace-out``, ``--profile``, the ``stats`` subcommand) is the
:mod:`repro.obs` layer — see ``docs/observability.md``.  It is purely
observational: results.json/results.csv are byte-identical with it on or
off, and with it off the instrumentation costs one pointer check per span.

The ``store`` subcommand (:mod:`repro.store`) maintains the persistent,
queryable corpus of every campaign ever ingested: ``store ingest`` folds
artifact directories into an sqlite database with dedup on re-ingest,
``store query`` filters/aggregates across campaigns, ``store info``
summarises coverage, and ``sweep --resume-from-store`` resumes a campaign
from the store instead of a directory hunt.  See ``docs/store.md``; the
full subcommand/exit-code reference is ``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.workloads.registry import run_scenario, scenario, scenarios

DEFAULT_FREQUENCY_MHZ = 55.0
DEFAULT_SWEEP_OUT = "results/sweeps"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.run",
        description="Run a registered PELS workload scenario.",
    )
    parser.add_argument("scenario", nargs="?", help="scenario name (see --list)")
    parser.add_argument("--list", action="store_true", help="list registered scenarios and exit")
    horizon = parser.add_mutually_exclusive_group()
    horizon.add_argument(
        "--horizon-ms", type=float, default=None, help="simulated horizon in milliseconds"
    )
    horizon.add_argument(
        "--horizon-cycles", type=int, default=None, help="simulated horizon in clock cycles"
    )
    parser.add_argument(
        "--frequency-mhz",
        type=float,
        default=DEFAULT_FREQUENCY_MHZ,
        help="clock frequency used to convert --horizon-ms (default: %(default)s)",
    )
    parser.add_argument(
        "--dense",
        action="store_true",
        help="use the legacy cycle-driven kernel instead of event-driven scheduling",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="run under both kernels and report the event-driven speedup",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="export a Chrome trace-event JSON of the run (open in Perfetto "
        "or chrome://tracing); see docs/observability.md",
    )
    return parser


def _horizon_cycles(args: argparse.Namespace) -> Optional[int]:
    if args.horizon_cycles is not None:
        if args.horizon_cycles < 1:
            raise SystemExit("--horizon-cycles must be at least 1")
        return args.horizon_cycles
    if args.horizon_ms is not None:
        if args.horizon_ms <= 0:
            raise SystemExit("--horizon-ms must be positive")
        return max(int(round(args.horizon_ms * 1e-3 * args.frequency_mhz * 1e6)), 1)
    return None


def _print_stats(stats: Dict[str, object]) -> None:
    width = max(len(key) for key in stats)
    for key, value in stats.items():
        if isinstance(value, float):
            print(f"  {key:<{width}} : {value:.2f}")
        else:
            print(f"  {key:<{width}} : {value}")


def _timed_run(name: str, horizon: Optional[int], dense: bool) -> tuple:
    start = time.perf_counter()
    stats = run_scenario(name, horizon_cycles=horizon, dense=dense)
    return time.perf_counter() - start, stats


# ------------------------------------------------------------------- sweeps


def _build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.run sweep",
        description="Execute a sweep campaign, sharded across processes.",
    )
    parser.add_argument("campaign", nargs="?", help="campaign name (see --list)")
    parser.add_argument("--list", action="store_true", help="list registered campaigns and exit")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; 1 runs serially with identical results (default: %(default)s)",
    )
    parser.add_argument(
        "--chunk",
        type=int,
        default=None,
        help="points dispatched per worker task; default auto-sizes to about "
        "four chunks per worker so small campaigns amortise pool overhead",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse points already present in <out>/<campaign>/results.json "
        "when its manifest hash matches the campaign definition",
    )
    parser.add_argument(
        "--resume-from-store",
        default=None,
        metavar="DB",
        help="reuse points from a results-store database (see 'store ingest') "
        "instead of hunting artifact directories; validated against the same "
        "campaign identity as --resume and byte-identical to it; combinable "
        "with --resume (directory artifacts win ties)",
    )
    parser.add_argument(
        "--batch",
        choices=("auto", "on", "off"),
        default="auto",
        help="batched execution: points differing only in horizon_cycles "
        "share one simulation, run once to the deepest horizon and "
        "snapshotted at each shallower one; results are byte-identical to "
        "per-point execution (default: %(default)s — on whenever the "
        "scenario supports it)",
    )
    parser.add_argument(
        "--plan-cache",
        default=None,
        metavar="DIR",
        help="persistent point-record cache: batched groups serve every "
        "horizon whose JSON record an earlier run (any process) published, "
        "simulate the rest from cycle 0 and publish their records; results "
        "are byte-identical to a cold run, hit/miss totals land in the "
        "manifest's execution.cache block; the fleet provisions one shared "
        "cache dir automatically",
    )
    parser.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="execute only shard I of N (contiguous index ranges of the "
        "expanded grid, zero-based) for multi-host distribution; merge the "
        "per-host artifacts with 'sweep merge'",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_SWEEP_OUT,
        help="artifact root; files land in <out>/<campaign>/ (default: %(default)s)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="expand and print the run matrix without executing anything",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="export a Chrome trace-event JSON of the whole campaign "
        "(kernel spans, batch runs and stops, per-point lanes; open in Perfetto). "
        "A bare filename lands next to the campaign's artifacts; results "
        "stay byte-identical to an untraced run",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record the per-phase wall-time breakdown (expand/prepare/"
        "simulate/finalize/write) into the manifest's execution.telemetry "
        "block and print it after the run; 'repro.run stats <dir>' renders "
        "it again later",
    )
    return parser


def _sweep_progress(completed: int, total: int, result) -> None:
    params = " ".join(f"{key}={value}" for key, value in sorted(result.params.items()))
    timing = "reused" if result.reused else f"{result.wall_seconds * 1e3:.0f} ms"
    print(
        f"[{completed}/{total}] point {result.index:>3} "
        f"{result.scenario} horizon={result.horizon_cycles} {params} "
        f"({timing})",
        file=sys.stderr,
        flush=True,
    )


def _build_merge_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.run sweep merge",
        description="Merge sharded campaign artifacts back into single-host artifacts.",
    )
    parser.add_argument(
        "shard_dirs",
        nargs="+",
        metavar="SHARD_DIR",
        help="one shard's campaign directory (directly containing results.json "
        "and manifest.json); pass every shard of the campaign",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_SWEEP_OUT,
        help="artifact root; merged files land in <out>/<campaign>/ (default: %(default)s)",
    )
    parser.add_argument(
        "--heal",
        action="store_true",
        help="when the shard set has coverage gaps, emit the exact re-run "
        "commands (and write <out>/<campaign>/heal.json) that fill them, "
        "then exit 3 instead of 2",
    )
    return parser


def _merge_main(argv: Sequence[str]) -> int:
    from repro.sweep import (
        IncompleteCoverageError,
        MergeError,
        merge_shards,
        plan_heal,
        write_heal_plan,
        write_merged_artifacts,
    )

    args = _build_merge_parser().parse_args(argv)
    try:
        merged = merge_shards([Path(directory) for directory in args.shard_dirs])
    except IncompleteCoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if not args.heal:
            return 2
        plan = plan_heal(exc, Path(args.out))
        path = write_heal_plan(plan, Path(args.out))
        print(
            f"heal: {len(plan['commands'])} re-run(s) close the "
            f"{len(plan['missing'])}-point gap:",
            file=sys.stderr,
        )
        for command in plan["commands"]:
            print(command["command"])
        print(f"heal plan written to {path}", file=sys.stderr)
        merge_after = " ".join(str(directory) for directory in plan["merge_after"])
        print(
            f"then: python -m repro.run sweep merge {merge_after} --out {args.out}",
            file=sys.stderr,
        )
        return 3
    except MergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    paths = write_merged_artifacts(merged, Path(args.out))
    result = merged.result
    print(
        f"merged campaign {result.campaign}: {result.n_points} points over scenario "
        f"{result.scenario} from {len(merged.sources)} artifact dir(s)"
    )
    for source in merged.sources:
        print(f"  <- {source.shard_label}")
    for label in ("results_json", "results_csv", "manifest_json"):
        print(f"  {paths[label]}")
    if "trace_json" in paths:
        print(f"  {paths['trace_json']}")
    return 0


# -------------------------------------------------------------------- stats


def _build_stats_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.run stats",
        description="Render the telemetry recorded in a sweep manifest "
        "(phase profile, metrics, trace summary).",
    )
    parser.add_argument(
        "campaign_dir",
        help="artifact directory containing manifest.json (a campaign, "
        "shard, or merged directory)",
    )
    return parser


def _stats_main(argv: Sequence[str]) -> int:
    import json

    from repro.obs.profile import SWEEP_PHASES, format_profile
    from repro.obs.traceio import summarize_trace, validate_trace_file

    args = _build_stats_parser().parse_args(argv)
    directory = Path(args.campaign_dir)
    manifest_path = directory / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError:
        print(
            f"error: {manifest_path}: no readable manifest.json — pass a sweep "
            f"artifact directory (campaign, shard, or merged)",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        print(f"error: {manifest_path}: invalid JSON: {exc}", file=sys.stderr)
        return 2
    campaign_block = manifest.get("campaign") if isinstance(manifest, dict) else None
    name = campaign_block.get("name", "?") if isinstance(campaign_block, dict) else "?"
    execution = manifest.get("execution") if isinstance(manifest, dict) else None
    if not isinstance(execution, dict):
        print(f"error: {manifest_path}: manifest has no execution block", file=sys.stderr)
        return 2
    n_points = manifest.get("n_points", "?")
    wall = float(execution.get("wall_seconds") or 0.0)
    rate = f", {float(n_points) / wall:.1f} points/s" if wall > 0 and n_points != "?" else ""
    print(f"campaign {name}: {n_points} points, {wall:.2f} s wall{rate}")
    cache_block = execution.get("cache")
    if isinstance(cache_block, dict):
        print(
            f"plan cache {cache_block.get('path')}: "
            f"{cache_block.get('hits', 0)} hits, {cache_block.get('misses', 0)} misses, "
            f"{cache_block.get('writes', 0)} writes, {cache_block.get('errors', 0)} errors"
        )
        for note in cache_block.get("notes") or []:
            print(f"  note: {note}")
    telemetry = execution.get("telemetry")
    if not isinstance(telemetry, dict):
        print(
            "no telemetry recorded — re-run the sweep with --profile and/or "
            "--trace-out (see docs/observability.md)"
        )
        return 1
    profile = telemetry.get("profile")
    if isinstance(profile, dict) and any(profile.get(phase) for phase in SWEEP_PHASES):
        print()
        print(format_profile({k: float(v) for k, v in profile.items()}, wall))
    metrics = telemetry.get("metrics")
    if isinstance(metrics, dict):
        counters = metrics.get("counter", {})
        if counters:
            print()
            print("counters")
            width = max(len(key) for key in counters)
            for key in sorted(counters):
                print(f"  {key:<{width}} : {counters[key]}")
        histograms = metrics.get("histogram", {})
        for key in sorted(histograms):
            summary = histograms[key]
            print(
                f"  {key}: n={summary.get('count')} mean={summary.get('mean', 0.0):.4f}s "
                f"min={summary.get('min', 0.0):.4f}s max={summary.get('max', 0.0):.4f}s"
            )
    trace = telemetry.get("trace")
    if isinstance(trace, dict) and trace.get("file"):
        trace_path = directory / str(trace["file"])
        print()
        try:
            summary = summarize_trace(validate_trace_file(trace_path))
        except ValueError as exc:
            print(f"trace {trace_path}: invalid: {exc}", file=sys.stderr)
            return 2
        print(f"trace {trace_path}: {summary['spans']} spans, {summary['dropped_events']} dropped")
        for category in sorted(summary["categories"]):
            entry = summary["categories"][category]
            print(
                f"  {category:<8} {entry['events']:>6} events  {entry['span_ms']:>10.2f} ms span time"
            )
    return 0


def _sweep_main(argv: Sequence[str]) -> int:
    from repro.sweep import (
        ShardSpec,
        campaign,
        campaigns,
        execute_campaign,
        expand_campaign,
        shard_dirname,
        write_artifacts,
    )

    if argv and argv[0] == "merge":
        return _merge_main(argv[1:])

    args = _build_sweep_parser().parse_args(argv)

    if args.list:
        for spec in campaigns():
            print(f"{spec.name:<26} {spec.n_points:>3} points  {spec.description}")
        return 0

    if args.campaign is None:
        _build_sweep_parser().print_usage()
        return 2
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    if args.chunk is not None and args.chunk < 1:
        print("error: --chunk must be at least 1", file=sys.stderr)
        return 2
    shard = None
    if args.shard is not None:
        try:
            shard = ShardSpec.parse(args.shard)
        except ValueError as exc:
            print(f"error: --shard: {exc}", file=sys.stderr)
            return 2
    try:
        spec = campaign(args.campaign)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    try:
        points = expand_campaign(spec)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        shard_points = shard.select(points) if shard is not None else points
    except ValueError as exc:
        # An explicit span can overrun the grid (e.g. a heal plan for a
        # since-edited campaign) — usage error, not a traceback.
        print(f"error: --shard: {exc}", file=sys.stderr)
        return 2
    if shard is not None:
        start, stop = shard.bounds(len(points))
        print(
            f"shard {shard}: points [{start}, {stop}) of {len(points)}",
            file=sys.stderr,
        )

    if args.dry_run:
        scope = f"shard {shard} = {len(shard_points)} of " if shard is not None else ""
        print(f"campaign {spec.name}: {scope}{len(points)} points over scenario {spec.scenario}")
        for point in shard_points:
            params = " ".join(f"{key}={value}" for key, value in sorted(point.params.items()))
            print(f"  point {point.index:>3}  horizon={point.horizon_cycles} {params} point-seed={point.seed}")
        return 0

    # A shard's artifacts nest under the campaign directory so slices never
    # clobber campaign-level (full or merged) artifacts — in-place re-cutting
    # a fleet from a merged directory must not destroy its resume source.
    shard_subdir = shard_dirname(shard) if shard is not None else None

    reuse = None
    if args.resume or args.resume_from_store:
        from repro.sweep import ResumeError, load_reusable_results

        # Campaign-level artifacts (a full or merged run) win over the
        # shard's own previous slice, which wins over store rows; every
        # source is spec_hash-validated through the same record gate.
        # Damaged artifacts or a damaged store (truncated/corrupt JSON,
        # records contradicting the expansion, a missing database file) are
        # a hard usage error with the path named: silently recomputing
        # would mask the corruption, silently reusing would propagate it.
        reuse = {}
        try:
            if args.resume:
                reuse = load_reusable_results(spec, Path(args.out))
                if shard_subdir is not None:
                    for index, record in load_reusable_results(
                        spec, Path(args.out), subdir=shard_subdir
                    ).items():
                        reuse.setdefault(index, record)
        except ResumeError as exc:
            print(f"error: --resume: {exc}", file=sys.stderr)
            return 2
        if args.resume_from_store:
            from repro.store import StoreError, load_reusable_results_from_store

            try:
                for index, record in load_reusable_results_from_store(
                    spec, Path(args.resume_from_store)
                ).items():
                    reuse.setdefault(index, record)
            except (ResumeError, StoreError) as exc:
                print(f"error: --resume-from-store: {exc}", file=sys.stderr)
                return 2
        shard_indices = {point.index for point in shard_points}
        reuse = {index: record for index, record in reuse.items() if index in shard_indices}
        sources = [str(Path(args.out) / spec.name)] if args.resume else []
        if args.resume_from_store:
            sources.append(f"store {args.resume_from_store}")
        if reuse:
            print(
                f"resume: reusing {len(reuse)}/{len(shard_points)} points from "
                f"{' + '.join(sources)}",
                file=sys.stderr,
            )
        else:
            print(
                "resume: no reusable results (missing artifacts or campaign mismatch "
                f"in {' + '.join(sources)}); running the full campaign",
                file=sys.stderr,
            )

    batch = {"auto": None, "on": True, "off": False}[args.batch]
    tracer = None
    if args.trace_out is not None:
        from repro.obs import tracing

        tracer = tracing.install()
    try:
        result = execute_campaign(
            spec,
            jobs=args.jobs,
            progress=_sweep_progress,
            chunk=args.chunk,
            reuse=reuse,
            shard=shard,
            batch=batch,
            trace=args.trace_out is not None,
            profile=args.profile,
            plan_cache=args.plan_cache,
        )
    finally:
        if tracer is not None:
            from repro.obs import tracing

            tracing.uninstall()
    if batch is True and not result.batched_points and result.n_computed:
        print(
            f"batch: scenario {spec.scenario!r} does not support batched "
            f"execution; points ran per-instance",
            file=sys.stderr,
        )
    for record in result.batch_fallbacks:
        # A group that quietly lost batching is a perf bug waiting to hide;
        # name every reason (the manifest keeps the same records).
        print(
            f"batch: {len(record['points'])} point(s) fell back to per-instance "
            f"execution: {record['reason']}",
            file=sys.stderr,
        )
    trace_path = None
    if tracer is not None:
        from repro.obs.traceio import trace_document, write_trace

        artifact_dir = Path(args.out) / spec.name
        if shard_subdir is not None:
            artifact_dir = artifact_dir / shard_subdir
        trace_path = _resolve_trace_path(args.trace_out, artifact_dir)
        events = tracer.drain() + result.trace_events
        dropped = tracer.dropped + result.trace_dropped
        metadata: Dict[str, object] = {"campaign": spec.name}
        if shard is not None:
            metadata["shard"] = str(shard)
        document = trace_document(
            events, labels={tracer.pid: "sweep"}, metadata=metadata, dropped=dropped
        )
        write_trace(trace_path, document)
        try:
            file_ref = str(trace_path.relative_to(artifact_dir))
        except ValueError:
            # A trace outside the artifact dir is recorded by absolute path
            # (sweep merge resolves relative names against the shard dir).
            file_ref = str(trace_path.resolve())
        if result.telemetry is not None:
            result.telemetry["trace"] = {
                "file": file_ref,
                "events": sum(1 for event in document["traceEvents"] if event.get("ph") != "M"),
                "dropped": dropped,
            }
    paths = write_artifacts(spec, result, Path(args.out), subdir=shard_subdir)
    sharded = f"shard {shard}, " if shard is not None else ""
    reused = f", {result.n_reused} reused" if result.n_reused else ""
    batched = f", {result.batched_points} batched" if result.batched_points else ""
    if result.batch_fallbacks:
        fallen = sum(len(record["points"]) for record in result.batch_fallbacks)
        batched += f", {fallen} fell back"
    if result.cache is not None:
        batched += (
            f", cache {result.cache['hits']} hit{'s' if result.cache['hits'] != 1 else ''}"
            f"/{result.cache['misses']} miss"
        )
        if result.cache["errors"]:
            batched += f"/{result.cache['errors']} errors"
    rate = result.n_points / max(result.wall_seconds, 1e-9)
    print(
        f"campaign {spec.name}: {result.n_points} points over scenario {spec.scenario} "
        f"({sharded}{args.jobs} job{'s' if args.jobs != 1 else ''}, chunk {result.chunk}, "
        f"{result.wall_seconds:.2f} s, {rate:.1f} points/s{reused}{batched})"
    )
    for label in ("results_json", "results_csv", "manifest_json"):
        print(f"  {paths[label]}")
    if trace_path is not None:
        print(f"  {trace_path}")
    if args.profile and result.telemetry is not None:
        from repro.obs.profile import format_profile

        print(format_profile(result.telemetry.get("profile", {}), result.wall_seconds))
    if result.failed_points:
        # Artifacts for the surviving points are already on disk (written
        # above); the failed ones are recorded in the manifest's execution
        # block and heal as missing points — exit 1 so callers notice.
        for record in result.failed_points:
            print(f"failed point {record['label']}: {record['error']}", file=sys.stderr)
        print(
            f"campaign {spec.name}: {result.n_failed} point(s) failed; "
            "re-run them via 'sweep merge --heal' or the fleet orchestrator",
            file=sys.stderr,
        )
        return 1
    return 0


def _resolve_trace_path(trace_out: str, artifact_dir: Path) -> Path:
    """A bare ``--trace-out`` filename lands next to the campaign artifacts
    (shard runs: inside the shard subdirectory, so per-host traces never
    collide); any path with a directory part is taken literally."""
    path = Path(trace_out)
    if path.name == trace_out:
        return artifact_dir / path
    return path


def _build_fleet_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.run fleet",
        description=(
            "Autonomously drive a whole campaign through supervised sweep "
            "workers: cost-weighted shard cuts, timeouts, heal-driven retry "
            "with exponential backoff, and a fleet.json ledger.  Exit 0 = "
            "complete; 4 = retry budget exhausted (partial artifacts + "
            "heal.json written); 2 = usage error.  See docs/fleet.md."
        ),
    )
    parser.add_argument("campaign", nargs="?", help="campaign name (see 'sweep --list')")
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent workers; each runs one cost-weighted shard through "
        "'sweep --shard' (default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_SWEEP_OUT,
        help="artifact root; merged artifacts, fleet.json and fleet-logs/ "
        "land in <out>/<campaign>/ (default: %(default)s)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="heal rounds after the initial dispatch before degrading to "
        "partial artifacts (default: %(default)s)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="seconds before a worker is declared hung and SIGKILLed; "
        "0 disables (default: %(default)s)",
    )
    parser.add_argument(
        "--backoff-base",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="heal-round backoff starts here and doubles per round "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--backoff-cap",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="ceiling for the exponential backoff (default: %(default)s)",
    )
    parser.add_argument(
        "--worker-jobs",
        type=int,
        default=1,
        help="--jobs passed to each worker (workers already parallelise "
        "across shards; default: %(default)s)",
    )
    parser.add_argument(
        "--transport",
        default="local",
        help="worker transport (default: %(default)s; the registry is where "
        "ssh/object-storage transports slot in)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="run workers with --trace-out/--profile so the merged manifest "
        "carries telemetry and a stitched multi-shard trace",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DB",
        help="results-store database: accepted shard artifacts are ingested "
        "the moment validation accepts them, and shard cuts calibrate from "
        "stored timings; store failures degrade to ledger notes, never "
        "fleet failure (see docs/store.md)",
    )
    parser.add_argument(
        "--plan-cache",
        default=None,
        metavar="DIR",
        help="shared point-record cache passed to every worker "
        "(default: <out>/<campaign>/plan-cache, provisioned automatically); "
        "warm workers serve already-published points without simulating, "
        "and the ledger aggregates hit/miss totals fleet-wide",
    )
    parser.add_argument(
        "--no-plan-cache",
        action="store_true",
        help="disable the shared plan cache (workers always cold-start)",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="fault injection for chaos testing: comma-separated "
        "fault:ordinal pairs (kill / hang / truncate; the ordinal counts "
        "worker launches fleet-wide), e.g. 'kill:0,hang:3,truncate:5'",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="supervisor heartbeat (default: %(default)s)",
    )
    return parser


def _fleet_main(argv: Sequence[str]) -> int:
    if argv and argv[0] == "status":
        return _fleet_status_main(argv[1:])

    from repro.fleet import EXIT_PARTIAL, FleetConfig, parse_chaos, run_fleet

    args = _build_fleet_parser().parse_args(argv)
    if args.campaign is None:
        _build_fleet_parser().print_usage()
        return 2
    chaos = {}
    if args.chaos:
        try:
            chaos = parse_chaos(args.chaos)
        except ValueError as exc:
            print(f"error: --chaos: {exc}", file=sys.stderr)
            return 2
    config = FleetConfig(
        campaign=args.campaign,
        workers=args.workers,
        out=Path(args.out),
        max_retries=args.max_retries,
        timeout=args.timeout if args.timeout > 0 else None,
        backoff_base=args.backoff_base,
        backoff_cap=args.backoff_cap,
        worker_jobs=args.worker_jobs,
        transport=args.transport,
        trace=args.trace,
        store=Path(args.store) if args.store else None,
        plan_cache=Path(args.plan_cache) if args.plan_cache else None,
        plan_cache_enabled=not args.no_plan_cache,
        chaos=chaos,
        poll_interval=args.poll_interval,
    )
    try:
        result = run_fleet(config)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.exit_code == EXIT_PARTIAL:
        print(
            f"fleet {args.campaign}: retry budget exhausted; partial artifacts, "
            f"heal.json and {result.ledger_path} preserve all completed work",
            file=sys.stderr,
        )
    return result.exit_code


def _fleet_status_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.run fleet status",
        description="Render the fleet.json ledger of a past fleet run.",
    )
    parser.add_argument(
        "directory",
        help="campaign artifact directory (or a fleet.json path)",
    )
    args = parser.parse_args(argv)

    from repro.fleet import load_ledger, render_ledger

    try:
        payload = load_ledger(Path(args.directory))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_ledger(payload))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = list(argv) if argv is not None else sys.argv[1:]
    # ``sweep``, ``fleet``, ``stats`` and ``store`` are subcommands with
    # their own flags; dispatch before the single-scenario parser can
    # reject them.
    if arguments and arguments[0] == "sweep":
        return _sweep_main(arguments[1:])
    if arguments and arguments[0] == "fleet":
        return _fleet_main(arguments[1:])
    if arguments and arguments[0] == "stats":
        return _stats_main(arguments[1:])
    if arguments and arguments[0] == "store":
        from repro.store.cli import store_main

        return store_main(arguments[1:])

    args = _build_parser().parse_args(arguments)

    if args.list:
        for spec in scenarios():
            print(f"{spec.name:<22} {spec.description} (default horizon {spec.default_horizon_cycles} cycles)")
        return 0

    if args.scenario is None:
        _build_parser().print_usage()
        return 2
    try:
        spec = scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2

    horizon = _horizon_cycles(args)
    effective = horizon if horizon is not None else spec.default_horizon_cycles

    try:
        if args.trace_out is not None:
            from repro.obs import tracing
            from repro.obs.traceio import trace_document, write_trace

            with tracing.capture() as tracer:
                code = _dispatch(args, spec, horizon, effective)
            document = trace_document(
                tracer.drain(),
                labels={tracer.pid: spec.name},
                metadata={"scenario": spec.name},
                dropped=tracer.dropped,
            )
            path = write_trace(Path(args.trace_out), document)
            print(f"  trace written to {path}")
            return code
        return _dispatch(args, spec, horizon, effective)
    except ValueError as exc:
        # Scenario configs validate their horizons (e.g. "the horizon leaves
        # no room for the recovery to play out"); surface that as a CLI error
        # rather than a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace, spec, horizon: Optional[int], effective: int) -> int:
    if args.compare:
        dense_s, dense_stats = _timed_run(spec.name, horizon, dense=True)
        event_s, event_stats = _timed_run(spec.name, horizon, dense=False)
        print(f"scenario {spec.name}: {effective} cycles simulated")
        _print_stats(event_stats)
        print(f"  dense kernel        : {dense_s * 1e3:8.1f} ms wall-clock")
        print(f"  event-driven kernel : {event_s * 1e3:8.1f} ms wall-clock")
        print(f"  speedup             : {dense_s / max(event_s, 1e-9):8.2f}x")
        if dense_stats != event_stats:
            print("  WARNING: kernels disagree on the statistics above", file=sys.stderr)
            return 1
        return 0

    elapsed, stats = _timed_run(spec.name, horizon, dense=args.dense)
    kernel = "dense" if args.dense else "event-driven"
    rate = effective / max(elapsed, 1e-9)
    print(f"scenario {spec.name}: {effective} cycles simulated ({kernel} kernel)")
    _print_stats(stats)
    print(f"  wall-clock {elapsed * 1e3:.1f} ms  ({rate / 1e6:.2f} Mcycle/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
