"""The fleet controller: autonomous, fault-tolerant campaign orchestration.

One call to :func:`run_fleet` drives a whole campaign end to end:

1. **Cut** — the expanded grid is split into cost-weighted contiguous spans
   (:mod:`repro.fleet.cost`), calibrated from any past manifest timings
   found under ``--out``.
2. **Dispatch** — each span runs as an ordinary ``python -m repro.run sweep
   <campaign> --shard I/N@START:STOP`` worker through the configured
   :mod:`transport <repro.fleet.transport>`, so artifacts are produced by
   exactly the code path a human would use and stay byte-identical.
3. **Supervise** — the :class:`~repro.fleet.supervisor.Supervisor` polls
   every worker, SIGKILLs any that outlive the timeout, and classifies the
   exits (timeout / crash / nonzero-exit); acceptance is then decided by
   **artifact validation** (:func:`repro.sweep.merge.validate_shard_dir`),
   never by exit status alone — a killed worker that flushed valid
   artifacts is salvaged, a clean exit with a truncated results.json is
   classified ``corrupt-artifacts`` and rejected.
4. **Heal** — the accepted directories are merged; on incomplete coverage
   the standard heal plan is written to ``heal.json`` and **consumed right
   back**: its shard specs are re-dispatched after an exponential backoff
   (``base·2^(round-1)``, capped), for at most ``--max-retries`` heal
   rounds.  Only missing points are ever re-run.
5. **Degrade** — if the retry budget runs out, every completed point is
   salvaged into partial merged artifacts under ``<campaign>/partial/``,
   the final ``heal.json`` stays as the hand-off, and the fleet exits with
   the distinct code :data:`EXIT_PARTIAL`.  Completed work is never lost.

Everything the fleet does is recorded in the ``fleet.json`` ledger
(:mod:`repro.fleet.ledger`), including per-attempt telemetry counters in
the PR 7 metrics schema.  Chaos faults (``--chaos kill:0,hang:3``) inject
real failures — an actual SIGKILL, an argv swapped for a sleeper, a
post-exit artifact truncation — through the production supervision path,
which is what ``tests/fleet/`` and the ``fleet-chaos`` CI job drive.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sweep.artifacts import MANIFEST_JSON, RESULTS_JSON, shard_dirname
from repro.sweep.campaign import CampaignSpec, ShardSpec, expand_campaign
from repro.sweep.merge import (
    HEAL_JSON,
    IncompleteCoverageError,
    MergedCampaign,
    MergeError,
    merge_shards,
    plan_heal,
    validate_shard_dir,
    write_heal_plan,
    write_merged_artifacts,
)
from repro.sweep.resume import spec_hash

from repro.fleet.cost import cut_shards, estimate_costs, scavenge_point_walls, store_point_walls
from repro.fleet.ledger import STATUS_COMPLETE, STATUS_PARTIAL, FleetLedger
from repro.fleet.supervisor import CRASH, EXITED, NONZERO_EXIT, TIMEOUT, Attempt, Supervisor
from repro.fleet.transport import (
    Transport,
    WorkerSpec,
    default_worker_argv,
    resolve_transport,
)

#: Fleet exit codes.  0 = complete; 4 = retry budget exhausted but partial
#: artifacts + heal.json + ledger written (distinct from the sweep CLI's
#: 1/2/3 so automation can tell graceful degradation from hard failure).
EXIT_COMPLETE = 0
EXIT_PARTIAL = 4

#: Validated-outcome labels (the supervisor's exit classes plus the two
#: verdicts only artifact validation can assign).
COMPLETED = "completed"
PARTIAL_DELIVERY = "partial-delivery"
CORRUPT_ARTIFACTS = "corrupt-artifacts"

CHAOS_FAULTS = ("kill", "hang", "truncate")


def parse_chaos(text: str) -> Dict[int, str]:
    """Parse ``--chaos kill:0,hang:3,truncate:5`` into ``{ordinal: fault}``.

    The ordinal counts worker launches fleet-wide (0-based, across rounds),
    so a fault targets one specific attempt and its retry runs clean.
    """
    plan: Dict[int, str] = {}
    for part in filter(None, (piece.strip() for piece in text.split(","))):
        fault, sep, ordinal_text = part.partition(":")
        if not sep or fault not in CHAOS_FAULTS:
            raise ValueError(
                f"chaos spec {part!r} must be fault:ordinal with fault one of "
                f"{', '.join(CHAOS_FAULTS)}"
            )
        try:
            ordinal = int(ordinal_text)
        except ValueError:
            raise ValueError(f"chaos spec {part!r}: ordinal must be an integer") from None
        if ordinal < 0:
            raise ValueError(f"chaos spec {part!r}: ordinal must be non-negative")
        if ordinal in plan:
            raise ValueError(f"chaos spec: ordinal {ordinal} given twice")
        plan[ordinal] = fault
    return plan


@dataclass
class FleetConfig:
    """Everything one fleet run needs (CLI flags map 1:1 onto this)."""

    campaign: str
    workers: int
    out: Path = Path("results/sweeps")
    max_retries: int = 3
    timeout: Optional[float] = 600.0
    backoff_base: float = 0.5
    backoff_cap: float = 30.0
    #: ``--jobs`` passed to each worker (workers already parallelise across
    #: shards, so per-worker pools default to serial).
    worker_jobs: int = 1
    transport: str = "local"
    #: Thread telemetry through the workers (--trace-out/--profile) so the
    #: merged artifacts carry a stitched multi-lane Perfetto trace.
    trace: bool = False
    #: Results-store database to feed and feed from (``--store``): accepted
    #: shard artifacts are ingested the moment validation accepts them, and
    #: the cost model calibrates from stored timings in addition to the
    #: directory scavenge.  ``None`` disables both (the default).  Store
    #: failures degrade to ledger notes — the store is an accelerant, never
    #: a dependency of campaign completion.
    store: Optional[Path] = None
    #: Shared point-record cache directory passed to every worker
    #: (``--plan-cache``).  ``None`` auto-provisions
    #: ``<out>/<campaign>/plan-cache`` — :func:`run_fleet` resolves it and
    #: writes the resolved path back here so every launch (including heal
    #: rounds) uses the same directory.  Workers running with a plan cache
    #: also run ``--profile`` so their manifests carry kernel stats and the
    #: ledger can aggregate ``plan_shared``/cache counters fleet-wide.
    plan_cache: Optional[Path] = None
    #: ``--no-plan-cache`` disables warm starts entirely.
    plan_cache_enabled: bool = True
    #: Fault injection: launch ordinal -> fault (see :func:`parse_chaos`).
    chaos: Dict[int, str] = field(default_factory=dict)
    #: Seconds after launch at which a ``kill`` chaos fault fires.
    chaos_kill_delay: float = 0.15
    poll_interval: float = 0.05
    #: Progress sink (fleet progress lines; default stderr).
    echo: Callable[[str], None] = lambda message: print(message, file=sys.stderr, flush=True)


@dataclass
class FleetResult:
    """What :func:`run_fleet` produced."""

    status: str
    exit_code: int
    rounds: int
    missing: List[int]
    artifacts: Dict[str, Path]
    ledger_path: Path
    campaign_dir: Path


class _ChaosInjector:
    """Applies the chaos plan at the three injection points."""

    def __init__(self, plan: Dict[int, str], kill_delay: float) -> None:
        self.plan = dict(plan)
        self.kill_delay = kill_delay
        self.launches = 0

    def next_fault(self) -> Optional[str]:
        fault = self.plan.get(self.launches)
        self.launches += 1
        return fault

    @staticmethod
    def hang_argv() -> List[str]:
        # A worker that never makes progress: exercises the timeout path for
        # real (the supervisor must notice and SIGKILL it).
        return [sys.executable, "-c", "import time; time.sleep(3600)"]

    @staticmethod
    def truncate_artifacts(artifact_dir: Path) -> None:
        results = Path(artifact_dir) / RESULTS_JSON
        if results.exists():
            text = results.read_text(encoding="utf-8")
            results.write_text(text[: max(len(text) // 2, 1)], encoding="utf-8")


def _worker_argv(config: FleetConfig, shard: ShardSpec) -> List[str]:
    argv = default_worker_argv() + [
        "sweep",
        config.campaign,
        "--shard",
        str(shard),
        "--out",
        str(config.out),
        "--jobs",
        str(config.worker_jobs),
    ]
    if config.trace:
        argv += ["--trace-out", "trace.json", "--profile"]
    if config.plan_cache_enabled and config.plan_cache is not None:
        argv += ["--plan-cache", str(config.plan_cache)]
        if not config.trace:
            # Kernel stats only reach the shard manifest under --profile;
            # the ledger needs them to aggregate plan_shared fleet-wide.
            argv += ["--profile"]
    return argv


def _span_points(shard: ShardSpec, points_total: int) -> int:
    start, stop = shard.bounds(points_total)
    return stop - start


def run_fleet(config: FleetConfig, spec: Optional[CampaignSpec] = None) -> FleetResult:
    """Drive ``config.campaign`` end to end; see the module docstring.

    ``spec`` overrides the registry lookup (tests register ad-hoc
    campaigns in-process; subprocess workers can only see built-ins, so
    overriding only makes sense together with a registered campaign name).
    Raises ``KeyError`` for an unknown campaign and ``ValueError`` for
    unusable configuration — CLI-layer concerns; once dispatch starts, all
    failure is handled, ledgered, and expressed in the exit code.
    """
    if config.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {config.workers}")
    if config.max_retries < 0:
        raise ValueError(f"--max-retries must be non-negative, got {config.max_retries}")
    if spec is None:
        from repro.sweep.campaigns import campaign as campaign_lookup

        spec = campaign_lookup(config.campaign)
    points = expand_campaign(spec)
    points_total = len(points)
    campaign_dir = Path(config.out) / spec.name
    log_dir = campaign_dir / "fleet-logs"
    transport = resolve_transport(config.transport)
    if config.plan_cache_enabled:
        # One shared record cache for the whole fleet: the first worker to
        # reach a horizon publishes its record, every later worker (and
        # every heal-round re-run) serves that point from it.
        if config.plan_cache is None:
            config.plan_cache = campaign_dir / "plan-cache"
        config.plan_cache.mkdir(parents=True, exist_ok=True)
        config.echo(f"fleet: shared plan cache at {config.plan_cache}")
    ledger = FleetLedger(
        campaign=spec.name,
        spec_hash=spec_hash(spec),
        points_total=points_total,
        workers=config.workers,
        transport=transport.name,
        timeout=config.timeout,
        max_retries=config.max_retries,
        backoff_base=config.backoff_base,
        backoff_cap=config.backoff_cap,
    )
    ledger.config["plan_cache"] = (
        str(config.plan_cache) if config.plan_cache_enabled else None
    )
    chaos = _ChaosInjector(config.chaos, config.chaos_kill_delay)
    started = time.monotonic()

    walls, notes = scavenge_point_walls(spec, config.out)
    for note in notes:
        ledger.note(f"timing scavenge skipped a damaged directory: {note}")
        config.echo(f"fleet: scavenge: {note}")
    if config.store is not None:
        # Store timings fill the gaps the directory scavenge left; fresher
        # on-disk manifests win ties (they may post-date the last ingest).
        store_walls, store_notes = store_point_walls(spec, config.store)
        for index, wall in store_walls.items():
            walls.setdefault(index, wall)
        for note in store_notes:
            ledger.note(f"store timing calibration: {note}")
            config.echo(f"fleet: store: {note}")
    costs = estimate_costs(points, walls)
    shards = cut_shards(costs, config.workers)
    config.echo(
        f"fleet {spec.name}: {points_total} points cut into {len(shards)} "
        f"cost-weighted shard(s) for {config.workers} worker(s)"
        + (f" (calibrated from {len(walls)} past timings)" if walls else "")
    )

    accepted_dirs: List[Path] = []
    accepted_set: set = set()
    attempt_counts: Dict[str, int] = {}
    missing_before = list(range(points_total))
    merged: Optional[MergedCampaign] = None
    final_missing: List[int] = []
    round_index = 0
    backoff = 0.0

    while True:
        round_record = ledger.start_round(round_index, backoff, missing_before)
        if backoff > 0:
            config.echo(f"fleet: backing off {backoff:.2f}s before heal round {round_index}")
            time.sleep(backoff)
        attempts = _dispatch_round(
            config, spec, shards, transport, log_dir, chaos, attempt_counts
        )
        for attempt in attempts:
            delivered = _validate_attempt(attempt, spec)
            if attempt.accepted and attempt.artifact_dir not in accepted_set:
                accepted_set.add(attempt.artifact_dir)
                accepted_dirs.append(Path(attempt.artifact_dir))
                _absorb_shard_telemetry(ledger, Path(attempt.artifact_dir))
                if config.store is not None:
                    _ingest_accepted(config, ledger, Path(attempt.artifact_dir))
            ledger.record_attempt(round_record, attempt, delivered)
            config.echo(
                f"fleet: shard {attempt.shard} attempt {attempt.number}: "
                f"{attempt.outcome} (exit={attempt.exit_class} rc={attempt.returncode}, "
                f"{delivered} point(s), {attempt.wall_seconds:.2f}s)"
                + (f" chaos={attempt.chaos}" if attempt.chaos else "")
            )
        merged, gap = _try_merge(accepted_dirs, spec, points_total)
        if merged is not None:
            break
        plan = plan_heal(gap, config.out)
        heal_path = write_heal_plan(plan, config.out)
        missing_before = list(gap.missing)
        if round_index >= config.max_retries:
            final_missing = list(gap.missing)
            config.echo(
                f"fleet: retry budget exhausted with {len(final_missing)} point(s) "
                f"missing; heal plan at {heal_path}"
            )
            break
        # Consume the heal plan *from disk*: the file is the contract, and
        # reading it back guarantees a human re-running it by hand and the
        # fleet dispatch exactly the same work.
        plan = json.loads(heal_path.read_text(encoding="utf-8"))
        shards = [ShardSpec.parse(str(command["shard"])) for command in plan["commands"]]
        round_index += 1
        backoff = min(config.backoff_base * (2 ** (round_index - 1)), config.backoff_cap)
        config.echo(
            f"fleet: heal round {round_index}/{config.max_retries}: "
            f"{len(missing_before)} missing point(s) across {len(shards)} shard(s)"
        )

    artifacts: Dict[str, Path] = {}
    if merged is not None:
        paths = write_merged_artifacts(merged, config.out)
        artifacts = dict(paths)
        status, exit_code = STATUS_COMPLETE, EXIT_COMPLETE
        config.echo(
            f"fleet {spec.name}: complete — {merged.result.n_points} points merged "
            f"from {len(merged.sources)} shard artifact(s)"
        )
    else:
        status, exit_code = STATUS_PARTIAL, EXIT_PARTIAL
        if accepted_dirs:
            partial = merge_shards(accepted_dirs, allow_missing=True)
            paths = write_merged_artifacts(partial, config.out, subdir="partial")
            artifacts = dict(paths)
            config.echo(
                f"fleet {spec.name}: partial — salvaged {partial.result.n_points}/"
                f"{points_total} points into {campaign_dir / 'partial'}"
            )
        else:
            config.echo(f"fleet {spec.name}: partial — no shard delivered any artifacts")
        artifacts["heal_json"] = campaign_dir / HEAL_JSON

    ledger.finish(
        status=status,
        exit_code=exit_code,
        wall_seconds=time.monotonic() - started,
        missing=final_missing,
        artifacts=artifacts,
    )
    ledger_path = ledger.write(campaign_dir)
    config.echo(f"fleet ledger: {ledger_path}")
    return FleetResult(
        status=status,
        exit_code=exit_code,
        rounds=round_index + 1,
        missing=final_missing,
        artifacts=artifacts,
        ledger_path=ledger_path,
        campaign_dir=campaign_dir,
    )


def _dispatch_round(
    config: FleetConfig,
    spec: CampaignSpec,
    shards: Sequence[ShardSpec],
    transport: Transport,
    log_dir: Path,
    chaos: _ChaosInjector,
    attempt_counts: Dict[str, int],
) -> List[Attempt]:
    """Launch one round's shards under supervision; return finished attempts."""
    launches = [
        _make_launch(config, spec, shard, transport, log_dir, chaos, attempt_counts)
        for shard in shards
    ]
    supervisor = Supervisor(
        max_workers=config.workers, poll_interval=config.poll_interval
    )
    attempts = supervisor.run(launches)
    # Post-exit chaos: truncate the artifacts of a designated attempt before
    # validation sees them (the corrupt-artifacts path).
    for attempt in attempts:
        if attempt.chaos == "truncate":
            chaos.truncate_artifacts(Path(attempt.artifact_dir))
    return attempts


def _make_launch(
    config: FleetConfig,
    spec: CampaignSpec,
    shard: ShardSpec,
    transport: Transport,
    log_dir: Path,
    chaos: _ChaosInjector,
    attempt_counts: Dict[str, int],
):
    """Build one launch thunk (deferred so the supervisor controls timing)."""

    def launch() -> Attempt:
        key = str(shard)
        number = attempt_counts.get(key, 0) + 1
        attempt_counts[key] = number
        dirname = shard_dirname(shard)
        artifact_dir = Path(config.out) / spec.name / dirname
        fault = chaos.next_fault()
        argv = _worker_argv(config, shard)
        if fault == "hang":
            argv = chaos.hang_argv()
        worker_spec = WorkerSpec(
            name=f"{dirname}.a{number}",
            argv=argv,
            log_path=log_dir / f"{dirname}.a{number}.log",
        )
        handle = transport.launch(worker_spec)
        now = time.monotonic()
        attempt = Attempt(
            shard=shard,
            number=number,
            artifact_dir=artifact_dir,
            handle=handle,
            started=now,
            deadline=(now + config.timeout) if config.timeout else None,
            chaos=fault,
        )
        if fault == "kill":
            attempt.kill_at = now + config.chaos_kill_delay
        return attempt

    return launch


def _validate_attempt(attempt: Attempt, spec: CampaignSpec) -> int:
    """Validate one attempt's artifacts; set outcome/accepted; return the
    number of point records the attempt delivered."""
    directory = Path(attempt.artifact_dir)
    delivered = 0
    if not (directory / RESULTS_JSON).exists():
        attempt.accepted = False
        attempt.detail = f"{directory}: no artifacts produced"
    else:
        try:
            artifacts = validate_shard_dir(directory, spec)
        except MergeError as exc:
            attempt.accepted = False
            attempt.detail = str(exc)
        else:
            attempt.accepted = True
            delivered = len(artifacts.results.get("points", []))
    span = _span_points(attempt.shard, spec.n_points)
    if attempt.accepted:
        attempt.outcome = COMPLETED if delivered >= span else PARTIAL_DELIVERY
    elif attempt.exit_class in (TIMEOUT, CRASH, NONZERO_EXIT):
        attempt.outcome = attempt.exit_class
    elif attempt.exit_class == EXITED:
        attempt.outcome = CORRUPT_ARTIFACTS
    else:
        attempt.outcome = attempt.exit_class or "unknown"
    return delivered


def _absorb_shard_telemetry(ledger: FleetLedger, directory: Path) -> None:
    """Fold one accepted shard manifest's cache + kernel counters into the
    ledger's metrics registry.

    This is where ``kernel_stats.plan_shared`` (and the plan cache's
    hit/miss/write/error totals) become visible *fleet-wide*: each worker
    sums its own counters into its manifest, and the ledger sums across
    accepted shards.  Pure bookkeeping — any read failure degrades to a
    ledger note, never fleet failure.
    """
    manifest_path = Path(directory) / MANIFEST_JSON
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        execution = manifest.get("execution") or {}
    except (OSError, ValueError, AttributeError) as exc:
        ledger.note(f"telemetry aggregation skipped {manifest_path}: {exc}")
        return
    cache_block = execution.get("cache")
    if isinstance(cache_block, dict):
        for name, counter in (
            ("hits", "cache.hit"),
            ("misses", "cache.miss"),
            ("writes", "cache.write"),
            ("errors", "cache.error"),
        ):
            ledger.metrics.counter(counter).inc(int(cache_block.get(name) or 0))
        for note in cache_block.get("notes") or []:
            ledger.note(f"plan cache ({directory.name}): {note}")
    telemetry = execution.get("telemetry")
    if isinstance(telemetry, dict):
        counters = (telemetry.get("metrics") or {}).get("counter") or {}
        for name, value in counters.items():
            if name.startswith("kernel."):
                ledger.metrics.counter(name).inc(int(value))


def _ingest_accepted(config: FleetConfig, ledger: FleetLedger, directory: Path) -> None:
    """Fold one just-accepted shard directory into the results store.

    Every accepted shard is already past :func:`validate_shard_dir`, so
    ingestion should only ever insert or deduplicate; anything else —
    a locked/corrupt database, a content conflict — degrades to a ledger
    note and a metrics count.  The fleet's outcome never depends on the
    store: the merge still works from the directories alone.
    """
    from repro.store import StoreError, connect, ingest_directory

    try:
        conn = connect(config.store)
        try:
            report = ingest_directory(conn, directory)
        finally:
            conn.close()
    except StoreError as exc:
        ledger.note(f"store ingest failed for {directory}: {exc}")
        ledger.metrics.counter("fleet.store_ingest", {"outcome": "error"}).inc()
        config.echo(f"fleet: store ingest failed for {directory}: {exc}")
        return
    if report.conflicts:
        ledger.note(
            f"store ingest of {directory} hit {len(report.conflicts)} content "
            f"conflict(s) and was rolled back — determinism violation or stale store"
        )
        ledger.metrics.counter("fleet.store_ingest", {"outcome": "conflict"}).inc()
        config.echo(f"fleet: store ingest of {directory}: {len(report.conflicts)} conflict(s)")
        return
    ledger.metrics.counter("fleet.store_ingest", {"outcome": "ok"}).inc()
    ledger.metrics.counter("fleet.store_points", {"kind": "inserted"}).inc(report.inserted)
    ledger.metrics.counter("fleet.store_points", {"kind": "deduplicated"}).inc(report.deduplicated)
    ledger.note(
        f"store ingest {directory}: {report.inserted} inserted, "
        f"{report.deduplicated} deduplicated into {config.store}"
    )


def _try_merge(
    accepted_dirs: Sequence[Path], spec: CampaignSpec, points_total: int
) -> Tuple[Optional[MergedCampaign], Optional[IncompleteCoverageError]]:
    """Merge the accepted directories, or explain the gap.

    With zero accepted directories there is nothing to load, so the gap is
    synthesised directly: every point missing, no surviving shards.
    """
    if not accepted_dirs:
        return None, IncompleteCoverageError(
            "no shard delivered valid artifacts",
            spec=spec,
            points_total=points_total,
            missing=list(range(points_total)),
            shards=[],
        )
    try:
        return merge_shards(list(accepted_dirs)), None
    except IncompleteCoverageError as exc:
        return None, exc
