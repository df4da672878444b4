"""Sweep execution: run every point of a campaign, serially or sharded.

The unit of work is one :class:`~repro.sweep.campaign.SweepPoint`.
:func:`run_point` runs the scenario through the registry's instrumented
entry point and post-processes the SoC into the structured record the
artifacts layer serialises: scalar stats, flattened activity counters, the
Figure 5 power breakdown, and the Figure 6a area breakdown.

:func:`execute_campaign` fans the points out:

* ``jobs == 1`` (or one usable core, or a single chunk) — plain serial loop
  in this process (the reference path);
* otherwise — a ``multiprocessing`` pool over **chunks** of points.  Points
  are batched into per-worker chunks (auto-sized to a few chunks per worker,
  overridable via ``chunk=``/``--chunk``) so small campaigns amortise the
  pickling/dispatch overhead that used to make ``--jobs 2`` *slower* than
  serial; worker processes are additionally capped at the machine's core
  count, because oversubscribing a small host only adds context-switching.

Results are keyed and re-sorted by point index, and every per-point output is
a pure function of the point itself (wall-clock timing is kept out of the
comparable payload), so the aggregated results of a sharded run are
**byte-identical** to the serial run — for any ``jobs`` and any ``chunk`` —
the property ``tests/sweep/test_execute.py`` pins.

**Incremental re-execution** (:func:`execute_campaign` with ``reuse=``):
records recovered from a previous run's ``results.json`` (see
:mod:`repro.sweep.resume`) are dropped into place without re-running their
points, which is how ``python -m repro.run sweep <campaign> --resume`` skips
work that already exists under an identical campaign manifest.

**Multi-host distribution** (:func:`execute_campaign` with ``shard=``): a
:class:`~repro.sweep.campaign.ShardSpec` restricts execution to one
contiguous index range of the expanded grid.  Sharding composes with
``jobs``/``chunk`` (the shard's points still fan out over the local pool)
and with ``reuse`` (reusable indices outside the shard are simply never
consulted), and the shard's artifacts record the slice so
:mod:`repro.sweep.merge` can validate coverage when stitching shards back
together.

**Batched execution** (:func:`execute_campaign` with ``batch=``): scenarios
that register a batch-prepare hook (see
:mod:`repro.workloads.registry`) have their points grouped by parameters —
points that differ only in ``horizon_cycles`` share one prepared simulation,
which :meth:`~repro.sim.simulator.Simulator.run_to_stops` runs once to the
deepest horizon, one group after another.  Each point's record
is snapshotted the instant its horizon is reached, through exactly the same
post-processing as :func:`run_point`, so batched artifacts are
byte-identical to per-instance ones (``tests/sweep/test_batch.py`` pins
this for every registry campaign).  ``batch=None`` auto-enables batching
whenever the scenario supports it; batching composes with ``jobs``/
``chunk`` (groups are packed whole into chunks), ``shard``, and ``reuse``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.area.model import PelsAreaModel
from repro.obs import tracing
from repro.obs.metrics import KERNEL_STAT_KEYS, CounterSet, MetricsRegistry
from repro.obs.profile import PhaseTimer
from repro.power.model import PowerModel
from repro.sim.simulator import SimulationError, Simulator, StopCallback
from repro.sweep.campaign import CampaignSpec, ShardSpec, SweepPoint, expand_campaign
from repro.workloads.registry import (
    BatchUnsupported,
    ScenarioOutcome,
    run_scenario_instrumented,
    scenario,
)


@dataclass
class PointResult:
    """Everything one sweep point produced (deterministic fields only,
    except ``wall_seconds`` which the artifacts layer routes to the manifest
    rather than the comparable results payload)."""

    index: int
    scenario: str
    horizon_cycles: int
    params: Dict[str, object]
    seed: int
    stats: Dict[str, object] = field(default_factory=dict)
    #: Activity counters flattened to ``"component.event" -> count``.
    activity: Dict[str, int] = field(default_factory=dict)
    #: Figure 5 component powers in µW (plus ``Total``); empty when the
    #: scenario exposes no SoC.
    power_uw: Dict[str, float] = field(default_factory=dict)
    #: Figure 6a area components in kGE (plus ``Total``); empty without PELS.
    area_kge: Dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: True when the record was recovered from a previous run's artifacts
    #: (``--resume``) instead of being executed in this process.
    reused: bool = False


@dataclass
class CampaignResult:
    """All point results of one campaign execution."""

    campaign: str
    scenario: str
    points: List[PointResult]
    jobs: int
    wall_seconds: float
    #: Chunk size the pool dispatch used (1 when serial).
    chunk: int = 1
    #: The slice of the campaign this execution covered (None = the whole
    #: grid); see :class:`~repro.sweep.campaign.ShardSpec`.
    shard: Optional[ShardSpec] = None
    #: Size of the *full* expanded grid (equals ``n_points`` when unsharded).
    points_total: int = 0
    #: How many points were executed through the batched (shared-prefix)
    #: executor rather than the per-instance path; recorded in the manifest.
    batched_points: int = 0
    #: Why points that could have batched did not: one record per fallback
    #: (``{"reason": ..., "points": [indices]}``), recorded in the manifest
    #: next to ``batched_points`` and surfaced in the CLI summary.
    batch_fallbacks: List[Dict[str, object]] = field(default_factory=list)
    #: Always ``None``; kept only because ``perfbench/rep.py`` reads it.
    backend: Optional[str] = None
    #: Points whose execution raised: one structured record per failure
    #: (see :func:`_failed_record`), sorted by index.  Failed points are
    #: absent from ``points`` — their records never enter the comparable
    #: payload — so downstream they look exactly like missing coverage,
    #: which is what lets ``merge --heal`` / the fleet re-run them.
    failed_points: List[Dict[str, object]] = field(default_factory=list)
    #: Campaign-level telemetry (phase profile + metrics registry), present
    #: only when the execution ran with ``trace=``/``profile=``; the
    #: artifacts layer embeds it as the manifest's ``execution.telemetry``.
    telemetry: Optional[Dict[str, object]] = None
    #: Chrome trace events buffered by worker-owned tracers (``trace=True``
    #: under a pool).  The caller combines these with its own installed
    #: tracer's buffer (which holds the serial/parent-side events) into one
    #: exported document.
    trace_events: List[Dict[str, object]] = field(default_factory=list)
    #: Events the worker tracers dropped at their buffer caps.
    trace_dropped: int = 0
    #: Plan-cache provenance (``--plan-cache``): the resolved cache path
    #: plus hit/miss/write/error totals summed across workers and any
    #: swallowed-failure notes; ``None`` when the execution ran without a
    #: cache.  The artifacts layer embeds it as ``execution.cache``.
    cache: Optional[Dict[str, object]] = None

    @property
    def n_points(self) -> int:
        """Number of executed points."""
        return len(self.points)

    @property
    def n_reused(self) -> int:
        """How many points were recovered from a previous run (``--resume``)."""
        return sum(1 for point in self.points if point.reused)

    @property
    def n_computed(self) -> int:
        """How many points were actually executed (not recovered)."""
        return self.n_points - self.n_reused

    @property
    def n_failed(self) -> int:
        """How many points raised instead of producing a record."""
        return len(self.failed_points)


ProgressCallback = Callable[[int, int, PointResult], None]


def _finalize_point(point: SweepPoint, outcome: ScenarioOutcome, wall: float) -> PointResult:
    """Derive one point's record from its scenario outcome.

    Shared by the per-instance path (:func:`run_point`, at end of run) and
    the batched path (:func:`run_point_groups`, at the instant the point's
    horizon is reached) — one code path, so the two modes cannot drift.
    """
    activity: Dict[str, int] = {}
    power_uw: Dict[str, float] = {}
    area_kge: Dict[str, float] = {}
    soc = outcome.soc
    if soc is not None:
        snapshot = soc.activity.as_dict()
        activity = {f"{component}.{event}": count for (component, event), count in sorted(snapshot.items())}
        # Average over the cycles actually simulated: condition-driven
        # scenarios (e.g. threshold-pels) may stop well short of the
        # requested horizon, and normalising over the request would dilute
        # every dynamic-power column.
        breakdown = PowerModel().estimate(
            snapshot,
            window_cycles=max(soc.simulator.current_cycle, 1),
            frequency_hz=soc.frequency_hz,
            scenario=point.scenario,
            pels_present=soc.pels is not None,
        )
        power_uw = breakdown.as_dict()
        if soc.pels is not None and soc.config.pels_config is not None:
            area_kge = PelsAreaModel().estimate(soc.config.pels_config).as_dict()

    record = {"stats": outcome.stats, "activity": activity, "power_uw": power_uw, "area_kge": area_kge}
    return _point_result(point, record, wall)


def _point_result(point: SweepPoint, record: Mapping[str, Mapping[str, object]], wall: float) -> PointResult:
    """One point's result: its own identity plus the record fields that do
    not depend on it (``stats``, ``activity``, ``power_uw``, ``area_kge``)
    — freshly derived by :func:`_finalize_point` or served by the plan
    cache."""
    return PointResult(
        index=point.index,
        scenario=point.scenario,
        horizon_cycles=point.horizon_cycles,
        params=dict(point.params),
        seed=point.seed,
        stats=dict(record["stats"]),
        activity=dict(record["activity"]),
        power_uw=dict(record["power_uw"]),
        area_kge=dict(record["area_kge"]),
        wall_seconds=wall,
    )


def run_point(point: SweepPoint) -> PointResult:
    """Execute one sweep point and derive its power/area records."""
    start = time.perf_counter()
    outcome = run_scenario_instrumented(
        point.scenario,
        horizon_cycles=point.horizon_cycles,
        dense=point.dense,
        params=point.params,
    )
    return _finalize_point(point, outcome, time.perf_counter() - start)


@dataclass
class ChunkOutcome:
    """What one pool task produced: the chunk's point records plus the
    batching bookkeeping (how many points actually shared a prepared
    simulation, and why any group fell back to per-instance execution).
    Under ``trace=``/``profile=`` the task additionally ships its telemetry
    home: worker-summed phase seconds, summed kernel stats, and (when this
    process owned its tracer) the buffered trace events."""

    results: List[PointResult] = field(default_factory=list)
    fallbacks: List[Dict[str, object]] = field(default_factory=list)
    #: Structured records of points whose execution raised (one per failed
    #: point; see :func:`_failed_record`).  A failing point must not poison
    #: the chunk — the rest of the chunk's results still ship home.
    failures: List[Dict[str, object]] = field(default_factory=list)
    batched_points: int = 0
    #: Worker-side per-phase wall seconds (empty when telemetry is off).
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Summed ``kernel_stats`` across the chunk's simulations.
    kernel_stats: Dict[str, int] = field(default_factory=dict)
    #: Buffered Chrome trace events from a worker-owned tracer (empty when
    #: the parent owns the tracer — serial mode — or tracing is off).
    trace_events: List[Dict[str, object]] = field(default_factory=list)
    #: Events the worker-owned tracer dropped at its buffer cap.
    dropped_events: int = 0
    #: Plan-cache hit/miss/write/error counts for this chunk (empty when the
    #: task ran without ``plan_cache``); summed into ``execution.cache``.
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: Swallowed cache-integrity failures ("<entry>: <why>"), surfaced in
    #: the manifest so silent cold-start fallbacks stay visible.
    cache_notes: List[str] = field(default_factory=list)


class _ChunkTelemetry:
    """One chunk task's telemetry accumulators (phase timer, kernel-stat
    totals); ``None`` stands for telemetry-off everywhere."""

    __slots__ = ("timer", "kernel")

    def __init__(self) -> None:
        self.timer = PhaseTimer()
        self.kernel = CounterSet(KERNEL_STAT_KEYS)


def _chunk_scope(trace: bool, profile: bool):
    """Set up one chunk task's telemetry: accumulators plus tracer ownership.

    A pool worker owns (installs and later drains) its own tracer; in serial
    mode the already-installed parent tracer is used directly and its events
    stay with the parent.  The pid check distinguishes the two: a forked
    worker inherits the parent's tracer object, whose pid no longer matches.
    """
    tele = _ChunkTelemetry() if (trace or profile) else None
    tracer = tracing.TRACER
    owned = False
    if trace and (tracer is None or tracer.pid != os.getpid()):
        tracer = tracing.install()
        owned = True
    return tele, tracer, owned


def _finish_chunk(
    outcome: ChunkOutcome, tele: Optional[_ChunkTelemetry], owned_tracer
) -> ChunkOutcome:
    """Stamp a chunk task's telemetry onto its outcome before it ships."""
    if tele is not None:
        outcome.phase_seconds = {name: s for name, s in tele.timer.as_dict().items() if s > 0.0}
        outcome.kernel_stats = tele.kernel.snapshot()
    if owned_tracer is not None:
        outcome.trace_events = owned_tracer.drain()
        outcome.dropped_events = owned_tracer.dropped
    return outcome


def _point_task(point: SweepPoint, tele: Optional[_ChunkTelemetry]) -> PointResult:
    """:func:`run_point` with phase attribution, kernel-stat absorption, and
    a ``sweep.point`` trace span (per-instance points report their scenario
    build inside ``simulate``; only the batched path has a distinct
    ``prepare``)."""
    tracer = tracing.TRACER
    if tele is None and tracer is None:
        return run_point(point)
    start_ns = tracer.now_ns() if tracer is not None else 0
    start = time.perf_counter()
    outcome = run_scenario_instrumented(
        point.scenario,
        horizon_cycles=point.horizon_cycles,
        dense=point.dense,
        params=point.params,
    )
    sim_seconds = time.perf_counter() - start
    result = _finalize_point(point, outcome, sim_seconds)
    if tele is not None:
        tele.timer.add("simulate", sim_seconds)
        tele.timer.add("finalize", time.perf_counter() - start - sim_seconds)
        if outcome.soc is not None:
            tele.kernel.add(outcome.soc.simulator.kernel_stats)
    if tracer is not None:
        tracer.event(
            "sweep.point",
            "sweep",
            start_ns,
            tracer.now_ns() - start_ns,
            {"index": point.index, "scenario": point.scenario, "horizon": point.horizon_cycles},
        )
    return result


def _failed_record(point: SweepPoint, exc: BaseException) -> Dict[str, object]:
    """The structured manifest record of one point whose execution raised.

    Everything a human (or the fleet) needs to reproduce and triage the
    failure without the worker's stderr: the point's identity (index, label,
    params, seed) plus the exception and its formatted traceback.
    """
    return {
        "index": point.index,
        "scenario": point.scenario,
        "label": f"{point.scenario}#{point.index}",
        "horizon_cycles": point.horizon_cycles,
        "params": dict(point.params),
        "seed": point.seed,
        "error": f"{type(exc).__name__}: {exc}",
        "traceback": "".join(traceback.format_exception(type(exc), exc, exc.__traceback__)),
    }


def _run_point_guarded(
    point: SweepPoint, outcome: ChunkOutcome, tele: Optional[_ChunkTelemetry]
) -> None:
    """Run one point, routing success to ``outcome.results`` and an exception
    to ``outcome.failures`` — a raising point must not poison the pool task
    (the chunk's other points, and the whole campaign with them, used to die
    with it)."""
    try:
        if tele is None and tracing.TRACER is None:
            outcome.results.append(run_point(point))
        else:
            outcome.results.append(_point_task(point, tele))
    except Exception as exc:
        outcome.failures.append(_failed_record(point, exc))


def run_points(points: Sequence[SweepPoint], trace: bool = False, profile: bool = False) -> ChunkOutcome:
    """Pool task: execute one chunk of points in order (per-instance)."""
    outcome = ChunkOutcome()
    if not (trace or profile) and tracing.TRACER is None:
        for point in points:
            _run_point_guarded(point, outcome, None)
        return outcome
    tele, tracer, owned = _chunk_scope(trace, profile)
    try:
        for point in points:
            _run_point_guarded(point, outcome, tele)
    finally:
        if owned:
            tracing.uninstall()
    return _finish_chunk(outcome, tele, tracer if owned else None)


# ------------------------------------------------------------------ batching


def batch_groups(points: Sequence[SweepPoint]) -> List[List[SweepPoint]]:
    """Group points that can share one prepared simulation.

    Points of the same scenario with identical parameters (and kernel) that
    differ only in ``horizon_cycles`` form one group: the simulation of the
    largest horizon passes through every smaller one, so a single instance
    serves the whole group.  Groups preserve first-occurrence order and each
    group is sorted by horizon.
    """
    grouped: Dict[Tuple, List[SweepPoint]] = {}
    for point in points:
        key = (point.scenario, point.dense, tuple(sorted(point.params.items())))
        grouped.setdefault(key, []).append(point)
    return [sorted(group, key=lambda point: point.horizon_cycles) for group in grouped.values()]


def _fallback_record(group: Sequence[SweepPoint], reason: str) -> Dict[str, object]:
    """One manifest ``batch_fallbacks`` entry (deterministic fields only)."""
    return {"reason": reason, "points": [point.index for point in group]}


def _enroll_group(
    group: Sequence[SweepPoint],
    results: List[PointResult],
    tele: Optional["_ChunkTelemetry"] = None,
    cache=None,
) -> Optional[Tuple[Simulator, List[Tuple[int, StopCallback]], str]]:
    """Prepare one shared-prefix group and build its snapshot stops.

    Returns ``(simulator, stops, label)`` for the caller to hand to
    :meth:`~repro.sim.simulator.Simulator.run_to_stops` right away, or
    ``None`` when the plan cache served every horizon.  Raises
    :class:`BatchUnsupported` or :class:`SimulationError` (from the
    scenario's batch-prepare hook) when the group cannot share a prepared
    instance — the caller falls back to per-instance execution for just
    that group.

    With a ``cache`` (:class:`~repro.cache.PlanCache`), every horizon that
    has a valid record is served straight from it: its points' results are
    built from the record plus each point's own identity, with nothing
    restored or simulated and no power estimate rerun.  The remaining
    horizons are simulated by one cold instance from cycle 0, which
    publishes each of their records as it passes it — healing the cache
    for the next run.
    """
    first = group[0]
    spec = scenario(first.scenario)
    tracer = tracing.TRACER
    enroll_ns = tracer.now_ns() if tracer is not None else 0
    by_horizon: Dict[int, List[SweepPoint]] = {}
    for point in group:
        by_horizon.setdefault(point.horizon_cycles, []).append(point)
    horizons = sorted(by_horizon)
    key = None
    pending = horizons
    # Each point is charged the time since the previous stop of its group
    # (manifest diagnostics only — never part of the comparable payload).
    clock = {"last": time.perf_counter()}
    if cache is not None:
        from repro.cache.plan_cache import group_cache_key

        key = group_cache_key(first.scenario, first.dense, dict(first.params), horizons)
        pending = []
        for horizon in horizons:
            points = by_horizon[horizon]
            record = cache.lookup(key, horizon, points=len(points))
            if record is None:
                pending.append(horizon)
                continue
            now = time.perf_counter()
            wall, clock["last"] = now - clock["last"], now
            results.extend(_point_result(point, record, wall) for point in points)

    run = None
    if pending:
        prepared = spec.batch_prepare(horizons, first.dense, **dict(first.params))
        clock["last"] = time.perf_counter()

        def finalize(elapsed: int, points: Sequence[SweepPoint]) -> None:
            now = time.perf_counter()
            wall, clock["last"] = now - clock["last"], now
            outcome = prepared.outcome(elapsed)
            finalized = [_finalize_point(point, outcome, wall) for point in points]
            results.extend(finalized)
            if tele is not None:
                tele.timer.add("finalize", time.perf_counter() - now)
            if cache is not None:
                publish_start = time.perf_counter()
                # The cache keeps only the fields that do not depend on the
                # point, which are the same for every point of this horizon.
                cache.publish(key, elapsed, vars(finalized[0]))
                if tele is not None:
                    tele.timer.add("cache", time.perf_counter() - publish_start)

        # Merge the scenario's drive script (mid-run testbench interference,
        # e.g. watchdog-recovery's fault injection) into the stop schedule.
        # A drive sharing a cycle with a snapshot stop fires first — exactly
        # the standalone order (interfere, then keep running / observe).
        # Drives beyond the deepest pending horizon are dropped: the
        # instance never simulates past it (deeper horizons were served from
        # the cache or not requested).
        drives_by_cycle: Dict[int, List[Callable[[int], None]]] = {}
        for cycle, callback in prepared.drive_stops():
            if 0 < cycle <= pending[-1]:
                drives_by_cycle.setdefault(cycle, []).append(callback)

        def stop_at(horizon: int) -> Callable[[int], None]:
            drives = tuple(drives_by_cycle.pop(horizon, ()))
            points = tuple(by_horizon[horizon])

            def fire(elapsed: int) -> None:
                for drive in drives:
                    drive(elapsed)
                finalize(elapsed, points)

            return fire

        stops = [(horizon, stop_at(horizon)) for horizon in pending]
        for cycle, callbacks in drives_by_cycle.items():

            def fire_drives(elapsed: int, drives=tuple(callbacks)) -> None:
                for drive in drives:
                    drive(elapsed)

            stops.append((cycle, fire_drives))
        run = (prepared.simulator, stops, f"{first.scenario}#{first.index}")
    if tracer is not None:
        tracer.event(
            "sweep.enroll",
            "sweep",
            enroll_ns,
            tracer.now_ns() - enroll_ns,
            {
                "scenario": first.scenario,
                "points": len(group),
                "horizons": len(horizons),
                "served": len(horizons) - len(pending),
            },
        )
    return run


def run_point_groups(
    groups: Sequence[Sequence[SweepPoint]],
    trace: bool = False,
    profile: bool = False,
    plan_cache: Optional[str] = None,
) -> ChunkOutcome:
    """Pool task: execute one chunk of shared-prefix groups, batched.

    Groups run one after another: each is prepared (or served from the
    plan cache) and then run through
    :meth:`~repro.sim.simulator.Simulator.run_to_stops`, and every point's
    record is snapshotted exactly when its horizon is reached.  A group
    whose batch-prepare hook declines (:class:`BatchUnsupported` — e.g.
    heterogeneous derived parameters) runs per-instance inside this same
    task, with the reason recorded in the outcome's ``fallbacks``.  A group
    whose run raises loses only its own points that had not been
    snapshotted yet.  ``plan_cache`` (a directory path) serves horizons
    from point records published by earlier runs and publishes the records
    of the horizons it simulates; see :mod:`repro.cache.plan_cache`.
    """
    tele, tracer, owned = _chunk_scope(trace, profile)
    cache = None
    if plan_cache is not None:
        from repro.cache import PlanCache

        cache = PlanCache(plan_cache)
    try:
        outcome = ChunkOutcome()
        results = outcome.results
        for group in groups:
            try:
                if tele is None:
                    run = _enroll_group(group, results, cache=cache)
                else:
                    with tele.timer.phase("prepare"):
                        run = _enroll_group(group, results, tele=tele, cache=cache)
            except (BatchUnsupported, SimulationError) as exc:
                outcome.fallbacks.append(_fallback_record(group, str(exc)))
                for point in group:
                    _run_point_guarded(point, outcome, tele)
                continue
            outcome.batched_points += len(group)
            if run is None:
                continue
            simulator, stops, label = run
            start = time.perf_counter()
            finalize_before = tele.timer.seconds["finalize"] if tele is not None else 0.0
            try:
                simulator.run_to_stops(stops, label=label)
            except Exception as exc:
                # Only this group's points whose horizons had not been
                # snapshotted yet are lost; everything already snapshotted
                # (and every other group) survives in ``results``.
                done = {result.index for result in results}
                lost = [point for point in group if point.index not in done]
                outcome.failures.extend(_failed_record(point, exc) for point in lost)
                outcome.batched_points -= len(lost)
            if tele is not None:
                # The stop callbacks finalize point records mid-run; that
                # time is already charged to "finalize", so "simulate" gets
                # the rest.
                run_wall = time.perf_counter() - start
                finalized = tele.timer.seconds["finalize"] - finalize_before
                tele.timer.add("simulate", max(run_wall - finalized, 0.0))
                tele.kernel.add(simulator.kernel_stats)
        if cache is not None:
            outcome.cache_stats = cache.counters.as_dict()
            outcome.cache_notes = list(cache.notes)
    finally:
        if owned:
            tracing.uninstall()
    return _finish_chunk(outcome, tele, tracer if owned else None)


def _chunked_groups(
    groups: Sequence[Sequence[SweepPoint]], chunk: int
) -> List[List[List[SweepPoint]]]:
    """Pack whole groups into chunks of roughly ``chunk`` points.

    Groups are never split: splitting one would sever the shared prefix and
    re-simulate it per fragment.  A group larger than ``chunk`` therefore
    becomes its own chunk.
    """
    chunks: List[List[List[SweepPoint]]] = []
    current: List[List[SweepPoint]] = []
    count = 0
    for group in groups:
        if current and count + len(group) > chunk:
            chunks.append(current)
            current, count = [], 0
        current.append(group)
        count += len(group)
    if current:
        chunks.append(current)
    return chunks


def auto_chunk(n_points: int, jobs: int) -> int:
    """Default chunk size: about four chunks per worker.

    Large enough to amortise dispatch/pickling on small campaigns, small
    enough that the unordered collection still load-balances points whose
    cost varies (horizon axes span orders of magnitude).
    """
    if jobs <= 1:
        return max(n_points, 1)
    return max(1, n_points // (jobs * 4))


def _chunked(points: Sequence[SweepPoint], chunk: int) -> List[List[SweepPoint]]:
    return [list(points[start : start + chunk]) for start in range(0, len(points), chunk)]


def execute_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    chunk: Optional[int] = None,
    reuse: Optional[Mapping[int, PointResult]] = None,
    shard: Optional[ShardSpec] = None,
    batch: Optional[bool] = None,
    trace: bool = False,
    profile: bool = False,
    plan_cache: Optional[str] = None,
) -> CampaignResult:
    """Run every point of ``spec`` and return the aggregated result.

    ``jobs`` is the requested number of worker processes (``1`` runs
    everything in this process; the effective pool is additionally capped at
    the core count and the chunk count).  ``chunk`` overrides the auto-sized
    per-worker batch.  ``reuse`` maps point indices to previously computed
    results (see :mod:`repro.sweep.resume`); those points are not re-run.
    ``shard`` restricts execution to one contiguous index range of the grid
    (see :class:`~repro.sweep.campaign.ShardSpec`); ``reuse`` entries outside
    the shard are ignored.  ``batch`` selects the batched (shared-prefix)
    executor: ``None`` auto-enables it when the scenario registers a
    batch-prepare hook, ``True`` requests it, ``False`` forces the
    per-instance path.  Groups (or whole scenarios) that cannot batch fall
    back to per-instance execution with the reason recorded in
    ``batch_fallbacks`` — never silently.  ``progress`` (if given) is called after each
    completed point with ``(completed, total, result)`` where ``total`` is
    the shard-local point count — note that under sharding or batching the
    completion *order* is nondeterministic even though the aggregated
    results are not.

    ``trace``/``profile`` turn on telemetry collection (``--trace-out`` /
    ``--profile``): the result gains a ``telemetry`` block (phase profile
    plus metrics registry) and, under ``trace``, the worker-buffered trace
    events.  Telemetry never touches the comparable payload — results are
    byte-identical with it on or off (``tests/sweep/test_telemetry.py``).

    ``plan_cache`` (``--plan-cache DIR``) points the batched path at a
    persistent point-record cache: each horizon whose record an earlier
    run published (same campaign, another shard, another fleet worker) is
    served from it without simulating, and every horizon simulated here
    publishes its record.  The cache affects wall-clock only — warm
    artifacts are byte-identical to cold ones
    (``tests/sweep/test_plan_cache_sweep.py``) — and its hit/miss totals
    (in points) land in the result's ``cache`` block.  Served points still
    count as computed: the cache feeds execution, it is not ``--resume``.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if chunk is not None and chunk < 1:
        raise ValueError("chunk must be at least 1")
    use_batch = batch is not False and scenario(spec.scenario).batch_prepare is not None
    telemetry = trace or profile
    timer = PhaseTimer() if telemetry else None
    kernel_totals = CounterSet(KERNEL_STAT_KEYS) if telemetry else None
    campaign_tracer = tracing.TRACER
    campaign_ns = campaign_tracer.now_ns() if campaign_tracer is not None else 0
    if timer is not None:
        with timer.phase("expand"):
            all_points = expand_campaign(spec)
    else:
        all_points = expand_campaign(spec)
    points_total = len(all_points)
    points = shard.select(all_points) if shard is not None else all_points
    total = len(points)
    start = time.perf_counter()
    results: List[PointResult] = []
    fallbacks: List[Dict[str, object]] = []
    failed: List[Dict[str, object]] = []
    if reuse:
        results.extend(reuse[point.index] for point in points if point.index in reuse)
        points = [point for point in points if point.index not in reuse]
        for completed, result in enumerate(results, start=1):
            result.reused = True
            if progress is not None:
                progress(completed, total, result)
    if batch is not False and not use_batch and points:
        # The scenario has no batch-prepare hook at all: one campaign-level
        # fallback record covering every executed point.
        fallbacks.append(
            _fallback_record(
                points, f"scenario {spec.scenario!r} does not support batched execution"
            )
        )

    chunk_size = chunk if chunk is not None else auto_chunk(len(points), jobs)
    if use_batch:
        chunks: List = _chunked_groups(batch_groups(points), chunk_size)
        task: Callable = partial(
            run_point_groups,
            trace=trace,
            profile=profile,
            plan_cache=plan_cache,
        )
    else:
        chunks = _chunked(points, chunk_size)
        task = partial(run_points, trace=trace, profile=profile) if telemetry else run_points
    # Workers beyond the core count (or the chunk count) only add overhead;
    # the aggregated artifacts are independent of the pool geometry anyway.
    workers = min(jobs, os.cpu_count() or 1, len(chunks))
    batched_points = 0
    trace_events: List[Dict[str, object]] = []
    trace_dropped = 0
    cache_totals: Dict[str, int] = {"hits": 0, "misses": 0, "writes": 0, "errors": 0}
    cache_notes: List[str] = []

    def collect(outcome: ChunkOutcome) -> None:
        nonlocal batched_points, trace_dropped
        batched_points += outcome.batched_points
        fallbacks.extend(outcome.fallbacks)
        failed.extend(outcome.failures)
        if timer is not None:
            timer.merge(outcome.phase_seconds)
            kernel_totals.add(outcome.kernel_stats)
        trace_events.extend(outcome.trace_events)
        trace_dropped += outcome.dropped_events
        for name, value in outcome.cache_stats.items():
            cache_totals[name] = cache_totals.get(name, 0) + value
        cache_notes.extend(outcome.cache_notes)
        for result in outcome.results:
            results.append(result)
            if progress is not None:
                progress(len(results), total, result)

    if workers <= 1:
        for piece in chunks:
            collect(task(piece))
    else:
        with multiprocessing.Pool(processes=workers) as pool:
            for outcome in pool.imap_unordered(task, chunks):
                collect(outcome)
    results.sort(key=lambda result: result.index)
    # Deterministic fallback/failure order regardless of pool completion order.
    fallbacks.sort(key=lambda record: record["points"])
    failed.sort(key=lambda record: record["index"])
    wall_seconds = time.perf_counter() - start
    cache_payload: Optional[Dict[str, object]] = None
    if plan_cache is not None:
        cache_payload = {"path": str(plan_cache)}
        cache_payload.update(cache_totals)
        cache_payload["notes"] = sorted(set(cache_notes))
    telemetry_payload: Optional[Dict[str, object]] = None
    if telemetry:
        registry = MetricsRegistry()
        registry.absorb_kernel_stats(kernel_totals)
        computed = sum(1 for result in results if not result.reused)
        registry.counter("sweep.points", {"kind": "computed"}).inc(computed)
        registry.counter("sweep.points", {"kind": "reused"}).inc(len(results) - computed)
        registry.counter("sweep.points", {"kind": "batched"}).inc(batched_points)
        registry.counter("sweep.points", {"kind": "failed"}).inc(len(failed))
        if plan_cache is not None:
            registry.counter("cache.hit").inc(cache_totals["hits"])
            registry.counter("cache.miss").inc(cache_totals["misses"])
            registry.counter("cache.write").inc(cache_totals["writes"])
            registry.counter("cache.error").inc(cache_totals["errors"])
        walls = registry.histogram("sweep.point_wall_seconds")
        for result in results:
            if not result.reused:
                walls.observe(result.wall_seconds)
        telemetry_payload = {
            "enabled": {"trace": trace, "profile": profile},
            "profile": timer.as_dict(),
            "metrics": registry.as_dict(),
        }
    if campaign_tracer is not None:
        campaign_tracer.event(
            "sweep.campaign",
            "sweep",
            campaign_ns,
            campaign_tracer.now_ns() - campaign_ns,
            {"campaign": spec.name, "points": len(results), "jobs": jobs},
        )
    return CampaignResult(
        campaign=spec.name,
        scenario=spec.scenario,
        points=results,
        jobs=jobs,
        wall_seconds=wall_seconds,
        chunk=chunk_size,
        shard=shard,
        points_total=points_total,
        batched_points=batched_points,
        batch_fallbacks=fallbacks,
        failed_points=failed,
        telemetry=telemetry_payload,
        trace_events=trace_events,
        trace_dropped=trace_dropped,
        cache=cache_payload,
    )
