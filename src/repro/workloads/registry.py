"""Scenario registry for the batch runner and the sweep subsystem.

Every entry maps a stable scenario name to a callable that builds, runs, and
summarises one workload over a caller-chosen horizon.  The registry is what
``python -m repro.run`` dispatches on, what :mod:`repro.sweep` expands its
campaign grids over, and it gives tests and benchmarks a single place to
enumerate "everything the model can do".

Scenario callables take ``(horizon_cycles, dense, **params)`` and return a
:class:`ScenarioOutcome`; ``horizon_cycles`` is the simulated horizon in
base-clock cycles, ``dense`` selects the legacy cycle-driven kernel
(:mod:`repro.sim.simulator`) for A/B comparisons, and ``params`` are the
scenario's declared sweepable parameters (see :class:`ScenarioSpec.params`).
The outcome carries the flat scalar statistics plus (where available) the SoC
itself, so downstream consumers — the power and area models in the sweep
worker — can read activity counters and configuration without re-running.

:func:`run_scenario` keeps the original "stats dict" contract;
:func:`run_scenario_instrumented` exposes the full outcome.

**Batched execution.**  A scenario whose setup does not depend on the
horizon (the horizon only bounds how long the prepared system runs) may
additionally register a *batch-prepare* hook
(:func:`register_batch_prepare`): a callable taking ``(horizons, dense,
**params)`` that validates every requested horizon, builds the scenario
once for the largest, and returns a :class:`PreparedScenario`.  The sweep
layer's ``--batch`` mode runs such a prepared instance through
:meth:`repro.sim.simulator.Simulator.run_to_stops` and snapshots
:meth:`PreparedScenario.outcome` at each point's horizon — one simulation
serving every point that shares its parameters, byte-identical to running
each point alone (the simulation is deterministic and a shorter horizon is
a strict prefix of a longer one).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

ScenarioRunner = Callable[..., "ScenarioOutcome"]


class BatchUnsupported(ValueError):
    """A batch-prepare hook declining this particular point group.

    Raised when the scenario supports batching in general but the requested
    parameters cannot share one prepared instance (e.g. a fault-injection
    seed that derives *different* drives at different horizons).  The sweep
    executor catches it, runs the group per-instance, and records the reason
    in the manifest's ``batch_fallbacks`` — unlike a plain ``ValueError``,
    which still means "bad point" and propagates.
    """


class PreparedScenario:
    """One built, ready-to-advance scenario instance (batched execution).

    Subclasses expose the system under simulation and summarise it at any
    *elapsed* cycle count — which must equal what a standalone run with
    ``horizon_cycles=elapsed`` would report, because the batch executor
    snapshots the outcome mid-run at every shared point's horizon.
    """

    @property
    def simulator(self):
        """The :class:`repro.sim.Simulator` the batch driver advances."""
        raise NotImplementedError

    def outcome(self, elapsed_cycles: int) -> "ScenarioOutcome":
        """The scenario outcome as of ``elapsed_cycles`` simulated cycles.

        Called with the simulator paused exactly on ``elapsed_cycles``; must
        only observe (read counters, reference the SoC), never advance.
        """
        raise NotImplementedError

    def drive_stops(self) -> Sequence[Tuple[int, Callable[[int], None]]]:
        """Mid-run testbench interference as ``(cycle, callback)`` stops.

        Most scenarios run uninterrupted and return nothing.  Two-segment
        scenarios (watchdog-recovery's fault injection) return the resumable
        drive script here; the batch executor merges these into its snapshot
        schedule so the interference fires while the batch is paused exactly
        on that cycle — callbacks may mutate the system (that is their
        point) but must never advance the clock.
        """
        return ()


BatchPrepare = Callable[..., PreparedScenario]


@dataclass
class ScenarioOutcome:
    """Everything one scenario run produced.

    ``stats`` is the flat scalar summary the batch runner prints; ``soc`` is
    the simulated system itself (``None`` for scenarios that do not expose
    it), from which activity counters, the clock frequency, and the PELS
    configuration can be read for power/area post-processing.
    """

    stats: Dict[str, object] = field(default_factory=dict)
    soc: Optional[Any] = None


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario."""

    name: str
    description: str
    default_horizon_cycles: int
    run: ScenarioRunner
    #: Names of the keyword parameters the runner accepts beyond the horizon
    #: and kernel selection — the axes a sweep campaign may put in its grid.
    params: Tuple[str, ...] = ()
    #: Optional hook for batched execution: ``(horizons, dense, **params) ->
    #: PreparedScenario``.  ``None`` means the scenario cannot share a
    #: prepared instance across horizons (its setup depends on the horizon,
    #: or its drive pattern is not a single uninterrupted run) and the sweep
    #: layer falls back to per-point execution.
    batch_prepare: Optional[BatchPrepare] = None


_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(
    name: str,
    description: str,
    default_horizon_cycles: int,
    params: Tuple[str, ...] = (),
) -> Callable[[ScenarioRunner], ScenarioRunner]:
    """Decorator registering ``fn(horizon_cycles, dense, **params)`` under ``name``."""

    def decorator(fn: ScenarioRunner) -> ScenarioRunner:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        if default_horizon_cycles < 1:
            raise ValueError("the default horizon must be at least one cycle")
        _REGISTRY[name] = ScenarioSpec(
            name=name,
            description=description,
            default_horizon_cycles=default_horizon_cycles,
            run=fn,
            params=tuple(params),
        )
        return fn

    return decorator


def register_batch_prepare(name: str) -> Callable[[BatchPrepare], BatchPrepare]:
    """Decorator attaching a batch-prepare hook to the scenario ``name``.

    The hook takes ``(horizons, dense, **params)`` where ``horizons`` is the
    ascending list of horizons the prepared instance must serve; it validates
    each of them exactly as the plain runner would (so a bad point fails the
    same way batched or not) and returns a :class:`PreparedScenario` built
    for the largest.
    """

    def decorator(fn: BatchPrepare) -> BatchPrepare:
        spec = scenario(name)
        if spec.batch_prepare is not None:
            raise ValueError(f"scenario {name!r} already has a batch-prepare hook")
        _REGISTRY[name] = replace(spec, batch_prepare=fn)
        return fn

    return decorator


def prepare_scenario_batch(
    name: str,
    horizons: Sequence[int],
    dense: bool = False,
    params: Optional[Mapping[str, object]] = None,
) -> PreparedScenario:
    """Build one prepared instance of ``name`` serving every horizon in
    ``horizons`` (ascending).  Raises ``ValueError`` when the scenario has no
    batch-prepare hook or rejects the parameters/horizons."""
    spec = scenario(name)
    if spec.batch_prepare is None:
        raise ValueError(f"scenario {name!r} does not support batched execution")
    horizons = sorted(horizons)
    if not horizons:
        raise ValueError("prepare_scenario_batch needs at least one horizon")
    if horizons[0] < 1:
        raise ValueError("the horizon must be at least one cycle")
    return spec.batch_prepare(horizons, dense, **_validated_params(spec, params))


def scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from exc


def scenario_names() -> Tuple[str, ...]:
    """Sorted names of all registered scenarios."""
    return tuple(sorted(_REGISTRY))


def scenarios() -> Tuple[ScenarioSpec, ...]:
    """All registered scenarios, sorted by name."""
    return tuple(_REGISTRY[name] for name in scenario_names())


def _validated_params(spec: ScenarioSpec, params: Optional[Mapping[str, object]]) -> Dict[str, object]:
    if not params:
        return {}
    unknown = sorted(set(params) - set(spec.params))
    if unknown:
        accepted = ", ".join(spec.params) or "<none>"
        raise ValueError(
            f"scenario {spec.name!r} does not accept parameter(s) {unknown}; accepted: {accepted}"
        )
    return dict(params)


def run_scenario_instrumented(
    name: str,
    horizon_cycles: int | None = None,
    dense: bool = False,
    params: Optional[Mapping[str, object]] = None,
) -> ScenarioOutcome:
    """Run scenario ``name`` and return the full :class:`ScenarioOutcome`."""
    spec = scenario(name)
    horizon = spec.default_horizon_cycles if horizon_cycles is None else horizon_cycles
    if horizon < 1:
        raise ValueError("the horizon must be at least one cycle")
    outcome = spec.run(horizon, dense, **_validated_params(spec, params))
    if not isinstance(outcome, ScenarioOutcome):
        raise TypeError(f"scenario {name!r} returned {type(outcome).__name__}, not ScenarioOutcome")
    return outcome


def run_scenario(
    name: str,
    horizon_cycles: int | None = None,
    dense: bool = False,
    params: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Run scenario ``name`` and return its statistics dictionary."""
    return dict(run_scenario_instrumented(name, horizon_cycles, dense, params).stats)


# --------------------------------------------------------------- registrations


@register_scenario(
    "always-on-monitor",
    "Timer-paced ADC sampling into a PWM actuator loop with watchdog supervision",
    default_horizon_cycles=200_000,
    params=("sample_period_cycles",),
)
def _run_always_on_monitor(
    horizon_cycles: int, dense: bool, sample_period_cycles: int = 1_000
) -> ScenarioOutcome:
    from repro.peripherals.sensor import SensorWaveform
    from repro.soc.pulpissimo import SocConfig, build_soc
    from repro.workloads.periodic import PeriodicMonitorConfig, run_periodic_monitor

    period = sample_period_cycles
    config = PeriodicMonitorConfig(
        sample_period_cycles=period,
        n_samples=max(horizon_cycles // period - 4, 1),
        watchdog_timeout_cycles=3 * period,
        watchdog_grace_cycles=period,
    )
    soc = build_soc(
        SocConfig(
            sensor_waveform=SensorWaveform(kind="constant", amplitude=config.sensor_amplitude),
            dense=dense,
        )
    )
    result = run_periodic_monitor(config, soc=soc)
    stats = {
        "samples_taken": result.samples_taken,
        "duty_updates": result.duty_updates,
        "final_duty": result.final_duty,
        "watchdog_kicks": result.watchdog_kicks,
        "watchdog_barks": result.watchdog_barks,
        "cpu_interrupts": result.cpu_interrupts,
        "horizon_cycles": result.total_cycles,
    }
    return ScenarioOutcome(stats=stats, soc=soc)


@register_scenario(
    "duty-cycled-logging",
    "Duty-cycled multi-sensor logging: ADC + SPI readouts, µDMA log, PWM loop",
    default_horizon_cycles=500_000,
    params=("sample_period_cycles", "words_per_readout", "spi_cycles_per_word", "pwm_period"),
)
def _run_duty_cycled_logging(horizon_cycles: int, dense: bool, **params: object) -> ScenarioOutcome:
    from repro.workloads.longrun import DutyCycledLoggingConfig, run_duty_cycled_logging

    result = run_duty_cycled_logging(
        DutyCycledLoggingConfig(horizon_cycles=horizon_cycles, dense=dense, **params)
    )
    return ScenarioOutcome(stats=result.summary(), soc=result.soc)


@register_scenario(
    "burst-spi-dma",
    "Burst SPI→µDMA streaming to L2 with long silent gaps",
    default_horizon_cycles=1_000_000,
    params=("burst_period_cycles", "words_per_burst", "spi_cycles_per_word"),
)
def _run_burst_stream(horizon_cycles: int, dense: bool, **params: object) -> ScenarioOutcome:
    from repro.workloads.longrun import BurstStreamConfig, run_burst_stream

    result = run_burst_stream(BurstStreamConfig(horizon_cycles=horizon_cycles, dense=dense, **params))
    return ScenarioOutcome(stats=result.summary(), soc=result.soc)


@register_scenario(
    "watchdog-recovery",
    "Stalled sampling loop detected by the watchdog and restarted by PELS",
    default_horizon_cycles=200_000,
    params=("sample_period_cycles", "stall_after_samples", "seed"),
)
def _run_watchdog_recovery(
    horizon_cycles: int,
    dense: bool,
    seed: Optional[int] = None,
    **params: object,
) -> ScenarioOutcome:
    from repro.workloads.longrun import (
        WatchdogRecoveryConfig,
        run_watchdog_recovery,
        seeded_watchdog_recovery_config,
    )

    if seed is not None:
        if params:
            raise ValueError(
                "watchdog-recovery takes either a fault-injection seed or explicit "
                f"parameters, not both (got seed={seed} and {sorted(params)})"
            )
        config = seeded_watchdog_recovery_config(seed, horizon_cycles=horizon_cycles, dense=dense)
    else:
        config = WatchdogRecoveryConfig(horizon_cycles=horizon_cycles, dense=dense, **params)
    result = run_watchdog_recovery(config)
    stats = result.summary()
    stats["sample_period_cycles"] = config.sample_period_cycles
    stats["stall_after_samples"] = config.stall_after_samples
    return ScenarioOutcome(stats=stats, soc=result.soc)


@register_scenario(
    "threshold-pels",
    "Paper workload: threshold check after µDMA-managed SPI readout (PELS-linked)",
    default_horizon_cycles=50_000,
    params=("spi_cycles_per_word",),
)
def _run_threshold_pels(
    horizon_cycles: int, dense: bool, spi_cycles_per_word: int = 4
) -> ScenarioOutcome:
    from repro.soc.pulpissimo import SocConfig, build_soc
    from repro.workloads.threshold import ThresholdWorkloadConfig, run_pels_threshold_workload

    config = ThresholdWorkloadConfig(
        n_events=max(horizon_cycles // 6_000, 1), spi_cycles_per_word=spi_cycles_per_word
    )
    soc = build_soc(SocConfig(spi_cycles_per_word=config.spi_cycles_per_word, dense=dense))
    result = run_pels_threshold_workload(config, soc=soc)
    stats = {
        "events_serviced": result.events_serviced,
        "alerts_raised": result.alerts_raised,
        "mean_latency_cycles": result.mean_latency,
        "worst_latency_cycles": result.worst_latency,
        "horizon_cycles": result.total_cycles,
    }
    return ScenarioOutcome(stats=stats, soc=soc)


@register_scenario(
    "multi-link-pipeline",
    "Chained timer→ADC→UART→blinker pipeline across three specialised links",
    default_horizon_cycles=50_000,
    params=("timer_period_cycles", "clock_ratio", "blink_count"),
)
def _run_multi_link_pipeline(horizon_cycles: int, dense: bool, **params: object) -> ScenarioOutcome:
    from repro.workloads.pipeline import MultiLinkPipelineConfig, run_multi_link_pipeline

    result = run_multi_link_pipeline(
        MultiLinkPipelineConfig(horizon_cycles=horizon_cycles, dense=dense, **params)
    )
    return ScenarioOutcome(stats=result.summary(), soc=result.soc)


class _PreparedFigure5Idle(PreparedScenario):
    """Built idle-measurement SoC serving the ``figure5-idle`` scenario."""

    def __init__(self, soc, mode: str, frequency_mhz: float, pwm_period: int) -> None:
        self.soc = soc
        self.mode = mode
        self.frequency_mhz = frequency_mhz
        self.pwm_period = pwm_period

    @property
    def simulator(self):
        return self.soc.simulator

    def outcome(self, elapsed_cycles: int) -> ScenarioOutcome:
        soc = self.soc
        activity = soc.activity
        stats = {
            "mode": self.mode,
            "frequency_mhz": self.frequency_mhz,
            "cpu_sleep_cycles": soc.cpu.sleep_cycles,
            "cpu_interrupts": soc.cpu.interrupts_serviced,
            "pels_idle_cycles": activity.get("pels", "idle_cycles"),
            "sram_reads": activity.get("sram", "reads"),
            "horizon_cycles": elapsed_cycles,
        }
        if self.pwm_period:
            stats["pwm_periods_elapsed"] = soc.pwm.periods_elapsed
        return ScenarioOutcome(stats=stats, soc=soc)


def _prepare_figure5_idle(
    dense: bool, mode: str, frequency_mhz: float, pwm_period: int
) -> _PreparedFigure5Idle:
    from repro.power.scenarios import build_idle_measurement_soc

    soc = build_idle_measurement_soc(mode, frequency_hz=frequency_mhz * 1e6, dense=dense)
    if pwm_period:
        # Arm the PWM actuator (as the always-on monitor keeps it running
        # while idle).  Nothing consumes its ``period`` event line here, so
        # this is the workload the consumer-aware fabric exists for: the
        # legacy kernel wakes every period, the cached kernel free-runs.
        soc.pwm.regs.reg("PERIOD").write(int(pwm_period))
        soc.pwm.start()
    return _PreparedFigure5Idle(soc, mode, frequency_mhz, pwm_period)


@register_scenario(
    "figure5-idle",
    "Paper-scale idle power study: armed threshold link waiting for events (Figure 5 idle bars)",
    default_horizon_cycles=110_000,
    params=("mode", "frequency_mhz", "pwm_period"),
)
def _run_figure5_idle(
    horizon_cycles: int,
    dense: bool,
    mode: str = "pels",
    frequency_mhz: float = 27.0,
    pwm_period: int = 0,
) -> ScenarioOutcome:
    prepared = _prepare_figure5_idle(dense, mode, frequency_mhz, pwm_period)
    prepared.soc.run(horizon_cycles)
    return prepared.outcome(horizon_cycles)


# ------------------------------------------------------- batch-prepare hooks
#
# Only scenarios whose setup is horizon-independent may register here: the
# batched executor builds the instance once for the largest horizon and
# snapshots the outcome at each smaller one, so any horizon-derived setup
# (always-on-monitor's sample count) or unscriptable mid-run host
# interaction (threshold-pels' run_until loop) would break the byte-identity
# guarantee.  Scripted interference is fine: watchdog-recovery exposes its
# fault injection as a drive stop (:meth:`PreparedScenario.drive_stops`)
# that the executor replays at the exact stall cycle.


class _PreparedFromRunner(PreparedScenario):
    """Adapter from a workload's prepared object (``.simulator`` +
    ``.result(elapsed)``, optionally ``.drive_stops()``) to the registry's
    outcome contract."""

    def __init__(self, prepared) -> None:
        self._prepared = prepared

    @property
    def simulator(self):
        return self._prepared.simulator

    def outcome(self, elapsed_cycles: int) -> ScenarioOutcome:
        result = self._prepared.result(elapsed_cycles)
        return ScenarioOutcome(stats=result.summary(), soc=result.soc)

    def drive_stops(self) -> Sequence[Tuple[int, Callable[[int], None]]]:
        stops = getattr(self._prepared, "drive_stops", None)
        return tuple(stops()) if stops is not None else ()


def _register_prepared_hook(name: str, load: Callable[[], Tuple[type, Callable]]) -> None:
    """Batch-prepare hook for the config/prepare/result workload shape.

    ``load`` lazily imports and returns ``(config_cls, prepare_fn)``; the
    hook validates a config per requested horizon (exactly like the plain
    runner would point by point) and prepares one instance for the largest.
    """

    def hook(horizons: Sequence[int], dense: bool, **params: object) -> PreparedScenario:
        config_cls, prepare = load()
        configs = [
            config_cls(horizon_cycles=horizon, dense=dense, **params) for horizon in horizons
        ]
        return _PreparedFromRunner(prepare(configs[-1]))

    register_batch_prepare(name)(hook)


def _load_multi_link_pipeline() -> Tuple[type, Callable]:
    from repro.workloads.pipeline import MultiLinkPipelineConfig, prepare_multi_link_pipeline

    return MultiLinkPipelineConfig, prepare_multi_link_pipeline


def _load_duty_cycled_logging() -> Tuple[type, Callable]:
    from repro.workloads.longrun import DutyCycledLoggingConfig, prepare_duty_cycled_logging

    return DutyCycledLoggingConfig, prepare_duty_cycled_logging


def _load_burst_stream() -> Tuple[type, Callable]:
    from repro.workloads.longrun import BurstStreamConfig, prepare_burst_stream

    return BurstStreamConfig, prepare_burst_stream


_register_prepared_hook("multi-link-pipeline", _load_multi_link_pipeline)
_register_prepared_hook("duty-cycled-logging", _load_duty_cycled_logging)
_register_prepared_hook("burst-spi-dma", _load_burst_stream)


class _PreparedWatchdogRecoveryScenario(_PreparedFromRunner):
    """Watchdog-recovery adapter mirroring the plain runner's stats shape
    (the runner appends the resolved drive parameters to the summary)."""

    def outcome(self, elapsed_cycles: int) -> ScenarioOutcome:
        outcome = super().outcome(elapsed_cycles)
        config = self._prepared.config
        outcome.stats["sample_period_cycles"] = config.sample_period_cycles
        outcome.stats["stall_after_samples"] = config.stall_after_samples
        return outcome


@register_batch_prepare("watchdog-recovery")
def _batch_watchdog_recovery(
    horizons: Sequence[int],
    dense: bool,
    seed: Optional[int] = None,
    **params: object,
) -> PreparedScenario:
    from repro.workloads.longrun import (
        WatchdogRecoveryConfig,
        prepare_watchdog_recovery,
        seeded_watchdog_recovery_config,
    )

    if seed is not None and params:
        raise ValueError(
            "watchdog-recovery takes either a fault-injection seed or explicit "
            f"parameters, not both (got seed={seed} and {sorted(params)})"
        )
    configs = []
    for horizon in horizons:
        if seed is not None:
            configs.append(
                seeded_watchdog_recovery_config(seed, horizon_cycles=horizon, dense=dense)
            )
        else:
            configs.append(WatchdogRecoveryConfig(horizon_cycles=horizon, dense=dense, **params))
    # A seeded config derives its drive (period, stall instant) from the
    # horizon too; the shared instance is only a valid prefix of every point
    # when all horizons derive the same drive.
    drives = {(c.sample_period_cycles, c.stall_after_samples) for c in configs}
    if len(drives) > 1:
        raise BatchUnsupported(
            f"watchdog-recovery seed {seed} derives different fault-injection "
            f"drives across horizons {sorted(horizons)}; the points cannot "
            f"share one prepared instance"
        )
    return _PreparedWatchdogRecoveryScenario(prepare_watchdog_recovery(configs[-1]))


@register_batch_prepare("figure5-idle")
def _batch_figure5_idle(
    horizons: Sequence[int],
    dense: bool,
    mode: str = "pels",
    frequency_mhz: float = 27.0,
    pwm_period: int = 0,
) -> PreparedScenario:
    return _prepare_figure5_idle(dense, mode, frequency_mhz, pwm_period)
