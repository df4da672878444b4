"""Pinned kernel_stats instrumentation for a small armed-PWM scenario.

The scheduler counters (``next_event_calls``, ``spans_skipped``,
``dense_ticks``, ``cycles_skipped``) are the observable contract of the
cached wake-horizon scheduler and the consumer-aware fabric: the CI
perf-regression job asserts wall-clock floors, but wall clocks are noisy —
these exact counts are the deterministic net that catches a kernel refactor
(plan/state splits included) silently regressing the scheduler into extra
polls or extra wakes.

The scenario is the benchmark's ``figure5-idle`` SoC with the PWM actuator
armed at a 128-cycle period: under the consumer-aware fabric nothing
observes the PWM's ``period`` line, so the cached scheduler must cross the
whole horizon in one span; the legacy (uncached, fully observed) kernel
must wake exactly once per PWM period.
"""

from repro.power.scenarios import build_idle_measurement_soc
from repro.workloads.pipeline import MultiLinkPipelineConfig, prepare_multi_link_pipeline

HORIZON = 50_000
PWM_PERIOD = 128


def _armed_idle_soc(legacy: bool):
    soc = build_idle_measurement_soc("pels", frequency_hz=27e6)
    if legacy:
        # PR-1 kernel: no deadline cache, every event line observed (the
        # pre-consumer-aware fabric woke for every PWM period pulse).
        soc.simulator.cached_wakes = False
        soc.fabric.subscribe(lambda line: None)
    soc.pwm.regs.reg("PERIOD").write(PWM_PERIOD)
    soc.pwm.start()
    soc.run(HORIZON)
    return soc


class TestCachedSchedulerCounts:
    def test_unobserved_pwm_crosses_the_horizon_in_one_span(self):
        soc = _armed_idle_soc(legacy=False)
        stats = soc.simulator.kernel_stats
        # One initial poll sweep over the hinted components (13 peripherals +
        # the CPU's volatile hint), then silence: the armed-but-unobserved
        # PWM never forces a boundary.
        assert stats["next_event_calls"] == 14
        assert stats["spans_skipped"] == 1
        assert stats["dense_ticks"] == 1
        assert stats["cycles_skipped"] == HORIZON - 1
        assert stats["plan_builds"] == 1

    def test_pwm_state_is_exact_despite_the_single_span(self):
        soc = _armed_idle_soc(legacy=False)
        # 50_000 cycles = 390 full 128-cycle periods plus the armed cycle:
        # the O(1) multi-period skip replay must account every wrap.
        assert soc.pwm.periods_elapsed == HORIZON // PWM_PERIOD - 0 == 390

    def test_time_accounting_is_complete(self):
        soc = _armed_idle_soc(legacy=False)
        stats = soc.simulator.kernel_stats
        assert stats["dense_ticks"] + stats["cycles_skipped"] == HORIZON


class TestLegacyKernelCounts:
    def test_observed_pwm_wakes_once_per_period(self):
        soc = _armed_idle_soc(legacy=True)
        stats = soc.simulator.kernel_stats
        periods = HORIZON // PWM_PERIOD  # 390
        # One dense tick per period wake plus the arming tick.
        assert stats["dense_ticks"] == periods + 1
        assert stats["spans_skipped"] == periods + 1
        assert stats["dense_ticks"] + stats["cycles_skipped"] == HORIZON
        # Every boundary re-polls all 12 hinted peripherals plus the CPU
        # (the poll-reorder heuristic trims the count slightly below
        # 13 * boundaries; pin the exact total).
        assert stats["next_event_calls"] == 4701

    def test_both_kernels_agree_on_the_pwm(self):
        cached = _armed_idle_soc(legacy=False)
        legacy = _armed_idle_soc(legacy=True)
        assert cached.pwm.periods_elapsed == legacy.pwm.periods_elapsed == 390
        assert (
            cached.pwm.regs.reg("COUNT").value == legacy.pwm.regs.reg("COUNT").value
        )


PIPELINE_HORIZON = 70_000


class TestPipelineSchedulerCounts:
    """The multi-link pipeline: a busy PELS whose blinker link spends most of
    its service time in ``wait`` countdowns.  PELS reports the earliest end
    of a countdown as its wake, so the scheduler skips the countdown cycles
    instead of ticking every component through them."""

    def test_wait_countdowns_are_skipped(self):
        prepared = prepare_multi_link_pipeline(
            MultiLinkPipelineConfig(clock_ratio=1, timer_period_cycles=150)
        )
        prepared.soc.run(PIPELINE_HORIZON)
        stats = prepared.soc.simulator.kernel_stats
        assert stats["dense_ticks"] == 13_049
        assert stats["spans_skipped"] == 3_263
        assert stats["cycles_skipped"] == 56_951
        assert stats["dense_ticks"] + stats["cycles_skipped"] == PIPELINE_HORIZON
