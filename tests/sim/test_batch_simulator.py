"""Kernel-level tests for batched (prefix-shared) execution.

Covers the two halves of the plan/state split:

* :class:`repro.sim.SchedulePlan` interning — simulators of identical
  topology share one immutable plan object, and per-instance mutation
  (deadline heaps, volatile-list reordering) never leaks across instances;
* :meth:`repro.sim.Simulator.run_to_stops` — the kernel primitive behind
  the sweep layer's ``--batch`` mode: a run through stops ends in exactly
  the state of a standalone run, and every stop observes exactly the state
  a standalone run of that horizon would have finished in.
"""

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.component import Component


class Blinker(Component):
    """Cacheable periodic pulse counter (the wake-cache test workhorse)."""

    wake_cacheable = True

    def __init__(self, period, name="blinker"):
        super().__init__(name)
        self.period = period
        self.countdown = period
        self.pulses = 0
        self.idle_cycles = 0

    def tick(self, cycle):
        self.countdown -= 1
        if self.countdown == 0:
            self.pulses += 1
            self.countdown = self.period

    def next_event(self):
        return self.countdown

    def skip(self, cycles):
        self.countdown -= cycles
        self.idle_cycles += cycles


def _build(periods):
    simulator = Simulator()
    blinkers = [
        simulator.add_component(Blinker(period, name=f"b{i}")) for i, period in enumerate(periods)
    ]
    return simulator, blinkers


class TestPlanSharing:
    def test_same_topology_shares_one_plan(self):
        sim_a, _ = _build([7, 1000])
        sim_b, _ = _build([13, 500])  # different parameters, same structure
        sim_a.step(10)
        sim_b.step(10)
        assert sim_a.state.bound_plan is sim_b.state.bound_plan
        assert sim_a.kernel_stats["plan_builds"] == 1
        assert sim_b.kernel_stats["plan_builds"] == 1
        assert sim_b.kernel_stats["plan_shared"] == 1

    def test_fresh_topology_builds_fresh_plan(self):
        class Unique(Blinker):  # local class => new type => new fingerprint
            pass

        simulator = Simulator()
        simulator.add_component(Unique(5))
        simulator.step(10)
        assert simulator.kernel_stats["plan_builds"] == 1
        assert simulator.kernel_stats["plan_shared"] == 0

    def test_shared_plan_is_immutable_across_instances(self):
        sim_a, (a,) = _build([10])
        sim_b, (b,) = _build([10])
        sim_a.step(95)
        sim_b.step(25)
        # Same plan object, independent per-instance state.
        assert sim_a.state.bound_plan is sim_b.state.bound_plan
        assert (a.pulses, b.pulses) == (9, 2)
        assert sim_a.current_cycle == 95
        assert sim_b.current_cycle == 25

    def test_cached_wakes_toggle_selects_a_different_plan(self):
        sim_a, _ = _build([10])
        sim_a.step(5)
        cached_plan = sim_a.state.bound_plan
        sim_a.cached_wakes = False
        sim_a.step(5)
        assert sim_a.state.bound_plan is not cached_plan
        assert sim_a.kernel_stats["plan_builds"] == 2


class TestBatchSimulator:
    """Batched execution through :meth:`Simulator.run_to_stops`."""

    def test_batched_instances_match_standalone_runs(self, numpy_presence):
        # Heterogeneous periods and horizons: every run through stops must
        # end in exactly the state of its own standalone run, with or
        # without numpy installed.
        configs = [([7, 50], 1_000), ([13, 990], 2_500), ([1, 3], 311)]
        for periods, horizon in configs:
            solo_sim, solo_blinkers = _build(periods)
            solo_sim.step(horizon)
            simulator, blinkers = _build(periods)
            simulator.run_to_stops([(horizon, lambda elapsed: None)])
            batched = [(b.pulses, b.idle_cycles, b.countdown) for b in blinkers]
            solo = [(b.pulses, b.idle_cycles, b.countdown) for b in solo_blinkers]
            assert batched == solo
            assert simulator.current_cycle == horizon

    def test_stops_observe_the_exact_standalone_state(self):
        # A stop at cycle k must see the state a standalone step(k) produces,
        # even though the run continues to a larger horizon.
        stops_at = [311, 1_000, 2_048]
        solo_states = []
        for horizon in stops_at:
            simulator, (blinker,) = _build([7])
            simulator.step(horizon)
            solo_states.append((blinker.pulses, blinker.idle_cycles, blinker.countdown))

        simulator, (blinker,) = _build([7])
        seen = {}

        def snapshot(elapsed):
            seen[elapsed] = (blinker.pulses, blinker.idle_cycles, blinker.countdown)

        # Given out of order: run_to_stops fires them sorted by cycle.
        simulator.run_to_stops([(cycles, snapshot) for cycles in reversed(stops_at)])
        assert list(seen) == stops_at
        assert [seen[cycles] for cycles in stops_at] == solo_states
        assert simulator.current_cycle == stops_at[-1]

    def test_stops_count_from_the_current_cycle(self):
        simulator, _ = _build([7])
        simulator.step(100)
        seen = []
        simulator.run_to_stops([(50, lambda elapsed: seen.append((elapsed, simulator.current_cycle)))])
        assert seen == [(50, 150)]

    def test_dense_instances_are_supported(self):
        simulator, (blinker,) = _build([10])
        simulator.dense = True
        simulator.run_to_stops([(100, lambda elapsed: None)])
        assert blinker.pulses == 10
        assert simulator.kernel_stats["dense_ticks"] == 100

    def test_stop_validation(self):
        simulator, _ = _build([10])
        with pytest.raises(SimulationError, match="at least one stop"):
            simulator.run_to_stops([])
        with pytest.raises(SimulationError, match="at least one cycle"):
            simulator.run_to_stops([(0, lambda elapsed: None)])
        with pytest.raises(SimulationError, match="duplicate stop"):
            simulator.run_to_stops([(5, lambda elapsed: None), (5, lambda elapsed: None)])
        # Validation happens before any cycle runs.
        assert simulator.current_cycle == 0

    def test_callback_advancing_the_simulator_is_detected(self):
        simulator, _ = _build([10])
        with pytest.raises(SimulationError, match="advanced the simulator"):
            simulator.run_to_stops([(50, lambda elapsed: simulator.step(1))], label="meddler")

    def test_zero_progress_raises_instead_of_spinning(self, numpy_presence):
        # Regression: a run whose advance_span returns 0 (mis-wired wake
        # scheduling) must raise, naming the label, its elapsed cycle, and
        # the pending stop, instead of spinning forever.
        simulator, _ = _build([10])
        simulator.state.advance_span = lambda limit, dense=False: 0
        with pytest.raises(SimulationError) as excinfo:
            simulator.run_to_stops([(50, lambda elapsed: None)], label="stuck-instance")
        message = str(excinfo.value)
        assert "stuck-instance" in message
        assert "elapsed cycle 0" in message
        assert "cycle 50" in message
