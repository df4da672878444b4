"""Tests for the Link composition and the PELS top level."""

import pytest

from repro.bus.apb import ApbBus
from repro.core.assembler import assemble
from repro.core.config import PelsConfig
from repro.core.isa import Command
from repro.core.pels import (
    LINK_REG_BASE_ADDR,
    LINK_REG_CAPTURE,
    LINK_REG_CONDITION,
    LINK_REG_ENABLE,
    LINK_REG_MASK,
    LINK_REG_STATUS,
    LINK_SCM_WINDOW,
    LINK_WINDOW_BASE,
    LINK_WINDOW_STRIDE,
    REG_GLOBAL_CTRL,
    REG_NUM_LINKS,
    REG_SCM_LINES,
    Pels,
)
from repro.core.trigger import TriggerCondition
from repro.peripherals.events import EventFabric
from repro.peripherals.gpio import Gpio
from repro.sim.simulator import SimulationError, Simulator


def build_pels(n_links=2, scm_lines=6, with_gpio=True):
    """Standalone PELS + GPIO + APB test bench."""
    simulator = Simulator()
    fabric = EventFabric()
    fabric.add_line("ext.event0", producer="test")
    fabric.add_line("ext.event1", producer="test")
    bus = ApbBus("apb")
    gpio = None
    if with_gpio:
        gpio = Gpio("gpio")
        gpio.connect_events(fabric)
        bus.attach_slave(0x1000, 0x1000, gpio)
        simulator.add_component(gpio)
    pels = Pels(PelsConfig(n_links=n_links, scm_lines=scm_lines), fabric, peripheral_bus=bus)
    simulator.add_component(pels)
    simulator.add_component(bus)
    return simulator, fabric, bus, gpio, pels


class TestLinkBasics:
    def test_program_too_large_for_scm_rejected(self):
        _, _, _, _, pels = build_pels(scm_lines=4)
        with pytest.raises(ValueError):
            pels.link(0).load_program([Command.end()] * 5)

    def test_link_lookup_bounds(self):
        _, _, _, _, pels = build_pels(n_links=2)
        assert pels.link(1).index == 1
        with pytest.raises(IndexError):
            pels.link(2)

    def test_status_word_reports_busy(self):
        simulator, fabric, _, _, pels = build_pels()
        pels.program_link(0, assemble("wait 10\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(3)
        assert pels.link(0).busy
        assert pels.link(0).status_word() & (1 << 10)
        assert pels.busy


class TestSequencedLinking:
    def test_set_command_modifies_gpio_register(self):
        simulator, fabric, _, gpio, pels = build_pels()
        program = assemble("set 0x401 0x1\nend")  # word offset 0x401 = GPIO OUT at 0x1004
        pels.program_link(0, program, trigger_mask=0b1, base_address=0x0)
        fabric.pulse("ext.event0")
        simulator.step(12)
        assert gpio.pad(0)
        record = pels.link(0).last_record
        assert record is not None
        assert record.sequenced_latency == 7  # the paper's sequenced-action latency

    def test_write_command(self):
        simulator, fabric, _, gpio, pels = build_pels()
        program = assemble("write 0x401 0xFF\nend")
        pels.program_link(0, program, trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(10)
        assert gpio.output_value == 0xFF

    def test_capture_and_jump_threshold(self):
        simulator, fabric, _, gpio, pels = build_pels()
        gpio.drive_input(80)  # sample to capture from the IN register (offset 0x1008)
        program = assemble(
            """
            capture 0x402 0xFF
            jump-if DONE LE 50
            set 0x401 0x1
            DONE: end
            """
        )
        pels.program_link(0, program, trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(20)
        assert gpio.pad(0)
        assert pels.link(0).execution.capture_register == 80

    def test_threshold_not_exceeded_skips_action(self):
        simulator, fabric, _, gpio, pels = build_pels()
        gpio.drive_input(10)
        program = assemble(
            """
            capture 0x402 0xFF
            jump-if DONE LE 50
            set 0x401 0x1
            DONE: end
            """
        )
        pels.program_link(0, program, trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(20)
        assert not gpio.pad(0)


class TestInstantActions:
    def test_action_routed_to_peripheral_input(self):
        simulator, fabric, _, gpio, pels = build_pels()
        pels.route_action_to_peripheral(group=0, bit=0, peripheral=gpio, port="set_pad0")
        pels.program_link(0, assemble("action 0 0x1\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(5)
        assert gpio.pad(0)
        record = pels.link(0).last_record
        assert record.instant_latency == 2  # the paper's instant-action latency

    def test_unrouted_action_is_counted_not_fatal(self):
        simulator, fabric, _, _, pels = build_pels()
        pels.program_link(0, assemble("action 0 0x2\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(5)
        assert pels.unrouted_actions == 1

    def test_action_callback_route(self):
        simulator, fabric, _, _, pels = build_pels()
        hits = []
        pels.route_action_to_callback(0, 1, "probe", lambda: hits.append(1))
        pels.program_link(0, assemble("action 0 0x2\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(5)
        assert hits == [1]

    def test_invalid_route_coordinates_rejected(self):
        _, _, _, gpio, pels = build_pels()
        with pytest.raises(ValueError):
            pels.route_action_to_peripheral(group=99, bit=0, peripheral=gpio, port="set_pad0")
        with pytest.raises(ValueError):
            pels.route_action_to_peripheral(group=0, bit=99, peripheral=gpio, port="set_pad0")

    def test_inter_link_triggering_via_loopback(self):
        """Marker 9 of Figure 2: one link's instant action triggers another link."""
        simulator, fabric, _, gpio, pels = build_pels(n_links=2)
        loopback = pels.add_loopback_line("link0_to_link1")
        pels.route_action_to_fabric(group=1, bit=0, line_name=loopback)
        pels.program_link(0, assemble("action 1 0x1\nend"), trigger_mask=0b1)
        link1_mask = 1 << fabric.index_of(loopback)
        pels.route_action_to_peripheral(group=0, bit=0, peripheral=gpio, port="set_pad0")
        pels.program_link(1, assemble("action 0 0x1\nend"), trigger_mask=link1_mask)
        fabric.pulse("ext.event0")
        simulator.step(10)
        assert gpio.pad(0)
        assert pels.link(1).events_serviced == 1


class TestTriggerConditions:
    def test_and_condition_needs_both_events(self):
        simulator, fabric, _, gpio, pels = build_pels()
        pels.route_action_to_peripheral(group=0, bit=0, peripheral=gpio, port="set_pad0")
        pels.program_link(
            0,
            assemble("action 0 0x1\nend"),
            trigger_mask=0b11,
            condition=TriggerCondition.ALL_SELECTED_ACTIVE,
        )
        fabric.pulse("ext.event0")
        simulator.step(4)
        assert not gpio.pad(0)
        fabric.pulse("ext.event0")
        fabric.pulse("ext.event1")
        simulator.step(4)
        assert gpio.pad(0)

    def test_disabled_pels_ignores_events(self):
        simulator, fabric, _, gpio, pels = build_pels()
        pels.program_link(0, assemble("set 0x401 0x1\nend"), trigger_mask=0b1)
        pels.enabled = False
        fabric.pulse("ext.event0")
        simulator.step(10)
        assert not gpio.pad(0)

    def test_parallel_links_service_the_same_event(self):
        simulator, fabric, _, gpio, pels = build_pels(n_links=2)
        pels.route_action_to_peripheral(group=0, bit=0, peripheral=gpio, port="set_pad0")
        pels.program_link(0, assemble("action 0 0x1\nend"), trigger_mask=0b1)
        pels.program_link(1, assemble("set 0x401 0x80\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(12)
        assert gpio.pad(0)
        assert gpio.output_value & 0x80
        assert pels.total_events_serviced() == 2


class TestConfigurationBusInterface:
    def test_global_registers(self):
        _, _, _, _, pels = build_pels(n_links=2, scm_lines=6)
        assert pels.bus_read(REG_NUM_LINKS) == 2
        assert pels.bus_read(REG_SCM_LINES) == 6
        assert pels.bus_read(REG_GLOBAL_CTRL) == 1
        pels.bus_write(REG_GLOBAL_CTRL, 0)
        assert not pels.enabled

    def test_link_registers_via_bus(self):
        _, _, _, _, pels = build_pels()
        base = LINK_WINDOW_BASE
        pels.bus_write(base + LINK_REG_MASK, 0b101)
        pels.bus_write(base + LINK_REG_CONDITION, 1)
        pels.bus_write(base + LINK_REG_BASE_ADDR, 0x2000)
        pels.bus_write(base + LINK_REG_ENABLE, 1)
        link = pels.link(0)
        assert link.trigger.mask == 0b101
        assert link.trigger.condition is TriggerCondition.ALL_SELECTED_ACTIVE
        assert link.execution.base_address == 0x2000
        assert link.trigger.enabled
        assert pels.bus_read(base + LINK_REG_MASK) == 0b101
        assert pels.bus_read(base + LINK_REG_STATUS) == link.status_word()
        assert pels.bus_read(base + LINK_REG_CAPTURE) == 0

    def test_microcode_upload_via_bus(self):
        """The CPU can write a link's SCM through the configuration window."""
        from repro.core.isa import encode_command

        _, _, _, _, pels = build_pels()
        command = Command.set(0x401, 0x1)
        encoded = encode_command(command)
        base = LINK_WINDOW_BASE + LINK_SCM_WINDOW
        pels.bus_write(base + 0, encoded & 0xFFFF_FFFF)
        pels.bus_write(base + 4, (encoded >> 32) & 0xFFFF)
        stored = pels.link(0).scm.fetch(0)
        assert stored == command
        assert pels.bus_read(base + 0) == encoded & 0xFFFF_FFFF
        assert pels.bus_read(base + 4) == (encoded >> 32) & 0xFFFF

    def test_second_link_window(self):
        _, _, _, _, pels = build_pels(n_links=2)
        offset = LINK_WINDOW_BASE + LINK_WINDOW_STRIDE + LINK_REG_MASK
        pels.bus_write(offset, 0xF0)
        assert pels.link(1).trigger.mask == 0xF0
        assert pels.link(0).trigger.mask == 0

    def test_out_of_range_window_is_ignored(self):
        _, _, _, _, pels = build_pels(n_links=1)
        pels.bus_write(LINK_WINDOW_BASE + 5 * LINK_WINDOW_STRIDE, 0xFF)  # no link 5
        assert pels.bus_read(LINK_WINDOW_BASE + 5 * LINK_WINDOW_STRIDE) == 0

    def test_window_size_covers_all_links(self):
        _, _, _, _, pels = build_pels(n_links=4)
        assert pels.window_size == LINK_WINDOW_BASE + 4 * LINK_WINDOW_STRIDE


class TestWaitHorizon:
    """PELS sleeps through ``wait`` countdowns: its wake is the earliest end."""

    def _two_waits(self, dense=False):
        simulator, fabric, _, _, pels = build_pels(n_links=2)
        simulator.dense = dense
        pels.program_link(0, assemble("wait 30\nend"), trigger_mask=0b1)
        pels.program_link(1, assemble("wait 12\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(2)  # trigger, then fetch the wait
        return simulator, fabric, pels

    def test_quiescent_pels_has_no_wake(self):
        _, _, _, _, pels = build_pels()
        assert pels.next_event() is None

    def test_wake_is_the_earliest_countdown_end(self):
        _, _, pels = self._two_waits()
        assert pels.next_event() == 12

    def test_skip_replays_the_countdown(self):
        _, _, pels = self._two_waits()
        busy_before = [link.execution.busy_cycles for link in pels.links]
        pels.skip(11)
        assert [link.execution.busy_cycles for link in pels.links] == [
            before + 11 for before in busy_before
        ]
        assert pels.next_event() == 1

    def test_skip_past_the_wake_raises(self):
        _, _, pels = self._two_waits()
        with pytest.raises(SimulationError):
            pels.skip(12)

    def test_skip_while_an_event_is_pending_raises(self):
        _, fabric, _, _, pels = build_pels()
        fabric.pulse("ext.event0")
        with pytest.raises(SimulationError):
            pels.skip(1)

    def test_event_driven_run_skips_and_matches_dense(self):
        event, _, event_pels = self._two_waits()
        dense, _, dense_pels = self._two_waits(dense=True)
        event.step(60)
        dense.step(60)
        assert event.kernel_stats["cycles_skipped"] > 0
        assert event.activity.as_dict() == dense.activity.as_dict()
        for event_link, dense_link in zip(event_pels.links, dense_pels.links):
            assert event_link.execution.busy_cycles == dense_link.execution.busy_cycles
            assert event_link.trigger.evaluations == dense_link.trigger.evaluations
            assert event_link.last_record.total_latency == dense_link.last_record.total_latency


class TestReset:
    def test_reset_clears_runtime_state(self):
        simulator, fabric, _, gpio, pels = build_pels()
        pels.program_link(0, assemble("set 0x401 0x1\nend"), trigger_mask=0b1)
        fabric.pulse("ext.event0")
        simulator.step(10)
        pels.reset()
        assert pels.total_events_serviced() == 0
        assert not pels.busy
