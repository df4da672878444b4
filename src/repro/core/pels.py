"""PELS top level.

Wires together:

* the incoming **event broadcast**: every cycle the active event-line vector
  of the :class:`~repro.peripherals.events.EventFabric` is presented to every
  link's trigger unit;
* the **links** themselves;
* the **instant-action routing**: outgoing single-wire event lines are
  organised in groups; each (group, bit) position can be routed to a
  peripheral event input, looped back into the event fabric (inter-link
  triggering, marker 9 in Figure 2), or left unconnected;
* the **memory-mapped configuration interface** through which the main CPU
  programs trigger masks, conditions, base addresses, and microcode.

PELS is itself a bus slave (for configuration) *and* a bus master (its links
issue sequenced actions on the peripheral interconnect).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.bus.apb import ApbBus
from repro.bus.transaction import BusRequest
from repro.core.assembler import Program
from repro.core.config import PelsConfig
from repro.core.execution import ExecutionState
from repro.core.isa import Command, decode_command
from repro.core.link import Link
from repro.core.trigger import TriggerCondition
from repro.peripherals.events import EventFabric
from repro.sim.component import Component
from repro.sim.simulator import SimulationError

# Register map constants (byte offsets within the PELS configuration window).
REG_GLOBAL_CTRL = 0x000
REG_NUM_LINKS = 0x004
REG_SCM_LINES = 0x008
REG_EVENT_COUNT = 0x00C
LINK_WINDOW_BASE = 0x100
LINK_WINDOW_STRIDE = 0x100
LINK_REG_ENABLE = 0x00
LINK_REG_MASK = 0x04
LINK_REG_CONDITION = 0x08
LINK_REG_BASE_ADDR = 0x0C
LINK_REG_STATUS = 0x10
LINK_REG_CAPTURE = 0x14
LINK_SCM_WINDOW = 0x40  # each SCM line occupies two words: data word, then {opcode, field}

GLOBAL_ENABLE_BIT = 0x1

_IDLE = ExecutionState.IDLE


@dataclass(frozen=True)
class ActionTarget:
    """Destination of one outgoing instant-action line.

    ``kind`` is ``"peripheral"`` (call ``peripheral.on_event_input(port)``),
    ``"fabric"`` (pulse the named fabric line next cycle — the loopback path
    used for inter-link triggering), or ``"callback"`` (invoke an arbitrary
    callable, used by tests and by co-designed peripherals).
    """

    kind: str
    label: str
    deliver: Callable[[], None]


# The wiring callables below are module-level classes rather than closures so
# a fully built SoC graph stays picklable (the prepared-state snapshot cache
# serialises whole prepared scenarios; see repro.sim.snapshot).


class _BusSubmit:
    """Bus-master hook: count the sequenced transfer, then submit."""

    __slots__ = ("pels",)

    def __init__(self, pels: "Pels") -> None:
        self.pels = pels

    def __call__(self, request: BusRequest) -> BusRequest:
        bus = self.pels.peripheral_bus
        assert bus is not None
        self.pels.record("sequenced_transfers")
        return bus.submit(request)


class _ActionSink:
    """Per-link outgoing action line feeding :meth:`Pels._deliver_action`."""

    __slots__ = ("pels", "link_index")

    def __init__(self, pels: "Pels", link_index: int) -> None:
        self.pels = pels
        self.link_index = link_index

    def __call__(self, group: int, mask: int, toggle: bool, cycle: int) -> None:
        self.pels._deliver_action(self.link_index, group, mask, toggle, cycle)


class _PeripheralDelivery:
    """Routed instant action: pulse one peripheral event input."""

    __slots__ = ("peripheral", "port")

    def __init__(self, peripheral, port: str) -> None:
        self.peripheral = peripheral
        self.port = port

    def __call__(self) -> None:
        self.peripheral.on_event_input(self.port)


class _FabricLoopback:
    """Routed instant action: re-inject a fabric line pulse next cycle."""

    __slots__ = ("pels", "line_name")

    def __init__(self, pels: "Pels", line_name: str) -> None:
        self.pels = pels
        self.line_name = line_name

    def __call__(self) -> None:
        self.pels._pending_loopback.append(self.line_name)


class Pels(Component):
    """The Peripheral Event Linking System."""

    def __init__(
        self,
        config: PelsConfig,
        fabric: EventFabric,
        peripheral_bus: Optional[ApbBus] = None,
        name: str = "pels",
    ) -> None:
        super().__init__(name)
        self.config = config
        self.fabric = fabric
        self.peripheral_bus = peripheral_bus
        self._enabled = True
        #: Union of enabled links' trigger masks currently declared observed
        #: on the fabric (consumer-aware wake protocol).
        self._observed_mask = 0
        submit = self._make_bus_submit() if peripheral_bus is not None else None
        self.links: List[Link] = [
            Link(
                index=index,
                config=config.link_config(index),
                bus_submit=submit,
                action_sink=self._make_action_sink(index),
            )
            for index in range(config.n_links)
        ]
        # (group, bit) -> ActionTarget
        self._action_routes: Dict[Tuple[int, int], ActionTarget] = {}
        self._pending_loopback: List[str] = []
        self.instant_actions_delivered = 0
        self.unrouted_actions = 0
        self._scm_reads_seen = 0
        self._scm_writes_seen = 0

    # ------------------------------------------------------------- bus mastering

    def _make_bus_submit(self):
        return _BusSubmit(self)

    # ------------------------------------------------------------ action routing

    def _make_action_sink(self, link_index: int):
        return _ActionSink(self, link_index)

    def route_action_to_peripheral(self, group: int, bit: int, peripheral, port: str) -> None:
        """Connect output line (``group``, ``bit``) to a peripheral event input."""
        self._check_route(group, bit)
        target = ActionTarget(
            kind="peripheral",
            label=f"{peripheral.name}.{port}",
            deliver=_PeripheralDelivery(peripheral, port),
        )
        self._action_routes[(group, bit)] = target

    def route_action_to_fabric(self, group: int, bit: int, line_name: str) -> None:
        """Loop output line (``group``, ``bit``) back into the event fabric.

        The pulse is applied at the start of the *next* cycle, modelling the
        registered loopback path that enables inter-link triggering.
        """
        self._check_route(group, bit)
        self.fabric.line(line_name)  # validate early
        target = ActionTarget(
            kind="fabric",
            label=line_name,
            deliver=_FabricLoopback(self, line_name),
        )
        self._action_routes[(group, bit)] = target

    def route_action_to_callback(self, group: int, bit: int, label: str, callback: Callable[[], None]) -> None:
        """Connect output line (``group``, ``bit``) to an arbitrary callback."""
        self._check_route(group, bit)
        self._action_routes[(group, bit)] = ActionTarget(kind="callback", label=label, deliver=callback)

    def add_loopback_line(self, name: str) -> str:
        """Create a dedicated fabric line for inter-link triggering and return its name."""
        line = self.fabric.add_line(f"{self.name}.{name}", producer=self.name)
        return line.name

    def _check_route(self, group: int, bit: int) -> None:
        if not 0 <= group < self.config.action_groups:
            raise ValueError(f"action group {group} out of range [0, {self.config.action_groups})")
        if not 0 <= bit < self.config.action_group_width:
            raise ValueError(f"action bit {bit} out of range [0, {self.config.action_group_width})")

    def _deliver_action(self, link_index: int, group: int, mask: int, toggle: bool, cycle: int) -> None:
        self.record("instant_actions")
        self.record(f"instant_actions_link{link_index}")
        for bit in range(self.config.action_group_width):
            if not mask & (1 << bit):
                continue
            target = self._action_routes.get((group, bit))
            if target is None:
                self.unrouted_actions += 1
                continue
            target.deliver()
            self.instant_actions_delivered += 1
            if self.is_attached:
                self.simulator.trace(f"{self.name}.action", f"link{link_index}->{target.label}")

    @property
    def action_routes(self) -> Dict[Tuple[int, int], str]:
        """Readable summary of the current routing table."""
        return {key: target.label for key, target in self._action_routes.items()}

    # ------------------------------------------------------- host-side configuration

    def link(self, index: int) -> Link:
        """Return link ``index``."""
        if not 0 <= index < len(self.links):
            raise IndexError(f"link index {index} out of range")
        return self.links[index]

    def program_link(
        self,
        index: int,
        program: Program | List[Command],
        trigger_mask: int,
        condition: TriggerCondition = TriggerCondition.ANY_SELECTED_ACTIVE,
        base_address: int = 0,
    ) -> Link:
        """Convenience host-side configuration of one link in a single call."""
        link = self.link(index)
        link.load_program(program)
        link.configure_trigger(trigger_mask, condition, enabled=True)
        link.set_base_address(base_address)
        self._sync_observed_lines()
        return link

    # ------------------------------------------------------- consumer awareness

    @property
    def enabled(self) -> bool:
        """Global PELS enable (mirrors REG_GLOBAL_CTRL bit 0)."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        self._sync_observed_lines()

    def _sync_observed_lines(self) -> None:
        """Reconcile the fabric's observer table with the trigger config.

        A line is consumed by PELS iff the global enable is set and some
        enabled link's trigger mask selects it; producers of lines that stop
        (or start) being consumed are notified through the fabric so their
        cached wake horizons re-bound on the exact cycle.  Must be called by
        every trigger-configuration path (``program_link``, the register
        window, ``reset``); links must not be reconfigured behind PELS's
        back.
        """
        mask = 0
        if self._enabled:
            for link in self.links:
                if link.trigger.enabled:
                    mask |= link.trigger.mask
        mask &= (1 << len(self.fabric)) - 1
        changed = mask ^ self._observed_mask
        index = 0
        while changed:
            if changed & 1:
                if (mask >> index) & 1:
                    self.fabric.observe(index)
                else:
                    self.fabric.unobserve(index)
            changed >>= 1
            index += 1
        self._observed_mask = mask

    # ----------------------------------------------------------------- behaviour

    def tick(self, cycle: int) -> None:
        # 1. Apply loopback pulses produced by instant actions last cycle.
        if self._pending_loopback:
            for line_name in self._pending_loopback:
                self.fabric.pulse(line_name)
                self.record("loopback_pulses")
            self._pending_loopback = []
        # 2. Broadcast the current event vector to every link.  A quiescent
        # link that no event selects only counts the evaluation: that is all
        # its step() would do, so it is applied inline.
        events = self.fabric.active_mask() if self._enabled else 0
        busy_links = 0
        for link in self.links:
            execution = link.execution
            trigger = link.trigger
            if (
                execution.state is _IDLE
                and not events & trigger.mask
                and link._open_record is None
                and trigger.fifo.empty
            ):
                trigger.evaluations += 1
                trigger._previous_masked = 0
                continue
            link.step(events, cycle)
            if execution.state is not _IDLE:
                busy_links += 1
        if busy_links:
            self.record("busy_cycles")
            self.record("link_busy_cycles", busy_links)
        else:
            self.record("idle_cycles")
        # 3. Attribute this cycle's SCM traffic to PELS for the power model.
        scm_reads, scm_writes = self._scm_traffic()
        if scm_reads > self._scm_reads_seen:
            self.record("scm_reads", scm_reads - self._scm_reads_seen)
            self._scm_reads_seen = scm_reads
        if scm_writes > self._scm_writes_seen:
            self.record("scm_writes", scm_writes - self._scm_writes_seen)
            self._scm_writes_seen = scm_writes
        # 4. Event pulses are single-cycle: clear them after all links sampled.
        self.fabric.end_cycle()

    def _scm_traffic(self) -> Tuple[int, int]:
        reads = writes = 0
        for link in self.links:
            reads += link.scm.read_count
            writes += link.scm.write_count
        return reads, writes

    # ------------------------------------------------------------ wake protocol

    def next_event(self) -> Optional[int]:
        # PELS must see the very next cycle whenever anything is in motion: a
        # registered loopback pulse to apply, an event on the fabric to
        # broadcast (it also owns the end-of-cycle pulse clearing), a link
        # executing microcode or holding queued triggers while idle, a
        # completed event record awaiting closure, or SCM traffic (e.g.
        # host-side microcode programming) not yet attributed to the activity
        # counters.  The one busy state it can sleep through is a ``wait``
        # countdown: the wake is the earliest tick that ends one.
        if self._pending_loopback or self.fabric.active_mask():
            return 1
        horizon = None
        for link in self.links:
            wake = link.wake
            if wake is not None and (horizon is None or wake < horizon):
                if wake == 1:
                    return 1
                horizon = wake
        if self._scm_traffic() != (self._scm_reads_seen, self._scm_writes_seen):
            return 1
        return horizon

    def skip(self, cycles: int) -> None:
        horizon = self.next_event()
        if horizon is not None and cycles >= horizon:
            raise SimulationError(f"{self.name}: cannot replay {cycles} cycles, the next wake is in {horizon}")
        # Below the horizon every busy link is counting down a wait.
        busy_links = sum(1 for link in self.links if link.execution.state is not _IDLE)
        if busy_links:
            self.record("busy_cycles", cycles)
            self.record("link_busy_cycles", busy_links * cycles)
        else:
            self.record("idle_cycles", cycles)
        for link in self.links:
            link.skip_idle(cycles)

    def reset(self) -> None:
        for link in self.links:
            link.reset()
        self._pending_loopback = []
        self.instant_actions_delivered = 0
        self.unrouted_actions = 0
        self._scm_reads_seen = sum(link.scm.read_count for link in self.links)
        self._scm_writes_seen = sum(link.scm.write_count for link in self.links)
        self.enabled = True

    # --------------------------------------------------------- bus slave interface

    def bus_read(self, offset: int) -> int:
        """Configuration-window read (PELS as an APB slave)."""
        self.record("config_reads")
        if offset == REG_GLOBAL_CTRL:
            return GLOBAL_ENABLE_BIT if self.enabled else 0
        if offset == REG_NUM_LINKS:
            return self.config.n_links
        if offset == REG_SCM_LINES:
            return self.config.scm_lines
        if offset == REG_EVENT_COUNT:
            return len(self.fabric)
        link, local = self._decode_link_offset(offset)
        if link is None:
            return 0
        if local == LINK_REG_ENABLE:
            return int(link.trigger.enabled)
        if local == LINK_REG_MASK:
            return link.trigger.mask
        if local == LINK_REG_CONDITION:
            return int(link.trigger.condition)
        if local == LINK_REG_BASE_ADDR:
            return link.execution.base_address
        if local == LINK_REG_STATUS:
            return link.status_word()
        if local == LINK_REG_CAPTURE:
            return link.execution.capture_register
        line, is_high_word = self._decode_scm_offset(local, link)
        if line is not None:
            encoded = link.scm.read_line(line)
            return (encoded >> 32) & 0xFFFF if is_high_word else encoded & 0xFFFF_FFFF
        return 0

    def bus_write(self, offset: int, value: int) -> None:
        """Configuration-window write (PELS as an APB slave)."""
        self.record("config_writes")
        if offset == REG_GLOBAL_CTRL:
            self.enabled = bool(value & GLOBAL_ENABLE_BIT)
            return
        link, local = self._decode_link_offset(offset)
        if link is None:
            return
        if local == LINK_REG_ENABLE:
            link.trigger.enabled = bool(value & 0x1)
            self._sync_observed_lines()
        elif local == LINK_REG_MASK:
            link.trigger.mask = value
            self._sync_observed_lines()
        elif local == LINK_REG_CONDITION:
            link.trigger.condition = TriggerCondition(value & 0x1)
        elif local == LINK_REG_BASE_ADDR:
            link.set_base_address(value)
        else:
            line, is_high_word = self._decode_scm_offset(local, link)
            if line is None:
                return
            encoded = link.scm.read_line(line)
            if is_high_word:
                encoded = (encoded & 0xFFFF_FFFF) | ((value & 0xFFFF) << 32)
            else:
                encoded = (encoded & (0xFFFF << 32)) | (value & 0xFFFF_FFFF)
            link.scm.write_line(line, encoded)
            # Validate eagerly so a malformed microcode write fails loudly.
            decode_command(encoded)

    def _decode_link_offset(self, offset: int) -> Tuple[Optional[Link], int]:
        if offset < LINK_WINDOW_BASE:
            return None, 0
        index = (offset - LINK_WINDOW_BASE) // LINK_WINDOW_STRIDE
        local = (offset - LINK_WINDOW_BASE) % LINK_WINDOW_STRIDE
        if index >= len(self.links):
            return None, 0
        return self.links[index], local

    def _decode_scm_offset(self, local: int, link: Link) -> Tuple[Optional[int], bool]:
        if local < LINK_SCM_WINDOW:
            return None, False
        word_index = (local - LINK_SCM_WINDOW) // 4
        line = word_index // 2
        if line >= link.scm.lines:
            return None, False
        return line, bool(word_index % 2)

    # ------------------------------------------------------------------ queries

    @property
    def window_size(self) -> int:
        """Size in bytes of the configuration address window."""
        return LINK_WINDOW_BASE + LINK_WINDOW_STRIDE * self.config.n_links

    @property
    def busy(self) -> bool:
        """Whether any link is currently servicing an event."""
        return any(link.busy for link in self.links)

    def total_events_serviced(self) -> int:
        """Linking events serviced across all links since reset."""
        return sum(link.events_serviced for link in self.links)
