"""The per-link execution unit.

The execution unit is a small FSM (Figure 2 of the paper) that walks the
link's microcode one command per SCM line:

* *instant* commands (``action``) and control-flow commands (``jump_if``,
  ``loop``, ``wait``, ``end``) execute in the fetch cycle;
* *sequenced* commands (``write``, ``set``, ``clear``, ``toggle``,
  ``capture``) issue transfers on the peripheral interconnect and stall until
  the bus answers, performing the read-modify-write data path of markers
  5–8 in Figure 2.

Cycle budget for a read-modify-write sequenced action (matching the 7 cycles
reported in Section IV-B): trigger (1) + fetch (1) + bus read (2) + modify
(1) + bus write-back (2).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

from repro.bus.transaction import BusRequest, TransferKind, WORD_MASK
from repro.core.fifo import TriggerEntry
from repro.core.isa import Command, Opcode
from repro.core.scm import ScmMemory

# An action sink receives (group, mask, toggle, cycle) when an instant action fires.
ActionSink = Callable[[int, int, bool, int], None]
# A bus submit function queues a request on the peripheral interconnect.
BusSubmit = Callable[[BusRequest], BusRequest]


class ExecutionState(enum.Enum):
    """FSM states of the execution unit."""

    IDLE = "idle"
    FETCH = "fetch"
    ISSUE_READ = "issue_read"
    READ_WAIT = "read_wait"
    ISSUE_WRITE = "issue_write"
    WRITE_WAIT = "write_wait"
    WAITING = "waiting"


# Module-level aliases for the per-cycle dispatch: a global lookup is several
# times cheaper than an attribute lookup on the Enum class.
_IDLE = ExecutionState.IDLE
_FETCH = ExecutionState.FETCH
_ISSUE_READ = ExecutionState.ISSUE_READ
_READ_WAIT = ExecutionState.READ_WAIT
_ISSUE_WRITE = ExecutionState.ISSUE_WRITE
_WRITE_WAIT = ExecutionState.WRITE_WAIT
_WAITING = ExecutionState.WAITING


class ExecutionUnit:
    """Microcode interpreter for one link."""

    def __init__(
        self,
        name: str,
        scm: ScmMemory,
        bus_submit: Optional[BusSubmit] = None,
        action_sink: Optional[ActionSink] = None,
        base_address: int = 0,
    ) -> None:
        self.name = name
        self.scm = scm
        self.bus_submit = bus_submit
        self.action_sink = action_sink
        self.base_address = base_address
        self.state = _IDLE
        self.pc = 0
        self.capture_register = 0
        self._current: Optional[Command] = None
        self._pending_request: Optional[BusRequest] = None
        self._modified_value = 0
        self._wait_remaining = 0
        self._loop_remaining: Optional[int] = None
        self._active_trigger: Optional[TriggerEntry] = None
        # Statistics and timestamps used by the latency/power analyses.
        self.commands_executed: Dict[Opcode, int] = {opcode: 0 for opcode in Opcode}
        self.busy_cycles = 0
        self.stall_cycles = 0
        self.bus_reads = 0
        self.bus_writes = 0
        self.instant_actions = 0
        self.sequences_completed = 0
        self.bus_errors = 0
        self.sequences_aborted = 0
        self.last_trigger_cycle: Optional[int] = None
        self.last_completion_cycle: Optional[int] = None
        self.last_bus_write_cycle: Optional[int] = None
        self.first_action_cycle: Optional[int] = None

    # ------------------------------------------------------------------ control

    @property
    def idle(self) -> bool:
        """Whether the unit can accept a new trigger."""
        return self.state is _IDLE

    @property
    def wait_remaining(self) -> Optional[int]:
        """Cycles left in the current ``wait`` (``None`` when not waiting)."""
        return self._wait_remaining if self.state is _WAITING else None

    def start(self, trigger: TriggerEntry) -> None:
        """Begin servicing a trigger; the first fetch happens next cycle."""
        if not self.idle:
            raise RuntimeError(f"{self.name}: cannot start while {self.state.value}")
        self._active_trigger = trigger
        self.pc = 0
        self.state = _FETCH
        self.last_trigger_cycle = trigger.cycle
        self.first_action_cycle = None
        self.last_bus_write_cycle = None

    def set_base_address(self, base_address: int) -> None:
        """Reprogram the link base address used by sequenced actions."""
        if base_address < 0 or base_address % 4 != 0:
            raise ValueError("base address must be non-negative and word aligned")
        self.base_address = base_address

    # ---------------------------------------------------------------- behaviour

    def tick(self, cycle: int) -> None:
        """Advance the FSM by one clock cycle."""
        state = self.state
        if state is _IDLE:
            return
        self.busy_cycles += 1
        if state is _WAITING:
            self._tick_waiting(cycle)
        elif state is _FETCH:
            self._tick_fetch(cycle)
        elif state is _READ_WAIT:
            self._tick_read_wait(cycle)
        elif state is _WRITE_WAIT:
            self._tick_write_wait(cycle)
        elif state is _ISSUE_READ:
            self._tick_issue_read(cycle)
        else:
            self._tick_issue_write(cycle)

    def skip_wait(self, cycles: int) -> None:
        """Replay ``cycles`` ticks of a ``wait`` countdown that do not end it.

        Each such tick only counts a busy cycle and decrements the countdown,
        so the batch is exact while ``cycles`` is below the remaining count;
        the tick that ends the wait (and re-enters fetch) must be real.  The
        caller checks that bound (:meth:`repro.core.pels.Pels.skip`).
        """
        self.busy_cycles += cycles
        self._wait_remaining -= cycles

    # ------------------------------------------------------------------- states

    def _tick_fetch(self, cycle: int) -> None:
        if self.pc >= self.scm.lines:
            self._finish(cycle)
            return
        command = self.scm.fetch(self.pc)
        self._current = command
        opcode = command.opcode
        if opcode is Opcode.END:
            self._count(opcode)
            self._finish(cycle)
        elif opcode is Opcode.ACTION:
            self._count(opcode)
            self._execute_action(command, cycle)
            self.pc += 1
        elif opcode is Opcode.JUMP_IF:
            self._count(opcode)
            taken = command.jump_condition.evaluate(self.capture_register, command.data)
            self.pc = command.jump_target if taken else self.pc + 1
        elif opcode is Opcode.LOOP:
            self._count(opcode)
            self._execute_loop(command)
        elif opcode is Opcode.WAIT:
            self._count(opcode)
            self._wait_remaining = command.data
            self.state = _WAITING if command.data > 0 else _FETCH
            if command.data == 0:
                self.pc += 1
        elif opcode is Opcode.WRITE:
            self.state = _ISSUE_WRITE
            self._modified_value = command.data
        elif opcode in (Opcode.SET, Opcode.CLEAR, Opcode.TOGGLE, Opcode.CAPTURE):
            self.state = _ISSUE_READ
        else:  # pragma: no cover - all opcodes handled above
            raise RuntimeError(f"{self.name}: unhandled opcode {opcode!r}")

    def _tick_issue_read(self, cycle: int) -> None:
        command = self._require_current()
        request = BusRequest(
            master=self.name,
            kind=TransferKind.READ,
            address=self.base_address + command.byte_offset,
        )
        self._submit(request)
        self.bus_reads += 1
        self.state = _READ_WAIT

    def _tick_read_wait(self, cycle: int) -> None:
        request = self._pending_request
        if request is None or not request.done:
            self.stall_cycles += 1
            return
        if request.error:
            self._abort_on_bus_error(cycle)
            return
        command = self._require_current()
        value = request.rdata
        self._pending_request = None
        if command.opcode is Opcode.CAPTURE:
            self.capture_register = value & command.data & WORD_MASK
            self._count(Opcode.CAPTURE)
            self.pc += 1
            self.state = _FETCH
            return
        # Read-modify-write commands: compute the writeback value (marker 7).
        if command.opcode is Opcode.SET:
            self._modified_value = (value | command.data) & WORD_MASK
        elif command.opcode is Opcode.CLEAR:
            self._modified_value = value & ~command.data & WORD_MASK
        else:  # TOGGLE
            self._modified_value = (value ^ command.data) & WORD_MASK
        self.state = _ISSUE_WRITE

    def _tick_issue_write(self, cycle: int) -> None:
        command = self._require_current()
        request = BusRequest(
            master=self.name,
            kind=TransferKind.WRITE,
            address=self.base_address + command.byte_offset,
            wdata=self._modified_value,
        )
        self._submit(request)
        self.bus_writes += 1
        self.state = _WRITE_WAIT

    def _tick_write_wait(self, cycle: int) -> None:
        request = self._pending_request
        if request is None or not request.done:
            self.stall_cycles += 1
            return
        if request.error:
            self._abort_on_bus_error(cycle)
            return
        command = self._require_current()
        self._pending_request = None
        if request.response is not None:
            self.last_bus_write_cycle = request.response.completed_cycle
        self._count(command.opcode)
        self.pc += 1
        self.state = _FETCH

    def _tick_waiting(self, cycle: int) -> None:
        self._wait_remaining -= 1
        if self._wait_remaining <= 0:
            self.pc += 1
            self.state = _FETCH

    # ------------------------------------------------------------------ helpers

    def _execute_action(self, command: Command, cycle: int) -> None:
        self.instant_actions += 1
        if self.first_action_cycle is None:
            self.first_action_cycle = cycle
        if self.action_sink is not None:
            self.action_sink(command.action_group, command.data, command.action_is_toggle, cycle)

    def _execute_loop(self, command: Command) -> None:
        if self._loop_remaining is None:
            self._loop_remaining = command.data
        if self._loop_remaining > 0:
            self._loop_remaining -= 1
            self.pc = command.jump_target
        else:
            self._loop_remaining = None
            self.pc += 1

    def _abort_on_bus_error(self, cycle: int) -> None:
        """Terminate the current sequence after an APB error response.

        A mis-programmed offset (an address outside any slave window) must
        not wedge the link: the sequence is abandoned, the error is counted,
        and the link returns to idle ready for the next trigger.
        """
        self.bus_errors += 1
        self.sequences_aborted += 1
        self._pending_request = None
        self.last_completion_cycle = cycle
        self._active_trigger = None
        self._current = None
        self._loop_remaining = None
        self.state = _IDLE

    def _submit(self, request: BusRequest) -> None:
        if self.bus_submit is None:
            raise RuntimeError(
                f"{self.name}: sequenced action needs a peripheral bus but none is connected"
            )
        self._pending_request = self.bus_submit(request)

    def _finish(self, cycle: int) -> None:
        self.sequences_completed += 1
        self.last_completion_cycle = cycle
        self._active_trigger = None
        self._current = None
        self._loop_remaining = None
        self.state = _IDLE

    def _require_current(self) -> Command:
        if self._current is None:
            raise RuntimeError(f"{self.name}: no command in flight")
        return self._current

    def _count(self, opcode: Opcode) -> None:
        self.commands_executed[opcode] += 1

    def reset(self) -> None:
        """Return to the post-reset state (statistics are cleared)."""
        self.state = _IDLE
        self.pc = 0
        self.capture_register = 0
        self._current = None
        self._pending_request = None
        self._modified_value = 0
        self._wait_remaining = 0
        self._loop_remaining = None
        self._active_trigger = None
        self.commands_executed = {opcode: 0 for opcode in Opcode}
        self.busy_cycles = 0
        self.stall_cycles = 0
        self.bus_reads = 0
        self.bus_writes = 0
        self.instant_actions = 0
        self.sequences_completed = 0
        self.bus_errors = 0
        self.sequences_aborted = 0
        self.last_trigger_cycle = None
        self.last_completion_cycle = None
        self.last_bus_write_cycle = None
        self.first_action_cycle = None
