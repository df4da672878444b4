"""A single PELS link: trigger unit + private SCM + execution unit."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.assembler import Program
from repro.core.config import LinkConfig
from repro.core.execution import ActionSink, BusSubmit, ExecutionState, ExecutionUnit
from repro.core.isa import Command
from repro.core.scm import ScmMemory
from repro.core.trigger import TriggerCondition, TriggerUnit


@dataclass
class LinkEventRecord:
    """Timing record of one serviced linking event (used by the latency analysis)."""

    trigger_cycle: int
    completion_cycle: Optional[int] = None
    first_action_cycle: Optional[int] = None
    last_bus_write_cycle: Optional[int] = None

    @property
    def instant_latency(self) -> Optional[int]:
        """Cycles from the triggering event to the first instant action (inclusive)."""
        if self.first_action_cycle is None:
            return None
        return self.first_action_cycle - self.trigger_cycle + 1

    @property
    def sequenced_latency(self) -> Optional[int]:
        """Cycles from the triggering event to the last bus write landing (inclusive)."""
        if self.last_bus_write_cycle is None:
            return None
        return self.last_bus_write_cycle - self.trigger_cycle + 1

    @property
    def total_latency(self) -> Optional[int]:
        """Cycles from the triggering event to the end of the microcode sequence."""
        if self.completion_cycle is None:
            return None
        return self.completion_cycle - self.trigger_cycle + 1


class Link:
    """One of PELS's independent linking units.

    The link is *not* a simulator component itself: the PELS top level ticks
    all of its links so it can broadcast the event vector and route instant
    actions consistently.
    """

    def __init__(
        self,
        index: int,
        config: LinkConfig,
        bus_submit: Optional[BusSubmit] = None,
        action_sink: Optional[ActionSink] = None,
    ) -> None:
        if index < 0:
            raise ValueError("link index must be non-negative")
        self.index = index
        self.config = config
        self.name = f"pels_link{index}"
        self.scm = ScmMemory(config.scm_lines)
        self.trigger = TriggerUnit(fifo_depth=config.fifo_depth)
        self.execution = ExecutionUnit(
            name=self.name,
            scm=self.scm,
            bus_submit=bus_submit,
            action_sink=action_sink,
            base_address=config.base_address,
        )
        self.events_serviced = 0
        self.records: List[LinkEventRecord] = []
        self._open_record: Optional[LinkEventRecord] = None

    # ------------------------------------------------------------ configuration

    def load_program(self, program: Program | List[Command]) -> None:
        """Load an assembled program (or raw command list) into the SCM."""
        commands = list(program.commands) if isinstance(program, Program) else list(program)
        self.scm.load_program(commands)

    def configure_trigger(
        self,
        mask: int,
        condition: TriggerCondition = TriggerCondition.ANY_SELECTED_ACTIVE,
        enabled: bool = True,
    ) -> None:
        """Program the trigger mask, condition and enable bit."""
        self.trigger.configure(mask, condition, enabled)

    def set_base_address(self, base_address: int) -> None:
        """Set the base address sequenced-action offsets are relative to."""
        self.execution.set_base_address(base_address)

    # ---------------------------------------------------------------- behaviour

    def step(self, events: int, cycle: int) -> None:
        """Advance the link by one cycle with the broadcast event vector."""
        self.execution.tick(cycle)
        self._close_record_if_done()
        self.trigger.evaluate(events, cycle)
        if self.execution.idle and not self.trigger.fifo.empty:
            entry = self.trigger.fifo.pop()
            assert entry is not None
            self.execution.start(entry)
            self._open_record = LinkEventRecord(trigger_cycle=entry.cycle)
            self.events_serviced += 1

    def _close_record_if_done(self) -> None:
        record = self._open_record
        if record is None or self.execution.state is not ExecutionState.IDLE:
            return
        record.completion_cycle = self.execution.last_completion_cycle
        record.first_action_cycle = self.execution.first_action_cycle
        record.last_bus_write_cycle = self.execution.last_bus_write_cycle
        self.records.append(record)
        self._open_record = None

    def skip_idle(self, cycles: int) -> None:
        """Replay ``cycles`` steps on an empty event vector in one batch.

        Valid while :attr:`wake` is ``None`` or greater than ``cycles``.  A
        quiescent link's steps only count trigger evaluations and leave a
        zero masked-vector history: its execution unit stays idle and no
        trigger can fire on an empty vector.  A waiting link's steps also
        count down its ``wait``; none of them ends it, so no record closes and
        no queued trigger is popped.
        """
        if self.execution.state is ExecutionState.WAITING:
            self.execution.skip_wait(cycles)
        self.trigger.evaluations += cycles
        self.trigger._previous_masked = 0

    # ------------------------------------------------------------------- status

    @property
    def busy(self) -> bool:
        """Whether the execution unit is servicing a linking event."""
        return not self.execution.idle

    @property
    def quiescent(self) -> bool:
        """Whether idle :meth:`step` calls are batchable by :meth:`skip_idle`.

        Requires an idle execution unit, an empty trigger FIFO, *and* no
        completed-event record still waiting to be closed (record closing is a
        per-step side effect the latency analysis depends on).
        """
        return self.execution.idle and self.trigger.fifo.empty and self._open_record is None

    @property
    def wake(self) -> Optional[int]:
        """Steps until this link needs a real :meth:`step`, on an empty vector.

        ``None`` while :attr:`quiescent`; the remaining count while the
        execution unit sits in a ``wait`` (the step that ends it must be
        real); ``1`` in every other state.  The steps before the wake are
        what :meth:`skip_idle` replays.
        """
        if self.quiescent:
            return None
        remaining = self.execution.wait_remaining
        return 1 if remaining is None else remaining

    @property
    def last_record(self) -> Optional[LinkEventRecord]:
        """Timing record of the most recently completed linking event."""
        return self.records[-1] if self.records else None

    def status_word(self) -> int:
        """Packed status: trigger status bits plus bit 10 = execution busy."""
        status = self.trigger.status_word()
        if self.busy:
            status |= 1 << 10
        return status

    def reset(self) -> None:
        """Reset trigger, execution unit, and statistics (SCM contents kept)."""
        self.trigger.reset()
        self.execution.reset()
        self.events_serviced = 0
        self.records = []
        self._open_record = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link(index={self.index}, lines={self.scm.lines}, busy={self.busy})"
