"""Leader-side command batching: the one mechanism every replica feeds.

Batching sits *above* the overlay and the protocol: a leader (the stable
Multi-Paxos/PigPaxos leader, or an EPaxos replica acting as opportunistic
command leader) parks client commands in a :class:`Batcher`, which decides
when they leave, as one plain ``Command`` or one ``CommandBatch`` per flush.
A replica builds one only when ``ProtocolConfig.batch_max_commands > 1``;
unbatched replicas hold ``None`` and allocate nothing.

The batcher owns the generic rules: capacity, the delay bound, and "a
partial buffer with room and no delay bound leaves at once".  The two
protocol-specific triggers stay at their call sites, so this module never
asks which protocol it serves: Multi-Paxos passes its pipeline-room test as
``has_room`` and pumps when a commit frees a slot (``pump("pipeline")``);
EPaxos flushes the standing buffer before adding a conflicting command
(``pump("conflict", force=True)``).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.statemachine.command import CommandBatch

#: Every flush is counted under ``batch.flush.<trigger>`` for exactly one of
#: these: ``size``, ``delay`` and ``immediate`` are decided here, ``pipeline``
#: and ``conflict`` named by the replica that pumps.  scripts/check_docs.py
#: holds docs/ARCHITECTURE.md's trigger table to this tuple.
TRIGGERS = ("size", "delay", "pipeline", "conflict", "immediate")

#: Reply routing for one command: ``(client_id, request_id)``.
Client = Tuple[int, int]


class Batcher:
    """Buffer of client commands awaiting proposal, and its flush rules.

    ``host`` is the owning replica (anything with a bound ``ctx``): timers
    and metrics are reached through it lazily, because a replica is built
    before it is bound to its node.  ``propose(command, clients)`` opens one
    slot/instance for a flushed command; ``clients`` holds one
    ``(client_id, request_id)`` pair per (sub-)command, in order.
    ``has_room()`` is the caller's back-pressure test (``None``: always
    room); while it answers False nothing flushes and arrivals keep
    accumulating, leaving ``max_commands`` at a time once room returns.
    """

    def __init__(
        self,
        host: Any,
        max_commands: int,
        max_delay: Optional[float],
        propose: Callable[[object, Tuple[Client, ...]], None],
        has_room: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.max_commands = max_commands
        self.max_delay = max_delay
        #: ``(command, (client_id, request_id))`` in arrival order.  Callers
        #: may read it (emptiness, EPaxos' conflict scan) but never write it.
        self.buffer: List[Tuple[object, Client]] = []
        self._host = host
        self._propose = propose
        self._has_room = has_room
        self._timer = None
        # The batch.* instruments, registered at the first flush so a
        # replica that never leads leaves the metric namespace untouched.
        self._flushes = None
        self._commands_batched = None
        self._occupancy = None

    def add(self, command, client_id: int) -> None:
        """Queue a client command, then flush whatever the rules allow."""
        buffer = self.buffer
        buffer.append((command, (client_id, command.request_id)))
        if self.max_delay is not None and self._timer is None and len(buffer) < self.max_commands:
            self._timer = self._host.ctx.schedule(self.max_delay, self._delay_fired)
        self.pump("immediate")

    def pump(self, trigger: str, force: bool = False) -> None:
        """Flush while there is something to flush and room to flush it.

        A full buffer always leaves as a ``size`` flush.  A partial one
        leaves under ``trigger`` unless a delay flush is pending, in which
        case it keeps accumulating -- except under ``force``, which is how
        the delay timer itself and a caller that must empty the buffer now
        (EPaxos' conflict pre-flush) get it out.
        """
        buffer = self.buffer
        has_room = self._has_room
        max_commands = self.max_commands
        while buffer and (has_room is None or has_room()):
            if len(buffer) >= max_commands:
                self._flush(max_commands, "size")
            elif self._timer is not None and not force:
                return
            else:
                self._flush(len(buffer), trigger)
        if not buffer and self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def reset(self) -> None:
        """Drop what is buffered (leadership lost, node crashed); clients retry it."""
        self.buffer.clear()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _delay_fired(self) -> None:
        self._timer = None
        self.pump("delay", force=True)

    def _flush(self, count: int, trigger: str) -> None:
        buffer = self.buffer
        flushed = buffer[:count]
        del buffer[:count]
        if self._flushes is None:
            metrics = self._host.ctx.metrics
            self._flushes = {
                "size": metrics.counter("batch.flush.size"),
                "delay": metrics.counter("batch.flush.delay"),
                "pipeline": metrics.counter("batch.flush.pipeline"),
                "conflict": metrics.counter("batch.flush.conflict"),
                "immediate": metrics.counter("batch.flush.immediate"),
            }
            self._commands_batched = metrics.counter("batch.commands_batched")
            self._occupancy = metrics.histogram("batch.occupancy")
        self._flushes[trigger].value += 1
        self._commands_batched.value += count
        self._occupancy.observe(count)
        if count == 1:
            # No one-element batches on the wire: a lone command goes as itself.
            command, client = flushed[0]
            self._propose(command, (client,))
        else:
            commands, clients = zip(*flushed)
            self._propose(CommandBatch(commands), clients)
