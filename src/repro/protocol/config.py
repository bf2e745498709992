"""Protocol configuration knobs shared by all replicas.

Which protocol honours which knob, what a protocol name presets, and the
one function that resolves a config live in :mod:`repro.protocol.resolver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.overlay.config import OverlayConfig
from repro.statemachine.kvstore import DEFAULT_SESSION_WINDOW

#: Default EPaxos explicit-prepare deadline (seconds of virtual time).
#: Recovery has been on by default since the fuzzing PR: the fuzz fleet
#: exercises crash schedules constantly and a degraded-mode default made
#: every one of them a liveness collapse.  Pass ``None`` to get the
#: historical degraded mode (see ``epaxos-crash-degraded``).  The knob is
#: EPaxos-only: the Paxos family rejects any other value.
DEFAULT_RECOVERY_TIMEOUT = 0.25


@dataclass
class ProtocolConfig:
    """Timing and behaviour knobs of every protocol.

    Each knob is honoured or rejected per protocol, never silently ignored
    (:data:`repro.protocol.resolver.KNOB_TABLE`).

    Attributes:
        heartbeat_interval: How often an idle leader broadcasts heartbeats /
            commit notifications (seconds of virtual time).
        election_timeout_min / election_timeout_max: A follower that hears
            nothing from a leader for a duration drawn uniformly from this
            range starts its own phase-1 with a higher ballot.
        phase1_timeout: How long a candidate waits for promises before
            retrying phase-1 with a fresh ballot.
        fill_gap_timeout: How long a follower waits on a log gap before
            requesting the missing slots from the leader.
        initial_leader: Node that proactively runs phase-1 at start-up
            (``None`` disables bootstrap and leaves election to timeouts).
        session_window: Per-client at-most-once dedup window -- how many of
            a client's most recently applied request results each replica
            retains (see :class:`repro.statemachine.kvstore.KVStore`).
        recovery_timeout: EPaxos explicit-prepare deadline -- how long a
            replica's execution may stay blocked on an uncommitted
            dependency before it opens a recovery round for that instance
            (see :mod:`repro.epaxos.replica`).  Defaults to
            :data:`DEFAULT_RECOVERY_TIMEOUT`; ``None`` disables recovery:
            orphaned instances block their dependents forever, the
            historical degraded mode.  Recovery is armed lazily -- runs in
            which no instance ever blocks schedule no extra events, so the
            knob changes nothing on runs that never block.  EPaxos-only:
            the Paxos family rejects any value but the class default.
        leader_retry_timeout: How long a round leader waits for a quorum on
            an in-flight round before re-sending it through the overlay
            (fresh relays under ``RelayFanout`` -- the paper's Figure 5b
            relay-failure recovery).  ``None`` (the default) disables it
            and rounds rely on client retries; the ``"pigpaxos"`` preset
            defaults it to 0.15.  Over a relay overlay it must exceed the
            overlay's ``relay_timeout``, or the leader retries before the
            relays have flushed.
        overlay: Fan-out overlay for wide-cast messages
            (:class:`~repro.overlay.config.OverlayConfig`, a kind string, or
            a mapping of its fields; ``None`` means the protocol's default
            -- direct broadcast for Multi-Paxos and EPaxos, the relay
            overlay for the ``"pigpaxos"`` preset, which accepts no other
            kind).
        batch_max_commands: Leader-side command batching -- how many client
            commands a leader may pack into one consensus slot (Paxos
            family) or one instance (EPaxos).  The default of 1 disables
            batching entirely: no buffer, no timers, no extra events, so
            every recorded fingerprint is byte-identical.  Values > 1 let
            the leader accumulate commands into a pending buffer and flush
            a :class:`~repro.statemachine.command.CommandBatch` by the rules
            of :mod:`repro.protocol.batching`.  Alone it forms no batch:
            commands accumulate only while ``batch_max_delay`` or a full
            ``pipeline_depth`` holds them back.
        batch_max_delay: Upper bound (virtual seconds) a buffered command
            may wait before its batch is flushed regardless of occupancy;
            until then a partial buffer keeps accumulating.  ``None``
            (default) means nothing waits: a partial buffer flushes
            *immediately* whenever there is pipeline room, so without a
            ``pipeline_depth`` every command is proposed alone.  Must stay
            well under the client timeout or delayed flushes answer
            already-retried requests (the session dedup window still makes
            that safe, just wasteful).  Only takes effect when
            ``batch_max_commands > 1``.
        pipeline_depth: Bound on concurrently in-flight (proposed but not
            yet committed) slots at a batching Paxos-family leader.  While
            the pipeline is full, new commands buffer past the size
            trigger and flush as soon as a slot commits.  ``None``
            (default) leaves the pipeline unbounded, the historical
            behaviour.  EPaxos rejects it (instances are not a pipeline).
    """

    heartbeat_interval: float = 0.05
    election_timeout_min: float = 0.4
    election_timeout_max: float = 0.8
    phase1_timeout: float = 0.25
    fill_gap_timeout: float = 0.1
    initial_leader: int = 0
    session_window: int = DEFAULT_SESSION_WINDOW
    recovery_timeout: Optional[float] = DEFAULT_RECOVERY_TIMEOUT
    leader_retry_timeout: Optional[float] = None
    overlay: Optional[Union[OverlayConfig, str, dict]] = None
    batch_max_commands: int = 1
    batch_max_delay: Optional[float] = None
    pipeline_depth: Optional[int] = None

    def __post_init__(self) -> None:
        self.overlay = OverlayConfig.coerce(self.overlay)
        # `not x > 0`, not `x <= 0`: NaN fails every comparison.
        if not self.heartbeat_interval > 0:
            raise ConfigurationError("heartbeat_interval must be positive")
        if self.session_window < 1:
            raise ConfigurationError("session_window must be >= 1")
        # A zero timer re-arms at +0 forever: virtual time never advances.
        for knob in ("phase1_timeout", "fill_gap_timeout"):
            if not getattr(self, knob) > 0:
                raise ConfigurationError(f"{knob} must be positive")
        if self.recovery_timeout is not None and not self.recovery_timeout > 0:
            raise ConfigurationError("recovery_timeout must be positive (or None to disable)")
        if self.leader_retry_timeout is not None and not self.leader_retry_timeout > 0:
            raise ConfigurationError("leader_retry_timeout must be positive (or None to disable)")
        low, high = self.election_timeout_min, self.election_timeout_max
        if not low > 0 or not high >= low:
            raise ConfigurationError("invalid election timeout range")
        if self.election_timeout_min <= self.heartbeat_interval:
            raise ConfigurationError(
                "election_timeout_min must exceed heartbeat_interval or leaders will be deposed spuriously"
            )
        if self.batch_max_commands < 1:
            raise ConfigurationError("batch_max_commands must be >= 1 (1 disables batching)")
        if self.batch_max_delay is not None and not self.batch_max_delay > 0:
            raise ConfigurationError("batch_max_delay must be positive (or None to disable)")
        if self.pipeline_depth is not None and self.pipeline_depth < 1:
            raise ConfigurationError("pipeline_depth must be >= 1 (or None for unbounded)")
        if self.batch_max_commands == 1 and (
            self.batch_max_delay is not None or self.pipeline_depth is not None
        ):
            raise ConfigurationError(
                "batch_max_delay / pipeline_depth require batch_max_commands > 1"
            )
