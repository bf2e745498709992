"""Replicated state machine substrate: commands, key-value store, log.

This is the in-memory key-value store that the Paxi benchmark (and therefore
the paper's evaluation) replicates.  All three protocols (Multi-Paxos,
PigPaxos, EPaxos) drive the same :class:`~repro.statemachine.kvstore.KVStore`
through the same :class:`~repro.statemachine.command.Command` type, and
execute every committed entry with one call of ``KVStore.apply``: the store
unpacks a batch and owns the client sessions that make execution
at-most-once.
"""

from repro.statemachine.command import Command, CommandResult, OpType
from repro.statemachine.kvstore import KVStore
from repro.statemachine.log import LogEntry, ReplicatedLog

__all__ = [
    "Command",
    "CommandResult",
    "OpType",
    "KVStore",
    "LogEntry",
    "ReplicatedLog",
]
