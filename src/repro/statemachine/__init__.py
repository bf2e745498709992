"""Replicated state machine substrate: commands, key-value store, log, sessions.

This is the in-memory key-value store that the Paxi benchmark (and therefore
the paper's evaluation) replicates.  All three protocols (Multi-Paxos,
PigPaxos, EPaxos) drive the same :class:`~repro.statemachine.kvstore.KVStore`
through the same :class:`~repro.statemachine.command.Command` type.
"""

from repro.statemachine.command import Command, CommandResult, OpType
from repro.statemachine.kvstore import KVStore
from repro.statemachine.log import LogEntry, ReplicatedLog
from repro.statemachine.sessions import ClientSessionCache

__all__ = [
    "ClientSessionCache",
    "Command",
    "CommandResult",
    "OpType",
    "KVStore",
    "LogEntry",
    "ReplicatedLog",
]
