"""In-memory key-value store applied by every replica.

Equivalent to Paxi's ``Database`` component: a dictionary keyed by string,
with GET/PUT/DELETE semantics.  Values are stored verbatim when provided;
when a command carries only a payload size (the common case in throughput
benchmarks) a compact placeholder is stored so memory stays bounded.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.statemachine.command import CommandResult, NoOp, OpType


class KVStore:
    """A deterministic in-memory key-value store."""

    def __init__(self) -> None:
        self._data: Dict[str, str] = {}
        self._applied_count = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    @property
    def applied_count(self) -> int:
        """Number of commands applied so far (NoOps included)."""
        return self._applied_count

    def get(self, key: str) -> Optional[str]:
        return self._data.get(key)

    def apply(self, command) -> CommandResult:
        """Apply a committed command and return its result."""
        self._applied_count += 1
        if type(command) is NoOp:
            return CommandResult(command_uid=command.uid, success=True)

        if command.op is OpType.GET:
            value = self._data.get(command.key)
            return CommandResult(
                command_uid=command.uid,
                success=True,
                value=value,
                existed=value is not None,
            )
        if command.op is OpType.PUT:
            existed = command.key in self._data
            stored = command.value if command.value is not None else f"<{command.payload_size}B>"
            self._data[command.key] = stored
            return CommandResult(command_uid=command.uid, success=True, existed=existed)
        if command.op is OpType.DELETE:
            existed = command.key in self._data
            self._data.pop(command.key, None)
            return CommandResult(command_uid=command.uid, success=True, existed=existed)
        return CommandResult(command_uid=command.uid, success=False)

    def items(self) -> Dict[str, str]:
        """Copy of the current contents."""
        return dict(self._data)
