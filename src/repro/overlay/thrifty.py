"""Thrifty fan-out: message a quorum-sized subset, fall back on timeout.

``ThriftyFanout`` implements the classic "thrifty" optimisation (Moraru et
al.'s EPaxos evaluation; Paxi's ``thrifty`` flag) as an overlay: a voting
round is sent to only ``quorum_size - 1`` peers (the fan-out root votes for
itself), cutting the root's per-round message count from ``2(n-1)`` to
``2(q-1)`` when nothing goes wrong.  The price is fragility -- *every*
targeted peer must reply for the round to complete -- so each thrifty round
arms a fallback timer: if the host has not reported the round complete
within ``fallback_timeout``, the message is re-sent to **all** peers (a full
broadcast, covering both the untargeted peers and any drops on the original
sends) and the round is left to finish through ordinary vote counting.

Fire-and-forget traffic (``expects_response=False`` -- commit notifications,
heartbeats) is never thinned: every replica needs commits or its execution
graph stalls.  Only the voting legs are thrifty.

Example::

    from repro.overlay import ThriftyFanout

    overlay = ThriftyFanout(fallback_timeout=0.1)
    # EPaxosReplica(overlay=overlay) sends PreAccept to a fast-quorum-sized
    # subset; replica calls overlay.complete_round(...) when the vote closes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.net.message import Message
from repro.overlay.base import FanoutOverlay


@dataclass
class _ThriftyRound:
    """An in-flight thrifty round: what was sent, and its fallback timer."""

    message: Message
    timer: Optional[object] = None


class ThriftyFanout(FanoutOverlay):
    """Send voting rounds to a quorum-sized subset; full broadcast on timeout."""

    name = "thrifty"

    def __init__(self, fallback_timeout: float = 0.1) -> None:
        super().__init__()
        self.fallback_timeout = fallback_timeout
        self._pending: Dict[Hashable, _ThriftyRound] = {}

    # ------------------------------------------------------------------ sending
    def wide_cast(
        self,
        message: Message,
        *,
        expects_response: bool = True,
        round_id: Optional[Hashable] = None,
        quorum_size: Optional[int] = None,
    ) -> None:
        peers = self.host.peers
        if not expects_response or round_id is None or quorum_size is None:
            # Not a voting round (or the caller gave us nothing to be
            # thrifty about): behave like a direct broadcast.
            for peer in peers:
                self.host.send(peer, message)
            return

        needed = max(quorum_size - 1, 0)  # the fan-out root votes for itself
        if needed >= len(peers):
            targets = list(peers)
        else:
            targets = sorted(self.host.ctx.rng.sample(peers, needed))
        for target in targets:
            self.host.send(target, message)

        previous = self._pending.pop(round_id, None)
        if previous is not None and previous.timer is not None:
            previous.timer.cancel()
        round_state = _ThriftyRound(message=message)
        round_state.timer = self.host.ctx.schedule(
            self.fallback_timeout, self._fallback, round_id
        )
        self._pending[round_id] = round_state
        self.host.count("thrifty_rounds")

    def complete_round(self, round_id: Hashable) -> None:
        round_state = self._pending.pop(round_id, None)
        if round_state is not None and round_state.timer is not None:
            round_state.timer.cancel()

    def _fallback(self, round_id: Hashable) -> None:
        """Quorum not reached in time: re-send the round to every peer.

        The full re-broadcast (not just the untargeted remainder) also
        covers the case where the original thrifty send was dropped by the
        network; duplicate deliveries are idempotent at the receivers and
        deduplicated per voter at the root.
        """
        round_state = self._pending.pop(round_id, None)
        if round_state is None:
            return
        self.host.count("thrifty_fallbacks")
        for peer in self.host.peers:
            self.host.send(peer, round_state.message)

    # ------------------------------------------------------------------ lifecycle
    def on_crash(self) -> None:
        # The machine's crash already cancelled every round's timer.
        self._pending.clear()

    # ------------------------------------------------------------------ introspection
    @property
    def pending_rounds(self) -> int:
        return len(self._pending)
