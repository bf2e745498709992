"""Benchmark clients.

``ClosedLoopClient`` reproduces the Paxi benchmark client: it keeps exactly
one request outstanding, measures the latency of each reply, and immediately
issues the next request.  System throughput is then swept by varying the
number of concurrent clients (that is how the latency/throughput curves in
Figures 8-11 were produced).  ``ClientStats.completions`` is the one record
of completed operations: ``ScenarioResult.stats()`` and
``completion_rates()`` build every latency and throughput number from it.

Clients are network endpoints with *zero* CPU cost -- the paper provisions
client machines so they are never the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.net.network import SimNetwork
from repro.protocol.messages import ClientReply, ClientRequest
from repro.shard.addressing import shard_of_endpoint
from repro.sim.engine import Simulator
from repro.workload.generator import CommandGenerator
from repro.workload.spec import WorkloadSpec


@dataclass
class ClientStats:
    """Per-client record of completed operations."""

    client_id: int
    completions: List[Tuple[float, float]] = field(default_factory=list)
    """(completion_time, latency_seconds) pairs, in completion order."""
    sent: int = 0
    received: int = 0
    retries: int = 0


class ClosedLoopClient:
    """One-outstanding-request client (the Paxi benchmark model)."""

    def __init__(
        self,
        client_id: int,
        sim: Simulator,
        network: SimNetwork,
        spec: WorkloadSpec,
        targets: Sequence[int],
        target_policy: str = "leader",
        request_timeout: float = 2.0,
        start_time: float = 0.0,
        recorder=None,
        router=None,
    ) -> None:
        if not targets:
            raise WorkloadError("client needs at least one target node")
        if target_policy not in ("leader", "random"):
            raise WorkloadError(f"unknown target policy {target_policy!r}")
        self.endpoint_id = client_id
        self._sim = sim
        self._network = network
        self._targets = list(targets)
        self._target_policy = target_policy
        self._request_timeout = request_timeout
        self._start_time = start_time
        self._rng = sim.random.stream(f"client-{client_id}")
        self._generator = CommandGenerator(spec, client_id, self._rng)
        self._leader_hint = self._targets[0]
        self._recorder = recorder
        # Sharded routing (see repro.shard.router.ShardRouter): when set,
        # every command is aimed at the consensus group owning its key, with
        # one mutable leader hint per shard.  ``None`` keeps the historical
        # single-group behaviour bit-for-bit (no extra RNG draws, no extra
        # counters).
        self._router = router
        if router is not None:
            self._shard_leader_hints = list(router.leaders)
            metrics = sim.metrics
            self._shard_requests = [
                metrics.counter(f"shard.{shard}.requests")
                for shard in range(router.num_shards)
            ]
            self._shard_completions = [
                metrics.counter(f"shard.{shard}.completions")
                for shard in range(router.num_shards)
            ]
        self.stats = ClientStats(client_id=client_id)
        self._outstanding_request_id: Optional[int] = None
        self._outstanding_request: Optional[ClientRequest] = None
        self._outstanding_sent_at = 0.0
        self._outstanding_shard: Optional[int] = None
        self._timeout_timer = None
        self._stopped = False
        self._delivered = network.delivered
        network.register(self)

    # --------------------------------------------------------------- endpoint
    def arrive(self, src: int, message: Any, size: int) -> None:
        """Clients never crash: every arriving message counts as delivered."""
        self._delivered.value += 1
        if isinstance(message, ClientReply):
            self._on_reply(message)

    # --------------------------------------------------------------- helpers
    def _pick_target(self) -> int:
        if self._target_policy == "random":
            return self._rng.choice(self._targets)
        return self._leader_hint

    def _pick_target_for(self, key: str) -> int:
        """Target for a command on ``key``: its shard's group when routed."""
        router = self._router
        if router is None:
            return self._pick_target()
        shard = router.shard_of_key(key)
        if self._target_policy == "random":
            return self._rng.choice(router.group_of(shard))
        return self._shard_leader_hints[shard]

    def _note_leader_hint(self, reply: ClientReply) -> None:
        hint = reply.leader_hint
        if hint is None:
            return
        router = self._router
        if router is None:
            if hint in self._targets:
                self._leader_hint = hint
            return
        shard = shard_of_endpoint(hint)
        if shard < router.num_shards and hint in router.group_of(shard):
            self._shard_leader_hints[shard] = hint

    def _send(self, request: ClientRequest, target: int) -> None:
        self._network.send(self.endpoint_id, target, request)
        self.stats.sent += 1

    def _record_invoke(self, command) -> None:
        if self._recorder is not None:
            self._recorder.invoke(command, self._sim.now)

    def _record_complete(self, reply: ClientReply) -> None:
        if self._recorder is not None:
            self._recorder.complete(reply, self._sim.now)


    def start(self) -> None:
        stagger = self._rng.uniform(0.0, 0.002)
        self._sim.schedule(self._start_time + stagger, self._issue_next)

    def stop(self) -> None:
        self._stopped = True

    # --------------------------------------------------------------- flow
    def _issue_next(self) -> None:
        if self._stopped:
            return
        command = self._generator.next_command()
        request = ClientRequest(command=command)
        self._outstanding_request_id = command.request_id
        self._outstanding_request = request
        self._outstanding_sent_at = self._sim.now
        if self._router is not None:
            shard = self._router.shard_of_key(command.key)
            self._outstanding_shard = shard
            self._shard_requests[shard].value += 1
        self._record_invoke(command)
        self._send(request, self._pick_target_for(command.key))
        self._timeout_timer = self._sim.schedule(
            self._request_timeout, self._on_timeout, command.request_id, request
        )

    def _on_reply(self, reply: ClientReply) -> None:
        if reply.request_id != self._outstanding_request_id:
            return  # duplicate or stale reply
        if not reply.success:
            # Redirect: follow the leader hint and re-send the same request.
            self._note_leader_hint(reply)
            self.stats.retries += 1
            if self._outstanding_request is not None:
                self._send(
                    self._outstanding_request,
                    self._pick_target_for(self._outstanding_request.command.key),
                )
            return
        self._outstanding_request_id = None
        self._outstanding_request = None
        if self._timeout_timer is not None:
            self._timeout_timer.cancel()
            self._timeout_timer = None
        if self._router is not None and self._outstanding_shard is not None:
            self._shard_completions[self._outstanding_shard].value += 1
            self._outstanding_shard = None
        latency = self._sim.now - self._outstanding_sent_at
        self.stats.received += 1
        self.stats.completions.append((self._sim.now, latency))
        self._record_complete(reply)
        self._note_leader_hint(reply)
        self._issue_next()

    def _on_timeout(self, request_id: int, request: ClientRequest) -> None:
        if self._stopped or request_id != self._outstanding_request_id:
            return
        # Re-send the same request; rotate the target in case the leader died.
        # Sharded: rotate only within the shard's own group so a retry can
        # never cross a shard boundary.
        self.stats.retries += 1
        key = request.command.key
        if self._target_policy == "leader":
            if self._router is None:
                current = self._leader_hint
                others = [t for t in self._targets if t != current]
                if others:
                    self._leader_hint = self._rng.choice(others)
            else:
                shard = self._router.shard_of_key(key)
                current = self._shard_leader_hints[shard]
                others = [t for t in self._router.group_of(shard) if t != current]
                if others:
                    self._shard_leader_hints[shard] = self._rng.choice(others)
        self._send(request, self._pick_target_for(key))
        self._timeout_timer = self._sim.schedule(
            self._request_timeout, self._on_timeout, request_id, request
        )

