"""Benchmark clients.

``ClosedLoopClient`` reproduces the Paxi benchmark client: it keeps exactly
one request outstanding, measures the latency of each reply, and immediately
issues the next request.  System throughput is then swept by varying the
number of concurrent clients (that is how the latency/throughput curves in
Figures 8-11 were produced).  ``ClientStats.completions`` is the one record
of completed operations: ``ScenarioResult.stats()`` and
``completion_rates()`` build every latency and throughput number from it.

Every client has one path: it aims each command at the consensus group that
owns its key (:class:`~repro.shard.router.ShardRouter`; an unsharded
cluster is the one-group case), counts it in ``shard.<s>.requests`` /
``shard.<s>.completions``, and records its invocation and completion into
the cluster's :class:`~repro.checkers.history.HistoryRecorder`.

Clients are network endpoints with *zero* CPU cost -- the paper provisions
client machines so they are never the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.checkers.history import HistoryRecorder
from repro.errors import WorkloadError
from repro.net.network import SimNetwork
from repro.protocol.messages import ClientReply, ClientRequest
from repro.shard.addressing import SHARD_ENDPOINT_STRIDE
from repro.shard.router import ShardRouter
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
    retries: int = 0


class ClosedLoopClient:
    """One-outstanding-request client (the Paxi benchmark model)."""

    def __init__(
        self,
        client_id: int,
        sim: Simulator,
        network: SimNetwork,
        spec: WorkloadSpec,
        router: ShardRouter,
        recorder: HistoryRecorder,
        target_policy: str = "leader",
        request_timeout: float = 2.0,
        start_time: float = 0.0,
    ) -> None:
        if target_policy not in ("leader", "random"):
            raise WorkloadError(f"unknown target policy {target_policy!r}")
        self.endpoint_id = client_id
        self._sim = sim
        self._network = network
        self._target_policy = target_policy
        self._request_timeout = request_timeout
        self._start_time = start_time
        self._rng = sim.random.stream(f"client-{client_id}")
        self._generator = CommandGenerator(spec, client_id, self._rng)
        self._recorder = recorder
        # Routing: the router's key -> shard table, each shard's group and
        # one mutable leader hint per shard.
        self._shard_of = router.shard_of
        self._groups = router.groups
        self._leader_hints = list(router.leaders)
        metrics = sim.metrics
        self._shard_requests = [
            metrics.counter(f"shard.{shard}.requests") for shard in range(len(self._groups))
        ]
        self._shard_completions = [
            metrics.counter(f"shard.{shard}.completions") for shard in range(len(self._groups))
        ]
        self.stats = ClientStats(client_id=client_id)
        self._outstanding_request_id: Optional[int] = None
        self._outstanding_request: Optional[ClientRequest] = None
        self._outstanding_sent_at = 0.0
        self._outstanding_shard = 0
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

    def _send(self, request: ClientRequest, shard: int) -> None:
        """Send to ``shard``'s group: its leader hint, or a random member."""
        if self._target_policy == "random":
            target = self._rng.choice(self._groups[shard])
        else:
            target = self._leader_hints[shard]
        self._network.send(self.endpoint_id, target, request)
        self.stats.sent += 1

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
        shard = self._shard_of[command.key]
        now = self._sim.now
        self._outstanding_request_id = command.request_id
        self._outstanding_request = request
        self._outstanding_sent_at = now
        self._outstanding_shard = shard
        self._shard_requests[shard].value += 1
        self._recorder.invoke(command, now)
        self._send(request, shard)
        self._timeout_timer = self._sim.schedule(
            self._request_timeout, self._on_timeout, command.request_id, request
        )

    def _on_reply(self, reply: ClientReply) -> None:
        if reply.request_id != self._outstanding_request_id:
            return  # duplicate or stale reply
        hint = reply.leader_hint
        if hint is not None:
            # An endpoint id names its group: its shard is id // stride.
            shard = hint // SHARD_ENDPOINT_STRIDE
            if shard < len(self._groups) and hint in self._groups[shard]:
                self._leader_hints[shard] = hint
        if not reply.success:
            # Redirect: follow the leader hint and re-send the same request.
            self.stats.retries += 1
            self._send(self._outstanding_request, self._outstanding_shard)
            return
        self._outstanding_request_id = None
        self._outstanding_request = None
        self._timeout_timer.cancel()
        self._timeout_timer = None
        self._shard_completions[self._outstanding_shard].value += 1
        now = self._sim.now
        self.stats.completions.append((now, now - self._outstanding_sent_at))
        self._recorder.complete(reply, now)
        self._issue_next()

    def _on_timeout(self, request_id: int, request: ClientRequest) -> None:
        if self._stopped or request_id != self._outstanding_request_id:
            return
        # Re-send the same request; rotate the target in case the leader
        # died, only within the shard's own group so a retry can never
        # cross a shard boundary.
        self.stats.retries += 1
        shard = self._outstanding_shard
        if self._target_policy == "leader":
            current = self._leader_hints[shard]
            others = [t for t in self._groups[shard] if t != current]
            if others:
                self._leader_hints[shard] = self._rng.choice(others)
        self._send(request, shard)
        self._timeout_timer = self._sim.schedule(
            self._request_timeout, self._on_timeout, request_id, request
        )
