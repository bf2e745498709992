"""Local asyncio cluster harness.

``LocalCluster`` boots N :class:`~repro.runtime.server.NodeServer` processes
inside one asyncio event loop on localhost ports -- the quickest way to run
the protocols over real sockets (used by the runtime example and the runtime
integration tests).
"""

from __future__ import annotations

import asyncio
import socket
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.protocol.resolver import build_replica, resolve_config
from repro.runtime.client import KVClient
from repro.runtime.server import NodeServer

Address = Tuple[str, int]


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class LocalCluster:
    """N protocol nodes on localhost, all inside the current event loop."""

    def __init__(
        self,
        protocol: str = "pigpaxos",
        num_nodes: int = 3,
        relay_groups: Optional[int] = None,
        host: str = "127.0.0.1",
    ) -> None:
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        self.protocol = protocol
        self.num_nodes = num_nodes
        self.relay_groups = relay_groups
        self._host = host
        self.addresses: Dict[int, Address] = {}
        self.servers: List[NodeServer] = []

    # ------------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        self.addresses = {node_id: (self._host, _free_port()) for node_id in range(self.num_nodes)}
        config = resolve_config(self.protocol, relay_groups=self.relay_groups)
        for node_id in range(self.num_nodes):
            peers = {other: addr for other, addr in self.addresses.items() if other != node_id}
            server = NodeServer(
                node_id=node_id,
                listen=self.addresses[node_id],
                peers=peers,
                replica=build_replica(self.protocol, config),
            )
            self.servers.append(server)
        for server in self.servers:
            await server.start()
        # Give the initial leader a moment to finish phase-1.
        await asyncio.sleep(0.3)

    async def stop(self) -> None:
        for server in self.servers:
            await server.stop()
        self.servers.clear()

    async def __aenter__(self) -> "LocalCluster":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # ------------------------------------------------------------------ helpers
    def client(self, request_timeout: float = 5.0) -> KVClient:
        return KVClient(nodes=dict(self.addresses), request_timeout=request_timeout)

    def leader_id(self) -> Optional[int]:
        for server in self.servers:
            if getattr(server.replica, "is_leader", False):
                return server.node_id
        return None
