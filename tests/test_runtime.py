"""Tests for the asyncio runtime: codec framing and a real localhost cluster."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import RuntimeTransportError
from repro.protocol.ballot import Ballot
from repro.protocol.messages import ClientRequest, P2a
from repro.runtime.codec import MAX_FRAME_BYTES, PickleCodec, frame
from repro.runtime.harness import LocalCluster
from repro.statemachine.command import Command, OpType


class TestCodec:
    def test_roundtrip_client_request(self):
        codec = PickleCodec()
        command = Command(op=OpType.PUT, key="k", value="v", payload_size=1,
                          client_id=5001, request_id=3)
        source, decoded = codec.decode(codec.encode(5001, ClientRequest(command=command)))
        assert source == 5001
        assert decoded.command.key == "k" and decoded.command.value == "v"

    def test_roundtrip_p2a_preserves_ballot(self):
        codec = PickleCodec()
        message = P2a(ballot=Ballot(3, 1), slot=9,
                      command=Command(op=OpType.PUT, key="x", payload_size=8), commit_upto=4)
        _, decoded = codec.decode(codec.encode(1, message))
        assert decoded.ballot == Ballot(3, 1)
        assert decoded.slot == 9 and decoded.commit_upto == 4

    def test_frame_rejects_oversized_payload(self):
        with pytest.raises(RuntimeTransportError):
            frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_frame_prefixes_length(self):
        framed = frame(b"abc")
        assert framed[:4] == (3).to_bytes(4, "big")
        assert framed[4:] == b"abc"


def _run(coro):
    return asyncio.run(coro)


@pytest.mark.parametrize("protocol", ["paxos", "pigpaxos"])
def test_local_cluster_put_get_delete(protocol):
    async def scenario():
        async with LocalCluster(protocol=protocol, num_nodes=3) as cluster:
            client = cluster.client()
            await client.connect(cluster.leader_id() or 0)
            await client.put("name", "pigpaxos")
            value = await client.get("name")
            assert value == "pigpaxos"
            await client.delete("name")
            assert await client.get("name") is None
            await client.close()

    _run(scenario())


def test_local_cluster_epaxos_roundtrip():
    async def scenario():
        async with LocalCluster(protocol="epaxos", num_nodes=3) as cluster:
            client = cluster.client()
            await client.connect(0)
            await client.put("k", "v1")
            await client.put("k", "v2")
            assert await client.get("k") == "v2"
            await client.close()

    _run(scenario())


def test_replicas_replicate_to_followers_over_tcp():
    async def scenario():
        async with LocalCluster(protocol="pigpaxos", num_nodes=3, relay_groups=2) as cluster:
            client = cluster.client()
            await client.connect(cluster.leader_id() or 0)
            for index in range(10):
                await client.put(f"key-{index}", str(index))
            await client.close()
            # Followers learn commits via piggybacked frontiers/heartbeats.
            await asyncio.sleep(0.3)
            stores = [len(server.replica.store) for server in cluster.servers]
            assert max(stores) == 10
            assert min(stores) >= 8

    _run(scenario())


def test_client_follows_leader_hint():
    async def scenario():
        async with LocalCluster(protocol="paxos", num_nodes=3) as cluster:
            client = cluster.client()
            # Connect to a follower on purpose; the request is forwarded and the
            # reply carries a leader hint.
            follower = next(s.node_id for s in cluster.servers if not getattr(s.replica, "is_leader", False))
            await client.connect(follower)
            await client.put("routed", "yes")
            assert await client.get("routed") == "yes"
            await client.close()

    _run(scenario())
