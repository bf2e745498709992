"""Batching & pipelining on the replication path.

Three tiers:

* **Unit** -- flush triggers (size / delay / pipeline-full / conflict /
  immediate) driven through a :class:`FakeContext`, for both the
  Multi-Paxos leader and the EPaxos opportunistic leader.
* **Scenario** -- batches riding the PigPaxos relay overlay unsplit, and
  the ``client_timeout`` x ``batch_max_delay`` race: a delay flush that
  answers an already-retried command must stay at-most-once end to end.
* **Mutation** -- a build that unpacks batches out of order (execution
  reversed relative to the recorded reply mapping) must trip the
  linearizability checker, proving the checkers actually guard the
  batch-unpacking contract.
"""

from __future__ import annotations

from helpers import FakeContext
from repro.epaxos.messages import EPreAccept
from repro.epaxos.replica import EPaxosReplica
from repro.paxos.replica import MultiPaxosReplica
from repro.protocol.config import ProtocolConfig
from repro.protocol.messages import ClientReply, ClientRequest, P1b, P2a, P2b
from repro.scenarios import Scenario, get_scenario, run_scenario
from repro.statemachine.command import Command, CommandBatch, OpType
from repro.workload.spec import WorkloadSpec


def make_leader(**config_kwargs):
    """An elected 5-node Multi-Paxos leader on a fake context."""
    ctx = FakeContext(node_id=0, all_nodes=list(range(5)))
    replica = MultiPaxosReplica(config=ProtocolConfig(initial_leader=0, **config_kwargs))
    replica.bind(ctx)
    replica.start()
    for timer in list(ctx.pending_timers()):
        if timer.delay == 0.0:
            timer.fire()
    for voter in (1, 2):
        replica.on_message(voter, P1b(ballot=replica.ballot, voter=voter, ok=True))
    assert replica.is_leader
    ctx.clear_sent()
    return replica, ctx


def make_epaxos(**kwargs):
    ctx = FakeContext(node_id=0, all_nodes=list(range(5)))
    replica = EPaxosReplica(config=ProtocolConfig(**kwargs))
    replica.bind(ctx)
    replica.start()
    return replica, ctx


def request(key="k", client_id=1000, request_id=1) -> ClientRequest:
    return ClientRequest(
        command=Command(
            op=OpType.PUT, key=key, payload_size=8, client_id=client_id, request_id=request_id
        )
    )


def flush_counts(ctx) -> dict:
    """``{trigger: count}`` from the ``batch.flush.*`` counters."""
    counters = ctx.metrics.snapshot()["counters"]
    return {
        name.rsplit(".", 1)[-1]: value
        for name, value in counters.items()
        if name.startswith("batch.flush.")
    }


def commit_slot(replica, slot: int) -> None:
    for voter in (1, 2):
        replica.on_message(voter, P2b(ballot=replica.ballot, slot=slot, voter=voter, ok=True))


class TestPaxosFlushTriggers:
    def test_partial_buffer_with_pipeline_room_flushes_immediately(self):
        """Light load degenerates to unbatched: a lone command is proposed
        right away, as a plain Command (not a one-element batch)."""
        replica, ctx = make_leader(batch_max_commands=4, pipeline_depth=2)
        replica.on_message(1000, request())
        p2as = ctx.sent_of_type(P2a)
        assert len(p2as) == 4  # fan-out to every peer, nothing buffered
        assert isinstance(p2as[0][1].command, Command)
        counts = flush_counts(ctx)
        assert counts.pop("immediate") == 1
        assert not any(counts.values())  # no other trigger fired

    def test_full_buffer_behind_full_pipeline_flushes_on_size(self):
        """Commands park while the pipeline is full; the commit that frees a
        slot flushes a full buffer as one size-triggered batch."""
        replica, ctx = make_leader(batch_max_commands=3, pipeline_depth=1)
        replica.on_message(1000, request(client_id=1000, request_id=1))
        first_slot = ctx.sent_of_type(P2a)[0][1].slot
        ctx.clear_sent()
        for i, client in enumerate((1001, 1002, 1003)):
            replica.on_message(client, request(key=f"k{i}", client_id=client, request_id=2))
        assert not ctx.sent_of_type(P2a)  # pipeline full: all three parked
        commit_slot(replica, first_slot)
        p2as = ctx.sent_of_type(P2a)
        assert p2as and isinstance(p2as[0][1].command, CommandBatch)
        batch = p2as[0][1].command
        assert len(batch.commands) == 3
        assert flush_counts(ctx)["size"] == 1
        # Commit the batch slot: every sub-command answers its own client.
        ctx.clear_sent()
        commit_slot(replica, p2as[0][1].slot)
        replies = ctx.sent_of_type(ClientReply)
        assert {(dst, reply.request_id) for dst, reply in replies} == {
            (1001, 2), (1002, 2), (1003, 2),
        }

    def test_partial_buffer_flushes_when_the_delay_timer_fires(self):
        replica, ctx = make_leader(batch_max_commands=8, batch_max_delay=0.05)
        replica.on_message(1000, request(client_id=1000, request_id=1))
        replica.on_message(1001, request(key="j", client_id=1001, request_id=1))
        assert not ctx.sent_of_type(P2a)  # delay bound set: accumulate
        (timer,) = [
            t for t in ctx.pending_timers() if t.callback == replica._batch_delay_fired
        ]
        timer.fire()
        p2as = ctx.sent_of_type(P2a)
        assert isinstance(p2as[0][1].command, CommandBatch)
        assert len(p2as[0][1].command.commands) == 2
        assert flush_counts(ctx)["delay"] == 1

    def test_partial_buffer_flushes_when_a_commit_frees_the_pipeline(self):
        replica, ctx = make_leader(batch_max_commands=8, pipeline_depth=1)
        replica.on_message(1000, request(client_id=1000, request_id=1))
        first_slot = ctx.sent_of_type(P2a)[0][1].slot
        ctx.clear_sent()
        replica.on_message(1001, request(key="a", client_id=1001, request_id=1))
        replica.on_message(1002, request(key="b", client_id=1002, request_id=1))
        assert not ctx.sent_of_type(P2a)
        commit_slot(replica, first_slot)
        p2as = ctx.sent_of_type(P2a)
        assert isinstance(p2as[0][1].command, CommandBatch)
        assert len(p2as[0][1].command.commands) == 2
        assert flush_counts(ctx)["pipeline"] == 1

    def test_unbatched_replica_registers_no_batch_metrics(self):
        """The default config must not even *touch* the batch counters --
        metric registration order feeds the determinism fingerprint."""
        replica, ctx = make_leader()
        replica.on_message(1000, request())
        assert ctx.sent_of_type(P2a)
        counters = ctx.metrics.snapshot()["counters"]
        assert not any(name.startswith("batch.") for name in counters)


class TestEPaxosFlushTriggers:
    def test_conflicting_arrival_flushes_the_standing_buffer(self):
        """Batches hold pairwise non-conflicting commands only: a conflicting
        arrival flushes what accumulated, then starts the next buffer."""
        replica, ctx = make_epaxos(batch_max_commands=4, batch_max_delay=0.05)
        replica.on_message(1000, request(key="a", client_id=1000, request_id=1))
        replica.on_message(1001, request(key="b", client_id=1001, request_id=1))
        assert not ctx.sent_of_type(EPreAccept)  # accumulating under the delay bound
        replica.on_message(1002, request(key="a", client_id=1002, request_id=1))
        pre_accepts = ctx.sent_of_type(EPreAccept)
        assert pre_accepts and isinstance(pre_accepts[0][1].command, CommandBatch)
        flushed = pre_accepts[0][1].command
        assert [cmd.key for cmd in flushed.commands] == ["a", "b"]
        assert flush_counts(ctx)["conflict"] == 1

    def test_buffer_reaching_capacity_flushes_on_size(self):
        replica, ctx = make_epaxos(batch_max_commands=3, batch_max_delay=0.05)
        for i, client in enumerate((1000, 1001, 1002)):
            replica.on_message(client, request(key=f"k{i}", client_id=client, request_id=1))
        pre_accepts = ctx.sent_of_type(EPreAccept)
        assert pre_accepts and len(pre_accepts[0][1].command.commands) == 3
        assert flush_counts(ctx)["size"] == 1

    def test_lone_command_flushes_as_plain_command_on_delay(self):
        replica, ctx = make_epaxos(batch_max_commands=4, batch_max_delay=0.05)
        replica.on_message(1000, request(key="a"))
        (timer,) = [
            t for t in ctx.pending_timers() if t.callback == replica._batch_delay_fired
        ]
        timer.fire()
        pre_accepts = ctx.sent_of_type(EPreAccept)
        assert pre_accepts and isinstance(pre_accepts[0][1].command, Command)
        assert flush_counts(ctx)["delay"] == 1


class TestBatchedScenarios:
    def test_batches_ride_the_relay_tree_unsplit(self):
        """PigPaxos: one RelayRequest per batched slot, fanned through the
        relay groups without splitting -- every sub-command still answers
        its own client correctly (linearizability holds end to end)."""
        result = run_scenario(get_scenario("pig-batched-5"))
        result.raise_on_violations()
        counters = result.counters()
        assert counters.get("pigpaxos.relay_fanouts", 0) > 0  # overlay actually in use
        total_flushes = sum(
            value for name, value in counters.items() if name.startswith("batch.flush.")
        )
        # Strictly more commands than flushes == multi-command batches
        # crossed the relay tree intact.
        assert counters["batch.commands_batched"] > total_flushes > 0

    def test_delay_flush_racing_client_timeout_stays_at_most_once(self):
        """Regression for the client_timeout x batch_max_delay audit: with
        the delay bound set *above* the client timeout, every buffered
        command is answered only after its client has already timed out,
        rotated targets and re-sent the same request_id.  The retried copy
        lands in the same (or a later) batch; the session window applies it
        once, the client completes once, linearizability holds."""
        scenario = Scenario(
            name="batched-delay-vs-client-timeout",
            protocol="paxos",
            num_nodes=5,
            num_clients=4,
            duration=2.0,
            seed=13,
            workload=WorkloadSpec.checking_default(num_keys=4),
            client_timeout=0.05,
            # Capacity high enough that the size trigger never preempts the
            # delay trigger: every flush in this run is a delayed one.
            config_overrides={"batch_max_commands": 64, "batch_max_delay": 0.2},
            checks=("linearizability", "log_invariants"),
            description="delay flush answers already-retried commands",
        )
        result = run_scenario(scenario)
        result.raise_on_violations()
        counters = result.counters()
        # The race actually happened: retried copies reached execution and
        # were filtered by the per-client session window...
        assert counters.get("paxos.duplicate_commands_skipped", 0) >= 1
        # ...and the delay trigger (not just size) did the flushing.
        assert counters.get("batch.flush.delay", 0) >= 1
        assert result.completed_requests > 0


class TestBatchMutationsAreCaught:
    def test_out_of_order_batch_unpacking_is_caught(self, monkeypatch):
        """A build that executes a batch in reverse order -- while the reply
        fan-out still zips results positionally with the recorded clients --
        hands clients each other's results.  The linearizability checker
        must see it (reads return values that contradict every valid
        linearization)."""
        original = MultiPaxosReplica._apply_command

        def apply_reversed(self, command):
            if isinstance(command, CommandBatch) and len(command.commands) > 1:
                return tuple(original(self, sub) for sub in reversed(command.commands))
            return original(self, command)

        monkeypatch.setattr(MultiPaxosReplica, "_apply_command", apply_reversed)
        scenario = Scenario(
            name="batched-out-of-order-mutation",
            protocol="paxos",
            num_nodes=5,
            num_clients=8,
            duration=1.5,
            seed=3,
            workload=WorkloadSpec.checking_default(num_keys=2),
            config_overrides={"batch_max_commands": 8, "pipeline_depth": 2},
            checks=("linearizability", "log_invariants"),
            description="batch unpack order reversed vs reply mapping",
        )
        result = run_scenario(scenario)
        assert not result.ok
        assert "linearizability" in {violation.checker for violation in result.violations}
