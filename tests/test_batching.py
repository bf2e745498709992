"""Batching & pipelining on the replication path.

Four tiers:

* **Batcher** -- the size / delay / immediate / back-pressure / ``reset()``
  rules, once, on a bare :class:`~repro.protocol.batching.Batcher` over a
  :class:`FakeContext`.  No library scenario fires the Multi-Paxos ``size``
  or ``delay`` trigger, so these are their cover.
* **Replica** -- what is protocol-specific, through the real replicas: the
  ``pipeline`` trigger and per-client replies (Multi-Paxos), the
  ``conflict`` trigger (EPaxos), plain commands on the wire, and the
  equivalence that makes one batcher enough -- the same conflict-free
  arrivals flush identically on EPaxos and on an unbounded-pipeline Paxos.
* **Scenario** -- batches riding the PigPaxos relay overlay unsplit, and
  the ``client_timeout`` x ``batch_max_delay`` race: a delay flush that
  answers an already-retried command must stay at-most-once end to end.
* **Mutation** -- the two named breaks of the shared reply path
  (``repro.fuzz.mutations``) must each trip the linearizability checker on
  a batched Paxos *and* a batched EPaxos run.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from helpers import FakeContext, library_run
from repro.epaxos.messages import EPreAccept
from repro.epaxos.replica import EPaxosReplica
from repro.fuzz.mutations import apply_mutation
from repro.paxos.replica import MultiPaxosReplica
from repro.protocol.batching import TRIGGERS, Batcher
from repro.protocol.config import ProtocolConfig
from repro.protocol.messages import ClientReply, ClientRequest, P1b, P2a, P2b
from repro.scenarios import Scenario, run_scenario
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


def command(key="k", client_id=1000, request_id=1) -> Command:
    return Command(
        op=OpType.PUT, key=key, payload_size=8, client_id=client_id, request_id=request_id
    )


def request(key="k", client_id=1000, request_id=1) -> ClientRequest:
    return ClientRequest(command=command(key, client_id, request_id))


def flush_counts(ctx) -> dict:
    """``{trigger: count}`` of the ``batch.flush.*`` counters that fired."""
    counters = ctx.metrics.snapshot()["counters"]
    return {
        name.rsplit(".", 1)[-1]: value
        for name, value in counters.items()
        if name.startswith("batch.flush.") and value
    }


def delay_timer(replica, ctx):
    """The batcher's one pending delay timer."""
    (timer,) = [
        t for t in ctx.pending_timers() if t.callback == replica._batcher._delay_fired
    ]
    return timer


def commit_slot(replica, slot: int) -> None:
    for voter in (1, 2):
        replica.on_message(voter, P2b(ballot=replica.ballot, slot=slot, voter=voter, ok=True))


class BatcherHarness:
    """A bare :class:`Batcher` whose proposals land in a list.

    ``room`` is the number of flushes the back-pressure test still admits
    (``None``: no back-pressure test at all, as for EPaxos).
    """

    def __init__(self, max_commands, max_delay=None, room=None):
        self.ctx = FakeContext()
        self.room = room
        self.proposed = []
        self.batcher = Batcher(
            SimpleNamespace(ctx=self.ctx), max_commands, max_delay,
            propose=self._propose,
            has_room=None if room is None else lambda: self.room > 0,
        )

    def _propose(self, flushed, clients):
        if self.room is not None:
            self.room -= 1
        self.proposed.append((flushed, clients))

    def add(self, count, start=0):
        for index in range(start, start + count):
            self.batcher.add(command(f"k{index}", 1000 + index, request_id=7), 1000 + index)

    def sizes(self):
        return [len(clients) for _, clients in self.proposed]


class TestBatcherRules:
    def test_partial_buffer_with_room_and_no_delay_leaves_immediately(self):
        """Light load degenerates to unbatched: a lone command is proposed
        right away, as itself, with its own reply routing."""
        harness = BatcherHarness(max_commands=4)
        harness.add(1)
        ((flushed, clients),) = harness.proposed
        assert isinstance(flushed, Command) and clients == ((1000, 7),)
        assert not harness.batcher.buffer and not harness.ctx.pending_timers()
        assert flush_counts(harness.ctx) == {"immediate": 1}

    def test_metrics_register_at_the_first_flush_under_the_documented_names(self):
        harness = BatcherHarness(max_commands=4, max_delay=0.05)
        harness.add(1)  # buffered, nothing flushed yet
        assert not harness.ctx.metrics.snapshot()["counters"]
        harness.batcher.pump("conflict", force=True)
        counters = harness.ctx.metrics.snapshot()["counters"]
        assert {name for name in counters if name.startswith("batch.flush.")} == {
            f"batch.flush.{trigger}" for trigger in TRIGGERS
        }
        assert counters["batch.commands_batched"] == 1

    def test_buffer_reaching_capacity_flushes_on_size_and_disarms_the_timer(self):
        harness = BatcherHarness(max_commands=3, max_delay=0.05)
        harness.add(2)
        assert not harness.proposed and len(harness.ctx.pending_timers()) == 1
        harness.add(1, start=2)
        ((flushed, clients),) = harness.proposed
        assert isinstance(flushed, CommandBatch)
        assert [sub.key for sub in flushed.commands] == ["k0", "k1", "k2"]
        assert clients == ((1000, 7), (1001, 7), (1002, 7))  # command order
        assert not harness.ctx.pending_timers()  # nothing left to wait for
        assert flush_counts(harness.ctx) == {"size": 1}

    def test_delay_timer_is_armed_once_and_flushes_the_partial_buffer(self):
        harness = BatcherHarness(max_commands=8, max_delay=0.05)
        harness.add(2)
        (timer,) = harness.ctx.pending_timers()  # armed by the first arrival only
        assert timer.delay == 0.05 and not harness.proposed
        timer.fire()
        assert harness.sizes() == [2]
        assert flush_counts(harness.ctx) == {"delay": 1}
        harness.add(1, start=2)  # the next buffer gets a fresh timer
        assert len(harness.ctx.pending_timers()) == 1

    def test_an_arrival_that_fills_the_buffer_arms_no_timer(self):
        harness = BatcherHarness(max_commands=2, max_delay=0.05, room=0)
        harness.add(1)
        (timer,) = harness.ctx.pending_timers()
        timer.fire()  # no room: the delay flush finds nothing it may send
        assert not harness.proposed
        harness.add(1, start=1)  # buffer is full now: no point in a delay bound
        assert not harness.ctx.pending_timers()

    def test_back_pressure_parks_arrivals_and_releases_capacity_at_a_time(self):
        """While the caller reports no room nothing flushes, the buffer grows
        past capacity, and once room returns it drains ``max_commands`` at a
        time -- a parked full buffer never leaves as one oversized batch."""
        harness = BatcherHarness(max_commands=3, room=0)
        harness.add(7)
        assert not harness.proposed and len(harness.batcher.buffer) == 7
        harness.room = 1
        harness.batcher.pump("pipeline")
        assert harness.sizes() == [3] and len(harness.batcher.buffer) == 4
        harness.room = 5
        harness.batcher.pump("pipeline")
        assert harness.sizes() == [3, 3, 1]
        assert [clients[0][0] for _, clients in harness.proposed] == [1000, 1003, 1006]
        assert flush_counts(harness.ctx) == {"size": 2, "pipeline": 1}

    def test_a_pending_delay_flush_holds_a_partial_buffer_unless_forced(self):
        harness = BatcherHarness(max_commands=8, max_delay=0.05)
        harness.add(2)
        harness.batcher.pump("pipeline")  # a delay flush is pending: keep accumulating
        assert not harness.proposed
        harness.batcher.pump("conflict", force=True)
        assert harness.sizes() == [2]
        assert not harness.ctx.pending_timers()
        assert flush_counts(harness.ctx) == {"conflict": 1}

    def test_reset_drops_the_buffer_and_cancels_the_timer(self):
        harness = BatcherHarness(max_commands=8, max_delay=0.05)
        harness.add(3)
        (timer,) = harness.ctx.pending_timers()
        harness.batcher.reset()
        assert timer.cancelled and not harness.batcher.buffer
        timer.fire()  # a cancelled timer never runs; nothing comes back
        assert not harness.proposed
        harness.add(1, start=3)  # and the batcher is usable again
        assert len(harness.ctx.pending_timers()) == 1


class TestPaxosFlushTriggers:
    def test_partial_buffer_with_pipeline_room_flushes_immediately(self):
        """A lone command goes on the wire as a plain Command (not a
        one-element batch), fanned out to every peer."""
        replica, ctx = make_leader(batch_max_commands=4, pipeline_depth=2)
        replica.on_message(1000, request())
        p2as = ctx.sent_of_type(P2a)
        assert len(p2as) == 4  # fan-out to every peer, nothing buffered
        assert isinstance(p2as[0][1].command, Command)
        assert flush_counts(ctx) == {"immediate": 1}

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
        by_client = {dst: reply for dst, reply in replies}
        for sub in batch.commands:
            reply = by_client[sub.client_id]
            assert reply.command_uid == sub.uid == reply.result.command_uid
            assert reply.success and reply.leader_hint == 0

    def test_partial_buffer_flushes_when_the_delay_timer_fires(self):
        replica, ctx = make_leader(batch_max_commands=8, batch_max_delay=0.05)
        replica.on_message(1000, request(client_id=1000, request_id=1))
        replica.on_message(1001, request(key="j", client_id=1001, request_id=1))
        assert not ctx.sent_of_type(P2a)  # delay bound set: accumulate
        delay_timer(replica, ctx).fire()
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

    def test_losing_leadership_drops_the_buffer_and_its_timer(self):
        replica, ctx = make_leader(batch_max_commands=8, batch_max_delay=0.05)
        replica.on_message(1000, request())
        timer = delay_timer(replica, ctx)
        replica.on_message(3, P2b(ballot=replica.ballot.next_for(3), slot=1, voter=3, ok=False))
        assert not replica.is_leader
        assert timer.cancelled and not replica._batcher.buffer

    @pytest.mark.parametrize("make", [make_leader, make_epaxos], ids=["paxos", "epaxos"])
    def test_unbatched_replica_has_no_batcher_and_registers_no_batch_metrics(self, make):
        """The default config must not even *touch* the batch counters --
        metric registration order feeds the determinism fingerprint."""
        replica, ctx = make()
        replica.on_message(1000, request())
        assert ctx.sent_of_type(P2a) or ctx.sent_of_type(EPreAccept)
        assert replica._batcher is None
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
        assert flush_counts(ctx) == {"conflict": 1}
        # The conflicting arrival opened the next buffer under a fresh timer.
        assert [queued.client_id for queued, _ in replica._batcher.buffer] == [1002]
        delay_timer(replica, ctx)

    def test_lone_command_flushes_as_plain_command_on_delay(self):
        replica, ctx = make_epaxos(batch_max_commands=4, batch_max_delay=0.05)
        replica.on_message(1000, request(key="a"))
        delay_timer(replica, ctx).fire()
        pre_accepts = ctx.sent_of_type(EPreAccept)
        assert pre_accepts and isinstance(pre_accepts[0][1].command, Command)
        assert flush_counts(ctx) == {"delay": 1}

    def test_batched_instance_answers_every_client_with_its_own_result(self):
        replica, ctx = make_epaxos(batch_max_commands=2, batch_max_delay=0.05)
        replica.on_message(1000, request(key="a", client_id=1000, request_id=4))
        replica.on_message(1001, request(key="b", client_id=1001, request_id=9))
        (batch,) = {message.command for _, message in ctx.sent_of_type(EPreAccept)}
        instance = replica.instances[(0, 1)]
        replica._commit_instance(instance, instance.seq, instance.deps)
        replies = dict(ctx.sent_of_type(ClientReply))
        assert {dst: reply.request_id for dst, reply in replies.items()} == {1000: 4, 1001: 9}
        for sub in batch.commands:
            assert replies[sub.client_id].command_uid == sub.uid
            assert replies[sub.client_id].result.command_uid == sub.uid


def flush_sequence(ctx, wire_type):
    """Keys of each proposal sent to peer 1, in order, plus the trigger counts."""
    proposals = [
        message.command for dst, message in ctx.sent_of_type(wire_type) if dst == 1
    ]
    return [
        tuple(sub.key for sub in getattr(proposal, "commands", (proposal,)))
        for proposal in proposals
    ], flush_counts(ctx)


@pytest.mark.parametrize("max_delay", [None, 0.05], ids=["no-delay", "delay"])
def test_conflict_free_stream_flushes_identically_on_epaxos_and_unbounded_paxos(max_delay):
    """EPaxos' batcher *is* the Paxos batcher without a pipeline bound: the
    same arrivals (distinct keys, so no conflict pre-flush) produce the same
    sequence of flushes, sizes and triggers on both."""
    sequences = []
    for make, wire_type in ((make_leader, P2a), (make_epaxos, EPreAccept)):
        replica, ctx = make(batch_max_commands=3, batch_max_delay=max_delay)
        arrivals = iter(range(100))

        def arrive(count):
            for index in (next(arrivals) for _ in range(count)):
                replica.on_message(
                    1000 + index, request(key=f"k{index}", client_id=1000 + index)
                )

        arrive(3)  # fills the buffer
        arrive(2)  # partial: waits for the delay bound, if there is one
        if max_delay is not None:
            delay_timer(replica, ctx).fire()
        arrive(1)
        if max_delay is not None:
            delay_timer(replica, ctx).fire()
        arrive(4)
        sequences.append(flush_sequence(ctx, wire_type))
    assert sequences[0] == sequences[1]
    keys, triggers = sequences[0]
    if max_delay is None:
        assert triggers == {"immediate": 10} and all(len(group) == 1 for group in keys)
    else:
        assert [len(group) for group in keys] == [3, 2, 1, 3]  # the tenth is still parked
        assert triggers == {"size": 2, "delay": 2}


class TestBatchedScenarios:
    def test_batches_ride_the_relay_tree_unsplit(self):
        """PigPaxos: one RelayRequest per batched slot, fanned through the
        relay groups without splitting -- every sub-command still answers
        its own client correctly (linearizability holds end to end)."""
        run = library_run("pig-batched-5")
        assert run.ok, run.violations
        counters = run.counters
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


BATCHED_KNOBS = {
    "paxos": {"batch_max_commands": 8, "pipeline_depth": 2},
    "epaxos": {"batch_max_commands": 8, "batch_max_delay": 0.005},
}


class TestBatchMutationsAreCaught:
    @pytest.mark.parametrize("protocol", sorted(BATCHED_KNOBS))
    @pytest.mark.parametrize("mutation", ["batch-unpack-reversed", "reply-misroute"])
    def test_broken_reply_routing_is_caught(self, mutation, protocol):
        """Either break hands clients each other's results -- a batch
        executed in reverse under a positional reply fan-out, or the fan-out
        itself rotated by one.  The linearizability checker must see it
        (reads return values that contradict every valid linearization), on
        both protocols: ``reply-misroute`` patches the one shared helper, so
        a protocol it missed would be a second reply path."""
        scenario = Scenario(
            name=f"batched-{protocol}-{mutation}",
            protocol=protocol,
            num_nodes=5,
            num_clients=8,
            duration=1.0,
            seed=3,
            workload=WorkloadSpec.checking_default(num_keys=8),
            config_overrides=BATCHED_KNOBS[protocol],
            checks=("linearizability", "log_invariants"),
            description="a named break of the batched reply path",
        )
        with apply_mutation(mutation):
            result = run_scenario(scenario)
        assert not result.ok
        assert "linearizability" in {violation.checker for violation in result.violations}
