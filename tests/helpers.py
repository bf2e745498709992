"""Shared test helpers: a fake node context for replica unit tests, network
probes, and one memoised run per library scenario."""

from __future__ import annotations

import functools
import random
from typing import Any, Callable, List, Sequence, Tuple

from repro.sim.metrics import MetricsRegistry


class FakeTimer:
    """A manually fired timer returned by :class:`FakeContext.schedule`."""

    def __init__(self, delay: float, callback: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self.delay = delay
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        self.cancelled = True

    def fire(self) -> None:
        if not self.cancelled:
            self.fired = True
            self.callback(*self.args)


class FakeContext:
    """In-memory NodeContext capturing sends and timers for unit tests."""

    def __init__(self, node_id: int = 0, all_nodes: Sequence[int] = (0, 1, 2, 3, 4), seed: int = 0) -> None:
        self._node_id = node_id
        self._all_nodes = list(all_nodes)
        self._now = 0.0
        #: The replicas' clock (``NodeContext.clock``): this context's ``now``.
        self.clock = self
        self.sent: List[Tuple[int, Any]] = []
        self.timers: List[FakeTimer] = []
        self._rng = random.Random(seed)
        self._metrics = MetricsRegistry()
        self.executed_commands = 0
        self.graph_vertices = 0
        self.overhead_units = 0.0

    # ----------------------------------------------------------------- context API
    @property
    def node_id(self) -> int:
        return self._node_id

    @property
    def all_nodes(self) -> Sequence[int]:
        return self._all_nodes

    @property
    def now(self) -> float:
        return self._now

    @property
    def rng(self) -> random.Random:
        return self._rng

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    def send(self, dst: int, message: Any) -> None:
        self.sent.append((dst, message))

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> FakeTimer:
        timer = FakeTimer(delay, callback, args)
        self.timers.append(timer)
        return timer

    def charge_execution(self, commands: int = 1) -> None:
        self.executed_commands += commands

    def charge_graph_work(self, vertices: int) -> None:
        self.graph_vertices += vertices

    def charge_overhead(self, units: float = 1.0) -> None:
        self.overhead_units += units

    # ----------------------------------------------------------------- test helpers
    def advance(self, seconds: float) -> None:
        self._now += seconds

    def sent_to(self, dst: int) -> List[Any]:
        return [message for target, message in self.sent if target == dst]

    def sent_of_type(self, message_type: type) -> List[Tuple[int, Any]]:
        return [(target, message) for target, message in self.sent if isinstance(message, message_type)]

    def clear_sent(self) -> None:
        self.sent.clear()

    def pending_timers(self) -> List[FakeTimer]:
        return [timer for timer in self.timers if not timer.cancelled and not timer.fired]


# --------------------------------------------------------------------- network
class ArrivalSink:
    """A network endpoint that records ``(arrival time, src, message, size)``."""

    def __init__(self, endpoint_id: int, sim) -> None:
        self.endpoint_id = endpoint_id
        self._sim = sim
        self.arrivals: List[Tuple[float, int, Any, int]] = []

    def arrive(self, src: int, message: Any, size: int) -> None:
        self.arrivals.append((self._sim.now, src, message, size))

    @property
    def received(self) -> List[Any]:
        return [message for _, _, message, _ in self.arrivals]


def crash_owned_entries(machine, heap) -> List[tuple]:
    """The entries of ``heap`` that ``machine``'s crash must drop.

    Its queued sends (``SimNetwork.send`` call entries from one of its
    hosts' endpoint ids), the handlers its hosts' replicas queued, and the
    uncancelled timers it owns.
    """
    endpoints = {host.endpoint_id for host in machine.hosts}
    handlers = set()
    for host in machine.hosts:
        handlers.update(host.replica.handlers.values())
        handlers.add(host.replica.handlers._unknown)
    send = machine._network.send
    owned = []
    for entry in heap:
        payload, args = entry[2], entry[3]
        if args is None:
            if payload.owner is machine and not payload.cancelled:
                owned.append(entry)
        elif (payload == send and args[0] in endpoints) or payload in handlers:
            owned.append(entry)
    return owned


class SizedProbe:
    """A bare wire object with a given payload (sized like any message)."""

    def __init__(self, payload_bytes: int = 0) -> None:
        self.payload_bytes = payload_bytes


def drive_against_per_send_reference(
    topology,
    endpoint_ids: Sequence[int],
    faults=None,
    seed: int = 11,
    sends: int = 400,
):
    """Random sends through a ``SimNetwork`` vs. ``latency.delay`` per send.

    The reference draws from a twin of the ``"network"`` RNG stream in send
    order, exactly as the network did before it resolved links once: the
    drop verdict (when ``faults`` is lossy), the delay, the duplicate
    verdict, and a second delay for a duplicated copy.  It prices each
    delay between the two ends' machines, folding every endpoint id modulo
    ``SHARD_ENDPOINT_STRIDE`` itself.  Returns
    ``(records, counters)``: one ``(src, dst, actual, expected)`` record per
    send, where ``actual`` and ``expected`` are the sorted
    ``(arrival time, src, dst, size)`` of each copy (none for a dropped
    send, two for a duplicated one) and must be bit-equal -- and the run's
    counter snapshot.
    """
    from repro.net.faults import NetworkFaults
    from repro.net.network import SimNetwork
    from repro.shard.addressing import SHARD_ENDPOINT_STRIDE
    from repro.sim.engine import Simulator

    sim = Simulator(seed=seed)
    twin = Simulator(seed=seed).random.stream("network")
    faults = faults or NetworkFaults()
    network = SimNetwork(sim, topology, faults=faults)
    model = topology.latency
    bandwidth = topology.bandwidth_bytes_per_sec
    sinks = {endpoint_id: ArrivalSink(endpoint_id, sim) for endpoint_id in endpoint_ids}
    for sink in sinks.values():
        network.register(sink)
    # id(probe) -> (probe, src, dst, expected copies); holding the probe
    # keeps a dropped one's id from being reused by a later send.
    expected = {}
    picker = random.Random(seed)

    def send_one() -> None:
        src, dst = picker.choice(endpoint_ids), picker.choice(endpoint_ids)
        probe = SizedProbe(picker.randrange(0, 2000))
        network.send(src, dst, probe)
        size = network.size_model.size_of(probe)
        copies = []
        expected[id(probe)] = (probe, src, dst, copies)

        def copy_arrives() -> None:
            delay = model.delay(src % SHARD_ENDPOINT_STRIDE, dst % SHARD_ENDPOINT_STRIDE, twin)
            if bandwidth:
                delay += size / bandwidth
            copies.append((sim.now + delay, src, dst, size))

        if faults.lossy and faults.should_drop(src, dst, twin):
            return
        copy_arrives()
        if faults.duplicate_probability and faults.should_duplicate(src, dst, twin):
            copy_arrives()

    for index in range(sends):
        sim.schedule(index * 0.0003, send_one)
    sim.run()
    actual = {key: [] for key in expected}
    for dst, sink in sinks.items():
        for arrived_at, src, message, size in sink.arrivals:
            actual[id(message)].append((arrived_at, src, dst, size))
    records = [
        (src, dst, sorted(actual[key]), sorted(copies))
        for key, (_, src, dst, copies) in expected.items()
    ]
    assert len(records) == sends
    return records, sim.metrics.counters()


# --------------------------------------------------------------------- paxos
class FullRescanFollower:
    """The commit-frontier rule applied the naive way: every announcement
    rescans its whole window ``(commit_upto, announced]``."""

    def __init__(self):
        self.entries = {}  # slot -> [ballot, committed]
        self.commit_upto = 0

    def accept(self, slot, ballot):
        entry = self.entries.get(slot)
        if entry is not None and not entry[1] and ballot < entry[0]:
            return  # a stale accept never replaces a newer entry
        self.entries[slot] = [ballot, entry is not None and entry[1]]

    def fill(self, slot, ballot):
        entry = self.entries.get(slot)
        if entry is None or not entry[1]:
            self.entries[slot] = [ballot, True]
        self._advance()

    def announce(self, upto, ballot):
        """Commit what the window's ballot vouches for; report whether a slot is missing."""
        if upto <= self.commit_upto:
            return False
        missing = False
        for slot in range(self.commit_upto + 1, upto + 1):
            entry = self.entries.get(slot)
            if entry is None or (entry[0] != ballot and not entry[1]):
                missing = True
            else:
                entry[1] = True
        self._advance()
        return missing

    def _advance(self):
        while self.commit_upto + 1 in self.entries and self.entries[self.commit_upto + 1][1]:
            self.commit_upto += 1


# --------------------------------------------------------------------- overlay
def per_round_trees(plan, rng, levels=1, fixed_relays=False):
    """A plan's relay trees built the per-round way: fresh member lists and
    one ``rng.choice`` per relay, every group, every round."""
    from repro.overlay.groups import HierarchicalGroupPlan, contiguous_groups
    from repro.overlay.messages import RelaySubtree

    def group_tree(members, levels):
        relay = members[0] if fixed_relays else rng.choice(members)
        rest = [member for member in members if member != relay]
        if levels <= 1 or len(rest) <= 1:
            return RelaySubtree(relay, tuple(RelaySubtree(member) for member in rest))
        subgroups = contiguous_groups(rest, max(1, int(round(len(rest) ** 0.5))))
        return RelaySubtree(relay, tuple(group_tree(sub, levels - 1) for sub in subgroups))

    if levels <= 1 or not isinstance(plan, HierarchicalGroupPlan):
        return [group_tree(group, levels) for group in plan.groups]
    trees = []
    for group, partition in zip(plan.groups, plan.zones):
        relay = group[0] if fixed_relays else rng.choice(group)
        children = []
        for zone in partition:
            rest = [member for member in zone if member != relay]
            if rest:
                children.append(group_tree(rest, levels - 1))
        trees.append(RelaySubtree(relay, tuple(children)))
    return trees


def tree_shape(tree):
    """A relay tree as nested ``(node_id, children)`` tuples, comparable by ``==``."""
    return (tree.node_id, tuple(tree_shape(child) for child in tree.children))


# --------------------------------------------------------------------- scenarios
@functools.lru_cache(maxsize=None)
def library_run(name: str):
    """The run record of library scenario ``name``, run once per test session.

    The canned sweep, the golden pins and the per-scenario assertion tests
    all look at the same (scenario, seed) run; this is its
    ``SweepOutcome``, so memoising every library scenario costs kilobytes.
    Never call it with a mutation or monkeypatch applied -- the broken run
    would be what every later test sees -- and use ``run_scenario``
    directly for anything that needs the cluster or the history.
    """
    from repro.scenarios import get_scenario
    from repro.scenarios.sweep import run_outcome

    return run_outcome(get_scenario(name))
