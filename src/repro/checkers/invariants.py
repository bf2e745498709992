"""Log-level safety invariants checked across replicas after a run.

These invariants follow directly from the Paxos correctness argument that
PigPaxos inherits (the paper's central claim): no schedule of crashes,
partitions, drops or relay churn may ever

* commit two different commands in the same slot on different replicas
  (:func:`check_slot_agreement`),
* let two replicas disagree on the common part of their gap-free committed
  prefixes (:func:`check_prefix_agreement`),
* execute a slot that is not part of a committed, gap-free prefix
  (:func:`check_execution_frontier`), or
* run with quorums that do not intersect (:func:`check_quorum_sanity`).

EPaxos has no shared slot-ordered log, so the slot checks above do not apply
to it; its correctness argument is per-instance and per-dependency-graph
instead (Moraru et al., SOSP'13), and is covered by a parallel family of
checks:

* every pair of replicas that committed an instance must agree on its
  ``(seq, deps, command)`` triple (:func:`check_epaxos_instance_agreement`),
* each replica's local execution order must be a valid linearisation of its
  committed dependency graph -- dependencies outside an instance's strongly
  connected component execute first, and nothing executes with an
  uncommitted or unexecuted dependency
  (:func:`check_epaxos_execution_order`), and
* any two replicas must execute the instances touching one key in the same
  order, prefix-wise (:func:`check_epaxos_execution_consistency`) -- the
  state-machine-equivalence property that dependency tracking exists to
  provide.

Explicit-prepare recovery (PR 5) may legally commit an instance as a
*no-op*: a keyless :class:`~repro.statemachine.command.NoOp` that preserves
whatever dependency edges the recovery round gathered.  The EPaxos checks
treat such instances as first-class graph vertices -- their dependency
edges still order everything executed through them
(:func:`check_epaxos_execution_order` and the reachability closure of
:func:`check_epaxos_conflict_ordering` walk them like any other committed
instance) -- while the per-key families skip them (a no-op touches no key,
so it neither creates a conflict pair nor appears in a per-key executed
sequence).  What recovery must still never do is commit a no-op for an
instance some replica committed (or executed) with the real command: that
divergence is exactly what :func:`check_epaxos_instance_agreement` and
:func:`check_epaxos_execution_consistency` flag, and the ``recovery-noop``
mutation (:mod:`repro.fuzz.mutations`) keeps them honest.

Each check takes the :class:`~repro.cluster.builder.Cluster` post-run and
returns a list of :class:`Violation` records; an empty list means the
invariant held.  Replicas without a ``log`` attribute (EPaxos) are skipped
by the log checks, and the EPaxos checks skip every replica without a
dependency graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.statemachine.command import Command, CommandBatch


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by a checker."""

    checker: str
    message: str

    def __str__(self) -> str:
        return f"[{self.checker}] {self.message}"


def _replica_logs(cluster) -> Dict[int, object]:
    logs: Dict[int, object] = {}
    for node_id, node in sorted(cluster.nodes.items()):
        log = getattr(node.replica, "log", None)
        if log is not None:
            logs[node_id] = log
    return logs


def check_slot_agreement(cluster) -> List[Violation]:
    """At most one command may ever be committed per slot, cluster-wide."""
    violations: List[Violation] = []
    chosen: Dict[int, Optional[int]] = {}  # slot -> uid first seen committed there
    chosen_by: Dict[int, int] = {}  # slot -> the node it was first seen on
    for node_id, log in sorted(_replica_logs(cluster).items()):
        # One set difference per replica: what is left is either a slot no
        # earlier replica committed or a slot it committed differently.
        # lint: ok(no-unordered-iteration) a set difference of two item views, sorted before it is walked
        for slot, uid in sorted(log.committed_uids().items() - chosen.items()):
            if slot not in chosen:
                chosen[slot] = uid
                chosen_by[slot] = node_id
                continue
            violations.append(
                Violation(
                    checker="slot_agreement",
                    message=(
                        f"slot {slot}: node {chosen_by[slot]} committed command "
                        f"uid={chosen[slot]} but node {node_id} committed uid={uid}"
                    ),
                )
            )
    return violations


def check_prefix_agreement(cluster) -> List[Violation]:
    """Every pair of replicas must agree on their common committed prefix."""
    violations: List[Violation] = []
    prefixes = cluster.committed_prefixes()
    # All pairs agree iff every prefix is a prefix of the longest one: n
    # slice comparisons.  Only a cluster that fails that is walked pair by
    # pair, to name every diverging pair and the slot it diverges at.
    longest = max(prefixes.values(), key=len, default=[])
    if all(prefix == longest[:len(prefix)] for prefix in prefixes.values()):
        return violations
    node_ids = sorted(prefixes)
    for i, a_id in enumerate(node_ids):
        for b_id in node_ids[i + 1:]:
            a, b = prefixes[a_id], prefixes[b_id]
            common = min(len(a), len(b))
            for slot_index in range(common):
                if a[slot_index] != b[slot_index]:
                    violations.append(
                        Violation(
                            checker="prefix_agreement",
                            message=(
                                f"nodes {a_id} and {b_id} diverge at slot "
                                f"{slot_index + 1}: uid {a[slot_index]} vs {b[slot_index]}"
                            ),
                        )
                    )
                    break
    return violations


def check_execution_frontier(cluster) -> List[Violation]:
    """Execution must only ever cover a committed, gap-free prefix."""
    violations: List[Violation] = []
    for node_id, log in sorted(_replica_logs(cluster).items()):
        # Every slot up to here is committed; the next one is the first that is not.
        committed_through = log.committed_through(0)
        if committed_through < log.next_execute_slot - 1:
            violations.append(
                Violation(
                    checker="execution_frontier",
                    message=(
                        f"node {node_id} executed through slot "
                        f"{log.next_execute_slot - 1} but slot {committed_through + 1} "
                        f"is not committed"
                    ),
                )
            )
        replica = cluster.nodes[node_id].replica
        commit_upto = getattr(replica, "commit_upto", None)
        if commit_upto is not None and committed_through < commit_upto:
            violations.append(
                Violation(
                    checker="execution_frontier",
                    message=(
                        f"node {node_id} advertises commit_upto={commit_upto} "
                        f"but slot {committed_through + 1} is not committed locally"
                    ),
                )
            )
    return violations


def check_quorum_sanity(cluster) -> List[Violation]:
    """Phase-1 and phase-2 quorums must intersect (q1 + q2 > n)."""
    violations: List[Violation] = []
    cluster_size = len(cluster.nodes)
    for node_id, node in sorted(cluster.nodes.items()):
        quorum = getattr(node.replica, "quorum", None)
        if quorum is None:
            continue
        if quorum.n != cluster_size:
            violations.append(
                Violation(
                    checker="quorum_sanity",
                    message=(
                        f"node {node_id} sizes quorums for n={quorum.n} "
                        f"but the cluster has {cluster_size} nodes"
                    ),
                )
            )
        if quorum.phase1_size + quorum.phase2_size <= quorum.n:
            violations.append(
                Violation(
                    checker="quorum_sanity",
                    message=(
                        f"node {node_id} quorums do not intersect: "
                        f"q1={quorum.phase1_size} + q2={quorum.phase2_size} <= n={quorum.n}"
                    ),
                )
            )
    return violations


#: All log/cluster checks, in the order the scenario runner applies them.
LOG_CHECKS = (
    check_slot_agreement,
    check_prefix_agreement,
    check_execution_frontier,
    check_quorum_sanity,
)


def run_log_checks(cluster) -> List[Violation]:
    """Run every log/cluster invariant check and concatenate the violations."""
    violations: List[Violation] = []
    for check in LOG_CHECKS:
        violations.extend(check(cluster))
    return violations


# --------------------------------------------------------------------------
# EPaxos invariants (instance/dependency-graph based, no shared log).
# --------------------------------------------------------------------------

#: Instance statuses that mean "this replica learned the commit decision".
_EPAXOS_DECIDED = ("committed", "executed")

InstanceId = Tuple[int, int]


def _epaxos_replicas(cluster) -> Dict[int, object]:
    replicas: Dict[int, object] = {}
    for node_id, node in sorted(cluster.nodes.items()):
        replica = node.replica
        if getattr(replica, "graph", None) is not None and hasattr(replica, "instances"):
            replicas[node_id] = replica
    return replicas


def check_epaxos_instance_agreement(cluster) -> List[Violation]:
    """Replicas that committed an instance agree on its (seq, deps, command)."""
    violations: List[Violation] = []
    chosen: Dict[InstanceId, Tuple[int, Tuple]] = {}
    for node_id, replica in sorted(_epaxos_replicas(cluster).items()):
        for instance_id, instance in sorted(replica.instances.items()):
            if instance.status not in _EPAXOS_DECIDED:
                continue
            # A decided instance always holds its command (a NoOp at worst).
            record = (instance.seq, frozenset(instance.deps), instance.command.uid)
            if instance_id not in chosen:
                chosen[instance_id] = (node_id, record)
                continue
            previous = chosen[instance_id]
            if previous[1] != record:
                violations.append(
                    Violation(
                        checker="epaxos_instance_agreement",
                        message=(
                            f"instance {instance_id}: node {previous[0]} committed "
                            f"(seq={previous[1][0]}, deps={sorted(previous[1][1])}, "
                            f"uid={previous[1][2]}) but node {node_id} committed "
                            f"(seq={record[0]}, deps={sorted(record[1])}, uid={record[2]})"
                        ),
                    )
                )
    return violations


def _committed_sccs(deps: Mapping[InstanceId, FrozenSet[InstanceId]]) -> Dict[InstanceId, int]:
    """Strongly connected components of a committed dependency graph.

    ``deps`` maps every committed instance to its dependency set; returns
    instance -> component id.  Edges to instances outside ``deps``
    (uncommitted at this replica) are ignored; such instances cannot be part
    of a committed cycle.  Iterative Tarjan, same shape as the planner in
    :mod:`repro.epaxos.graph`, with roots and each vertex's dependencies
    walked in sorted order: the numbering is deterministic and reverse
    topological (a dependency's component never gets a larger id than its
    dependent's).  A vertex is on Tarjan's stack iff it is indexed and not
    yet in a component.
    """
    vertices = set(deps)
    index: Dict[InstanceId, int] = {}
    lowlink: Dict[InstanceId, int] = {}
    stack: List[InstanceId] = []
    stack_position: Dict[InstanceId, int] = {}
    component_of: Dict[InstanceId, int] = {}
    counter = 0
    components = 0

    for root in sorted(vertices):
        if root in index:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack_position[root] = 0  # every earlier root emptied the stack
        stack.append(root)
        depth = 1
        work = [(root, iter(sorted(deps[root] & vertices)))]
        while work:
            node, pending = work[-1]
            for dep in pending:
                if dep not in index:
                    index[dep] = lowlink[dep] = counter
                    counter += 1
                    stack_position[dep] = depth
                    depth += 1
                    stack.append(dep)
                    work.append((dep, iter(sorted(deps[dep] & vertices))))
                    break
                if dep not in component_of and index[dep] < lowlink[node]:
                    lowlink[node] = index[dep]
            else:
                work.pop()
                if lowlink[node] == index[node]:
                    depth = stack_position[node]
                    for member in stack[depth:]:
                        component_of[member] = components
                    del stack[depth:]
                    components += 1
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
    return component_of


def _misplaced_dependencies(node_id, instance, deps, position, scc) -> List[Violation]:
    """Every dependency of one executed ``instance`` that breaks the order, in sorted order."""
    violations: List[Violation] = []
    for dep in sorted(deps[instance]):
        if dep not in deps:
            violations.append(
                Violation(
                    checker="epaxos_execution_order",
                    message=(
                        f"node {node_id} executed {instance} whose "
                        f"dependency {dep} is not committed locally"
                    ),
                )
            )
        elif dep not in position:
            violations.append(
                Violation(
                    checker="epaxos_execution_order",
                    message=(
                        f"node {node_id} executed {instance} whose "
                        f"dependency {dep} was never executed"
                    ),
                )
            )
        elif scc[dep] != scc[instance] and position[dep] > position[instance]:
            violations.append(
                Violation(
                    checker="epaxos_execution_order",
                    message=(
                        f"node {node_id} executed {instance} (position "
                        f"{position[instance]}) before its dependency {dep} "
                        f"(position {position[dep]})"
                    ),
                )
            )
    return violations


def check_epaxos_execution_order(cluster) -> List[Violation]:
    """Each replica's execution order must respect its dependency graph.

    For every executed instance X and every dependency D of X: D must be
    committed and executed on that replica, and -- unless D and X sit in the
    same strongly connected component (a dependency cycle, which executes as
    one batch) -- D must execute strictly before X.  Within one component
    the batch must execute in ``(seq, instance id)`` order, the protocol's
    deterministic cycle tie-break.  An instance may also never execute
    twice.  Recovered no-op instances participate like any other vertex:
    their preserved dependency edges are enforced, so a recovery that
    dropped an edge while no-op'ing an orphan still fails here.
    """
    violations: List[Violation] = []
    for node_id, replica in sorted(_epaxos_replicas(cluster).items()):
        graph = replica.graph
        executed = list(getattr(replica, "executed_order", []))
        position = {instance: i for i, instance in enumerate(executed)}
        if len(position) != len(executed):
            dupes = sorted({i for i in executed if executed.count(i) > 1})
            violations.append(
                Violation(
                    checker="epaxos_execution_order",
                    message=f"node {node_id} executed instances {dupes} more than once",
                )
            )
            continue
        deps = graph.committed_deps
        scc = _committed_sccs(deps)
        first_member: Dict[int, InstanceId] = {}
        cycles: Dict[int, List[InstanceId]] = {}  # component -> its >= 2 executed members
        for here, instance in enumerate(executed):
            if instance not in deps:
                continue  # not committed locally: no edges to check, no component
            component = scc[instance]
            for dep in deps[instance]:
                if dep not in deps or dep not in position or (
                    position[dep] > here and scc[dep] != component
                ):
                    violations.extend(
                        _misplaced_dependencies(node_id, instance, deps, position, scc)
                    )
                    break
            if component not in first_member:
                first_member[component] = instance
            elif component in cycles:
                cycles[component].append(instance)
            else:
                cycles[component] = [first_member[component], instance]
        # Members of one committed cycle must execute in (seq, id) order --
        # no member can execute until every member is committed, so the
        # planner emits the whole component as one deterministically sorted
        # batch; any other relative order is a planner bug.
        for component, members in sorted(cycles.items()):
            by_position = sorted(members, key=lambda inst: position[inst])
            by_seq = sorted(members, key=lambda inst: (graph.seq_of(inst), inst))
            if by_position != by_seq:
                violations.append(
                    Violation(
                        checker="epaxos_execution_order",
                        message=(
                            f"node {node_id} executed dependency cycle "
                            f"{sorted(members)} out of (seq, id) order: "
                            f"ran {by_position}, expected {by_seq}"
                        ),
                    )
                )
    return violations


def _command_keys(command) -> Tuple[str, ...]:
    """Every key a committed command touches.

    A :class:`~repro.statemachine.command.CommandBatch` touches each of its
    sub-commands' keys (its ``keys()`` tuple); a plain command touches one;
    a recovery no-op touches none.  The per-key checks must treat a batch as
    a first-class vertex on *every* key inside it, or the dependency paths
    that run through batches look lost and per-key executed sequences skip
    the batch's writes.
    """
    kind = type(command)
    if kind is Command:
        return (command.key,)
    if kind is CommandBatch:
        # lint: ok(no-unordered-iteration) CommandBatch.keys() is a tuple in first-occurrence order, not a dict view
        return command.keys()
    return ()


def _per_key_executed_uids(replica, keys_of: Dict[object, Tuple[str, ...]]) -> Dict[str, List[int]]:
    """Key -> uids of the commands ``replica`` executed on it, in execution order.

    ``keys_of`` caches :func:`_command_keys` per command object across
    replicas, which all hold the same decided command objects.
    """
    by_key: Dict[str, List[int]] = {}
    instances = replica.instances
    for instance_id in getattr(replica, "executed_order", []):
        if instance_id not in instances:
            continue
        command = instances[instance_id].command
        if command not in keys_of:
            keys_of[command] = _command_keys(command)
        for key in keys_of[command]:
            if key in by_key:
                by_key[key].append(command.uid)
            else:
                by_key[key] = [command.uid]
    return by_key


def check_epaxos_execution_consistency(cluster) -> List[Violation]:
    """Any two replicas execute the instances of one key in the same order.

    Conflicting (same-key) instances are totally ordered by the dependency
    graph, so per key every replica's executed sequence of command uids must
    agree pairwise on the common prefix; a replica that missed late commits
    simply stops earlier.  This is the state-machine-equivalence property:
    if it holds for every key, all KV stores converge.
    """
    violations: List[Violation] = []
    keys_of: Dict[object, Tuple[str, ...]] = {}
    sequences = {
        node_id: _per_key_executed_uids(replica, keys_of)
        for node_id, replica in sorted(_epaxos_replicas(cluster).items())
    }
    node_ids = sorted(sequences)
    for i, a_id in enumerate(node_ids):
        for b_id in node_ids[i + 1:]:
            a_keys, b_keys = sequences[a_id], sequences[b_id]
            for key in sorted(set(a_keys) & set(b_keys)):
                a, b = a_keys[key], b_keys[key]
                common = min(len(a), len(b))
                if a[:common] == b[:common]:
                    continue
                for index in range(common):
                    if a[index] != b[index]:
                        violations.append(
                            Violation(
                                checker="epaxos_execution_consistency",
                                message=(
                                    f"nodes {a_id} and {b_id} diverge on key {key!r} "
                                    f"at executed position {index}: "
                                    f"uid {a[index]} vs {b[index]}"
                                ),
                            )
                        )
                        break
    return violations


def check_epaxos_conflict_ordering(cluster) -> List[Violation]:
    """Conflicting executed instances must be dependency-connected.

    The EPaxos safety argument rests on the preaccept quorums of any two
    conflicting commands intersecting, which guarantees at least one of the
    two carries a committed dependency path to the other -- that path is
    what pins their relative execution order on every replica.  A reply-
    accounting bug (e.g. counting a retransmitted vote twice) commits on an
    undersized quorum and silently loses that path; the two instances then
    commute in the executor even though they touch the same key.  This check
    exposes the lost edge directly instead of waiting for replicas to
    actually diverge: for every pair of same-key instances that some replica
    executed, the cluster-wide committed graph must contain a path between
    them (same strongly connected component counts).
    """
    violations: List[Violation] = []
    replicas = _epaxos_replicas(cluster)
    if not replicas:
        return violations

    # Union committed graph + executed set + keys per instance.  Instance
    # agreement (checked separately) makes the union well-defined.  Replicas
    # share decided command objects, so keys are computed once per distinct
    # command and an instance is filed under its keys once per distinct
    # command it was decided with.
    deps: Dict[InstanceId, FrozenSet[InstanceId]] = {}
    first_command: Dict[InstanceId, object] = {}
    keys_of: Dict[object, Tuple[str, ...]] = {}
    by_key: Dict[str, Set[InstanceId]] = {}
    executed: Set[InstanceId] = set()
    for _, replica in sorted(replicas.items()):
        executed.update(getattr(replica, "executed_order", []))
        for instance_id, instance in sorted(replica.instances.items()):
            if instance.status not in _EPAXOS_DECIDED:
                continue
            command = instance.command
            if instance_id not in deps:
                deps[instance_id] = frozenset(instance.deps)
                first_command[instance_id] = command
            elif first_command[instance_id] is command:
                continue
            if command not in keys_of:
                keys_of[command] = _command_keys(command)
            for key in keys_of[command]:
                if key in by_key:
                    by_key[key].add(instance_id)
                else:
                    by_key[key] = {instance_id}

    scc = _committed_sccs(deps)
    for key in sorted(by_key):
        members = sorted(by_key[key] & executed)
        if len(members) < 2:
            continue
        # Reachability over the condensed (acyclic) graph, restricted to
        # this key's instances: deps never cross keys, so the per-key
        # subgraph is self-contained.  Command batches are members of every
        # key they touch (``_command_keys``), which keeps paths that run
        # through a batch inside the subgraph.  Bitmask DP over components:
        # Tarjan numbers a dependency's component below its dependent's, so
        # walking members in component order finishes every successor's
        # mask before the components that need it.
        components = sorted({scc[member] for member in members})
        comp_index = {component: i for i, component in enumerate(components)}
        reach = [0] * len(components)
        for member in sorted(members, key=scc.__getitem__):
            src = comp_index[scc[member]]
            mask = reach[src]
            for dep in deps[member]:
                if dep in scc and scc[dep] in comp_index:
                    dst = comp_index[scc[dep]]
                    if dst != src:
                        mask |= (1 << dst) | reach[dst]
            reach[src] = mask
        # Edges only point to lower components, so every pair is connected
        # iff every component reaches all the components below it.  Only a
        # key that fails that is walked pair by pair for the report.
        for i, mask in enumerate(reach):
            if mask != (1 << i) - 1:
                break
        else:
            continue  # every pair connected: nothing to report for this key
        comp_members: Dict[int, List[InstanceId]] = {}
        for member in members:
            comp_members.setdefault(comp_index[scc[member]], []).append(member)
        for a_pos, a in enumerate(components):
            for b in components[a_pos + 1:]:
                ia, ib = comp_index[a], comp_index[b]
                if not (reach[ia] >> ib) & 1 and not (reach[ib] >> ia) & 1:
                    sample_a = min(comp_members[ia])
                    sample_b = min(comp_members[ib])
                    violations.append(
                        Violation(
                            checker="epaxos_conflict_ordering",
                            message=(
                                f"conflicting executed instances {sample_a} and "
                                f"{sample_b} on key {key!r} have no dependency "
                                f"path between them (lost conflict edge)"
                            ),
                        )
                    )
    return violations


#: All EPaxos-specific checks, in the order the scenario runner applies them.
EPAXOS_CHECKS = (
    check_epaxos_instance_agreement,
    check_epaxos_execution_order,
    check_epaxos_execution_consistency,
    check_epaxos_conflict_ordering,
)


def run_epaxos_checks(cluster) -> List[Violation]:
    """Run every EPaxos invariant check and concatenate the violations."""
    violations: List[Violation] = []
    for check in EPAXOS_CHECKS:
        violations.extend(check(cluster))
    return violations
