"""Dependency-graph execution order for EPaxos.

Committed instances form a directed graph (an edge from A to B when A depends
on B).  Execution finds strongly connected components with an iterative
Tarjan algorithm and executes them in reverse topological order; within a
component, instances execute in (seq, instance id) order.  An instance whose
transitive dependencies include an uncommitted instance is not executable
yet.

The number of vertices visited while attempting to execute is reported back
to the caller so the node model can charge CPU for it -- this re-traversal
cost under high conflict is a large part of why EPaxos underperforms in the
paper's small-key-space workload.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

InstanceId = Tuple[int, int]


class DependencyGraph:
    """Execution planner over committed EPaxos instances."""

    def __init__(self) -> None:
        self._deps: Dict[InstanceId, FrozenSet[InstanceId]] = {}
        self._seq: Dict[InstanceId, int] = {}
        self._committed: Set[InstanceId] = set()
        self._executed: Set[InstanceId] = set()

    # ------------------------------------------------------------------ updates
    def add_committed(self, instance: InstanceId, seq: int, deps: FrozenSet[InstanceId]) -> None:
        self._deps[instance] = deps
        self._seq[instance] = seq
        self._committed.add(instance)

    def mark_executed(self, instance: InstanceId) -> None:
        self._executed.add(instance)

    def is_committed(self, instance: InstanceId) -> bool:
        return instance in self._committed

    def is_executed(self, instance: InstanceId) -> bool:
        return instance in self._executed

    @property
    def committed_count(self) -> int:
        return len(self._committed)

    @property
    def executed_count(self) -> int:
        return len(self._executed)

    # ---------------------------------------------------------- introspection
    def deps_of(self, instance: InstanceId) -> FrozenSet[InstanceId]:
        """The committed dependency set of ``instance`` (empty if unknown)."""
        return self._deps.get(instance, frozenset())

    @property
    def committed_deps(self) -> Mapping[InstanceId, FrozenSet[InstanceId]]:
        """Read-only live view: committed instance -> its dependency set.

        Its keys are exactly the committed instances.  The checkers walk it
        by subscript, which costs no call per vertex (``deps_of`` costs one).
        """
        return MappingProxyType(self._deps)

    def seq_of(self, instance: InstanceId) -> int:
        """The committed sequence number of ``instance`` (0 if unknown)."""
        return self._seq.get(instance, 0)

    # ------------------------------------------------------------------ planning
    def execution_order(self, root: InstanceId) -> Tuple[List[InstanceId], int]:
        """Plan an execution order for ``root``.

        Returns ``(order, visited)`` where ``order`` lists the instances to
        execute (dependencies first, ``root`` last, executed ones excluded)
        and ``visited`` counts graph vertices touched while planning (used
        for CPU accounting).  ``order`` is empty when some transitive
        dependency is not committed yet, in which case execution must be
        retried after more commits arrive.
        """
        if root in self._executed or root not in self._committed:
            return [], 0
        if self._deps[root] <= self._executed:
            # Nothing left to order: the walk below would visit root alone
            # and emit it as a one-member component.
            return [root], 1

        # Iterative Tarjan SCC restricted to the closure reachable from root.
        index_counter = 0
        indices: Dict[InstanceId, int] = {}
        lowlink: Dict[InstanceId, int] = {}
        on_stack: Set[InstanceId] = set()
        stack: List[InstanceId] = []
        sccs: List[List[InstanceId]] = []
        visited = 0

        # Explicit DFS stack of (node, iterator over remaining deps).
        work: List[Tuple[InstanceId, List[InstanceId], int]] = []

        def relevant_deps(node: InstanceId) -> Optional[List[InstanceId]]:
            """Dependencies that still matter (not yet executed)."""
            deps = []
            for dep in self._deps.get(node, frozenset()):
                if dep in self._executed:
                    continue
                if dep not in self._committed:
                    return None  # blocked on an uncommitted dependency
                deps.append(dep)
            return deps

        initial_deps = relevant_deps(root)
        if initial_deps is None:
            return [], 1

        indices[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        visited += 1
        work.append((root, initial_deps, 0))

        blocked = False
        while work:
            node, deps, next_index = work.pop()
            advanced = False
            while next_index < len(deps):
                dep = deps[next_index]
                next_index += 1
                if dep not in indices:
                    dep_deps = relevant_deps(dep)
                    if dep_deps is None:
                        blocked = True
                        break
                    indices[dep] = lowlink[dep] = index_counter
                    index_counter += 1
                    stack.append(dep)
                    on_stack.add(dep)
                    visited += 1
                    work.append((node, deps, next_index))
                    work.append((dep, dep_deps, 0))
                    advanced = True
                    break
                if dep in on_stack:
                    lowlink[node] = min(lowlink[node], indices[dep])
            if blocked:
                break
            if advanced:
                continue
            # node finished
            if lowlink[node] == indices[node]:
                component: List[InstanceId] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])

        if blocked:
            return [], visited

        order: List[InstanceId] = []
        for component in sccs:  # Tarjan emits components in reverse topological order
            component.sort(key=lambda inst: (self._seq.get(inst, 0), inst))
            order.extend(inst for inst in component if inst not in self._executed)
        return order, visited
