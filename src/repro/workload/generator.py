"""Command generation from a workload specification."""

from __future__ import annotations

import random

from repro.statemachine.command import Command, OpType
from repro.workload.distributions import KeyDistribution, make_distribution
from repro.workload.spec import WorkloadSpec


class CommandGenerator:
    """Turns a :class:`WorkloadSpec` into a stream of commands for one client."""

    def __init__(self, spec: WorkloadSpec, client_id: int, rng: random.Random) -> None:
        self.spec = spec
        self.client_id = client_id
        self._rng = rng
        self._distribution: KeyDistribution = make_distribution(
            spec.distribution, spec.num_keys, spec.zipf_theta
        )
        self._key = spec.key
        self._request_id = 0

    def next_command(self) -> Command:
        self._request_id += 1
        index = self._distribution.next_index(self._rng)
        key = self._key(index)
        is_read = self._rng.random() < self.spec.read_ratio
        if is_read:
            return Command(
                op=OpType.GET,
                key=key,
                payload_size=0,
                client_id=self.client_id,
                request_id=self._request_id,
            )
        value = None
        if self.spec.unique_values:
            # Identifiable writes for the linearizability checker: the value
            # names the (client, request) pair that wrote it.
            value = f"c{self.client_id}.r{self._request_id}"
        return Command(
            op=OpType.PUT,
            key=key,
            value=value,
            payload_size=self.spec.value_size,
            client_id=self.client_id,
            request_id=self._request_id,
        )
