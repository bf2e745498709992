"""Deterministic discrete-event simulation engine.

The simulator is the substrate that stands in for the paper's AWS/Paxi
testbed.  It provides a virtual clock, an event heap, named deterministic
random-number streams, cancellable timers (the scheduled :class:`Event`
itself) and a metrics registry.  Everything above it (network, nodes,
protocols, clients) is written against this engine, which makes every
experiment in ``benchmarks/`` fully reproducible from a seed.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.rng import RandomStreams
from repro.sim.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)

__all__ = [
    "Event",
    "Simulator",
    "RandomStreams",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
]
