"""Deterministic discrete-event simulation engine.

The simulator is the substrate that stands in for the paper's AWS/Paxi
testbed.  It provides a virtual clock, an event queue, named deterministic
random-number streams, cancellable timers (the scheduled :class:`Event`
itself) and a metrics registry.  Everything above it (network, nodes,
protocols, clients) is written against this engine, which makes every
experiment in ``benchmarks/`` fully reproducible from a seed.
"""

from repro.sim.events import Event, EventQueue
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "RandomStreams",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimeSeries",
]
