"""Exception hierarchy for the PigPaxos reproduction library.

All library-specific exceptions derive from :class:`ReproError` so callers can
catch everything raised by the library with a single ``except`` clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ConfigurationError(ReproError):
    """A cluster, protocol, or workload configuration is invalid."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class NetworkError(ReproError):
    """A simulated network operation could not be carried out."""


class QuorumError(ReproError):
    """A quorum system was configured or queried incorrectly."""


class StateMachineError(ReproError):
    """The replicated log or key-value store was driven incorrectly."""


class WorkloadError(ReproError):
    """A workload specification or client was configured incorrectly."""
