"""Workload specification.

``WorkloadSpec`` captures everything the paper's benchmark section fixes:
key-space size, key/value sizes, read ratio and the key-selection
distribution.  ``WorkloadSpec.paper_default()`` reproduces the default
configuration used by most figures; ``payload(size)`` reproduces the
write-only payload sweep of Figure 12.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete description of the client workload.

    Attributes:
        num_keys: Number of distinct keys (the paper uses 1000).
        key_size: Encoded key size in bytes (8 in the paper).
        value_size: Value payload in bytes written by PUTs (8 by default,
            swept 8..1280 in Figure 12).
        read_ratio: Fraction of operations that are reads (0.5 in most
            experiments; 0.0 for the payload experiment).
        distribution: "uniform" or "zipfian" key selection.
        zipf_theta: Skew parameter when distribution == "zipfian".
        unique_values: When True, every PUT carries a value string unique to
            its (client, request) pair instead of a size-only placeholder.
            Reads then identify the write they observed, which is what the
            linearizability checker needs (:mod:`repro.checkers`).
    """

    num_keys: int = 1000
    key_size: int = 8
    value_size: int = 8
    read_ratio: float = 0.5
    distribution: str = "uniform"
    zipf_theta: float = 0.99
    unique_values: bool = False

    def __post_init__(self) -> None:
        if self.num_keys < 1:
            raise WorkloadError("num_keys must be >= 1")
        if self.key_size < 1:
            raise WorkloadError("key_size must be >= 1")
        if self.value_size < 0:
            raise WorkloadError("value_size must be >= 0")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise WorkloadError("read_ratio must be in [0, 1]")
        if self.distribution not in ("uniform", "zipfian"):
            raise WorkloadError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "zipfian" and not self.zipf_theta > 0:
            raise WorkloadError("zipf_theta must be positive")

    def key(self, index: int) -> str:
        """Key ``index`` padded to ``key_size`` (Paxi uses fixed-width keys).

        The one key format: the generator draws ``key(i)`` for ``i`` in
        ``[0, num_keys)`` and the cluster's shard router is built over
        exactly those keys.
        """
        return f"k{index:0{max(1, self.key_size - 1)}d}"

    # ------------------------------------------------------------------ presets
    @classmethod
    def paper_default(cls) -> "WorkloadSpec":
        """1000 uniform 8-byte keys, 8-byte values, 50/50 reads and writes."""
        return cls()

    @classmethod
    def payload(cls, value_size: int) -> "WorkloadSpec":
        """The write-only payload-size workload of Figure 12."""
        return cls(read_ratio=0.0, value_size=value_size)

    @classmethod
    def checking_default(cls, num_keys: int = 25) -> "WorkloadSpec":
        """A small, contended workload with identifiable writes.

        Used by the scenario engine: few keys (more per-key contention for
        the linearizability search to bite on) and unique values so a read's
        output names the write it observed.
        """
        return cls(num_keys=num_keys, read_ratio=0.5, unique_values=True)
