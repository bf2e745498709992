"""Named deterministic random-number streams.

Different parts of a simulation (network latency jitter, relay selection,
workload key choice, fault injection) each get their own ``random.Random``
stream derived from the master seed.  Keeping the streams separate means that
changing how many random draws one component makes does not perturb the
others, which keeps experiments comparable across configurations.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """A factory of named, independently seeded ``random.Random`` instances."""

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self._master_seed}:{name}".encode("utf-8")).digest()
        seed = int.from_bytes(digest[:8], "big")
        stream = random.Random(seed)
        self._streams[name] = stream
        return stream
