"""Roll a ``cProfile`` run up into the repo's layers.

A layer is a package under ``src/repro/``; ``paxos`` also takes ``core/``
(the PigPaxos replica is Multi-Paxos plus a relay fan-out) and ``protocol``
takes ``quorum/``.  Self time and calls of a repo function go to its own
layer.  A builtin or stdlib function has no layer of its own, so it is
charged to whoever called it, through the profiler's caller table: exactly
for a direct call from repo code (``heapq.heappush`` lands in ``sim``,
``dict.get`` in its caller), and split by call counts when the caller is
itself stdlib code.  Weights come from call counts, never from measured
time, so every ``calls`` figure repeats exactly from run to run.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

LAYERS = (
    "sim",
    "net",
    "cluster",
    "overlay",
    "paxos",
    "epaxos",
    "protocol",
    "statemachine",
    "workload",
    "shard",
    "checkers",
    "scenarios",
)

_ROLLUP = {"core": "paxos", "quorum": "protocol"}

#: Bucket for self time with no repo caller: the benchmark's own frames
#: and repo files outside the packages above.
UNATTRIBUTED = "unattributed"

#: Passes of the weight propagation; stdlib call chains below repo code
#: are only a few frames deep, so this is far past convergence.
_PASSES = 8


def layer_of(code, package_root: str) -> Optional[str]:
    """The layer owning a profiler code entry, or None for builtin/stdlib code."""
    if isinstance(code, str) or not code.co_filename.startswith(package_root):
        return None
    package, _, rest = code.co_filename[len(package_root):].partition("/")
    if not rest:
        return UNATTRIBUTED
    package = _ROLLUP.get(package, package)
    return package if package in LAYERS else UNATTRIBUTED


def _label(code) -> str:
    if isinstance(code, str):
        return code
    return f"{code.co_filename}:{code.co_firstlineno}:{code.co_qualname}"


def roll_up(stats, package_root: str) -> Dict[str, object]:
    """Fold ``cProfile.Profile.getstats()`` into per-layer totals.

    Returns ``{"total_s", "total_calls", "layers": {layer: {"self_s",
    "calls"}}, "edges": {"caller>callee": {"calls", "self_s"}}}``; ``layers``
    includes the ``unattributed`` bucket, so its self times sum to ``total_s``.
    """
    entries = sorted(stats, key=lambda entry: _label(entry.code))
    owner = {entry.code: layer_of(entry.code, package_root) for entry in entries}

    # callers[X] = [(caller code, calls, self seconds of X under that caller)]
    callers: Dict[object, list] = {}
    for entry in entries:
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append((entry.code, sub.callcount, sub.inlinetime))

    # weight[X]: which layers the calls into layerless X come from.
    weight: Dict[object, Dict[str, float]] = {
        code: {layer: 1.0} for code, layer in owner.items() if layer is not None
    }
    layerless = [entry.code for entry in entries if owner[entry.code] is None]
    for _ in range(_PASSES):
        for code in layerless:
            shares: Dict[str, float] = {}
            calls_in = 0
            for caller, calls, _self in callers.get(code, ()):
                calls_in += calls
                for layer, share in weight.get(caller, {}).items():
                    shares[layer] = shares.get(layer, 0.0) + calls * share
            weight[code] = {layer: amount / calls_in for layer, amount in shares.items()}

    layers = {layer: {"self_s": 0.0, "calls": 0.0} for layer in (*LAYERS, UNATTRIBUTED)}
    edges: Dict[str, Dict[str, float]] = {}
    for entry in entries:
        layer = owner[entry.code]
        if layer is not None:
            layers[layer]["self_s"] += entry.inlinetime
            layers[layer]["calls"] += entry.callcount
            for caller, calls, self_s in callers.get(entry.code, ()):
                caller_layer = owner[caller]
                if caller_layer is not None:
                    edge = edges.setdefault(
                        f"{caller_layer}>{layer}", {"calls": 0, "self_s": 0.0}
                    )
                    edge["calls"] += calls
                    edge["self_s"] += self_s
            continue
        charged_s = charged_calls = 0.0
        for caller, calls, self_s in callers.get(entry.code, ()):
            for caller_layer, share in weight.get(caller, {}).items():
                layers[caller_layer]["self_s"] += self_s * share
                layers[caller_layer]["calls"] += calls * share
                charged_s += self_s * share
                charged_calls += calls * share
        layers[UNATTRIBUTED]["self_s"] += entry.inlinetime - charged_s
        layers[UNATTRIBUTED]["calls"] += entry.callcount - charged_calls

    return {
        "total_s": sum(entry.inlinetime for entry in entries),
        "total_calls": sum(entry.callcount for entry in entries),
        "layers": layers,
        "edges": dict(sorted(edges.items())),
    }


def top_functions(stats, package_root: str, limit: int = 25) -> Tuple[Dict[str, object], ...]:
    """The functions with the most self time, for the written trace file."""
    ranked = sorted(stats, key=lambda entry: (-entry.inlinetime, _label(entry.code)))[:limit]
    return tuple(
        {
            "function": _label(entry.code).replace(package_root, "repro/"),
            "layer": layer_of(entry.code, package_root),
            "calls": entry.callcount,
            "self_s": entry.inlinetime,
        }
        for entry in ranked
    )
