"""Outside-in per-layer timing.

The benchmark never edits the program: it replaces public functions at
their lookup sites (class attributes, module globals) with wrappers
that count calls and time each call, then puts the originals back.
A wrapper's *self* time is its span minus the spans of wrapped calls
made inside it, so nested layers are not counted twice.

Every boundary wrapped here is synchronous, so in the asyncio runtime a
span never straddles an ``await`` and one stack per process suffices.
Coroutine functions (``Transport.broadcast``) are only counted.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable


class LayerTracer:
    """Call counts, self time and outcome counts per wrapped key."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: Calls whose result satisfied the key's outcome predicate.
        self.hits: Counter[str] = Counter()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def time_method(
        self, owner: type, attr: str, key: str, outcome: Callable[[object], bool] | None = None
    ) -> None:
        """Wrap ``owner.attr`` (a plain function defined on ``owner``)."""
        self._patch(owner, attr, self._timed(owner.__dict__[attr], key, outcome))

    def time_function(self, module: str, attr: str, key: str) -> None:
        """Wrap a module-level function everywhere it was imported by name
        into a loaded ``repro`` module."""
        original = getattr(sys.modules[module], attr)
        wrapper = self._timed(original, key, None)
        for name, loaded in list(sys.modules.items()):
            if name.startswith("repro") and getattr(loaded, attr, None) is original:
                self._patch(loaded, attr, wrapper)

    def count_method(self, owner: type, attr: str, key: str) -> None:
        """Count calls of ``owner.attr`` without timing them (coroutine
        functions: the call only creates the coroutine)."""
        original = owner.__dict__[attr]
        calls = self.calls

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, original: Callable, key: str, outcome: Callable[[object], bool] | None):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        hits = self.hits

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[key] += 1
            if outcome is not None and outcome(result):
                hits[key] += 1
            return result

        return timed

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.hits.clear()


def install_program_layers(tracer: LayerTracer) -> None:
    """Wrap every boundary the benchmark reports, in both fabrics.

    Must run before the experiment or cluster is built: the simulator
    registers bound methods (``SimValidator.on_batch``,
    ``SimValidator.submit``) as callbacks at construction time.
    """
    from repro.core.committer import Committer
    from repro.core.decider import Decider, LeaderElector
    from repro.core.protocol import MahiMahiCore
    from repro.crypto.coin import FastCoin, ThresholdCoin
    from repro.crypto.schnorr import SchnorrSignatureScheme
    from repro.crypto.signing import NullSignatureScheme
    from repro.dag.store import DagStore
    from repro.dag.traversal import DagTraversal
    from repro.dag.validation import BlockVerifier
    from repro.obs.metrics import Counter as MetricCounter
    from repro.obs.metrics import Gauge
    from repro.runtime.node import ValidatorNode
    from repro.runtime.transport import Transport
    from repro.runtime.wal import WriteAheadLog
    from repro.sim.network import SimNetwork
    from repro.sim.node import SimValidator

    decided = lambda status: status.is_decided  # noqa: E731
    t = tracer
    t.time_method(Committer, "extend_commit_sequence", "core.commit_walk", bool)
    t.time_method(Decider, "try_direct_decide", "core.slot_classify.direct", decided)
    t.time_method(Decider, "try_indirect_decide", "core.slot_classify.indirect", decided)
    t.time_method(LeaderElector, "coin_value", "core.coin_value")
    t.time_method(MahiMahiCore, "add_block", "core.add_block")
    t.time_method(MahiMahiCore, "maybe_propose", "core.propose")
    # DagTraversal.is_vote is deliberately left alone: millions of calls
    # per sim-n50 run, and its wrapper would dominate tracing overhead.
    t.time_method(DagTraversal, "is_cert", "dag.is_cert")
    t.time_method(DagTraversal, "linearize", "dag.linearize")
    t.time_method(DagStore, "add", "dag.store_add")
    t.time_method(BlockVerifier, "verify", "dag.verify")
    t.time_method(SimNetwork, "send", "sim.network.send")
    t.time_method(SimNetwork, "broadcast", "sim.network.broadcast")
    t.time_method(SimValidator, "submit", "sim.node.submit")
    t.time_method(SimValidator, "on_batch", "sim.node.on_batch")
    t.time_function("repro.runtime.messages", "encode_message", "runtime.messages.encode")
    t.time_function("repro.runtime.messages", "decode_message", "runtime.messages.decode")
    t.count_method(Transport, "broadcast", "runtime.transport.broadcast")
    t.time_method(ValidatorNode, "submit_transaction", "runtime.node.submit")
    t.time_method(WriteAheadLog, "append", "runtime.wal.append")
    for scheme in (NullSignatureScheme, SchnorrSignatureScheme):
        t.time_method(scheme, "sign", "crypto.sign")
        t.time_method(scheme, "verify", "crypto.verify")
    for coin in (FastCoin, ThresholdCoin):
        t.time_method(coin, "reconstruct", "crypto.coin_reconstruct")
    t.time_method(MetricCounter, "inc", "obs.metric_updates")
    t.time_method(Gauge, "set", "obs.metric_updates")


#: Reported boundaries: name -> wrapped keys whose counts and self time
#: it sums.
BOUNDARIES = {
    "core.commit_walk": ("core.commit_walk",),
    "core.slot_classify": ("core.slot_classify.direct", "core.slot_classify.indirect"),
    "core.coin_value": ("core.coin_value",),
    "dag.is_cert": ("dag.is_cert",),
    "dag.linearize": ("dag.linearize",),
    "core.add_block": ("core.add_block",),
    "dag.store_add": ("dag.store_add",),
    "core.propose": ("core.propose",),
    "sim.network": ("sim.network.send", "sim.network.broadcast"),
    "sim.node.submit": ("sim.node.submit",),
    "sim.node.on_batch": ("sim.node.on_batch",),
    "runtime.messages.encode": ("runtime.messages.encode",),
    "runtime.messages.decode": ("runtime.messages.decode",),
    "runtime.node.submit": ("runtime.node.submit",),
    "runtime.wal.append": ("runtime.wal.append",),
    "dag.verify": ("dag.verify",),
    "crypto.sign": ("crypto.sign",),
    "crypto.verify": ("crypto.verify",),
    "crypto.coin_reconstruct": ("crypto.coin_reconstruct",),
    "obs.metric_updates": ("obs.metric_updates",),
}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: LayerTracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-boundary ``.calls`` / ``.self_share`` plus the named ratios."""
    out: dict[str, tuple[float, str]] = {}
    for name, keys in BOUNDARIES.items():
        out[f"{name}.calls"] = (sum(tracer.calls[k] for k in keys), "count")
        out[f"{name}.self_share"] = (
            ratio(sum(tracer.self_s[k] for k in keys), wall_s),
            "share",
        )
    calls, hits = tracer.calls, tracer.hits
    out["core.commit_walk.productive_ratio"] = (
        ratio(hits["core.commit_walk"], calls["core.commit_walk"]),
        "ratio",
    )
    # The indirect rule only runs on slots the direct rule left
    # undecided, so direct calls are the number of classifications.
    out["core.slot_classify.decided_ratio"] = (
        ratio(
            hits["core.slot_classify.direct"] + hits["core.slot_classify.indirect"],
            calls["core.slot_classify.direct"],
        ),
        "ratio",
    )
    out["runtime.messages.encodes_per_broadcast"] = (
        ratio(calls["runtime.messages.encode"], calls["runtime.transport.broadcast"]),
        "ratio",
    )
    out["unattributed_share"] = (1.0 - ratio(sum(tracer.self_s.values()), wall_s), "share")
    return out
