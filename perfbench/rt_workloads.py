"""The asyncio-runtime workloads: ``rt-n4-light`` and ``rt-n4-heavy``.

One *trial* builds a fresh in-process :class:`~repro.runtime.LocalCluster`
(n=4, memory transport so every message still passes through the wire
codec, ``NullSignatureScheme``, ``FastCoin``, a write-ahead log per
validator) and drives it with an open-loop generator on one event loop.

The generator's schedule comes from the seed: Poisson arrivals at the
workload's offered rate, submitted round-robin to the validators.  It
wakes every :data:`TICK_S` and submits every transaction that is due,
so a stalled event loop delays submissions instead of thinning them.
A transaction's latency runs from its *due* time to its commit at
validator 0, read off ``node.commits``; how late the generator ran is
reported as its lag.

A task on the same loop takes a reference pass (``speed.py``) every
:data:`METER_PERIOD_S`, so CPU and set-up times can be given in
reference seconds; the passes' own CPU time is taken out of the
trial's.  Latencies and trial wall times stay in measured seconds: the
generator's schedule paces them.
"""

from __future__ import annotations

import asyncio
import gc
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import ProtocolConfig
from repro.runtime import LocalCluster
from repro.transaction import Transaction

from layers import LayerTracer, install_program_layers, layer_metrics
from speed import SpeedMeter

#: Generator wake-up period.
TICK_S = 0.002
#: Period of the reference passes during a trial.
METER_PERIOD_S = 0.25
#: Proposal pacing of every validator (the runtime examples' value).
MIN_BLOCK_INTERVAL_S = 0.02
#: Real payload bytes per transaction (the wire header adds 20).
PAYLOAD = b"\x00" * 44
#: Transactions due in the first part of the load phase still have to
#: commit but stay out of the latency percentiles (cluster warm-up).
WARMUP_S = 0.5
#: Longest wait for the last transaction to commit after the load phase.
DRAIN_TIMEOUT_S = 15.0
#: Extra build-start-stop cycles before every trial, for the set-up
#: median; spread over the run so the median is not one moment's.
SETUP_SAMPLES_PER_TRIAL = 4
#: Wall time of one trial beyond its load phase (set-up, drain, stop),
#: used with ``load_s`` to fit trials into ``--seconds``.
TRIAL_SLACK_S = 0.6


@dataclass(frozen=True)
class RtShape:
    rate_tps: float
    load_s: float


SHAPES = {
    "rt-n4-light": RtShape(rate_tps=4_000.0, load_s=5.0),
    "rt-n4-heavy": RtShape(rate_tps=10_000.0, load_s=5.0),
}
TINY = {
    "rt-n4-light": RtShape(rate_tps=4_000.0, load_s=1.0),
    "rt-n4-heavy": RtShape(rate_tps=10_000.0, load_s=1.0),
}


@dataclass
class Trial:
    #: Measured seconds.
    setup_s: float
    wall_s: float
    cpu_s: float
    #: Reference seconds per measured second over the trial.
    scale: float
    attempted: int
    committed: int
    latencies_ms: list[float]
    lags_ms: list[float]
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - self.committed


def schedule(rate: float, load_s: float, seed: int) -> list[float]:
    """Poisson due times (seconds from the load start) for one trial."""
    rng = random.Random(repr(("rt-generator", seed)))
    due, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= load_s:
            return due
        due.append(t)


def _make_cluster(workdir: Path, seed: int) -> LocalCluster:
    return LocalCluster(
        n=4,
        config=ProtocolConfig(wave_length=5, leaders_per_round=2),
        transport="memory",
        wal_dir=tempfile.mkdtemp(prefix="wal-", dir=workdir),
        min_block_interval=MIN_BLOCK_INTERVAL_S,
        seed=seed,
    )


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


async def _trial(
    shape: RtShape, seed: int, workdir: Path, tracer: LayerTracer | None
) -> tuple[Trial, dict]:
    due = schedule(shape.rate_tps, shape.load_s, seed)
    loop = asyncio.get_running_loop()
    # A fresh cluster also means a clean heap: the previous trial's
    # cyclic garbage would otherwise lengthen this trial's full
    # collections and inflate its latency tail.
    gc.collect()
    start_setup = time.perf_counter()
    cluster = _make_cluster(workdir, seed)
    await cluster.start()
    setup_s = time.perf_counter() - start_setup
    observer = cluster.nodes[0]
    commit_at: dict[int, float] = {}
    duplicates = 0

    async def consume() -> None:
        nonlocal duplicates
        while True:
            observation = await observer.commits.get()
            now = loop.time()
            for block in observation.linearized:
                for tx in block.transactions:
                    if tx.tx_id in commit_at:
                        duplicates += 1
                    commit_at[tx.tx_id] = now

    async def meter_speed() -> None:
        while True:
            await asyncio.sleep(METER_PERIOD_S)
            meter.sample()

    meter = SpeedMeter()
    consumer = asyncio.create_task(consume())
    metering = asyncio.create_task(meter_speed())
    layers: dict = {}
    try:
        if tracer is not None:
            tracer.reset()
        base = loop.time() + TICK_S
        cpu = time.process_time()
        lags: list[float] = []
        i = 0
        while i < len(due):
            now = loop.time()
            while i < len(due) and base + due[i] <= now:
                lags.append((now - base - due[i]) * 1000.0)
                tx = Transaction(tx_id=i + 1, submitted_at=base + due[i], payload=PAYLOAD)
                cluster.submit(tx, validator=i % cluster.n)
                i += 1
            await asyncio.sleep(TICK_S)
        deadline = loop.time() + DRAIN_TIMEOUT_S
        while len(commit_at) < len(due) and loop.time() < deadline:
            await asyncio.sleep(0.005)
        wall = loop.time() - base
        cpu = time.process_time() - cpu - meter.spent_cpu
        if tracer is not None:
            layers = layer_metrics(tracer, wall)
    finally:
        consumer.cancel()
        metering.cancel()
        await asyncio.gather(consumer, metering, return_exceptions=True)
        await cluster.stop()
    problems = _check(cluster, due, commit_at, duplicates)
    latencies = [
        (commit_at[k + 1] - base - due[k]) * 1000.0
        for k in range(len(due))
        if due[k] >= WARMUP_S and k + 1 in commit_at
    ]
    committed = sum(1 for k in range(len(due)) if k + 1 in commit_at)
    trial = Trial(
        setup_s=setup_s,
        wall_s=wall,
        cpu_s=cpu,
        scale=meter.scale(),
        attempted=len(due),
        committed=committed,
        latencies_ms=latencies,
        lags_ms=lags,
        problems=problems,
    )
    return trial, layers


def _check(cluster: LocalCluster, due: list[float], commit_at: dict, duplicates: int) -> list[str]:
    """Theorem 1 across the four validators, and exactly-once commit of
    every submitted transaction at validator 0."""
    problems = []
    sequences = [[block.digest for block in node.committed_blocks] for node in cluster.nodes]
    common = min(len(s) for s in sequences)
    if any(s[:common] != sequences[0][:common] for s in sequences):
        problems.append("validators' committed sequences diverge")
    if common == 0:
        problems.append("a validator committed nothing")
    if duplicates:
        problems.append(f"{duplicates} transactions committed twice at validator 0")
    expected = set(range(1, len(due) + 1))
    if set(commit_at) - expected:
        problems.append("validator 0 committed transactions nobody submitted")
    missing = len(expected - set(commit_at))
    if missing:
        problems.append(f"{missing} transactions did not commit by the end of the drain")
    return problems


async def _setup_samples(workdir: Path, seed: int) -> list[float]:
    """Build-start-stop cycles, each followed by a reference pass; the
    build-and-start times in reference seconds."""
    meter, samples = SpeedMeter(), []
    for _ in range(SETUP_SAMPLES_PER_TRIAL):
        start = time.perf_counter()
        cluster = _make_cluster(workdir, seed)
        await cluster.start()
        samples.append(time.perf_counter() - start)
        await cluster.stop()
        meter.sample()
    return [sample * meter.scale() for sample in samples]


def _trial_seed(seed: int, index: int) -> int:
    """Distinct generator schedules for the trials of one run."""
    return seed * 1009 + index


async def _untraced(shape: RtShape, seed: int, seconds: float, workdir: Path) -> dict:
    count = max(1, round(seconds / (shape.load_s + TRIAL_SLACK_S)))
    setups, trials = [], []
    for index in range(count):
        setups += await _setup_samples(workdir, seed)
        trial, _ = await _trial(shape, _trial_seed(seed, index), workdir, None)
        trials.append(trial)
    setups += [trial.setup_s * trial.scale for trial in trials]
    committed = sum(t.committed for t in trials)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(t.wall_s for t in trials), "s"),
        "commit_p50_ms": (statistics.median(percentile(t.latencies_ms, 50) for t in trials), "ms"),
        "commit_p99_ms": (statistics.median(percentile(t.latencies_ms, 99) for t in trials), "ms"),
        "throughput_tps": (
            statistics.median(t.committed / t.wall_s for t in trials),
            "tx/s",
        ),
        "cpu_us_per_tx": (
            sum(t.cpu_s * t.scale for t in trials) / max(1, committed) * 1e6,
            "us",
        ),
    }
    info = {
        "trials": count,
        "measured_cpu_us_per_tx": round(sum(t.cpu_s for t in trials) / max(1, committed) * 1e6, 2),
        "scales": [round(t.scale, 4) for t in trials],
        "p99_ms": [round(percentile(t.latencies_ms, 99), 1) for t in trials],
        "generator_lag_max_ms": round(max(max(t.lags_ms) for t in trials), 2),
    }
    return _summary(trials, metrics, info)


async def _traced(shape: RtShape, seed: int, workdir: Path) -> dict:
    plain, _ = await _trial(shape, _trial_seed(seed, 0), workdir, None)
    tracer = LayerTracer()
    install_program_layers(tracer)
    try:
        traced, metrics = await _trial(shape, _trial_seed(seed, 0), workdir, tracer)
    finally:
        tracer.uninstall()
    plain_cpu = plain.cpu_s * plain.scale / max(1, plain.committed)
    traced_cpu = traced.cpu_s * traced.scale / max(1, traced.committed)
    metrics["trace_overhead_share"] = (traced_cpu / plain_cpu - 1.0, "share")
    # Generator lag explains the untraced latency tail, so it is read
    # from the untraced trial.
    metrics["runtime.generator_lag_ms.max"] = (max(plain.lags_ms), "ms")
    metrics["runtime.generator_lag_ms.p99"] = (percentile(plain.lags_ms, 99), "ms")
    info = {"untraced_cpu_us_per_tx": plain_cpu * 1e6, "traced_cpu_us_per_tx": traced_cpu * 1e6}
    return _summary([plain, traced], metrics, info)


def _summary(trials: list[Trial], metrics: dict, info: dict) -> dict:
    return {
        "problems": [p for t in trials for p in t.problems],
        "attempted": sum(t.attempted for t in trials),
        "failed": sum(t.failed for t in trials),
        "metrics": metrics,
        "info": info,
    }


def run(name: str, seed: int, seconds: float, traced: bool, tiny: bool, scratch: Path) -> dict:
    shape = (TINY if tiny else SHAPES)[name]
    workdir = Path(tempfile.mkdtemp(prefix="rt-", dir=scratch))
    try:
        if traced:
            return asyncio.run(_traced(shape, seed, workdir))
        return asyncio.run(_untraced(shape, seed, seconds, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
