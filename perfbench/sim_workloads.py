"""The deterministic-simulator workloads: ``sim-n50`` and ``sim-n10-crash``.

One *rep* builds an :class:`~repro.sim.Experiment` and runs it with the
Theorem 1 safety check on.  A run's reps cycle through
``max(1, reps // 2)`` experiment seeds derived from the run's seed, and
reps with one experiment seed must return equal results
(:class:`~repro.sim.ExperimentResult`).  The commit metrics are medians
over the experiment seeds, which steadies ``commit_p99_ms``: it moves
with the seed by up to a third on ``sim-n10-crash``.

A timed rep runs the event loop in fixed slices of virtual time and
takes a reference pass (``speed.py``) after each slice, so its wall and
CPU times can be given in reference seconds; the passes' own time is
taken out of the rep's.  Slicing only stops the loop at a boundary, so
the rep processes the same events in the same order.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator

from repro.sim import Experiment, ExperimentConfig

from layers import LayerTracer, install_program_layers, layer_metrics
from speed import SpeedMeter

#: Offered load of both simulator workloads, real transactions per second.
LOAD_TPS = 10_000.0


@dataclass(frozen=True)
class SimShape:
    """One simulator workload.  ``nominal_rep_s`` (the wall time of one
    rep on a 2-core box) sets how many reps fit in ``--seconds``, so
    every run of a workload does the same amount of work.  A timed rep
    samples the machine's speed every ``slice_s`` virtual seconds."""

    num_validators: int
    num_crashed: int
    duration: float
    warmup: float
    nominal_rep_s: float
    slice_s: float
    #: A transaction submitted this long before the end of the run must
    #: have committed; later ones are still in flight and not judged.
    grace_s: float = 2.5


SHAPES = {
    "sim-n50": SimShape(num_validators=50, num_crashed=0, duration=3.0, warmup=1.0,
                        nominal_rep_s=8.0, slice_s=0.05),
    "sim-n10-crash": SimShape(num_validators=10, num_crashed=3, duration=30.0, warmup=5.0,
                              nominal_rep_s=3.0, slice_s=0.5),
}

#: Self-test sizes: the same committees, barely long enough to judge
#: some transactions.
TINY = {
    "sim-n50": SimShape(num_validators=50, num_crashed=0, duration=2.0, warmup=0.5,
                        nominal_rep_s=5.0, slice_s=0.05, grace_s=1.5),
    "sim-n10-crash": SimShape(num_validators=10, num_crashed=3, duration=4.0, warmup=1.0,
                              nominal_rep_s=0.3, slice_s=0.5),
}

#: Extra Experiment constructions before every rep, for the set-up
#: median; spread over the run so the median is not one moment's.
SETUP_SAMPLES_PER_REP = 5


def experiment_seed(seed: int, index: int) -> int:
    """The ``index``-th experiment seed of a run with seed ``seed``."""
    return seed * 1009 + index


def make_config(shape: SimShape, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        protocol="mahi-mahi-5",
        num_validators=shape.num_validators,
        num_crashed=shape.num_crashed,
        load_tps=LOAD_TPS,
        duration=shape.duration,
        warmup=shape.warmup,
        seed=seed,
    )


@dataclass
class Rep:
    #: Measured seconds: building the Experiment, and its ``run()``.
    setup_s: float
    wall_s: float
    cpu_s: float
    #: Reference seconds per measured second over the rep (None when
    #: the rep was not metered), and the number of speed samples.
    scale: float | None
    samples: int
    result: object
    #: Real transactions submitted, those judged (submitted before the
    #: grace cut-off), and how many judged ones never committed.
    submitted: int
    attempted: int
    failed: int


@contextmanager
def _metered_loop(experiment: Experiment, slice_s: float, meter: SpeedMeter) -> Iterator[None]:
    """While active, make the experiment's event loop advance ``slice_s``
    virtual seconds at a time in ``run_until``, with a reference pass
    after each slice.  Stopping at a slice boundary only moves the
    loop's clock to it, so the run processes the same events in the
    same order.  ``EventLoop`` has slots, so the method is replaced on
    the class, for this loop only, and put back afterwards."""
    target = experiment._loop
    cls = type(target)
    run_until = cls.run_until

    def sliced(loop, deadline: float, **kwargs) -> None:
        if loop is not target:
            return run_until(loop, deadline, **kwargs)
        k = 0
        while True:
            k += 1
            stop = min(k * slice_s, deadline)
            run_until(loop, stop, **kwargs)
            meter.sample()
            if stop >= deadline:
                return

    cls.run_until = sliced
    try:
        yield
    finally:
        cls.run_until = run_until


def run_rep(config: ExperimentConfig, shape: SimShape, metered: bool = False) -> Rep:
    gc.collect()  # start every rep from the same heap
    start = time.perf_counter()
    experiment = Experiment(config)
    built = time.perf_counter()
    meter = SpeedMeter()
    with _metered_loop(experiment, shape.slice_s, meter) if metered else nullcontext():
        cpu = time.process_time()
        result = experiment.run(check_safety=True)  # raises on a Theorem 1 violation
        cpu = time.process_time() - cpu - meter.spent_cpu
        wall = time.perf_counter() - built - meter.spent_wall
    # Read back what the clients submitted and what never committed at
    # the observer (the experiment's own bookkeeping, read-only).
    weight = config.batch_weight
    submitted = sum(client.submitted for client in experiment._clients)
    pending = [t for t, _ in experiment._metrics._submissions.values()]
    cutoff = config.duration - shape.grace_s
    late = sum(1 for t in pending if t >= cutoff)
    failed = len(pending) - late
    duplicates = experiment._metrics.duplicate_commits
    return Rep(
        setup_s=built - start,
        wall_s=wall,
        cpu_s=cpu,
        scale=meter.scale() if metered else None,
        samples=len(meter.walls),
        result=result,
        submitted=round(submitted * weight),
        attempted=round((submitted - late) * weight),
        failed=round((failed + duplicates) * weight),
    )


def _setup_samples(config: ExperimentConfig) -> list[float]:
    """Extra Experiment constructions, each followed by a reference
    pass; in reference seconds."""
    meter, samples = SpeedMeter(), []
    for _ in range(SETUP_SAMPLES_PER_REP):
        start = time.perf_counter()
        Experiment(config)
        samples.append(time.perf_counter() - start)
        meter.sample()
    return [sample * meter.scale() for sample in samples]


def run_untraced(name: str, seed: int, seconds: float, tiny: bool) -> dict:
    shape = (TINY if tiny else SHAPES)[name]
    count = max(1, round(seconds / shape.nominal_rep_s))
    configs = [make_config(shape, experiment_seed(seed, i)) for i in range(max(1, count // 2))]
    setups, reps = [], []
    for index in range(count):
        config = configs[index % len(configs)]
        setups += _setup_samples(config)
        reps.append(run_rep(config, shape, metered=True))
    setups += [rep.setup_s * rep.scale for rep in reps]
    results = [rep.result for rep in reps[: len(configs)]]
    problems = []
    if any(rep.result != results[i % len(configs)] for i, rep in enumerate(reps)):
        problems.append("reps with one seed gave different results")
    if len({rep.samples for rep in reps}) != 1:
        problems.append("reps ran different numbers of slices")
    for rep in reps[: len(configs)]:
        if rep.failed:
            problems.append(f"{rep.failed} transactions did not commit")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(rep.wall_s * rep.scale for rep in reps), "s"),
        "commit_p50_ms": (statistics.median(r.latency.p50 for r in results) * 1000.0, "ms"),
        "commit_p99_ms": (statistics.median(r.latency.p99 for r in results) * 1000.0, "ms"),
        "throughput_tps": (statistics.median(r.throughput_tps for r in results), "tx/s"),
        # Per submitted transaction: the share that commits inside the
        # short sim-n50 window varies with the seed, the number
        # submitted much less.
        "cpu_us_per_tx": (
            statistics.median(rep.cpu_s * rep.scale / rep.submitted for rep in reps) * 1e6,
            "us",
        ),
    }
    info = {
        "reps": len(reps),
        "experiment_seeds": [config.seed for config in configs],
        "slices": reps[0].samples,
        "events": [r.events_processed for r in results],
        "measured_walls_s": [round(rep.wall_s, 4) for rep in reps],
        "scales": [round(rep.scale, 4) for rep in reps],
    }
    return {
        "problems": problems,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": metrics,
        "info": info,
    }


def run_traced(name: str, seed: int, tiny: bool) -> dict:
    """One untraced rep, metered as in a timed run, then two traced reps,
    the first metered and the second not.  All three results must be
    equal (neither tracing nor metering perturbs the program) and the
    two traced reps must make exactly the same calls (counts are
    citable).  Tracing overhead compares the two metered reps in
    reference seconds."""
    shape = (TINY if tiny else SHAPES)[name]
    config = make_config(shape, experiment_seed(seed, 0))
    plain = run_rep(config, shape, metered=True)
    tracer = LayerTracer()
    install_program_layers(tracer)
    try:
        traced, counts, layers = [], [], []
        for metered in (True, False):
            tracer.reset()
            traced.append(run_rep(config, shape, metered=metered))
            counts.append(dict(tracer.calls))
            layers.append(layer_metrics(tracer, traced[-1].wall_s))
    finally:
        tracer.uninstall()
    metrics = layers[0]
    problems = []
    if any(rep.result != plain.result for rep in traced):
        problems.append("traced ExperimentResult differs from the untraced, metered one")
    if counts[0] != counts[1]:
        problems.append("two traced runs made different call counts")
    for rep in (plain, *traced):
        if rep.failed:
            problems.append(f"{rep.failed} transactions did not commit")
    events = plain.result.events_processed
    metrics["sim.events.count"] = (events, "count")
    metrics["sim.events.per_s"] = (events / plain.wall_s, "1/s")
    overhead = (traced[0].wall_s * traced[0].scale) / (plain.wall_s * plain.scale) - 1.0
    metrics["trace_overhead_share"] = (overhead, "share")
    return {
        "problems": problems,
        "attempted": sum(rep.attempted for rep in (plain, *traced)),
        "failed": sum(rep.failed for rep in (plain, *traced)),
        "metrics": metrics,
        "info": {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced[0].wall_s},
    }
