#!/usr/bin/env python3
"""Mahi-Mahi reproduction benchmark: one command, four workloads.

    python3 perfbench/run.py --workload sim-n50 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with nothing wrapped; ``--trace 1`` wraps the program's layer
boundaries from this process (see ``layers.py``) and reports per-layer
counts and self-time shares instead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Every run checks the program's outputs and reports ``correct: false``
(exit status 1) when a check fails.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sim-n50", "sim-n10-crash", "rt-n4-light", "rt-n4-heavy")

#: End-to-end metrics (untraced runs), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "commit_p50_ms": "ms",
    "commit_p99_ms": "ms",
    "throughput_tps": "tx/s",
    "cpu_us_per_tx": "us",
}

#: Reference passes in the calibration (3 x 10^6 loop iterations).
CALIB_PASSES = 150


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics (traced runs), name -> unit."""
    from layers import BOUNDARIES

    units = {}
    for name in BOUNDARIES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_share"] = "share"
    units.update({
        "core.commit_walk.productive_ratio": "ratio",
        "core.slot_classify.decided_ratio": "ratio",
        "runtime.messages.encodes_per_broadcast": "ratio",
        "sim.events.count": "count",
        "sim.events.per_s": "1/s",
        "runtime.generator_lag_ms.max": "ms",
        "runtime.generator_lag_ms.p99": "ms",
        "unattributed_share": "share",
        "trace_overhead_share": "share",
        "calib.ops_per_s": "1/s",
    })
    return units


def calibrate() -> float:
    """Machine speed right now, in loop iterations per second, from the
    reference passes of ``speed.py`` (recorded next to every run, never
    used to scale other metrics)."""
    meter = SpeedMeter()
    for _ in range(CALIB_PASSES):
        meter.sample()
    return meter.rate


def run_workload(name: str, seed: int, seconds: float, traced: bool, tiny: bool) -> dict:
    if name.startswith("sim-"):
        import sim_workloads

        if traced:
            return sim_workloads.run_traced(name, seed, tiny)
        return sim_workloads.run_untraced(name, seed, seconds, tiny)
    import rt_workloads

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        return rt_workloads.run(name, seed, seconds, traced, tiny, scratch)
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it


def measure(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.errors import SimulationError

    calib = calibrate()
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, args.trace == 1, args.tiny)
    except SimulationError as exc:  # Experiment.run's Theorem 1 check
        print(f"# CHECK FAILED: {exc}")
        return 1
    measured = dict(outcome["metrics"])
    if args.trace:
        units = per_layer_units()
        measured["calib.ops_per_s"] = (calib, "1/s")
        # Layers a workload never reaches (the runtime in a sim
        # workload, and the other way round) read zero.
        for name, unit in units.items():
            measured.setdefault(name, (0, unit))
    else:
        units = END_TO_END
        measured["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        )
    unexpected = set(measured) ^ set(units)
    if unexpected:
        raise RuntimeError(f"metric set mismatch: {sorted(unexpected)}")
    problems = list(outcome["problems"])
    if outcome["attempted"] < 1:
        problems.append("no transaction was judged")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"calib.ops_per_s={calib:.0f} info={json.dumps(outcome['info'])}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": measured[name][0], "unit": units[name]} for name in sorted(units)
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def self_test() -> int:
    """Tiny pass of every workload, traced and untraced, each in a fresh
    process: every declared metric must come out with its declared unit,
    and every correctness check must pass."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                ok = proc.returncode == 0 and result["correct"] and got == declared[trace]
            except (IndexError, ValueError, KeyError, TypeError):
                ok = False
            failures += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace}")
            if not ok:
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (seconds of work, not a measurement)")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at --tiny size and check the metric set")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
