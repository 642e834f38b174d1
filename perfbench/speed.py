"""Machine speed, sampled next to the work it scales.

The host this benchmark was built on runs the same Python code up to
twice as slowly for stretches of seconds to minutes, because other
tenants share its cores.  So the benchmark times a fixed pure-Python
reference loop in short passes *between* stretches of the program's
work, and reports the program's CPU-bound times in *reference seconds*:
the time the work would take on a machine that runs the reference loop
at :data:`REF_RATE` iterations per second.  The program never runs the
loop and the loop touches no program state, so a change to the program
moves the program's time and not the scale.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of one reference pass (about 2-3 ms).
REF_OPS = 20_000
#: Reference speed: iterations per second of the reference machine.
REF_RATE = 1.0e7


def _reference_pass() -> None:
    acc = 0
    for i in range(REF_OPS):
        acc = (acc + i * i) % 1_000_003


class SpeedMeter:
    """Reference passes taken during one stretch of work (a rep, a trial,
    a group of set-ups)."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        #: Wall and CPU seconds spent in the passes themselves, to be
        #: taken out of the work's own times.
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def sample(self) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        _reference_pass()
        wall = time.perf_counter() - wall
        self.walls.append(wall)
        self.spent_wall += wall
        self.spent_cpu += time.process_time() - cpu

    @property
    def rate(self) -> float:
        """The machine's reference rate over the stretch: the median pass."""
        return REF_OPS / statistics.median(self.walls)

    def scale(self) -> float:
        """Reference seconds per measured second over the stretch."""
        return self.rate / REF_RATE
