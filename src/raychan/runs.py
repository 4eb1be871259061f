"""Run-level plumbing shared by all prediction modes.

A run is a sequence of snapshots over a uniform time grid, together with the
set of grid times at which a full ray-tracing pass (rather than a prediction)
produced the snapshot, stage timing, and bookkeeping counters.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .rt import Snapshot, trace_snapshot
from .scene import Scene


class StageTimer:
    """Wall-clock accumulator for the geometry and field stages of a run,
    with event counters that the run reports (see RunResult.counters)."""

    def __init__(self):
        self.geometry_s = 0.0
        self.field_s = 0.0
        self.total_s = 0.0
        self.counters: dict[str, int] = {}

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    @contextmanager
    def geometry(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.geometry_s += time.perf_counter() - t0

    @contextmanager
    def field(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.field_s += time.perf_counter() - t0

    @contextmanager
    def total(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.total_s += time.perf_counter() - t0

    def as_dict(self) -> dict:
        return {"geometry_s": self.geometry_s, "field_s": self.field_s,
                "total_s": self.total_s}


def time_grid(duration: float, step: float) -> list[float]:
    n = round(duration / step)
    if abs(n * step - duration) > 1e-9:
        raise ValueError(f"duration {duration} is not a multiple of step {step}")
    return [i * step for i in range(n + 1)]


def time_key(t: float) -> int:
    """Grid-safe dictionary key for a snapshot time (microsecond resolution)."""
    return round(t * 1e6)


@dataclass
class RunResult:
    mode: str
    snapshots: list[Snapshot]
    rt_times: list[float]
    timing: StageTimer
    t_c: float | None = None
    dt: float | None = None
    duration: float | None = None
    counters: dict = field(default_factory=dict)
    lifetimes: list = field(default_factory=list)  # LifetimeRecord, e-drt only

    @property
    def times(self) -> list[float]:
        return [s.time for s in self.snapshots]

    def snapshot_at(self, t: float) -> Snapshot:
        key = time_key(t)
        for s in self.snapshots:
            if time_key(s.time) == key:
                return s
        raise KeyError(f"no snapshot at t={t}")

    def predicted_times(self) -> list[float]:
        rt_keys = {time_key(t) for t in self.rt_times}
        return [s.time for s in self.snapshots if time_key(s.time) not in rt_keys]


def rt_run(scene: Scene, dt: float, duration: float, mode: str = "rt") -> RunResult:
    """Full ray tracing at every grid position (the per-position baseline)."""
    timer = StageTimer()
    times = time_grid(duration, dt)
    with timer.total():
        snapshots = [trace_snapshot(scene, t, timer) for t in times]
    return RunResult(mode=mode, snapshots=snapshots, rt_times=list(times),
                     timing=timer, dt=dt, duration=duration,
                     counters=dict(timer.counters))


def oracle_run(scene: Scene, dt: float, duration: float) -> RunResult:
    """Brute-force reference: full ray tracing at dt/10 spacing."""
    run = rt_run(scene, dt / 10.0, duration, mode="oracle")
    run.dt = dt / 10.0
    return run
