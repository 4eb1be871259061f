"""Run-level plumbing shared by all modes, and the one prediction schedule.

A run is a sequence of snapshots over a uniform time grid, together with the
set of grid times at which a full ray-tracing pass (rather than a prediction)
produced the snapshot, stage timing, and bookkeeping counters.

DRT and E-DRT share one schedule of reference passes and predicted instants
(prediction_run).
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
    def _accumulate(self, attr: str):
        """Add the wall time of the block to the attribute attr."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            setattr(self, attr, getattr(self, attr) + time.perf_counter() - t0)

    def geometry(self):
        return self._accumulate("geometry_s")

    def field(self):
        return self._accumulate("field_s")

    def total(self):
        return self._accumulate("total_s")

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


@dataclass(frozen=True)
class PredictionConfig:
    t_c: float      # extrapolation window between full RT passes, s
    dt: float       # prediction step, s
    rounds: int

    def __post_init__(self):
        if not 0.0 < self.dt < self.t_c:
            raise ValueError("need 0 < dt < t_c")
        steps = self.t_c / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("t_c must be an integer multiple of dt")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")

    @property
    def steps_per_round(self) -> int:
        return round(self.t_c / self.dt)


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


def prediction_run(mode: str, scene: Scene, config: PredictionConfig, predict,
                   timer: StageTimer | None = None) -> RunResult:
    """The schedule of drt_run and edrt_run.

    Traces the N + 1 reference passes at n*t_c first.  Then
    predict(references, times, timer) gets them with the (W, T) grid of
    predicted instants, times[w][j] = w*t_c + (j + 1)*dt, and returns the
    snapshots at those instants, window by window, and the run's lifetime
    records; it counts its own events in timer.  The snapshots interleave
    with the passes into the closed grid [0, N*t_c].
    """
    timer = timer or StageTimer()
    steps = config.steps_per_round - 1
    with timer.total():
        references = [trace_snapshot(scene, n * config.t_c, timer)
                      for n in range(config.rounds + 1)]
        times = [[ref.time + j * config.dt for j in range(1, steps + 1)]
                 for ref in references[:-1]]
        predicted, lifetimes = predict(references, times, timer)
        snapshots: list[Snapshot] = []
        for n, ref in enumerate(references[:-1]):
            snapshots.append(ref)
            snapshots.extend(predicted[n * steps:(n + 1) * steps])
        snapshots.append(references[-1])
    return RunResult(mode=mode, snapshots=snapshots, rt_times=[ref.time for ref in references],
                     timing=timer, t_c=config.t_c, dt=config.dt,
                     duration=config.rounds * config.t_c, counters=dict(timer.counters),
                     lifetimes=lifetimes)
