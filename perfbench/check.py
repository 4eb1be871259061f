"""Output check and accuracy figures against a stored RT reference.

The reference holds, per instant, every path's signature, delay, power and
field magnitude from a full RT pass.  It is written by `make_reference.py`
from `rt` mode and stored beside this file, so the code under test never
grades itself.  The accuracy figures are computed here, not with
`raychan.metrics`, for the same reason.

A rigid translation of the whole scene leaves every path's delay, power and
magnitude unchanged, so one reference serves every seed of a workload.
"""

from __future__ import annotations

import json
import math
from pathlib import Path as FilePath

import numpy as np

REL_TOL = 1e-9          # relative bound on delay, power and magnitude
ACCURACY_STEP = 0.1     # accuracy is evaluated on this grid, s
DELAY_BIN_S = 1e-9      # similarity index delay bins


def time_key(t: float) -> int:
    return round(t * 1e6)


def grid(dt: float, duration: float) -> list[float]:
    return [i * dt for i in range(round(duration / dt) + 1)]


def sig_key(signature) -> str:
    return "|".join(f"{m.value}:{gid}" for m, gid in signature) or "LOS"


def watts(power_dbm: float) -> float:
    return 10.0 ** ((power_dbm - 30.0) / 10.0)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b)


class Reference:
    """Per-instant reference paths: key -> {signature: (delay_s, power_dbm, |E|)}."""

    def __init__(self, scene: str, generator: dict, snapshots: dict):
        self.scene = scene
        self.generator = generator
        self.snapshots = snapshots

    @classmethod
    def from_runs(cls, scene: str, generator: dict, runs) -> "Reference":
        snapshots = {}
        for run in runs:
            for snap in run.snapshots:
                snapshots[time_key(snap.time)] = {
                    sig_key(p.signature): (p.delay, p.power_dbm,
                                           float(np.linalg.norm(p.field)))
                    for p in snap.paths}
        return cls(scene, generator, snapshots)

    @classmethod
    def load(cls, path) -> "Reference":
        doc = json.loads(FilePath(path).read_text())
        snapshots = {int(k): {sig: tuple(v) for sig, v in paths.items()}
                     for k, paths in doc["snapshots"].items()}
        return cls(doc["scene"], doc["generator"], snapshots)

    def save(self, path) -> None:
        doc = {"scene": self.scene, "generator": self.generator,
               "built_with": "raychan rt mode",
               "fields": ["delay_s", "power_dbm", "magnitude_v_per_m"],
               "snapshots": {str(k): self.snapshots[k]
                             for k in sorted(self.snapshots)}}
        FilePath(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def _snapshot_faults(snap, ref_paths, is_rt: bool, edrt_direct) -> list[str]:
    """Reasons one snapshot fails; empty when it passes."""
    faults = []
    for p in snap.paths:
        if not (math.isfinite(p.delay) and math.isfinite(p.power_dbm)):
            faults.append(f"non-finite delay or power on {sig_key(p.signature)}")
    if faults:
        return faults
    by_sig = {sig_key(p.signature): p for p in snap.paths}
    if is_rt:
        if set(by_sig) != set(ref_paths):
            faults.append("signature set differs from the reference: "
                          f"extra {sorted(set(by_sig) - set(ref_paths))}, "
                          f"missing {sorted(set(ref_paths) - set(by_sig))}")
            return faults
        for sig, p in by_sig.items():
            delay, power_dbm, _mag = ref_paths[sig]
            if not (_close(p.delay, delay)
                    and _close(watts(p.power_dbm), watts(power_dbm))):
                faults.append(f"delay or power of {sig} differs from the reference")
        return faults
    for sig, p in by_sig.items():
        magnitude = float(np.linalg.norm(p.field))
        # a predicted path that RT also finds must carry RT's delay and
        # field: this bounds eps_E
        if sig in ref_paths:
            delay, _power_dbm, ref_magnitude = ref_paths[sig]
            if not (_close(p.delay, delay) and _close(magnitude, ref_magnitude)):
                faults.append(f"predicted {sig} differs from the reference")
        if edrt_direct is not None:
            direct = edrt_direct(p)
            if direct is None or not _close(magnitude, direct):
                faults.append(f"E-DRT magnitude of {sig} differs from field_of_path")
    return faults


def edrt_direct_magnitude(raychan, scene, t: float):
    """|E| of a path predicted at t, recomputed directly (C1)."""
    geom = raychan.scene_at(scene, t)

    def direct(path):
        try:
            geometry = raychan.PathTrajectory(path, scene, t).geometry_at(t, geom)
            field2, _ = raychan.field_of_path(scene, geom, geometry)
        except raychan.ConstructionError:
            return None
        return float(np.linalg.norm(field2))
    return direct


def check_run(run, spec: dict, reference: Reference, raychan, scene):
    """(attempted, failed, faults) for one run of one mode.

    run is the RunResult or the exception the run raised.  Every snapshot of
    the run's closed grid counts as attempted.
    """
    expected = [time_key(t) for t in grid(spec["dt"], spec["duration"])]
    if isinstance(run, BaseException):
        return len(expected), len(expected), [f"run raised {run!r}"]
    by_key = {time_key(s.time): s for s in run.snapshots}
    faults = []
    failed = 0
    missing = [k for k in expected if k not in by_key]
    extra = len(run.snapshots) - (len(expected) - len(missing))
    if missing or extra:
        faults.append(f"{len(missing)} grid instants missing, {extra} extra snapshots")
        failed += len(missing) + max(extra, 0)
    rt_keys = {time_key(t) for t in run.rt_times}
    for key in expected:
        snap = by_key.get(key)
        if snap is None:
            continue
        is_rt = key in rt_keys
        if is_rt and key not in reference.snapshots:
            raise KeyError(f"reference {reference.scene} has no instant t={key / 1e6}")
        direct = (edrt_direct_magnitude(raychan, scene, snap.time)
                  if spec["mode"] == "edrt" and not is_rt else None)
        reasons = _snapshot_faults(snap, reference.snapshots.get(key, {}), is_rt,
                                   direct)
        if reasons:
            failed += 1
            faults.append(f"t={snap.time:.6g}: " + "; ".join(reasons[:3]))
    return len(expected) + max(extra, 0), failed, faults


def accuracy(run, duration: float, reference: Reference) -> dict:
    """Path recall (1 - eps_G) and similarity index on the 0.1 s grid.

    eps_G is the mean, over predicted instants of the grid, of the share of
    reference paths whose signature the prediction misses.  The similarity
    index is the overlap of the two power-delay distributions binned at
    1 ns over every instant of the grid, as in raychan's metrics.
    """
    keys = [time_key(t) for t in grid(ACCURACY_STEP, duration)]
    by_key = {time_key(s.time): s for s in run.snapshots}
    rt_keys = {time_key(t) for t in run.rt_times}

    def paths_at(k):
        snap = by_key.get(k)
        return snap.paths if snap is not None else []

    misses = []
    for k in keys:
        ref_paths = reference.snapshots[k]
        if k in rt_keys or not ref_paths:
            continue
        found = {sig_key(p.signature) for p in paths_at(k)}
        misses.append(sum(sig not in found for sig in ref_paths) / len(ref_paths))
    eps_g = float(np.mean(misses))

    def histogram(rows):
        hist, total = {}, 0.0
        for k, delay, power_dbm in rows:
            if math.isfinite(power_dbm):
                b = (k, int(delay // DELAY_BIN_S))
                w = watts(power_dbm)
                hist[b] = hist.get(b, 0.0) + w
                total += w
        return hist, total

    h_ref, t_ref = histogram((k, d, pw) for k in keys
                             for d, pw, _m in reference.snapshots[k].values())
    h_run, t_run = histogram((k, p.delay, p.power_dbm) for k in keys
                             for p in paths_at(k))
    l1 = sum(abs(h_ref.get(b, 0.0) / t_ref - h_run.get(b, 0.0) / t_run)
             for b in set(h_ref) | set(h_run))
    return {"eps_g": eps_g, "recall": 1.0 - eps_g, "si": 1.0 - 0.5 * l1}
