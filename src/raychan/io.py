"""On-disk artifact formats.

All CSV outputs are deterministic for a given run: floats are serialized
with repr-stable formatting and rows follow the documented stable ordering
(snapshots by time, paths by signature).

    snapshots.csv : time_s, path_index, signature, delay_ns, power_dbm,
                    n_interactions
    lifetimes.csv : signature, birth_s, death_s, classification
    pdp.csv       : position_index, distance_m, delay_ns, power_dbm
    errors.json   : epsilon_g, epsilon_e, si, per-position arrays
    timing.json   : mode, geometry_s, field_s, total_s
    manifest.json : mode, config echo, per-round reference-pass times,
                    counters (the CLI adds scene_sha256 and frequency_hz)
"""

from __future__ import annotations

import json
import math
from pathlib import Path as FilePath

import numpy as np

from .metrics import PDP, ErrorReport
from .rt import Path, Snapshot, parse_signature, signature_str
from .runs import RunResult


def _fmt(x: float) -> str:
    if x != x or math.isinf(x):
        return repr(x)
    return f"{x:.12g}"


def write_snapshots_csv(run, path) -> None:
    snapshots = run.snapshots if isinstance(run, RunResult) else run
    lines = ["time_s,path_index,signature,delay_ns,power_dbm,n_interactions"]
    for snap in snapshots:
        for i, p in enumerate(snap.paths):
            lines.append(",".join([
                _fmt(snap.time), str(i), signature_str(p.signature),
                _fmt(p.delay * 1e9), _fmt(p.power_dbm), str(len(p.interactions)),
            ]))
    FilePath(path).write_text("\n".join(lines) + "\n")


def read_snapshots_csv(path, wavelength: float) -> list[Snapshot]:
    """Round-trip reader: paths carry signature/delay/power only.

    Field vectors are reconstructed as vertically polarized, with the
    magnitude that gives each path's power at wavelength (m), the inverse of
    rt.powers_dbm: the field error compares these magnitudes with
    a run's own, so wavelength must be that run's.
    """
    text = FilePath(path).read_text().strip().splitlines()
    if not text or text[0] != "time_s,path_index,signature,delay_ns,power_dbm,n_interactions":
        raise ValueError(f"{path} is not a snapshots CSV")
    snaps: dict[float, Snapshot] = {}
    order: list[float] = []
    for line in text[1:]:
        time_s, _idx, sig, delay_ns, power_dbm, _n = line.split(",")
        t = float(time_s)
        if t not in snaps:
            snaps[t] = Snapshot(time=t, paths=[])
            order.append(t)
        p_dbm = float(power_dbm)
        snaps[t].paths.append(Path(
            signature=parse_signature(sig),
            interactions=[],
            delay=float(delay_ns) * 1e-9,
            field=np.array([_magnitude_for(p_dbm, wavelength), 0.0], dtype=complex),
            power_dbm=p_dbm,
        ))
    return [snaps[t] for t in order]


def _magnitude_for(power_dbm: float, wavelength: float) -> float:
    """|E| = sqrt(8 pi eta0 P) / wavelength."""
    from .rt import ETA0
    if not math.isfinite(power_dbm):
        return 0.0
    p_w = 10.0 ** ((power_dbm - 30.0) / 10.0)
    return math.sqrt(p_w * 8.0 * math.pi * ETA0) / wavelength


def write_lifetimes_csv(run: RunResult, path) -> None:
    lines = ["signature,birth_s,death_s,classification"]
    for rec in run.lifetimes:
        lines.append(",".join([rec.signature, _fmt(rec.birth_s), _fmt(rec.death_s),
                               rec.classification]))
    FilePath(path).write_text("\n".join(lines) + "\n")


def write_pdp_csv(pdp: PDP, path) -> None:
    lines = ["position_index,distance_m,delay_ns,power_dbm"]
    for e in pdp.entries:
        lines.append(",".join([str(e.position_index), _fmt(e.distance_m),
                               _fmt(e.delay_s * 1e9), _fmt(e.power_dbm)]))
    FilePath(path).write_text("\n".join(lines) + "\n")


def write_error_json(report: ErrorReport, path) -> None:
    doc = {
        "epsilon_g": report.epsilon_g,
        "epsilon_e": report.epsilon_e,
        "si": report.si,
        "skipped_positions": report.skipped_positions,
        "skipped_paths": report.skipped_paths,
        "per_position": [
            {"time_s": r.time_s, "n_rt": r.n_rt, "n_s": r.n_matched,
             "mean_field_error": (float(np.mean(r.field_errors))
                                  if r.field_errors else None)}
            for r in report.per_position],
    }
    FilePath(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_timing_json(run: RunResult, path) -> None:
    doc = {"mode": run.mode, **run.timing.as_dict()}
    FilePath(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_manifest_json(run: RunResult, path, extra: dict | None = None) -> None:
    doc = {
        "mode": run.mode,
        "t_c": run.t_c,
        "dt": run.dt,
        "duration": run.duration,
        "rt_times": run.rt_times,
        "n_snapshots": len(run.snapshots),
        "counters": run.counters,
    }
    if extra:
        doc.update(extra)
    FilePath(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
