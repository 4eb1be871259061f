"""Evaluation of predicted channels against a reference run.

Geometry error: mean over predicted positions of the fraction of reference
paths whose signature the prediction failed to reproduce.  Field error: mean
relative magnitude error over successfully matched paths.  Similarity index:
normalized L1 overlap of the two power-delay distributions over the joint
position/delay plane, in [0, 1].  All metrics are evaluated on the predicted
(non-reference-pass) positions only, except the similarity index which uses
every common position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rt import Snapshot
from .runs import RunResult, time_key

DELAY_BIN_S = 1e-9       # Eq-style integral discretization: 1 ns delay bins
FIELD_FLOOR = 1e-15      # reference magnitudes below this are skipped
PDP_TOP_N = 10


@dataclass
class PositionError:
    time_s: float
    n_rt: int
    n_matched: int
    field_errors: list[float] = field(default_factory=list)


@dataclass
class ErrorReport:
    epsilon_g: float
    epsilon_e: float
    si: float
    per_position: list[PositionError]
    skipped_positions: int = 0   # reference positions with no paths
    skipped_paths: int = 0       # matched paths with near-zero reference field


@dataclass
class PDPEntry:
    position_index: int
    time_s: float
    distance_m: float
    delay_s: float
    power_dbm: float


@dataclass
class PDP:
    entries: list[PDPEntry]


def _reference_lookup(reference) -> dict[int, Snapshot]:
    snaps = reference.snapshots if isinstance(reference, RunResult) else reference
    return {time_key(s.time): s for s in snaps}


def _predicted_snapshots(predicted) -> list[Snapshot]:
    if isinstance(predicted, RunResult):
        keys = {time_key(t) for t in predicted.predicted_times()}
        return [s for s in predicted.snapshots if time_key(s.time) in keys]
    return list(predicted)


def _position_errors(reference, predicted):
    ref_by_key = _reference_lookup(reference)
    skipped_positions = 0
    skipped_paths = 0
    rows: list[PositionError] = []
    for snap in _predicted_snapshots(predicted):
        key = time_key(snap.time)
        if key not in ref_by_key:
            raise ValueError(f"reference run has no snapshot at t={snap.time}")
        ref_snap = ref_by_key[key]
        n_rt = len(ref_snap.paths)
        if n_rt == 0:
            skipped_positions += 1
            continue
        pred_by_sig = snap.by_signature()
        row = PositionError(time_s=snap.time, n_rt=n_rt, n_matched=0)
        for ref_path in ref_snap.paths:
            p = pred_by_sig.get(ref_path.signature)
            if p is None:
                continue
            row.n_matched += 1
            e_ref = ref_path.magnitude
            if e_ref < FIELD_FLOOR:
                skipped_paths += 1
                continue
            row.field_errors.append(abs(e_ref - p.magnitude) / e_ref)
        rows.append(row)
    return rows, skipped_positions, skipped_paths


def _epsilons(rows: list[PositionError]) -> tuple[float, float]:
    """(eps_G, eps_E) of per-position rows: the mean fraction of reference
    paths missed, and the mean over positions of the relative field errors
    of the matched paths; 0 when no row contributes."""
    eps_g = float(np.mean([(r.n_rt - r.n_matched) / r.n_rt for r in rows])) if rows else 0.0
    per_pos = [np.mean(r.field_errors) for r in rows if r.field_errors]
    return eps_g, float(np.mean(per_pos)) if per_pos else 0.0


def geometry_error(reference, predicted) -> float:
    """Mean fraction of reference paths missed at each predicted position.

    A path counts as successfully predicted only when its full interaction
    signature matches a reference path exactly.  Positions with no reference
    paths are excluded from the mean.
    """
    return _epsilons(_position_errors(reference, predicted)[0])[0]


def field_error(reference, predicted) -> float:
    """Mean relative field-magnitude error over successfully matched paths."""
    return _epsilons(_position_errors(reference, predicted)[0])[1]


def _power_histogram(snapshots: list[Snapshot], keys: set[int]):
    """(position,time-delay-bin) -> linear power in watts."""
    hist: dict[tuple[int, int], float] = {}
    for snap in snapshots:
        key = time_key(snap.time)
        if key not in keys:
            continue
        for p in snap.paths:
            if not math.isfinite(p.power_dbm):
                continue
            w = 10.0 ** ((p.power_dbm - 30.0) / 10.0)
            b = (key, int(p.delay // DELAY_BIN_S))
            hist[b] = hist.get(b, 0.0) + w
    return hist


def similarity_index(target, predicted) -> float:
    """Normalized power-delay-profile overlap of two runs, in [0, 1].

    Both distributions are binned at 1 ns over the joint position/delay
    plane and normalized to unit total mass, so the index is symmetric and
    invariant to uniform power scaling.  1 means identical profiles, 0 means
    disjoint delay supports.
    """
    snaps_t = target.snapshots if isinstance(target, RunResult) else list(target)
    snaps_p = predicted.snapshots if isinstance(predicted, RunResult) else list(predicted)
    keys = ({time_key(s.time) for s in snaps_t}
            & {time_key(s.time) for s in snaps_p})
    if not keys:
        raise ValueError("runs share no positions")
    h_t = _power_histogram(snaps_t, keys)
    h_p = _power_histogram(snaps_p, keys)
    total_t = sum(h_t.values())
    total_p = sum(h_p.values())
    if total_t <= 0.0 or total_p <= 0.0:
        raise ValueError("similarity index needs positive total power in both runs")
    l1 = 0.0
    for b in set(h_t) | set(h_p):
        l1 += abs(h_t.get(b, 0.0) / total_t - h_p.get(b, 0.0) / total_p)
    return 1.0 - 0.5 * l1


def error_report(reference, predicted, target_for_si=None) -> ErrorReport:
    """Full evaluation bundle: geometry error, field error, similarity."""
    rows, skipped_positions, skipped_paths = _position_errors(reference, predicted)
    eps_g, eps_e = _epsilons(rows)
    si = similarity_index(target_for_si if target_for_si is not None else reference,
                          predicted)
    return ErrorReport(epsilon_g=eps_g, epsilon_e=eps_e, si=si, per_position=rows,
                       skipped_positions=skipped_positions,
                       skipped_paths=skipped_paths)


def pdp_extract(run, rx_motion=None) -> PDP:
    """Strongest-10 power/delay pairs per position.

    distance_m is the cumulative receiver travel from the first snapshot
    when the receiver motion is available (run.snapshots order defines the
    position index).
    """
    snaps = run.snapshots if isinstance(run, RunResult) else list(run)
    entries: list[PDPEntry] = []
    prev_pos = None
    dist = 0.0
    for idx, snap in enumerate(snaps):
        if rx_motion is not None:
            pos = rx_motion.position(snap.time)
            if prev_pos is not None:
                dist += float(np.linalg.norm(pos - prev_pos))
            prev_pos = pos
        strongest = sorted(snap.paths, key=lambda p: p.power_dbm, reverse=True)
        for p in strongest[:PDP_TOP_N]:
            entries.append(PDPEntry(position_index=idx, time_s=snap.time,
                                    distance_m=dist, delay_s=p.delay,
                                    power_dbm=p.power_dbm))
    return PDP(entries=entries)
