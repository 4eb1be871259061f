"""Enhanced dynamic ray tracing: bidirectional geometry and field extrapolation.

Each prediction round is bracketed by two full ray-tracing snapshots.  Paths
present in both are extrapolated across the whole window; paths present in
only one are assigned a birth or death time by locating the instant their
geometric construction stops (or starts) being valid, so the predicted
multipath structure changes inside the window instead of waiting for the next
reference pass.  Field magnitudes are not recomputed: they are scaled by the
exact ratio of interaction coefficients, spreading factors and slab losses
between the reference time and the prediction time, forward from the window
start for surviving paths and backward from the window end for newborn ones.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import fresnel_from_cos, transmission_from_cos, utd_coefficient_batch
from .drt import PathTrajectory, PredictionConfig
from .rt import (
    GRAZING_COS,
    ConstructionError,
    InteractionTrace,
    Mechanism,
    Path,
    PathGeometry,
    Snapshot,
    _signature_with_penetrations,
    field_of_path,
    occlusion_profiles_batch,
    power_dbm_from_field,
    signature_sort_key,
    signature_str,
    spreading_factor,
    trace_snapshot,
    wedge_geometry_of,
)
from .runs import RunResult, StageTimer
from .scene import C_LIGHT, Scene, SceneAtTime, scene_at

log = logging.getLogger(__name__)

LIFETIME_SAMPLE_DIVISOR = 20   # boundary scan step = dt / 20
BISECTION_TOL = 8.0e-7         # s; transition bracket refined to 2x this
COEFF_FLOOR = 1e-12            # Brewster-null reference guard


@dataclass
class MatchedPaths:
    """Partition of two bracketing snapshots by signature equality."""

    common: list[tuple[Path, Path]]
    dying: list[Path]
    born: list[Path]
    t_start: float
    t_end: float


@dataclass
class Lifetime:
    path: Path
    birth_time: float
    death_time: float
    fallback: bool = False  # no transition found: the window-edge default applies


@dataclass
class LifetimeRecord:
    signature: str
    birth_s: float
    death_s: float
    classification: str  # common | dying | born


def match_paths(a: Snapshot, b: Snapshot) -> MatchedPaths:
    """Split paths of two snapshots into common / dying / born sets.

    The matching key is exact signature equality: a path that keeps its
    ordered interaction mechanisms and geometry ids is the same multipath
    component; everything else is treated as an individual-existence path.
    """
    by_b = b.by_signature()
    sigs_a = a.signature_set()
    common = [(p, by_b[p.signature]) for p in a.paths if p.signature in by_b]
    dying = [p for p in a.paths if p.signature not in by_b]
    born = [p for p in b.paths if p.signature not in sigs_a]
    return MatchedPaths(common=common, dying=dying, born=born,
                        t_start=a.time, t_end=b.time)


# ---------------------------------------------------------------------------
# Birth / death time solving
# ---------------------------------------------------------------------------

_SCAN_CHUNK = 100


def _bisect_transition(traj: PathTrajectory, t_valid: float, t_invalid: float,
                       include_occlusion: bool) -> float:
    """Refine a validity transition bracketed by a valid and an invalid time.

    Batched multi-section refinement: each level evaluates the validity scan
    on an interior grid and re-brackets at the first transition, until the
    bracket is tighter than the bisection tolerance.
    """
    n_grid = 80
    while abs(t_invalid - t_valid) > 2.0 * BISECTION_TOL:
        ts = t_valid + (t_invalid - t_valid) * np.arange(1, n_grid + 1) / (n_grid + 1)
        valid = traj.validity_scan(ts, include_occlusion)
        bad = np.nonzero(~valid)[0]
        if bad.size:
            i = int(bad[0])
            t_invalid = float(ts[i])
            if i > 0:
                t_valid = float(ts[i - 1])
        else:
            t_valid = float(ts[-1])
    return 0.5 * (t_valid + t_invalid)


def _boundary_transition(traj: PathTrajectory, anchor: float,
                         times: np.ndarray) -> float | None:
    """First validity transition along times, geometric causes first.

    Scans the geometric existence of the path (interaction points on their
    surfaces/edges, construction solvable); only when no geometric cause
    exists anywhere in the window does it fall back to the earliest
    occlusion-profile deviation.  Both predicates come from one combined
    scan pass.  Returns the refined transition time or None.
    """
    first_full: int | None = None
    for start in range(0, times.size, _SCAN_CHUNK):
        chunk = times[start:start + _SCAN_CHUNK]
        geo_ok, full_ok = traj.existence_scan(chunk)
        bad_geo = np.nonzero(~geo_ok)[0]
        if bad_geo.size:
            i = start + int(bad_geo[0])
            t_prev = anchor if i == 0 else float(times[i - 1])
            return _bisect_transition(traj, t_prev, float(times[i]),
                                      include_occlusion=False)
        if first_full is None:
            bad_full = np.nonzero(~full_ok)[0]
            if bad_full.size:
                first_full = start + int(bad_full[0])
    if first_full is not None:
        i = first_full
        t_prev = anchor if i == 0 else float(times[i - 1])
        return _bisect_transition(traj, t_prev, float(times[i]),
                                  include_occlusion=True)
    return None


def _lifetime_edge(path: Path, scene: Scene, t_start: float, t_end: float,
                   dt: float, dying: bool) -> tuple[float, bool]:
    """Death (dying=True) or birth time of a path, and whether it fell back.

    The scan runs away from the reference end of the window: forward from
    t_start for a dying path, backward from t_end for a born one.  An
    unresolved case is logged and falls back to one step inside the far
    window edge.
    """
    anchor = t_start if dying else t_end
    traj = PathTrajectory(path, scene, anchor)
    step = dt / LIFETIME_SAMPLE_DIVISOR
    n = round((t_end - t_start) / step)
    offsets = step * np.arange(1, n + 1)
    times = t_start + offsets if dying else t_end - offsets
    t = _boundary_transition(traj, anchor, times)
    if t is not None:
        return t, False
    if dying:
        log.warning("edrt: no geometric death found for %s in (%.3f, %.3f]; "
                    "falling back to window end minus dt",
                    path.signature, t_start, t_end)
        return t_end - dt, True
    log.warning("edrt: no geometric birth found for %s in [%.3f, %.3f); "
                "falling back to window start plus dt",
                path.signature, t_start, t_end)
    return t_start + dt, True


def death_time(path: Path, scene: Scene, t_start: float, t_end: float,
               dt: float) -> float:
    """Earliest instant in (t_start, t_end] at which a dying path stops
    existing.

    Scans the window at dt/20 for the first time an interaction point
    crosses its surface boundary (or the image construction collapses),
    refined by bisection; when no geometric cause exists, the earliest
    occlusion onset is used instead.  If neither is found the path dies at
    t_end - dt and the case is logged as unresolved.
    """
    return _lifetime_edge(path, scene, t_start, t_end, dt, dying=True)[0]


def birth_time(path: Path, scene: Scene, t_start: float, t_end: float,
               dt: float) -> float:
    """Latest instant in [t_start, t_end) at which a born path starts
    existing.

    Propagates the interaction points backward from the window end and finds
    the latest time the path was not yet on its geometry (or, when it never
    leaves it, the latest occlusion clearing); the path exists from that
    transition onward.  Falls back to t_start + dt when the whole window
    scans valid.
    """
    return _lifetime_edge(path, scene, t_start, t_end, dt, dying=False)[0]


def solve_lifetimes(matched: MatchedPaths, scene: Scene, t_start: float,
                    t_end: float, dt: float) -> dict:
    """Lifetime for every path of a round, keyed by signature.

    Common paths live for the whole window; dying and born paths get solved
    boundary-crossing times, flagged as fallbacks when unresolved.
    """
    lifetimes: dict = {}
    for pa, _pb in matched.common:
        lifetimes[pa.signature] = Lifetime(pa, t_start, t_end)
    for p in matched.dying:
        t, fallback = _lifetime_edge(p, scene, t_start, t_end, dt, dying=True)
        lifetimes[p.signature] = Lifetime(p, t_start, t, fallback)
    for p in matched.born:
        t, fallback = _lifetime_edge(p, scene, t_start, t_end, dt, dying=False)
        lifetimes[p.signature] = Lifetime(p, t, t_end, fallback)
    return lifetimes


# ---------------------------------------------------------------------------
# Field extrapolation
# ---------------------------------------------------------------------------

@dataclass
class FieldReference:
    """Everything needed to extrapolate one path's field from its reference.

    Holds the reference field, geometry and the per-interaction coefficient
    traces recorded during one direct chain walk at the reference time.
    """

    field2: np.ndarray
    geometry: PathGeometry
    traces: list[InteractionTrace]
    spreading: float
    total_length: float

    @classmethod
    def from_reference(cls, scene: Scene, geom: SceneAtTime,
                       geometry: PathGeometry) -> "FieldReference":
        traces: list[InteractionTrace] = []
        field2, _ = field_of_path(scene, geom, geometry, record=traces)
        return cls(field2=field2, geometry=geometry, traces=traces,
                   spreading=spreading_factor(geometry),
                   total_length=geometry.total_length)


def extrapolate_field(ref: FieldReference, cur: PathGeometry, scene: Scene):
    """Extrapolated receiver field for geometry cur from the reference state.

    Magnitudes follow the exact coefficient/spreading/loss ratios; the phase
    advances by -k times the total length change, keeping each coefficient's
    phase at its reference value.  Returns (field2, power_dbm) or None when
    the Brewster-null fallback applies.
    """
    return extrapolate_fields([(ref, cur)], scene)[0]


def extrapolate_fields(pairs, scene: Scene):
    """extrapolate_field over many (reference, geometry) pairs at once.

    The per-mechanism coefficient evaluations of all pairs are gathered and
    computed in batched passes; only the geometry bookkeeping stays scalar.
    Entries are None where the Brewster-null fallback applies.
    """
    ratios: list[complex | None] = []
    # queues: (pair_index, c_ref, label) plus kind-specific payloads
    d_geoms, d_eps, d_own = [], [], []
    r_cos, r_eps, r_own = [], [], []
    p_cos, p_eps, p_thick, p_own = [], [], [], []
    for idx, (ref, cur) in enumerate(pairs):
        ratio: complex | None = 1.0 + 0.0j
        verts = cur.vertices
        for t_idx, tr in enumerate(ref.traces):
            c_ref = tr.coeff[tr.label]
            if abs(c_ref) < COEFF_FLOOR:
                ratio = None
                break
            if tr.kind is Mechanism.DIFFRACTION:
                d_geoms.append(wedge_geometry_of(tr.frame, cur, t_idx))
                d_eps.append(tr.eps)
                d_own.append((idx, c_ref, tr.label))
                continue
            if tr.kind is Mechanism.REFLECTION:
                seg = t_idx
            else:
                seg = cur.penetrations[t_idx - len(cur.backbone)].segment
            a = verts[seg]
            b = verts[seg + 1]
            n = tr.normal
            dot = ((b[0] - a[0]) * n[0] + (b[1] - a[1]) * n[1]
                   + (b[2] - a[2]) * n[2])
            cos_th = min(abs(dot) / float(cur.seg_lengths[seg]), 1.0)
            if tr.kind is Mechanism.REFLECTION:
                r_cos.append(cos_th)
                r_eps.append(tr.eps)
                r_own.append((idx, c_ref, tr.label))
            else:
                if cos_th < GRAZING_COS:
                    ratio = None  # grazing slab crossing: direct fallback
                    break
                p_cos.append(cos_th)
                p_eps.append(tr.eps)
                p_thick.append(tr.thickness)
                p_own.append((idx, c_ref, tr.label, tr.alpha, tr.d_t))
        ratios.append(ratio)

    r_perp, r_par = fresnel_from_cos(np.asarray(r_cos), np.asarray(r_eps, complex))
    for (idx, c_ref, label), rp, rl in zip(r_own, r_perp, r_par):
        if ratios[idx] is not None:
            ratios[idx] *= complex(rp if label == 0 else rl) / c_ref
    slab = transmission_from_cos(np.asarray(p_cos), np.asarray(p_eps, complex),
                                 np.asarray(p_thick))
    for (idx, c_ref, label, alpha, d_t_ref), tp, tl, dt_now in zip(
            p_own, slab.t_perp, slab.t_par, slab.d_t):
        if ratios[idx] is not None:
            ratios[idx] *= complex(tp if label == 0 else tl) / c_ref
            ratios[idx] *= math.exp(-alpha * (float(dt_now) - d_t_ref))
    d_soft, d_hard = utd_coefficient_batch(d_geoms, d_eps, scene.frequency)
    for (idx, c_ref, label), s_val, h_val in zip(d_own, d_soft, d_hard):
        if ratios[idx] is not None:
            ratios[idx] *= complex(s_val if label == 0 else h_val) / c_ref

    k = scene.wavenumber
    out = []
    for (ref, cur), ratio in zip(pairs, ratios):
        if ratio is None:
            out.append(None)
            continue
        spread = spreading_factor(cur) / ref.spreading
        phase = cmath.exp(-1j * k * (cur.total_length - ref.total_length))
        field2 = ref.field2 * (ratio * spread * phase)
        mag = math.hypot(abs(field2[0]), abs(field2[1]))
        out.append((field2, power_dbm_from_field(mag, scene)))
    return out


# ---------------------------------------------------------------------------
# Round prediction
# ---------------------------------------------------------------------------

class _RoundPath:
    """One path prepared for prediction within a round.

    The field reference is the chain walk its RT pass already recorded.
    """

    def __init__(self, scene: Scene, path: Path, ref_time: float,
                 classification: str):
        self.path = path
        self.classification = classification
        self.traj = PathTrajectory(path, scene, ref_time)
        self.reference = FieldReference(
            field2=path.field, geometry=path.geometry, traces=path.traces,
            spreading=spreading_factor(path.geometry),
            total_length=path.geometry.total_length)


class EdrtRound:
    """Matching, lifetimes and per-instant prediction for one window."""

    def __init__(self, scene: Scene, matched: MatchedPaths, lifetimes: dict,
                 timer: StageTimer | None = None):
        self.scene = scene
        self.t_start = matched.t_start
        self.t_end = matched.t_end
        self.timer = timer or StageTimer()
        self.matched = matched
        self.lifetimes = lifetimes
        with self.timer.geometry():
            self.round_paths: list[_RoundPath] = []
            for pa, _pb in matched.common:
                self.round_paths.append(
                    _RoundPath(scene, pa, self.t_start, "common"))
            for p in matched.dying:
                self.round_paths.append(
                    _RoundPath(scene, p, self.t_start, "dying"))
            for p in matched.born:
                self.round_paths.append(
                    _RoundPath(scene, p, self.t_end, "born"))
        self.fallbacks = 0
        self.dropped = 0

    @classmethod
    def from_snapshots(cls, scene: Scene, snap_a: Snapshot, snap_b: Snapshot,
                       dt: float, timer: StageTimer | None = None) -> "EdrtRound":
        timer = timer or StageTimer()
        with timer.geometry():
            matched = match_paths(snap_a, snap_b)
            lifetimes = solve_lifetimes(matched, scene, snap_a.time, snap_b.time, dt)
        return cls(scene, matched, lifetimes, timer)

    def lifetime_records(self) -> list[LifetimeRecord]:
        out = []
        for rp in self.round_paths:
            lt = self.lifetimes[rp.path.signature]
            out.append(LifetimeRecord(signature_str(rp.path.signature),
                                      lt.birth_time, lt.death_time,
                                      rp.classification))
        return out

    def predict_batch(self, times) -> list[Snapshot]:
        """Predicted snapshots for several instants of this window.

        Geometry is resolved per instant; the field extrapolation of every
        included (path, instant) pair runs as one batched pass.
        """
        per_time: list[tuple[float, object, list]] = []
        with self.timer.geometry():
            for t in times:
                geom = scene_at(self.scene, t)
                candidates: list[tuple[_RoundPath, object]] = []
                for rp in self.round_paths:
                    lt = self.lifetimes[rp.path.signature]
                    if rp.classification == "dying" and not t < lt.death_time:
                        continue
                    if rp.classification == "born" and not t >= lt.birth_time:
                        continue
                    try:
                        candidates.append((rp, rp.traj.geometry_at(t, geom)))
                    except ConstructionError:
                        self.dropped += 1
                included: list[tuple[_RoundPath, object]] = []
                if candidates:
                    # transient blockage within the window suppresses a path
                    # for this snapshot only; its lifetime is not affected
                    profiles = occlusion_profiles_batch(
                        geom,
                        [(g.vertices, rp.traj.owners) for rp, g in candidates])
                    for (rp, g), (blocked, pens) in zip(candidates, profiles):
                        if blocked:
                            continue
                        if _signature_with_penetrations(rp.traj.backbone, pens) \
                                != rp.traj.signature:
                            continue
                        included.append((rp, g))
                per_time.append((float(t), geom, included))
        snapshots: list[Snapshot] = []
        with self.timer.field():
            flat = [(rp.reference, geometry)
                    for _t, _geom, included in per_time
                    for rp, geometry in included]
            results = extrapolate_fields(flat, self.scene)
            pos = 0
            for t, geom, included in per_time:
                paths: list[Path] = []
                for rp, geometry in included:
                    result = results[pos]
                    pos += 1
                    if result is None:
                        self.fallbacks += 1
                        try:
                            result = field_of_path(self.scene, geom, geometry)
                        except ConstructionError:
                            self.dropped += 1
                            continue
                    field2, p_dbm = result
                    paths.append(Path(
                        signature=geometry.signature,
                        interactions=geometry.interactions(),
                        delay=geometry.total_length / C_LIGHT,
                        field=field2,
                        power_dbm=p_dbm,
                    ))
                paths.sort(key=lambda p: signature_sort_key(p.signature))
                snapshots.append(Snapshot(time=t, paths=paths))
        return snapshots


def predict_snapshot_edrt(matched: MatchedPaths, lifetimes: dict, scene: Scene,
                          t: float) -> Snapshot:
    """Predicted snapshot at time t from matched bracketing snapshots.

    Common paths are advanced across the whole window (with a transient
    occlusion check); dying paths are included only before their death time;
    born paths only from their birth time, advanced backward from the window
    end.  Fields are extrapolated from the reference end of each path.
    """
    return EdrtRound(scene, matched, lifetimes).predict_batch([t])[0]


def edrt_run(scene: Scene, config: PredictionConfig,
             timer: StageTimer | None = None) -> RunResult:
    """Bidirectional prediction over all rounds.

    Round n is bracketed by the reference snapshots at n*t_c (already
    available from the previous round) and (n+1)*t_c (traced now), so the
    total number of full ray-tracing passes over N rounds is N + 1: the run
    merely advances each reference pass one window early.  The returned
    sequence covers the closed grid [0, rounds*t_c].
    """
    timer = timer or StageTimer()
    snapshots: list[Snapshot] = []
    rt_times: list[float] = []
    lifetimes_log: list[LifetimeRecord] = []
    fallbacks = 0
    lifetime_fallbacks = 0
    dropped = 0
    with timer.total():
        snap_next = trace_snapshot(scene, 0.0, timer)
        rt_times.append(0.0)
        for n in range(config.rounds):
            snap_a = snap_next
            t1 = (n + 1) * config.t_c
            snap_b = trace_snapshot(scene, t1, timer)
            rt_times.append(t1)
            rnd = EdrtRound.from_snapshots(scene, snap_a, snap_b, config.dt, timer)
            lifetimes_log.extend(rnd.lifetime_records())
            snapshots.append(snap_a)
            snapshots.extend(rnd.predict_batch(
                [snap_a.time + j * config.dt
                 for j in range(1, config.steps_per_round)]))
            fallbacks += rnd.fallbacks
            lifetime_fallbacks += sum(lt.fallback for lt in rnd.lifetimes.values())
            dropped += rnd.dropped
            snap_next = snap_b
        snapshots.append(snap_next)
    if dropped:
        log.warning("edrt run: dropped %d path instance(s)", dropped)
    return RunResult(mode="edrt", snapshots=snapshots, rt_times=rt_times,
                     timing=timer, t_c=config.t_c, dt=config.dt,
                     duration=config.rounds * config.t_c,
                     counters={**timer.counters,
                               "dropped_paths": dropped,
                               "direct_fallbacks": fallbacks,
                               "lifetime_fallbacks": lifetime_fallbacks},
                     lifetimes=lifetimes_log)
