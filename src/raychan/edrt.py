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

A round runs on arrays.  Its paths form one drt.PathTrajectory, grouped
inside by backbone shape, and one construction-and-crossing kernel resolves
them over (paths x times): the lifetime scans of every dying and born path
(one existence_scan per 100-sample chunk), their bisection (one
validity_scan per 80-point level) and the predictions (one geometry_at for
all instants of the round, then one crossing call for its occlusion and
penetration profiles).  Field extrapolation reads its geometry from the same
arrays and computes each mechanism's coefficients in one batched pass; Path
objects are built only for the output snapshots, and the scene is evaluated
at an instant only for a direct field fallback.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import (
    WedgeGeometry,
    fresnel_from_cos,
    transmission_from_cos,
    utd_coefficient_batch,
)
from .drt import PathTrajectory, PredictionConfig, TrajectoryGeometry, signature_ranks
from .rt import (
    GRAZING_COS,
    ConstructionError,
    Interaction,
    InteractionTrace,
    Mechanism,
    Path,
    PathGeometry,
    Snapshot,
    field_of_path,
    power_dbm_from_field,
    signature_str,
    spreading_factor,
    trace_snapshot,
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


def round_trajectory(matched: MatchedPaths, scene: Scene) -> PathTrajectory:
    """The round's paths as one PathTrajectory: the common ones (from the
    window start), then the dying and the born ones."""
    return PathTrajectory([pa for pa, _pb in matched.common] + matched.dying + matched.born,
                          scene, matched.t_start)


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
_BISECTION_GRID = 80


def _bisect_transitions(traj: PathTrajectory, t_valid: np.ndarray,
                        t_invalid: np.ndarray, include_occlusion: np.ndarray,
                        timer: StageTimer) -> np.ndarray:
    """Refine the validity transitions bracketed by valid and invalid times,
    one per path of traj.

    Batched multi-section refinement: each level evaluates the validity scan
    of every pending bracket on an interior grid in one call and re-brackets
    each path at its first transition, until every bracket is tighter than
    the bisection tolerance.
    """
    t_valid, t_invalid = t_valid.copy(), t_invalid.copy()
    frac = np.arange(1, _BISECTION_GRID + 1)
    while True:
        pending = np.flatnonzero(np.abs(t_invalid - t_valid) > 2.0 * BISECTION_TOL)
        if not pending.size:
            return 0.5 * (t_valid + t_invalid)
        lo, hi = t_valid[pending, None], t_invalid[pending, None]
        ts = lo + (hi - lo) * frac / (_BISECTION_GRID + 1)
        batch = traj if pending.size == t_valid.size else traj.take(pending)
        valid = batch.validity_scan(ts, include_occlusion[pending])
        timer.count("lifetime_bisect_samples", ts.size)
        bad = ~valid
        found = bad.any(axis=1)
        i = bad.argmax(axis=1)
        rows = np.arange(pending.size)
        t_invalid[pending] = np.where(found, ts[rows, i], t_invalid[pending])
        t_valid[pending] = np.where(~found, ts[:, -1],
                                    np.where(i > 0, ts[rows, i - 1], t_valid[pending]))


def _transitions(traj: PathTrajectory, times: np.ndarray, anchors: np.ndarray,
                 timer: StageTimer) -> np.ndarray:
    """First validity transition of each path along its row of times
    (P, N), geometric causes first; NaN where none is found.

    Scans the geometric existence of every path (interaction points on
    their surfaces/edges, construction solvable) chunk by chunk, each path
    stopping at its first geometric failure; only a path with no geometric
    cause anywhere in the window falls back to its earliest
    occlusion-profile deviation.  Both predicates come from one combined
    scan pass.  anchors (P,) are the valid reference instants before each
    row; the found brackets are then refined together.
    """
    n_paths, n_times = times.shape
    first_geo = np.full(n_paths, -1)
    first_full = np.full(n_paths, -1)
    for start in range(0, n_times, _SCAN_CHUNK):
        active = np.flatnonzero(first_geo < 0)
        if not active.size:
            break
        chunk = times[active, start:start + _SCAN_CHUNK]
        batch = traj if active.size == n_paths else traj.take(active)
        geo_ok, full_ok = batch.existence_scan(chunk)
        timer.count("lifetime_scan_samples", chunk.size)
        bad_geo = ~geo_ok
        hit = bad_geo.any(axis=1)
        first_geo[active[hit]] = start + bad_geo[hit].argmax(axis=1)
        bad_full = ~full_ok
        onset = ~hit & bad_full.any(axis=1) & (first_full[active] < 0)
        first_full[active[onset]] = start + bad_full[onset].argmax(axis=1)
    first = np.where(first_geo >= 0, first_geo, first_full)
    out = np.full(n_paths, np.nan)
    found = np.flatnonzero(first >= 0)
    if found.size:
        i = first[found]
        t_prev = np.where(i == 0, anchors[found], times[found, np.maximum(i - 1, 0)])
        batch = traj if found.size == n_paths else traj.take(found)
        out[found] = _bisect_transitions(batch, t_prev, times[found, i],
                                         first_geo[found] < 0, timer)
    return out


def _lifetime_edges(traj: PathTrajectory, n_dying: int, t_start: float, t_end: float,
                    dt: float, timer: StageTimer) -> list[tuple[float, bool]]:
    """(transition time, fallback) of every path of traj: the first n_dying
    are dying, the others born.

    The scan runs away from the reference end of the window on the dt/20
    grid: forward from t_start for a dying path, backward from t_end for a
    born one.  All paths are scanned and refined together.  An unresolved
    case is logged and falls back to one step inside the far window edge.
    """
    if not traj.paths:
        return []
    step = dt / LIFETIME_SAMPLE_DIVISOR
    n = round((t_end - t_start) / step)
    offsets = step * np.arange(1, n + 1)
    is_dying = np.arange(len(traj.paths)) < n_dying
    times = np.where(is_dying[:, None], t_start + offsets, t_end - offsets)
    anchors = np.where(is_dying, t_start, t_end)
    found = _transitions(traj, times, anchors, timer)
    out = []
    for path, dies, t in zip(traj.paths, is_dying.tolist(), found.tolist()):
        if not math.isnan(t):
            out.append((t, False))
        elif dies:
            log.warning("edrt: no geometric death found for %s in (%.3f, %.3f]; "
                        "falling back to window end minus dt",
                        path.signature, t_start, t_end)
            out.append((t_end - dt, True))
        else:
            log.warning("edrt: no geometric birth found for %s in [%.3f, %.3f); "
                        "falling back to window start plus dt",
                        path.signature, t_start, t_end)
            out.append((t_start + dt, True))
    return out


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
    return _lifetime_edges(PathTrajectory(path, scene, t_start), 1, t_start, t_end, dt,
                           StageTimer())[0][0]


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
    return _lifetime_edges(PathTrajectory(path, scene, t_start), 0, t_start, t_end, dt,
                           StageTimer())[0][0]


def solve_lifetimes(matched: MatchedPaths, scene: Scene, t_start: float,
                    t_end: float, dt: float, timer: StageTimer | None = None,
                    traj: PathTrajectory | None = None) -> dict:
    """Lifetime for every path of a round, keyed by signature.

    Common paths live for the whole window; dying and born paths get solved
    boundary-crossing times, flagged as fallbacks when unresolved.  A timer,
    when given, counts the (path, time) samples of the scans
    (lifetime_scan_samples) and of the bisection (lifetime_bisect_samples).
    traj is the round's trajectory (round_trajectory), built when not given.
    """
    if traj is None:
        traj = round_trajectory(matched, scene)
    edges = _lifetime_edges(traj.take(np.arange(len(matched.common), len(traj.paths))),
                            len(matched.dying), t_start, t_end, dt, timer or StageTimer())
    lifetimes: dict = {}
    for pa, _pb in matched.common:
        lifetimes[pa.signature] = Lifetime(pa, t_start, t_end)
    for p, (t, fallback) in zip(matched.dying, edges):
        lifetimes[p.signature] = Lifetime(p, t_start, t, fallback)
    for p, (t, fallback) in zip(matched.born, edges[len(matched.dying):]):
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
    pens = cur.penetrations
    row = TrajectoryGeometry(
        index=np.zeros(1, dtype=int),
        vertices=np.asarray(cur.vertices)[None],
        pen_points=np.array([h.point for h in pens]).reshape(1, len(pens), 3),
        pen_params=np.array([[h.t for h in pens]]).reshape(1, len(pens)),
        seg_lengths=np.asarray(cur.seg_lengths)[None],
        total_length=np.array([cur.total_length]),
        failed=np.zeros(1, dtype=bool),
        pen_segments=np.array([[h.segment for h in pens]]).reshape(1, len(pens)))
    return extrapolate_fields([ref], [row], scene)[0]


def extrapolate_fields(refs, batches, scene: Scene):
    """extrapolate_field over many (reference, geometry) pairs at once.

    batches are TrajectoryGeometry row batches (TrajectoryGeometry.rows),
    each of one shape and one number of penetrations, and refs holds the
    reference of every row of every batch, in order.  Everything runs on
    arrays: each interaction slot of each batch contributes its segment
    vectors, and then per mechanism the incidence cosines or wedge angles,
    the coefficients (one batched call) and their ratios are computed for
    all rows at once.  Entries are None where the Brewster-null,
    grazing-slab or ray-along-the-edge fallback applies.
    """
    n_all = len(refs)
    totals, s_pre = np.ones(n_all), np.ones(n_all)
    diffracted = np.zeros(n_all, dtype=bool)
    # per mechanism, in slot order: each slot's rows and reference traces,
    # the segment into the interaction (vector and length), and for an edge
    # the segment out of it and the path length before it
    gathered = {kind: ([], [], [], [], [], []) for kind in _PRODUCT_ORDER}
    start = 0
    for rows in batches:
        n_rows = rows.total_length.shape[0]
        batch = np.arange(start, start + n_rows)
        start += n_rows
        if not n_rows:
            continue
        verts, seg_lengths = rows.vertices, rows.seg_lengths
        totals[batch], s_pre[batch] = rows.total_length, seg_lengths[:, 0]
        n_backbone = verts.shape[1] - 2
        r = np.arange(n_rows)
        for q, trace in enumerate(refs[start - n_rows].traces):
            seg = (rows.pen_segments[:, q - n_backbone] if trace.kind is Mechanism.PENETRATION
                   else np.full(n_rows, q))
            at, traces, d_in, length, d_out, before = gathered[trace.kind]
            at.append(batch)
            traces.extend(ref.traces[q] for ref in refs[start - n_rows:start])
            d_in.append(verts[r, seg + 1] - verts[r, seg])
            length.append(seg_lengths[r, seg])
            if trace.kind is Mechanism.DIFFRACTION:
                diffracted[batch] = True
                d_out.append(verts[:, q + 2] - verts[:, q + 1])
                before.append(seg_lengths[:, :q + 1].sum(axis=1))

    def joined(parts):
        return np.concatenate(parts)

    # the ratio product per row: reflections, then penetrations, then
    # diffractions, each in slot order (ufunc.at applies repeated rows in order)
    alive = np.ones(n_all, dtype=bool)
    ratio = np.ones(n_all, complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for kind, (at, traces, d_in, length, d_out, before) in gathered.items():
            if not at:
                continue
            at, d_in, length = joined(at), joined(d_in), joined(length)
            coeff = np.array([tr.coeff[tr.label] for tr in traces], complex)
            eps = np.array([tr.eps for tr in traces], complex)
            dead = np.abs(coeff) < COEFF_FLOOR
            if kind is Mechanism.DIFFRACTION:
                wedge, dead_wedge = _wedge_arrays([tr.frame for tr in traces], d_in, length,
                                                  joined(d_out), joined(before), totals[at])
                dead |= dead_wedge
                c0, c1 = utd_coefficient_batch(wedge, eps, scene.frequency)
            else:
                n = np.array([tr.normal for tr in traces])
                dot = d_in[:, 0] * n[:, 0] + d_in[:, 1] * n[:, 1] + d_in[:, 2] * n[:, 2]
                cos_th = np.minimum(np.abs(dot) / length, 1.0)
                if kind is Mechanism.REFLECTION:
                    c0, c1 = fresnel_from_cos(cos_th, eps)
                else:
                    dead |= cos_th < GRAZING_COS  # grazing slab crossing: direct fallback
                    c0, c1, d_t = transmission_from_cos(
                        cos_th, eps, np.array([tr.thickness for tr in traces]))
            alive[at[dead]] = False
            label = np.array([tr.label for tr in traces])
            np.multiply.at(ratio, at, np.where(label == 0, c0, c1) / coeff)
            if kind is Mechanism.PENETRATION:
                alpha = np.array([tr.alpha for tr in traces])
                np.multiply.at(ratio, at, np.exp(
                    -alpha * (d_t - np.array([tr.d_t for tr in traces]))))
        s_post = totals - s_pre  # zero for a line of sight: its caustic form is unused
        spread = np.where(diffracted, np.sqrt(1.0 / (s_pre * s_post * (s_pre + s_post))),
                          1.0 / totals)
    spread /= np.array([ref.spreading for ref in refs])
    phase = np.exp(-1j * scene.wavenumber * (totals - np.array([ref.total_length
                                                               for ref in refs])))
    field2 = np.array([ref.field2 for ref in refs]).reshape(n_all, 2)
    field2 *= (ratio * spread * phase)[:, None]
    mag = np.hypot(np.abs(field2[:, 0]), np.abs(field2[:, 1]))
    return [(f, power_dbm_from_field(m, scene)) if a else None
            for f, m, a in zip(field2, mag.tolist(), alive.tolist())]


# the order of the ratio product
_PRODUCT_ORDER = (Mechanism.REFLECTION, Mechanism.PENETRATION, Mechanism.DIFFRACTION)


def _wedge_arrays(frames, d_in, length_in, d_out, d_inc, totals):
    """rt.wedge_geometry_of over arrays: the edge-local angles of each row's
    diffraction, as a WedgeGeometry of arrays, and a mask of the rows with a
    ray along the edge (no angle defined).  frames holds each row's edge
    frame, d_in and d_out the segments into and out of the edge point,
    length_in and d_inc the length of the first and of the path before it."""
    e, a, n = (np.array([getattr(f, name) for f in frames]) for name in ("ef", "af", "nf"))
    n_index = np.array([f.n_index for f in frames])
    cos_b = np.vecdot(d_in, e) / length_in
    angles, along_edge = [], False
    for ray in (-d_in, d_out):
        p = ray - np.vecdot(ray, e)[:, None] * e
        along, out = np.vecdot(p, a), np.vecdot(p, n)
        along_edge = along_edge | (along * along + out * out < 1e-18)
        phi = np.arctan2(out, along)
        angles.append(np.minimum(np.where(phi < 0.0, phi + 2.0 * math.pi, phi),
                                 n_index * math.pi))
    return (WedgeGeometry(n_index, np.arccos(np.clip(cos_b, -1.0, 1.0)), *angles, d_inc,
                          totals - d_inc), along_edge)


# ---------------------------------------------------------------------------
# Round prediction
# ---------------------------------------------------------------------------

class EdrtRound:
    """Matching, lifetimes and per-instant prediction for one window.

    Every path of the round is one row of a PathTrajectory, traj (see
    round_trajectory; built when not given).  Its field reference is the
    chain walk its RT pass already recorded, and lo and hi bound the
    instants [lo, hi) at which it is present.
    """

    def __init__(self, scene: Scene, matched: MatchedPaths, lifetimes: dict,
                 timer: StageTimer | None = None, traj: PathTrajectory | None = None):
        self.scene = scene
        self.t_start = matched.t_start
        self.t_end = matched.t_end
        self.timer = timer or StageTimer()
        self.matched = matched
        self.lifetimes = lifetimes
        self.members = ([(pa, "common") for pa, _pb in matched.common]
                        + [(p, "dying") for p in matched.dying]
                        + [(p, "born") for p in matched.born])
        with self.timer.geometry():
            self.traj = traj if traj is not None else round_trajectory(matched, scene)
            paths = self.traj.paths
            self.references = [
                FieldReference(field2=p.field, geometry=p.geometry, traces=p.traces,
                               spreading=spreading_factor(p.geometry),
                               total_length=p.geometry.total_length)
                for p in paths]
            self.lo = np.array([lifetimes[p.signature].birth_time if kind == "born"
                                else -math.inf for p, kind in self.members])
            self.hi = np.array([lifetimes[p.signature].death_time if kind == "dying"
                                else math.inf for p, kind in self.members])
            self.points = [_interaction_points(p.signature) for p in paths]
            self.rank = signature_ranks(paths)
        self.fallbacks = 0
        self.dropped = 0

    @classmethod
    def from_snapshots(cls, scene: Scene, snap_a: Snapshot, snap_b: Snapshot,
                       dt: float, timer: StageTimer | None = None) -> "EdrtRound":
        timer = timer or StageTimer()
        with timer.geometry():
            matched = match_paths(snap_a, snap_b)
            traj = round_trajectory(matched, scene)
            lifetimes = solve_lifetimes(matched, scene, snap_a.time, snap_b.time, dt,
                                        timer, traj)
        return cls(scene, matched, lifetimes, timer, traj)

    def lifetime_records(self) -> list[LifetimeRecord]:
        out = []
        for path, kind in self.members:
            lt = self.lifetimes[path.signature]
            out.append(LifetimeRecord(signature_str(path.signature),
                                      lt.birth_time, lt.death_time, kind))
        return out

    def predict_batch(self, times) -> list[Snapshot]:
        """Predicted snapshots for several instants of this window.

        One geometry_at call resolves every path at every instant and one
        crossing call gives the round's occlusion and penetration profiles:
        a transient blockage within the window suppresses a path for that
        snapshot only, its lifetime is not affected.  The field
        extrapolation of every included (path, instant) row then runs on the
        arrays in one extrapolate_fields call; the scene is evaluated at an
        instant only for a direct fallback.
        """
        times = [float(t) for t in times]
        t_arr = np.array(times)
        batches = []  # (geometry, path rows, time rows, their rows of g, interactions)
        with self.timer.geometry():
            present = (t_arr >= self.lo[:, None]) & (t_arr < self.hi[:, None])
            resolved = self.traj.geometry_at(t_arr)
            rows = [present[g.index] & ~g.failed for g in resolved]
            self.dropped += sum(int(np.count_nonzero(present[g.index] & g.failed))
                                for g in resolved)
            extra, declared = self.traj.crossings(
                t_arr, [list(np.moveaxis(g.vertices, 2, 0)) for g in resolved], rows)
            for g, mask in zip(resolved, rows):
                ip, it = np.nonzero(mask & ~extra[g.index] & declared[g.index])
                n_pen = np.count_nonzero(g.pen_segments >= 0, axis=1).take(ip)
                for count in set(n_pen.tolist()):
                    same = n_pen == count
                    sub = g.rows(ip[same], it[same])
                    batches.append((g, ip[same].tolist(), it[same].tolist(), sub,
                                    self._interactions(sub)))
        per_time: list[list[tuple[int, Path]]] = [[] for _ in times]
        scenes: dict[int, SceneAtTime] = {}
        with self.timer.field():
            results = iter(extrapolate_fields(
                [self.references[k] for _g, _ip, _it, sub, _i in batches
                 for k in sub.index.tolist()],
                [sub for _g, _ip, _it, sub, _i in batches], self.scene))
            for g, ip, it, sub, interactions in batches:
                for p, i, k, length, inter, result in zip(
                        ip, it, sub.index.tolist(), sub.total_length.tolist(), interactions,
                        results):
                    if result is None:
                        self.fallbacks += 1
                        if i not in scenes:
                            scenes[i] = scene_at(self.scene, times[i])
                        try:
                            result = field_of_path(
                                self.scene, scenes[i],
                                self.traj.path_geometry(g, p, i, scenes[i]))
                        except ConstructionError:
                            self.dropped += 1
                            continue
                    field2, p_dbm = result
                    per_time[i].append((self.rank[k], Path(
                        signature=self.traj.paths[k].signature, interactions=inter,
                        delay=length / C_LIGHT, field=field2, power_dbm=p_dbm)))
        return [Snapshot(time=t, paths=[path for _rank, path in sorted(ranked)])
                for t, ranked in zip(times, per_time)]

    def _interactions(self, rows: TrajectoryGeometry) -> list[list[Interaction]]:
        """The interactions of each row of rows, in signature order."""
        out = []
        for k, verts, pens in zip(rows.index.tolist(), rows.vertices, rows.pen_points):
            out.append([Interaction(m, gid, verts[j] if on_vertex else pens[j])
                        for (m, gid), (on_vertex, j)
                        in zip(self.traj.paths[k].signature, self.points[k])])
        return out


def _interaction_points(signature) -> list[tuple[bool, int]]:
    """Where each interaction's point sits in a TrajectoryGeometry, in
    signature order: (True, vertex index) or (False, penetration index)."""
    out = []
    n_pen = 0
    for m, _gid in signature:
        if m is Mechanism.PENETRATION:
            out.append((False, n_pen))
            n_pen += 1
        else:
            out.append((True, len(out) - n_pen + 1))
    return out


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
