"""Enhanced dynamic ray tracing: bidirectional geometry and field extrapolation.

Each prediction window is bracketed by two full ray-tracing snapshots.  Paths
present in both are extrapolated across the whole window; paths present in
only one are assigned a birth or death time by locating the instant their
geometric construction stops (or starts) being valid, so the predicted
multipath structure changes inside the window instead of waiting for the next
reference pass.  That instant is the root of a signed margin: a continuous
quantity, such as a reflection point's least signed edge distance in its
polygon, whose sign is the path's existence (drt.PathTrajectory).  Field
magnitudes are not recomputed: they are scaled by the exact ratio of
interaction coefficients, spreading factors and slab losses between the
reference time and the prediction time, forward from the window start for
surviving paths and backward from the window end for newborn ones.

A run is solved at run level, on the schedule it shares with DRT
(runs.prediction_run).  It traces its N + 1 reference passes first, matches
each window's bracketing pair, and then treats every path of every window as
one row of a drt.PathTrajectory, grouped inside by backbone shape, each row
queried over its own window's times.  One construction-and-crossing
kernel resolves them over (paths x times): the lifetime scans of every dying
and born path of the run (one existence_scan per 100-sample chunk, on
masks), the refinement of the brackets they find to the roots of their
margins (one validity_scan per root-finder call, three samples per pending
path) and the predictions (one geometry_at for all instants of all windows,
then one crossing call for their occlusion and penetration profiles).  Each
crossing call is the crossing profile of an RT pass
(rt.occlusion_profiles_batch), reduced
against the penetrations that each signature declares: a path is present
only while it crosses exactly those slabs and no opaque facet, as an RT
pass would find it.  Field extrapolation reads its
geometry from the same arrays and computes each mechanism's coefficients in
one pass over arrays; for diffractions it runs the ray tracer's formulas
on arrays instead of floats: the wedge angles and the UTD pair by
rt.diffraction_coefficients, as DRT does, and rt.spreading_factor.  The
reference paths' chain walks are gathered into arrays once
(ReferenceFields) and indexed per row, the static data by facet or edge
index.  Path objects are built only for the output snapshots, their
interactions by rt.interactions_of, the rule of RT and DRT paths; the
direct field fallbacks of a run go through one rt.make_path call on the
rows' own instants.  A single window, or a single path's birth or death,
is a batch of one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import fresnel_from_cos, transmission_from_cos
from .drt import PathTrajectory, TrajectoryGeometry, WindowRows
from .geometry import dot3
from .rt import (
    GRAZING_COS,
    Interaction,
    InteractionTrace,
    Mechanism,
    Path,
    PathRows,
    Snapshot,
    diffraction_coefficients,
    interactions_of,
    make_path,
    powers_dbm,
    signature_str,
    slots_of,
    spreading_factor,
)
from .runs import PredictionConfig, RunResult, StageTimer, prediction_run
from .scene import C_LIGHT, Scene

log = logging.getLogger(__name__)

LIFETIME_SAMPLE_DIVISOR = 20   # boundary scan step = dt / 20
BISECTION_TOL = 1e-12          # s; the root finder stops at brackets 2x this wide
COEFF_FLOOR = 1e-12            # Brewster-null reference guard


@dataclass
class MatchedPaths:
    """Partition of two bracketing snapshots by signature equality."""

    common: list[tuple[Path, Path]]
    dying: list[Path]
    born: list[Path]
    t_start: float
    t_end: float


def _members(windows: list[MatchedPaths]) -> list[tuple[int, Path, str]]:
    """(window, path, kind) of every path of consecutive windows, window by
    window: common (from the window start), dying, born.  A path born in one
    window and dying in the next is a member of both."""
    return [(w, p, kind) for w, m in enumerate(windows)
            for kind, paths in (("common", [pa for pa, _pb in m.common]),
                                ("dying", m.dying), ("born", m.born))
            for p in paths]


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
_ROOT_CALLS = 64  # most root-finder calls; a bracket left then gives its midpoint


def _refine_transitions(traj: PathTrajectory, t_valid: np.ndarray,
                        t_invalid: np.ndarray, include_occlusion: np.ndarray,
                        timer: StageTimer) -> np.ndarray:
    """The validity transitions bracketed by valid and invalid times, one
    per path of traj, refined to the roots of their margins.

    A batched, safeguarded root finder on each row's signed margin
    (PathTrajectory.validity_scan: the full margin where include_occlusion
    is set, the geometric one elsewhere).  Each call evaluates every pending
    row at three times in one validity_scan: first the bracket's ends and
    midpoint, then the inverse quadratic interpolate of the bracket's ends
    and the nearest other sample, flanked by two guards at twice its
    distance from the secant root (at least BISECTION_TOL), so that the
    bracket closes from both sides.  A row whose margin is not finite at an
    end of its bracket, or whose bracket did not halve, takes the quarter
    points instead.  The new bracket is the first sign change from the valid
    end, as in the scan.  A row is done when its bracket is at most
    2 BISECTION_TOL wide (or four float spacings); its time is the secant
    root inside it.
    """
    n_rows = t_valid.size
    lo, hi = t_valid.astype(float), t_invalid.astype(float)
    f_lo, f_hi = np.full(n_rows, np.inf), np.full(n_rows, -np.inf)
    c, f_c = np.full(n_rows, np.nan), np.full(n_rows, np.nan)
    out = np.full(n_rows, np.nan)
    rows = np.arange(n_rows)
    theta = np.tile([0.0, 0.5, 1.0], (n_rows, 1))  # fractions of each bracket
    for call in range(_ROOT_CALLS):
        width = hi[rows] - lo[rows]
        ts = lo[rows, None] + theta * width[:, None]
        batch = traj if rows.size == n_rows else traj.take(rows)
        f = batch.validity_scan(ts, include_occlusion[rows])
        timer.count("lifetime_bisect_samples", ts.size)
        if call == 0:
            # the scan's signs hold at the ends: a reference instant is
            # valid without its margin saying so
            f[:, 0] = np.where(f[:, 0] >= 0.0, f[:, 0], np.inf)
            f[:, -1] = np.where(f[:, -1] < 0.0, f[:, -1], -np.inf)
            points, margins = ts, f
        else:
            points = np.column_stack([lo[rows], ts, hi[rows]])
            margins = np.column_stack([f_lo[rows], f, f_hi[rows]])
        r = np.arange(rows.size)
        i = np.argmax(~(margins >= 0.0), axis=1)  # every row has its invalid end
        lo[rows], f_lo[rows] = points[r, i - 1], margins[r, i - 1]
        hi[rows], f_hi[rows] = points[r, i], margins[r, i]
        # the third point: the nearer neighbour of the bracket with a margin
        last = points.shape[1] - 1
        before, after = np.maximum(i - 2, 0), np.minimum(i + 1, last)
        gap_before = np.where((i >= 2) & np.isfinite(margins[r, before]),
                              np.abs(points[r, before] - points[r, i - 1]), np.inf)
        gap_after = np.where((i < last) & np.isfinite(margins[r, after]),
                             np.abs(points[r, after] - points[r, i]), np.inf)
        third = np.where(gap_before <= gap_after, before, after)
        c[rows] = points[r, third]
        f_c[rows] = np.where(np.minimum(gap_before, gap_after) < np.inf,
                             margins[r, third], np.nan)
        slow = (call > 0) & (np.abs(hi[rows] - lo[rows]) > 0.5 * np.abs(width))
        width = hi[rows] - lo[rows]
        finite = np.isfinite(f_lo[rows]) & np.isfinite(f_hi[rows])
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = np.where(finite, f_lo[rows] / (f_lo[rows] - f_hi[rows]), 0.5)
            tol = np.maximum(BISECTION_TOL, 2.0 * np.spacing(np.abs(hi[rows])))
            done = np.abs(width) <= 2.0 * tol
            out[rows[done]] = lo[rows[done]] + secant[done] * width[done]
            keep = ~done
            rows, width, slow, finite, secant, tol = (
                x[keep] for x in (rows, width, slow, finite, secant, tol))
            if not rows.size:
                return out
            # inverse quadratic interpolation through the bracket's ends,
            # at fractions 0 and 1, and the third point, at fraction x
            y0, y1, y2 = f_lo[rows], f_hi[rows], f_c[rows]
            x = (c[rows] - lo[rows]) / width
            quad = (y0 * y2 / ((y1 - y0) * (y1 - y2))
                    + x * y0 * y1 / ((y2 - y0) * (y2 - y1)))
            good = finite & np.isfinite(quad) & (quad > 0.0) & (quad < 1.0)
            guess = np.where(good, quad, secant)
            guard = np.clip(2.0 * np.abs(quad - secant), tol / np.abs(width), 0.25)
        guard = np.where(good, guard, 0.25)
        theta = np.column_stack([np.maximum(guess - guard, 0.5 * guess), guess,
                                 np.minimum(guess + guard, 0.5 * (1.0 + guess))])
        theta[~finite | slow] = (0.25, 0.5, 0.75)
    out[rows] = 0.5 * (lo[rows] + hi[rows])
    return out


def _transitions(traj: PathTrajectory, times: np.ndarray, anchors: np.ndarray,
                 timer: StageTimer) -> np.ndarray:
    """First validity transition of each path along its row of times
    (P, N), geometric causes first; NaN where none is found.

    Scans the geometric existence of every path (interaction points on
    their surfaces/edges, construction solvable) chunk by chunk, each path
    stopping at its first geometric failure; only a path with no geometric
    cause anywhere in the window falls back to its earliest
    occlusion-profile deviation.  Both predicates come from one combined
    scan pass (existence_scan, as masks), whose crossing call takes only
    the paths that still need it: no occlusion onset found yet, or a
    declared penetration.  anchors (P,) are the valid reference instants
    before each row; the found brackets, one scan step wide, are then
    refined together to the roots of their margins (_refine_transitions).
    """
    n_paths, n_times = times.shape
    first_geo = np.full(n_paths, -1)
    first_full = np.full(n_paths, -1)
    penetrates = (traj.pen_seg >= 0).any(axis=1)
    for start in range(0, n_times, _SCAN_CHUNK):
        active = np.flatnonzero(first_geo < 0)
        if not active.size:
            break
        chunk = times[active, start:start + _SCAN_CHUNK]
        batch = traj if active.size == n_paths else traj.take(active)
        crossing = (first_full[active] < 0) | penetrates[active]
        geo_ok, full_ok = batch.existence_scan(chunk, None if crossing.all() else crossing)
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
        out[found] = _refine_transitions(batch, t_prev, times[found, i],
                                         first_geo[found] < 0, timer)
    return out


def _lifetime_edges(traj: PathTrajectory, dying: np.ndarray, t_start: np.ndarray,
                    t_end: np.ndarray, dt: float, timer: StageTimer) -> list[tuple[float, bool]]:
    """(transition time, fallback) of every path of traj, dying where dying
    is set and born elsewhere, each in its own window [t_start, t_end] (P,);
    the windows are of one length.

    The scan runs away from the reference end of each window on the dt/20
    grid: forward from t_start for a dying path, backward from t_end for a
    born one.  All paths are scanned together, and the brackets found are
    refined together to the roots of their margins, to BISECTION_TOL
    (_transitions).  An unresolved case is logged and falls back to one
    step inside the far window edge.
    """
    if not traj.paths:
        return []
    step = dt / LIFETIME_SAMPLE_DIVISOR
    counts = {round(x) for x in ((t_end - t_start) / step).tolist()}
    if len(counts) != 1:
        raise ValueError("lifetime windows must be of one length")
    offsets = step * np.arange(1, counts.pop() + 1)
    times = np.where(dying[:, None], t_start[:, None] + offsets, t_end[:, None] - offsets)
    anchors = np.where(dying, t_start, t_end)
    found = _transitions(traj, times, anchors, timer)
    out = []
    for path, dies, t, lo, hi in zip(traj.paths, dying.tolist(), found.tolist(),
                                     t_start.tolist(), t_end.tolist()):
        if not math.isnan(t):
            out.append((t, False))
        elif dies:
            log.warning("edrt: no geometric death found for %s in (%.3f, %.3f]; "
                        "falling back to window end minus dt", path.signature, lo, hi)
            out.append((hi - dt, True))
        else:
            log.warning("edrt: no geometric birth found for %s in [%.3f, %.3f); "
                        "falling back to window start plus dt", path.signature, lo, hi)
            out.append((lo + dt, True))
    return out


def solve_lifetimes(windows: list[MatchedPaths], scene: Scene, dt: float,
                    timer: StageTimer | None = None,
                    traj: PathTrajectory | None = None) -> list[dict]:
    """Lifetime of every path of consecutive windows: one dict per window,
    keyed by signature.

    Common paths live for their whole window; dying and born paths get
    solved boundary-crossing times, the roots of their margins, flagged as
    fallbacks when unresolved.  The dying and born paths of every window are
    scanned and refined in one batch, each over its own window.  A timer,
    when given, counts the (path, time) samples of the scans
    (lifetime_scan_samples) and of the root finder (lifetime_bisect_samples).
    traj is the windows' trajectory, one row per member (_members), built
    when not given.
    """
    members = _members(windows)
    if traj is None:
        traj = PathTrajectory([p for _w, p, _kind in members], scene)
    kinds = np.array([kind for _w, _p, kind in members], dtype=str)
    rows = np.flatnonzero(kinds != "common")
    bounds = np.array([(windows[w].t_start, windows[w].t_end) for w, _p, _kind in members],
                      float).reshape(-1, 2)[rows]
    edges = iter(_lifetime_edges(traj.take(rows), kinds[rows] == "dying", bounds[:, 0],
                                 bounds[:, 1], dt, timer or StageTimer()))
    lifetimes: list[dict] = [{} for _ in windows]
    for w, p, kind in members:
        m = windows[w]
        if kind == "common":
            lifetimes[w][p.signature] = Lifetime(p, m.t_start, m.t_end)
            continue
        t, fallback = next(edges)
        lifetimes[w][p.signature] = (Lifetime(p, m.t_start, t, fallback) if kind == "dying"
                                     else Lifetime(p, t, m.t_end, fallback))
    return lifetimes


# ---------------------------------------------------------------------------
# Field extrapolation
# ---------------------------------------------------------------------------

class ReferenceFields:
    """The field references of K paths, gathered into arrays once.

    Each path is an RT pass's Path with its chain walk (rt.make_path records
    an InteractionTrace per interaction, backbone order, then penetrations).
    Per path: its length, the length before its first interaction and its
    field; per path and interaction slot, (K, Q) with Q the most
    interactions of any path: the coefficient that carried the field, its
    channel, the slab crossing length, and the facet or edge of the
    interaction, by whose index extrapolate_fields gathers the static data
    (Scene.statics).  kinds holds each path's interaction mechanisms.
    """

    def __init__(self, paths: list[Path], scene: Scene):
        self.scene = scene
        statics = scene.statics()
        n_refs = len(paths)
        self.total = np.array([p.geometry.total_length for p in paths], float)
        self.s_pre = np.array([p.geometry.seg_lengths[0] for p in paths], float)
        self.field = np.array([p.field for p in paths], complex).reshape(n_refs, 2)
        layouts = [statics.owners.get(p.signature) or _layout(scene, p.signature) for p in paths]
        self.kinds = [kinds for kinds, _owners in layouts]
        n_slots = max(map(len, self.kinds), default=0)
        # every slot's trace and owner, path by path, padded with neutral ones
        pad = InteractionTrace(None, (1.0 + 0j, 1.0 + 0j), 0)
        traces = [tr for p in paths for tr in p.traces + [pad] * (n_slots - len(p.traces))]
        shape = (n_refs, n_slots)
        self.coeff = np.array([tr.coeff[tr.label] for tr in traces], complex).reshape(shape)
        self.label = np.array([tr.label for tr in traces], int).reshape(shape)
        self.d_t = np.array([tr.d_t for tr in traces], float).reshape(shape)
        self.owner = np.array([i for kinds, owners in layouts
                               for i in owners + (0,) * (n_slots - len(kinds))],
                              int).reshape(shape)


def _layout(scene: Scene, signature) -> tuple:
    """(mechanisms, facet or edge indices) of a signature's interactions in
    chain-walk order, backbone first, then penetrations; cached in
    Scene.statics by signature."""
    sl = slots_of(signature)
    kinds = tuple(m for m, _gid in sl.backbone) + (Mechanism.PENETRATION,) * len(sl.penetrations)
    owners = tuple(scene.facet_index[gid] if m is Mechanism.REFLECTION else scene.edge_index[gid]
                   for m, gid in sl.backbone)
    owners += tuple(scene.facet_index[fid] for fid, _seg in sl.penetrations)
    scene.statics().owners[signature] = layout = (kinds, owners)
    return layout


def extrapolate_fields(refs: np.ndarray, batches, references: ReferenceFields):
    """Extrapolated receiver fields of many (reference, geometry) pairs at
    once: one (field2, power_dbm) entry per row, or None.

    Magnitudes follow the exact coefficient/spreading/loss ratios; the phase
    advances by -k times the total length change, keeping each coefficient's
    phase at its reference value.

    batches are TrajectoryGeometry row batches (TrajectoryGeometry.rows),
    each of one shape and one number of penetrations, and refs (N,) holds
    the position in references of every row of every batch, in order.
    Everything runs on arrays: each interaction slot of each batch
    contributes its segment vectors, and then per mechanism the incidence
    cosines or wedge angles, the coefficients (one batched call) and their
    ratios are computed for all rows at once, the reference data indexed by
    (row, slot).  Entries are None where the Brewster-null, grazing-slab or
    ray-along-the-edge fallback applies.
    """
    scene = references.scene
    statics = scene.statics()
    n_all = len(refs)
    positions = np.arange(n_all)
    diffracted = np.zeros(n_all, dtype=bool)
    # per mechanism, in slot order: each slot's rows, its slot index and row
    # count, the segment into the interaction (vector and length), and for
    # an edge the points before, at and after it
    gathered = {kind: ([], [], [], [], [], []) for kind in _PRODUCT_ORDER}
    start = 0
    for rows in batches:
        n_rows = rows.total_length.shape[0]
        if not n_rows:
            continue
        batch = slice(start, start + n_rows)
        verts, seg_lengths = rows.vertices, rows.seg_lengths
        n_backbone = verts.shape[1] - 2
        for q, kind in enumerate(references.kinds[refs[start]]):
            at, slot, count, d_in, length, around = gathered[kind]
            at.append(positions[batch])
            slot.append(q)
            count.append(n_rows)
            if kind is Mechanism.PENETRATION:
                r, seg = np.arange(n_rows), rows.pen_segments[:, q - n_backbone]
                d_in.append(verts[r, seg + 1] - verts[r, seg])
                length.append(seg_lengths[r, seg])
            else:
                d_in.append(verts[:, q + 1] - verts[:, q])
                length.append(seg_lengths[:, q])
            if kind is Mechanism.DIFFRACTION:
                diffracted[batch] = True
                around.append(verts[:, q:q + 3])
        start += n_rows
    totals = np.concatenate([rows.total_length for rows in batches] + [[]])
    s_pre = np.concatenate([rows.seg_lengths[:, 0] for rows in batches] + [[]])

    # the ratio product per row: reflections, then penetrations, then
    # diffractions, each in slot order (ufunc.at applies repeated rows in order)
    alive = np.ones(n_all, dtype=bool)
    ratio = np.ones(n_all, complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for kind, (at, slot, count, d_in, length, around) in gathered.items():
            if not at:
                continue
            at, d_in, length = (np.concatenate(x) for x in (at, d_in, length))
            slot = np.repeat(slot, count)
            ref = refs[at]
            coeff, owner = references.coeff[ref, slot], references.owner[ref, slot]
            dead = np.abs(coeff) < COEFF_FLOOR
            if kind is Mechanism.DIFFRACTION:
                (c0, c1), along_edge = diffraction_coefficients(
                    scene, owner, np.concatenate(around), length, totals[at])
                dead |= along_edge
            else:
                eps = statics.facet_eps[owner]
                n = statics.epoch.normals[owner]
                cos_th = np.minimum(np.abs(dot3(d_in.T, n.T)) / length, 1.0)
                if kind is Mechanism.REFLECTION:
                    c0, c1 = fresnel_from_cos(cos_th, eps)
                else:
                    dead |= cos_th < GRAZING_COS  # grazing slab crossing: direct fallback
                    c0, c1, d_t = transmission_from_cos(cos_th, eps, statics.thickness[owner])
            alive[at[dead]] = False
            np.multiply.at(ratio, at, np.where(references.label[ref, slot] == 0, c0, c1) / coeff)
            if kind is Mechanism.PENETRATION:
                np.multiply.at(ratio, at, np.exp(
                    -statics.alpha[owner] * (d_t - references.d_t[ref, slot])))
    ref_totals = references.total[refs]
    spread = (spreading_factor(totals, s_pre, diffracted)
              / spreading_factor(ref_totals, references.s_pre[refs], diffracted))
    phase = np.exp(-1j * scene.wavenumber * (totals - ref_totals))
    field2 = references.field[refs]
    field2 *= (ratio * spread * phase)[:, None]
    mag = np.hypot(np.abs(field2[:, 0]), np.abs(field2[:, 1]))
    out = list(zip(field2, powers_dbm(mag.tolist(), scene)))
    for r in np.flatnonzero(~alive).tolist():
        out[r] = None
    return out


# the order of the ratio product
_PRODUCT_ORDER = (Mechanism.REFLECTION, Mechanism.PENETRATION, Mechanism.DIFFRACTION)


# ---------------------------------------------------------------------------
# Prediction over windows
# ---------------------------------------------------------------------------

class EdrtRound:
    """Matching, lifetimes and per-instant prediction for one or more
    consecutive windows.

    windows holds each window's MatchedPaths and lifetimes its
    solve_lifetimes result.  Every path of every window is one row of
    rows (a drt.WindowRows, built when not given), window by window, so
    that a path born in one window and dying in the next has a row in each;
    traj is rows' trajectory.  A row's field reference is its RT pass's
    Path, with the chain walk that pass recorded, and lo and hi bound the
    instants [lo, hi) at which it is present.
    """

    def __init__(self, scene: Scene, windows: list[MatchedPaths], lifetimes: list[dict],
                 timer: StageTimer | None = None, rows: WindowRows | None = None):
        self.scene = scene
        self.timer = timer or StageTimer()
        self.windows = windows
        self.lifetimes = lifetimes
        self.members = _members(windows)
        with self.timer.geometry():
            self.rows = rows if rows is not None else WindowRows(
                [(w, p) for w, p, _kind in self.members], scene)
            self.traj = self.rows.traj
            spans = [(lifetimes[w][p.signature], kind) for w, p, kind in self.members]
            self.slots = [slots_of(p.signature) for p in self.traj.paths]
            self.lo = np.array([lt.birth_time if kind == "born" else -math.inf
                                for lt, kind in spans])
            self.hi = np.array([lt.death_time if kind == "dying" else math.inf
                                for lt, kind in spans])
        self.fallbacks = 0
        self.dropped = 0

    @classmethod
    def from_snapshots(cls, scene: Scene, references: list[Snapshot], dt: float,
                       timer: StageTimer | None = None) -> "EdrtRound":
        """The windows between consecutive reference snapshots: one
        match_paths call per window, then one solve_lifetimes call for all."""
        timer = timer or StageTimer()
        with timer.geometry():
            windows = [match_paths(a, b) for a, b in zip(references, references[1:])]
            rows = WindowRows([(w, p) for w, p, _kind in _members(windows)], scene)
            lifetimes = solve_lifetimes(windows, scene, dt, timer, rows.traj)
        return cls(scene, windows, lifetimes, timer, rows)

    def lifetime_records(self) -> list[LifetimeRecord]:
        """One record per row, window by window: common, dying, born."""
        out = []
        for w, path, kind in self.members:
            lt = self.lifetimes[w][path.signature]
            out.append(LifetimeRecord(signature_str(path.signature),
                                      lt.birth_time, lt.death_time, kind))
        return out

    def predict_batch(self, times) -> list[Snapshot]:
        """Predicted snapshots at one row of instants per window, (W, T),
        or (T,) for a single window; window by window, in time order.

        Each path is queried at its own window's instants, so one
        geometry_at call resolves every path of every window and one
        crossing call gives their occlusion and penetration profiles: a
        transient blockage within a window suppresses a path for that
        snapshot only, its lifetime is not affected.  The field
        extrapolation of every included (path, instant) row then runs on the
        arrays in one extrapolate_fields call, and the rows it leaves to a
        direct field in one make_path call.
        """
        times = np.reshape(np.asarray(times, float), (len(self.windows), -1))
        t_rows = times[self.rows.window]
        batches = []  # (geometry, path rows, time rows, their rows of g, interactions)
        with self.timer.geometry():
            present = (t_rows >= self.lo[:, None]) & (t_rows < self.hi[:, None])
            resolved = self.traj.geometry_at(t_rows)
            rows = [present[g.index] & ~g.failed for g in resolved]
            self.dropped += sum(int(np.count_nonzero(present[g.index] & g.failed))
                                for g in resolved)
            clear, declared = self.traj.crossings(
                t_rows, [list(np.moveaxis(g.vertices, 2, 0)) for g in resolved], rows)
            for g, mask in zip(resolved, rows):
                ip, it = np.nonzero(mask & clear[g.index] & declared[g.index])
                n_pen = np.count_nonzero(g.pen_segments >= 0, axis=1).take(ip)
                for count in set(n_pen.tolist()):
                    same = n_pen == count
                    sub = g.rows(ip[same], it[same])
                    batches.append((g, ip[same].tolist(), it[same].tolist(), sub,
                                    self._interactions(sub)))
        with self.timer.field():
            index = np.concatenate([sub.index for _g, _ip, _it, sub, _i in batches]
                                   + [[]]).astype(int)
            results = extrapolate_fields(index, [sub for _g, _ip, _it, sub, _i in batches],
                                         ReferenceFields(self.traj.paths, self.scene))
            signatures = [path.signature for path in self.traj.paths]
            delays = np.concatenate([sub.total_length for _g, _ip, _it, sub, _i in batches]
                                    + [[]]) / C_LIGHT
            placed = [(k, i, Path(signatures[k], inter, delay, *result))
                      for k, i, delay, inter, result in zip(
                          index.tolist(), (i for _g, _ip, it, _s, _i in batches for i in it),
                          delays.tolist(),
                          (x for _g, _ip, _it, _s, inters in batches for x in inters), results)
                      if result is not None]
            direct = []
            if None in results:
                start = 0
                for g, ip, it, sub, _i in batches:
                    batch = results[start:start + len(ip)]
                    start += len(ip)
                    direct += [(k, i, self.traj.path_geometry(g, p, i))
                               for k, p, i, result in zip(sub.index.tolist(), ip, it, batch)
                               if result is None]
            if direct:
                # the direct field fallbacks, in one make_path call
                self.fallbacks += len(direct)
                paths = make_path(self.scene, PathRows.of(
                    [geometry for _k, _i, geometry in direct],
                    [times[self.rows.window[k], i] for k, i, _g in direct]))
                self.dropped += sum(path is None for path in paths)
                placed += [(k, i, path) for (k, i, _g), path in zip(direct, paths)
                           if path is not None]
        return self.rows.snapshots(times, placed)

    def _interactions(self, rows: TrajectoryGeometry) -> list[list[Interaction]]:
        """The interactions of each row of rows, in signature order."""
        return [interactions_of(self.slots[k], verts, pens)
                for k, verts, pens in zip(rows.index.tolist(), rows.vertices, rows.pen_points)]


def edrt_run(scene: Scene, config: PredictionConfig,
             timer: StageTimer | None = None) -> RunResult:
    """Bidirectional prediction over all windows.

    Window n is bracketed by the reference snapshots at n*t_c and
    (n+1)*t_c, which runs.prediction_run traces first, N + 1 passes for N
    windows.  All windows are then solved at once
    (EdrtRound.from_snapshots): one match_paths call per window, one
    solve_lifetimes call and one predict_batch call for all.
    """
    def predict(references, times, timer):
        rnd = EdrtRound.from_snapshots(scene, references, config.dt, timer)
        snapshots = rnd.predict_batch(times)
        if rnd.dropped:
            log.warning("edrt run: dropped %d path instance(s)", rnd.dropped)
        timer.count("dropped_paths", rnd.dropped)
        timer.count("direct_fallbacks", rnd.fallbacks)
        timer.count("lifetime_fallbacks", sum(lt.fallback for window in rnd.lifetimes
                                              for lt in window.values()))
        return snapshots, rnd.lifetime_records()

    return prediction_run("edrt", scene, config, predict, timer)
