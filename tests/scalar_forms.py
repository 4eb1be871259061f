"""Scalar forms of package kernels, kept for the tests that call them.

The package computes lifetimes, predictions and extrapolated fields for
whole runs at once.  The tests also ask about one path, one window or one
instant; each function here is a batch of one of the package kernel it
names, so it runs exactly the code a run does, or the float form of one
path that a batched kernel replaced, kept as its reference.  Unlike
`oracles.py`, this module imports package internals.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from raychan.drt import TrajectoryGeometry
from raychan.edrt import (
    EdrtRound,
    MatchedPaths,
    ReferenceFields,
    extrapolate_fields,
    solve_lifetimes,
)
from raychan.geometry import COPLANAR_TOL, cross3, dot3, sub3, unit3, vertical_pol
from raychan.motion import Motion
from raychan.rt import (
    ETA0,
    ON_GEOMETRY_TOL,
    Mechanism,
    Path,
    PathGeometry,
    PathRows,
    Snapshot,
    make_path,
    polarization_chain,
    slots_of,
    spreading_factor,
)
from raychan.runs import RunResult, StageTimer, time_key
from raychan.scene import Scene, SceneAtTime, SceneError


def predict_snapshot_drt(reference: Snapshot, scene: Scene, t: float,
                         timer: StageTimer | None = None) -> Snapshot:
    """Advance every reference path to time t, structure frozen.

    No path is added or removed even when an interaction point leaves its
    facet; paths whose geometric construction fails outright are dropped,
    logged and counted in timer.  Fields are recomputed directly from the
    advanced geometry.  A batch of one window and one instant (a DRT run's
    edrt.EdrtRound, without lifetimes).
    """
    window = MatchedPaths([(p, p) for p in reference.paths], [], [], reference.time, t)
    [snapshot], _records = EdrtRound(scene, [window], None, timer).predict_run([t])
    return snapshot


def death_time(path: Path, scene: Scene, t_start: float, t_end: float,
               dt: float) -> float:
    """Earliest instant in (t_start, t_end] at which a dying path stops
    existing.

    Scans the window at dt/20 for the first time an interaction point
    crosses its surface boundary (or the image construction collapses),
    refined to the root of its margin; when no geometric cause exists, the earliest
    occlusion onset is used instead.  If neither is found the path dies at
    t_end - dt and the case is logged as unresolved.  A batch of one
    window (edrt.solve_lifetimes).
    """
    window = MatchedPaths(common=[], dying=[path], born=[], t_start=t_start, t_end=t_end)
    return solve_lifetimes([window], scene, dt)[0][path.signature].death_time


def birth_time(path: Path, scene: Scene, t_start: float, t_end: float,
               dt: float) -> float:
    """Latest instant in [t_start, t_end) at which a born path starts
    existing.

    Propagates the interaction points backward from the window end and finds
    the latest time the path was not yet on its geometry (or, when it never
    leaves it, the latest occlusion clearing); the path exists from that
    transition onward.  Falls back to t_start + dt when the whole window
    scans valid.  A batch of one window (edrt.solve_lifetimes).
    """
    window = MatchedPaths(common=[], dying=[], born=[path], t_start=t_start, t_end=t_end)
    return solve_lifetimes([window], scene, dt)[0][path.signature].birth_time


def reference_path(scene: Scene, geom: SceneAtTime, geometry: PathGeometry) -> Path:
    """The Path of geometry at geom's instant as an RT pass makes it, with
    its geometry and chain walk kept for field extrapolation (rt.make_path
    on a batch of one)."""
    [path] = make_path(scene, PathRows.of([geometry], [geom.time]), record=True)
    return path


def extrapolate_field(ref: Path, cur: PathGeometry, scene: Scene):
    """Extrapolated receiver field for geometry cur from the reference path
    ref, as reference_path returns it (its field, geometry and traces).

    Magnitudes follow the exact coefficient/spreading/loss ratios; the phase
    advances by -k times the total length change, keeping each coefficient's
    phase at its reference value.  Returns (field2, power_dbm) or None when
    the Brewster-null fallback applies.  cur goes in as a batch of one row
    (edrt.extrapolate_fields).
    """
    segments = [seg for _fid, seg in slots_of(cur.signature).penetrations]
    row = TrajectoryGeometry(
        np.zeros(1, dtype=int),
        *(np.asarray(a)[None] for a in (cur.vertices, cur.pen_points, cur.pen_params,
                                         cur.seg_lengths, cur.total_length)),
        failed=np.zeros(1, dtype=bool), pen_segments=np.array([segments], dtype=int))
    return extrapolate_fields(np.zeros(1, dtype=int), [row], ReferenceFields([ref], scene))[0]


def predict_snapshot_edrt(matched: MatchedPaths, lifetimes: dict, scene: Scene,
                          t: float) -> Snapshot:
    """Predicted snapshot at time t from matched bracketing snapshots and
    their lifetimes (one window's solve_lifetimes dict).

    Common paths are advanced across the whole window (with a transient
    occlusion check); dying paths are included only before their death time;
    born paths only from their birth time, advanced backward from the window
    end.  Fields are extrapolated from the reference end of each path.  A
    batch of one window and one instant (edrt.EdrtRound.predict_batch).
    """
    return EdrtRound(scene, [matched], [lifetimes]).predict_batch([t])[0]


def point_in_facet(p: np.ndarray, geom: SceneAtTime, fid: str,
                   plane_tol: float = COPLANAR_TOL):
    """Convex-polygon containment of p in facet fid at geom's instant.

    Returns (inside, signed_distance); the distance is positive inside,
    negative outside, with magnitude equal to the distance to the nearest
    boundary point (signed_boundary_distance).  Raises SceneError
    if p is off the facet plane by more than plane_tol.
    """
    i = geom.scene.facet_index[fid]
    f = geom.facets
    p = np.asarray(p, float)
    off = abs(float(np.dot(f.normals[i], p) - f.offsets[i]))
    if off > plane_tol:
        raise SceneError(
            f"point is {off:.3e} m off the plane of facet {fid!r} (tol {plane_tol:g})")
    d = signed_boundary_distance(p, f.origins[i][f.valid[i]], f.inward[i][f.valid[i]])
    return d >= 0.0, d


def on_geometry(scene: Scene, geom: SceneAtTime, geometry: PathGeometry) -> bool:
    """Whether every backbone point of geometry lies on its facet's plane or
    its edge's line at geom's instant, within rt.ON_GEOMETRY_TOL: the check
    of rt.make_path, one path at a time on Python floats."""
    facets = geom.facets
    for (mechanism, gid), vertex in zip(slots_of(geometry.signature).backbone,
                                        geometry.vertices[1:]):
        p = vertex.tolist()
        if mechanism is Mechanism.REFLECTION:
            i = scene.facet_index[gid]
            if abs(dot3(facets.normals[i].tolist(), p) - facets.offsets[i]) > ON_GEOMETRY_TOL:
                return False
        else:
            a, b = geom.edges[scene.edge_index[gid]].tolist()
            d = unit3(sub3(b, a))
            w = sub3(p, a)
            along = dot3(w, d)
            off = (w[0] - along * d[0], w[1] - along * d[1], w[2] - along * d[2])
            if math.sqrt(dot3(off, off)) > ON_GEOMETRY_TOL:
                return False
    return True


def field_on_floats(scene: Scene, geom: SceneAtTime, geometry: PathGeometry):
    """(field_2vector, power_dbm) of geometry at geom's instant, one path on
    Python floats: rt.make_path's arithmetic before it ran on arrays,
    from the chain walk on.  None where the on-geometry check drops the
    path; the walk's ConstructionError propagates."""
    if not on_geometry(scene, geom, geometry):
        return None
    slots = slots_of(geometry.signature)
    verts = geometry.vertices.tolist()
    e_vec = polarization_chain(scene, verts, geometry.seg_lengths.tolist(),
                               geometry.total_length, slots)
    diffracted = bool(slots.backbone) and slots.backbone[0][0] is Mechanism.DIFFRACTION
    s_pre = float(geometry.seg_lengths[0]) if diffracted else 0.0
    scale = (spreading_factor(geometry.total_length, s_pre, diffracted)
             * cmath.exp(-1j * scene.wavenumber * geometry.total_length))
    e_vec = (e_vec[0] * scale, e_vec[1] * scale, e_vec[2] * scale)
    ray = unit3(sub3(verts[-1], verts[-2]))
    v_hat = vertical_pol(ray)
    f_v, f_h = dot3(e_vec, v_hat), dot3(e_vec, cross3(v_hat, ray))
    magnitude = math.hypot(abs(f_v), abs(f_h))
    power = (-math.inf if magnitude <= 0.0 else 10.0 * math.log10(
        magnitude ** 2 * scene.wavelength ** 2 / (8.0 * math.pi * ETA0)) + 30.0)
    return np.array([f_v, f_h]), power


def signed_boundary_distance(p, vertices, inward) -> float:
    """Signed in-plane distance from p to the polygon boundary.

    Positive inside, negative outside; magnitude is the distance to the
    nearest boundary point.  p is assumed to lie on the polygon plane, and
    inward holds the polygon's inward edge normals (see
    geometry.polygon_frames).
    """
    v = np.asarray(vertices, float)
    d = np.einsum("ij,ij->i", p - v, inward)
    d_min = float(np.min(d))
    if d_min >= 0.0:
        return d_min
    # outside: distance to the nearest edge segment
    nxt = np.roll(v, -1, axis=0)
    seg = nxt - v
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    t = np.clip(np.einsum("ij,ij->i", p - v, seg) / seg_len2, 0.0, 1.0)
    closest = v + t[:, None] * seg
    dist = np.min(np.linalg.norm(closest - p, axis=1))
    return -float(dist)


def snapshot_at(run: RunResult, t: float) -> Snapshot:
    """The snapshot of run at time t (microsecond resolution)."""
    key = time_key(t)
    for s in run.snapshots:
        if time_key(s.time) == key:
            return s
    raise KeyError(f"no snapshot at t={t}")


def broadcast_motion_law(motion: Motion, t) -> tuple[np.ndarray, np.ndarray]:
    """Position and velocity of motion at every time of t, t.shape + (3,),
    by the form that motion.position_at and velocity_at replaced: each
    segment's law on dt[..., None], broadcast against the three
    coordinates, then the active segment's entry (segment 0 also before
    its t_ref).  Kept as the reference of the per-coordinate form."""
    t = np.asarray(t, dtype=float)
    laws = []
    for m in motion.segments:
        dt = (t - m.t_ref)[..., None]
        laws.append((m.r0 + m.v0 * dt + 0.5 * m.a0 * dt * dt, m.v0 + m.a0 * dt))
    starts = [m.t_ref for m in motion.segments]
    active = np.maximum(np.searchsorted(starts, t, side="right") - 1, 0)[None, ..., None]
    return tuple(np.take_along_axis(np.stack(law), active, axis=0)[0] for law in zip(*laws))
