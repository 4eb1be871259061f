"""Scalar forms of package kernels, kept for the tests that call them.

The package computes lifetimes, predictions and extrapolated fields for
whole runs at once.  The tests also ask about one path, one window or one
instant; each function here is a batch of one of the package kernel it
names, so it runs exactly the code a run does.  Unlike `oracles.py`, this
module imports package internals.
"""

from __future__ import annotations

import numpy as np

from raychan.drt import TrajectoryGeometry, _advance
from raychan.edrt import EdrtRound, MatchedPaths, extrapolate_fields, solve_lifetimes
from raychan.geometry import COPLANAR_TOL, signed_boundary_distance
from raychan.rt import Path, PathGeometry, Snapshot, slots_of
from raychan.runs import StageTimer
from raychan.scene import Scene, SceneAtTime, SceneError


def predict_snapshot_drt(reference: Snapshot, scene: Scene, t: float,
                         timer: StageTimer | None = None) -> Snapshot:
    """Advance every reference path to time t, structure frozen.

    No path is added or removed even when an interaction point leaves its
    facet; paths whose geometric construction fails outright are dropped,
    logged and counted in timer.  Fields are recomputed directly from the
    advanced geometry.  A batch of one window and one instant (drt._advance).
    """
    return _advance([(0, p) for p in reference.paths], scene, [[t]], timer or StageTimer())[0]


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


def extrapolate_field(ref: Path, cur: PathGeometry, scene: Scene):
    """Extrapolated receiver field for geometry cur from the reference path
    ref, as make_path returns it (its field, geometry and traces).

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
    return extrapolate_fields([ref], [row], scene)[0]


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
    boundary point (geometry.signed_boundary_distance).  Raises SceneError
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
