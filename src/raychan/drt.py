"""Baseline dynamic ray tracing: geometry extrapolation with frozen structure.

Within each prediction window the multipath structure found by the reference
ray-tracing pass at its start is kept fixed; only the interaction points are
moved.  A run follows the schedule it shares with E-DRT
(runs.prediction_run): it traces its N + 1 reference passes first.  Then
every path of every window's start pass is one row of one batched
PathTrajectory, grouped inside by backbone shape (line of sight, one or two
reflections, or one diffraction, each path with or without a penetration),
and one call resolves every row at its own window's prediction instants, as
arrays over (rows x times), one kernel per shape: the exact geometric
construction is re-solved against the scene displaced to each query time,
which is exact for the polynomial motion model.  WindowRows holds that
trajectory with each row's window and signature rank, and assembles the
predicted snapshots, for E-DRT as well.  The
constructions are the RT pass's own kernels: rt.reflection_chains (the image
cascade), rt.fermat_points (the diffraction point) and rt.slab_crossings
(the penetrations), and rt.path_geometry_of assembles a row's PathGeometry.
Fields are then computed directly, path by path (make_path is DRT's field
stage).  A reflection point is allowed to slide off its facet and a stale
line-of-sight path is kept when it becomes blocked: those are the documented
error modes of the approach, resolved only by the next reference pass.
E-DRT reuses the same kernel for its lifetime scans, its bisection and its
predictions.
"""

from __future__ import annotations

import copy
import logging
from typing import NamedTuple

import numpy as np

from .rt import (
    ConstructionError,
    Mechanism,
    Path,
    PathGeometry,
    Snapshot,
    _backbone_of,
    _owner_ids_for,
    _penetration_slots,
    facet_crossings,
    fermat_points,
    make_path,
    path_geometry_of,
    reflection_chains,
    signature_sort_key,
    slab_crossings,
)
from .runs import PredictionConfig, RunResult, StageTimer, prediction_run
from .scene import Scene, SceneAtTime, scene_at

log = logging.getLogger(__name__)


def shape_of(signature) -> tuple:
    """The backbone mechanisms of a signature, penetrations left out: LOS
    (), R, RR or D.  Paths of one shape share one construction kernel."""
    return tuple(m for m, _gid in signature if m is not Mechanism.PENETRATION)


class TrajectoryGeometry(NamedTuple):
    """Resolved geometry of the paths of one shape at many instants.

    The leading axes are (paths, times) as returned by
    PathTrajectory.geometry_at, or one axis of (path, instant) rows after
    rows().  index gives each path's (or row's) position in the trajectory.
    Values in failed rows are meaningless.
    """

    index: np.ndarray         # (P,) or (N,)
    vertices: np.ndarray      # (..., V, 3): Tx, backbone points, Rx
    pen_points: np.ndarray    # (..., n_pen, 3) slab crossing points
    pen_params: np.ndarray    # (..., n_pen) their parameters along their segments
    seg_lengths: np.ndarray   # (..., V - 1)
    total_length: np.ndarray  # (...)
    failed: np.ndarray        # (...) bool: the construction is impossible
    pen_segments: np.ndarray  # (P,) or (N,) + (n_pen,): segment of each
                              # penetration, -1 past a path's last one

    def rows(self, ip: np.ndarray, it: np.ndarray) -> "TrajectoryGeometry":
        """The (path, instant) rows (ip[k], it[k]) along one axis."""
        flat = ip * self.failed.shape[1] + it
        return TrajectoryGeometry(
            self.index.take(ip),
            *(_take_rows(a, flat) for a in (self.vertices, self.pen_points,
                                            self.pen_params, self.seg_lengths,
                                            self.total_length, self.failed)),
            self.pen_segments.take(ip, axis=0))


def _take_rows(a: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """a[ip, it] for flat = ip * T + it, a being (P, T, ...); ndarray.take
    copies the same values as fancy indexing at a fraction of its cost."""
    return a.reshape((a.shape[0] * a.shape[1],) + a.shape[2:]).take(flat, axis=0)


class _Shape:
    """The paths of one shape within a PathTrajectory: per-path arrays and
    their displacement to the query times.

    index gives each path's position in the trajectory.  The per-path
    arrays (_PER_PATH, path axis first) hold the facets each segment ignores
    (its owners), each path's penetrations (slab facet and segment, padded
    with -1 up to the most any path of the shape has), and the facets of
    each reflection with their planes and polygons or the diffraction edge.
    The constructions themselves are the rt kernels (reflection_chains,
    fermat_points, slab_crossings), run on these arrays moved to each time.
    """

    _PER_PATH = ("exclude", "pen_seg", "pen_facet", "pen_normal", "pen_offset",
                 "edge_a", "edge_b", "edge_d", "edge_owner",
                 "chain", "normal", "offset", "origins", "inward", "valid")

    def __init__(self, scene: Scene, paths: list[Path], index: np.ndarray):
        statics = scene.statics()
        epoch, ids = statics.epoch, statics.id_index
        self.scene = scene
        self.index = index
        self.diffraction = Mechanism.DIFFRACTION in shape_of(paths[0].signature)
        backbones = [_backbone_of(p.signature) for p in paths]
        n_paths, n_seg = len(paths), len(backbones[0]) + 1
        slots = [_penetration_slots(p.signature) for p in paths]
        n_pen = max(len(sl) for sl in slots)
        pen_seg = np.full((n_paths, n_pen), -1)
        pen_facet = np.full((n_paths, n_pen), -1)
        for p, sl in enumerate(slots):
            for j, (fid, seg) in enumerate(sl):
                pen_seg[p, j], pen_facet[p, j] = seg, ids[fid]
        exclude = np.zeros((n_paths, n_seg, statics.n_facets), dtype=bool)
        for p, backbone in enumerate(backbones):
            owners = _owner_ids_for(scene, backbone)
            for s in range(n_seg):
                for gid in owners[s] | owners[s + 1]:
                    exclude[p, s, ids[gid]] = True
        self.exclude, self.pen_seg, self.pen_facet = exclude, pen_seg, pen_facet
        self.pen_normal = epoch.normals[pen_facet]
        self.pen_offset = epoch.offsets[pen_facet]
        self.edge_a = self.edge_b = self.edge_d = None
        self.edge_owner = self.chain = self.normal = self.offset = None
        self.origins = self.inward = self.valid = None
        if self.diffraction:
            edges = [scene.edge_by_id(backbone[0][1]) for backbone in backbones]
            ends = np.stack([e.endpoints for e in edges])[:, :, None, :]
            # the edge at the scene epoch, (P, 1, 3): endpoints and direction
            self.edge_a, self.edge_b = ends[:, 0], ends[:, 1]
            self.edge_d = self.edge_b - self.edge_a
            self.edge_owner = np.array([ids[e.adjacent_facets[0]] for e in edges])
            self.n_bounce = 0
        else:
            self.chain = np.array([[ids[gid] for _m, gid in backbone]
                                   for backbone in backbones],
                                  dtype=int).reshape(n_paths, n_seg - 1)
            self.n_bounce = n_seg - 1
            self.normal, self.offset = epoch.normals[self.chain], epoch.offsets[self.chain]
            self.origins, self.inward = epoch.origins[self.chain], epoch.inward[self.chain]
            self.valid = epoch.valid[self.chain]

    def take(self, rows: np.ndarray, index: np.ndarray) -> "_Shape":
        """The paths rows of this shape, at positions index of a new trajectory."""
        out = copy.copy(self)
        out.index = index
        for name in self._PER_PATH:
            value = getattr(self, name)
            if value is not None:
                setattr(out, name, value[rows])
        return out

    def _facet_disp(self, facet_index: np.ndarray, t: np.ndarray):
        """Displacement of facet facet_index[p] at times t[p], (P, T, 3), or
        None when those facets are static."""
        moving = [f for f in self.scene.statics().moving if np.any(facet_index == f)]
        if not moving:
            return None
        out = np.zeros(t.shape + (3,))
        for f in moving:
            motion = self.scene.facets[f].motion
            rows = facet_index == f
            out[rows] = motion.position(t[rows]) - motion.position(0.0)
        return out

    def construct(self, tx: np.ndarray, rx: np.ndarray, t: np.ndarray):
        """Backbone construction at times t, (P, T), for Tx and Rx at tx, rx.

        Returns (vertices, ok, inside).  vertices are V arrays (P, T, 3),
        some of them broadcast: Tx, the backbone points and Rx.  ok marks
        the rows without a hard failure (see rt.reflection_chains and
        rt.fermat_points), inside the rows whose points also lie strictly
        inside their polygons or edge segments, as an RT pass requires.  The
        kernels are rt.solve_backbone's, so a row is its construction.
        """
        if self.diffraction:
            a, d = self.edge_a, self.edge_d
            disp = self._facet_disp(self.edge_owner, t)
            if disp is not None:
                # the moved endpoints' difference, as an RT pass's edge gives it
                a = a + disp
                d = (self.edge_b + disp) - a
            point, ok, inside = fermat_points(tx, rx, a, d)
            return [tx, point, rx], ok, inside
        if not self.n_bounce:
            ok = np.ones(t.shape, dtype=bool)
            return [tx, rx], ok, ok
        normals, offsets, polygons = [], [], []
        for k in range(self.n_bounce):
            n = self.normal[:, None, k, :]
            off = self.offset[:, k, None]
            origins = self.origins[:, None, k]
            disp = self._facet_disp(self.chain[:, k], t)
            if disp is not None:
                off = off + np.vecdot(n, disp)
                origins = origins + disp[:, :, None, :]
            normals.append(n)
            offsets.append(off)
            polygons.append((origins, self.inward[:, k], self.valid[:, k]))
        points, ok, inside = reflection_chains(tx, rx, normals, offsets, polygons)
        return [tx, *points, rx], ok, inside

    def resolve(self, tx: np.ndarray, rx: np.ndarray, t: np.ndarray) -> TrajectoryGeometry:
        """construct plus the slab crossings and segment lengths."""
        vertices, ok, _inside = self.construct(tx, rx, t)
        vertices = np.stack(np.broadcast_arrays(*vertices), axis=2)
        failed = ~ok
        n_paths, n_pen = self.pen_seg.shape
        pen_points = np.zeros(t.shape + (n_pen, 3))
        pen_params = np.zeros(t.shape + (n_pen,))
        for j in range(n_pen):
            seg = self.pen_seg[:, j]
            has = np.flatnonzero(seg >= 0)
            n = self.pen_normal[has, None, j, :]
            off = self.pen_offset[has, j, None]
            disp = self._facet_disp(self.pen_facet[has, j], t[has])
            if disp is not None:
                off = off + np.vecdot(n, disp)
            a = vertices[has, :, seg[has]]
            points, par, parallel = slab_crossings(a, vertices[has, :, seg[has] + 1] - a, n, off)
            failed[has] |= parallel
            pen_points[has, :, j] = points
            pen_params[has, :, j] = par
        seg_lengths = np.linalg.norm(np.diff(vertices, axis=2), axis=-1)
        failed |= np.any(seg_lengths < 1e-9, axis=-1)
        return TrajectoryGeometry(self.index, vertices, pen_points, pen_params,
                                  seg_lengths, seg_lengths.sum(axis=-1), failed,
                                  self.pen_seg)


class PathTrajectory:
    """Closed-form interaction-point trajectories of a batch of P paths.

    The paths are grouped by shape (shape_of: LOS, R, RR or D, each path
    with or without a penetration), and each shape has one construction
    kernel over (paths x times) arrays; a single path is a batch of one.
    Every query takes times (T,), shared by all paths, or (P, T), one row
    per path, and re-solves each path's geometric construction (image
    cascade or Fermat point, then the slab crossings) against the scene
    displaced to each time; no stepping or integration is involved.

    - geometry_at: per shape, vertex arrays and a mask of hard failures,
      unclamped, so the structure stays frozen.  For a single path a scalar
      time gives the PathGeometry of that instant instead.
    - crossings: the occlusion and penetration profiles of resolved rows,
      all shapes in one facet_crossings call.
    - existence_scan: the strict existence predicates of an RT pass.
    - validity_scan: one of the two existence masks, chosen per path.

    A third argument, a reference time that perfbench/check.py still
    passes, is accepted and ignored: no trajectory depends on it.
    """

    def __init__(self, paths, scene: Scene, _reference_time=None):
        paths = [paths] if isinstance(paths, Path) else list(paths)
        self.paths = paths
        self.scene = scene
        groups: dict[tuple, list[int]] = {}
        for k, path in enumerate(paths):
            groups.setdefault(shape_of(path.signature), []).append(k)
        self.shapes = [_Shape(scene, [paths[k] for k in index], np.array(index))
                       for index in groups.values()]
        # every path's penetrations, padded with -1, for the crossing profiles
        n_pen = max((s.pen_seg.shape[1] for s in self.shapes), default=0)
        self.pen_seg = np.full((len(paths), n_pen), -1)
        self.pen_facet = np.full((len(paths), n_pen), -1)
        for s in self.shapes:
            self.pen_seg[s.index, :s.pen_seg.shape[1]] = s.pen_seg
            self.pen_facet[s.index, :s.pen_seg.shape[1]] = s.pen_facet

    def take(self, index) -> "PathTrajectory":
        """The trajectories of paths[index] as a batch of their own."""
        index = np.asarray(index)
        out = copy.copy(self)
        out.paths = [self.paths[i] for i in index]
        position = np.full(len(self.paths), -1)
        position[index] = np.arange(index.size)
        out.shapes = []
        for s in self.shapes:
            rows = np.flatnonzero(position[s.index] >= 0)
            if rows.size:
                out.shapes.append(s.take(rows, position[s.index[rows]]))
        out.pen_seg = self.pen_seg[index]
        out.pen_facet = self.pen_facet[index]
        return out

    def _times(self, times):
        """times as (P, T), and Tx and Rx positions (P, T, 3)."""
        t = np.asarray(times, float)
        n_paths = len(self.paths)
        if t.ndim == 1:
            shape = (n_paths, t.size, 3)
            tx = np.broadcast_to(self.scene.tx_motion.position(t), shape)
            rx = np.broadcast_to(self.scene.rx_motion.position(t), shape)
            return np.broadcast_to(t, (n_paths, t.size)), tx, rx
        if t.ndim != 2 or t.shape[0] != n_paths:
            raise ValueError("times must be (T,) or (paths, T)")
        return t, self.scene.tx_motion.position(t), self.scene.rx_motion.position(t)

    def geometry_at(self, times, geom: SceneAtTime | None = None):
        """Resolved geometry at times (unclamped: the structure stays frozen).

        Returns one TrajectoryGeometry per shape, in the order of
        self.shapes; its failed mask marks the rows where the construction
        itself is impossible (see _Shape.construct, plus a slab crossing
        parallel to its segment or a zero-length segment).  For a single
        path and a scalar time, returns that instant's PathGeometry (its
        penetrations refer to geom, evaluated when not given) and raises
        ConstructionError instead.
        """
        if np.ndim(times) == 0:
            return self._path_geometry_at(float(times), geom)
        t, tx, rx = self._times(times)
        with np.errstate(divide="ignore", invalid="ignore"):
            return [s.resolve(tx.take(s.index, axis=0), rx.take(s.index, axis=0),
                              t.take(s.index, axis=0)) for s in self.shapes]

    def _path_geometry_at(self, t: float, geom: SceneAtTime | None) -> PathGeometry:
        if len(self.paths) != 1:
            raise ValueError("a scalar time needs a single-path trajectory")
        [g] = self.geometry_at(np.array([t]))
        if g.failed[0, 0]:
            raise ConstructionError(
                f"construction of {self.paths[0].signature} impossible at t={t:g}")
        return self.path_geometry(g, 0, 0, geom if geom is not None
                                  else scene_at(self.scene, t))

    def path_geometry(self, g: TrajectoryGeometry, p: int, i: int,
                      geom: SceneAtTime) -> PathGeometry:
        """PathGeometry of row p of g at its i-th time (not a failed row).

        geom is the scene at that time: penetrations refer to its facets,
        and its Tx and Rx positions, equal to the kernel's, are shared.
        """
        return path_geometry_of(geom, self.paths[g.index[p]].signature,
                                g.vertices[p, i, 1:-1], g.pen_points[p, i], g.pen_params[p, i],
                                g.seg_lengths[p, i], float(g.total_length[p, i]))

    def crossings(self, times, vertices, rows):
        """Occlusion and penetration profiles: (extra, declared), (P, T) each.

        vertices and rows hold, per shape in the order of self.shapes, the
        path vertices as a list of (P_s, T, 3) arrays (Tx, backbone points,
        Rx) and a (P_s, T) mask.  Only the marked rows are tested, each
        segment against the facets at its row's own time, in one
        facet_crossings call whose tracks are one segment of one path.
        extra marks an opaque blocker or an undeclared slab crossing,
        declared that every penetration of the signature is crossed.
        """
        t = np.broadcast_to(np.asarray(times, float), (len(self.paths), np.shape(times)[-1]))
        statics = self.scene.statics()
        picked = [np.nonzero(mask) for mask in rows]
        n_rows = sum(ip.size * (s.exclude.shape[1]) for s, (ip, _it) in zip(self.shapes, picked))
        extra = np.zeros(t.shape, dtype=bool)
        declared = np.ones(t.shape, dtype=bool)
        if not n_rows:
            return extra, declared
        # the segment rows of every shape, filled in place
        seg_a, seg_d = np.empty((n_rows, 3)), np.empty((n_rows, 3))
        tracks = np.empty(n_rows, dtype=int)
        disp = np.zeros((n_rows, statics.n_facets, 3)) if statics.moving else None
        exclude = []
        parts = []  # (first row, rows per segment, path, time) of each shape's block
        label = row = 0
        for s, verts, (ip, it) in zip(self.shapes, vertices, picked):
            n_paths, n_seg = s.exclude.shape[:2]
            exclude.append(s.exclude.transpose(1, 0, 2).reshape(n_seg * n_paths, -1))
            if ip.size:
                flat = ip * t.shape[1] + it
                parts.append((row, ip.size, s.index[ip], it))
                start = _take_rows(verts[0], flat)
                for k in range(n_seg):
                    block = slice(row, row + ip.size)
                    end = _take_rows(verts[k + 1], flat)
                    seg_a[block] = start
                    np.subtract(end, start, out=seg_d[block])
                    tracks[block] = label + k * n_paths + ip
                    if disp is not None:
                        for f in statics.moving:
                            motion = self.scene.facets[f].motion
                            disp[block, f] = (motion.position(t[s.index[ip], it])
                                              - motion.position(0.0))
                    start = end
                    row += ip.size
            label += n_seg * n_paths
        hit, facet, _u, _points = facet_crossings(
            statics.epoch, seg_a, seg_d, exclude=np.concatenate(exclude), disp=disp,
            track=tracks)
        # each hit's path, time and segment
        part = np.searchsorted([first for first, *_ in parts], hit, side="right") - 1
        p, ti, seg = (np.empty(hit.size, dtype=int) for _ in range(3))
        for k, (first, size, path, time) in enumerate(parts):
            sel = part == k
            seg[sel], m = np.divmod(hit[sel] - first, size)
            p[sel], ti[sel] = path[m], time[m]
        listed = np.zeros(hit.size, dtype=bool)
        for j in range(self.pen_seg.shape[1]):
            crossing = (seg == self.pen_seg[p, j]) & (facet == self.pen_facet[p, j])
            listed |= crossing
            crossed = np.zeros(t.shape, dtype=bool)
            crossed[p[crossing], ti[crossing]] = True
            declared &= crossed | (self.pen_seg[:, j] < 0)[:, None]
        extra[p[~listed], ti[~listed]] = True
        return extra, declared

    def existence_scan(self, times):
        """(geometric_ok, fully_ok), (P, T) each, over sample times.

        geometric_ok covers the construction with strict polygon and edge
        containment and the declared slab crossings; fully_ok additionally
        requires the occlusion profile to match the signature exactly.
        Computing both in one pass lets lifetime solving look for geometric
        boundary crossings first and fall back to occlusion onsets without
        rescanning.
        """
        t, tx, rx = self._times(times)
        geo = np.zeros(t.shape, dtype=bool)
        vertices, rows = [], []
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in self.shapes:
                verts, ok, inside = s.construct(tx.take(s.index, axis=0),
                                                rx.take(s.index, axis=0),
                                                t.take(s.index, axis=0))
                vertices.append(verts)
                rows.append(ok & inside)
                geo[s.index] = rows[-1]
        extra, declared = self.crossings(t, vertices, rows)
        geo_ok = geo & declared
        return geo_ok, geo_ok & ~extra

    def validity_scan(self, times, include_occlusion=True) -> np.ndarray:
        """Strict existence over sample times: would a full RT pass at each
        time contain each path?  (P, T).

        include_occlusion, one flag or one per path, picks fully_ok over
        geometric_ok (see existence_scan).  Without occlusion only the
        geometric predicates apply, which is the primary existence notion
        for lifetime solving (occlusion is transient and handled per
        snapshot).
        """
        geo_ok, full_ok = self.existence_scan(times)
        return np.where(np.reshape(include_occlusion, (-1, 1)), full_ok, geo_ok)


class WindowRows:
    """A run-level PathTrajectory, traj, with one row per (window, path),
    and the predicted snapshots its rows fill.

    window gives each row's window and rank its place in the signature
    order of all rows: a predicted snapshot holds one window's paths, whose
    signatures differ, in that order.  drt_run has a row per path of each
    window's start pass, edrt_run one per common, dying and born path of
    each window.
    """

    def __init__(self, members, scene: Scene):
        """members: (window, path) pairs."""
        self.traj = PathTrajectory([p for _w, p in members], scene)
        self.window = np.array([w for w, _p in members], dtype=int)
        paths = self.traj.paths
        order = sorted(range(len(paths)), key=lambda k: signature_sort_key(paths[k].signature))
        self.rank = [0] * len(order)
        for position, k in enumerate(order):
            self.rank[k] = position

    def snapshots(self, times: np.ndarray, placed) -> list[Snapshot]:
        """The snapshots at times (W, T), window by window, in time order.
        placed holds (row, instant index, Path) for every predicted path."""
        n_times, window = times.shape[1], self.window.tolist()
        slots: list[list[tuple]] = [[] for _ in range(times.size)]
        for k, i, path in placed:
            slots[window[k] * n_times + i].append((self.rank[k], path))
        return [Snapshot(time=t, paths=[path for _rank, path in sorted(slot)])
                for t, slot in zip(times.ravel().tolist(), slots)]


def _advance(members, scene: Scene, times, timer: StageTimer) -> list[Snapshot]:
    """Snapshots of the (window, path) members re-solved at their windows'
    instants, times (W, T), window by window.

    One WindowRows trajectory holds every member, and one geometry_at call
    resolves each row at times[window].  Paths whose geometric construction
    fails outright are dropped, counted (dropped_paths) and logged; fields
    are recomputed directly from the advanced geometry, path by path, one
    predicted instant at a time.
    """
    times = np.asarray(times, float)
    n_times = times.shape[1]
    with timer.geometry():
        rows = WindowRows(members, scene)
        resolved = rows.traj.geometry_at(times[rows.window])
    picked: list[list[tuple]] = [[] for _ in range(times.size)]
    dropped = 0
    for g in resolved:
        dropped += int(np.count_nonzero(g.failed))
        ip, it = np.nonzero(~g.failed)
        index = g.index[ip]
        for slot, p, i, k in zip((rows.window[index] * n_times + it).tolist(), ip.tolist(),
                                 it.tolist(), index.tolist()):
            picked[slot].append((g, p, i, k))
    placed = []
    for t, slot in zip(times.ravel().tolist(), picked):
        geom = scene_at(scene, t)
        with timer.geometry():
            geometries = [(k, i, rows.traj.path_geometry(g, p, i, geom)) for g, p, i, k in slot]
        with timer.field():
            for k, i, geometry in geometries:
                try:
                    placed.append((k, i, make_path(scene, geom, geometry)))
                except ConstructionError:
                    dropped += 1
    timer.count("dropped_paths", dropped)
    if dropped:
        log.warning("drt: dropped %d geometrically impossible path instance(s) in "
                    "[%.3f, %.3f]", dropped, times.min(), times.max())
    return rows.snapshots(times, placed)


def predict_snapshot_drt(reference: Snapshot, scene: Scene, t: float,
                         timer: StageTimer | None = None) -> Snapshot:
    """Advance every reference path to time t, structure frozen.

    No path is added or removed even when an interaction point leaves its
    facet; paths whose geometric construction fails outright are dropped,
    logged and counted in timer.  Fields are recomputed directly from the
    advanced geometry.  A batch of one window and one instant (_advance).
    """
    return _advance([(0, p) for p in reference.paths], scene, [[t]], timer or StageTimer())[0]


def drt_run(scene: Scene, config: PredictionConfig,
            timer: StageTimer | None = None) -> RunResult:
    """Frozen-structure predictions between reference passes.

    runs.prediction_run traces the N + 1 passes first.  Then every path of
    every window's start pass is one row of one PathTrajectory, advanced
    over its window's instants by one _advance call for the whole run.
    """
    def predict(references, times, timer):
        members = [(w, p) for w, ref in enumerate(references[:-1]) for p in ref.paths]
        return _advance(members, scene, times, timer), []

    return prediction_run("drt", scene, config, predict, timer)
