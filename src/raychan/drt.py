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
which is exact for the polynomial motion model.  A shape keeps only indices
into the scene and moves the epoch arrays it gathers by the scene's one
displacement rule (Scene.facet_displacement, scene.shifted_offsets), the
rule scene_at applies for an RT pass, so a row is that pass's construction
bit for bit.  WindowRows holds that trajectory with each row's window and
signature rank, and assembles the predicted snapshots, for E-DRT as well.
The constructions are the RT pass's own kernels: rt.reflection_chains (the
image cascade), rt.fermat_points (the diffraction point) and
rt.slab_crossings (the penetrations), and a row's PathGeometry is a slice
of the arrays (PathTrajectory.path_geometry).  Fields are then computed
directly, for every (row, instant) of the run as one batch: every
diffraction's UTD pair in one array call (as E-DRT's extrapolation does),
then one rt.make_path call on the rows' arrays, which records no chain
walk for the predicted paths (nothing extrapolates from them).  A reflection
point is allowed to slide off its facet and a stale line-of-sight path is
kept when it becomes blocked: those are the documented error modes of the
approach, resolved only by the next reference pass.
E-DRT reuses the same kernel for its lifetime scans, the root finding of
its event times (on signed margins, PathTrajectory.existence_scan) and its
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
    PathRows,
    Snapshot,
    _bounces,
    _take_rows,
    diffraction_coefficients,
    fermat_points,
    make_path,
    occlusion_profiles_batch,
    reflection_chains,
    segment_exclusions,
    signature_sort_key,
    signed_margin,
    slab_crossings,
    slots_of,
)
from .runs import PredictionConfig, RunResult, StageTimer, prediction_run
from .scene import Scene, SceneAtTime

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
    Values in failed rows are meaningless.  One (path, instant) row, with
    its signature, is an rt.PathGeometry (PathTrajectory.path_geometry).
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


class _Shape:
    """The paths of one shape within a PathTrajectory, as indices into the
    scene.

    index gives each path's position in the trajectory.  The per-path
    arrays (_PER_PATH, path axis first) hold the facets each segment ignores
    (segment_exclusions), each path's penetrations (slab facet and segment,
    padded with -1 up to the most any path of the shape has), and the facets
    of its reflections (chain) or its diffraction edge (edge).  construct
    and resolve gather planes, polygons and endpoints from the scene's epoch
    arrays and move them to each query time by the scene's one displacement
    rule; the constructions themselves are the rt kernels
    (reflection_chains, fermat_points, slab_crossings).
    """

    _PER_PATH = ("exclude", "pen_seg", "pen_facet", "chain", "edge")

    def __init__(self, scene: Scene, paths: list[Path], index: np.ndarray):
        self.scene = scene
        self.index = index
        self.diffraction = Mechanism.DIFFRACTION in shape_of(paths[0].signature)
        slots = [slots_of(p.signature) for p in paths]
        backbones = [sl.backbone for sl in slots]
        n_paths, n_pen = len(paths), max(len(sl.penetrations) for sl in slots)
        self.pen_seg = np.full((n_paths, n_pen), -1)
        self.pen_facet = np.full((n_paths, n_pen), -1)
        for p, sl in enumerate(slots):
            for j, (fid, seg) in enumerate(sl.penetrations):
                self.pen_seg[p, j], self.pen_facet[p, j] = seg, scene.facet_index[fid]
        self.exclude = np.stack([segment_exclusions(scene, b) for b in backbones])
        ids = scene.edge_index if self.diffraction else scene.facet_index
        gids = np.array([[ids[gid] for _m, gid in b] for b in backbones],
                        dtype=int).reshape(n_paths, len(backbones[0]))
        self.chain, self.edge = (None, gids[:, 0]) if self.diffraction else (gids, None)

    def take(self, rows: np.ndarray, index: np.ndarray) -> "_Shape":
        """The paths rows of this shape, at positions index of a new trajectory."""
        out = copy.copy(self)
        out.index = index
        for name in self._PER_PATH:
            value = getattr(self, name)
            if value is not None:
                setattr(out, name, value[rows])
        return out

    def construct(self, tx: np.ndarray, rx: np.ndarray, t: np.ndarray, margins=False):
        """Backbone construction at times t, (P, T), for Tx and Rx at tx, rx.

        Returns (vertices, ok, inside).  vertices are V arrays (P, T, 3),
        some of them broadcast: Tx, the backbone points and Rx.  ok marks
        the rows without a hard failure (see rt.reflection_chains and
        rt.fermat_points), inside the rows whose points also lie strictly
        inside their polygons or edge segments, as an RT pass requires.
        With margins, inside is the kernel's margin instead, >= 0 exactly
        where inside holds (inf for a line of sight).  The kernels are
        rt.solve_backbone's, so a row is its construction.
        """
        scene = self.scene
        statics = scene.statics()
        if self.diffraction:
            ends = statics.edge_ends.take(self.edge, axis=0)[:, :, None, :]
            a, b = ends[:, 0], ends[:, 1]
            disp = scene.facet_displacement(statics.edge_facets[self.edge, :1], t)
            if disp is not None:
                # the moved endpoints' difference, as an RT pass's edge gives it
                a, b = a + disp, b + disp
            point, ok, inside = fermat_points(tx, rx, a, b - a, margins)
            return [tx, point, rx], ok, inside
        if not self.chain.shape[1]:
            ok = np.ones(t.shape, dtype=bool)
            return [tx, rx], ok, np.full(t.shape, np.inf) if margins else ok
        index = list(self.chain.T)
        points, ok, inside = reflection_chains(tx, rx, *_bounces(
            statics.epoch, index, [scene.facet_displacement(i[:, None], t) for i in index]),
            margins=margins)
        return [tx, *points, rx], ok, inside

    def resolve(self, tx: np.ndarray, rx: np.ndarray, t: np.ndarray) -> TrajectoryGeometry:
        """construct plus the slab crossings and segment lengths."""
        vertices, ok, _inside = self.construct(tx, rx, t)
        vertices = np.stack(np.broadcast_arrays(*vertices), axis=2)
        failed = ~ok
        n_pen = self.pen_seg.shape[1]
        pen_points = np.zeros(t.shape + (n_pen, 3))
        pen_params = np.zeros(t.shape + (n_pen,))
        for j in range(n_pen):
            seg = self.pen_seg[:, j]
            has = np.flatnonzero(seg >= 0)
            facet = self.pen_facet[has, j]
            n, off = self.scene.statics().epoch.planes(
                facet, self.scene.facet_displacement(facet[:, None], t[has]))
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
    - path_geometry: one (path, instant) row of those arrays as a
      PathGeometry.
    - crossings: the crossing profile of resolved rows, all shapes in one
      rt.occlusion_profiles_batch call (the profile of an RT pass), reduced
      against each signature's declared penetrations.
    - existence_scan: the strict existence predicates of an RT pass, as
      masks or as signed margins.
    - validity_scan: one of the two existence margins, chosen per path.

    A margin is a continuous quantity whose sign decides a predicate: >= 0
    exactly where the mask is true (rt.signed_margin).  The geometric margin
    of a row is the least of its construction's margin (the least signed
    edge distance of a reflection point in its polygon, or a diffraction
    point's distance to the nearer end of its edge; -inf where a hard
    predicate fails) and the blocking margin of each declared slab crossing
    (rt.facet_crossings).  The full margin adds the negated largest
    blocking margin of the other pairs that the crossing test meets.

    A third argument, a reference time that perfbench/check.py still
    passes, is accepted and ignored: no trajectory depends on it.  So is
    the scene that check.py passes to a scalar geometry_at.
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
        path and a scalar time, returns that instant's PathGeometry and
        raises ConstructionError instead; geom is then ignored.
        """
        if np.ndim(times) == 0:
            return self._path_geometry_at(float(times))
        t, tx, rx = self._times(times)
        with np.errstate(divide="ignore", invalid="ignore"):
            return [s.resolve(tx.take(s.index, axis=0), rx.take(s.index, axis=0),
                              t.take(s.index, axis=0)) for s in self.shapes]

    def _path_geometry_at(self, t: float) -> PathGeometry:
        if len(self.paths) != 1:
            raise ValueError("a scalar time needs a single-path trajectory")
        [g] = self.geometry_at(np.array([t]))
        if g.failed[0, 0]:
            raise ConstructionError(
                f"construction of {self.paths[0].signature} impossible at t={t:g}")
        return self.path_geometry(g, 0, 0)

    def path_geometry(self, g: TrajectoryGeometry, p: int, i: int) -> PathGeometry:
        """PathGeometry of row p of g at its i-th time (not a failed row):
        a slice of g's arrays, cut to the path's own penetrations."""
        sig = self.paths[g.index[p]].signature
        n_pen = len(slots_of(sig).penetrations)
        return PathGeometry(sig, g.vertices[p, i], g.pen_points[p, i, :n_pen],
                            g.pen_params[p, i, :n_pen], g.seg_lengths[p, i],
                            float(g.total_length[p, i]))

    def crossings(self, times, vertices, rows, margins=False):
        """Occlusion and penetration profiles: (clear, declared), (P, T) each.

        vertices and rows hold, per shape in the order of self.shapes, the
        path vertices as a list of (P_s, T, 3) arrays (Tx, backbone points,
        Rx) and a (P_s, T) mask.  Only the marked rows are tested, each
        segment against the facets at its row's own time, in one
        occlusion_profiles_batch call, the crossing profile of an RT pass.
        Reduced against the declared penetrations of each signature, clear
        marks the rows without an opaque blocker or an undeclared slab
        crossing, and declared (on the marked rows) that every declared
        penetration is crossed.  With margins both are signed margins: the
        negated largest blocking margin of the undeclared pairs (inf where
        the crossing test meets none), and the least blocking margin of the
        declared ones (-inf where one is not met).
        """
        t = np.broadcast_to(np.asarray(times, float), (len(self.paths), np.shape(times)[-1]))
        path, instant, seg, facet, _transparent, *margin = occlusion_profiles_batch(
            self.scene, [(verts, s.exclude, s.index, mask)
                         for s, verts, mask in zip(self.shapes, vertices, rows)],
            times=t, margins=margins)
        listed = np.zeros(path.size, dtype=bool)
        if margins:
            [margin] = margin
            declared = np.full(t.shape, np.inf)
            for j in range(self.pen_seg.shape[1]):
                crossing = (seg == self.pen_seg[path, j]) & (facet == self.pen_facet[path, j])
                listed |= crossing
                crossed = np.full(t.shape, -np.inf)
                crossed[path[crossing], instant[crossing]] = margin[crossing]
                crossed[self.pen_seg[:, j] < 0] = np.inf
                declared = np.minimum(declared, crossed)
            blocking = np.full(t.shape, -np.inf)
            np.maximum.at(blocking, (path[~listed], instant[~listed]), margin[~listed])
            return signed_margin(-blocking, blocking < 0.0), declared
        declared = np.ones(t.shape, dtype=bool)
        for j in range(self.pen_seg.shape[1]):
            crossing = (seg == self.pen_seg[path, j]) & (facet == self.pen_facet[path, j])
            listed |= crossing
            crossed = np.zeros(t.shape, dtype=bool)
            crossed[path[crossing], instant[crossing]] = True
            declared &= crossed | (self.pen_seg[:, j] < 0)[:, None]
        clear = np.ones(t.shape, dtype=bool)
        clear[path[~listed], instant[~listed]] = False
        return clear, declared

    def existence_scan(self, times, crossing=None, margins=False):
        """(geometric_ok, fully_ok), (P, T) each, over sample times.

        geometric_ok covers the construction with strict polygon and edge
        containment and the declared slab crossings; fully_ok additionally
        requires the occlusion profile to match the signature exactly.
        Computing both in one pass lets lifetime solving look for geometric
        boundary crossings first and fall back to occlusion onsets without
        rescanning.  crossing (P,), when given, marks the paths whose rows
        go to the crossing call; a path left out must declare no
        penetration, and its fully_ok is then its geometric_ok.  With
        margins, both are the signed margins instead (see the class
        docstring), and every row whose construction succeeds goes to the
        crossing call, so that a declared slab crossing has a margin on
        both sides of a geometric transition.
        """
        t, tx, rx = self._times(times)
        geo = np.full(t.shape, -np.inf) if margins else np.zeros(t.shape, dtype=bool)
        vertices, rows = [], []
        with np.errstate(divide="ignore", invalid="ignore"):
            for s in self.shapes:
                verts, ok, inside = s.construct(tx.take(s.index, axis=0),
                                                rx.take(s.index, axis=0),
                                                t.take(s.index, axis=0), margins)
                vertices.append(verts)
                geo[s.index] = np.where(ok, inside, -np.inf) if margins else ok & inside
                rows.append(ok if margins else geo[s.index])
                if crossing is not None:
                    rows[-1] = rows[-1] & crossing[s.index, None]
        clear, declared = self.crossings(t, vertices, rows, margins)
        if margins:
            geo_margin = np.minimum(geo, declared)
            return geo_margin, np.minimum(geo_margin, clear)
        geo_ok = geo & declared
        return geo_ok, geo_ok & clear

    def validity_scan(self, times, include_occlusion=True) -> np.ndarray:
        """Strict existence over sample times as a signed margin: >= 0 where
        a full RT pass at each time would contain each path.  (P, T).

        include_occlusion, one flag or one per path, picks the full margin
        over the geometric one (see existence_scan).  Without occlusion only
        the geometric predicates apply, which is the primary existence
        notion for lifetime solving (occlusion is transient and handled per
        snapshot).
        """
        geo, full = self.existence_scan(times, margins=True)
        return np.where(np.reshape(include_occlusion, (-1, 1)), full, geo)


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
    are recomputed directly from the advanced geometry as one batch: the
    UTD pairs in one array call, then one make_path call for every
    (row, instant) of the run, which drops and counts the rows off their
    geometry as well.
    """
    times = np.asarray(times, float)
    with timer.geometry():
        rows = WindowRows(members, scene)
        resolved = rows.traj.geometry_at(times[rows.window])
        dropped = sum(int(np.count_nonzero(g.failed)) for g in resolved)
        parts, subs = [], []
        for g in resolved:
            ip, it = np.nonzero(~g.failed)
            sub = g.rows(ip, it)
            subs.append((sub, ip, it))
            parts.append(PathRows(
                [rows.traj.paths[k].signature for k in sub.index.tolist()],
                times[rows.window[sub.index], it], np.full(ip.size, g.vertices.shape[2]),
                sub.vertices, sub.pen_points, sub.seg_lengths, sub.total_length))
        batch = PathRows.concatenate(parts)
    with timer.field():
        # also None where a ray runs along its edge: the chain walk raises
        utd = [None] * len(batch.signatures)
        start = 0
        for s, (sub, ip, _it) in zip(rows.traj.shapes, subs):
            if s.diffraction:
                (d_soft, d_hard), along = diffraction_coefficients(
                    scene, s.edge[ip], sub.vertices, sub.seg_lengths[:, 0],
                    sub.total_length)
                utd[start:start + along.size] = [
                    None if a else pair
                    for pair, a in zip(zip(d_soft.tolist(), d_hard.tolist()), along.tolist())]
            start += sub.total_length.size
        paths = make_path(scene, batch, utd)
    placed = [(k, i, path) for k, i, path in zip(
        np.concatenate([sub.index for sub, _ip, _it in subs] + [[]]).astype(int).tolist(),
        np.concatenate([it for _sub, _ip, it in subs] + [[]]).astype(int).tolist(), paths)
        if path is not None]
    dropped += len(paths) - len(placed)
    timer.count("dropped_paths", dropped)
    if dropped:
        log.warning("drt: dropped %d geometrically impossible path instance(s) in "
                    "[%.3f, %.3f]", dropped, times.min(), times.max())
    return rows.snapshots(times, placed)


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
