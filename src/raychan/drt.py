"""Baseline dynamic ray tracing: geometry extrapolation with frozen structure.

Within each prediction window the multipath structure found by the reference
ray-tracing pass is kept fixed; only the interaction points are moved.  Each
trajectory is obtained by re-solving the exact geometric construction (image
cascade, Fermat point, slab crossing) against the displaced scene at the
query time, which is exact for the polynomial motion model.  A reflection
point is allowed to slide off its facet and a stale line-of-sight path is
kept when it becomes blocked: those are the documented error modes of the
approach, resolved only by the next reference pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .rt import (
    GRAZING_COS,
    SEG_PARAM_EPS,
    SIDE_EPS,
    ConstructionError,
    Mechanism,
    Path,
    PathGeometry,
    Snapshot,
    _backbone_of,
    _owner_ids_for,
    build_geometry,
    make_path,
    signature_sort_key,
    solve_backbone,
    trace_snapshot,
)
from .runs import RunResult, StageTimer
from .scene import Scene, SceneAtTime, scene_at

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PredictionConfig:
    t_c: float      # extrapolation window between full RT passes, s
    dt: float       # prediction step, s
    rounds: int

    def __post_init__(self):
        if not 0.0 < self.dt < self.t_c:
            raise ValueError("need 0 < dt < t_c")
        steps = self.t_c / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("t_c must be an integer multiple of dt")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")

    @property
    def steps_per_round(self) -> int:
        return round(self.t_c / self.dt)


class PathTrajectory:
    """Closed-form interaction-point trajectory of one path.

    Evaluating at a query time re-solves the path's geometric construction
    against the scene at that time; no stepping or integration is involved.
    """

    def __init__(self, path: Path, scene: Scene, t0: float):
        self.path = path
        self.scene = scene
        self.t0 = float(t0)
        self.signature = path.signature
        self.backbone = _backbone_of(path.signature)
        self.owners = _owner_ids_for(scene, self.backbone)

    def geometry_at(self, t: float, geom: SceneAtTime | None = None) -> PathGeometry:
        """Resolved geometry at time t (unclamped: structure stays frozen).

        Raises ConstructionError when the construction itself becomes
        impossible (image side violation, degenerate geometry).
        """
        if geom is None:
            geom = scene_at(self.scene, t)
        points = solve_backbone(geom, self.backbone, clamped=False)
        return build_geometry(geom, self.signature, points)

    def validity_scan(self, times, include_occlusion: bool = True) -> "np.ndarray":
        """Strict existence over a batch of sample times: would a full RT
        pass at each time contain this path?

        One vectorized pass over the time axis with the predicates of the RT
        pass: backbone construction (image cascade or Fermat point) with
        strict polygon/segment containment, then an occlusion profile that
        must reproduce the signature's penetrations exactly.  With
        include_occlusion=False only the geometric predicates are applied,
        which is the primary existence notion for lifetime solving
        (occlusion is transient and handled per snapshot).
        """
        geo_ok, full_ok = self.existence_scan(times)
        return full_ok if include_occlusion else geo_ok

    def existence_scan(self, times):
        """(geometric_ok, fully_ok) over a batch of sample times.

        geometric_ok covers the construction and on-geometry predicates
        (including the declared slab crossings); fully_ok additionally
        requires the occlusion profile to match the signature exactly.
        Computing both in one pass lets lifetime solving look for geometric
        boundary crossings first and fall back to occlusion onsets without
        rescanning.
        """
        times = np.asarray(times, float)
        n_t = times.size
        ok = np.ones(n_t, dtype=bool)
        scene = self.scene
        statics = scene.statics()
        facet_index = statics.id_index
        facet_by_id = statics.facet_by_id
        tx = scene.tx_motion.position(times)
        rx = scene.rx_motion.position(times)

        # displaced plane offsets and polygon origins for every facet
        if statics.all_static:
            offsets = np.broadcast_to(statics.offsets0[:, None], (statics.n_facets, n_t))
            origins = np.broadcast_to(statics.origins0[:, None],
                                      (statics.n_facets, n_t, statics.maxv, 3))
        else:
            disp = np.zeros((statics.n_facets, n_t, 3))
            for i, f in enumerate(scene.facets):
                if not f.motion.is_static:
                    disp[i] = f.motion.displacement(times)
            offsets = statics.offsets0[:, None] + np.einsum(
                "fc,ftc->ft", statics.normals, disp)
            origins = statics.origins0[:, None, :, :] + disp[:, :, None, :]

        def poly_inside(fi: int, pts: np.ndarray) -> np.ndarray:
            rel = pts[:, None, :] - origins[fi]
            d = np.einsum("tvc,vc->tv", rel, statics.inward[fi])
            d = np.where(statics.valid[fi][None, :], d, np.inf)
            return np.min(d, axis=1) >= 0.0

        # ---- backbone construction ----
        mechs = [m for m, _ in self.backbone]
        points: list[np.ndarray] = []
        if not self.backbone:
            pass
        elif Mechanism.DIFFRACTION in mechs:
            edge = scene.edge_by_id(self.backbone[0][1])
            owner = facet_by_id[edge.adjacent_facets[0]]
            edisp = (np.zeros((n_t, 3)) if owner.motion.is_static
                     else owner.motion.displacement(times))
            a = edge.endpoints[0] + edisp
            b = edge.endpoints[1] + edisp
            d = b - a
            length = np.linalg.norm(d, axis=1)
            e_hat = d / length[:, None]
            ta, tb = tx - a, rx - a
            s1 = np.einsum("tc,tc->t", ta, e_hat)
            s2 = np.einsum("tc,tc->t", tb, e_hat)
            r1 = np.linalg.norm(ta - s1[:, None] * e_hat, axis=1)
            r2 = np.linalg.norm(tb - s2[:, None] * e_hat, axis=1)
            rsum = r1 + r2
            ok &= rsum > 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                u = (s1 + (s2 - s1) * r1 / np.maximum(rsum, 1e-30)) / length
            ok &= (u > 0.0) & (u < 1.0)
            u = np.where(ok, u, 0.5)
            points.append(a + u[:, None] * d)
        else:
            chain_facets = [facet_by_id[gid] for _m, gid in self.backbone]
            fis = [facet_index[gid] for _m, gid in self.backbone]
            images = [tx]
            for f, fi in zip(chain_facets, fis):
                img = images[-1]
                dist = img @ f.normal - offsets[fi]
                images.append(img - 2.0 * dist[:, None] * f.normal)
            n_chain = len(chain_facets)
            rev_points: list[np.ndarray] = []
            target = rx
            for f, fi in zip(reversed(chain_facets), reversed(fis)):
                img = images[n_chain - len(rev_points)]
                d_seg = target - img
                denom = d_seg @ f.normal
                with np.errstate(divide="ignore", invalid="ignore"):
                    t_par = (offsets[fi] - np.einsum("tc,c->t", img, f.normal)) / denom
                ok &= (np.abs(denom) > 1e-14) & (t_par > 0.0) & (t_par < 1.0)
                t_par = np.where(ok, t_par, 0.5)
                p = img + t_par[:, None] * d_seg
                ok &= poly_inside(fi, p)
                rev_points.append(p)
                target = p
            points = rev_points[::-1]
            # per-bounce side and grazing checks
            chain = [tx] + points + [rx]
            for k, (f, fi) in enumerate(zip(chain_facets, fis)):
                d_in = np.einsum("tc,c->t", chain[k], f.normal) - offsets[fi]
                d_out = np.einsum("tc,c->t", chain[k + 2], f.normal) - offsets[fi]
                ok &= (d_in * d_out > 0.0)
                ok &= np.minimum(np.abs(d_in), np.abs(d_out)) >= SIDE_EPS
                seg = chain[k + 1] - chain[k]
                seg_len = np.linalg.norm(seg, axis=1)
                ok &= seg_len > 1e-9
                cosg = np.abs(np.einsum("tc,c->t", seg, f.normal)) / np.maximum(seg_len, 1e-30)
                ok &= cosg >= GRAZING_COS

        # ---- crossing profile ----
        # plane crossings are computed densely over (time, facet); polygon
        # containment only for the gathered crossing candidates, which are
        # sparse
        verts = [tx] + points + [rx]
        owners = self.owners
        all_static = statics.all_static
        expected = np.zeros((len(verts) - 1, statics.n_facets), dtype=bool)
        seg_of_pen = 0
        for m, gid in self.signature:
            if m is Mechanism.PENETRATION:
                expected[seg_of_pen, facet_index[gid]] = True
            else:
                seg_of_pen += 1
        pens_ok = np.ones(n_t, dtype=bool)
        extra = np.zeros(n_t, dtype=bool)  # blockers or undeclared crossings
        for s in range(len(verts) - 1):
            a = verts[s]
            d = verts[s + 1] - a
            denom = np.einsum("tc,fc->tf", d, statics.normals)
            num = offsets.T - np.einsum("tc,fc->tf", a, statics.normals)
            with np.errstate(divide="ignore", invalid="ignore"):
                t_par = num / denom
            hit = (np.abs(denom) > 1e-14) & (t_par > SEG_PARAM_EPS) \
                & (t_par < 1.0 - SEG_PARAM_EPS)
            for gid in owners[s] | owners[s + 1]:
                hit[:, facet_index[gid]] = False
            if hit.any():
                ti, fi = np.nonzero(hit)
                pts = a[ti] + t_par[ti, fi, None] * d[ti]
                orig = statics.origins0[fi] if all_static else origins[fi, ti]
                rel = pts[:, None, :] - orig
                edge_d = np.einsum("kvc,kvc->kv", rel, statics.inward[fi])
                edge_d = np.where(statics.valid[fi], edge_d, np.inf)
                hit[ti, fi] = np.min(edge_d, axis=1) >= 0.0
            exp_row = expected[s]
            if exp_row.any():
                pens_ok &= hit[:, exp_row].all(axis=1)
            extra |= (hit & ~exp_row[None, :]).any(axis=1)
        geo_ok = ok & pens_ok
        full_ok = geo_ok & ~extra
        return geo_ok, full_ok


def _advance(trajs: list[PathTrajectory], scene: Scene, t: float,
             timer: StageTimer) -> tuple[Snapshot, int]:
    """Snapshot of every trajectory re-solved at t, and the number dropped.

    Paths whose geometric construction fails outright are dropped; fields
    are recomputed directly from the advanced geometry.
    """
    geom = scene_at(scene, t)
    paths = []
    dropped = 0
    for traj in trajs:
        try:
            with timer.geometry():
                geometry = traj.geometry_at(t, geom)
            with timer.field():
                paths.append(make_path(scene, geom, geometry))
        except ConstructionError:
            dropped += 1
    paths.sort(key=lambda p: signature_sort_key(p.signature))
    return Snapshot(time=float(t), paths=paths), dropped


def predict_snapshot_drt(reference: Snapshot, scene: Scene, t: float,
                         timer: StageTimer | None = None) -> Snapshot:
    """Advance every reference path to time t, structure frozen.

    No path is added or removed even when an interaction point leaves its
    facet; paths whose geometric construction fails outright are dropped and
    logged.  Fields are recomputed directly from the advanced geometry.
    """
    trajs = [PathTrajectory(p, scene, reference.time) for p in reference.paths]
    snap, dropped = _advance(trajs, scene, t, timer or StageTimer())
    if dropped:
        log.warning("drt: dropped %d geometrically impossible path(s) at t=%.3f",
                    dropped, t)
    return snap


def drt_run(scene: Scene, config: PredictionConfig,
            timer: StageTimer | None = None) -> RunResult:
    """One RT pass per round followed by frozen-structure predictions.

    Covers the closed grid [0, rounds*t_c] on the dt grid: each round
    contributes its reference snapshot and steps_per_round - 1 predictions,
    and a final RT pass at rounds*t_c closes the grid, so a run makes
    rounds + 1 passes, as edrt_run does.
    """
    timer = timer or StageTimer()
    snapshots: list[Snapshot] = []
    rt_times: list[float] = []
    dropped = 0
    with timer.total():
        for n in range(config.rounds):
            t0 = n * config.t_c
            reference = trace_snapshot(scene, t0, timer)
            rt_times.append(t0)
            snapshots.append(reference)
            trajs = [PathTrajectory(p, scene, t0) for p in reference.paths]
            for j in range(1, config.steps_per_round):
                snap, lost = _advance(trajs, scene, t0 + j * config.dt, timer)
                snapshots.append(snap)
                dropped += lost
        t_end = config.rounds * config.t_c
        snapshots.append(trace_snapshot(scene, t_end, timer))
        rt_times.append(t_end)
    if dropped:
        log.warning("drt run: dropped %d path instance(s) across all rounds", dropped)
    return RunResult(mode="drt", snapshots=snapshots, rt_times=rt_times, timing=timer,
                     t_c=config.t_c, dt=config.dt, duration=config.rounds * config.t_c,
                     counters={"dropped_paths": dropped})
