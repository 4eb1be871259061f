"""Single-instant ray tracer: exhaustive path finding and field computation.

Path finding is deterministic image-method enumeration over ordered facet
tuples (reflection order <= 2), plus one-edge diffraction via the generalized
Fermat point, each optionally combined with a single penetration through a
transparent facet.  No ray launching is involved, so path signatures are
stable across time and can be matched between snapshots.

Each mechanism has one construction kernel over arrays of rows, shared with
the predictions (drt.PathTrajectory runs them over paths x times):
reflection_chains (the image cascade), fermat_points (the diffraction point)
and slab_crossings (the penetration points).  An RT candidate calls them as
a batch of one, and path_geometry_of assembles every PathGeometry.  A
candidate is decided in four stages (trace_geometry): exact plane-side
culling, then beam culling of ordered reflection pairs (the second bounce
must lie in the beam that the first facet casts), then reflection_chains
over every remaining reflection candidate at once, which drops a candidate
only when a predicate fails by more than a rounding margin, then the exact
per-candidate decision (solve_backbone, the occlusion profile,
build_geometry) for each candidate left.

The electric field is propagated as a complex 3-vector with per-interface
polarization decomposition, on Python floats, and reported at the receiver
as a 2-vector in the ray-fixed (vertical, horizontal) arrival basis.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .coefficients import (
    WedgeGeometry,
    complex_permittivity,
    fresnel_from_cos,
    transmission_from_cos,
    utd_coefficient,
)
from .geometry import (
    UNIT_TOL,
    ConstructionError,
    WedgeFrame,
    arrival_basis,
    cross3,
    dot3,
    norm,
    sub3,
    unit3,
    vertical_pol,
)
from .scene import (
    C_LIGHT,
    FacetArrays,
    FacetAtTime,
    Scene,
    SceneAtTime,
    SceneError,
    scene_at,
)

ETA0 = 376.730313668  # free-space impedance, ohms

# geometric tolerances
SIDE_EPS = 1e-9          # strictly-same-side margin, m
GRAZING_COS = 1e-9       # reject interactions closer than this to grazing
SEG_PARAM_EPS = 1e-9     # occlusion hits closer than this to a segment end are ignored
BOX_PAD = 1e-6           # crossing broad phase: segment boxes grow by this, m
CROSSING_CHUNK = 1 << 10  # crossing kernel: most (row, facet) pairs tested at once
CULL_MARGIN = 1e-10      # plane-side and beam culling: rounding allowance, m
FILTER_SLACK = 1e-7      # batched construction filter: rounding allowance
FILTER_CHUNK = 1 << 9    # batched construction filter: most candidates at once
ON_GEOMETRY_TOL = 1e-5   # field computation: interaction point must be this close
                         # to its facet plane / edge line


class Mechanism(str, Enum):
    REFLECTION = "R"
    DIFFRACTION = "D"
    PENETRATION = "P"


Signature = tuple[tuple[Mechanism, str], ...]


def signature_str(sig: Signature) -> str:
    if not sig:
        return "LOS"
    return "|".join(f"{m.value}:{gid}" for m, gid in sig)


def parse_signature(s: str) -> Signature:
    if s == "LOS":
        return ()
    out = []
    for part in s.split("|"):
        m, gid = part.split(":", 1)
        out.append((Mechanism(m), gid))
    return tuple(out)


def signature_sort_key(sig: Signature):
    return (len(sig), tuple((m.value, gid) for m, gid in sig))


class Interaction(NamedTuple):
    mechanism: Mechanism
    geometry_id: str
    point: np.ndarray


@dataclass
class Path:
    signature: Signature
    interactions: list[Interaction]
    delay: float            # s
    field: np.ndarray       # complex (2,) in the (v, h) arrival basis, V/m
    power_dbm: float
    # caches attached by tracing passes that feed field extrapolation
    geometry: object = field(default=None, repr=False, compare=False)
    traces: list = field(default=None, repr=False, compare=False)

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.field))


@dataclass
class Snapshot:
    time: float
    paths: list[Path]

    def by_signature(self) -> dict[Signature, Path]:
        return {p.signature: p for p in self.paths}

    def signature_set(self) -> set[Signature]:
        return {p.signature for p in self.paths}


# ---------------------------------------------------------------------------
# Occlusion
# ---------------------------------------------------------------------------

def facet_crossings(facets: FacetArrays, a: np.ndarray, d: np.ndarray,
                    exclude: np.ndarray | None = None,
                    disp: np.ndarray | None = None,
                    track: np.ndarray | None = None):
    """Crossings of segments a -> a + d with facet polygons.

    The one segment-crossing kernel.  a and d are (S, 3).  With disp
    (S, F, 3) each segment meets the facets translated by its own row of disp
    (one row per sample time of a moving scene).  track, (S,) and
    nondecreasing, labels the segment trajectory of each row: one segment of
    one path at many times, in consecutive rows.  Without it every row is
    its own trajectory.  exclude, (F,) or one row per trajectory label,
    marks the (trajectory, facet) pairs that never count.

    An axis-aligned box test first discards the pairs that cannot meet: each
    trajectory's box, swept over its rows and padded by BOX_PAD, against
    each facet's box, swept over the same rows' disp.  Every row of a
    trajectory then meets the facets that survived for it in the exact
    test, at most CROSSING_CHUNK pairs at a time: a plane crossing strictly
    inside the segment (SEG_PARAM_EPS from either end), then convex
    containment of the crossing point.  A crossing point lies within
    rounding of both boxes, so the broad phase never drops a pair that the
    exact test accepts.

    Returns (seg, facet, u, points) of the crossings in (seg, facet) order,
    u being the segment parameter of each crossing point.
    """
    b = a + d
    seg_lo = np.minimum(a, b)
    seg_lo -= BOX_PAD
    seg_hi = np.maximum(a, b, out=b)
    seg_hi += BOX_PAD
    if track is None:
        starts = None
        tr_lo, tr_hi = seg_lo, seg_hi
    else:
        starts = np.flatnonzero(np.concatenate(([True], track[1:] != track[:-1])))
        tr_lo = np.minimum.reduceat(seg_lo, starts, axis=0)
        tr_hi = np.maximum.reduceat(seg_hi, starts, axis=0)
    f_lo, f_hi = facets.lo, facets.hi
    if disp is not None:
        if starts is None:
            f_lo, f_hi = f_lo + disp, f_hi + disp
        else:
            f_lo = f_lo + np.minimum.reduceat(disp, starts, axis=0)
            f_hi = f_hi + np.maximum.reduceat(disp, starts, axis=0)
        near = slice(None)
    else:
        # drop the facets outside the box of all segments first
        near = np.flatnonzero(np.all((f_lo <= tr_hi.max(axis=0))
                                     & (f_hi >= tr_lo.min(axis=0)), axis=1))
        f_lo, f_hi = f_lo[near], f_hi[near]
    overlap = np.all((tr_lo[:, None, :] <= f_hi) & (tr_hi[:, None, :] >= f_lo), axis=2)
    if exclude is not None:
        excl = exclude if starts is None or exclude.ndim == 1 else exclude[track[starts]]
        overlap &= ~excl[..., near]
    g, k = np.nonzero(overlap)
    fi = np.arange(facets.lo.shape[0])[near][k]
    if starts is None:
        return _exact_crossings(facets, a, d, g, fi, disp)

    # every row of a trajectory against the facets that survived for it
    counts = np.append(starts[1:], a.shape[0])[g] - starts[g]
    cum = np.cumsum(counts)
    hits = []
    first = 0
    while first < g.size:
        base = cum[first - 1] if first else 0
        last = max(int(np.searchsorted(cum, base + CROSSING_CHUNK, side="right")),
                   first + 1)
        c = counts[first:last]
        run = np.repeat(starts[g[first:last]] - (cum[first:last] - c - base), c)
        hits.append(_exact_crossings(facets, a, d, run + np.arange(run.size),
                                     np.repeat(fi[first:last], c), disp))
        first = last
    if len(hits) == 1:
        si, fi, u, points = hits[0]
    elif hits:
        si, fi, u, points = (np.concatenate(parts) for parts in zip(*hits))
    else:
        return _exact_crossings(facets, a, d, g, fi, disp)
    order = np.lexsort((fi, si))
    return si[order], fi[order], u[order], points[order]


def _exact_crossings(facets: FacetArrays, a, d, si, fi, disp):
    """The exact crossing test of facet_crossings on (segment, facet) pairs.

    Gathers use ndarray.take, which copies the same values as fancy
    indexing at a fraction of its cost.
    """
    a_k, d_k, normals = a.take(si, axis=0), d.take(si, axis=0), facets.normals.take(fi, axis=0)
    denom = np.einsum("kc,kc->k", d_k, normals)
    offsets = facets.offsets.take(fi)
    if disp is not None:
        shift = disp[si, fi]
        offsets = offsets + np.einsum("kc,kc->k", normals, shift)
    num = offsets - np.einsum("kc,kc->k", a_k, normals)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = num / denom
    keep = np.flatnonzero((np.abs(denom) > 1e-14) & (u > SEG_PARAM_EPS)
                          & (u < 1.0 - SEG_PARAM_EPS))
    si, fi, u = si.take(keep), fi.take(keep), u.take(keep)
    points = a_k.take(keep, axis=0) + u[:, None] * d_k.take(keep, axis=0)
    origins = facets.origins.take(fi, axis=0)
    if disp is not None:
        origins = origins + shift.take(keep, axis=0)[:, None, :]
    edge_d = np.einsum("kvc,kvc->kv", points[:, None, :] - origins,
                       facets.inward.take(fi, axis=0))
    inside = np.flatnonzero(np.all((edge_d >= 0.0) | ~facets.valid.take(fi, axis=0),
                                   axis=1))
    return si.take(inside), fi.take(inside), u.take(inside), points.take(inside, axis=0)


def occlusion_profiles_batch(geom: SceneAtTime, polylines):
    """Crossed facets along many polylines Tx -> interactions -> Rx.

    polylines is a list of (vertices, owner_ids) pairs: vertices are the
    backbone points including both endpoints, owner_ids gives per vertex the
    facet ids that own it (empty for Tx/Rx).  All segments go through
    facet_crossings in one call; crossings on a segment's owner facets are
    ignored.  Returns per polyline (opaque_blocked, penetrations),
    penetrations being the parameter-ordered list of (segment_index,
    facet_at_time, point, t).
    """
    facets = geom.occlusion_arrays()
    id_index = geom._statics.id_index
    n_f = facets.normals.shape[0]
    if n_f == 0 or not polylines:
        return [(False, []) for _ in polylines]
    seg_a, seg_d, seg_owner, excl_rows = [], [], [], []
    for item, (vertices, owners) in enumerate(polylines):
        for k in range(len(vertices) - 1):
            seg_a.append(vertices[k])
            seg_d.append(vertices[k + 1] - vertices[k])
            seg_owner.append((item, k))
            row = np.zeros(n_f, dtype=bool)
            for fid in owners[k] | owners[k + 1]:
                row[id_index[fid]] = True
            excl_rows.append(row)
    hits = facet_crossings(facets, np.asarray(seg_a), np.asarray(seg_d),
                           exclude=np.asarray(excl_rows))
    results = [[False, []] for _ in polylines]
    for s, i, t, point in zip(*hits):
        item, k = seg_owner[s]
        if results[item][0]:
            continue
        if not facets.transparent[i]:
            results[item][0] = True
            results[item][1] = []
        else:
            results[item][1].append((k, geom.facets[i], point, float(t)))
    for r in results:
        r[1].sort(key=lambda h: (h[0], h[3]))
    return [(blocked, pens) for blocked, pens in results]


def occlusion_profile(geom: SceneAtTime, vertices, owner_ids):
    """occlusion_profiles_batch for a single polyline."""
    return occlusion_profiles_batch(geom, [(vertices, owner_ids)])[0]


# ---------------------------------------------------------------------------
# Backbone construction and resolved geometry
# ---------------------------------------------------------------------------

def solve_backbone(geom: SceneAtTime, backbone: tuple):
    """Interaction points for the reflection/diffraction part of a signature.

    backbone is a tuple of (Mechanism, geometry_id) without penetrations.
    The construction of one RT candidate: it raises ConstructionError for
    parallel or degenerate geometry, image side violations and grazing
    bounces, and when a reflection point leaves its polygon or a Fermat
    point leaves its edge segment.  Reflections go through reflection_chains
    and a diffraction through fermat_points, each as a batch of one: the
    kernels of the RT filter and of the predictions.
    """
    tx, rx = geom.tx, geom.rx
    refl = [(i, gid) for i, (m, gid) in enumerate(backbone) if m is Mechanism.REFLECTION]
    if len(refl) + sum(1 for m, _ in backbone if m is Mechanism.DIFFRACTION) != len(backbone):
        raise ValueError("backbone must contain only reflections and diffractions")

    if not backbone:
        return []

    mechs = [m for m, _ in backbone]
    if Mechanism.DIFFRACTION in mechs:
        if len(backbone) != 1:
            raise ValueError("combined reflection+diffraction paths are not enumerated")
        a, b = geom.edge(backbone[0][1]).endpoints
        p, ok, inside = fermat_points(tx, rx, a, b - a)
        if not ok:
            raise ConstructionError("degenerate diffraction geometry")
        if not inside:
            raise ConstructionError("diffraction point clipped by edge segment")
        return [p]

    # pure reflections: reflection_chains on a batch of one, with the
    # planes and polygons of this instant's facets
    facets = [geom.facet(gid) for _, gid in backbone]
    with np.errstate(all="ignore"):
        points, ok, inside = reflection_chains(
            np.asarray(tx, float), np.asarray(rx, float), [f.normal[None, None] for f in facets],
            [np.array([[f.offset]]) for f in facets],
            [(f.vertices[None, None], f.edge_inward[None], np.ones((1, len(f.vertices)), bool))
             for f in facets])
    if not ok[0, 0]:
        raise ConstructionError(f"no specular construction for {backbone}")
    if not inside[0, 0]:
        raise ConstructionError(f"a reflection point of {backbone} left its facet")
    return [p[0, 0] for p in points]


def reflection_chains(tx, rx, normals, offsets, polygons, slack: float = 0.0):
    """The image-method construction of reflection chains over (P, T) rows.

    The one image-cascade kernel: solve_backbone (a batch of one), the RT
    filter (T = 1) and drt.PathTrajectory (paths x times) call it.  Per
    bounce k, normals[k] (P, 1, 3) and offsets[k] give the plane and
    polygons[k] = (origins (P, T or 1, V, 3), inward (P, V, 3), valid
    (P, V)) the polygon; tx and rx broadcast against (P, T, 3).  Returns
    (points, ok, inside): the bounce points, (P, T, 3) each; ok marks the
    rows without a parallel line, an image line outside (0, 1), or a side
    or grazing violation, inside the rows whose points also lie inside
    their polygons.  With slack, a predicate fails only by more than slack.
    """
    images = [tx]
    for n, off in zip(normals, offsets):
        img = images[-1]
        images.append(img - (2.0 * (np.vecdot(img, n) - off))[..., None] * n)
    ok = inside = True
    points = [None] * len(normals)
    target = rx
    for k in reversed(range(len(normals))):
        img = images[k + 1]
        d = target - img
        denom = np.vecdot(normals[k], d)
        par = (offsets[k] - np.vecdot(normals[k], img)) / denom
        ok = ok & (np.abs(denom) >= 1e-14 - slack) & (par > -slack) & (par < 1.0 + slack)
        target = img + par[..., None] * d
        points[k] = target
        origins, inward, valid = polygons[k]
        edge_d = np.einsum("ptvc,pvc->ptv", target[:, :, None, :] - origins, inward)
        inside = inside & np.all((edge_d >= -slack) | ~valid[:, None], axis=2)
    chain = [tx] + points + [rx]
    for k, (n, off) in enumerate(zip(normals, offsets)):
        d_in = np.vecdot(n, chain[k]) - off
        d_out = np.vecdot(n, chain[k + 2]) - off
        ok = ok & ((np.minimum(d_in, d_out) >= SIDE_EPS - slack)
                   | (np.maximum(d_in, d_out) <= slack - SIDE_EPS))
        seg = chain[k + 1] - chain[k]
        seg_len = np.sqrt(np.vecdot(seg, seg))
        ok = ok & (seg_len >= UNIT_TOL - slack) & (
            np.abs(np.vecdot(seg / seg_len[..., None], n)) >= GRAZING_COS - slack)
    return points, ok, inside


def fermat_points(tx, rx, a, d):
    """The generalized Fermat construction of one-edge diffraction over rows.

    The one diffraction kernel: solve_backbone (a batch of one) and
    drt.PathTrajectory (paths x times) call it.  The point a + u d minimizes
    |tx - p| + |p - rx| on the edge line, so it satisfies the Keller cone
    condition.  tx, rx, a and d broadcast against each other, coordinates
    last.  Returns (points, ok, inside): ok marks the rows where tx and rx
    do not both lie on the edge line, inside the rows whose point lies
    strictly inside the segment, 0 < u < 1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        length = np.sqrt(np.vecdot(d, d))
        e = d / length[..., None]
        ta, tb = tx - a, rx - a
        s1 = np.vecdot(ta, e)
        s2 = np.vecdot(tb, e)
        w1 = ta - s1[..., None] * e
        w2 = tb - s2[..., None] * e
        r1 = np.sqrt(np.vecdot(w1, w1))
        r2 = np.sqrt(np.vecdot(w2, w2))
        u = (s1 + (s2 - s1) * r1 / (r1 + r2)) / length
        return a + u[..., None] * d, r1 + r2 >= 1e-12, (u > 0.0) & (u < 1.0)


def slab_crossings(a, d, normal, offset):
    """Crossings of the lines a + par d with the planes normal . x = offset.

    The one penetration kernel over rows: build_geometry (a batch of one)
    and drt.PathTrajectory (paths x times) call it.  Arguments broadcast,
    coordinates last.  Returns (points, par, parallel); parallel marks the
    rows whose line is parallel to its plane, where the values are
    meaningless.  par is not clamped: for extrapolated geometry a crossing
    may drift outside its segment, as the frozen structure implies.
    """
    denom = np.vecdot(normal, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        par = (offset - np.vecdot(normal, a)) / denom
        return a + par[..., None] * d, par, np.abs(denom) < 1e-14


@dataclass
class PenetrationHit:
    segment: int
    facet: FacetAtTime
    point: np.ndarray
    t: float


@dataclass
class PathGeometry:
    """Fully resolved geometry of one path at one time instant."""

    signature: Signature
    tx: np.ndarray
    rx: np.ndarray
    vertices: list[np.ndarray]      # tx, backbone points, rx
    backbone: list[Interaction]
    penetrations: list[PenetrationHit]
    seg_lengths: np.ndarray
    total_length: float
    diffraction_split: tuple[float, float] | None  # (s_pre, s_post)

    def interactions(self) -> list[Interaction]:
        """All interactions in signature order (see _interaction_slots)."""
        if not self.penetrations:   # the common case: the backbone alone
            return list(self.backbone)
        return [Interaction(m, gid, self.vertices[j] if on_vertex else self.penetrations[j].point)
                for (m, gid), (on_vertex, j) in zip(self.signature,
                                                    _interaction_slots(self.signature))]


@functools.lru_cache(maxsize=4096)
def _backbone_of(sig: Signature):
    return tuple((m, gid) for m, gid in sig if m is not Mechanism.PENETRATION)


@functools.lru_cache(maxsize=4096)
def _penetration_slots(sig: Signature):
    """(facet_id, segment_index) for each penetration, from signature order."""
    out = []
    seg = 0
    for m, gid in sig:
        if m is Mechanism.PENETRATION:
            out.append((gid, seg))
        else:
            seg += 1
    return tuple(out)


@functools.lru_cache(maxsize=4096)
def _interaction_slots(sig: Signature):
    """Where each interaction's point sits, in signature order: (True,
    vertex index) among Tx, the backbone points and Rx, or (False,
    penetration index).  Signature order is traversal order: an RT pass
    admits at most one penetration per path (trace_geometry)."""
    out = []
    n_pen = 0
    for m, _gid in sig:
        if m is Mechanism.PENETRATION:
            out.append((False, n_pen))
            n_pen += 1
        else:
            out.append((True, len(out) - n_pen + 1))
    return tuple(out)


def build_geometry(geom: SceneAtTime, sig: Signature, backbone_points) -> PathGeometry:
    """PathGeometry of an RT candidate from its solved backbone points.

    Each penetration point is the crossing of its segment's line with the
    slab plane (slab_crossings as a batch of one).  Raises ConstructionError
    for a segment parallel to its slab or of zero length.
    """
    vertices = [geom.tx, *backbone_points, geom.rx]
    pen_points, pen_params = [], []
    for fid, seg in _penetration_slots(sig):
        f = geom.facet(fid)
        a = vertices[seg]
        point, par, parallel = slab_crossings(a, vertices[seg + 1] - a, f.normal, f.offset)
        if parallel:
            raise ConstructionError(f"penetration segment parallel to facet {fid!r}")
        pen_points.append(point)
        pen_params.append(par)
    seg_lengths = np.linalg.norm(np.diff(np.asarray(vertices), axis=0), axis=1)
    if np.any(seg_lengths < 1e-9):
        raise ConstructionError("degenerate zero-length path segment")
    return path_geometry_of(geom, sig, backbone_points, pen_points, pen_params,
                            seg_lengths, float(seg_lengths.sum()))


def path_geometry_of(geom: SceneAtTime, sig: Signature, points, pen_points, pen_params,
                     seg_lengths: np.ndarray, total: float) -> PathGeometry:
    """The one PathGeometry assembler, for build_geometry and
    drt.PathTrajectory.path_geometry.

    points are the backbone points, pen_points and pen_params the slab
    crossings in signature order, seg_lengths and total the segment lengths
    and their sum.  geom is the instant: its Tx and Rx end the path and its
    facets are the penetrated ones.  A diffraction is always a path's only
    backbone interaction (see solve_backbone).
    """
    backbone_sig = _backbone_of(sig)
    backbone = [Interaction(m, gid, p) for (m, gid), p in zip(backbone_sig, points)]
    pens = [PenetrationHit(seg, geom.facet(fid), pen_points[j], float(pen_params[j]))
            for j, (fid, seg) in enumerate(_penetration_slots(sig))]
    split = None
    if backbone_sig and backbone_sig[0][0] is Mechanism.DIFFRACTION:
        s_pre = float(seg_lengths[0])
        split = (s_pre, total - s_pre)
    return PathGeometry(sig, geom.tx, geom.rx, [geom.tx, *points, geom.rx], backbone, pens,
                        seg_lengths, total, split)


# ---------------------------------------------------------------------------
# Field computation
# ---------------------------------------------------------------------------

def _dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def launch_amplitude(scene: Scene) -> float:
    """Free-space field normalization: |E| at 1 m for the scene Tx power."""
    cached = getattr(scene, "_launch_amplitude", None)
    if cached is None:
        p_t = _dbm_to_watts(scene.tx_power_dbm)
        cached = math.sqrt(ETA0 * p_t / (2.0 * math.pi))
        object.__setattr__(scene, "_launch_amplitude", cached)
    return cached


def power_dbm_from_field(magnitude: float, scene: Scene) -> float:
    """Received power (isotropic aperture) for a field magnitude at Rx."""
    if magnitude <= 0.0:
        return -math.inf
    p_r = magnitude ** 2 * scene.wavelength ** 2 / (8.0 * math.pi * ETA0)
    return 10.0 * math.log10(p_r) + 30.0


def _reflection_basis(s_in, normal) -> tuple:
    perp = cross3(s_in, normal)
    m = math.sqrt(dot3(perp, perp))
    if m < 1e-9:
        # normal incidence: plane of incidence degenerate, any transverse axis
        perp = cross3(s_in, (0.0, 0.0, 1.0))
        m = math.sqrt(dot3(perp, perp))
        if m < 1e-9:
            perp = cross3(s_in, (1.0, 0.0, 0.0))
            m = math.sqrt(dot3(perp, perp))
    return (perp[0] / m, perp[1] / m, perp[2] / m)


def _check_on_geometry(geometry: PathGeometry, geom: SceneAtTime) -> None:
    for inter in geometry.backbone:
        p = inter.point.tolist()
        if inter.mechanism is Mechanism.REFLECTION:
            f = geom.facet(inter.geometry_id)
            if abs(dot3(f.normal.tolist(), p) - f.offset) > ON_GEOMETRY_TOL:
                raise ConstructionError(
                    f"reflection point off the plane of facet {inter.geometry_id!r}")
        else:
            a, b = geom.edge(inter.geometry_id).endpoints.tolist()
            d = unit3(sub3(b, a))
            w = sub3(p, a)
            along = dot3(w, d)
            off = (w[0] - along * d[0], w[1] - along * d[1], w[2] - along * d[2])
            if math.sqrt(dot3(off, off)) > ON_GEOMETRY_TOL:
                raise ConstructionError(
                    f"diffraction point off the line of edge {inter.geometry_id!r}")


class InteractionTrace(NamedTuple):
    """Recorded context of one interaction along a reference chain walk.

    Captures the coefficient pair that was applied, the polarization
    eigen-channel that carried the field (0 = perp/soft, 1 = par/hard), and
    the static geometry needed to re-evaluate the coefficient at another
    time (normals and wedge frames are invariant under rigid translation).
    """

    kind: Mechanism
    coeff: tuple[complex, complex]
    label: int
    eps: complex = 0.0 + 0.0j  # complex permittivity at the scene frequency
    normal: np.ndarray | None = None
    frame: object | None = None
    thickness: float = 0.0
    alpha: float = 0.0
    d_t: float = 0.0


def wedge_geometry_of(frame: WedgeFrame, verts, seg_lengths, total_length: float,
                      index: int) -> WedgeGeometry:
    """Edge-local angles of the diffraction at backbone position index.

    verts are the path's vertices (Tx, backbone points, Rx) and seg_lengths
    its segment lengths, as sequences of floats.
    """
    a, b, c = verts[index], verts[index + 1], verts[index + 2]
    dx, dy, dz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    e = frame.ef
    d_in = sum(seg_lengths[: index + 1])
    cos_b = (dx * e[0] + dy * e[1] + dz * e[2]) / seg_lengths[index]
    return WedgeGeometry(
        n=frame.n_index,
        beta0=math.acos(min(max(cos_b, -1.0), 1.0)),
        phi_inc=frame.angle_components(-dx, -dy, -dz),
        phi_dif=frame.angle_components(c[0] - b[0], c[1] - b[1], c[2] - b[2]),
        d_inc=d_in,
        d_dif=total_length - d_in,
    )


def _project(e_vec, pair, u_in, v_in, u_out, v_out):
    """One interaction: the field's components along (u_in, v_in) scaled by
    the coefficient pair onto (u_out, v_out), and the carrying channel."""
    c0, c1 = dot3(e_vec, u_in), dot3(e_vec, v_in)
    a, b = pair[0] * c0, pair[1] * c1
    return ((a * u_out[0] + b * v_out[0], a * u_out[1] + b * v_out[1],
             a * u_out[2] + b * v_out[2]), 0 if abs(c0) >= abs(c1) else 1)


def polarization_chain(scene: Scene, geom: SceneAtTime, geometry: PathGeometry,
                       record: list[InteractionTrace] | None = None) -> tuple:
    """Propagate the launch polarization through all interactions.

    Returns the complex 3-vector (a tuple) of field direction times
    coefficients, before spreading and propagation phase.  When record is
    given, an InteractionTrace per interaction (backbone order, then
    penetrations) is appended for later coefficient re-evaluation.  The walk
    runs on Python floats, and every coefficient comes from the incidence
    cosine, as in E-DRT's re-evaluation.
    """
    verts = [v.tolist() for v in geometry.vertices]
    freq = scene.frequency
    amp = launch_amplitude(scene)
    v = vertical_pol(unit3(sub3(verts[1], verts[0])))
    e_vec = (complex(amp * v[0]), complex(amp * v[1]), complex(amp * v[2]))
    for i, inter in enumerate(geometry.backbone):
        s_in = unit3(sub3(verts[i + 1], verts[i]))
        s_out = unit3(sub3(verts[i + 2], verts[i + 1]))
        if inter.mechanism is Mechanism.REFLECTION:
            f = geom.facet(inter.geometry_id)
            normal = f.normal.tolist()
            eps = complex_permittivity(f.material, freq)
            pair = fresnel_from_cos(min(abs(dot3(s_in, normal)), 1.0), eps)
            e_perp = _reflection_basis(s_in, normal)
            e_vec, label = _project(e_vec, pair, e_perp, cross3(e_perp, s_in),
                                    e_perp, cross3(e_perp, s_out))
            trace = InteractionTrace(kind=Mechanism.REFLECTION, coeff=pair, label=label,
                                     eps=eps, normal=f.normal)
        else:  # diffraction
            e = geom.edge(inter.geometry_id)
            frame = e.frame
            material = e.adjacent[0].material
            eps = complex_permittivity(material, freq)
            pair = utd_coefficient(wedge_geometry_of(frame, verts, geometry.seg_lengths.tolist(),
                                                     geometry.total_length, i),
                                   material, freq, eps)
            a, b = unit3(cross3(frame.ef, s_in)), unit3(cross3(frame.ef, s_out))
            phi_in, phi_out = (-a[0], -a[1], -a[2]), (-b[0], -b[1], -b[2])
            e_vec, label = _project(e_vec, pair, cross3(phi_in, s_in), phi_in,
                                    cross3(phi_out, s_out), phi_out)
            trace = InteractionTrace(kind=Mechanism.DIFFRACTION, coeff=pair, label=label,
                                     eps=eps, frame=frame)
        if record is not None:
            record.append(trace)

    for hit in geometry.penetrations:
        f = hit.facet
        normal = f.normal.tolist()
        s_dir = unit3(sub3(verts[hit.segment + 1], verts[hit.segment]))
        cos_th = min(abs(dot3(s_dir, normal)), 1.0)
        if cos_th < GRAZING_COS:
            raise ConstructionError(f"grazing penetration through facet {f.id!r}")
        eps = complex_permittivity(f.material, freq)
        tr = transmission_from_cos(cos_th, eps, f.thickness)
        e_perp = _reflection_basis(s_dir, normal)
        par = cross3(e_perp, s_dir)
        e_vec, label = _project(e_vec, (tr.t_perp, tr.t_par), e_perp, par, e_perp, par)
        if record is not None:
            record.append(InteractionTrace(
                kind=Mechanism.PENETRATION, coeff=(tr.t_perp, tr.t_par), label=label,
                eps=eps, normal=f.normal, thickness=f.thickness,
                alpha=f.material.attenuation_alpha, d_t=tr.d_t))
        loss = tr.loss_factor(f.material.attenuation_alpha)
        e_vec = (e_vec[0] * loss, e_vec[1] * loss, e_vec[2] * loss)

    return e_vec


def spreading_factor(geometry: PathGeometry) -> float:
    """Amplitude spreading of the whole path (1/length, or the diffraction
    caustic form when an edge is involved)."""
    if geometry.diffraction_split is None:
        return 1.0 / geometry.total_length
    s_pre, s_post = geometry.diffraction_split
    return math.sqrt(1.0 / (s_pre * s_post * (s_pre + s_post)))


def field_of_path(scene: Scene, geom: SceneAtTime, geometry: PathGeometry,
                  record: list[InteractionTrace] | None = None):
    """Direct electric-field computation for a resolved path.

    Free-space spherical spreading from the transmitter, per-interaction
    coefficient application with polarization decomposition at each
    interface, and slab penetration loss.  Returns (field_2vector,
    power_dbm) with the field expressed in the receiver's (v, h) basis.
    """
    _check_on_geometry(geometry, geom)
    verts = geometry.vertices
    e_vec = polarization_chain(scene, geom, geometry, record)
    scale = (spreading_factor(geometry)
             * cmath.exp(-1j * scene.wavenumber * geometry.total_length))
    e_vec = (e_vec[0] * scale, e_vec[1] * scale, e_vec[2] * scale)
    v_hat, h_hat = arrival_basis(unit3(sub3(verts[-1].tolist(), verts[-2].tolist())))
    f_v, f_h = dot3(e_vec, v_hat), dot3(e_vec, h_hat)
    return (np.array([f_v, f_h]),
            power_dbm_from_field(math.hypot(abs(f_v), abs(f_h)), scene))


def make_path(scene: Scene, geom: SceneAtTime, geometry: PathGeometry) -> Path:
    """Path with its directly computed field.

    The resolved geometry and the per-interaction coefficient traces are
    always kept on the path: E-DRT extrapolates fields from them, and keeping
    them costs less than walking the chain a second time.
    """
    traces: list[InteractionTrace] = []
    field2, p_dbm = field_of_path(scene, geom, geometry, record=traces)
    return Path(
        signature=geometry.signature,
        interactions=geometry.interactions(),
        delay=geometry.total_length / C_LIGHT,
        field=field2,
        power_dbm=p_dbm,
        geometry=geometry,
        traces=traces,
    )


# ---------------------------------------------------------------------------
# Snapshot tracing
# ---------------------------------------------------------------------------

def _owner_ids_for(scene: Scene, backbone: tuple):
    """Facet-id exclusion sets per path vertex (Tx/Rx own nothing).

    Ids are scene-level, so the sets hold at every instant.
    """
    owners = [set() for _ in range(len(backbone) + 2)]
    for i, (m, gid) in enumerate(backbone):
        if m is Mechanism.REFLECTION:
            owners[i + 1].add(gid)
        else:
            owners[i + 1].update(scene.edge_by_id(gid).adjacent_facets)
    return owners


def _reflection_culling(geom: SceneAtTime):
    """Culling of reflection candidates: (single (F,), pair (F, F), beam_culled).

    single[i] keeps a reflection on facet i, pair[i, j] the ordered pair
    facet i then facet j, and beam_culled counts the pairs that the beam
    rule alone drops.  Each rule drops a candidate only when its bound fails
    by more than a rounding allowance, so the culling never removes a path
    that the exact checks of solve_backbone would accept.  Both run on
    (F, F) arrays, one vertex slot at a time.

    Plane side (singles and pairs).  solve_backbone rejects a bounce whose
    neighbours are not strictly on one side of its plane, each at least
    SIDE_EPS from it.  A bounce point lies inside its polygon, so its
    distance from another plane is bounded by the polygon vertices'
    distances; the bounds may fail by CULL_MARGIN.

    Beam (pairs only; Funkhouser et al., SIGGRAPH 1998).  With T' the image
    of Tx across plane i, the construction puts bounce 1 at
    p1 = T' + par (p2 - T') with 0 < par < 1 and p1 inside facet i, so
    bounce 2, p2 = T' + (p1 - T') / par, lies in the beam that T' casts
    through facet i: on the inner side of every side plane through T' and
    an edge of facet i.  Mirrored across plane j, the leg p1 -> p2 runs on
    to Rx's image R', so p1 lies in the beam that R' casts through facet j.
    A pair is kept only when facet j's bounding sphere (vertex centroid c,
    largest vertex distance r) reaches the inner side of every side plane
    of the first beam, and facet i's sphere every side plane of the second:
    g . (c - o) >= -r - margin, with o the edge's origin, w its inward
    normal, s the transceiver's signed distance from the beam's plane n and
    g the unit vector along sign(s) ((trx - o) . w) n + |s| w, which
    vanishes on the image and the edge and is positive inside the polygon.

    The margin is CULL_MARGIN (1 + reach / |s|), where reach, the diagonal
    of the box around all facets, bounds how far any point of a facet lies
    from another facet's plane.  Rounding leaves each computed bounce within
    some eta of its plane and polygon, eta a few ulps of the scene
    coordinates; CULL_MARGIN bounds a small multiple of eta, as in the
    plane-side rule.  So g . (p1 - o) >= -2 eta, and p2 lies within eta of
    facet j's sphere.  The distance to a side plane is affine and zero at
    the apex, so along the line from T' it scales with the distance from
    T': p2, 1 / par times as far as p1, inherits p1's error times
    1 / par = (|s| + d) / |s| <= 1 + reach / |s|, d being p2's distance
    beyond plane i, and the rounding of T' itself times 1 / par - 1.  For
    the receiver's beam the specular legs at p2 make equal angles with
    plane j, so p1, p2 and R' are collinear to within
    eta (1 + |p1 p2| / |p2 Rx|) = eta (1 + d' / |s_rx|), d' being p1's
    distance beyond plane j, and the same factor applies.  The margin is
    largest when a transceiver is within a few SIDE_EPS of the plane, where
    the beam spans nearly a half-space and culls almost nothing.
    """
    facets = geom.occlusion_arrays()
    normals, offsets = facets.normals, facets.offsets
    n_f = normals.shape[0]
    tau = SIDE_EPS - CULL_MARGIN
    s_tx = normals @ np.asarray(geom.tx, float) - offsets
    s_rx = normals @ np.asarray(geom.rx, float) - offsets
    single = ((s_tx >= tau) & (s_rx >= tau)) | ((s_tx <= -tau) & (s_rx <= -tau))
    # above[i, j] / below[i, j]: some vertex of facet j at least tau in front
    # of / behind plane i, one vertex slot at a time so that temporaries stay
    # (F, F)
    above = np.zeros((n_f, n_f), dtype=bool)
    below = np.zeros((n_f, n_f), dtype=bool)
    for v in range(facets.origins.shape[1]):
        dist = normals @ facets.origins[:, v, :].T
        dist -= offsets[:, None]
        slot = facets.valid[:, v]
        above |= (dist >= tau) & slot
        below |= (dist <= -tau) & slot

    def shares_side(s_trx):
        """[i, j]: the transceiver and some vertex of facet j on one side of plane i."""
        return ((s_trx >= tau)[:, None] & above) | ((s_trx <= -tau)[:, None] & below)

    # bounce 1 on plane i needs Tx and bounce 2 (inside facet j) on one side,
    # bounce 2 on plane j needs Rx and bounce 1 (inside facet i) on one side
    pair = shares_side(s_tx) & shares_side(s_rx).T
    np.fill_diagonal(pair, False)
    side_kept = int(pair.sum())

    # each facet's bounding sphere (vertex centroid, largest vertex
    # distance), as the rows (c, 1, r) of spheres
    valid = facets.valid
    centres = np.einsum("fvc,fv->fc", facets.origins, valid) / valid.sum(axis=1)[:, None]
    spoke = facets.origins - centres[:, None, :]
    radii = np.sqrt(np.max(np.where(valid, np.vecdot(spoke, spoke), 0.0), axis=1))
    spheres = np.vstack((centres.T, np.ones(n_f), radii))
    reach = norm(facets.hi.max(axis=0) - facets.lo.min(axis=0)) if n_f else 0.0

    def in_beam(s_trx, trx):
        """[i, j]: facet j's sphere reaches the inner side of every side
        plane of the beam that trx's image across plane i casts through
        facet i."""
        h = np.abs(s_trx)
        with np.errstate(divide="ignore", invalid="ignore"):
            # per edge slot (F, V), the side plane's unit normal g, and
            # g . (c - o) + r + margin >= 0 as lift . (c, 1, r) >= 0; a
            # padded slot's lift (0, 0, 0, inf, 0) keeps every sphere
            a = np.sign(s_trx)[:, None] * np.vecdot(trx - facets.origins, facets.inward)
            g = a[..., None] * normals[:, None, :] + h[:, None, None] * facets.inward
            g /= np.sqrt(np.vecdot(g, g))[..., None]
            margin = CULL_MARGIN * (1.0 + reach / h)
            lift = np.concatenate((g, (margin[:, None] - np.vecdot(g, facets.origins))[..., None],
                                   np.ones(valid.shape + (1,))), axis=2)
            lift[~valid] = (0.0, 0.0, 0.0, np.inf, 0.0)
        inside = np.ones((n_f, n_f), dtype=bool)
        for v in range(lift.shape[1]):
            # into the plane-side rule's (F, F) buffer, to keep the peak
            inside &= np.matmul(lift[:, v, :], spheres, out=dist) >= 0.0
        return inside

    # bounce 2 lies in Tx's beam through facet i, bounce 1 in Rx's through j
    pair &= in_beam(s_tx, np.asarray(geom.tx, float))
    pair &= in_beam(s_rx, np.asarray(geom.rx, float)).T
    return single, pair, side_kept - int(pair.sum())


def _constructible(geom: SceneAtTime, chains) -> np.ndarray:
    """Which reflection candidates the batched construction keeps.

    chains holds one (C,) array of facet indices per bounce.  The
    candidates go through reflection_chains at the instant's FacetArrays in
    chunks of FILTER_CHUNK, with FILTER_SLACK: a candidate is dropped only
    when some predicate of solve_backbone fails by more than that margin.
    """
    facets = geom.occlusion_arrays()
    keep = np.empty(chains[0].size, dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, keep.size, FILTER_CHUNK):
            idx = [c[lo:lo + FILTER_CHUNK] for c in chains]
            _points, ok, inside = reflection_chains(
                geom.tx, geom.rx, [facets.normals.take(i, axis=0)[:, None] for i in idx],
                [facets.offsets.take(i)[:, None] for i in idx],
                [(facets.origins.take(i, axis=0)[:, None], facets.inward.take(i, axis=0),
                  facets.valid.take(i, axis=0)) for i in idx], FILTER_SLACK)
            keep[lo:lo + FILTER_CHUNK] = (ok & inside)[:, 0]
    return keep


def _candidate_backbones(geom: SceneAtTime, single: np.ndarray, pair: np.ndarray):
    """Backbones left to solve after the culling and the filter, in
    enumeration order."""
    fids = [f.id for f in geom.facets]
    refl = Mechanism.REFLECTION
    yield ()
    for i in np.flatnonzero(single):
        yield ((refl, fids[i]),)
    for i, j in zip(*np.nonzero(pair)):
        yield ((refl, fids[i]), (refl, fids[j]))
    for e in geom.edges:
        yield ((Mechanism.DIFFRACTION, e.id),)


def trace_geometry(scene: Scene, t: float, timer=None):
    """Geometric stage of a snapshot: all valid path geometries at time t.

    The candidates are line of sight, every reflection on one facet and on
    each ordered facet pair, and every edge diffraction.  Four stages
    decide them, each exact about what it drops:

    1. plane-side culling (_reflection_culling) drops the reflection
       candidates that the sides of the transceivers and facet vertices
       prove impossible;
    2. beam culling (_reflection_culling) drops the ordered pairs whose
       second facet lies outside the beam that Tx's image casts through the
       first, or whose first facet lies outside the beam that Rx's image
       casts through the second;
    3. the batched construction (_constructible) runs the image cascade of
       every remaining reflection candidate as arrays and drops those that
       fail a predicate of solve_backbone by more than FILTER_SLACK;
    4. every candidate left goes through the per-candidate decision:
       solve_backbone, the occlusion profile and build_geometry.

    A timer, when given, counts the candidates that pass the plane-side
    culling (rt_candidates) and those it drops (rt_culled); of the
    former, those dropped by the beam culling (rt_beam_culled) and by the
    batched construction (rt_prefiltered).  Raises SceneError when Tx and
    Rx are closer than SIDE_EPS, where no path is defined.
    """
    geom = scene_at(scene, t)
    if norm(geom.rx - geom.tx) < SIDE_EPS:
        raise SceneError(f"tx and rx coincide at t={geom.time:g} s")
    single, pair, beam_culled = _reflection_culling(geom)
    kept = int(single.sum()) + int(pair.sum())
    ones = np.flatnonzero(single)
    single[ones] = _constructible(geom, [ones])
    first, second = np.nonzero(pair)
    pair[first, second] = _constructible(geom, [first, second])
    if timer is not None:
        timer.count("rt_candidates", 1 + beam_culled + kept + len(geom.edges))
        timer.count("rt_culled", len(geom.facets) ** 2 - beam_culled - kept)
        timer.count("rt_beam_culled", beam_culled)
        timer.count("rt_prefiltered", kept - int(single.sum()) - int(pair.sum()))
    results: list[PathGeometry] = []
    for backbone in _candidate_backbones(geom, single, pair):
        try:
            points = solve_backbone(geom, backbone)
        except ConstructionError:
            continue
        vertices = [geom.tx] + points + [geom.rx]
        blocked, pens = occlusion_profile(geom, vertices,
                                          _owner_ids_for(scene, backbone))
        if blocked or len(pens) > 1:
            continue
        sig = _signature_with_penetrations(backbone, pens)
        try:
            geometry = build_geometry(geom, sig, points)
        except ConstructionError:
            continue
        results.append(geometry)
    results.sort(key=lambda g: signature_sort_key(g.signature))
    return geom, results


def _signature_with_penetrations(backbone: tuple, pens) -> Signature:
    """backbone with its one penetration, if any, in traversal order."""
    if not pens:
        return backbone
    seg, facet = pens[0][:2]
    return backbone[:seg] + ((Mechanism.PENETRATION, facet.id),) + backbone[seg:]


def trace_snapshot(scene: Scene, t: float, timer=None) -> Snapshot:
    """Full ray-tracing run at a single time instant.

    Returns the line-of-sight path (when unobstructed), all image-method
    reflection paths up to order two, and all single-edge diffraction paths,
    each optionally penetrating one transparent facet.  Paths are sorted by
    signature; an empty path list is a valid outcome.  Every path keeps its
    geometry and per-interaction coefficient traces (see make_path), so any
    snapshot can serve as an E-DRT reference.  Raises SceneError when Tx and
    Rx coincide at t.
    """
    from .runs import StageTimer
    timer = timer or StageTimer()
    with timer.geometry():
        geom, geometries = trace_geometry(scene, t, timer=timer)
    paths = []
    with timer.field():
        for g in geometries:
            paths.append(make_path(scene, geom, g))
    sigs = [p.signature for p in paths]
    if len(set(sigs)) != len(sigs):
        raise RuntimeError("duplicate path signatures in snapshot")
    return Snapshot(time=float(t), paths=paths)
