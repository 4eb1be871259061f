"""Single-instant ray tracer: exhaustive path finding and field computation.

Path finding is deterministic image-method enumeration over ordered facet
tuples (reflection order <= 2), plus one-edge diffraction via the generalized
Fermat point, each optionally combined with a single penetration through a
transparent facet.  No ray launching is involved, so path signatures are
stable across time and can be matched between snapshots.

An instant is the scene's arrays (scene.scene_at): every stage reads the
facets' planes and polygons and the edges' endpoints from them by index,
and what translation leaves unchanged (materials, thicknesses, wedge
frames) from the Scene.  One exclusion rule (segment_exclusions) gives the
facets that each segment of a path ignores in its crossing tests, and one
crossing profile (occlusion_profiles_batch) tests them, for RT candidates
and predicted paths alike: it lays out the segments of blocks of paths
(one vertex count each) at their marked instants as rows, makes one
facet_crossings call, and returns every hit as arrays (path, instant,
segment, facet, transparent).  An RT pass derives each candidate's
penetration from its hits (occlusion_profile): blocked by an opaque
crossing, dropped for more than one slab, or carrying the one slab it
crosses; the predictions check the slabs their signatures declare
(drt.PathTrajectory.crossings).

Each mechanism has one construction kernel over arrays of rows, shared with
the predictions (drt.PathTrajectory runs them over paths x times):
reflection_chains (the image cascade), fermat_points (the diffraction point)
and slab_crossings (the penetration points).  An RT candidate calls them as
a batch of one, and build_geometry returns its PathGeometry: one row of the
arrays that a drt.TrajectoryGeometry holds for many paths and instants.  A
candidate is decided in four stages (trace_geometry): exact plane-side
culling, then beam culling of ordered reflection pairs (the second bounce
must lie in the beam that the first facet casts), then reflection_chains
over every remaining reflection candidate at once, which drops a candidate
only when a predicate fails by more than a rounding margin, then the exact
decision: solve_backbone per candidate, the crossing profile of all that
construct (occlusion_profile), and build_geometry for those it keeps.

The field stage is one batch of resolved paths (make_path on PathRows,
each row at its own instant): an RT pass calls it once, DRT once per run
and E-DRT once for its direct fallbacks; field_of_path is a batch of one.
The on-geometry check, the spreading, the propagation phase, the arrival
basis, the power and the Path assembly run once per batch on arrays, in
the arithmetic of the float form, so that a batch gives each row the bits
of its batch of one.  Between them each row walks its chain on Python
floats (polarization_chain): the electric field is propagated as a complex
3-vector with per-interface polarization decomposition, and reported at the
receiver as a 2-vector in the ray-fixed (vertical, horizontal) arrival
basis.  The chain reads each path's mechanisms, penetrated facets and
segments from its signature (slots_of, cached per signature), and
interactions_of lists the interactions of RT, DRT and E-DRT paths alike.  At
an edge the chain takes the angles from geometry.wedge_angles, the
coefficient from coefficients.utd_coefficient and the caustic spreading
from spreading_factor: formulas that run on floats in an RT pass's walk,
and on arrays in E-DRT's field extrapolation and for DRT's UTD pairs
(diffraction_coefficients), which the walk then takes as given.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .coefficients import (
    WedgeGeometry,
    fresnel_from_cos,
    transmission_from_cos,
    utd_coefficient,
)
from .geometry import (
    UNIT_TOL,
    ConstructionError,
    cross3,
    dot3,
    functions_for,
    norm,
    sub3,
    unit3,
    vertical_pol,
    wedge_angles,
)
from .scene import (
    C_LIGHT,
    FacetArrays,
    Scene,
    SceneAtTime,
    SceneError,
    complex_permittivity,
    scene_at,
    shifted_offsets,
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

def facet_crossings(facets: FacetArrays, a: np.ndarray, d: np.ndarray, track: np.ndarray,
                    exclude: np.ndarray | None = None, disp: np.ndarray | None = None,
                    margins: bool = False):
    """Crossings of segments a -> a + d with facet polygons.

    The one segment-crossing kernel.  a and d are (S, 3).  track, (S,) and
    nondecreasing, labels the segment trajectory of each row: one segment of
    one path at many times, in consecutive rows (a segment of an RT pass is
    its own track).  With disp (S, F, 3) each segment meets the facets
    translated by its own row of disp (one row per sample time of a moving
    scene).  exclude, one (F,) row per track label, marks the (track, facet)
    pairs that never count.

    An axis-aligned box test first discards the pairs that cannot meet: each
    track's box, swept over its rows and padded by BOX_PAD, against each
    facet's box, swept over the same rows' disp.  Every row of a track then
    meets the facets that survived for it in the exact test, at most
    CROSSING_CHUNK pairs at a time: a plane crossing strictly inside the
    segment (SEG_PARAM_EPS from either end), then convex containment of the
    crossing point.  A crossing point lies within rounding of both boxes, so
    the broad phase never drops a pair that the exact test accepts.

    Returns (seg, facet, u, points) of the crossings in (seg, facet) order,
    u being the segment parameter of each crossing point.  With margins it
    returns (seg, facet, margin) of every pair that the exact test met
    instead, in the same order: margin >= 0 exactly at the crossings.
    """
    b = a + d
    seg_lo = np.minimum(a, b)
    seg_lo -= BOX_PAD
    seg_hi = np.maximum(a, b, out=b)
    seg_hi += BOX_PAD
    starts = np.flatnonzero(np.concatenate(([True], track[1:] != track[:-1])))
    tr_lo = np.minimum.reduceat(seg_lo, starts, axis=0)
    tr_hi = np.maximum.reduceat(seg_hi, starts, axis=0)
    f_lo, f_hi = facets.lo, facets.hi
    if disp is not None:
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
        overlap &= ~exclude[track[starts]][:, near]
    g, k = np.nonzero(overlap)
    fi = np.arange(facets.lo.shape[0])[near][k]

    # every row of a track against the facets that survived for it
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
                                     np.repeat(fi[first:last], c), disp, margins))
        first = last
    if len(hits) == 1:
        parts = hits[0]
    elif hits:
        parts = [np.concatenate(part) for part in zip(*hits)]
    else:
        return _exact_crossings(facets, a, d, g, fi, disp, margins)
    order = np.lexsort((parts[1], parts[0]))
    return tuple(part[order] for part in parts)


def _exact_crossings(facets: FacetArrays, a, d, si, fi, disp, margins=False):
    """The exact crossing test of facet_crossings on (segment, facet) pairs.

    With margins, returns (si, fi, margin) of every pair: the blocking
    margin min((u - SEG_PARAM_EPS) L, (1 - SEG_PARAM_EPS - u) L,
    containment), L the segment length and containment the crossing
    point's least signed edge distance in the polygon, signed so that it is
    >= 0 exactly where the pair crosses (signed_margin); -inf where the
    segment is parallel to the plane.  Gathers use ndarray.take, which
    copies the same values as fancy indexing at a fraction of its cost.
    """
    a_k, d_k, normals = a.take(si, axis=0), d.take(si, axis=0), facets.normals.take(fi, axis=0)
    denom = np.einsum("kc,kc->k", d_k, normals)
    offsets = facets.offsets.take(fi)
    shift = None
    if disp is not None:
        shift = disp[si, fi]
        offsets = shifted_offsets(normals, offsets, shift)
    num = offsets - np.einsum("kc,kc->k", a_k, normals)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = num / denom
    if margins:
        return si, fi, _blocking_margins(facets, a_k, d_k, fi, denom, u, shift)
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


def _blocking_margins(facets: FacetArrays, a_k, d_k, fi, denom, u, shift):
    """The margins of _exact_crossings, on every pair; shift moves each
    pair's facet when not None."""
    with np.errstate(invalid="ignore"):
        points = a_k + u[:, None] * d_k
        origins = facets.origins.take(fi, axis=0)
        if shift is not None:
            origins = origins + shift[:, None, :]
        edge_d = np.einsum("kvc,kvc->kv", points[:, None, :] - origins,
                           facets.inward.take(fi, axis=0))
        contain = np.where(facets.valid.take(fi, axis=0), edge_d, np.inf).min(axis=1)
        along = np.minimum(u - SEG_PARAM_EPS, (1.0 - SEG_PARAM_EPS) - u)
        square = np.einsum("kc,kc->k", d_k, d_k)
        crossing = np.abs(denom) > 1e-14
        margin = np.where(crossing, np.minimum(along * np.sqrt(square), contain), -np.inf)
        return signed_margin(margin, crossing & (u > SEG_PARAM_EPS)
                             & (u < 1.0 - SEG_PARAM_EPS) & (contain >= 0.0))


def signed_margin(margin, valid):
    """margin (an array) with the sign of the predicate valid: >= 0 exactly
    where valid holds, < 0 elsewhere.

    A margin is a continuous quantity whose sign decides an existence
    predicate; its zeros (a strict predicate) and NaNs (a failed one) are
    moved to the side that valid gives, NaNs to -inf where invalid.
    """
    margin = np.where(np.isnan(margin), -np.inf, margin)
    return np.where(valid, np.maximum(margin, 0.0), np.minimum(margin, -_TINY))


_TINY = np.finfo(float).tiny


def occlusion_profiles_batch(scene: Scene, blocks, facets: FacetArrays | None = None,
                             times: np.ndarray | None = None, margins: bool = False):
    """The one crossing profile: every crossing of marked (path, instant)
    rows with the facets, in one facet_crossings call.

    blocks hold paths of one vertex count each, as (vertices, exclude,
    index, rows): vertices are V arrays (N, T, 3), Tx, the backbone points
    and Rx; exclude (N, V - 1, F) each path's segment_exclusions rows; index
    (N,) the paths' numbers; rows (N, T) marks the (path, instant) rows to
    test.  Every row meets facets, an instant's FacetArrays (an RT pass,
    T = 1), or without them the scene's epoch arrays displaced to the row's
    own time, times[path, instant] (predictions).  Segment k of a path is
    one track over its marked instants.

    Returns every hit as arrays (path, instant, segment, facet,
    transparent), in (block, segment, path, instant, facet) order.  With
    margins, every pair that the exact test met instead, with its blocking
    margin (facet_crossings) as a sixth array.
    """
    n_rows = sum(np.count_nonzero(rows) * (len(vertices) - 1)
                 for vertices, _exclude, _index, rows in blocks)
    if not n_rows:
        return ((np.zeros(0, dtype=int),) * 4 + (np.zeros(0, dtype=bool),)
                + (np.zeros(0),) * margins)
    # the rows of every block, segment by segment, filled in place
    seg_a, seg_d = np.empty((n_rows, 3)), np.empty((n_rows, 3))
    track, path, instant, segment = (np.empty(n_rows, dtype=int) for _ in range(4))
    exclusions = []
    label = row = 0
    for vertices, exclude, index, rows in blocks:
        n_paths, n_seg = exclude.shape[:2]
        exclusions.append(exclude.transpose(1, 0, 2).reshape(n_seg * n_paths, -1))
        ip, it = np.nonzero(rows)
        flat = ip * rows.shape[1] + it
        ends = np.stack([_take_rows(v, flat) for v in vertices])
        block, shape = slice(row, row + n_seg * ip.size), (n_seg, ip.size)
        seg_a[block] = ends[:-1].reshape(-1, 3)
        np.subtract(ends[1:], ends[:-1], out=seg_d[block].reshape(shape + (3,)))
        k = np.arange(n_seg)[:, None]
        track[block].reshape(shape)[...] = label + k * n_paths + ip
        path[block].reshape(shape)[...] = index[ip]
        instant[block].reshape(shape)[...] = it
        segment[block].reshape(shape)[...] = k
        label += n_seg * n_paths
        row += n_seg * ip.size
    disp = None
    if facets is None:
        facets = scene.statics().epoch
        disp = scene.facet_displacement(np.arange(len(scene.facets)),
                                        times[path, instant][:, None])
    hit, facet, *rest = facet_crossings(facets, seg_a, seg_d, track,
                                        np.concatenate(exclusions), disp, margins)
    return ((path[hit], instant[hit], segment[hit], facet, facets.transparent[facet])
            + tuple(rest[:margins]))


def _take_rows(a: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """a[ip, it] for flat = ip * T + it, a being (P, T, ...); ndarray.take
    copies the same values as fancy indexing at a fraction of its cost."""
    return a.reshape((a.shape[0] * a.shape[1],) + a.shape[2:]).take(flat, axis=0)


def occlusion_profile(geom: SceneAtTime, candidates) -> list[Signature | None]:
    """The occlusion decision of an RT pass's (backbone, points) candidates,
    derived from their crossing profile (occlusion_profiles_batch): per
    candidate None when it crosses an opaque facet or more than one
    transparent slab, else its signature with the one slab it crosses, if
    any, on the segment where it crosses it."""
    scene, n = geom.scene, len(candidates)
    by_count: dict[int, list[int]] = {}
    for c, (_backbone, points) in enumerate(candidates):
        by_count.setdefault(len(points), []).append(c)
    blocks = []
    for n_points, index in by_count.items():
        verts = np.empty((n_points + 2, len(index), 1, 3))
        verts[0], verts[-1] = geom.tx, geom.rx
        verts[1:-1] = np.reshape([p for c in index for p in candidates[c][1]],
                                 (len(index), n_points, 1, 3)).transpose(1, 0, 2, 3)
        exclude = np.concatenate([segment_exclusions(scene, candidates[c][0]) for c in index])
        blocks.append((verts, exclude.reshape(len(index), n_points + 1, -1),
                       np.array(index), np.ones((len(index), 1), dtype=bool)))
    path, _instant, segment, facet, transparent = occlusion_profiles_batch(
        scene, blocks, facets=geom.facets)
    dropped = ((np.bincount(path[~transparent], minlength=n) > 0)
               | (np.bincount(path[transparent], minlength=n) > 1))
    pen_segment, pen_facet = np.full(n, -1), np.full(n, -1)
    pen_segment[path[transparent]], pen_facet[path[transparent]] = (
        segment[transparent], facet[transparent])
    return [None if drop else backbone if k < 0
            else backbone[:k] + ((Mechanism.PENETRATION, scene.facets[f].id),) + backbone[k:]
            for (backbone, _points), drop, k, f in zip(
                candidates, dropped.tolist(), pen_segment.tolist(), pen_facet.tolist())]


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
        a, b = geom.edges[geom.scene.edge_index[backbone[0][1]]]
        p, ok, inside = fermat_points(tx, rx, a, b - a)
        if not ok:
            raise ConstructionError("degenerate diffraction geometry")
        if not inside:
            raise ConstructionError("diffraction point clipped by edge segment")
        return [p]

    # pure reflections: reflection_chains on a batch of one, with the
    # planes and polygons of this instant's facets
    index = [np.array([geom.scene.facet_index[gid]]) for _, gid in backbone]
    with np.errstate(all="ignore"):
        points, ok, inside = reflection_chains(
            np.asarray(tx, float), np.asarray(rx, float),
            *_bounces(geom.facets, index))
    if not ok[0, 0]:
        raise ConstructionError(f"no specular construction for {backbone}")
    if not inside[0, 0]:
        raise ConstructionError(f"a reflection point of {backbone} left its facet")
    return [p[0, 0] for p in points]


def _bounces(facets: FacetArrays, index, disp=None):
    """The (normals, offsets, polygons) arguments of reflection_chains for
    the bounces on facets index[k] (P,), each translated by disp[k] (P, T,
    3) when given."""
    disp = [None] * len(index) if disp is None else disp
    planes = [facets.planes(i, d) for i, d in zip(index, disp)]
    return ([n for n, _off in planes], [off for _n, off in planes],
            [facets.polygons(i, d) for i, d in zip(index, disp)])


def reflection_chains(tx, rx, normals, offsets, polygons, slack: float = 0.0,
                      margins: bool = False):
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
    With margins, inside is replaced by the containment margin: the least
    signed edge distance of any bounce point in its polygon, >= -slack
    exactly where inside holds.
    """
    images = [tx]
    for n, off in zip(normals, offsets):
        img = images[-1]
        images.append(img - (2.0 * (np.vecdot(img, n) - off))[..., None] * n)
    ok = True
    inside = np.inf if margins else True
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
        if margins:
            inside = np.minimum(inside, np.where(valid[:, None], edge_d, np.inf).min(axis=2))
        else:
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


def fermat_points(tx, rx, a, d, margins: bool = False):
    """The generalized Fermat construction of one-edge diffraction over rows.

    The one diffraction kernel: solve_backbone (a batch of one) and
    drt.PathTrajectory (paths x times) call it.  The point a + u d minimizes
    |tx - p| + |p - rx| on the edge line, so it satisfies the Keller cone
    condition.  tx, rx, a and d broadcast against each other, coordinates
    last.  Returns (points, ok, inside): ok marks the rows where tx and rx
    do not both lie on the edge line, inside the rows whose point lies
    strictly inside the segment, 0 < u < 1.  With margins, inside is
    replaced by the point's distance to the nearer end of the segment,
    min(u, 1 - u) |d|, signed so that it is >= 0 exactly where inside holds
    (signed_margin).
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
        inside = (u > 0.0) & (u < 1.0)
        if margins:
            inside = signed_margin(np.minimum(u, 1.0 - u) * length, inside)
        return a + u[..., None] * d, r1 + r2 >= 1e-12, inside


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


class PathGeometry(NamedTuple):
    """Resolved geometry of one path at one instant: one row of the arrays
    of a drt.TrajectoryGeometry, with its signature.

    The mechanisms, the penetrated facets and their segments follow from the
    signature (slots_of).
    """

    signature: Signature
    vertices: np.ndarray      # (V, 3): Tx, backbone points, Rx
    pen_points: np.ndarray    # (n_pen, 3) slab crossing points, signature order
    pen_params: np.ndarray    # (n_pen,) their parameters along their segments
    seg_lengths: np.ndarray   # (V - 1,)
    total_length: float

    def interactions(self) -> list[Interaction]:
        return interactions_of(slots_of(self.signature), self.vertices, self.pen_points)


class Slots(NamedTuple):
    """Where a signature's interactions sit along its path (slots_of)."""

    backbone: tuple        # (mechanism, id) of the reflections and diffractions
    penetrations: tuple    # (facet id, segment index) of each penetration
    interactions: tuple    # (mechanism, id, on_vertex, index) in signature order:
                           # a vertex among Tx, the backbone points and Rx, or a
                           # penetration


@functools.lru_cache(maxsize=4096)
def slots_of(sig: Signature) -> Slots:
    """The slots of a signature.  Signature order is traversal order: an RT
    pass admits at most one penetration per path (trace_geometry), and a
    diffraction is always a path's only backbone interaction
    (solve_backbone)."""
    backbone, pens, inters = [], [], []
    for m, gid in sig:
        if m is Mechanism.PENETRATION:
            inters.append((m, gid, False, len(pens)))
            pens.append((gid, len(backbone)))
        else:
            backbone.append((m, gid))
            inters.append((m, gid, True, len(backbone)))
    return Slots(tuple(backbone), tuple(pens), tuple(inters))


def interactions_of(slots: Slots, vertices, pen_points) -> list[Interaction]:
    """A path's interactions in signature order, from its vertices (Tx,
    backbone points, Rx) and penetration points: the one rule of RT, DRT and
    E-DRT paths."""
    return [Interaction(m, gid, vertices[j] if on_vertex else pen_points[j])
            for m, gid, on_vertex, j in slots.interactions]


def build_geometry(geom: SceneAtTime, sig: Signature, backbone_points) -> PathGeometry:
    """PathGeometry of an RT candidate from its solved backbone points.

    Each penetration point is the crossing of its segment's line with the
    slab plane (slab_crossings as a batch of one).  Raises ConstructionError
    for a segment parallel to its slab or of zero length.
    """
    vertices = np.array([geom.tx, *backbone_points, geom.rx])
    pen_points, pen_params = [], []
    for fid, seg in slots_of(sig).penetrations:
        i = geom.scene.facet_index[fid]
        a = vertices[seg]
        point, par, parallel = slab_crossings(a, vertices[seg + 1] - a,
                                              geom.facets.normals[i], geom.facets.offsets[i])
        if parallel:
            raise ConstructionError(f"penetration segment parallel to facet {fid!r}")
        pen_points.append(point)
        pen_params.append(par)
    seg_lengths = np.linalg.norm(np.diff(vertices, axis=0), axis=1)
    if np.any(seg_lengths < 1e-9):
        raise ConstructionError("degenerate zero-length path segment")
    return PathGeometry(sig, vertices, np.reshape(pen_points, (-1, 3)),
                        np.array(pen_params, float), seg_lengths, float(seg_lengths.sum()))


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


def powers_dbm(magnitudes: list[float], scene: Scene) -> list[float]:
    """Received power (isotropic aperture) of each field magnitude at Rx,
    -inf for none.  On floats: numpy's power and log10 round unlike
    CPython's on some inputs."""
    wl2, den = scene.wavelength ** 2, 8.0 * math.pi * ETA0
    return [-math.inf if m <= 0.0 else 10.0 * math.log10(m ** 2 * wl2 / den) + 30.0
            for m in magnitudes]


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


class InteractionTrace(NamedTuple):
    """Recorded context of one interaction along a reference chain walk.

    Captures the coefficient pair that was applied, the polarization
    eigen-channel that carried the field (0 = perp/soft, 1 = par/hard), and
    for a penetration the slab crossing length.  What re-evaluating the
    coefficient at another time also needs is static, and gathered by facet
    or edge index instead: normals (invariant under rigid translation),
    permittivities, thicknesses and attenuations, and wedge frames
    (Scene.statics, diffraction_coefficients).
    """

    kind: Mechanism
    coeff: tuple[complex, complex]
    label: int
    d_t: float = 0.0


def _project(e_vec, pair, u_in, v_in, u_out, v_out):
    """One interaction: the field's components along (u_in, v_in) scaled by
    the coefficient pair onto (u_out, v_out), and the carrying channel."""
    c0, c1 = dot3(e_vec, u_in), dot3(e_vec, v_in)
    a, b = pair[0] * c0, pair[1] * c1
    return ((a * u_out[0] + b * v_out[0], a * u_out[1] + b * v_out[1],
             a * u_out[2] + b * v_out[2]), 0 if abs(c0) >= abs(c1) else 1)


def polarization_chain(scene: Scene, verts: list, seg_lengths: list, total_length: float,
                       slots: Slots, record: list[InteractionTrace] | None = None,
                       utd=None) -> tuple:
    """Propagate the launch polarization through all interactions of one
    path: its vertices (Tx, backbone points, Rx) and segment lengths as
    lists of floats, and its length.

    Returns the complex 3-vector (a tuple) of field direction times
    coefficients, before spreading and propagation phase.  slots are the
    signature's (slots_of).  When record is given, an InteractionTrace per
    interaction (backbone order, then penetrations) is appended for later
    coefficient re-evaluation.  The walk runs on Python floats, and every
    coefficient comes from the incidence cosine, as in E-DRT's
    re-evaluation.  It reads only what translation leaves unchanged, from
    the Scene by index: normals, materials, thicknesses and wedge frames.
    utd is the diffraction's UTD pair from diffraction_coefficients, or
    None to compute it here on floats.  Raises ConstructionError for a ray
    along its diffraction edge or a grazing penetration.
    """
    freq = scene.frequency
    amp = launch_amplitude(scene)
    v = vertical_pol(unit3(sub3(verts[1], verts[0])))
    e_vec = (complex(amp * v[0]), complex(amp * v[1]), complex(amp * v[2]))
    for i, (mechanism, gid) in enumerate(slots.backbone):
        s_in = unit3(sub3(verts[i + 1], verts[i]))
        s_out = unit3(sub3(verts[i + 2], verts[i + 1]))
        if mechanism is Mechanism.REFLECTION:
            f = scene.facets[scene.facet_index[gid]]
            normal = f.normal.tolist()
            eps = complex_permittivity(f.material, freq)
            pair = fresnel_from_cos(min(abs(dot3(s_in, normal)), 1.0), eps)
            e_perp = _reflection_basis(s_in, normal)
            e_vec, label = _project(e_vec, pair, e_perp, cross3(e_perp, s_in),
                                    e_perp, cross3(e_perp, s_out))
            trace = InteractionTrace(Mechanism.REFLECTION, pair, label)
        else:  # diffraction
            frame = scene.frames[gid]
            pair = utd
            if pair is None:
                eps = complex(scene.statics().edge_eps[scene.edge_index[gid]])
                beta0, phi_inc, phi_dif, along_edge = wedge_angles(
                    frame.ef, frame.af, frame.nf, frame.n_index, sub3(verts[i + 1], verts[i]),
                    seg_lengths[i], sub3(verts[i + 2], verts[i + 1]))
                if along_edge:
                    raise ConstructionError("ray parallel to diffraction edge")
                d_inc = sum(seg_lengths[:i + 1])
                pair = utd_coefficient(WedgeGeometry(frame.n_index, beta0, phi_inc, phi_dif,
                                                     d_inc, total_length - d_inc),
                                       None, freq, eps)
            a, b = unit3(cross3(frame.ef, s_in)), unit3(cross3(frame.ef, s_out))
            phi_in, phi_out = (-a[0], -a[1], -a[2]), (-b[0], -b[1], -b[2])
            e_vec, label = _project(e_vec, pair, cross3(phi_in, s_in), phi_in,
                                    cross3(phi_out, s_out), phi_out)
            trace = InteractionTrace(Mechanism.DIFFRACTION, pair, label)
        if record is not None:
            record.append(trace)

    for fid, seg in slots.penetrations:
        f = scene.facets[scene.facet_index[fid]]
        normal = f.normal.tolist()
        s_dir = unit3(sub3(verts[seg + 1], verts[seg]))
        cos_th = min(abs(dot3(s_dir, normal)), 1.0)
        if cos_th < GRAZING_COS:
            raise ConstructionError(f"grazing penetration through facet {f.id!r}")
        eps = complex_permittivity(f.material, freq)
        tr = transmission_from_cos(cos_th, eps, f.thickness)
        e_perp = _reflection_basis(s_dir, normal)
        par = cross3(e_perp, s_dir)
        e_vec, label = _project(e_vec, (tr.t_perp, tr.t_par), e_perp, par, e_perp, par)
        if record is not None:
            record.append(InteractionTrace(Mechanism.PENETRATION, (tr.t_perp, tr.t_par), label,
                                           tr.d_t))
        loss = tr.loss_factor(f.material.attenuation_alpha)
        e_vec = (e_vec[0] * loss, e_vec[1] * loss, e_vec[2] * loss)

    return e_vec


def diffraction_coefficients(scene: Scene, edge, vertices, d_inc, total_length):
    """The float chain's UTD pairs on arrays, ((D_soft, D_hard), along_edge),
    for N diffractions on edges edge (N,), whose frames, n and permittivity
    are gathered by index.  vertices (N, 3, 3) are the points before, at and
    after each, d_inc the path length before it, also the ray into it (a
    diffraction is its path's only backbone interaction).  along_edge marks
    rays along their edge, whose pairs are meaningless."""
    statics = scene.statics()
    e, a, n, n_index = (v.take(edge, axis=0).T for v in statics.wedges)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta0, phi_inc, phi_dif, along_edge = wedge_angles(
            e, a, n, n_index, (vertices[:, 1] - vertices[:, 0]).T, d_inc,
            (vertices[:, 2] - vertices[:, 1]).T)
        pair = utd_coefficient(WedgeGeometry(n_index, beta0, phi_inc, phi_dif, d_inc,
                                             total_length - d_inc),
                               None, scene.frequency, statics.edge_eps.take(edge))
    return pair, along_edge


def spreading_factor(total_length, s_pre, diffracted):
    """Amplitude spreading of whole paths: 1/length, or the diffraction
    caustic form for a path diffracted after its first s_pre metres.

    Takes floats for one path, or arrays for many, diffracted then a mask.
    """
    m = functions_for(total_length)
    s_post = total_length - s_pre
    # 1.0 stands in for the caustic product of an undiffracted path (0 for a
    # line of sight)
    caustic = m.where(diffracted, s_pre * s_post * (s_pre + s_post), 1.0)
    return m.where(diffracted, m.sqrt(1.0 / caustic), 1.0 / total_length)


class PathRows(NamedTuple):
    """Resolved geometry of N paths, each at its own instant, as arrays: the
    batch of make_path.

    The vertex arrays are padded past each row's own vertices and
    penetrations; geometries, when given, holds each row's PathGeometry,
    which make_path keeps on its Path.
    """

    signatures: list          # (N,) Signature
    times: np.ndarray         # (N,) s
    n_vertices: np.ndarray    # (N,) Tx, backbone points and Rx of each row
    vertices: np.ndarray      # (N, V, 3)
    pen_points: np.ndarray    # (N, n_pen, 3)
    seg_lengths: np.ndarray   # (N, V - 1)
    total_length: np.ndarray  # (N,)
    geometries: list | None = None

    @classmethod
    def of(cls, geometries: list[PathGeometry], times) -> "PathRows":
        """The rows of PathGeometry objects, at times (N,)."""
        n_rows = len(geometries)
        n_v = max((g.vertices.shape[0] for g in geometries), default=2)
        n_pen = max((g.pen_points.shape[0] for g in geometries), default=0)
        vertices, pen_points = np.zeros((n_rows, n_v, 3)), np.zeros((n_rows, n_pen, 3))
        seg_lengths = np.zeros((n_rows, n_v - 1))
        for r, g in enumerate(geometries):
            vertices[r, :g.vertices.shape[0]] = g.vertices
            pen_points[r, :g.pen_points.shape[0]] = g.pen_points
            seg_lengths[r, :g.seg_lengths.shape[0]] = g.seg_lengths
        return cls([g.signature for g in geometries], np.asarray(times, float),
                   np.array([g.vertices.shape[0] for g in geometries], dtype=int).reshape(-1),
                   vertices, pen_points, seg_lengths,
                   np.array([g.total_length for g in geometries], float).reshape(-1),
                   list(geometries))

    @classmethod
    def concatenate(cls, parts: list["PathRows"]) -> "PathRows":
        """The rows of parts, in order, padded to the most vertices and
        penetrations of any (without geometries)."""
        n_v = max((p.vertices.shape[1] for p in parts), default=2)
        n_pen = max((p.pen_points.shape[1] for p in parts), default=0)

        def padded(arrays, width):
            out = np.zeros((sum(a.shape[0] for a in arrays), width) + arrays[0].shape[2:])
            row = 0
            for a in arrays:
                out[row:row + a.shape[0], :a.shape[1]] = a
                row += a.shape[0]
            return out
        return cls([sig for p in parts for sig in p.signatures],
                   np.concatenate([p.times for p in parts] + [[]]),
                   np.concatenate([p.n_vertices for p in parts] + [[]]).astype(int),
                   padded([p.vertices for p in parts] or [np.zeros((0, 2, 3))], n_v),
                   padded([p.pen_points for p in parts] or [np.zeros((0, 0, 3))], n_pen),
                   padded([p.seg_lengths for p in parts] or [np.zeros((0, 1))], n_v - 1),
                   np.concatenate([p.total_length for p in parts] + [[]]))


def _on_geometry(scene: Scene, rows: PathRows, slots: list[Slots]) -> np.ndarray:
    """(N,) marks the rows whose backbone points lie on their geometry at
    the row's instant, within ON_GEOMETRY_TOL: every reflection point on
    its facet's plane and every diffraction point on its edge's line.

    The facets and edges are the scene's epoch arrays, moved to each row's
    time by Scene.facet_displacement, as scene_at moves them; the
    arithmetic is the float form's, element by element.
    """
    statics = scene.statics()
    by_signature: dict[Signature, list[int]] = {}
    for r, sig in enumerate(rows.signatures):
        by_signature.setdefault(sig, []).append(r)
    # (row, flat vertex index, facet or edge) of every reflection and
    # diffraction point
    found = {Mechanism.REFLECTION: ([], [], []), Mechanism.DIFFRACTION: ([], [], [])}
    ids = {Mechanism.REFLECTION: scene.facet_index, Mechanism.DIFFRACTION: scene.edge_index}
    n_v = rows.vertices.shape[1]
    for sig, index in by_signature.items():
        for j, (m, gid) in enumerate(slots[index[0]].backbone):
            at, vertex, owner = found[m]
            at += index
            vertex += [r * n_v + j + 1 for r in index]
            owner += [ids[m][gid]] * len(index)
    ok = np.ones(len(slots), dtype=bool)
    flat = rows.vertices.reshape(-1, 3)
    moving = statics.moving.size > 0
    for m, (at, vertex, owner) in found.items():
        if not at:
            continue
        at, owner = np.array(at), np.array(owner)
        p = flat.take(vertex, axis=0)
        if m is Mechanism.REFLECTION:
            normals = statics.epoch.normals.take(owner, axis=0)
            offsets = statics.epoch.offsets.take(owner)
            disp = scene.facet_displacement(owner, rows.times.take(at)) if moving else None
            if disp is not None:
                offsets = shifted_offsets(normals, offsets, disp)
            off = np.abs(_dot(normals, p) - offsets)
        else:
            ends = statics.edge_ends.take(owner, axis=0)
            disp = (scene.facet_displacement(statics.edge_facets[owner, 0], rows.times.take(at))
                    if moving else None)
            if disp is not None:
                ends = ends + disp[:, None, :]
            a = ends[:, 0]
            d = ends[:, 1] - a
            d /= np.sqrt(_dot(d, d))[:, None]
            w = p - a
            w -= _dot(w, d)[:, None] * d
            off = np.sqrt(_dot(w, w))
        ok[at[off > ON_GEOMETRY_TOL]] = False
    return ok


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (N, 3) arrays, summed as dot3 sums them."""
    prod = a * b
    return prod[:, 0] + prod[:, 1] + prod[:, 2]


_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])  # cross3's component order


def make_path(scene: Scene, rows: PathRows, utd=None, record: bool = False) -> list:
    """Paths with their directly computed fields: one Path per row of rows,
    or None where the row is dropped.

    The field stage of a batch.  Free-space spherical spreading from the
    transmitter, per-interaction coefficient application with polarization
    decomposition at each interface, and slab penetration loss; the field is
    expressed in the receiver's (v, h) basis.  First the on-geometry check
    runs on arrays (_on_geometry); each row left then walks its chain on
    Python floats (polarization_chain), with utd[r], when utd is given, as
    row r's UTD pair (None: computed in the walk); then spreading, phase,
    arrival basis, power and Path assembly run once for all rows, on arrays
    in the float form's arithmetic (complex products written out in real
    operations, so that even the signs of zero parts agree), except the
    magnitude's hypot and the power, which stay on floats (numpy's hypot,
    power and log10 round unlike CPython's on some inputs).  A row is
    dropped where the check or the walk raises ConstructionError.  With
    record, each Path keeps its row's geometry (rows.geometries) and an
    InteractionTrace per interaction: an RT pass's paths, from which E-DRT
    extrapolates fields.
    """
    slots = [slots_of(sig) for sig in rows.signatures]
    ok = _on_geometry(scene, rows, slots)
    verts, segs = rows.vertices.tolist(), rows.seg_lengths.tolist()
    totals, counts = rows.total_length.tolist(), rows.n_vertices.tolist()
    kept, chains, traces, diffracted = [], [], [], []
    for r in np.flatnonzero(ok).tolist():
        record_r = [] if record else None
        try:
            chains.append(polarization_chain(scene, verts[r][:counts[r]], segs[r], totals[r],
                                             slots[r], record_r, None if utd is None else utd[r]))
        except ConstructionError:
            continue
        kept.append(r)
        traces.append(record_r)
        diffracted.append(bool(slots[r].backbone)
                          and slots[r].backbone[0][0] is Mechanism.DIFFRACTION)
    out: list[Path | None] = [None] * len(slots)
    if not kept:
        return out
    e = np.array(chains, complex)
    at = np.array(kept)
    total = rows.total_length.take(at)
    diffracted = np.array(diffracted)
    spread = spreading_factor(total, rows.seg_lengths[at, 0], diffracted)
    # spread * cmath.exp(-1j * k * L), then each component times it
    phase = -scene.wavenumber * total
    cos, sin = np.cos(phase), np.sin(phase)
    s_re, s_im = (cos * spread - sin * 0.0)[:, None], (cos * 0.0 + sin * spread)[:, None]
    e_re = e.real * s_re - e.imag * s_im
    e_im = e.real * s_im + e.imag * s_re
    # the receiver's (v, h) basis along the last segment: v = vertical_pol(ray), h = v x ray
    last = at * rows.vertices.shape[1] + rows.n_vertices.take(at) - 1
    flat = rows.vertices.reshape(-1, 3)
    ray = flat.take(last, axis=0) - flat.take(last - 1, axis=0)
    ray /= np.sqrt(_dot(ray, ray))[:, None]
    basis = np.empty((at.size, 2, 3))
    v_hat, h_hat = basis[:, 0], basis[:, 1]
    np.multiply(-ray[:, 2:], ray, out=v_hat)
    v_hat[:, 2] += 1.0
    norm = np.sqrt(_dot(v_hat, v_hat))
    steep = norm < 1e-9
    if steep.any():
        v_hat[steep] = -ray[steep, :1] * ray[steep]
        v_hat[steep, 0] += 1.0
        norm = np.sqrt(_dot(v_hat, v_hat))
    v_hat /= norm[:, None]
    np.subtract(v_hat.take(_NEXT, axis=1) * ray.take(_LAST, axis=1),
                v_hat.take(_LAST, axis=1) * ray.take(_NEXT, axis=1), out=h_hat)
    # (e . v-hat, e . h-hat), each product a complex times a float
    re = e_re[:, None, :] * basis - e_im[:, None, :] * 0.0
    im = e_re[:, None, :] * 0.0 + e_im[:, None, :] * basis
    field2 = np.empty((at.size, 2), complex)
    field2.real = re[:, :, 0] + re[:, :, 1] + re[:, :, 2]
    field2.imag = im[:, :, 0] + im[:, :, 1] + im[:, :, 2]
    magnitude = list(map(math.hypot, *np.hypot(field2.real, field2.imag).T.tolist()))
    geometries = rows.geometries if record else [None] * len(slots)
    vertices, pen_points = list(rows.vertices), list(rows.pen_points)
    for r, field, power, delay, trace in zip(kept, field2, powers_dbm(magnitude, scene),
                                             (total / C_LIGHT).tolist(), traces):
        out[r] = Path(rows.signatures[r], interactions_of(slots[r], vertices[r], pen_points[r]),
                      delay, field, power, geometries[r], trace)
    return out


def field_of_path(scene: Scene, geom: SceneAtTime, geometry: PathGeometry):
    """Direct electric-field computation for a resolved path at geom's
    instant: make_path on a batch of one.  Returns (field_2vector,
    power_dbm) with the field expressed in the receiver's (v, h) basis;
    raises ConstructionError where make_path drops the row.
    """
    [path] = make_path(scene, PathRows.of([geometry], [geom.time]))
    if path is None:
        raise ConstructionError(f"no field for {signature_str(geometry.signature)} "
                                f"at t={geom.time:g}")
    return path.field, path.power_dbm


# ---------------------------------------------------------------------------
# Snapshot tracing
# ---------------------------------------------------------------------------

def segment_exclusions(scene: Scene, backbone: tuple) -> np.ndarray:
    """The one exclusion rule: (segments, F), the facets that each segment
    of a path with this backbone ignores in its crossing tests.

    A segment ignores the facets that own either of its ends: a
    reflection's facet, both facets of a diffraction's edge; Tx and Rx own
    nothing.  Ids are scene-level, so the rows hold at every instant: they
    are built once per backbone and shared, read-only.
    """
    statics = scene.statics()
    rows = statics.exclusions.get(backbone)
    if rows is None:
        owners = np.zeros((len(backbone) + 2, len(scene.facets)), dtype=bool)
        for i, (m, gid) in enumerate(backbone):
            owners[i + 1, (scene.facet_index[gid] if m is Mechanism.REFLECTION
                           else statics.edge_facets[scene.edge_index[gid]])] = True
        rows = owners[:-1] | owners[1:]
        rows.flags.writeable = False
        statics.exclusions[backbone] = rows
    return rows


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
    facets = geom.facets
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
    keep = np.empty(chains[0].size, dtype=bool)
    with np.errstate(all="ignore"):
        for lo in range(0, keep.size, FILTER_CHUNK):
            idx = [c[lo:lo + FILTER_CHUNK] for c in chains]
            _points, ok, inside = reflection_chains(
                geom.tx, geom.rx, *_bounces(geom.facets, idx), FILTER_SLACK)
            keep[lo:lo + FILTER_CHUNK] = (ok & inside)[:, 0]
    return keep


def _candidate_backbones(geom: SceneAtTime, single: np.ndarray, pair: np.ndarray):
    """Backbones left to solve after the culling and the filter, in
    enumeration order."""
    fids = [f.id for f in geom.scene.facets]
    refl = Mechanism.REFLECTION
    yield ()
    for i in np.flatnonzero(single):
        yield ((refl, fids[i]),)
    for i, j in zip(*np.nonzero(pair)):
        yield ((refl, fids[i]), (refl, fids[j]))
    for e in geom.scene.edges:
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
    4. solve_backbone constructs each candidate left, one occlusion_profile
       call derives the signature of all that construct from their crossing
       profile (one occlusion_profiles_batch call for every segment), and
       build_geometry resolves those it keeps.

    A timer, when given, counts the candidates that pass the plane-side
    culling (rt_candidates) and those it drops (rt_culled); of the
    former, those dropped by the beam culling (rt_beam_culled), the batched
    construction (rt_prefiltered), solve_backbone (rt_unconstructed) and
    the crossing call (rt_occluded).  Raises SceneError when Tx and Rx are
    closer than SIDE_EPS, where no path is defined.
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
    backbones = list(_candidate_backbones(geom, single, pair))
    constructed = []
    for backbone in backbones:
        try:
            constructed.append((backbone, solve_backbone(geom, backbone)))
        except ConstructionError:
            continue
    signatures = occlusion_profile(geom, constructed)
    results: list[PathGeometry] = []
    for sig, (_backbone, points) in zip(signatures, constructed):
        try:
            if sig is not None:
                results.append(build_geometry(geom, sig, points))
        except ConstructionError:
            continue
    if timer is not None:
        timer.count("rt_candidates", 1 + beam_culled + kept + len(scene.edges))
        timer.count("rt_culled", len(scene.facets) ** 2 - beam_culled - kept)
        timer.count("rt_beam_culled", beam_culled)
        timer.count("rt_prefiltered", kept - int(single.sum()) - int(pair.sum()))
        timer.count("rt_unconstructed", len(backbones) - len(constructed))
        timer.count("rt_occluded", signatures.count(None))
    results.sort(key=lambda g: signature_sort_key(g.signature))
    return geom, results


def trace_snapshot(scene: Scene, t: float, timer=None) -> Snapshot:
    """Full ray-tracing run at a single time instant.

    Returns the line-of-sight path (when unobstructed), all image-method
    reflection paths up to order two, and all single-edge diffraction paths,
    each optionally penetrating one transparent facet.  Paths are sorted by
    signature; an empty path list is a valid outcome.  The fields of all
    the pass's paths come from one make_path call, and every path keeps its
    geometry and per-interaction coefficient traces, so any snapshot can
    serve as an E-DRT reference.  Raises SceneError when Tx and Rx coincide
    at t, and ConstructionError when a path of the pass fails its field
    computation.
    """
    from .runs import StageTimer
    timer = timer or StageTimer()
    with timer.geometry():
        geom, geometries = trace_geometry(scene, t, timer=timer)
    with timer.field():
        paths = make_path(scene, PathRows.of(geometries, np.full(len(geometries), geom.time)),
                          record=True)
    for g, p in zip(geometries, paths):
        if p is None:
            raise ConstructionError(f"no field for {signature_str(g.signature)} "
                                    f"at t={geom.time:g}")
    sigs = [p.signature for p in paths]
    if len(set(sigs)) != len(sigs):
        raise RuntimeError("duplicate path signatures in snapshot")
    return Snapshot(time=float(t), paths=paths)
