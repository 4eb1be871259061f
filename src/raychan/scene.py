"""World model: materials, facets, diffraction edges, transceivers.

A Scene is immutable after construction.  All motion is rigid translation;
facet normals therefore never change and `scene_at` produces an instantaneous
geometry snapshot by displacing vertices and transceiver positions.

Scene file schema (JSON, lengths in meters, times in seconds):

    {
      "frequency_hz": 6.0e9,
      "tx_power_dbm": 30.0,
      "facets": [
        {"id": "wall0",
         "vertices": [[x,y,z], ...],          # positions at the scene epoch t=0
         "material": {"rel_permittivity": 5.31, "conductivity": 0.0326,
                      "attenuation_alpha": 0.0, "transparent": false},
         "thickness_m": 0.2,                  # slab thickness, used if transparent
         "motion_segments": [{"t_ref": 0.0, "r0": [0,0,0],
                              "v0": [0,0,0], "a0": [0,0,0]}]}
      ],
      "edges": [
        {"id": "e0", "endpoints": [[x,y,z],[x,y,z]],
         "adjacent_facets": ["wall0", "wall0"],
         "exterior_wedge_angle": 6.283185307179586}
      ],
      "tx": {"motion_segments": [...]},       # r0 is the transceiver position
      "rx": {"motion_segments": [...]}
    }

Facet motion states describe the entity's reference-point trajectory; vertices
are displaced by position(t) - position(0).  Edges move with their first
adjacent facet, so the two facets sharing an edge must translate together;
a scene whose edge joins facets that move differently is rejected.

`load_scene` validates and frames all facets in one array pass, one
`polygon_frames` call per vertex count, and names the first invalid facet in
file order; facets with equal motion or material entries share one object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path as FilePath
from typing import NamedTuple

import numpy as np

from .geometry import (
    COPLANAR_TOL,
    POLYGON_FAILURES,
    polygon_frames,
    signed_boundary_distance,
)
from .motion import Motion, MotionState

DEFAULT_MATERIAL_PERMITTIVITY = 5.31   # concrete
DEFAULT_MATERIAL_CONDUCTIVITY = 0.0326  # S/m
DEFAULT_THICKNESS = 0.2                 # m


class SceneError(ValueError):
    """Raised for invalid scene definitions or malformed scene files."""


@dataclass(frozen=True)
class Material:
    rel_permittivity: float = DEFAULT_MATERIAL_PERMITTIVITY
    conductivity: float = DEFAULT_MATERIAL_CONDUCTIVITY
    attenuation_alpha: float = 0.0  # Np/m, bulk loss inside a penetrated slab
    transparent: bool = False

    def __post_init__(self):
        if not np.isfinite(self.rel_permittivity) or self.rel_permittivity < 1.0:
            raise SceneError("rel_permittivity must be finite and >= 1")
        if not np.isfinite(self.conductivity) or self.conductivity < 0.0:
            raise SceneError("conductivity must be finite and >= 0")
        if not np.isfinite(self.attenuation_alpha) or self.attenuation_alpha < 0.0:
            raise SceneError("attenuation_alpha must be finite and >= 0")


@dataclass(frozen=True)
class Facet:
    id: str
    vertices: np.ndarray  # (V, 3) at the scene epoch, CCW around outward normal
    material: Material = field(default_factory=Material)
    motion: Motion = field(default_factory=lambda: Motion.stationary(np.zeros(3)))
    thickness: float = DEFAULT_THICKNESS
    normal: np.ndarray = field(init=False, repr=False)
    edge_inward: np.ndarray = field(init=False, repr=False)  # translation-invariant

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        (normal,), (inward,) = _facet_frames([self.id], [v], [self.thickness])
        for name, value in zip(("vertices", "normal", "edge_inward"), (v, normal, inward)):
            object.__setattr__(self, name, value)


FACET_FAILURES = ("polygon needs >= 3 vertices of dimension 3", *POLYGON_FAILURES,
                  "thickness must be finite and positive")


def _facet_frames(ids, vertices, thickness):
    """(normals, edge_inward) of facets given as parallel sequences, from
    one polygon_frames call per vertex count.  Raises SceneError naming the
    first invalid facet and its first failed check (FACET_FAILURES).
    """
    first = np.where(np.isfinite(thickness) & np.greater(thickness, 0.0), -1,
                     len(FACET_FAILURES) - 1)
    by_count: dict[int, list[int]] = {}
    for i, v in enumerate(vertices):
        if v.ndim == 2 and v.shape[0] >= 3 and v.shape[1] == 3:
            by_count.setdefault(len(v), []).append(i)
        else:
            first[i] = 0
    normals, inward = [None] * len(ids), [None] * len(ids)
    for rows in by_count.values():
        n, e, failed = polygon_frames(np.stack([vertices[i] for i in rows]))
        first[rows] = np.where(failed >= 0, failed + 1, first[rows])
        for k, i in enumerate(rows):
            normals[i], inward[i] = n[k], e[k]
    bad = np.flatnonzero(first >= 0)
    if bad.size:
        raise SceneError(f"facet {ids[bad[0]]!r}: {FACET_FAILURES[first[bad[0]]]}")
    return normals, inward


@dataclass(frozen=True)
class Edge:
    id: str
    endpoints: np.ndarray  # (2, 3) at the scene epoch
    adjacent_facets: tuple[str, str]
    exterior_wedge_angle: float  # radians, in (pi, 2*pi]

    def __post_init__(self):
        e = np.asarray(self.endpoints, dtype=float)
        object.__setattr__(self, "endpoints", e)
        object.__setattr__(self, "adjacent_facets", tuple(self.adjacent_facets))
        if e.shape != (2, 3):
            raise SceneError(f"edge {self.id!r}: endpoints must be two 3-vectors")
        if not np.all(np.isfinite(e)):
            raise SceneError(f"edge {self.id!r}: endpoints must be finite")
        if np.linalg.norm(e[1] - e[0]) < 1e-9:
            raise SceneError(f"edge {self.id!r}: endpoints must be distinct")
        if not (np.pi < self.exterior_wedge_angle <= 2.0 * np.pi + 1e-12):
            raise SceneError(f"edge {self.id!r}: exterior wedge angle must be in (pi, 2*pi]")
        if len(self.adjacent_facets) != 2:
            raise SceneError(f"edge {self.id!r}: needs exactly two adjacent facets")


@dataclass(frozen=True)
class Scene:
    facets: tuple[Facet, ...]
    edges: tuple[Edge, ...]
    tx_motion: Motion
    rx_motion: Motion
    frequency: float  # Hz
    tx_power_dbm: float = 30.0

    def __post_init__(self):
        object.__setattr__(self, "facets", tuple(self.facets))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not np.isfinite(self.frequency) or self.frequency <= 0.0:
            raise SceneError("frequency must be finite and positive")
        if not np.isfinite(self.tx_power_dbm):
            raise SceneError("tx_power_dbm must be finite")
        ids = [f.id for f in self.facets] + [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise SceneError("facet/edge ids must be unique")
        by_id = {f.id: f for f in self.facets}
        for e in self.edges:
            for fid in e.adjacent_facets:
                if fid not in by_id:
                    raise SceneError(f"edge {e.id!r}: unknown adjacent facet {fid!r}")
                f = by_id[fid]
                d = f.vertices[0] @ f.normal
                off = np.abs(e.endpoints @ f.normal - d)
                if np.max(off) > COPLANAR_TOL:
                    raise SceneError(
                        f"edge {e.id!r} does not lie on the plane of facet {fid!r}")
            first, second = (by_id[fid] for fid in e.adjacent_facets)
            if not first.motion.moves_with(second.motion):
                raise SceneError(
                    f"edge {e.id!r}: adjacent facets {first.id!r} and {second.id!r} "
                    "move differently")
        # a shared trajectory puts Tx and Rx at one point at every time
        if (self.tx_motion.moves_with(self.rx_motion)
                and np.linalg.norm(self.tx_motion.position(0.0)
                                   - self.rx_motion.position(0.0)) < 1e-9):
            raise SceneError("tx and rx follow the same trajectory")

    @property
    def wavelength(self) -> float:
        return C_LIGHT / self.frequency

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    def statics(self) -> "_SceneStatics":
        """Lazily built translation-invariant scene arrays."""
        cached = getattr(self, "_statics_cache", None)
        if cached is None:
            cached = _SceneStatics(self)
            object.__setattr__(self, "_statics_cache", cached)
        return cached

    def edge_by_id(self, eid: str) -> Edge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise KeyError(eid)


C_LIGHT = 299792458.0


# ---------------------------------------------------------------------------
# Instantaneous geometry
# ---------------------------------------------------------------------------

@dataclass
class FacetAtTime:
    id: str
    vertices: np.ndarray
    normal: np.ndarray
    offset: float  # plane: normal . x = offset
    material: Material
    thickness: float
    edge_inward: np.ndarray  # (V, 3), shared with the epoch facet

    def boundary_distance(self, p: np.ndarray) -> float:
        """Signed in-plane distance to the polygon boundary (+ inside)."""
        return signed_boundary_distance(p, self.vertices, self.edge_inward)


@dataclass
class EdgeAtTime:
    id: str
    endpoints: np.ndarray
    adjacent: tuple[FacetAtTime, FacetAtTime]
    exterior_wedge_angle: float
    frame: object = None  # WedgeFrame, cached by the ray tracer


class FacetArrays(NamedTuple):
    """Every facet's geometry stacked for the vectorized kernels.

    Polygons are padded to the largest vertex count V; valid marks the real
    vertex slots.  lo and hi bound each polygon's axis-aligned box.
    """

    normals: np.ndarray      # (F, 3), invariant under translation
    offsets: np.ndarray      # (F,), plane: normal . x = offset
    origins: np.ndarray      # (F, V, 3) polygon vertices, the edge origins
    inward: np.ndarray       # (F, V, 3) in-plane inward edge normals, invariant
    valid: np.ndarray        # (F, V) bool
    transparent: np.ndarray  # (F,) bool
    lo: np.ndarray           # (F, 3)
    hi: np.ndarray           # (F, 3)

    def displaced(self, disp: np.ndarray) -> "FacetArrays":
        """The facets translated by disp, shape (F, 3)."""
        return self._replace(
            offsets=self.offsets + np.einsum("fc,fc->f", self.normals, disp),
            origins=self.origins + disp[:, None, :],
            lo=self.lo + disp, hi=self.hi + disp)


class _SceneStatics:
    """Per-scene arrays that rigid translation leaves unchanged."""

    def __init__(self, scene: "Scene"):
        facets = scene.facets
        self.n_facets = len(facets)
        maxv = max((f.vertices.shape[0] for f in facets), default=3)
        F = self.n_facets
        normals = np.zeros((F, 3))
        offsets = np.zeros(F)
        origins = np.zeros((F, maxv, 3))
        inward = np.zeros((F, maxv, 3))
        valid = np.zeros((F, maxv), dtype=bool)
        transparent = np.zeros(F, dtype=bool)
        self.ids = []
        for i, f in enumerate(facets):
            nv = f.vertices.shape[0]
            normals[i] = f.normal
            offsets[i] = f.vertices[0] @ f.normal
            origins[i, :nv] = f.vertices
            inward[i, :nv] = f.edge_inward
            valid[i, :nv] = True
            transparent[i] = f.material.transparent
            self.ids.append(f.id)
        pad = ~valid[:, :, None]
        lo = np.where(pad, np.inf, origins).min(axis=1)
        hi = np.where(pad, -np.inf, origins).max(axis=1)
        # the facets at the scene epoch t = 0
        self.epoch = FacetArrays(normals, offsets, origins, inward, valid,
                                 transparent, lo, hi)
        self.moving = [i for i, f in enumerate(facets) if not f.motion.is_static]
        self.all_static = not self.moving
        self.id_index = {fid: i for i, fid in enumerate(self.ids)}
        self.facet_by_id = {f.id: f for f in facets}
        self.wedge_frames: dict[str, object] = {}
        self.at_rest = None  # SceneAtTime._evaluate of a static scene


class SceneAtTime:
    """All scene geometry evaluated at a single time instant."""

    def __init__(self, scene: Scene, t: float):
        self.scene = scene
        self.time = float(t)
        self.tx = scene.tx_motion.position(t)
        self.rx = scene.rx_motion.position(t)
        statics = scene.statics()
        self._statics = statics
        # a static scene's facets and edges are the same at every instant,
        # so its instants share one evaluation; the one attribute set after
        # it, an edge's wedge frame, is translation-invariant
        evaluated = statics.at_rest or self._evaluate(scene, t)
        if statics.all_static:
            statics.at_rest = evaluated
        self.facets, self._by_id, self.edges, self._edge_by_id, self._facet_disp = evaluated
        self._occlusion_arrays = None

    def _evaluate(self, scene: Scene, t: float):
        """(facets, facets by id, edges, edges by id, facet displacements) at t."""
        statics = self._statics
        facets: list[FacetAtTime] = []
        by_id: dict[str, FacetAtTime] = {}
        disp = np.zeros((statics.n_facets, 3))
        for i, f in enumerate(scene.facets):
            if f.motion.is_static:
                verts = f.vertices
                offset = statics.epoch.offsets[i]
            else:
                d = f.motion.displacement(t)
                disp[i] = d
                verts = f.vertices + d
                offset = statics.epoch.offsets[i] + float(f.normal @ d)
            fat = FacetAtTime(f.id, verts, f.normal, float(offset),
                              f.material, f.thickness, f.edge_inward)
            facets.append(fat)
            by_id[f.id] = fat
        edges: list[EdgeAtTime] = []
        edge_by_id: dict[str, EdgeAtTime] = {}
        for e in scene.edges:
            owner = statics.facet_by_id[e.adjacent_facets[0]]
            pts = (e.endpoints if owner.motion.is_static
                   else e.endpoints + owner.motion.displacement(t))
            eat = EdgeAtTime(e.id, pts,
                             (by_id[e.adjacent_facets[0]], by_id[e.adjacent_facets[1]]),
                             e.exterior_wedge_angle)
            eat.frame = statics.wedge_frames.get(e.id)
            edges.append(eat)
            edge_by_id[e.id] = eat
        return facets, by_id, edges, edge_by_id, disp

    def facet(self, fid: str) -> FacetAtTime:
        return self._by_id[fid]

    def edge(self, eid: str) -> EdgeAtTime:
        return self._edge_by_id[eid]

    def occlusion_arrays(self) -> FacetArrays:
        """Stacked facet arrays at this instant, for the vectorized kernels."""
        if self._occlusion_arrays is None:
            s = self._statics
            self._occlusion_arrays = (s.epoch if s.all_static
                                      else s.epoch.displaced(self._facet_disp))
        return self._occlusion_arrays


def scene_at(scene: Scene, t: float) -> SceneAtTime:
    """Evaluate all facet, edge and transceiver positions at time t."""
    return SceneAtTime(scene, t)


def point_in_facet(p: np.ndarray, f: FacetAtTime, plane_tol: float = COPLANAR_TOL):
    """Convex-polygon containment with signed boundary distance.

    Returns (inside, signed_distance); the distance is positive inside,
    negative outside, with magnitude equal to the distance to the nearest
    boundary point.  Raises SceneError if p is off the facet plane by more
    than plane_tol.
    """
    p = np.asarray(p, float)
    off = abs(float(np.dot(f.normal, p) - f.offset))
    if off > plane_tol:
        raise SceneError(
            f"point is {off:.3e} m off the plane of facet {f.id!r} (tol {plane_tol:g})")
    d = f.boundary_distance(p)
    return d >= 0.0, d


# ---------------------------------------------------------------------------
# Scene file I/O
# ---------------------------------------------------------------------------

def _motion_from_json(segs) -> Motion:
    if not segs:
        raise SceneError("missing motion_segments")
    return Motion(tuple(MotionState(
        r0=np.asarray(s.get("r0", [0.0, 0.0, 0.0]), float),
        v0=np.asarray(s.get("v0", [0.0, 0.0, 0.0]), float),
        a0=np.asarray(s.get("a0", [0.0, 0.0, 0.0]), float),
        t_ref=float(s.get("t_ref", 0.0))) for s in segs))


def _motion_to_json(m: Motion):
    return {"motion_segments": [
        {"t_ref": s.t_ref, "r0": s.r0.tolist(), "v0": s.v0.tolist(), "a0": s.a0.tolist()}
        for s in m.segments]}


def _material_from_json(obj) -> Material:
    if obj is None:
        return Material()
    return Material(
        rel_permittivity=float(obj.get("rel_permittivity", DEFAULT_MATERIAL_PERMITTIVITY)),
        conductivity=float(obj.get("conductivity", DEFAULT_MATERIAL_CONDUCTIVITY)),
        attenuation_alpha=float(obj.get("attenuation_alpha", 0.0)),
        transparent=bool(obj.get("transparent", False)),
    )


def load_scene(path) -> Scene:
    """Read a scene file.  One array pass validates and frames every facet,
    naming the first invalid one in file order; facets share one Motion per
    distinct motion_segments entry and one Material per material entry.
    """
    try:
        doc = json.loads(FilePath(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}") from exc
    cache: dict = {}

    def shared(build, entry):   # build(entry) once per distinct entry
        key = (build, repr(entry))
        return cache[key] if key in cache else cache.setdefault(key, build(entry))

    try:
        rows, failure = [], None
        for f in doc.get("facets", []):
            try:   # a facet without motion_segments rests at the origin
                rows.append((str(f["id"]), np.asarray(f["vertices"], float),
                             shared(_material_from_json, f.get("material")),
                             shared(_motion_from_json, f.get("motion_segments") or [{}]),
                             float(f.get("thickness_m", DEFAULT_THICKNESS))))
            except (KeyError, TypeError, ValueError) as exc:
                failure = exc   # raised unless an earlier facet is invalid
                break
        ids, vertices, materials, motions, thickness = list(zip(*rows)) or [()] * 5
        normals, inward = _facet_frames(ids, vertices, thickness)
        if failure is not None:
            raise failure
        facets = []
        for fields in zip(ids, vertices, materials, motions, thickness, normals, inward):
            facets.append(object.__new__(Facet))   # validated by _facet_frames
            for name, value in zip(Facet.__dataclass_fields__, fields):
                object.__setattr__(facets[-1], name, value)
        edges = [Edge(str(e["id"]), e["endpoints"], e["adjacent_facets"],
                      float(e["exterior_wedge_angle"])) for e in doc.get("edges", [])]
        return Scene(facets=facets, edges=edges,
                     tx_motion=_motion_from_json(doc["tx"].get("motion_segments")),
                     rx_motion=_motion_from_json(doc["rx"].get("motion_segments")),
                     frequency=float(doc["frequency_hz"]),
                     tx_power_dbm=float(doc.get("tx_power_dbm", 30.0)))
    except SceneError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError: bad vector shapes or motion segments, non-numeric values
        raise SceneError(f"malformed scene file {path}: {exc}") from exc


def save_scene(scene: Scene, path) -> None:
    doc = {
        "frequency_hz": scene.frequency,
        "tx_power_dbm": scene.tx_power_dbm,
        "facets": [
            {"id": f.id,
             "vertices": f.vertices.tolist(),
             "material": {
                 "rel_permittivity": f.material.rel_permittivity,
                 "conductivity": f.material.conductivity,
                 "attenuation_alpha": f.material.attenuation_alpha,
                 "transparent": f.material.transparent,
             },
             "thickness_m": f.thickness,
             **_motion_to_json(f.motion)}
            for f in scene.facets],
        "edges": [
            {"id": e.id,
             "endpoints": e.endpoints.tolist(),
             "adjacent_facets": list(e.adjacent_facets),
             "exterior_wedge_angle": e.exterior_wedge_angle}
            for e in scene.edges],
        "tx": _motion_to_json(scene.tx_motion),
        "rx": _motion_to_json(scene.rx_motion),
    }
    FilePath(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
