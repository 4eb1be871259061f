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
adjacent facet, so the two facets sharing an edge must translate together.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path as FilePath

import numpy as np

from .geometry import (
    COPLANAR_TOL,
    check_planar_convex,
    polygon_edge_frames,
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
        if self.rel_permittivity < 1.0:
            raise SceneError("rel_permittivity must be >= 1")
        if self.conductivity < 0.0:
            raise SceneError("conductivity must be >= 0")
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
        object.__setattr__(self, "vertices", v)
        try:
            object.__setattr__(self, "normal", check_planar_convex(v))
        except ValueError as exc:
            raise SceneError(f"facet {self.id!r}: {exc}") from exc
        _origins, inward = polygon_edge_frames(v, self.normal)
        object.__setattr__(self, "edge_inward", inward)
        if self.thickness <= 0.0:
            raise SceneError(f"facet {self.id!r}: thickness must be positive")


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
        if self.frequency <= 0.0:
            raise SceneError("frequency must be positive")
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

    def boundary_distance(self, p: np.ndarray, exact_outside: bool = True) -> float:
        """Signed in-plane distance to the polygon boundary (+ inside)."""
        return signed_boundary_distance(p, self.vertices, self.normal,
                                        inward=self.edge_inward,
                                        exact_outside=exact_outside)


@dataclass
class EdgeAtTime:
    id: str
    endpoints: np.ndarray
    adjacent: tuple[FacetAtTime, FacetAtTime]
    exterior_wedge_angle: float
    frame: object = None  # WedgeFrame, cached by the ray tracer


class _SceneStatics:
    """Per-scene arrays that rigid translation leaves unchanged."""

    def __init__(self, scene: "Scene"):
        facets = scene.facets
        self.n_facets = len(facets)
        maxv = max((f.vertices.shape[0] for f in facets), default=3)
        self.maxv = maxv
        F = self.n_facets
        self.normals = np.zeros((F, 3))
        self.offsets0 = np.zeros(F)
        self.origins0 = np.zeros((F, maxv, 3))
        self.inward = np.zeros((F, maxv, 3))
        self.valid = np.zeros((F, maxv), dtype=bool)
        self.transparent = np.zeros(F, dtype=bool)
        self.ids = []
        for i, f in enumerate(facets):
            nv = f.vertices.shape[0]
            self.normals[i] = f.normal
            self.offsets0[i] = f.vertices[0] @ f.normal
            self.origins0[i, :nv] = f.vertices
            self.inward[i, :nv] = f.edge_inward
            self.valid[i, :nv] = True
            self.transparent[i] = f.material.transparent
            self.ids.append(f.id)
        self.all_static = all(f.motion.is_static for f in facets)
        self.id_index = {fid: i for i, fid in enumerate(self.ids)}
        self.facet_by_id = {f.id: f for f in facets}
        self.wedge_frames: dict[str, object] = {}


class SceneAtTime:
    """All scene geometry evaluated at a single time instant."""

    def __init__(self, scene: Scene, t: float):
        self.scene = scene
        self.time = float(t)
        self.tx = scene.tx_motion.position(t)
        self.rx = scene.rx_motion.position(t)
        statics = scene.statics()
        self._statics = statics
        self.facets: list[FacetAtTime] = []
        self._by_id: dict[str, FacetAtTime] = {}
        disp = np.zeros((statics.n_facets, 3))
        for i, f in enumerate(scene.facets):
            if f.motion.is_static:
                verts = f.vertices
                offset = statics.offsets0[i]
            else:
                d = f.motion.displacement(t)
                disp[i] = d
                verts = f.vertices + d
                offset = statics.offsets0[i] + float(f.normal @ d)
            fat = FacetAtTime(f.id, verts, f.normal, float(offset),
                              f.material, f.thickness, f.edge_inward)
            self.facets.append(fat)
            self._by_id[f.id] = fat
        self._facet_disp = disp
        self.edges: list[EdgeAtTime] = []
        self._edge_by_id: dict[str, EdgeAtTime] = {}
        owners = {f.id: f for f in scene.facets}
        for e in scene.edges:
            owner = owners[e.adjacent_facets[0]]
            pts = (e.endpoints if owner.motion.is_static
                   else e.endpoints + owner.motion.displacement(t))
            eat = EdgeAtTime(e.id, pts,
                             (self._by_id[e.adjacent_facets[0]],
                              self._by_id[e.adjacent_facets[1]]),
                             e.exterior_wedge_angle)
            eat.frame = statics.wedge_frames.get(e.id)
            self.edges.append(eat)
            self._edge_by_id[e.id] = eat
        self._occlusion_arrays = None

    def facet(self, fid: str) -> FacetAtTime:
        return self._by_id[fid]

    def edge(self, eid: str) -> EdgeAtTime:
        return self._edge_by_id[eid]

    def occlusion_arrays(self):
        """Stacked facet arrays for the vectorized segment-crossing kernel."""
        if self._occlusion_arrays is None:
            s = self._statics
            if s.all_static:
                origins = s.origins0
                offsets = s.offsets0
            else:
                origins = s.origins0 + self._facet_disp[:, None, :]
                offsets = s.offsets0 + np.einsum("fc,fc->f", s.normals,
                                                 self._facet_disp)
            self._occlusion_arrays = (s.normals, offsets, origins, s.inward,
                                      s.valid, s.transparent)
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

def _motion_from_json(obj) -> Motion:
    segs = obj.get("motion_segments")
    if not segs:
        raise SceneError("missing motion_segments")
    states = []
    for s in segs:
        states.append(MotionState(
            r0=np.asarray(s.get("r0", [0.0, 0.0, 0.0]), float),
            v0=np.asarray(s.get("v0", [0.0, 0.0, 0.0]), float),
            a0=np.asarray(s.get("a0", [0.0, 0.0, 0.0]), float),
            t_ref=float(s.get("t_ref", 0.0)),
        ))
    return Motion(tuple(states))


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
    try:
        doc = json.loads(FilePath(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}") from exc
    try:
        facets = []
        for f in doc.get("facets", []):
            facets.append(Facet(
                id=str(f["id"]),
                vertices=np.asarray(f["vertices"], float),
                material=_material_from_json(f.get("material")),
                motion=_motion_from_json(f) if f.get("motion_segments")
                else Motion.stationary(np.zeros(3)),
                thickness=float(f.get("thickness_m", DEFAULT_THICKNESS)),
            ))
        edges = []
        for e in doc.get("edges", []):
            edges.append(Edge(
                id=str(e["id"]),
                endpoints=np.asarray(e["endpoints"], float),
                adjacent_facets=tuple(e["adjacent_facets"]),
                exterior_wedge_angle=float(e["exterior_wedge_angle"]),
            ))
        return Scene(
            facets=tuple(facets),
            edges=tuple(edges),
            tx_motion=_motion_from_json(doc["tx"]),
            rx_motion=_motion_from_json(doc["rx"]),
            frequency=float(doc["frequency_hz"]),
            tx_power_dbm=float(doc.get("tx_power_dbm", 30.0)),
        )
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
