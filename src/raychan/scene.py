"""World model: materials, facets, diffraction edges, transceivers.

A Scene is immutable after construction.  All motion is rigid translation;
facet normals therefore never change, and `scene_at` gives the scene at an
instant as arrays, moved from the epoch by one displacement rule (see
"Instantaneous geometry" below).

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
Each edge's wedge frame is built once, from the epoch geometry, when the
Scene is built: a scene whose edge joins facets that move differently, or
that meet at another exterior angle than the edge declares, is rejected.

`load_scene` validates and frames all facets in one array pass, one
`polygon_frames` call per vertex count, and names the first invalid facet in
file order; facets with equal motion or material entries share one object.

A material's complex relative permittivity at a frequency,
eps = eps_r - j*sigma/(omega*eps0), is `complex_permittivity`, kept here
beside `Material` so that loading a scene and building its edge arrays need
neither the coefficient nor the ray-tracing modules; `coefficients` and `rt`
import it from here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path as FilePath
from typing import NamedTuple

import numpy as np

from .geometry import (
    COPLANAR_TOL,
    POLYGON_FAILURES,
    WedgeFrame,
    polygon_frames,
    wedge_frame,
)
from .motion import Motion, MotionState

DEFAULT_MATERIAL_PERMITTIVITY = 5.31   # concrete
DEFAULT_MATERIAL_CONDUCTIVITY = 0.0326  # S/m
DEFAULT_THICKNESS = 0.2                 # m
EPS0 = 8.8541878128e-12                 # F/m, vacuum permittivity


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


def complex_permittivity(material: Material, frequency: float) -> complex:
    """Complex relative permittivity eps = eps_r - j*sigma/(omega*eps0)."""
    omega = 2.0 * math.pi * frequency
    return material.rel_permittivity - 1j * material.conductivity / (omega * EPS0)


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
    # each edge's wedge frame by id, from the epoch geometry
    frames: dict[str, WedgeFrame] = field(init=False, repr=False, compare=False)
    # the position of each facet and edge in its tuple, by id
    facet_index: dict[str, int] = field(init=False, repr=False, compare=False)
    edge_index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "facets", tuple(self.facets))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "frames", {})
        object.__setattr__(self, "facet_index", {f.id: i for i, f in enumerate(self.facets)})
        object.__setattr__(self, "edge_index", {e.id: i for i, e in enumerate(self.edges)})
        if not np.isfinite(self.frequency) or self.frequency <= 0.0:
            raise SceneError("frequency must be finite and positive")
        if not np.isfinite(self.tx_power_dbm):
            raise SceneError("tx_power_dbm must be finite")
        ids = [f.id for f in self.facets] + [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise SceneError("facet/edge ids must be unique")
        for e in self.edges:
            for fid in e.adjacent_facets:
                if fid not in self.facet_index:
                    raise SceneError(f"edge {e.id!r}: unknown adjacent facet {fid!r}")
                f = self.facets[self.facet_index[fid]]
                d = f.vertices[0] @ f.normal
                off = np.abs(e.endpoints @ f.normal - d)
                if np.max(off) > COPLANAR_TOL:
                    raise SceneError(
                        f"edge {e.id!r} does not lie on the plane of facet {fid!r}")
            first, second = (self.facets[self.facet_index[fid]] for fid in e.adjacent_facets)
            if not first.motion.moves_with(second.motion):
                raise SceneError(
                    f"edge {e.id!r}: adjacent facets {first.id!r} and {second.id!r} "
                    "move differently")
            try:
                self.frames[e.id] = wedge_frame(e.endpoints, first.vertices, first.normal,
                                                second.vertices, e.exterior_wedge_angle)
            except ValueError as exc:
                raise SceneError(f"edge {e.id!r}: {exc}") from None
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
        """The scene's arrays at the epoch, built on first use."""
        cached = getattr(self, "_statics_cache", None)
        if cached is None:
            cached = _SceneStatics(self)
            object.__setattr__(self, "_statics_cache", cached)
        return cached

    def facet_displacement(self, index, t) -> np.ndarray | None:
        """The one facet-displacement rule: facet index[...] moved from the
        epoch to time t[...], index and t broadcast against each other.

        Returns their broadcast shape + (3,), or None when none of those
        facets moves.  An edge moves with its first adjacent facet.
        """
        index = np.asarray(index)
        moving = [f for f in self.statics().moving.tolist() if np.any(index == f)]
        if not moving:
            return None
        index, t = np.broadcast_arrays(index, np.asarray(t, float))
        out = np.zeros(index.shape + (3,))
        for f in moving:
            rows = index == f
            out[rows] = self.facets[f].motion.displacement(t[rows])
        return out


C_LIGHT = 299792458.0


# ---------------------------------------------------------------------------
# Instantaneous geometry
# ---------------------------------------------------------------------------
#
# The scene at time t is its arrays: Tx and Rx, every facet as one row of a
# FacetArrays and every edge's endpoints as one row of an (E, 2, 3) array.
# Motion is rigid translation, so one rule moves them all.  Facet f at t is
# its epoch row translated by d = Scene.facet_displacement(f, t): vertices
# and box by d, the plane offset by shifted_offsets (epoch offset + n . d),
# normals and edge normals unchanged; an edge translates with its first
# adjacent facet.  scene_at, the crossing kernel's per-row shift
# (rt.facet_crossings) and the path trajectories of drt all move facets by
# these two functions, so an RT pass and a prediction at one instant see
# the same planes bit for bit.  What translation leaves alone (material,
# thickness, wedge frame, id) is read from the Scene by index
# (Scene.facet_index, Scene.edge_index).

def shifted_offsets(normals, offsets, disp):
    """Plane offsets of facets translated by disp: the one offset rule.
    Arguments broadcast, coordinates last."""
    return offsets + np.vecdot(normals, disp)


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

    def displaced(self, index: np.ndarray, disp: np.ndarray) -> "FacetArrays":
        """These facets with facets index (K,) translated by disp (K, 3)."""
        offsets, origins, lo, hi = (a.copy() for a in (self.offsets, self.origins,
                                                        self.lo, self.hi))
        offsets[index] = shifted_offsets(self.normals[index], offsets[index], disp)
        origins[index] += disp[:, None, :]
        lo[index] += disp
        hi[index] += disp
        return self._replace(offsets=offsets, origins=origins, lo=lo, hi=hi)

    def planes(self, index: np.ndarray, disp: np.ndarray | None = None):
        """(normals (K, 1, 3), offsets (K, 1)) of facets index (K,), or with
        disp (K, T, 3) translated to each of T times: offsets (K, T)."""
        normals = self.normals.take(index, axis=0)[:, None]
        offsets = self.offsets.take(index)[:, None]
        if disp is not None:
            offsets = shifted_offsets(normals, offsets, disp)
        return normals, offsets

    def polygons(self, index: np.ndarray, disp: np.ndarray | None = None):
        """(origins (K, 1, V, 3), inward (K, V, 3), valid (K, V)) of facets
        index (K,), or with disp (K, T, 3) origins (K, T, V, 3)."""
        origins = self.origins.take(index, axis=0)[:, None]
        if disp is not None:
            origins = origins + disp[:, :, None, :]
        return origins, self.inward.take(index, axis=0), self.valid.take(index, axis=0)


class _SceneStatics:
    """The scene's arrays at the epoch t = 0 and which of them move."""

    def __init__(self, scene: "Scene"):
        facets = scene.facets
        maxv = max((f.vertices.shape[0] for f in facets), default=3)
        F = len(facets)
        normals = np.zeros((F, 3))
        offsets = np.zeros(F)
        origins = np.zeros((F, maxv, 3))
        inward = np.zeros((F, maxv, 3))
        valid = np.zeros((F, maxv), dtype=bool)
        transparent = np.zeros(F, dtype=bool)
        for i, f in enumerate(facets):
            nv = f.vertices.shape[0]
            normals[i] = f.normal
            offsets[i] = f.vertices[0] @ f.normal
            origins[i, :nv] = f.vertices
            inward[i, :nv] = f.edge_inward
            valid[i, :nv] = True
            transparent[i] = f.material.transparent
        pad = ~valid[:, :, None]
        lo = np.where(pad, np.inf, origins).min(axis=1)
        hi = np.where(pad, -np.inf, origins).max(axis=1)
        self.epoch = FacetArrays(normals, offsets, origins, inward, valid,
                                 transparent, lo, hi)
        self.edge_ends = np.array([e.endpoints for e in scene.edges]).reshape(-1, 2, 3)
        # each edge's two adjacent facets; the first one carries the edge
        self.edge_facets = np.array([[scene.facet_index[fid] for fid in e.adjacent_facets]
                                     for e in scene.edges], dtype=int).reshape(-1, 2)
        for a in (*self.epoch, self.edge_ends):
            a.flags.writeable = False   # every static instant shares them
        self.moving = np.array([i for i, f in enumerate(facets) if not f.motion.is_static],
                               dtype=int)
        self.moving_edges = np.flatnonzero(np.isin(self.edge_facets[:, 0], self.moving))
        # by edge: frame vectors, n, faces' permittivity (rt.diffraction_coefficients)
        frames = [scene.frames[e.id] for e in scene.edges]
        self.wedges = tuple(np.array([getattr(f, k) for f in frames], float)
                            for k in ("e_hat", "a_o", "n_o", "n_index"))
        self.edge_eps = np.array([complex_permittivity(facets[i].material, scene.frequency)
                                  for i in self.edge_facets[:, 0].tolist()], complex)
        # by facet: permittivity, slab thickness and attenuation (edrt.extrapolate_fields)
        self.facet_eps = np.array([complex_permittivity(f.material, scene.frequency)
                                   for f in facets], complex)
        self.thickness = np.array([f.thickness for f in facets], float)
        self.alpha = np.array([f.material.attenuation_alpha for f in facets], float)
        self.exclusions: dict[tuple, np.ndarray] = {}   # rt.segment_exclusions by backbone
        self.owners: dict[tuple, tuple] = {}   # edrt.ReferenceFields' slot layout by signature


class SceneAtTime(NamedTuple):
    """The scene at one instant: its arrays and nothing else."""

    scene: Scene
    time: float
    tx: np.ndarray          # (3,)
    rx: np.ndarray          # (3,)
    facets: FacetArrays     # every facet at this instant
    edges: np.ndarray       # (E, 2, 3) edge endpoints at this instant


def scene_at(scene: Scene, t: float) -> SceneAtTime:
    """The scene's arrays at time t: its epoch arrays with the moving facets
    and edges translated; the instants of a static scene share them."""
    s = scene.statics()
    facets, edges = s.epoch, s.edge_ends
    if s.moving.size:
        facets = facets.displaced(s.moving, scene.facet_displacement(s.moving, t))
    if s.moving_edges.size:
        edges = edges.copy()
        edges[s.moving_edges] += scene.facet_displacement(
            s.edge_facets[s.moving_edges, 0], t)[:, None, :]
    return SceneAtTime(scene, float(t), scene.tx_motion.position(t),
                       scene.rx_motion.position(t), facets, edges)


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
