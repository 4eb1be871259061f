"""Single-instant ray tracer: exhaustive path finding and field computation.

Path finding is deterministic image-method enumeration over ordered facet
tuples (reflection order <= 2), plus one-edge diffraction via the generalized
Fermat point, each optionally combined with a single penetration through a
transparent facet.  No ray launching is involved, so path signatures are
stable across time and can be matched between snapshots.

The electric field is propagated as a complex 3-vector with per-interface
polarization decomposition and reported at the receiver as a 2-vector in the
ray-fixed (vertical, horizontal) arrival basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .coefficients import (
    WedgeGeometry,
    complex_permittivity,
    fresnel_coefficients,
    transmission_coefficient,
    utd_coefficient,
)
from .geometry import (
    arrival_basis,
    cross3,
    fermat_point_on_line,
    line_plane_intersection,
    mirror_point,
    norm,
    unit,
    vertical_pol,
)
from .scene import C_LIGHT, FacetAtTime, Scene, SceneAtTime, scene_at

ETA0 = 376.730313668  # free-space impedance, ohms

# geometric tolerances
SIDE_EPS = 1e-9          # strictly-same-side margin, m
GRAZING_COS = 1e-9       # reject interactions closer than this to grazing
SEG_PARAM_EPS = 1e-9     # occlusion hits closer than this to a segment end are ignored
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


@dataclass(frozen=True)
class Interaction:
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


class ConstructionError(RuntimeError):
    """A path's geometric construction is impossible at the query time."""


# ---------------------------------------------------------------------------
# Elementary constructions (public operations)
# ---------------------------------------------------------------------------

def find_reflection_point(tx, rx, f: FacetAtTime):
    """Specular reflection point of tx->rx on a facet via the image method.

    Mirrors tx across the facet plane, intersects the image-receiver line
    with the plane and accepts the point only if it falls inside the facet
    polygon.  Returns None for a parallel line or an outside intersection.
    """
    img = mirror_point(np.asarray(tx, float), f.normal, f.offset)
    p, t = line_plane_intersection(img, rx, f.normal, f.offset)
    if p is None:
        return None
    if f.boundary_distance(p, exact_outside=False) < 0.0:
        return None
    return p


def find_diffraction_point(tx, rx, e) -> np.ndarray | None:
    """Generalized Fermat point on an edge segment, or None when clipped.

    The returned point minimizes |tx-p| + |p-rx| over the segment and
    therefore satisfies the Keller cone condition; minimizers that fall on
    (or beyond) an endpoint are rejected.
    """
    a, b = e.endpoints
    p, u = fermat_point_on_line(np.asarray(tx, float), np.asarray(rx, float), a, b)
    if p is None or not 0.0 < u < 1.0:
        return None
    return p


# ---------------------------------------------------------------------------
# Occlusion
# ---------------------------------------------------------------------------

def occlusion_profiles_batch(geom: SceneAtTime, polylines):
    """Crossed facets along many polylines Tx -> interactions -> Rx.

    polylines is a list of (vertices, owner_ids) pairs: vertices are the
    backbone points including both endpoints, owner_ids gives per vertex the
    facet ids that own it (empty for Tx/Rx).  Every segment is tested against
    every facet in one vectorized pass; hits within SEG_PARAM_EPS of a
    segment end and hits on a segment's owner facets are ignored.  Returns
    per polyline (opaque_blocked, penetrations), penetrations being the
    parameter-ordered list of (segment_index, facet_at_time, point, t).
    """
    normals, offsets, origins, inward, valid, transparent = geom.occlusion_arrays()
    id_index = geom._statics.id_index
    n_f = normals.shape[0]
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
    a = np.asarray(seg_a)
    d = np.asarray(seg_d)
    excl = np.asarray(excl_rows)
    denom = d @ normals.T
    num = offsets[None, :] - a @ normals.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / denom
    hit = (np.abs(denom) > 1e-14) & (t > SEG_PARAM_EPS) \
        & (t < 1.0 - SEG_PARAM_EPS) & ~excl
    if hit.any():
        t = np.where(hit, t, 0.5)
        pts = a[:, None, :] + t[..., None] * d[:, None, :]
        rel = pts[:, :, None, :] - origins[None]
        edge_d = np.einsum("sfvc,fvc->sfv", rel, inward)
        edge_d = np.where(valid[None], edge_d, np.inf)
        hit &= np.min(edge_d, axis=2) >= 0.0
    results = [[False, []] for _ in polylines]
    for s, i in zip(*np.nonzero(hit)):
        item, k = seg_owner[s]
        if results[item][0]:
            continue
        if not transparent[i]:
            results[item][0] = True
            results[item][1] = []
        else:
            results[item][1].append((k, geom.facets[i], pts[s, i], float(t[s, i])))
    for r in results:
        r[1].sort(key=lambda h: (h[0], h[3]))
    return [(blocked, pens) for blocked, pens in results]


def occlusion_profile(geom: SceneAtTime, vertices, owner_ids):
    """occlusion_profiles_batch for a single polyline."""
    return occlusion_profiles_batch(geom, [(vertices, owner_ids)])[0]


# ---------------------------------------------------------------------------
# Backbone construction and resolved geometry
# ---------------------------------------------------------------------------

def solve_backbone(geom: SceneAtTime, backbone: tuple, clamped: bool = True):
    """Interaction points for the reflection/diffraction part of a signature.

    backbone is a tuple of (Mechanism, geometry_id) without penetrations.
    With clamped=True (full RT) the construction fails when a reflection
    point leaves its polygon or a Fermat point leaves its edge segment; with
    clamped=False (trajectory extrapolation) those constraints are ignored
    and only hard failures (parallel/degenerate geometry, image side
    violations) raise ConstructionError.
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
        e = geom.edge(backbone[0][1])
        p, u = fermat_point_on_line(tx, rx, e.endpoints[0], e.endpoints[1])
        if p is None:
            raise ConstructionError("degenerate diffraction geometry")
        if clamped and not 0.0 < u < 1.0:
            raise ConstructionError("diffraction point clipped by edge segment")
        return [p]

    # pure reflections: forward image cascade, backward point recovery
    facets = [geom.facet(gid) for _, gid in backbone]
    images = [np.asarray(tx, float)]
    for f in facets:
        images.append(mirror_point(images[-1], f.normal, f.offset))
    points: list[np.ndarray | None] = [None] * len(facets)
    target = np.asarray(rx, float)
    for i in range(len(facets) - 1, -1, -1):
        f = facets[i]
        p, t = line_plane_intersection(images[i + 1], target, f.normal, f.offset)
        if p is None or not 0.0 < t < 1.0:
            raise ConstructionError(f"image line does not reach facet {f.id!r}")
        if clamped and f.boundary_distance(p, exact_outside=False) < 0.0:
            raise ConstructionError(f"reflection point left facet {f.id!r}")
        points[i] = p
        target = p

    # per-bounce specular sanity: neighbors strictly on one side, non-grazing
    chain = [np.asarray(tx, float)] + points + [np.asarray(rx, float)]
    for i, f in enumerate(facets):
        d_in = float(np.dot(f.normal, chain[i]) - f.offset)
        d_out = float(np.dot(f.normal, chain[i + 2]) - f.offset)
        if d_in * d_out <= 0.0 or min(abs(d_in), abs(d_out)) < SIDE_EPS:
            raise ConstructionError(f"image side violation at facet {f.id!r}")
        s_in = unit(chain[i + 1] - chain[i])
        if abs(np.dot(s_in, f.normal)) < GRAZING_COS:
            raise ConstructionError(f"grazing reflection at facet {f.id!r}")
    return points


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
        """All interactions in traversal order, penetrations interleaved."""
        if not self.penetrations:
            return list(self.backbone)
        out: list[Interaction] = []
        pens = sorted(self.penetrations, key=lambda h: (h.segment, h.t))
        pi = 0
        for k in range(len(self.vertices) - 1):
            while pi < len(pens) and pens[pi].segment == k:
                h = pens[pi]
                out.append(Interaction(Mechanism.PENETRATION, h.facet.id, h.point))
                pi += 1
            if k + 1 < len(self.vertices) - 1:
                out.append(self.backbone[k])
        return out


def _backbone_of(sig: Signature):
    return tuple((m, gid) for m, gid in sig if m is not Mechanism.PENETRATION)


def _penetration_slots(sig: Signature):
    """(facet_id, segment_index) for each penetration, from signature order."""
    out = []
    seg = 0
    for m, gid in sig:
        if m is Mechanism.PENETRATION:
            out.append((gid, seg))
        else:
            seg += 1
    return out


def build_geometry(geom: SceneAtTime, sig: Signature, backbone_points) -> PathGeometry:
    """Assemble PathGeometry from solved backbone points.

    Penetration points are re-derived as the intersection of the (current)
    segment line with the slab plane; for extrapolated geometry the crossing
    parameter may drift outside the segment, mirroring the frozen-structure
    behavior of geometry prediction.
    """
    tx, rx = np.asarray(geom.tx, float), np.asarray(geom.rx, float)
    vertices = [tx] + [np.asarray(p, float) for p in backbone_points] + [rx]
    backbone_sig = _backbone_of(sig)
    backbone = [Interaction(m, gid, np.asarray(p, float))
                for (m, gid), p in zip(backbone_sig, backbone_points)]
    pens = []
    for fid, seg in _penetration_slots(sig):
        f = geom.facet(fid)
        p, t = line_plane_intersection(vertices[seg], vertices[seg + 1],
                                       f.normal, f.offset)
        if p is None:
            raise ConstructionError(f"penetration segment parallel to facet {fid!r}")
        pens.append(PenetrationHit(seg, f, p, t))
    seg_vecs = np.diff(np.asarray(vertices), axis=0)
    seg_lengths = np.linalg.norm(seg_vecs, axis=1)
    if np.any(seg_lengths < 1e-9):
        raise ConstructionError("degenerate zero-length path segment")
    total = float(seg_lengths.sum())
    split = None
    for i, (m, _gid) in enumerate(backbone_sig):
        if m is Mechanism.DIFFRACTION:
            s_pre = float(seg_lengths[: i + 1].sum())
            split = (s_pre, total - s_pre)
    return PathGeometry(sig, tx, rx, vertices, backbone, pens,
                        seg_lengths, total, split)


# ---------------------------------------------------------------------------
# Wedge frame
# ---------------------------------------------------------------------------

@dataclass
class WedgeFrame:
    e_hat: np.ndarray
    a_o: np.ndarray   # in-plane direction from the edge into the o-face
    n_o: np.ndarray   # o-face normal oriented so angles sweep the exterior
    n_index: float    # exterior angle / pi

    def __post_init__(self):
        # plain-float copies for the hot angle computation
        object.__setattr__(self, "ef", tuple(map(float, self.e_hat)))
        object.__setattr__(self, "af", tuple(map(float, self.a_o)))
        object.__setattr__(self, "nf", tuple(map(float, self.n_o)))

    def angle_components(self, dx: float, dy: float, dz: float) -> float:
        """Exterior angle of a (not necessarily unit) edge-pointing ray."""
        e, a, n = self.ef, self.af, self.nf
        axial = dx * e[0] + dy * e[1] + dz * e[2]
        px, py, pz = dx - axial * e[0], dy - axial * e[1], dz - axial * e[2]
        along = px * a[0] + py * a[1] + pz * a[2]
        out = px * n[0] + py * n[1] + pz * n[2]
        if along * along + out * out < 1e-18:
            raise ConstructionError("ray parallel to diffraction edge")
        phi = math.atan2(out, along)
        if phi < 0.0:
            phi += 2.0 * math.pi
        return min(phi, self.n_index * math.pi)

    def angle_of(self, direction) -> float:
        return self.angle_components(float(direction[0]), float(direction[1]),
                                     float(direction[2]))


def _frame_of(geom: SceneAtTime, edge) -> WedgeFrame:
    """Cached edge frame: its vectors are invariant under rigid translation."""
    if edge.frame is not None:
        return edge.frame
    frame = wedge_frame(edge)
    edge.frame = frame
    geom._statics.wedge_frames[edge.id] = frame
    return frame


def wedge_frame(edge) -> WedgeFrame:
    """Edge-fixed frame for UTD angle measurement.

    The o-face tangent points from the edge into the first adjacent facet;
    the o-face normal is oriented so that the second facet sits at the
    declared exterior angle (for a thin screen the two coincide and either
    orientation is valid).
    """
    p0, p1 = edge.endpoints
    e_hat = unit(p1 - p0)
    f_o, f_n = edge.adjacent
    mid = 0.5 * (p0 + p1)

    def into_face(f):
        w = f.vertices.mean(axis=0) - mid
        w = w - np.dot(w, e_hat) * e_hat
        return unit(w)

    a_o = into_face(f_o)
    a_n = into_face(f_n)
    n_idx = edge.exterior_wedge_angle / math.pi
    want_cos = math.cos(edge.exterior_wedge_angle)
    want_sin = math.sin(edge.exterior_wedge_angle)
    for n_o in (f_o.normal - np.dot(f_o.normal, e_hat) * e_hat,
                -(f_o.normal - np.dot(f_o.normal, e_hat) * e_hat)):
        n_o = unit(n_o)
        got_cos = float(np.dot(a_n, a_o))
        got_sin = float(np.dot(a_n, n_o))
        if abs(got_cos - want_cos) < 1e-6 and abs(got_sin - want_sin) < 1e-6:
            return WedgeFrame(e_hat, a_o, n_o, n_idx)
    raise ConstructionError(
        f"edge {edge.id!r}: declared exterior angle inconsistent with adjacent facets")


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


def _reflection_basis(s_in: np.ndarray, normal: np.ndarray):
    perp = cross3(s_in, normal)
    m = norm(perp)
    if m < 1e-9:
        # normal incidence: plane of incidence degenerate, any transverse axis
        perp = cross3(s_in, np.array([0.0, 0.0, 1.0]))
        m = norm(perp)
        if m < 1e-9:
            perp = cross3(s_in, np.array([1.0, 0.0, 0.0]))
            m = norm(perp)
    return perp / m


def _check_on_geometry(geometry: PathGeometry, geom: SceneAtTime) -> None:
    for i, inter in enumerate(geometry.backbone):
        if inter.mechanism is Mechanism.REFLECTION:
            f = geom.facet(inter.geometry_id)
            if abs(float(np.dot(f.normal, inter.point) - f.offset)) > ON_GEOMETRY_TOL:
                raise ConstructionError(
                    f"reflection point off the plane of facet {inter.geometry_id!r}")
        else:
            e = geom.edge(inter.geometry_id)
            a, b = e.endpoints
            d = unit(b - a)
            off = (inter.point - a) - np.dot(inter.point - a, d) * d
            if norm(off) > ON_GEOMETRY_TOL:
                raise ConstructionError(
                    f"diffraction point off the line of edge {inter.geometry_id!r}")


@dataclass
class InteractionTrace:
    """Recorded context of one interaction along a reference chain walk.

    Captures the coefficient pair that was applied, the polarization
    eigen-channel that carried the field (0 = perp/soft, 1 = par/hard), and
    the static geometry needed to re-evaluate the coefficient at another
    time (normals, wedge frames and materials are invariant under rigid
    translation).
    """

    kind: Mechanism
    coeff: tuple[complex, complex]
    label: int
    material: object
    eps: complex = 0.0 + 0.0j  # complex permittivity at the scene frequency
    normal: np.ndarray | None = None
    frame: object | None = None
    thickness: float = 0.0
    alpha: float = 0.0
    d_t: float = 0.0


def wedge_geometry_of(frame: WedgeFrame, geometry: PathGeometry,
                      index: int) -> WedgeGeometry:
    """Edge-local angles of the diffraction at backbone position index.

    The one wedge-angle routine: the RT chain walk and E-DRT's coefficient
    re-evaluation both call it, on the reference and the moved geometry.
    """
    verts = geometry.vertices
    a, b, c = verts[index], verts[index + 1], verts[index + 2]
    dx, dy, dz = float(b[0] - a[0]), float(b[1] - a[1]), float(b[2] - a[2])
    e = frame.ef
    d_in = float(geometry.seg_lengths[: index + 1].sum())
    cos_b = (dx * e[0] + dy * e[1] + dz * e[2]) / float(geometry.seg_lengths[index])
    return WedgeGeometry(
        n=frame.n_index,
        beta0=math.acos(min(max(cos_b, -1.0), 1.0)),
        phi_inc=frame.angle_components(-dx, -dy, -dz),
        phi_dif=frame.angle_components(float(c[0] - b[0]), float(c[1] - b[1]),
                                       float(c[2] - b[2])),
        d_inc=d_in,
        d_dif=float(geometry.total_length - d_in),
    )


def polarization_chain(scene: Scene, geom: SceneAtTime, geometry: PathGeometry,
                       record: list[InteractionTrace] | None = None) -> np.ndarray:
    """Propagate the launch polarization through all interactions.

    Returns the complex 3-vector field direction/coefficient product before
    spreading and propagation phase are applied.  When record is given, an
    InteractionTrace per interaction (backbone order, then penetrations) is
    appended for later coefficient re-evaluation.
    """
    verts = geometry.vertices
    s0 = unit(verts[1] - verts[0])
    e_vec = launch_amplitude(scene) * vertical_pol(s0).astype(complex)

    for i, inter in enumerate(geometry.backbone):
        s_in = unit(verts[i + 1] - verts[i])
        s_out = unit(verts[i + 2] - verts[i + 1])
        if inter.mechanism is Mechanism.REFLECTION:
            f = geom.facet(inter.geometry_id)
            cos_th = min(abs(float(np.dot(s_in, f.normal))), 1.0)
            pair = fresnel_coefficients(math.acos(cos_th), f.material, scene.frequency)
            e_perp = _reflection_basis(s_in, f.normal)
            par_in = cross3(e_perp, s_in)
            par_out = cross3(e_perp, s_out)
            c_perp = np.dot(e_vec, e_perp)
            c_par = np.dot(e_vec, par_in)
            if record is not None:
                record.append(InteractionTrace(
                    kind=Mechanism.REFLECTION, coeff=pair,
                    label=0 if abs(c_perp) >= abs(c_par) else 1,
                    material=f.material,
                    eps=complex_permittivity(f.material, scene.frequency),
                    normal=f.normal))
            e_vec = pair[0] * c_perp * e_perp + pair[1] * c_par * par_out
        else:  # diffraction
            e = geom.edge(inter.geometry_id)
            frame = _frame_of(geom, e)
            material = e.adjacent[0].material
            pair = utd_coefficient(wedge_geometry_of(frame, geometry, i), material,
                                   scene.frequency)
            phi_in = -unit(cross3(frame.e_hat, s_in))
            beta_in = cross3(phi_in, s_in)
            phi_out = -unit(cross3(frame.e_hat, s_out))
            beta_out = cross3(phi_out, s_out)
            c_beta = np.dot(e_vec, beta_in)
            c_phi = np.dot(e_vec, phi_in)
            if record is not None:
                record.append(InteractionTrace(
                    kind=Mechanism.DIFFRACTION, coeff=pair,
                    label=0 if abs(c_beta) >= abs(c_phi) else 1,
                    material=material,
                    eps=complex_permittivity(material, scene.frequency),
                    frame=frame))
            e_vec = pair[0] * c_beta * beta_out + pair[1] * c_phi * phi_out

    for hit in geometry.penetrations:
        f = hit.facet
        s_dir = unit(verts[hit.segment + 1] - verts[hit.segment])
        cos_th = min(abs(float(np.dot(s_dir, f.normal))), 1.0)
        if cos_th < GRAZING_COS:
            raise ConstructionError(f"grazing penetration through facet {f.id!r}")
        tr = transmission_coefficient(math.acos(cos_th), f.material, scene.frequency,
                                      f.thickness)
        e_perp = _reflection_basis(s_dir, f.normal)
        par = cross3(e_perp, s_dir)
        c_perp = np.dot(e_vec, e_perp)
        c_par = np.dot(e_vec, par)
        if record is not None:
            record.append(InteractionTrace(
                kind=Mechanism.PENETRATION, coeff=(tr.t_perp, tr.t_par),
                label=0 if abs(c_perp) >= abs(c_par) else 1,
                material=f.material,
                eps=complex_permittivity(f.material, scene.frequency),
                normal=f.normal,
                thickness=f.thickness, alpha=f.material.attenuation_alpha,
                d_t=tr.d_t))
        loss = tr.loss_factor(f.material.attenuation_alpha)
        e_vec = (tr.t_perp * c_perp * e_perp + tr.t_par * c_par * par) * loss

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
    e_vec = e_vec * (spreading_factor(geometry)
                     * np.exp(-1j * scene.wavenumber * geometry.total_length))
    s_end = unit(verts[-1] - verts[-2])
    v_hat, h_hat = arrival_basis(s_end)
    field2 = np.array([np.dot(e_vec, v_hat), np.dot(e_vec, h_hat)], dtype=complex)
    return field2, power_dbm_from_field(float(np.linalg.norm(field2)), scene)


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


def _candidate_backbones(geom: SceneAtTime):
    yield ()
    fids = [f.id for f in geom.facets]
    for fid in fids:
        yield ((Mechanism.REFLECTION, fid),)
    for f1 in fids:
        for f2 in fids:
            if f1 != f2:
                yield ((Mechanism.REFLECTION, f1), (Mechanism.REFLECTION, f2))
    for e in geom.edges:
        yield ((Mechanism.DIFFRACTION, e.id),)


def trace_geometry(scene: Scene, t: float, geom: SceneAtTime | None = None):
    """Geometric stage of a snapshot: all valid path geometries at time t."""
    if geom is None:
        geom = scene_at(scene, t)
    results: list[PathGeometry] = []
    for backbone in _candidate_backbones(geom):
        try:
            points = solve_backbone(geom, backbone, clamped=True)
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
    entries = []
    pens = sorted(pens, key=lambda h: (h[0], h[3]))
    pi = 0
    n_backbone = len(backbone)
    for seg in range(n_backbone + 1):
        while pi < len(pens) and pens[pi][0] == seg:
            entries.append((Mechanism.PENETRATION, pens[pi][1].id))
            pi += 1
        if seg < n_backbone:
            entries.append(backbone[seg])
    return tuple(entries)


def trace_snapshot(scene: Scene, t: float, timer=None) -> Snapshot:
    """Full ray-tracing run at a single time instant.

    Returns the line-of-sight path (when unobstructed), all image-method
    reflection paths up to order two, and all single-edge diffraction paths,
    each optionally penetrating one transparent facet.  Paths are sorted by
    signature; an empty path list is a valid outcome.  Every path keeps its
    geometry and per-interaction coefficient traces (see make_path), so any
    snapshot can serve as an E-DRT reference.
    """
    from .runs import StageTimer
    timer = timer or StageTimer()
    with timer.geometry():
        geom, geometries = trace_geometry(scene, t)
    paths = []
    with timer.field():
        for g in geometries:
            paths.append(make_path(scene, geom, g))
    sigs = [p.signature for p in paths]
    if len(set(sigs)) != len(sigs):
        raise RuntimeError("duplicate path signatures in snapshot")
    return Snapshot(time=float(t), paths=paths)
