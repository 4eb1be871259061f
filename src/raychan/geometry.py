"""Low-level geometric kernels: vectors, planes, convex polygons, segments.

All polygons are planar and convex with vertices ordered counterclockwise
around the outward normal.  Tolerances follow the scene conventions:
coplanarity 1e-6 m, direction normalization 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

COPLANAR_TOL = 1e-6
UNIT_TOL = 1e-9


class ConstructionError(RuntimeError):
    """A path's geometric construction is impossible at the query time."""


def norm(v) -> float:
    return float(np.sqrt(np.dot(v, v)))


def unit(v) -> np.ndarray:
    n = norm(v)
    if n < UNIT_TOL:
        raise ValueError("cannot normalize a near-zero vector")
    return np.asarray(v, float) / n


# Single 3-vectors as tuples of Python floats or complex numbers, for the
# field chain walk, where numpy's per-call overhead would dominate.

def sub3(a, b) -> tuple:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def dot3(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a, b) -> tuple:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def unit3(v) -> tuple:
    n = math.sqrt(dot3(v, v))
    if n < UNIT_TOL:
        raise ValueError("cannot normalize a near-zero vector")
    return (v[0] / n, v[1] / n, v[2] / n)


POLYGON_FAILURES = ("vertices must be finite", "polygon has zero area",
                    "polygon vertices are not coplanar within tolerance",
                    "polygon is not convex / not CCW around its normal",
                    "polygon has a zero-length edge")


def polygon_frames(v: np.ndarray):
    """(unit normals (F, 3), inward unit edge normals (F, V, 3), index into
    POLYGON_FAILURES of the first failed check or -1 (F,)) of the polygons v,
    (F, V, 3).  Newell's normal sums on the vertices relative to the first:
    on absolute ones a thin facet far from the origin tilts.
    """
    with np.errstate(all="ignore"):
        rel = v - v[:, :1]
        n = np.sum(np.cross(rel, np.roll(rel, -1, axis=1)), axis=1)
        length = np.sqrt(np.vecdot(n, n))
        n = n / length[:, None]
        edges = np.roll(v, -1, axis=1) - v
        turns = np.vecdot(np.cross(edges, np.roll(edges, -1, axis=1)), n[:, None, :])
        scale = np.max(np.linalg.norm(edges, axis=-1), axis=1) ** 2
        inward = np.cross(n[:, None, :], edges)
        inward_len = np.linalg.norm(inward, axis=-1)
        inward /= inward_len[..., None]
        failed = np.stack([~np.isfinite(v).all(axis=(1, 2)), ~(length >= UNIT_TOL),
                           np.ptp(np.vecdot(v, n[:, None, :]), axis=1) > COPLANAR_TOL,
                           np.any(turns < -COPLANAR_TOL * scale[:, None], axis=1),
                           np.any(~(inward_len >= UNIT_TOL), axis=1)], axis=1)
    return n, inward, np.where(failed.any(axis=1), failed.argmax(axis=1), -1)


def signed_boundary_distance(p, vertices, inward) -> float:
    """Signed in-plane distance from p to the polygon boundary.

    Positive inside, negative outside; magnitude is the distance to the
    nearest boundary point.  p is assumed to lie on the polygon plane, and
    inward holds the polygon's inward edge normals (see polygon_frames).
    """
    v = np.asarray(vertices, float)
    d = np.einsum("ij,ij->i", p - v, inward)
    d_min = float(np.min(d))
    if d_min >= 0.0:
        return d_min
    # outside: distance to the nearest edge segment
    nxt = np.roll(v, -1, axis=0)
    seg = nxt - v
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    t = np.clip(np.einsum("ij,ij->i", p - v, seg) / seg_len2, 0.0, 1.0)
    closest = v + t[:, None] * seg
    dist = np.min(np.linalg.norm(closest - p, axis=1))
    return -float(dist)


def vertical_pol(s) -> tuple:
    """Vertical polarization unit vector for propagation direction s.

    The projection of z-hat perpendicular to s; falls back to x-hat for
    near-vertical rays.
    """
    z = s[2]
    v = (-z * s[0], -z * s[1], 1.0 - z * s[2])
    n = math.sqrt(dot3(v, v))
    if n < 1e-9:
        x = s[0]
        v = (1.0 - x * s[0], -x * s[1], -x * s[2])
        n = math.sqrt(dot3(v, v))
    return (v[0] / n, v[1] / n, v[2] / n)


def arrival_basis(s):
    """(v-hat, h-hat) ray-fixed polarization basis at the receiver."""
    v = vertical_pol(s)
    return v, cross3(v, s)


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


def wedge_frame(endpoints, o_vertices, o_normal, n_vertices,
                exterior_angle: float) -> WedgeFrame:
    """Edge-fixed frame for UTD angle measurement.

    The o-face tangent points from the edge into the first adjacent facet
    (vertices o_vertices, unit normal o_normal); the o-face normal is
    oriented so that the second facet (n_vertices) sits at the declared
    exterior angle (for a thin screen the two coincide and either
    orientation is valid).  The vectors are invariant under rigid
    translation.  Raises ValueError when no orientation matches the angle.
    """
    p0, p1 = endpoints
    e_hat = unit(p1 - p0)
    mid = 0.5 * (p0 + p1)

    def into_face(vertices):
        w = vertices.mean(axis=0) - mid
        w = w - np.dot(w, e_hat) * e_hat
        return unit(w)

    a_o, a_n = into_face(o_vertices), into_face(n_vertices)
    n_o = unit(o_normal - np.dot(o_normal, e_hat) * e_hat)
    if abs(float(np.dot(a_n, a_o)) - math.cos(exterior_angle)) < 1e-6:
        for n_o in (n_o, -n_o):
            if abs(float(np.dot(a_n, n_o)) - math.sin(exterior_angle)) < 1e-6:
                return WedgeFrame(e_hat, a_o, n_o, exterior_angle / math.pi)
    raise ValueError("declared exterior angle inconsistent with adjacent facets")
