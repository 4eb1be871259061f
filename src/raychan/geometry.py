"""Low-level geometric kernels: vectors, planes, convex polygons, segments.

All polygons are planar and convex with vertices ordered counterclockwise
around the outward normal.  Tolerances follow the scene conventions:
coplanarity 1e-6 m, direction normalization 1e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

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


# The function sets of the formulas that run on Python floats or on numpy
# arrays (functions_for picks one): the field chain walks one path at a time
# on floats, where numpy's per-call overhead would dominate, and E-DRT runs
# the same formulas once over arrays.  Each float operation rounds as the
# matching array element does, except where math and numpy differ (atan2,
# acos, and complex multiplication, which numpy does with FMA).
FLOATS = SimpleNamespace(sqrt=math.sqrt, sin=math.sin, cos=math.cos, acos=math.acos,
                         atan2=math.atan2, round=round, minimum=min, all=bool, any=bool,
                         clip=lambda x, lo, hi: min(max(x, lo), hi),
                         where=lambda mask, a, b: a if mask else b)
ARRAYS = SimpleNamespace(sqrt=np.sqrt, sin=np.sin, cos=np.cos, acos=np.arccos,
                         atan2=np.arctan2, round=np.round, minimum=np.minimum, all=np.all,
                         any=np.any, clip=np.clip, where=np.where)


def functions_for(x) -> SimpleNamespace:
    """ARRAYS for a numpy array x, else FLOATS."""
    return ARRAYS if isinstance(x, np.ndarray) else FLOATS


# 3-vectors component-first: tuples of Python floats or complex numbers for
# one vector; sub3, dot3 and cross3 also take tuples of arrays, or (3, N)
# arrays, for N vectors.

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


@dataclass
class WedgeFrame:
    e_hat: np.ndarray
    a_o: np.ndarray   # in-plane direction from the edge into the o-face
    n_o: np.ndarray   # o-face normal oriented so angles sweep the exterior
    n_index: float    # exterior angle / pi

    def __post_init__(self):
        # plain-float copies for the chain walk's wedge_angles
        object.__setattr__(self, "ef", tuple(map(float, self.e_hat)))
        object.__setattr__(self, "af", tuple(map(float, self.a_o)))
        object.__setattr__(self, "nf", tuple(map(float, self.n_o)))


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


def wedge_angles(e, a, n, n_index, d_in, length_in, d_out):
    """Edge-local angles of diffractions: (beta0, phi_inc, phi_dif,
    along_edge).

    e, a and n are the vectors of each edge's WedgeFrame (e_hat, a_o, n_o)
    and n_index its exterior angle / pi; d_in is the ray into the
    diffraction point, of length length_in, and d_out the ray out of it.
    The vectors are component-first: 3-tuples of floats for one event, or
    (3, N) arrays for N events.  beta0 is the cone half-angle between d_in
    and the edge; phi_inc and phi_dif are the angles of the source and the
    observer, measured from the o-face around the exterior of the wedge,
    in [0, n_index*pi].  along_edge is set where a ray runs along the edge,
    whose angle is then undefined.
    """
    m = functions_for(length_in)
    beta0 = m.acos(m.clip(dot3(d_in, e) / length_in, -1.0, 1.0))
    phi_inc, edge_in = _exterior_angle((-d_in[0], -d_in[1], -d_in[2]), e, a, n, n_index, m)
    phi_dif, edge_out = _exterior_angle(d_out, e, a, n, n_index, m)
    return beta0, phi_inc, phi_dif, edge_in | edge_out


def _exterior_angle(ray, e, a, n, n_index, m):
    """Exterior angle of a (not necessarily unit) edge-pointing ray, and
    whether the ray runs along the edge (wedge_angles)."""
    axial = dot3(ray, e)
    p = (ray[0] - axial * e[0], ray[1] - axial * e[1], ray[2] - axial * e[2])
    along, out = dot3(p, a), dot3(p, n)
    phi = m.atan2(out, along)
    return (m.minimum(m.where(phi < 0.0, phi + 2.0 * math.pi, phi), n_index * math.pi),
            along * along + out * out < 1e-18)
