"""Low-level geometric kernels: vectors, planes, convex polygons, segments.

All polygons are planar and convex with vertices ordered counterclockwise
around the outward normal.  Tolerances follow the scene conventions:
coplanarity 1e-6 m, direction normalization 1e-9.
"""

from __future__ import annotations

import math

import numpy as np

COPLANAR_TOL = 1e-6
UNIT_TOL = 1e-9


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
