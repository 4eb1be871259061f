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


def polygon_normal(vertices: np.ndarray) -> np.ndarray:
    """Outward unit normal of a CCW-ordered planar polygon (Newell's method
    on the vertices relative to the first: on absolute coordinates the cross
    products of a thin facet away from the origin cancel and tilt it)."""
    v = np.asarray(vertices, float)
    v = v - v[0]
    nxt = np.roll(v, -1, axis=0)
    n = np.sum(np.cross(v, nxt), axis=0)
    return unit(n)


def check_planar_convex(vertices: np.ndarray, tol: float = COPLANAR_TOL) -> np.ndarray:
    """Validate planarity and convexity; returns the outward unit normal."""
    v = np.asarray(vertices, float)
    if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 3:
        raise ValueError("polygon needs >= 3 vertices of dimension 3")
    n = polygon_normal(v)
    d = v @ n
    if np.max(d) - np.min(d) > tol:
        raise ValueError("polygon vertices are not coplanar within tolerance")
    edges = np.roll(v, -1, axis=0) - v
    turns = np.cross(edges, np.roll(edges, -1, axis=0)) @ n
    scale = np.max(np.linalg.norm(edges, axis=1)) ** 2
    if np.any(turns < -tol * scale):
        raise ValueError("polygon is not convex / not CCW around its normal")
    return n


def polygon_edge_frames(vertices: np.ndarray, normal: np.ndarray):
    """Per-edge origin and inward (in-plane) unit normal of a convex polygon."""
    v = np.asarray(vertices, float)
    edges = np.roll(v, -1, axis=0) - v
    inward = np.cross(normal, edges)
    inward /= np.linalg.norm(inward, axis=1)[:, None]
    return v, inward


def signed_boundary_distance(p, vertices, normal, inward=None) -> float:
    """Signed in-plane distance from p to the polygon boundary.

    Positive inside, negative outside; magnitude is the distance to the
    nearest boundary point.  p is assumed to lie on the polygon plane.
    Precomputed per-edge inward normals may be passed to skip the frame
    construction (they are invariant under rigid translation).
    """
    v = np.asarray(vertices, float)
    if inward is None:
        _origins, inward = polygon_edge_frames(v, normal)
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
