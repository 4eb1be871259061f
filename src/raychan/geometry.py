"""Low-level geometric kernels: vectors, planes, convex polygons, segments.

All polygons are planar and convex with vertices ordered counterclockwise
around the outward normal.  Tolerances follow the scene conventions:
coplanarity 1e-6 m, direction normalization 1e-9.
"""

from __future__ import annotations

import numpy as np

COPLANAR_TOL = 1e-6
UNIT_TOL = 1e-9

ZHAT = np.array([0.0, 0.0, 1.0])
XHAT = np.array([1.0, 0.0, 0.0])


def norm(v) -> float:
    return float(np.sqrt(np.dot(v, v)))


def unit(v) -> np.ndarray:
    n = norm(v)
    if n < UNIT_TOL:
        raise ValueError("cannot normalize a near-zero vector")
    return np.asarray(v, float) / n


def cross3(a, b) -> np.ndarray:
    """np.cross for single 3-vectors without its dispatch overhead."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def polygon_normal(vertices: np.ndarray) -> np.ndarray:
    """Outward unit normal of a CCW-ordered planar polygon (Newell's method)."""
    v = np.asarray(vertices, float)
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


def mirror_point(p: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """Reflect p across the plane {x: normal.x = offset} (normal unit-length)."""
    return p - 2.0 * (np.dot(p, normal) - offset) * normal


def line_plane_intersection(a, b, normal, offset):
    """Intersection of the infinite line through a, b with a plane.

    Returns (point, t) with point = a + t*(b-a), or (None, None) when the
    line is parallel to the plane.
    """
    d = np.asarray(b, float) - np.asarray(a, float)
    denom = float(np.dot(normal, d))
    if abs(denom) < 1e-14:
        return None, None
    t = (offset - float(np.dot(normal, a))) / denom
    return np.asarray(a, float) + t * d, t


def polygon_edge_frames(vertices: np.ndarray, normal: np.ndarray):
    """Per-edge origin and inward (in-plane) unit normal of a convex polygon."""
    v = np.asarray(vertices, float)
    edges = np.roll(v, -1, axis=0) - v
    inward = np.cross(normal, edges)
    inward /= np.linalg.norm(inward, axis=1)[:, None]
    return v, inward


def signed_boundary_distance(p, vertices, normal, inward=None,
                             exact_outside: bool = True) -> float:
    """Signed in-plane distance from p to the polygon boundary.

    Positive inside, negative outside; magnitude is the distance to the
    nearest boundary point.  p is assumed to lie on the polygon plane.
    Precomputed per-edge inward normals may be passed to skip the frame
    construction (they are invariant under rigid translation).  With
    exact_outside=False the outside value keeps its sign but is only the
    most-violated edge-line distance, skipping the nearest-segment search;
    use it where only the sign matters.
    """
    v = np.asarray(vertices, float)
    if inward is None:
        _origins, inward = polygon_edge_frames(v, normal)
    d = np.einsum("ij,ij->i", p - v, inward)
    d_min = float(np.min(d))
    if d_min >= 0.0 or not exact_outside:
        return d_min
    # outside: distance to the nearest edge segment
    nxt = np.roll(v, -1, axis=0)
    seg = nxt - v
    seg_len2 = np.einsum("ij,ij->i", seg, seg)
    t = np.clip(np.einsum("ij,ij->i", p - v, seg) / seg_len2, 0.0, 1.0)
    closest = v + t[:, None] * seg
    dist = np.min(np.linalg.norm(closest - p, axis=1))
    return -float(dist)


def fermat_point_on_line(tx, rx, a, b):
    """Unclamped minimizer of |tx-p| + |p-rx| for p on the line through a, b.

    Returns (point, u) with point = a + u*(b-a).  The minimizer satisfies the
    equal-cone (Keller) condition.  Returns (None, None) when both endpoints
    project onto the line axis with zero radial distance (degenerate).
    """
    a = np.asarray(a, float)
    d = np.asarray(b, float) - a
    length = norm(d)
    e = d / length
    s1 = float(np.dot(tx - a, e))
    s2 = float(np.dot(rx - a, e))
    r1 = norm(tx - a - s1 * e)
    r2 = norm(rx - a - s2 * e)
    if r1 + r2 < 1e-12:
        return None, None
    s = s1 + (s2 - s1) * r1 / (r1 + r2)
    u = s / length
    return a + u * d, u


def vertical_pol(s: np.ndarray) -> np.ndarray:
    """Vertical polarization unit vector for propagation direction s.

    The projection of z-hat perpendicular to s; falls back to x-hat for
    near-vertical rays.
    """
    v = ZHAT - np.dot(ZHAT, s) * s
    n = norm(v)
    if n < 1e-9:
        v = XHAT - np.dot(XHAT, s) * s
        n = norm(v)
    return v / n


def arrival_basis(s: np.ndarray):
    """(v-hat, h-hat) ray-fixed polarization basis at the receiver."""
    v = vertical_pol(s)
    h = cross3(v, s)
    return v, h
