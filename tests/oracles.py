"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written from first principles (textbook
formulas, brute-force enumeration, quadrature) without importing the package
internals, so tests compare two separate routes to the same quantity.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
from scipy.integrate import quad

EPS0 = 8.8541878128e-12
C = 299792458.0


def complex_eps(eps_r: float, sigma: float, freq: float) -> complex:
    return eps_r - 1j * sigma / (2.0 * math.pi * freq * EPS0)


def fresnel_textbook(eps_r: float, sigma: float, freq: float, theta: float):
    """Fresnel reflection coefficients from the refractive-index form.

    r_s = (cos t - n cos t2) / (cos t + n cos t2),
    r_p = (n cos t - cos t2) / (n cos t + cos t2),
    with n = sqrt(eps) and Snell's law n sin t2 = sin t.
    """
    n = cmath.sqrt(complex_eps(eps_r, sigma, freq))
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    cos_t2 = cmath.sqrt(1.0 - (sin_t / n) ** 2)
    r_s = (cos_t - n * cos_t2) / (cos_t + n * cos_t2)
    r_p = (n * cos_t - cos_t2) / (n * cos_t + cos_t2)
    return r_s, r_p


def transmission_textbook(eps_r: float, sigma: float, freq: float, theta: float,
                          thickness: float):
    """Two-interface slab transmission products and crossing length."""
    eps = complex_eps(eps_r, sigma, freq)
    n = cmath.sqrt(eps)
    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    cos_t2 = cmath.sqrt(1.0 - (sin_t / n) ** 2)
    t12_s = 2.0 * cos_t / (cos_t + n * cos_t2)
    t21_s = 2.0 * n * cos_t2 / (n * cos_t2 + cos_t)
    t12_p = 2.0 * cos_t / (n * cos_t + cos_t2)
    t21_p = 2.0 * n * cos_t2 / (cos_t2 + n * cos_t)
    # refraction angle from the real refractive index
    sin_t2 = sin_t / max(n.real, 1.0)
    d_t = thickness / math.sqrt(1.0 - sin_t2 * sin_t2)
    return t12_s * t21_s, t12_p * t21_p, d_t


def transition_quadrature(x: float) -> complex:
    """F(x) via the exact half-line Fresnel integral minus finite quadrature."""
    sx = math.sqrt(x)
    re = quad(lambda t: math.cos(t * t), 0.0, sx, limit=600)[0]
    im = quad(lambda t: math.sin(t * t), 0.0, sx, limit=600)[0]
    half = math.sqrt(math.pi) / 2.0 * cmath.exp(-1j * math.pi / 4.0)
    integral = half - (re - 1j * im)
    return 2j * sx * cmath.exp(1j * x) * integral


def utd_wedge_quadrature(k: float, n: float, beta0: float, phi: float,
                         phip: float, L: float, r_o=(-1.0, 1.0), r_n=(-1.0, 1.0)):
    """Four-term wedge coefficient built on the quadrature transition
    function; faces enter as fixed (perp, par) reflection multipliers."""

    def nearest(beta, sign):
        return round((beta + sign * math.pi) / (2.0 * math.pi * n))

    def a_coeff(beta, sign):
        return 2.0 * math.cos((2.0 * math.pi * n * nearest(beta, sign) - beta) / 2.0) ** 2

    def term(beta, sign):
        arg = (math.pi + sign * beta) / (2.0 * n)
        return (math.cos(arg) / math.sin(arg)) \
            * transition_quadrature(k * L * a_coeff(beta, sign))

    d1 = term(phi - phip, +1.0)
    d2 = term(phi - phip, -1.0)
    d3 = term(phi + phip, +1.0)
    d4 = term(phi + phip, -1.0)
    pref = -cmath.exp(-1j * math.pi / 4.0) / (
        2.0 * n * math.sqrt(2.0 * math.pi * k) * math.sin(beta0))
    return (pref * (d1 + d2 + r_n[0] * d3 + r_o[0] * d4),
            pref * (d1 + d2 + r_n[1] * d3 + r_o[1] * d4))


def field_reflection_formula(e0: float, k: float, d_l: float, d_p: float,
                             r_coeff: complex) -> complex:
    """Single-reflection received field: spherical spreading, coefficient,
    image-method distance split."""
    return (e0 * cmath.exp(-1j * k * d_l) / d_l * r_coeff
            * (d_l / (d_l + d_p)) * cmath.exp(-1j * k * d_p))


def field_diffraction_formula(e0: float, k: float, d_l: float, d_p: float,
                              d_coeff: complex) -> complex:
    """Single-diffraction received field with the caustic spreading factor."""
    return (e0 * cmath.exp(-1j * k * d_l) / d_l * d_coeff
            * math.sqrt(d_l / ((d_l + d_p) * d_p)) * cmath.exp(-1j * k * d_p))


def fermat_brute(tx, rx, a, b, n: int = 200001):
    """Brute-force minimizer of |tx-p| + |p-rx| over an edge segment."""
    u = np.linspace(0.0, 1.0, n)
    p = np.asarray(a) + u[:, None] * (np.asarray(b) - np.asarray(a))
    f = (np.linalg.norm(p - np.asarray(tx), axis=1)
         + np.linalg.norm(p - np.asarray(rx), axis=1))
    i = int(np.argmin(f))
    return p[i], float(u[i])


def segment_hits_polygon(a, b, vertices) -> bool:
    """Independent segment-vs-convex-polygon test via fan triangulation and
    Moller-Trumbore ray-triangle intersection."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    verts = np.asarray(vertices, float)
    d = b - a
    for i in range(1, len(verts) - 1):
        v0, v1, v2 = verts[0], verts[i], verts[i + 1]
        e1, e2 = v1 - v0, v2 - v0
        pvec = np.cross(d, e2)
        det = float(np.dot(e1, pvec))
        if abs(det) < 1e-14:
            continue
        inv = 1.0 / det
        tvec = a - v0
        u = float(np.dot(tvec, pvec)) * inv
        if u < -1e-12 or u > 1.0 + 1e-12:
            continue
        qvec = np.cross(tvec, e1)
        v = float(np.dot(d, qvec)) * inv
        if v < -1e-12 or u + v > 1.0 + 1e-12:
            continue
        t = float(np.dot(e2, qvec)) * inv
        if 1e-9 < t < 1.0 - 1e-9:
            return True
    return False


def los_blocked_by_launching(tx, rx, facet_vertex_lists, n_rays: int = 720) -> bool:
    """Exhaustive-launching check that the direct ray is blocked.

    Launches a dense fan of rays around the Tx->Rx direction; the ray that
    points exactly at the receiver is blocked iff the straight segment hits
    any opaque polygon.  Kept deliberately simple: it answers only the
    line-of-sight question the test needs.
    """
    hit = any(segment_hits_polygon(tx, rx, verts) for verts in facet_vertex_lists)
    # sanity of the fan: at least one launched ray direction matches Tx->Rx
    d = np.asarray(rx, float) - np.asarray(tx, float)
    d = d / np.linalg.norm(d)
    best = -1.0
    for i in range(n_rays):
        ang = 2.0 * math.pi * i / n_rays
        cand = np.array([math.cos(ang), math.sin(ang), d[2]])
        cand /= np.linalg.norm(cand)
        best = max(best, float(np.dot(cand, d)))
    assert best > 0.99
    return hit


def received_power_dbm(tx_power_dbm: float, distance: float, freq: float) -> float:
    """Free-space link budget via the classic aperture form."""
    lam = C / freq
    return tx_power_dbm - 20.0 * math.log10(4.0 * math.pi * distance / lam)


def _state_at(segment: dict, t: float):
    """Position and velocity of one motion segment of a scene document at
    time t, from the constant-acceleration law."""
    dt = t - segment.get("t_ref", 0.0)
    r0, v0, a0 = (segment.get(k, [0.0, 0.0, 0.0]) for k in ("r0", "v0", "a0"))
    return ([r + v * dt + 0.5 * a * dt * dt for r, v, a in zip(r0, v0, a0)],
            [v + a * dt for v, a in zip(v0, a0)])


def reversed_motion(segments: list, horizon: float) -> list:
    """The motion segments of a scene document played backwards about
    horizon: the returned motion is at time t where the given one is at
    horizon - t.

    Segment i, active from its t_ref to the next one's, runs backwards from
    horizon - t_ref(i + 1) on: it is re-anchored there, at its state at
    t_ref(i + 1), with its velocity negated and its acceleration kept.  The
    last segment, open to the future, becomes the first.
    """
    starts = [s.get("t_ref", 0.0) for s in segments]
    out = []
    for i in reversed(range(len(segments))):
        anchor = starts[i + 1] if i + 1 < len(segments) else starts[i] + (len(segments) > 1)
        r, v = _state_at(segments[i], anchor)
        out.append({"t_ref": horizon - anchor, "r0": r, "v0": [-x for x in v],
                    "a0": list(segments[i].get("a0", [0.0, 0.0, 0.0]))})
    return out


def _position_in(segments: list, t: float) -> list:
    starts = [s.get("t_ref", 0.0) for s in segments]
    active = max([i for i, s in enumerate(starts) if s <= t], default=0)
    return _state_at(segments[active], t)[0]


def time_reversed_scene(doc: dict, horizon: float) -> dict:
    """A scene document (the JSON of save_scene) played backwards about
    horizon: at time t it is the given scene at horizon - t.

    Facets and edges are put at their positions at horizon, and every
    motion, of the transceivers and of the facets, is reversed
    (reversed_motion).  An edge moves with its first adjacent facet.
    """
    out = json.loads(json.dumps(doc))
    shift = {}
    for f in out["facets"]:
        segments = f.get("motion_segments") or [{}]
        moved = [b - a for a, b in zip(_position_in(segments, 0.0),
                                       _position_in(segments, horizon))]
        shift[f["id"]] = moved
        f["vertices"] = [[x + m for x, m in zip(v, moved)] for v in f["vertices"]]
        f["motion_segments"] = reversed_motion(segments, horizon)
    for e in out.get("edges", []):
        moved = shift[e["adjacent_facets"][0]]
        e["endpoints"] = [[x + m for x, m in zip(p, moved)] for p in e["endpoints"]]
    for end in ("tx", "rx"):
        out[end]["motion_segments"] = reversed_motion(out[end]["motion_segments"], horizon)
    return out
