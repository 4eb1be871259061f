"""Interaction coefficients: Fresnel reflection, slab transmission, wedge
diffraction (UTD).

Conventions
-----------
* Complex relative permittivity: eps = eps_r - j*sigma/(omega*eps0).
* Incidence angles are measured from the surface normal, in [0, pi/2).
* The perpendicular (soft) component is the E-field component along
  s_in x n; the parallel (hard) component lies in the plane of incidence.
  With these bases a PEC surface gives r_perp = -1, r_par = +1.
* The wedge coefficient follows the Kouyoumjian-Pathak four-term form with
  the transition function evaluated through the modified negative Fresnel
  integral.  Finitely conducting faces enter as Fresnel multipliers on the
  two reflection-boundary terms, evaluated symmetrically in the incident and
  diffracted grazing angles so the coefficient stays exactly reciprocal while
  still cancelling the geometrical-optics jump at both reflection boundaries.

Which routine serves which caller
---------------------------------
Every caller (the ray tracer, DRT, the UTD face multipliers and E-DRT's
batched field extrapolation) evaluates the same Fresnel and slab routines:
`fresnel_from_cos` and `transmission_from_cos` accept scalars or arrays.
An array is evaluated element by element with the scalar arithmetic, so a
batched coefficient equals the single interaction's coefficient exactly.
numpy's vector loops would not: they fuse complex products (multiply-add)
and round them differently, and a batch of one through them costs about
15 us per call against about 1 us.

The wedge coefficient has a scalar and a batched form, each used where it
is the faster one (timings on a 2-core Xeon with numpy 2.4):

* `utd_coefficient` serves one event, as the ray tracer and DRT evaluate one
  path at a time: about 30 us, against about 170 us for a batch of one;
* `utd_coefficient_batch` serves E-DRT, which re-evaluates about 90 wedge
  events per window in one call.  A loop of scalar calls there made the
  E-DRT field stage about 70% slower and lifted its ratio to the DRT field
  stage (acceptance gate: at most 0.5) to 0.33-0.49, over 0.5 in 2 of 17
  runs.

Both share the face multipliers (`fresnel_from_cos`) and the transition
function; the batch agrees with the scalar form to machine precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.special

EPS0 = 8.8541878128e-12

# Switch D3/D4 to their small-argument expansion when the observation angle is
# within this distance (radians) of a boundary; the raw cot*F product loses
# precision to cancellation there.
_SINGULAR_EPS = 1e-4


def complex_permittivity(material, frequency: float) -> complex:
    omega = 2.0 * math.pi * frequency
    return material.rel_permittivity - 1j * material.conductivity / (omega * EPS0)


def fresnel_coefficients(incidence_angle: float, material, frequency: float):
    """Fresnel reflection coefficients (r_perp, r_par) at a planar interface.

    incidence_angle is measured from the normal and must satisfy
    0 <= angle < pi/2.
    """
    if not 0.0 <= incidence_angle < math.pi / 2:
        raise ValueError("incidence angle must be in [0, pi/2)")
    return fresnel_from_cos(math.cos(incidence_angle),
                            complex_permittivity(material, frequency))


def _per_element(fn, *args):
    """fn applied to every element of the broadcast arguments as Python
    scalars; one array per output of fn, in the broadcast shape."""
    arrays = np.broadcast_arrays(*args)
    rows = [fn(*xs) for xs in zip(*(a.ravel().tolist() for a in arrays))]
    return tuple(np.array(col).reshape(arrays[0].shape) for col in zip(*rows))


def fresnel_from_cos(cos_theta, eps):
    """Fresnel pair from the incidence cosine and complex permittivity.

    Takes scalars, or broadcastable numpy arrays evaluated element by element.
    """
    if isinstance(cos_theta, np.ndarray) or isinstance(eps, np.ndarray):
        return _per_element(fresnel_from_cos, cos_theta, eps)
    sin2 = 1.0 - cos_theta * cos_theta
    root = cmath.sqrt(eps - sin2)
    r_perp = (cos_theta - root) / (cos_theta + root)
    r_par = (eps * cos_theta - root) / (eps * cos_theta + root)
    return r_perp, r_par


class Transmission(NamedTuple):
    """Through-slab transmission: interface products and crossing length."""

    t_perp: complex
    t_par: complex
    d_t: float  # geometric crossing length through the slab, m

    def loss_factor(self, alpha: float) -> float:
        return math.exp(-alpha * self.d_t)


def transmission_coefficient(incidence_angle: float, material, frequency: float,
                             thickness: float) -> Transmission:
    """Combined two-interface transmission through a homogeneous slab.

    Returns the product of the entry (air->medium) and exit (medium->air)
    Fresnel transmission factors per polarization, together with the slab
    crossing length d_T = thickness / cos(theta_refracted).  Bulk loss
    exp(-alpha*d_T) is applied by the caller.
    """
    if not 0.0 <= incidence_angle < math.pi / 2:
        raise ValueError("incidence angle must be in [0, pi/2)")
    return transmission_from_cos(math.cos(incidence_angle),
                                 complex_permittivity(material, frequency),
                                 thickness)


def transmission_from_cos(cos_i, eps, thickness) -> Transmission:
    """Slab transmission from the incidence cosine and complex permittivity.

    Takes scalars, or broadcastable numpy arrays evaluated element by
    element; the Transmission fields are then arrays.
    """
    if any(isinstance(x, np.ndarray) for x in (cos_i, eps, thickness)):
        return Transmission(*_per_element(transmission_from_cos, cos_i, eps, thickness))
    sin2 = 1.0 - cos_i * cos_i
    root = cmath.sqrt(eps - sin2)  # = sqrt(eps) * cos(theta_t)
    t_perp = 4.0 * cos_i * root / (cos_i + root) ** 2
    t_par = 4.0 * eps * cos_i * root / (eps * cos_i + root) ** 2
    # refraction angle from the real part of the refractive index
    n_real = max((eps ** 0.5).real, 1.0)
    sin_t = math.sqrt(sin2) / n_real
    cos_t = math.sqrt(1.0 - sin_t * sin_t)
    return Transmission(t_perp, t_par, thickness / cos_t)


# ---------------------------------------------------------------------------
# UTD wedge diffraction
# ---------------------------------------------------------------------------

def transition_function(x):
    """Kouyoumjian-Pathak transition function F(x) for x > 0.

    F(x) = 2j sqrt(x) e^{jx} * integral_{sqrt(x)}^{inf} e^{-j t^2} dt,
    evaluated through the modified negative Fresnel integral.  Accepts a
    scalar or an array.
    """
    sx = np.sqrt(x)
    fm = scipy.special.modfresnelm(sx)[0]
    return 2j * sx * np.exp(1j * np.asarray(x)) * fm


def _nearest_int(beta: float, n: float, sign: float) -> float:
    return round((beta + sign * math.pi) / (2.0 * math.pi * n))


def _a_coeff(beta: float, n: float, sign: float) -> float:
    return 2.0 * math.cos((2.0 * math.pi * n * _nearest_int(beta, n, sign) - beta) / 2.0) ** 2


def _four_terms(k: float, n: float, phi: float, phip: float, L: float):
    """The four cot * F(kLa) products of the wedge coefficient.

    Terms whose cotangent argument is near a boundary are replaced by their
    small-argument expansion; the remaining transition functions are
    evaluated in one batched call.
    """
    out = [None] * 4
    cots = []
    args = []
    slots = []
    for slot, (sign, beta) in enumerate(((1.0, phi - phip), (-1.0, phi - phip),
                                         (1.0, phi + phip), (-1.0, phi + phip))):
        eps = beta - sign * (2.0 * math.pi * n * _nearest_int(beta, n, sign) - math.pi)
        if abs(eps) < _SINGULAR_EPS:
            # cot ~ 2n/(sign*eps) and F ~ sqrt(pi*k*L*a) with a ~ eps^2/2,
            # so the product tends to sign * n * e^{j pi/4} * sqrt(2 pi k L)
            sgn = 1.0 if eps >= 0.0 else -1.0
            root = cmath.exp(1j * math.pi / 4)
            out[slot] = sign * n * root * (math.sqrt(2.0 * math.pi * k * L) * sgn
                                           - 2.0 * k * L * eps * root)
        else:
            arg = (math.pi + sign * beta) / (2.0 * n)
            cots.append(math.cos(arg) / math.sin(arg))
            args.append(k * L * _a_coeff(beta, n, sign))
            slots.append(slot)
    if slots:
        f_vals = transition_function(np.asarray(args))
        for cot, f, slot in zip(cots, f_vals, slots):
            out[slot] = cot * complex(f)
    return out


@dataclass(frozen=True)
class WedgeGeometry:
    """Edge-local angles for one diffraction event.

    phi_inc / phi_dif are measured from the o-face around the exterior of the
    wedge, in (0, n*pi); beta0 is the cone half-angle between the rays and
    the edge tangent; d_inc / d_dif are the distances from source image and
    observer to the diffraction point.
    """

    n: float  # exterior angle / pi, in (1, 2]
    beta0: float
    phi_inc: float
    phi_dif: float
    d_inc: float
    d_dif: float

    @property
    def distance_parameter(self) -> float:
        return (self.d_inc * self.d_dif / (self.d_inc + self.d_dif)
                * math.sin(self.beta0) ** 2)


def utd_coefficient(geom: WedgeGeometry, material, frequency: float,
                    eps: complex | None = None):
    """Soft/hard wedge diffraction coefficients (D_soft, D_hard).

    The pair is the diagonal of the dyadic applied to the edge-fixed field
    components: the soft entry multiplies the component along the incidence
    beta-vector, the hard entry the component along the phi-vector.  Exactly
    reciprocal under exchange of the incident and diffracted rays.
    """
    k = 2.0 * math.pi * frequency / 299792458.0
    n, phi, phip, L = geom.n, geom.phi_dif, geom.phi_inc, geom.distance_parameter
    if not (1.0 < n <= 2.0 + 1e-12):
        raise ValueError("exterior wedge angle must be in (pi, 2*pi]")
    # d3 is singular at the n-face reflection boundary, d4 at the o-face one
    d1, d2, d3, d4 = _four_terms(k, n, phi, phip, L)
    if eps is None:
        eps = complex_permittivity(material, frequency)
    r_o = _face_reflection(phip, phi, eps)
    r_n = _face_reflection(n * math.pi - phip, n * math.pi - phi, eps)
    pref = (-cmath.exp(-1j * math.pi / 4)
            / (2.0 * n * math.sqrt(2.0 * math.pi * k) * math.sin(geom.beta0)))
    d_soft = pref * (d1 + d2 + r_n[0] * d3 + r_o[0] * d4)
    d_hard = pref * (d1 + d2 + r_n[1] * d3 + r_o[1] * d4)
    return d_soft, d_hard


def utd_coefficient_batch(geoms: list[WedgeGeometry], eps_list, frequency: float):
    """utd_coefficient evaluated for many wedge events in one pass.

    Returns complex arrays (d_soft, d_hard) aligned with geoms; agrees with
    the scalar routine to machine precision.
    """
    k = 2.0 * math.pi * frequency / 299792458.0
    n = np.array([g.n for g in geoms])
    phi = np.array([g.phi_dif for g in geoms])
    phip = np.array([g.phi_inc for g in geoms])
    L = np.array([g.distance_parameter for g in geoms])
    beta0 = np.array([g.beta0 for g in geoms])
    eps = np.asarray(eps_list, complex)

    # all four cot*F terms at once: rows are (d1, d2, d3, d4)
    sign = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
    beta = np.stack([phi - phip, phi - phip, phi + phip, phi + phip])
    big_n = np.round((beta + sign * math.pi) / (2.0 * math.pi * n))
    eps_s = beta - sign * (2.0 * math.pi * n * big_n - math.pi)
    singular = np.abs(eps_s) < _SINGULAR_EPS
    arg = (math.pi + sign * beta) / (2.0 * n)
    arg = np.where(singular, 0.5, arg)  # placeholder, overwritten below
    kl = k * L
    a = 2.0 * np.cos((2.0 * math.pi * n * big_n - beta) / 2.0) ** 2
    regular = (np.cos(arg) / np.sin(arg)) * transition_function(kl * a + 1e-300)
    root = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    sgn = np.where(eps_s >= 0.0, 1.0, -1.0)
    expansion = sign * n * root * (np.sqrt(2.0 * math.pi * kl) * sgn
                                   - 2.0 * kl * eps_s * root)
    terms = np.where(singular, expansion, regular)

    # face multipliers, symmetrized as in _face_reflection
    graze = np.stack([phip, phi, n * math.pi - phip, n * math.pi - phi])
    r_perp, r_par = fresnel_from_cos(np.abs(np.sin(graze)), eps[None, :])
    r_o_perp = 0.5 * (r_perp[0] + r_perp[1])
    r_o_par = 0.5 * (r_par[0] + r_par[1])
    r_n_perp = 0.5 * (r_perp[2] + r_perp[3])
    r_n_par = 0.5 * (r_par[2] + r_par[3])

    pref = (-root.conjugate()
            / (2.0 * n * np.sqrt(2.0 * math.pi * k) * np.sin(beta0)))
    d_soft = pref * (terms[0] + terms[1] + r_n_perp * terms[2] + r_o_perp * terms[3])
    d_hard = pref * (terms[0] + terms[1] + r_n_par * terms[2] + r_o_par * terms[3])
    return d_soft, d_hard


def _face_reflection(graze_a: float, graze_b: float, eps: complex):
    """Face Fresnel multipliers, symmetrized over the two ray grazing angles.

    At a reflection boundary the two grazing angles coincide, so the average
    equals the exact specular coefficient there and the GO field jump is
    cancelled; away from the boundaries the average keeps the coefficient
    reciprocal.
    """
    ra = fresnel_from_cos(abs(math.sin(graze_a)), eps)
    rb = fresnel_from_cos(abs(math.sin(graze_b)), eps)
    return 0.5 * (ra[0] + rb[0]), 0.5 * (ra[1] + rb[1])
