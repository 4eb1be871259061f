"""Interaction coefficients: Fresnel reflection, slab transmission, wedge
diffraction (UTD).

Conventions
-----------
* Complex relative permittivity: eps = eps_r - j*sigma/(omega*eps0), from
  `scene.complex_permittivity` (it lives beside `Material`, so that loading
  a scene does not import this module; it is re-exported here).
* Incidence angles are measured from the surface normal, in [0, pi/2).
* The perpendicular (soft) component is the E-field component along
  s_in x n; the parallel (hard) component lies in the plane of incidence.
  With these bases a PEC surface gives r_perp = -1, r_par = +1.
* The wedge coefficient follows the Kouyoumjian-Pathak four-term form.
  Finitely conducting faces enter as Fresnel multipliers on the two
  reflection-boundary terms, evaluated symmetrically in the incident and
  diffracted grazing angles so the coefficient stays exactly reciprocal while
  still cancelling the geometrical-optics jump at both reflection boundaries.

The transition function
-----------------------
The Kouyoumjian-Pathak transition function F(x) is computed in pure Python
(`math`/`cmath`) from the Faddeeva function w:
F(x) = sqrt(pi x) e^{j pi/4} w(sqrt(x) e^{j 3pi/4}).  Below x = 40, w comes
from Weideman's 40-term rational approximation (SIAM J. Numer. Anal. 31(5),
1994), whose coefficients are computed once at import with an FFT as in that
paper; from x = 40 on, the asymptotic series of F is summed instead.
Against 40-digit mpmath at 400 log-spaced points of x in [1e-8, 1e5] the
largest relative error is 8.7e-16.  scipy's modified Fresnel integral served
here before; importing `scipy.special` for this one function took about
0.34 s and 24 MB of the program's start-up.

Which routine serves which caller
---------------------------------
Each coefficient has one implementation.  The field chain calls it one
path at a time on Python floats; E-DRT's extrapolation and DRT's UTD pairs
(rt.diffraction_coefficients) call it with arrays, for all rows at once.
`fresnel_from_cos`, `transition_function` and `transmission_from_cos` give
each array element the scalar result bit for bit: `fresnel_from_cos` runs
its formula on arrays with numpy's complex sqrt (equal to cmath's) and
`_quotient` (CPython's complex division), `transition_function` adds the
same groups of series terms (`_series_group`) to a float or to an array,
and `transmission_from_cos` writes its complex products out in real
operations as CPython forms them.  On 300 arguments the array Fresnel pair
and F take about 0.11 and 0.13 ms against 0.24 and 0.34 ms element by
element (2-core Xeon, numpy 2.4).  `utd_coefficient` picks its function set
(math's or numpy's, `geometry.functions_for`) once from the argument type;
after that it branches only to choose, term by term, between the cot * F
product and its small-argument expansion near a boundary.  On arrays it
evaluates its four cot * F products, and its four face multipliers, each
in one call on the events stacked four times, so that a row's result does
not depend on the batch it is in.  Its array elements agree with the
scalar results to about 3e-14 relative, not bit for bit: numpy's complex
multiplication uses FMA.  An array call costs about 0.27 ms even for one
row (1.9 ms for 582), against about 15 us on floats, so an RT pass stays on
floats.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import NamedTuple

import numpy as np

from .geometry import FLOATS, functions_for
from .scene import complex_permittivity

# Switch D3/D4 to their small-argument expansion when the observation angle is
# within this distance (radians) of a boundary; the raw cot*F product loses
# precision to cancellation there.
_SINGULAR_EPS = 1e-4


def fresnel_coefficients(incidence_angle: float, material, frequency: float):
    """Fresnel reflection coefficients (r_perp, r_par) at a planar interface.

    incidence_angle is measured from the normal and must satisfy
    0 <= angle < pi/2.
    """
    if not 0.0 <= incidence_angle < math.pi / 2:
        raise ValueError("incidence angle must be in [0, pi/2)")
    return fresnel_from_cos(math.cos(incidence_angle),
                            complex_permittivity(material, frequency))


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b over complex arrays by CPython's complex division (Smith's
    scaling in real operations), which numpy's reciprocal scaling is not."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        out = np.empty(denom.shape, complex)
        out.real = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
        out.imag = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return out


def fresnel_from_cos(cos_theta, eps):
    """Fresnel pair from the incidence cosine and complex permittivity.

    Takes scalars or broadcastable numpy arrays, through the same
    arithmetic: on arrays the square root is numpy's, which equals
    cmath.sqrt, and the division is _quotient, so each element equals the
    scalar result.
    """
    sqrt, divide = cmath.sqrt, operator.truediv
    if isinstance(cos_theta, np.ndarray) or isinstance(eps, np.ndarray):
        cos_theta, eps = np.broadcast_arrays(np.asarray(cos_theta, float),
                                             np.asarray(eps, complex))
        sqrt, divide = np.sqrt, _quotient
    sin2 = 1.0 - cos_theta * cos_theta
    root = sqrt(eps - sin2)
    eps_cos = eps * cos_theta
    return (divide(cos_theta - root, cos_theta + root),
            divide(eps_cos - root, eps_cos + root))


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

    Takes scalars, or broadcastable numpy arrays through the same
    arithmetic (_transmission_arrays); the Transmission fields are then
    arrays.
    """
    if (isinstance(cos_i, np.ndarray) or isinstance(eps, np.ndarray)
            or isinstance(thickness, np.ndarray)):
        return _transmission_arrays(*np.broadcast_arrays(
            np.asarray(cos_i, float), np.asarray(eps, complex), np.asarray(thickness, float)))
    sin2 = 1.0 - cos_i * cos_i
    root = cmath.sqrt(eps - sin2)  # = sqrt(eps) * cos(theta_t)
    t_perp = 4.0 * cos_i * root / (cos_i + root) ** 2
    t_par = 4.0 * eps * cos_i * root / (eps * cos_i + root) ** 2
    # refraction angle from the real part of the refractive index
    n_real = max((eps ** 0.5).real, 1.0)
    sin_t = math.sqrt(sin2) / n_real
    cos_t = math.sqrt(1.0 - sin_t * sin_t)
    return Transmission(t_perp, t_par, thickness / cos_t)


def _transmission_arrays(cos_i, eps, thickness) -> Transmission:
    """transmission_from_cos on arrays, each element equal to the scalar
    result: the complex products and squares are written out in real
    operations as CPython forms them (numpy's complex multiply uses FMA),
    the quotients are _quotient, and the real refractive index, which
    CPython takes by its complex power, is computed so once per distinct
    permittivity."""
    sin2 = 1.0 - cos_i * cos_i
    root = np.sqrt(eps - sin2)
    rr, ri = root.real, root.imag
    er, ei = eps.real, eps.imag
    four_cos = 4.0 * cos_i
    t_perp = _quotient(_complex(four_cos * rr, four_cos * ri), _square(cos_i + rr, ri))
    ar, ai = 4.0 * er * cos_i, 4.0 * ei * cos_i
    t_par = _quotient(_complex(ar * rr - ai * ri, ar * ri + ai * rr),
                      _square(er * cos_i + rr, ei * cos_i + ri))
    distinct, where = np.unique(eps, return_inverse=True)
    n_real = np.array([max((e ** 0.5).real, 1.0) for e in distinct.tolist()],
                      float)[where.reshape(eps.shape)]
    sin_t = np.sqrt(sin2) / n_real
    cos_t = np.sqrt(1.0 - sin_t * sin_t)
    return Transmission(t_perp, t_par, thickness / cos_t)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return out


def _square(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(re + j im) ** 2 as CPython's complex power forms it: z * z."""
    return _complex(re * re - im * im, re * im + im * re)


# ---------------------------------------------------------------------------
# UTD wedge diffraction
# ---------------------------------------------------------------------------

# Weideman's rational approximation of the Faddeeva function with N terms,
# w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)), Z = (L + iz)/(L - iz),
# valid in the upper half plane, where F evaluates it.
_WEIDEMAN_N = 40
_WEIDEMAN_L = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))
# F switches to its asymptotic series here.  The series diverges, but from
# x = 40 on its smallest term (6e-18 at x = 40) is below the stopping
# tolerance, so the sum stops before the terms grow again, with an error
# under the first omitted term.
_SERIES_FROM = 40.0
_SERIES_TOL = 1e-17
_SQRT_PI = math.sqrt(math.pi)
_E_J_PI_4 = cmath.exp(0.25j * math.pi)
_IZ_PER_ROOT_X = 1j * cmath.exp(0.75j * math.pi)  # iz / sqrt(x)
_MINUS_E_MJ_PI_4 = -cmath.exp(-1j * math.pi / 4)


def _weideman_coefficients() -> list[float]:
    """Polynomial coefficients of p, highest degree first (Weideman 1994)."""
    n, L = _WEIDEMAN_N, _WEIDEMAN_L
    m = 2 * n
    t = L * np.tan(np.arange(-m + 1, m) * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (L * L + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return a[n:0:-1].tolist()


_WEIDEMAN_A = _weideman_coefficients()


def transition_function(x):
    """Kouyoumjian-Pathak transition function F(x) for x >= 0.

    F(x) = 2j sqrt(x) e^{jx} * integral_{sqrt(x)}^{inf} e^{-j t^2} dt
         = sqrt(pi x) e^{j pi/4} w(sqrt(x) e^{j 3pi/4}),
    with w the Faddeeva function.  The second form needs no e^{jx}: that
    phase cancels exactly, instead of being taken of a rounded sqrt(x)**2.
    Below x = 40 w comes from Weideman's rational approximation; from 40 on
    F is the sum of its asymptotic series sum_n (2n-1)!! (j/2x)^n until a
    term falls below 1e-17.  The relative error is at most 8.7e-16 over
    [1e-8, 1e5] (40-digit mpmath reference).  F(0) = 0.

    Takes a scalar or a numpy array.  The series adds the same groups of
    four terms (_series_group) to a scalar or to the elements of an array
    that have not yet converged, so an array element equals the scalar
    result; below x = 40 an array is evaluated element by element.
    """
    if isinstance(x, np.ndarray):
        out = np.empty(x.shape, complex)
        flat, x = out.reshape(-1), x.ravel()
        series = x >= _SERIES_FROM
        flat[~series] = [transition_function(v) for v in x[~series].tolist()]
        # the elements still summing, compacted as they converge
        act = np.flatnonzero(series)
        h = 0.5 / x[act]
        re, im, term = np.ones(h.size), np.zeros(h.size), np.ones(h.size)
        n = 1
        while act.size:
            term, re, im = _series_group(term, re, im, n, h)
            n += 8
            done = ~(term >= _SERIES_TOL)
            if np.count_nonzero(done):
                flat.real[act[done]], flat.imag[act[done]] = re[done], im[done]
                going = ~done
                act, h, term, re, im = act[going], h[going], term[going], re[going], im[going]
        return out
    if x >= _SERIES_FROM:
        # the terms turn by j each: 1, j h, -3 h^2, -15j h^3, 105 h^4, ...
        # with h = 1/(2x), so they are summed four at a time in real numbers
        h = 0.5 / x
        re, im, term, n = 1.0, 0.0, 1.0, 1
        while term >= _SERIES_TOL:
            term, re, im = _series_group(term, re, im, n, h)
            n += 8
        return complex(re, im)
    if x == 0.0:
        return 0j
    iz = math.sqrt(x) * _IZ_PER_ROOT_X
    den = _WEIDEMAN_L - iz
    z_map = (_WEIDEMAN_L + iz) / den
    p = 0.0
    for c in _WEIDEMAN_A:
        p = p * z_map + c
    w = 2.0 * p / (den * den) + 1.0 / (_SQRT_PI * den)
    return math.sqrt(math.pi * x) * _E_J_PI_4 * w


def _series_group(term, re, im, n, h):
    """Four more terms of F's asymptotic series, from the n-th on: the
    last term and the real and imaginary sums, for floats or arrays."""
    term = term * (n * h)
    im = im + term
    term = term * ((n + 2) * h)
    re = re - term
    term = term * ((n + 4) * h)
    im = im - term
    term = term * ((n + 6) * h)
    return term, re + term, im


def _cot_f(sign: float, beta, n, k, L, m):
    """One of the four cot * F(kLa) products of the wedge coefficient, with
    the function set m (geometry.functions_for).

    Where the cotangent argument is near a boundary the product is replaced
    by its small-argument expansion.
    """
    two_pi_n = 2.0 * math.pi * n
    # the integer nearest to the GO boundary index
    big_n = m.round((beta + sign * math.pi) / two_pi_n)
    eps = beta - sign * (two_pi_n * big_n - math.pi)
    near = abs(eps) < _SINGULAR_EPS
    term = 0j
    if not (m.all(near) and m.any(near)):  # an empty batch takes this branch
        # 0.5 stands in for the cotangent argument where the expansion serves
        arg = m.where(near, 0.5, (math.pi + sign * beta) / (2.0 * n))
        a = 2.0 * m.cos((two_pi_n * big_n - beta) / 2.0) ** 2
        term = m.cos(arg) / m.sin(arg) * transition_function(k * L * a)
    if m.any(near):
        # cot ~ 2n/(sign*eps) and F ~ sqrt(pi*k*L*a) with a ~ eps^2/2,
        # so the product tends to sign * n * e^{j pi/4} * sqrt(2 pi k L)
        sgn = m.where(eps >= 0.0, 1.0, -1.0)
        term = m.where(near, sign * n * _E_J_PI_4 * (m.sqrt(2.0 * math.pi * k * L) * sgn
                                                     - 2.0 * k * L * eps * _E_J_PI_4), term)
    return term


class WedgeGeometry(NamedTuple):
    """Edge-local angles for one diffraction event (floats), or for N events
    ((N,) arrays).

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


def utd_coefficient(geom: WedgeGeometry, material, frequency: float, eps=None):
    """Soft/hard wedge diffraction coefficients (D_soft, D_hard).

    The pair is the diagonal of the dyadic applied to the edge-fixed field
    components: the soft entry multiplies the component along the incidence
    beta-vector, the hard entry the component along the phi-vector.  Exactly
    reciprocal under exchange of the incident and diffracted rays.

    geom holds floats for one event, or (N,) arrays for N events; eps is
    the faces' complex permittivity (from material when None), an (N,)
    array for N events, and the pair is then two complex (N,) arrays.
    """
    n, beta0, phip, phi, d_inc, d_dif = geom
    m = functions_for(phi)
    if not m.all((n > 1.0) & (n <= 2.0 + 1e-12)):
        raise ValueError("exterior wedge angle must be in (pi, 2*pi]")
    k = 2.0 * math.pi * frequency / 299792458.0
    # L, the distance parameter
    L = d_inc * d_dif / (d_inc + d_dif) * m.sin(beta0) ** 2
    if eps is None:
        eps = complex_permittivity(material, frequency)
    # the face multipliers, each the mean over the two rays' grazing angles
    # (see Conventions): at a reflection boundary the two coincide
    grazing = (phip, phi, n * math.pi - phip, n * math.pi - phi)
    if m is FLOATS:
        d1 = _cot_f(1.0, phi - phip, n, k, L, m)
        d2 = _cot_f(-1.0, phi - phip, n, k, L, m)
        # d3 is singular at the n-face reflection boundary, d4 at the o-face one
        d3 = _cot_f(1.0, phi + phip, n, k, L, m)
        d4 = _cot_f(-1.0, phi + phip, n, k, L, m)
        o_inc, o_dif, n_inc, n_dif = (fresnel_from_cos(abs(m.sin(x)), eps) for x in grazing)
    else:
        # the four products, and the four face multipliers, each in one
        # call on the events stacked four times
        def four(x):
            x = np.broadcast_to(x, phi.shape)
            return np.concatenate((x, x, x, x))
        diff, total = phi - phip, phi + phip
        d1, d2, d3, d4 = np.split(_cot_f(
            np.repeat([1.0, -1.0, 1.0, -1.0], phi.shape[0]),
            np.concatenate((diff, diff, total, total)), four(n), k, four(L), m), 4)
        faces = fresnel_from_cos(np.abs(np.sin(np.concatenate(grazing))), four(eps))
        o_inc, o_dif, n_inc, n_dif = zip(*(np.split(f, 4) for f in faces))
    pref = _MINUS_E_MJ_PI_4 / (2.0 * n * m.sqrt(2.0 * math.pi * k) * m.sin(beta0))
    return (pref * (d1 + d2 + 0.5 * (n_inc[0] + n_dif[0]) * d3
                    + 0.5 * (o_inc[0] + o_dif[0]) * d4),
            pref * (d1 + d2 + 0.5 * (n_inc[1] + n_dif[1]) * d3
                    + 0.5 * (o_inc[1] + o_dif[1]) * d4))
