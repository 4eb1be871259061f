import cmath
import math

import numpy as np
import pytest

from raychan import (
    Material,
    WedgeGeometry,
    fresnel_coefficients,
    transition_function,
    transmission_coefficient,
    utd_coefficient,
)
from raychan.coefficients import (
    complex_permittivity,
    fresnel_from_cos,
    transmission_from_cos,
)

import oracles

CONCRETE = Material(rel_permittivity=5.31, conductivity=0.0326)


class TestFresnel:
    def test_vacuum_reflects_nothing(self):
        m = Material(rel_permittivity=1.0, conductivity=0.0)
        for ang in (0.0, 0.3, 1.0, 1.4):
            r_perp, r_par = fresnel_coefficients(ang, m, 6e9)
            assert abs(r_perp) < 1e-12
            assert abs(r_par) < 1e-12

    def test_grazing_limit_both_minus_one(self):
        r_perp, r_par = fresnel_coefficients(math.pi / 2 - 1e-9, CONCRETE, 6e9)
        assert abs(r_perp + 1.0) < 1e-4
        assert abs(r_par + 1.0) < 1e-4
        assert abs(abs(r_perp) - 1.0) < 1e-6

    def test_concrete_45deg_frozen_value(self):
        # frozen from the independent textbook evaluation in oracles.py
        r_perp, r_par = fresnel_coefficients(math.pi / 4, CONCRETE, 6e9)
        assert r_perp == pytest.approx(-0.5124346243478654 + 0.0037427355856996j,
                                       abs=1e-12)
        assert r_par == pytest.approx(0.2625752361608734 - 0.0038358146077827j,
                                      abs=1e-12)

    @pytest.mark.parametrize("theta", np.linspace(0.0, 1.55, 12))
    @pytest.mark.parametrize("eps_r,sigma", [(5.31, 0.0326), (2.0, 0.0), (9.0, 1.0)])
    def test_matches_textbook_oracle(self, theta, eps_r, sigma):
        m = Material(rel_permittivity=eps_r, conductivity=sigma)
        got = fresnel_coefficients(theta, m, 6e9)
        want = oracles.fresnel_textbook(eps_r, sigma, 6e9, theta)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_pec_limit_signs(self):
        m = Material(rel_permittivity=1.0, conductivity=1e9)
        r_perp, r_par = fresnel_coefficients(0.5, m, 6e9)
        assert r_perp == pytest.approx(-1.0, abs=1e-3)
        assert r_par == pytest.approx(+1.0, abs=1e-3)

    def test_passivity(self):
        for eps_r, sigma in [(2.0, 0.0), (5.31, 0.0326), (9.0, 2.0)]:
            m = Material(rel_permittivity=eps_r, conductivity=sigma)
            for theta in np.linspace(0.0, 1.57, 40):
                r_perp, r_par = fresnel_coefficients(min(theta, 1.5707), m, 6e9)
                assert abs(r_perp) <= 1.0 + 1e-12
                assert abs(r_par) <= 1.0 + 1e-12

    def test_rejects_bad_angle(self):
        with pytest.raises(ValueError):
            fresnel_coefficients(math.pi / 2, CONCRETE, 6e9)


class TestTransmission:
    def test_vacuum_slab_is_transparent(self):
        m = Material(rel_permittivity=1.0, conductivity=0.0, transparent=True)
        tr = transmission_coefficient(0.4, m, 6e9, 0.2)
        assert tr.t_perp == pytest.approx(1.0, abs=1e-12)
        assert tr.t_par == pytest.approx(1.0, abs=1e-12)
        assert tr.loss_factor(0.0) == 1.0

    def test_normal_incidence_eps4_closed_form(self):
        # t12 * t21 = (2/3) * (4/3) = 8/9
        m = Material(rel_permittivity=4.0, conductivity=0.0, transparent=True)
        tr = transmission_coefficient(0.0, m, 6e9, 0.2)
        assert tr.t_perp == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert tr.t_par == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert tr.d_t == pytest.approx(0.2, abs=1e-15)

    def test_oblique_slab_frozen_values(self):
        # frozen from the independent Snell + Fresnel evaluation
        m = Material(rel_permittivity=5.31, conductivity=0.0326,
                     attenuation_alpha=2.0, transparent=True)
        tr = transmission_coefficient(math.radians(30.0), m, 6e9, 0.2)
        assert tr.t_perp == pytest.approx(0.8027955668606434 + 0.0034401738121165j,
                                          abs=1e-12)
        assert tr.t_par == pytest.approx(0.8823115452289648 + 0.0026459220831461j,
                                         abs=1e-12)
        assert tr.d_t == pytest.approx(0.20488071949127853, abs=1e-12)
        assert tr.loss_factor(2.0) == pytest.approx(0.6638085901013387, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.2, 0.7, 1.2])
    def test_matches_snell_fresnel_oracle(self, theta):
        m = Material(rel_permittivity=5.31, conductivity=0.0326, transparent=True)
        tr = transmission_coefficient(theta, m, 6e9, 0.35)
        ts, tp, d_t = oracles.transmission_textbook(5.31, 0.0326, 6e9, theta, 0.35)
        assert tr.t_perp == pytest.approx(ts, abs=1e-12)
        assert tr.t_par == pytest.approx(tp, abs=1e-12)
        assert tr.d_t == pytest.approx(d_t, abs=1e-12)

    def test_passivity_including_loss(self):
        for eps_r in (2.0, 4.0, 6.27):
            m = Material(rel_permittivity=eps_r, conductivity=0.01,
                         attenuation_alpha=1.0, transparent=True)
            for theta in np.linspace(0.0, 1.5, 30):
                tr = transmission_coefficient(theta, m, 6e9, 0.3)
                loss = tr.loss_factor(m.attenuation_alpha)
                assert abs(tr.t_perp) * loss <= 1.0 + 1e-9
                assert abs(tr.t_par) * loss <= 1.0 + 1e-9


GLASS = Material(rel_permittivity=6.27, conductivity=0.0043, transparent=True)


class TestArrayContract:
    """One routine serves single interactions and batches: an array call
    must equal the element-wise scalar calls exactly."""

    @staticmethod
    def _cosines(material):
        brewster = math.atan(math.sqrt(material.rel_permittivity))
        return [math.cos(a) for a in (math.pi / 2 - 1e-6, 0.0, brewster)]

    @pytest.mark.parametrize("material", [CONCRETE, GLASS], ids=["concrete", "glass"])
    def test_fresnel_array_equals_scalar(self, material):
        eps = complex_permittivity(material, 6e9)
        cosines = self._cosines(material)
        r_perp, r_par = fresnel_from_cos(np.array(cosines), np.full(3, eps))
        for i, c in enumerate(cosines):
            s_perp, s_par = fresnel_from_cos(c, eps)
            assert r_perp[i] == s_perp
            assert r_par[i] == s_par

    @pytest.mark.parametrize("material", [CONCRETE, GLASS], ids=["concrete", "glass"])
    def test_transmission_array_equals_scalar(self, material):
        eps = complex_permittivity(material, 6e9)
        cosines = self._cosines(material)
        batch = transmission_from_cos(np.array(cosines), np.full(3, eps),
                                      np.full(3, 0.2))
        for i, c in enumerate(cosines):
            one = transmission_from_cos(c, eps, 0.2)
            assert batch.t_perp[i] == one.t_perp
            assert batch.t_par[i] == one.t_par
            assert batch.d_t[i] == one.d_t


class TestTransitionFunction:
    @pytest.mark.parametrize("x", [1e-4, 0.01, 0.1, 0.5, 1.0, 3.9, 4.1, 10.0, 60.0])
    def test_matches_quadrature_oracle(self, x):
        assert complex(transition_function(x)) == pytest.approx(
            oracles.transition_quadrature(x), abs=1e-8)

    def test_limits(self):
        assert abs(complex(transition_function(1e-9))) < 1e-4   # F -> 0
        assert complex(transition_function(500.0)) == pytest.approx(1.0, abs=2e-3)


def _pec() -> Material:
    return Material(rel_permittivity=1.0, conductivity=1e12)


class TestUtdCoefficient:
    def test_half_plane_frozen_value(self):
        # frozen from the quadrature oracle (PEC faces, n=2)
        wg = WedgeGeometry(n=2.0, beta0=math.pi / 2,
                           phi_inc=math.radians(40.0), phi_dif=math.radians(200.0),
                           d_inc=11.0, d_dif=7.0)
        assert wg.distance_parameter == pytest.approx(11.0 * 7.0 / 18.0, rel=1e-12)
        wg = WedgeGeometry(n=2.0, beta0=math.pi / 2,
                           phi_inc=math.radians(40.0), phi_dif=math.radians(200.0),
                           d_inc=7.4, d_dif=7.4)  # L = 3.7
        d_soft, d_hard = utd_coefficient(wg, _pec(), 6e9)
        assert d_soft == pytest.approx(-0.09885956312764943 + 0.09618208671203886j,
                                       abs=1e-6)
        assert d_hard == pytest.approx(-0.04844033480363845 + 0.04597910914045394j,
                                       abs=1e-6)

    @pytest.mark.parametrize("phi_deg,phip_deg", [(200, 40), (95, 30), (310, 100)])
    def test_matches_quadrature_oracle_half_plane(self, phi_deg, phip_deg):
        wg = WedgeGeometry(n=2.0, beta0=math.pi / 2,
                           phi_inc=math.radians(phip_deg),
                           phi_dif=math.radians(phi_deg),
                           d_inc=9.0, d_dif=5.0)
        got = utd_coefficient(wg, _pec(), 6e9)
        k = 2 * math.pi * 6e9 / 299792458.0
        want = oracles.utd_wedge_quadrature(
            k, 2.0, math.pi / 2, math.radians(phi_deg), math.radians(phip_deg),
            wg.distance_parameter)
        assert got[0] == pytest.approx(want[0], abs=1e-6)
        assert got[1] == pytest.approx(want[1], abs=1e-6)

    @pytest.mark.parametrize("n", [1.5, 1.8, 2.0])
    @pytest.mark.parametrize("angles", [(0.7, 2.1), (1.2, 2.6), (0.4, 2.8)])
    def test_reciprocity(self, n, angles):
        phi, phip = angles
        phi = min(phi, n * math.pi - 0.05)
        for material in (_pec(), CONCRETE):
            a = utd_coefficient(WedgeGeometry(n, 1.1, phip, phi, 12.0, 6.0),
                                material, 6e9)
            b = utd_coefficient(WedgeGeometry(n, 1.1, phi, phip, 12.0, 6.0),
                                material, 6e9)
            assert abs(a[0] - b[0]) < 1e-9
            assert abs(a[1] - b[1]) < 1e-9

    def test_rejects_interior_wedge(self):
        with pytest.raises(ValueError):
            utd_coefficient(WedgeGeometry(0.8, 1.0, 0.3, 1.0, 5.0, 5.0),
                            CONCRETE, 6e9)


class TestBoundaryContinuity:
    """Total field (GO + diffracted) continuity across the shadow and
    reflection boundaries of a half-plane, swept with a fine angular step."""

    @staticmethod
    def _total_field(phi, phip, d_l, d_p, k, material, pol):
        wg = WedgeGeometry(n=2.0, beta0=math.pi / 2, phi_inc=phip, phi_dif=phi,
                           d_inc=d_l, d_dif=d_p)
        d_coeff = utd_coefficient(wg, material, 6e9)[pol]
        src = d_l * np.array([math.cos(phip), math.sin(phip)])
        obs = d_p * np.array([math.cos(phi), math.sin(phi)])
        direct = np.linalg.norm(obs - src)
        e_i = cmath.exp(-1j * k * direct) / direct if phi < phip + math.pi else 0.0
        img = d_l * np.array([math.cos(phip), -math.sin(phip)])
        refl_d = np.linalg.norm(obs - img)
        r = fresnel_coefficients(abs(math.pi / 2 - phip), material, 6e9)[pol]
        e_r = r * cmath.exp(-1j * k * refl_d) / refl_d if phi < math.pi - phip else 0.0
        e_d = (d_coeff * cmath.exp(-1j * k * (d_l + d_p)) / d_l
               * math.sqrt(d_l / (d_p * (d_l + d_p))))
        return e_i + e_r + e_d

    @pytest.mark.parametrize("pol", [0, 1])
    @pytest.mark.parametrize("material", [_pec(), CONCRETE])
    def test_continuous_across_both_boundaries(self, pol, material):
        k = 2 * math.pi * 6e9 / 299792458.0
        phip = 0.9
        d_l, d_p = 11.0, 7.0
        # 1e-6 sweeps the regular terms; 1e-8 lands inside the
        # small-argument expansion branch of the boundary terms
        for delta in (1e-6, 1e-8):
            for boundary in (phip + math.pi, math.pi - phip):
                lo = self._total_field(boundary - delta, phip, d_l, d_p, k,
                                       material, pol)
                hi = self._total_field(boundary + delta, phip, d_l, d_p, k,
                                       material, pol)
                assert abs(lo - hi) <= 0.01 * abs(lo)
