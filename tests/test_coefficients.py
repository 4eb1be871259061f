import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import wofz

import raychan
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
from raychan.geometry import wedge_angles

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

    def test_fresnel_array_equals_scalar_on_random_inputs(self):
        # arrays take numpy's complex sqrt and a real-arithmetic copy of
        # Python's complex division: both must match the scalar bit for bit
        rng = np.random.default_rng(3)
        cosines = np.concatenate(([0.0, 1.0, 1e-300, 1e-8], rng.uniform(0.0, 1.0, 4000)))
        eps = rng.uniform(1.0, 80.0, cosines.size) - 1j * rng.exponential(5.0, cosines.size)
        eps[:2000] = eps[:2000].real  # lossless
        r_perp, r_par = fresnel_from_cos(cosines, eps)
        for i, (c, e) in enumerate(zip(cosines.tolist(), eps.tolist())):
            assert (r_perp[i], r_par[i]) == fresnel_from_cos(c, e)

    def test_transition_function_array_equals_scalar(self):
        rng = np.random.default_rng(4)
        x = np.concatenate(([0.0, 40.0, np.nextafter(40.0, 0.0), 1e12],
                            rng.uniform(0.0, 100.0, 2000), 10.0 ** rng.uniform(-8, 8, 2000)))
        f = transition_function(x.reshape(2, -1)).ravel()
        for i, v in enumerate(x.tolist()):
            assert f[i] == transition_function(v)

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

    def test_transmission_array_equals_scalar_on_random_inputs(self):
        """The array form writes CPython's complex products out in real
        operations: every element keeps the scalar bits, over lossless and
        lossy permittivities, some repeated."""
        rng = np.random.default_rng(7)
        n = 2000
        cosines = rng.uniform(1e-3, 1.0, n)
        eps = (rng.uniform(1.0, 80.0, n) - 1j * rng.choice([0.0, 1.0], n)
               * 10.0 ** rng.uniform(-3, 2, n))
        eps[::7] = eps[0]
        thickness = rng.uniform(0.01, 1.0, n)
        batch = transmission_from_cos(cosines, eps, thickness)
        for i, (c, e, d) in enumerate(zip(cosines.tolist(), eps.tolist(), thickness.tolist())):
            one = transmission_from_cos(c, e, d)
            assert (batch.t_perp[i], batch.t_par[i], batch.d_t[i]) == tuple(one), i

    @pytest.mark.parametrize("shape", [(0,), (2, 0)], ids=["0", "2x0"])
    def test_empty_batches_give_empty_arrays(self, shape):
        cos = np.zeros(shape)
        eps = np.zeros(shape, complex)
        f = transition_function(cos)
        assert f.shape == shape and f.dtype == complex
        for out in fresnel_from_cos(cos, eps):
            assert out.shape == shape and out.dtype == complex
        slab = transmission_from_cos(cos, eps, np.zeros(shape))
        assert [a.shape for a in slab] == [shape] * 3
        assert [a.dtype for a in slab] == [complex, complex, float]

    def test_empty_utd_batch(self):
        d_soft, d_hard = utd_coefficient(WedgeGeometry(*np.zeros((6, 0))), None, 6e9,
                                         np.zeros(0, complex))
        assert d_soft.shape == d_hard.shape == (0,)
        assert d_soft.dtype == d_hard.dtype == complex


class TestTransitionFunction:
    @pytest.mark.parametrize("x", [1e-4, 0.01, 0.1, 0.5, 1.0, 3.9, 4.1, 10.0, 60.0])
    def test_matches_quadrature_oracle(self, x):
        assert complex(transition_function(x)) == pytest.approx(
            oracles.transition_quadrature(x), abs=1e-8)

    def test_limits(self):
        assert abs(complex(transition_function(1e-9))) < 1e-4   # F -> 0
        assert complex(transition_function(500.0)) == pytest.approx(1.0, abs=2e-3)

    def test_matches_faddeeva_reference(self):
        xs = np.logspace(-8.0, 5.0, 200)
        want = (np.sqrt(np.pi * xs) * cmath.exp(0.25j * math.pi)
                * wofz(np.sqrt(xs) * cmath.exp(0.75j * math.pi)))
        got = np.array([transition_function(x) for x in xs.tolist()])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def test_continuous_across_series_branch(self):
        # the rational approximation serves x < 40, the asymptotic series x >= 40
        below = transition_function(math.nextafter(40.0, 0.0))
        at = transition_function(40.0)
        assert abs(below - at) <= 1e-14 * abs(at)

    def test_zero(self):
        assert transition_function(0.0) == 0.0

    def test_array_equals_scalar(self):
        xs = np.array([[0.0, 1e-8, 0.5, 39.99], [40.0, 123.4, 5e3, 1e5]])
        got = transition_function(xs)
        assert got.shape == xs.shape
        for x, f in zip(xs.ravel().tolist(), got.ravel().tolist()):
            assert f == transition_function(x)

    def test_runtime_never_imports_scipy(self):
        src = Path(raychan.__file__).resolve().parents[1]
        code = ("import sys\n"
                "import raychan\n"
                "snap = raychan.trace_snapshot(raychan.generate_v2v_scenario(seed=0), 0.0)\n"
                "print(sum(any(m.value == 'D' for m, _ in p.signature) for p in snap.paths))\n"
                "print('scipy' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        n_diffracted, scipy_loaded = proc.stdout.split()
        assert int(n_diffracted) > 0
        assert scipy_loaded == "False"


def _pec() -> Material:
    return Material(rel_permittivity=1.0, conductivity=1e12)


def _utd_scalar(geoms, material, frequency=6e9):
    """utd_coefficient on each WedgeGeometry of floats in turn."""
    return [utd_coefficient(g, material, frequency) for g in geoms]


def _utd_stacked(geoms, material, frequency=6e9):
    """utd_coefficient on the geoms stacked into one array batch."""
    eps = np.full(len(geoms), complex_permittivity(material, frequency))
    d_soft, d_hard = utd_coefficient(WedgeGeometry(*np.array(geoms, float).T), None,
                                     frequency, eps)
    return list(zip(d_soft.tolist(), d_hard.tolist()))


class TestUtdCoefficient:
    """The physics checks of the wedge coefficient on Python floats;
    TestUtdCoefficientStacked runs them on one array batch."""

    utd = staticmethod(_utd_scalar)

    def test_half_plane_frozen_value(self):
        # frozen from the quadrature oracle (PEC faces, n=2)
        wg = WedgeGeometry(n=2.0, beta0=math.pi / 2,
                           phi_inc=math.radians(40.0), phi_dif=math.radians(200.0),
                           d_inc=7.4, d_dif=7.4)  # L = 3.7
        [(d_soft, d_hard)] = self.utd([wg], _pec())
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
        [got] = self.utd([wg], _pec())
        k = 2 * math.pi * 6e9 / 299792458.0
        want = oracles.utd_wedge_quadrature(
            k, 2.0, math.pi / 2, math.radians(phi_deg), math.radians(phip_deg),
            9.0 * 5.0 / 14.0)  # L at normal incidence
        assert got[0] == pytest.approx(want[0], abs=1e-6)
        assert got[1] == pytest.approx(want[1], abs=1e-6)

    @pytest.mark.parametrize("n", [1.5, 1.8, 2.0])
    @pytest.mark.parametrize("angles", [(0.7, 2.1), (1.2, 2.6), (0.4, 2.8)])
    def test_reciprocity(self, n, angles):
        phi, phip = angles
        phi = min(phi, n * math.pi - 0.05)
        for material in (_pec(), CONCRETE):
            a, b = self.utd([WedgeGeometry(n, 1.1, phip, phi, 12.0, 6.0),
                             WedgeGeometry(n, 1.1, phi, phip, 12.0, 6.0)], material)
            assert abs(a[0] - b[0]) < 1e-9
            assert abs(a[1] - b[1]) < 1e-9

    def test_rejects_interior_wedge(self):
        with pytest.raises(ValueError):
            self.utd([WedgeGeometry(2.0, 1.0, 0.3, 1.0, 5.0, 5.0),
                      WedgeGeometry(0.8, 1.0, 0.3, 1.0, 5.0, 5.0)], CONCRETE)


class TestUtdCoefficientStacked(TestUtdCoefficient):
    utd = staticmethod(_utd_stacked)

    @staticmethod
    def _events():
        """(WedgeGeometry, eps, frequency) of random events, and of events on
        and 1e-8 and 1e-6 rad to either side of shadow and reflection
        boundaries, where the small-argument expansion serves."""
        rng = np.random.default_rng(7)
        events = []
        for _ in range(400):
            n = rng.choice([1.5, 1.8, 2.0, rng.uniform(1.01, 2.0)])
            phip = rng.uniform(0.05, n * math.pi - 0.05)
            phis = [rng.uniform(0.0, n * math.pi)]
            for boundary in (math.pi + phip, math.pi - phip, phip - math.pi,
                             (2.0 * n - 1.0) * math.pi - phip):
                phis += [boundary + d for d in (-1e-6, -1e-8, 1e-8, 1e-6)
                         if 0.0 <= boundary + d <= n * math.pi]
            for phi in phis:
                events.append((WedgeGeometry(n, rng.uniform(0.3, 2.8), phip, phi,
                                             rng.uniform(0.5, 50.0), rng.uniform(0.5, 50.0)),
                               complex(rng.uniform(2.0, 9.0), -rng.uniform(0.0, 2.0)),
                               float(rng.choice([2.4e9, 6e9, 28e9]))))
        # phi + phip == pi exactly, where the cotangent argument of d4 is 0
        events += [(WedgeGeometry(n, 1.2, 1.0, math.pi - 1.0, 5.0, 7.0), 5.0 - 0.1j, 6e9)
                   for n in (1.5, 2.0)]
        return events

    def test_array_rows_equal_batches_of_one(self):
        """The array branch stacks its four cot * F products and its four
        face multipliers into one call each; every event still gets the
        bits of its own batch of one."""
        events = self._events()[::3]
        for frequency in (2.4e9, 6e9, 28e9):
            group = [(g, e) for g, e, f in events if f == frequency]
            d_soft, d_hard = utd_coefficient(
                WedgeGeometry(*np.array([g for g, _ in group]).T), None, frequency,
                np.array([e for _, e in group]))
            for i, (g, e) in enumerate(group):
                one = utd_coefficient(WedgeGeometry(*np.array([g], float).T), None, frequency,
                                      np.array([e]))
                assert (d_soft[i], d_hard[i]) == (one[0][0], one[1][0])

    def test_array_agrees_with_scalar(self):
        events = self._events()
        assert len(events) > 2000
        for frequency in (2.4e9, 6e9, 28e9):
            group = [(g, e) for g, e, f in events if f == frequency]
            d_soft, d_hard = utd_coefficient(
                WedgeGeometry(*np.array([g for g, _ in group]).T), None, frequency,
                np.array([e for _, e in group]))
            for i, (g, e) in enumerate(group):
                want = utd_coefficient(g, None, frequency, e)
                for got, one in zip((d_soft[i], d_hard[i]), want):
                    assert abs(got - one) <= 1e-13 * abs(one)


class TestWedgeAngles:
    def test_array_agrees_with_scalar(self):
        rng = np.random.default_rng(8)
        n_events = 500
        e = rng.normal(size=(n_events, 3))
        e /= np.linalg.norm(e, axis=1)[:, None]
        a = rng.normal(size=(n_events, 3))
        a -= np.vecdot(a, e)[:, None] * e
        a /= np.linalg.norm(a, axis=1)[:, None]
        n = np.cross(e, a) * rng.choice([-1.0, 1.0], size=(n_events, 1))
        n_index = rng.uniform(1.01, 2.0, n_events)
        d_in, d_out = rng.normal(size=(2, n_events, 3)) * rng.uniform(1.0, 30.0, (2, n_events, 1))
        d_in[0] = 3.0 * e[0]   # rays along the edge
        d_out[1] = -2.0 * e[1]
        length = np.linalg.norm(d_in, axis=1)
        beta0, phi_inc, phi_dif, along_edge = wedge_angles(
            e.T, a.T, n.T, n_index, d_in.T, length, d_out.T)
        assert along_edge[:2].all() and not along_edge[2:].any()
        for i in range(n_events):
            one = wedge_angles(*(tuple(v[i].tolist()) for v in (e, a, n)), float(n_index[i]),
                               tuple(d_in[i].tolist()), float(length[i]),
                               tuple(d_out[i].tolist()))
            assert one[3] == along_edge[i]
            if one[3]:
                continue  # the angle of a ray along the edge is undefined
            for got, want in zip((beta0[i], phi_inc[i], phi_dif[i]), one[:3]):
                assert got == pytest.approx(want, rel=1e-13, abs=1e-13)
            assert 0.0 <= one[1] <= n_index[i] * math.pi
            assert 0.0 <= one[2] <= n_index[i] * math.pi


class TestBoundaryContinuity:
    """Total field (GO + diffracted) continuity across the shadow and
    reflection boundaries of a half-plane, swept with a fine angular step."""

    utd = staticmethod(_utd_scalar)

    @staticmethod
    def _total_field(phi, phip, d_l, d_p, k, material, pol, d_coeff):
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
        # both offsets land inside the small-argument expansion branch of the
        # boundary terms (within 1e-4 rad of the boundary)
        phis = [boundary + side * delta for delta in (1e-6, 1e-8)
                for boundary in (phip + math.pi, math.pi - phip) for side in (-1.0, 1.0)]
        coeffs = self.utd([WedgeGeometry(n=2.0, beta0=math.pi / 2, phi_inc=phip, phi_dif=phi,
                                         d_inc=d_l, d_dif=d_p) for phi in phis], material)
        total = [self._total_field(phi, phip, d_l, d_p, k, material, pol, d[pol])
                 for phi, d in zip(phis, coeffs)]
        for lo, hi in zip(total[::2], total[1::2]):
            assert abs(lo - hi) <= 0.01 * abs(lo)


class TestBoundaryContinuityStacked(TestBoundaryContinuity):
    utd = staticmethod(_utd_stacked)
