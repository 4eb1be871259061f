import cmath
import math

import numpy as np
import pytest

import oracles
from raychan import (
    Edge,
    Facet,
    Material,
    Motion,
    Scene,
    scene_at,
    signature_str,
    trace_snapshot,
)
from raychan.rt import ConstructionError, Mechanism, fermat_points, solve_backbone
from raychan.runs import StageTimer
from raychan.scene import C_LIGHT


def _free_space(tx=(0, 0, 1.5), rx=(0, 20, 1.5), freq=6e9, power=30.0):
    return Scene(facets=(), edges=(), tx_motion=Motion.stationary(tx),
                 rx_motion=Motion.stationary(rx), frequency=freq,
                 tx_power_dbm=power)


def _ground_scene(tx=(0, 0, 1.0), rx=(0, 4, 1.0)):
    ground = Facet(id="g", vertices=np.array(
        [[-50, -50, 0], [50, -50, 0], [50, 50, 0], [-50, 50, 0]], float))
    return Scene(facets=(ground,), edges=(), tx_motion=Motion.stationary(tx),
                 rx_motion=Motion.stationary(rx), frequency=6e9)


def _screen_scene():
    """Opaque screen with a half-plane edge between Tx and Rx."""
    screen = Facet(id="w", vertices=np.array(
        [[-30, 0, 0], [2, 0, 0], [2, 0, 8], [-30, 0, 8]], float))
    edge = Edge(id="w_edge", endpoints=np.array([[2, 0, 0], [2, 0, 8]], float),
                adjacent_facets=("w", "w"), exterior_wedge_angle=2 * math.pi)
    return Scene(facets=(screen,), edges=(edge,),
                 tx_motion=Motion.stationary([-3, -10, 1.5]),
                 rx_motion=Motion.stationary([-3, 10, 1.5]), frequency=6e9)


class TestTraceSnapshot:
    def test_free_space_single_los(self):
        snap = trace_snapshot(_free_space(), 0.0)
        assert len(snap.paths) == 1
        p = snap.paths[0]
        assert p.signature == ()
        assert p.delay == pytest.approx(20.0 / C_LIGHT, rel=1e-12)
        assert p.power_dbm == pytest.approx(
            oracles.received_power_dbm(30.0, 20.0, 6e9), abs=1e-9)

    def test_ground_reflection_worked_case(self):
        snap = trace_snapshot(_ground_scene(), 0.0)
        sigs = {signature_str(p.signature): p for p in snap.paths}
        assert set(sigs) == {"LOS", "R:g"}
        refl = sigs["R:g"]
        assert np.allclose(refl.interactions[0].point, [0, 2, 0], atol=1e-9)

    def test_blocked_by_screen_diffraction_only(self):
        scene = _screen_scene()
        snap = trace_snapshot(scene, 0.0)
        geom = scene_at(scene, 0.0)
        # independent launching/segment oracle confirms the direct ray is blocked
        assert oracles.los_blocked_by_launching(
            geom.tx, geom.rx, [f.vertices for f in scene.facets])
        kinds = {signature_str(p.signature) for p in snap.paths}
        assert "LOS" not in kinds
        assert any(s.startswith("D:") for s in kinds)
        # the diffraction point agrees with brute-force Fermat minimization
        d_path = next(p for p in snap.paths
                      if p.signature and p.signature[0][0] is Mechanism.DIFFRACTION)
        a, b = geom.edges[scene.edge_index["w_edge"]]
        p_brute, _u = oracles.fermat_brute(geom.tx, geom.rx, a, b)
        assert np.linalg.norm(d_path.interactions[0].point - p_brute) < 1e-4

    def test_empty_snapshot_is_valid(self):
        # receiver fully boxed in by opaque facets
        box = []
        for i, (n, off) in enumerate([((1, 0, 0), 1), ((-1, 0, 0), 1),
                                      ((0, 1, 0), 1), ((0, -1, 0), 1),
                                      ((0, 0, 1), 1), ((0, 0, -1), 1)]):
            n = np.array(n, float)
            u = np.array([n[1], n[2], n[0]])
            v = np.cross(n, u)
            c = 50.0 + off * 0.0
            center = np.array([60, 0, 2]) + n * 1.5
            verts = [center + 3 * (a * u + b * v)
                     for a, b in [(-1, -1), (1, -1), (1, 1), (-1, 1)]]
            f = Facet(id=f"box{i}", vertices=np.array(verts))
            # ensure outward ordering is valid; direction irrelevant here
            box.append(f)
        scene = Scene(facets=tuple(box), edges=(),
                      tx_motion=Motion.stationary([0, 0, 2]),
                      rx_motion=Motion.stationary([60, 0, 2]), frequency=6e9)
        snap = trace_snapshot(scene, 0.0)
        assert all(signature_str(p.signature) != "LOS" for p in snap.paths)


def _fermat(tx, rx, ends):
    """fermat_points as a batch of one: the edge point, or None when the
    construction is degenerate or clipped by the segment."""
    a, b = np.asarray(ends, float)
    p, ok, inside = fermat_points(np.asarray(tx, float), np.asarray(rx, float), a, b - a)
    return p if ok and inside else None


class TestFindReflectionPoint:
    """The specular point as solve_backbone constructs it."""

    def test_worked_case(self):
        geom = scene_at(_ground_scene(), 0.0)
        [p] = solve_backbone(geom, ((Mechanism.REFLECTION, "g"),))
        assert np.allclose(p, [0, 2, 0], atol=1e-12)

    def test_outside_polygon_rejected(self):
        small = Facet(id="s", vertices=np.array(
            [[-0.5, 1.5, 0], [0.5, 1.5, 0], [0.5, 2.5, 0], [-0.5, 2.5, 0]], float))
        scene = Scene(facets=(small,), edges=(),
                      tx_motion=Motion.stationary([0, 0, 1]),
                      rx_motion=Motion.stationary([0, 12, 1]), frequency=6e9)
        geom = scene_at(scene, 0.0)
        # specular point is at y=6, which is 3.5 m outside the facet
        with pytest.raises(ConstructionError, match="left its facet"):
            solve_backbone(geom, ((Mechanism.REFLECTION, "s"),))


class TestFindDiffractionPoint:
    """The generalized Fermat point of fermat_points, a batch of one."""

    _ENDS = np.array([[-2.0, 1.0, 0.5], [3.0, -1.0, 2.0]])

    def test_symmetric_midpoint(self):
        scene = _screen_scene()
        ends = scene_at(scene, 0.0).edges[scene.edge_index["w_edge"]]
        p = _fermat([0, -5, 2.0], [0, 5, 2.0], ends)
        assert p is not None
        assert p[2] == pytest.approx(2.0, abs=1e-12)

    def test_axis_case(self):
        p = _fermat([0, -1, 1.0], [0, 1, 1.0], [[-1, 0, 0], [1, 0, 0]])
        assert np.allclose(p, [0, 0, 0], atol=1e-12)

    def test_clipped_minimizer_rejected(self):
        # both endpoints far on one side push the minimizer past u=1
        assert _fermat([5.0, -1, 0], [5.0, 1, 0], [[-1.0, 0, 0], [1.0, 0, 0]]) is None

    def test_clipped_in_solve_backbone(self):
        scene = _screen_scene()
        geom = scene_at(Scene(facets=scene.facets, edges=scene.edges,
                              tx_motion=Motion.stationary([-3, -10, 12.0]),
                              rx_motion=Motion.stationary([-3, 10, 12.0]),
                              frequency=6e9), 0.0)
        # the Fermat point lies at z = 12, above the 8 m edge
        with pytest.raises(ConstructionError, match="clipped"):
            solve_backbone(geom, ((Mechanism.DIFFRACTION, "w_edge"),))
        # the pass counts the edge as a candidate that does not construct;
        # line of sight passes above the screen
        timer = StageTimer()
        snap = trace_snapshot(geom.scene, 0.0, timer)
        assert (timer.counters["rt_unconstructed"], timer.counters["rt_occluded"]) == (1, 0)
        assert [signature_str(p.signature) for p in snap.paths] == ["LOS"]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            tx = rng.uniform(-6, 6, 3)
            rx = rng.uniform(-6, 6, 3)
            p = _fermat(tx, rx, self._ENDS)
            if p is None:
                continue
            pb, _ = oracles.fermat_brute(tx, rx, self._ENDS[0], self._ENDS[1])
            assert np.linalg.norm(p - pb) < 1e-4

    def test_keller_cone_condition(self):
        tx = np.array([1.0, 4.0, 0.0])
        rx = np.array([-1.0, -3.0, 2.5])
        p = _fermat(tx, rx, self._ENDS)
        e_hat = self._ENDS[1] - self._ENDS[0]
        e_hat = e_hat / np.linalg.norm(e_hat)
        s_in = (p - tx) / np.linalg.norm(p - tx)
        s_out = (rx - p) / np.linalg.norm(rx - p)
        assert abs(np.dot(s_in, e_hat) - np.dot(s_out, e_hat)) < 1e-9


class TestFieldOfPath:
    def test_los_spreading_and_phase(self):
        for d in (5.0, 20.0, 80.0):
            scene = _free_space(rx=(0, d, 1.5))
            snap = trace_snapshot(scene, 0.0)
            p = snap.paths[0]
            k = scene.wavenumber
            from raychan.rt import launch_amplitude
            expect = launch_amplitude(scene) / d
            assert p.magnitude == pytest.approx(expect, rel=1e-12)
            phase = cmath.phase(p.field[0])
            assert cmath.exp(1j * phase) == pytest.approx(
                cmath.exp(-1j * k * d), abs=1e-9)

    def test_pec_reflection_equals_los_at_unfolded_distance(self):
        pec = Material(rel_permittivity=1.0, conductivity=1e9)
        ground = Facet(id="g", material=pec, vertices=np.array(
            [[-50, -50, 0], [50, -50, 0], [50, 50, 0], [-50, 50, 0]], float))
        scene = Scene(facets=(ground,), edges=(),
                      tx_motion=Motion.stationary([0, 0, 1]),
                      rx_motion=Motion.stationary([0, 4, 1]), frequency=6e9)
        snap = trace_snapshot(scene, 0.0)
        refl = snap.by_signature()[((Mechanism.REFLECTION, "g"),)]
        unfolded = math.sqrt(4.0 ** 2 + 2.0 ** 2)
        los_at_l = trace_snapshot(_free_space(rx=(0, unfolded, 1.5)), 0.0).paths[0]
        assert refl.magnitude == pytest.approx(los_at_l.magnitude, rel=1e-4)

    def test_recompute_is_deterministic(self, default_scene):
        a = trace_snapshot(default_scene, 1.3)
        b = trace_snapshot(default_scene, 1.3)
        assert [p.signature for p in a.paths] == [p.signature for p in b.paths]
        for pa, pb in zip(a.paths, b.paths):
            assert pa.magnitude == pb.magnitude
            assert pa.delay == pb.delay

    def test_cross_check_against_formula_reimplementation(self):
        """Wall reflection with in-plane geometry: the whole chain is scalar
        and must match a from-scratch evaluation of the spreading/coefficient
        formula."""
        wall = Facet(id="w", vertices=np.array(
            [[4, -10, 0], [4, 10, 0], [4, 10, 5], [4, -10, 5]][::-1], float))
        scene = Scene(facets=(wall,), edges=(),
                      tx_motion=Motion.stationary([0, -6, 1.5]),
                      rx_motion=Motion.stationary([0, 6, 1.5]), frequency=6e9)
        snap = trace_snapshot(scene, 0.0)
        refl = snap.by_signature()[((Mechanism.REFLECTION, "w"),)]
        pt = refl.interactions[0].point
        d_l = np.linalg.norm(pt - [0, -6, 1.5])
        d_p = np.linalg.norm([0, 6, 1.5] - pt)
        cos_inc = abs((pt - [0, -6, 1.5])[0]) / d_l
        theta = math.acos(cos_inc)
        # vertical polarization on a vertical wall with a horizontal ray is
        # the perpendicular component
        r_perp, _ = oracles.fresnel_textbook(5.31, 0.0326, 6e9, theta)
        from raychan.rt import launch_amplitude
        e0 = launch_amplitude(scene)
        k = scene.wavenumber
        want = oracles.field_reflection_formula(e0, k, d_l, d_p, r_perp)
        assert refl.magnitude == pytest.approx(abs(want), rel=1e-12)

    def test_diffraction_cross_check_against_formula(self):
        scene = _screen_scene()
        snap = trace_snapshot(scene, 0.0)
        d_path = next(p for p in snap.paths
                      if p.signature[0][0] is Mechanism.DIFFRACTION)
        geom = scene_at(scene, 0.0)
        pt = d_path.interactions[0].point
        d_l = float(np.linalg.norm(pt - geom.tx))
        d_p = float(np.linalg.norm(geom.rx - pt))
        from raychan.coefficients import WedgeGeometry, utd_coefficient
        from raychan.geometry import wedge_angles
        from raychan.rt import launch_amplitude
        frame = scene.frames["w_edge"]
        s_in = (pt - geom.tx) / d_l
        _, phi_inc, phi_dif, along_edge = wedge_angles(
            frame.ef, frame.af, frame.nf, frame.n_index, tuple((pt - geom.tx).tolist()), d_l,
            tuple((geom.rx - pt).tolist()))
        assert not along_edge
        wg = WedgeGeometry(
            n=2.0,
            beta0=math.acos(float(np.dot(s_in, frame.e_hat))),
            phi_inc=phi_inc,
            phi_dif=phi_dif,
            d_inc=d_l, d_dif=d_p)
        # vertical polarization, vertical edge: soft component
        d_soft, _ = utd_coefficient(wg, Material(), 6e9)
        want = oracles.field_diffraction_formula(
            launch_amplitude(scene), scene.wavenumber, d_l, d_p, d_soft)
        assert d_path.magnitude == pytest.approx(abs(want), rel=1e-12)

    def test_penetration_loss_and_delay(self):
        glass = Material(rel_permittivity=4.0, conductivity=0.0,
                         attenuation_alpha=2.0, transparent=True)
        pane = Facet(id="p", material=glass, thickness=0.2, vertices=np.array(
            [[-5, 10, -5], [5, 10, -5], [5, 10, 5], [-5, 10, 5]], float))
        scene = Scene(facets=(pane,), edges=(),
                      tx_motion=Motion.stationary([0, 0, 0]),
                      rx_motion=Motion.stationary([0, 20, 0]), frequency=6e9)
        snap = trace_snapshot(scene, 0.0)
        assert len(snap.paths) == 1
        p = snap.paths[0]
        assert signature_str(p.signature) == "P:p"
        # geometric length only: no excess delay from the slab
        assert p.delay == pytest.approx(20.0 / C_LIGHT, rel=1e-12)
        los = trace_snapshot(_free_space(tx=(0, 0, 0), rx=(0, 20, 0)), 0.0).paths[0]
        expected = abs(8.0 / 9.0) * math.exp(-2.0 * 0.2)
        assert p.magnitude / los.magnitude == pytest.approx(expected, rel=1e-12)


class TestInvariants:
    def test_image_method_angle_equality(self, default_scene):
        checked = 0
        for t in (0.0, 0.7, 1.3, 2.9, 4.1):
            snap = trace_snapshot(default_scene, t)
            geom = scene_at(default_scene, t)
            for p in snap.paths:
                refl = [i for i in p.interactions
                        if i.mechanism is Mechanism.REFLECTION]
                if not refl:
                    continue
                chain = [geom.tx] + [i.point for i in refl] + [geom.rx]
                for k, inter in enumerate(refl):
                    n = geom.facets.normals[default_scene.facet_index[inter.geometry_id]]
                    s_in = chain[k + 1] - chain[k]
                    s_out = chain[k + 2] - chain[k + 1]
                    s_in = s_in / np.linalg.norm(s_in)
                    s_out = s_out / np.linalg.norm(s_out)
                    assert abs(abs(np.dot(s_in, n)) - abs(np.dot(s_out, n))) < 1e-9
                    checked += 1
        assert checked > 0

    def test_occlusion_soundness_independent_oracle(self, default_scene):
        snap = trace_snapshot(default_scene, 2.7)
        geom = scene_at(default_scene, 2.7)
        for p in snap.paths:
            pen_ids = {i.geometry_id for i in p.interactions
                       if i.mechanism is Mechanism.PENETRATION}
            own_ids = {i.geometry_id for i in p.interactions}
            for e in (default_scene.edges[default_scene.edge_index[i.geometry_id]]
                      for i in p.interactions if i.mechanism is Mechanism.DIFFRACTION):
                own_ids |= set(e.adjacent_facets)
            chain = [geom.tx] + [i.point for i in p.interactions
                                 if i.mechanism is not Mechanism.PENETRATION] \
                + [geom.rx]
            facets = geom.facets
            for a, b in zip(chain, chain[1:]):
                for k, f in enumerate(default_scene.facets):
                    if f.id in own_ids or f.material.transparent:
                        continue
                    vertices = facets.origins[k][facets.valid[k]]
                    assert not oracles.segment_hits_polygon(a, b, vertices), \
                        (signature_str(p.signature), f.id)

    def test_reciprocity_swapped_transceivers(self, default_scene):
        t = 2.0
        fwd = trace_snapshot(default_scene, t)
        swapped = Scene(facets=default_scene.facets, edges=default_scene.edges,
                        tx_motion=default_scene.rx_motion,
                        rx_motion=default_scene.tx_motion,
                        frequency=default_scene.frequency,
                        tx_power_dbm=default_scene.tx_power_dbm)
        rev = trace_snapshot(swapped, t)
        fwd_sigs = {p.signature: p for p in fwd.paths}
        rev_sigs = {tuple(reversed(p.signature)): p for p in rev.paths}
        assert set(fwd_sigs) == set(rev_sigs)
        for sig, p in fwd_sigs.items():
            q = rev_sigs[sig]
            assert abs(p.power_dbm - q.power_dbm) < 1e-9
