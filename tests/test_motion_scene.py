import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raychan import (
    Edge,
    Facet,
    Material,
    Motion,
    MotionState,
    Scene,
    SceneError,
    load_scene,
    position_at,
    random_scene,
    save_scene,
    scene_at,
)
from raychan.scene import shifted_offsets
from raychan.geometry import polygon_frames

from scalar_forms import point_in_facet

NAN = float("nan")
INF = float("inf")


class TestPositionAt:
    def test_stationary_identity(self):
        m = MotionState(r0=[0, 0, 0])
        assert np.array_equal(position_at(m, 5.0), [0, 0, 0])

    def test_direct_polynomial_evaluation(self):
        m = MotionState(r0=[0, 0, 0], v0=[1, 0, 0], a0=[0, 2, 0], t_ref=0.0)
        assert np.allclose(position_at(m, 2.0), [2, 4, 0], atol=0)

    def test_vehicle_speed_36_kmh(self):
        m = MotionState(r0=[0, 10, 1], v0=[0, 10, 0])
        assert np.allclose(position_at(m, 0.1), [0, 11, 1], atol=1e-15)

    def test_re_referencing_is_exact(self):
        # evaluating at t, re-anchoring there, then evaluating at t' must
        # equal direct evaluation at t'
        m = MotionState(r0=[3, -2, 1], v0=[1.5, 0.25, 0], a0=[0.1, -0.3, 0],
                        t_ref=2.0)
        t_mid, t2 = 7.0, 11.5
        r_mid = position_at(m, t_mid)
        from raychan.motion import velocity_at
        m2 = MotionState(r0=r_mid, v0=velocity_at(m, t_mid), a0=m.a0, t_ref=t_mid)
        assert np.linalg.norm(position_at(m2, t2) - position_at(m, t2)) < 1e-12

    def test_vectorized_times(self):
        m = MotionState(r0=[0, 0, 0], v0=[2, 0, 0])
        out = position_at(m, np.array([0.0, 1.0, 2.0]))
        assert out.shape == (3, 3)
        assert np.allclose(out[:, 0], [0, 2, 4])


class TestMotion:
    def test_piecewise_segments(self):
        motion = Motion((
            MotionState(r0=[0, 0, 0], v0=[1, 0, 0], t_ref=0.0),
            MotionState(r0=[2, 0, 0], v0=[0, 1, 0], t_ref=2.0),
        ))
        assert np.allclose(motion.position(1.0), [1, 0, 0])
        assert np.allclose(motion.position(3.0), [2, 1, 0])

    def test_segments_must_increase(self):
        with pytest.raises(ValueError):
            Motion((MotionState(r0=[0, 0, 0], t_ref=1.0),
                    MotionState(r0=[0, 0, 0], t_ref=1.0)))

    def test_displacement_zero_at_epoch(self):
        motion = Motion((MotionState(r0=[5, 5, 5], v0=[1, 2, 0], a0=[0, 0.5, 0]),))
        assert np.array_equal(motion.displacement(0.0), [0, 0, 0])

    @pytest.mark.parametrize("segments", [1, 3])
    @pytest.mark.parametrize("shape", [(), (7,), (2, 5), (2, 0)])
    def test_array_times_keep_their_shape(self, segments, shape):
        """position, velocity and displacement return t.shape + (3,), each
        entry the scalar evaluation at that time (before the first segment,
        inside each, and past the last)."""
        motion = Motion(tuple(
            MotionState(r0=[k, 0, 1], v0=[1, -k, 0], a0=[0, 0.5, k], t_ref=2.0 * k)
            for k in range(segments)))
        t = np.linspace(-1.0, 7.0, int(np.prod(shape))).reshape(shape)
        for method in (motion.position, motion.velocity, motion.displacement):
            got = method(t)
            assert got.shape == shape + (3,)
            for index in np.ndindex(shape):
                assert np.array_equal(got[index], method(float(t[index])))

    def test_static_displacement_shape(self):
        motion = Motion.stationary([1, 2, 3])
        assert motion.displacement(0.5).shape == (3,)
        assert motion.displacement(np.zeros((2, 4))).shape == (2, 4, 3)

    def test_segment_lookup_imports_no_masked_arrays(self):
        """Grouping samples by segment needs no np.unique, whose first call
        imports numpy.ma."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import raychan
        env = dict(os.environ, PYTHONPATH=str(Path(raychan.__file__).resolve().parents[1]))
        code = ("import sys\n"
                "import numpy as np\n"
                "from raychan import Motion, MotionState\n"
                "m = Motion((MotionState([0, 0, 0], [1, 0, 0]),\n"
                "            MotionState([1, 0, 0], [0, 1, 0], t_ref=1.0)))\n"
                "m.position(np.linspace(0, 2, 9).reshape(3, 3))\n"
                "m.velocity(np.linspace(0, 2, 9))\n"
                "print('numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert out.strip() == "False"


def _square_facet(side=1.0, z=0.0):
    h = side / 2.0
    return Facet(id="sq", vertices=np.array(
        [[-h, -h, z], [h, -h, z], [h, h, z], [-h, h, z]]))


class TestSceneAt:
    def test_stationary_scene_identical(self):
        f = _square_facet()
        sc = Scene(facets=(f,), edges=(), tx_motion=Motion.stationary([0, 0, 1]),
                   rx_motion=Motion.stationary([0, 1, 1]), frequency=6e9)
        g = scene_at(sc, 17.3)
        assert np.array_equal(g.facets.origins[0], f.vertices)

    def test_moving_facet_shifts_rigidly(self):
        f = Facet(id="sq", vertices=_square_facet().vertices,
                  motion=Motion((MotionState(r0=[0, 0, 0], v0=[1, 0, 0]),)))
        sc = Scene(facets=(f,), edges=(), tx_motion=Motion.stationary([0, 0, 1]),
                   rx_motion=Motion.stationary([0, 1, 1]), frequency=6e9)
        g = scene_at(sc, 1.0)
        assert np.allclose(g.facets.origins[0], f.vertices + [1, 0, 0])
        # every facet and edge of random scenes at t by the one rule, bit for
        # bit: the epoch arrays translated by each facet's displacement, the
        # plane offset by shifted_offsets, and each edge by its first facet's
        moved = [0, 0]
        for seed in range(12):
            scene = random_scene(seed)
            epoch = scene.statics().epoch
            for t in np.linspace(0.0, 3.0, 31).tolist():
                g = scene_at(scene, t)
                for i, facet in enumerate(scene.facets):
                    d = facet.motion.displacement(t)
                    nv = len(facet.vertices)
                    assert np.array_equal(g.facets.origins[i, :nv], facet.vertices + d)
                    assert g.facets.offsets[i] == shifted_offsets(facet.normal,
                                                                  epoch.offsets[i], d)
                    assert np.array_equal(g.facets.lo[i], epoch.lo[i] + d)
                    assert np.array_equal(g.facets.hi[i], epoch.hi[i] + d)
                    assert np.array_equal(g.facets.normals[i], facet.normal)
                    moved[0] += bool(d.any())
                for k, e in enumerate(scene.edges):
                    d = scene.facets[scene.facet_index[e.adjacent_facets[0]]].motion \
                        .displacement(t)
                    assert np.array_equal(g.edges[k], e.endpoints + d)
                    moved[1] += bool(d.any())
        assert min(moved) > 100

    def test_generator_vehicles_advance(self):
        from raychan import generate_v2v_scenario
        sc = generate_v2v_scenario(seed=0)
        g0, g1 = scene_at(sc, 0.0), scene_at(sc, 0.1)
        assert np.linalg.norm(g1.tx - g0.tx) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(g1.rx - g0.rx) == pytest.approx(1.0, abs=1e-12)


class TestFacetNormal:
    """Newell's method runs on the vertices relative to the first one, so a
    facet's normal does not depend on where it sits."""

    def test_thin_oblique_needle_on_a_plane(self):
        # 1e-5 m x 2 m, oblique within y = -5: on absolute coordinates its
        # normal tilted by about 2e-11
        along = np.array([math.cos(0.7), 0.0, math.sin(0.7)])
        out = np.array([-along[2], 0.0, along[0]])
        corner = np.array([1.3, -5.0, 0.9])
        needle = np.array([corner, corner - 2.0 * out,
                           corner - 2.0 * out + 1e-5 * along, corner + 1e-5 * along])
        needle[:, 1] = -5.0
        assert Facet(id="needle", vertices=needle).normal.tolist() == [0.0, -1.0, 0.0]

    def test_translated_copy_has_the_same_normal(self):
        # thin quads on a 2**-20 grid moved by multiples of 2**10: the copies'
        # vertices are exact, and so are their differences
        rng = np.random.default_rng(3)
        for _ in range(20):
            corner, u = rng.normal(size=3), 2.0 * rng.normal(size=3)
            w = np.cross(u, rng.normal(size=3))
            w *= 1e-3 / np.linalg.norm(w)
            quad = np.round(np.array([corner, corner + u, corner + u + w, corner + w])
                            * 2.0 ** 20) / 2.0 ** 20
            shift = rng.integers(-1000, 1000, size=3) * 1024.0
            normals = polygon_frames(np.stack([quad + shift, quad]))[0]
            assert np.array_equal(normals[0], normals[1])


class TestPointInFacet:
    def test_centroid_of_unit_square(self):
        g = scene_at(Scene(facets=(_square_facet(),), edges=(),
                           tx_motion=Motion.stationary([0, 0, 1]),
                           rx_motion=Motion.stationary([1, 1, 1]),
                           frequency=6e9), 0.0)
        inside, d = point_in_facet(np.array([0.0, 0.0, 0.0]), g, "sq")
        assert inside and d == pytest.approx(0.5, abs=1e-12)

    def test_outside_distance(self):
        g = scene_at(Scene(facets=(_square_facet(),), edges=(),
                           tx_motion=Motion.stationary([0, 0, 1]),
                           rx_motion=Motion.stationary([1, 1, 1]),
                           frequency=6e9), 0.0)
        inside, d = point_in_facet(np.array([0.7, 0.0, 0.0]), g, "sq")
        assert not inside and d == pytest.approx(-0.2, abs=1e-12)

    def test_vertex_is_boundary(self):
        g = scene_at(Scene(facets=(_square_facet(),), edges=(),
                           tx_motion=Motion.stationary([0, 0, 1]),
                           rx_motion=Motion.stationary([1, 1, 1]),
                           frequency=6e9), 0.0)
        _inside, d = point_in_facet(np.array([0.5, 0.5, 0.0]), g, "sq")
        assert abs(d) < 1e-9

    def test_off_plane_rejected(self):
        g = scene_at(Scene(facets=(_square_facet(),), edges=(),
                           tx_motion=Motion.stationary([0, 0, 1]),
                           rx_motion=Motion.stationary([1, 1, 1]),
                           frequency=6e9), 0.0)
        with pytest.raises(SceneError):
            point_in_facet(np.array([0.0, 0.0, 0.01]), g, "sq")

    def test_sign_changes_once_across_boundary(self):
        g = scene_at(Scene(facets=(_square_facet(),), edges=(),
                           tx_motion=Motion.stationary([0, 0, 1]),
                           rx_motion=Motion.stationary([1, 1, 1]),
                           frequency=6e9), 0.0)
        signs = []
        for x in np.linspace(0.0, 1.0, 400):
            _, d = point_in_facet(np.array([x, 0.11, 0.0]), g, "sq")
            signs.append(d >= 0.0)
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1


class TestValidation:
    def test_material_invariants(self):
        with pytest.raises(SceneError):
            Material(rel_permittivity=0.5)
        with pytest.raises(SceneError):
            Material(conductivity=-1.0)
        with pytest.raises(SceneError):
            Material(attenuation_alpha=float("inf"), transparent=True)

    def test_facet_needs_convex_planar(self):
        with pytest.raises(SceneError):
            Facet(id="bad", vertices=np.array(
                [[0, 0, 0], [1, 0, 0], [1, 1, 0.5], [0, 1, 0]]))
        with pytest.raises(SceneError):  # concave ordering
            Facet(id="bad", vertices=np.array(
                [[0, 0, 0], [1, 0, 0], [0.2, 0.2, 0], [0, 1, 0]]))

    def test_edge_invariants(self):
        with pytest.raises(SceneError):
            Edge(id="e", endpoints=np.array([[0, 0, 0], [0, 0, 0]]),
                 adjacent_facets=("a", "a"), exterior_wedge_angle=2 * np.pi)
        with pytest.raises(SceneError):
            Edge(id="e", endpoints=np.array([[0, 0, 0], [0, 0, 1]]),
                 adjacent_facets=("a", "a"), exterior_wedge_angle=np.pi / 2)

    def test_scene_unique_ids_and_edge_on_plane(self):
        f = _square_facet()
        with pytest.raises(SceneError):
            Scene(facets=(f, f), edges=(), tx_motion=Motion.stationary([0, 0, 1]),
                  rx_motion=Motion.stationary([1, 1, 1]), frequency=6e9)
        off_edge = Edge(id="e", endpoints=np.array([[0, 0, 1], [0, 1, 1]]),
                        adjacent_facets=("sq", "sq"),
                        exterior_wedge_angle=2 * np.pi)
        with pytest.raises(SceneError):
            Scene(facets=(f,), edges=(off_edge,),
                  tx_motion=Motion.stationary([0, 0, 1]),
                  rx_motion=Motion.stationary([1, 1, 1]), frequency=6e9)


def _corner(move_b: Motion | None = None):
    """Two walls meeting at a vertical corner edge; wall b may move."""
    a = Facet(id="a", vertices=np.array(
        [[0, 0, 0], [0, 0, 3], [4, 0, 3], [4, 0, 0]], float))
    b = Facet(id="b", vertices=np.array(
        [[0, 0, 0], [0, 4, 0], [0, 4, 3], [0, 0, 3]], float),
        motion=move_b or Motion.stationary(np.zeros(3)))
    edge = Edge(id="corner", endpoints=np.array([[0, 0, 0], [0, 0, 3]], float),
                adjacent_facets=("a", "b"), exterior_wedge_angle=1.5 * np.pi)
    return Scene(facets=(a, b), edges=(edge,),
                 tx_motion=Motion.stationary([3, 3, 1.5]),
                 rx_motion=Motion.stationary([5, 5, 1.5]), frequency=6e9)


class TestEdgeMotion:
    def test_facets_moving_differently_rejected(self):
        moving = Motion((MotionState(np.zeros(3), v0=np.array([1.0, 0, 0])),))
        with pytest.raises(SceneError, match="move differently"):
            _corner(moving)

    def test_later_motion_segment_counts(self):
        turns = Motion((MotionState(np.zeros(3)),
                        MotionState(np.zeros(3), v0=np.array([0, 0, 1.0]), t_ref=5.0)))
        with pytest.raises(SceneError, match="move differently"):
            _corner(turns)

    def test_static_facets_accepted(self):
        assert len(_corner().edges) == 1

    def test_same_displacement_accepted(self):
        a = Motion((MotionState(np.zeros(3), v0=np.array([1.0, 2.0, 0.0])),))
        b = Motion((MotionState(np.array([7.0, 0, 0]), v0=np.array([1.0, 2.0, 0.0])),
                    MotionState(np.array([10.0, 6.0, 0]), v0=np.array([1.0, 2.0, 0.0]),
                                t_ref=3.0)))
        assert a.moves_with(b) and b.moves_with(a)
        assert not a.moves_with(Motion.stationary(np.zeros(3)))


_coord = st.floats(-50.0, 50.0, allow_nan=False)
_vec = st.tuples(_coord, _coord, _coord).map(np.array)


@st.composite
def _motions(draw):
    n = draw(st.integers(1, 3))
    t_refs = sorted(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n,
                                  unique=True)))
    return Motion(tuple(MotionState(r0=draw(_vec), v0=draw(_vec), a0=draw(_vec),
                                    t_ref=t) for t in t_refs))


@st.composite
def _scenes(draw):
    """Scenes of random rectangles, some carrying an edge on one side."""
    facets, edges = [], []
    for i in range(draw(st.integers(0, 4))):
        center = draw(_vec)
        az = draw(st.floats(0.0, math.pi))
        tilt = draw(st.floats(0.0, math.pi / 2))
        u = np.array([math.cos(az), math.sin(az), 0.0])
        v = np.array([-math.sin(az) * math.cos(tilt), math.cos(az) * math.cos(tilt),
                      math.sin(tilt)])
        a, b = draw(st.floats(0.5, 20.0)), draw(st.floats(0.5, 20.0))
        verts = np.array([center - a * u - b * v, center + a * u - b * v,
                          center + a * u + b * v, center - a * u + b * v])
        material = Material(rel_permittivity=draw(st.floats(1.0, 20.0)),
                            conductivity=draw(st.floats(0.0, 5.0)),
                            attenuation_alpha=draw(st.floats(0.0, 5.0)),
                            transparent=draw(st.booleans()))
        motion = draw(st.one_of(st.just(Motion.stationary(np.zeros(3))), _motions()))
        facets.append(Facet(id=f"f{i}", vertices=verts, material=material,
                            motion=motion, thickness=draw(st.floats(0.01, 1.0))))
        if draw(st.booleans()):
            edges.append(Edge(id=f"f{i}_edge", endpoints=verts[:2],
                              adjacent_facets=(f"f{i}", f"f{i}"),
                              exterior_wedge_angle=2.0 * math.pi))
    tx = draw(_motions())
    # a scene whose Tx and Rx share one trajectory is invalid
    rx = draw(_motions().filter(lambda m: not (
        m.moves_with(tx) and np.linalg.norm(m.position(0.0) - tx.position(0.0)) < 1e-9)))
    return Scene(facets=tuple(facets), edges=tuple(edges),
                 tx_motion=tx, rx_motion=rx,
                 frequency=draw(st.floats(1e8, 1e11)),
                 tx_power_dbm=draw(st.floats(-30.0, 60.0)))


def _numeric_leaves(node, path=()):
    """Paths to every number of a scene document (booleans excluded)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numeric_leaves(value, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


_FILE_SETTINGS = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                                 HealthCheck.too_slow])


class TestSceneFileProperties:
    @_FILE_SETTINGS
    @given(scene=_scenes())
    def test_round_trip_loses_nothing(self, tmp_path, scene):
        p = tmp_path / "scene.json"
        save_scene(scene, p)
        loaded = load_scene(p)
        assert loaded.frequency == scene.frequency
        assert loaded.tx_power_dbm == scene.tx_power_dbm
        for got, want in zip(loaded.facets, scene.facets):
            assert got.id == want.id and got.material == want.material
            assert got.thickness == want.thickness
            assert np.array_equal(got.vertices, want.vertices)
            assert _same_motion(got.motion, want.motion)
        for got, want in zip(loaded.edges, scene.edges):
            assert (got.id, got.adjacent_facets, got.exterior_wedge_angle) == \
                (want.id, want.adjacent_facets, want.exterior_wedge_angle)
            assert np.array_equal(got.endpoints, want.endpoints)
        assert len(loaded.facets) == len(scene.facets)
        assert len(loaded.edges) == len(scene.edges)
        assert _same_motion(loaded.tx_motion, scene.tx_motion)
        assert _same_motion(loaded.rx_motion, scene.rx_motion)
        again = tmp_path / "again.json"
        save_scene(loaded, again)
        assert again.read_bytes() == p.read_bytes()

    @_FILE_SETTINGS
    @given(scene=_scenes(), data=st.data(),
           value=st.sampled_from([NAN, INF, -INF]))
    def test_non_finite_anywhere_rejected(self, tmp_path, scene, data, value):
        p = tmp_path / "scene.json"
        save_scene(scene, p)
        doc = json.loads(p.read_text())
        where = data.draw(st.sampled_from(sorted(_numeric_leaves(doc), key=repr)))
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(SceneError):
            load_scene(p)


def _same_motion(a: Motion, b: Motion) -> bool:
    return len(a.segments) == len(b.segments) and all(
        s.t_ref == o.t_ref and np.array_equal(s.r0, o.r0)
        and np.array_equal(s.v0, o.v0) and np.array_equal(s.a0, o.a0)
        for s, o in zip(a.segments, b.segments))


class TestSceneFile:
    def test_round_trip(self, tmp_path, default_scene):
        p = tmp_path / "scene.json"
        save_scene(default_scene, p)
        loaded = load_scene(p)
        assert len(loaded.facets) == len(default_scene.facets)
        assert loaded.frequency == default_scene.frequency
        f0, f1 = default_scene.facets[0], loaded.facets[0]
        assert np.array_equal(f0.vertices, f1.vertices)
        assert f0.material == f1.material

    def test_deterministic_output(self, tmp_path, default_scene):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(default_scene, p1)
        save_scene(default_scene, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_file_raises(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"frequency_hz": 6e9}))
        with pytest.raises(SceneError):
            load_scene(p)

    @pytest.mark.parametrize("where,value", [
        (("facets", 0, "material", "rel_permittivity"), NAN),
        (("facets", 0, "material", "conductivity"), NAN),
        (("facets", 0, "vertices", 1, 2), NAN),
        (("facets", 0, "thickness_m"), INF),
        (("facets", 0, "motion_segments", 0, "a0", 0), NAN),
        (("edges", 0, "endpoints", 1, 0), NAN),
        (("frequency_hz",), NAN),
        (("frequency_hz",), INF),
        (("tx_power_dbm",), NAN),
        (("tx", "motion_segments", 0, "v0", 1), NAN),
        (("tx", "motion_segments", 0, "t_ref"), INF),
        (("rx", "motion_segments", 0, "r0", 0), INF),
    ], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v))
    def test_non_finite_value_rejected(self, tmp_path, default_scene, where, value):
        p = tmp_path / "scene.json"
        save_scene(default_scene, p)
        doc = json.loads(p.read_text())
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        p.write_text(json.dumps(doc))  # written as NaN / Infinity
        with pytest.raises(SceneError):
            load_scene(p)
