"""One-pass facet validation: the batched polygon kernel, the loader built on
it, and the order in which invalid facets are reported; and the edge frames
that a scene builds once, at construction."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raychan.scene
from raychan import (
    Edge,
    Facet,
    Material,
    Scene,
    SceneError,
    generate_v2v_scenario,
    load_scene,
    random_scene,
    save_scene,
    trace_snapshot,
)
from raychan.geometry import POLYGON_FAILURES, polygon_frames, wedge_frame
from raychan.rt import Mechanism


def _rotation(a, b, c):
    ca, sa, cb, sb, cc, sc = (math.cos(a), math.sin(a), math.cos(b), math.sin(b),
                              math.cos(c), math.sin(c))
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cc, -sc], [0.0, sc, cc]])
    return rz @ ry @ rx


@st.composite
def _convex_polygon(draw, n_vertices):
    """A convex polygon inscribed in an ellipse whose minor semi-axis may be
    as thin as 1e-5 m, rotated and translated by up to 1e5 m."""
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n_vertices,
                                  max_size=n_vertices)))
    angles = draw(st.floats(0.0, 2 * math.pi)) + 2 * math.pi * np.cumsum(gaps) / gaps.sum()
    major = draw(st.floats(0.5, 20.0))
    minor = 10.0 ** draw(st.floats(-5.0, math.log10(major)))
    flat = np.stack([major * np.cos(angles), minor * np.sin(angles),
                     np.zeros(n_vertices)], axis=1)
    turn = _rotation(*(draw(st.floats(-math.pi, math.pi)) for _ in range(3)))
    shift = np.array([draw(st.floats(-1e5, 1e5)) for _ in range(3)])
    return flat @ turn.T + shift


@st.composite
def _polygon_batches(draw):
    n_vertices = draw(st.integers(3, 8))
    return np.stack(draw(st.lists(_convex_polygon(n_vertices), min_size=1, max_size=6)))


def _frames_bytes(normal, inward, vertices):
    offset = np.float64(vertices[0] @ normal)
    return normal.tobytes(), inward.tobytes(), offset.tobytes()


def _one_polygon(v):
    """Reference: normal and inward edge normals of one (V, 3) polygon, in
    the arithmetic of numpy's per-polygon forms."""
    rel = v - v[0]
    n = np.sum(np.cross(rel, np.roll(rel, -1, axis=0)), axis=0)
    n = n / float(np.sqrt(np.dot(n, n)))
    inward = np.cross(n, np.roll(v, -1, axis=0) - v)
    return n, inward / np.linalg.norm(inward, axis=1)[:, None]


class TestBatchIdentity:
    """The batched kernel equals its batch of one, and the per-polygon
    reference, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(batch=_polygon_batches())
    def test_random_convex_polygons(self, batch):
        normals, inward, failed = polygon_frames(batch)
        assert (failed == -1).all()
        for k, polygon in enumerate(batch):
            n1, e1, f1 = polygon_frames(polygon[None])
            assert f1[0] == -1
            want = _frames_bytes(*_one_polygon(polygon), polygon)
            assert _frames_bytes(normals[k], inward[k], polygon) == want
            assert _frames_bytes(n1[0], e1[0], polygon) == want

    @pytest.mark.parametrize("scene", [
        generate_v2v_scenario(seed=0),
        generate_v2v_scenario(seed=0, building_segments=16, length_m=400),
    ], ids=["street", "city"])
    def test_benchmark_scenes(self, scene):
        by_count = {}
        for f in scene.facets:
            by_count.setdefault(len(f.vertices), []).append(f)
        for facets in by_count.values():
            normals, inward, failed = polygon_frames(np.stack([f.vertices for f in facets]))
            assert (failed == -1).all()
            for f, n, e in zip(facets, normals, inward):  # Facet(...) is a batch of one
                want = _frames_bytes(*_one_polygon(f.vertices), f.vertices)
                assert _frames_bytes(n, e, f.vertices) == want
                assert _frames_bytes(f.normal, f.edge_inward, f.vertices) == want


def _assert_same_scene(loaded, scene):
    assert len(loaded.facets) == len(scene.facets)
    for got, want in zip(loaded.facets, scene.facets):
        assert (got.id, got.material, got.thickness) == (want.id, want.material,
                                                         want.thickness)
        for a, b in ((got.vertices, want.vertices), (got.normal, want.normal),
                     (got.edge_inward, want.edge_inward)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    for a, b in zip(loaded.statics().epoch, scene.statics().epoch):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRoundTrip:
    @pytest.mark.parametrize("kwargs", [{}, {"building_segments": 16, "length_m": 400}],
                             ids=["street", "city"])
    def test_generated_scene(self, tmp_path, kwargs):
        scene = generate_v2v_scenario(seed=0, **kwargs)
        save_scene(scene, tmp_path / "scene.json")
        _assert_same_scene(load_scene(tmp_path / "scene.json"), scene)

    def test_random_scenes_with_moving_facets_and_distinct_materials(self, tmp_path):
        moving = materials = 0
        for seed in range(20):
            scene = random_scene(seed)
            moving += sum(not f.motion.is_static for f in scene.facets)
            materials += len({f.material for f in scene.facets}) > 1
            save_scene(scene, tmp_path / "scene.json")
            _assert_same_scene(load_scene(tmp_path / "scene.json"), scene)
        assert moving and materials

    def test_facets_share_their_motion_and_material(self, tmp_path):
        scene = generate_v2v_scenario(seed=0, building_segments=16, length_m=400)
        save_scene(scene, tmp_path / "scene.json")
        loaded = load_scene(tmp_path / "scene.json")
        assert len({id(f.motion) for f in loaded.facets}) == 1
        assert (len({id(f.material) for f in loaded.facets})
                == len({f.material for f in loaded.facets}))


SQUARE = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
TRIANGLE = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
SHAPE, FINITE, ZERO_AREA, COPLANAR, CONVEX, ZERO_EDGE = (
    "polygon needs >= 3 vertices of dimension 3", *POLYGON_FAILURES)
THICKNESS = "thickness must be finite and positive"

INVALID = {
    "non-finite vertex": (
        {"vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, math.nan], [1.0, 1.0, 0.0]]}, FINITE),
    "two vertices": ({"vertices": SQUARE[:2]}, SHAPE),
    "two-dimensional": ({"vertices": [v[:2] for v in SQUARE]}, SHAPE),
    "non-planar": (
        {"vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.5], [0.0, 1.0, 0.0]]},
        COPLANAR),
    "concave": (
        {"vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.2, 0.2, 0.0], [0.0, 1.0, 0.0]]},
        CONVEX),
    "zero area": ({"vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]},
                  ZERO_AREA),
    "repeated vertex": ({"vertices": SQUARE[:2] + SQUARE[1:]}, ZERO_EDGE),
    "closing vertex": ({"vertices": SQUARE + SQUARE[:1]}, ZERO_EDGE),
    "zero thickness": ({"vertices": SQUARE, "thickness_m": 0.0}, THICKNESS),
    "negative thickness": ({"vertices": SQUARE, "thickness_m": -0.1}, THICKNESS),
}


def _write(path, facets):
    path.write_text(json.dumps({
        "frequency_hz": 6e9, "facets": facets, "edges": [],
        "tx": {"motion_segments": [{"r0": [0.0, 0.0, 5.0]}]},
        "rx": {"motion_segments": [{"r0": [5.0, 0.0, 5.0]}]}}))
    return path


def _raises(message, fid):
    return pytest.raises(SceneError, match=f"facet {re.escape(repr(fid))}: "
                                            f"{re.escape(message)}$")


class TestInvalidFacets:
    @pytest.mark.parametrize("kind", INVALID)
    def test_facet_constructor(self, kind):
        entry, message = INVALID[kind]
        with _raises(message, "bad"):
            Facet(id="bad", vertices=np.array(entry["vertices"], float),
                  thickness=entry.get("thickness_m", 0.2))

    @pytest.mark.parametrize("kind", INVALID)
    def test_loader_names_the_bad_facet(self, tmp_path, kind):
        entry, message = INVALID[kind]
        facets = [{"id": "a", "vertices": SQUARE}, {"id": "b", "vertices": TRIANGLE},
                  {"id": "bad", **entry}, {"id": "c", "vertices": SQUARE}]
        with _raises(message, "bad"):
            load_scene(_write(tmp_path / "scene.json", facets))

    def test_first_bad_facet_in_file_order(self, tmp_path):
        # the later triangle fails an earlier check, and its vertex count
        # comes first in the file
        facets = [{"id": "t0", "vertices": TRIANGLE},
                  {"id": "q1", "vertices": SQUARE, "thickness_m": 0.0},
                  {"id": "t2", **INVALID["zero area"][0]}]
        with _raises(THICKNESS, "q1"):
            load_scene(_write(tmp_path / "scene.json", facets))
        with _raises(ZERO_AREA, "t2"):
            load_scene(_write(tmp_path / "scene.json", facets[:1] + facets[2:]))

    def test_bad_geometry_before_bad_material(self, tmp_path):
        bad_material = {"rel_permittivity": 0.5}
        geometry = {"id": "g", **INVALID["concave"][0]}
        material = {"id": "m", "vertices": SQUARE, "material": bad_material}
        with _raises(CONVEX, "g"):
            load_scene(_write(tmp_path / "scene.json", [geometry, material]))
        with pytest.raises(SceneError, match="rel_permittivity"):
            load_scene(_write(tmp_path / "scene.json", [material, geometry]))

    def test_wall_with_a_repeated_vertex(self, tmp_path):
        # a 20 m wall whose repeated vertex used to give a NaN edge normal
        wall = [[0.0, 5.0, 0.0], [20.0, 5.0, 0.0], [20.0, 5.0, 0.0],
                [20.0, 5.0, 4.0], [0.0, 5.0, 4.0]]
        with _raises(ZERO_EDGE, "wall"):
            Facet(id="wall", vertices=np.array(wall), material=Material())
        with _raises(ZERO_EDGE, "wall"):
            load_scene(_write(tmp_path / "scene.json", [{"id": "wall", "vertices": wall}]))


INCONSISTENT = "declared exterior angle inconsistent with adjacent facets"


def _with_first_edge_angle(scene, angle):
    first, *rest = scene.edges
    bad = Edge(first.id, first.endpoints, first.adjacent_facets, angle)
    return Scene(facets=scene.facets, edges=(bad, *rest), tx_motion=scene.tx_motion,
                 rx_motion=scene.rx_motion, frequency=scene.frequency)


class TestEdgeFrames:
    def test_contradictory_edge_fails_at_construction(self):
        scene = generate_v2v_scenario(seed=0)
        edge_id = scene.edges[0].id
        with pytest.raises(SceneError, match=f"^edge {re.escape(repr(edge_id))}: "
                                             f"{INCONSISTENT}$"):
            _with_first_edge_angle(scene, 1.25 * math.pi)

    def test_contradictory_edge_fails_at_load(self, tmp_path):
        save_scene(generate_v2v_scenario(seed=0), tmp_path / "scene.json")
        doc = json.loads((tmp_path / "scene.json").read_text())
        doc["edges"][0]["exterior_wedge_angle"] = 1.25 * math.pi
        (tmp_path / "scene.json").write_text(json.dumps(doc))
        with pytest.raises(SceneError, match=f"edge {re.escape(repr(doc['edges'][0]['id']))}"):
            load_scene(tmp_path / "scene.json")

    def test_frames_come_from_the_epoch_and_serve_every_instant(self, monkeypatch):
        # seed 25 diffracts on a moving edge first at t = 1.5 s: the frame is
        # the epoch's, whichever pass needs it first
        scenes = (generate_v2v_scenario(seed=0), random_scene(25))
        moving = 0
        for scene in scenes:
            by_id = {f.id: f for f in scene.facets}
            for e in scene.edges:
                first, second = (by_id[fid] for fid in e.adjacent_facets)
                want = wedge_frame(e.endpoints, first.vertices, first.normal,
                                   second.vertices, e.exterior_wedge_angle)
                got = scene.frames[e.id]
                for name in ("e_hat", "a_o", "n_o"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert got.n_index == want.n_index
                moving += not first.motion.is_static
        assert moving

        # no pass builds a frame of its own: every diffraction it traces is
        # served by the frames its scene built
        def no_frame(*_args):
            raise AssertionError("a wedge frame was built after its scene")

        monkeypatch.setattr(raychan.scene, "wedge_frame", no_frame)
        for scene in scenes:
            snaps = [trace_snapshot(scene, t) for t in (1.5, 0.0, 2.7)]
            assert any(m is Mechanism.DIFFRACTION for snap in snaps for p in snap.paths
                       for m, _gid in p.signature)
