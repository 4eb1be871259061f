"""The batched PathTrajectory kernel against a batch of one and against RT.

A PathTrajectory resolves many paths over many times at once.  Every query
on P paths must equal P single-path queries exactly, and wherever the RT
pass's scalar construction (solve_backbone, build_geometry) succeeds the
batched geometry must be that construction, bit for bit.  Neither benchmark
scene has a moving facet, so the random scenes below, half of whose facets
move, are what covers the displaced-facet branch.
"""

import json

import numpy as np
import pytest

from raychan import (
    Facet,
    Material,
    Mechanism,
    Motion,
    MotionState,
    PathTrajectory,
    Scene,
    SceneError,
    generate_v2v_scenario,
    random_scene,
    save_scene,
    scene_at,
    trace_snapshot,
)
from raychan.cli import main
from raychan.io import write_manifest_json
from raychan.rt import (
    SIDE_EPS,
    ConstructionError,
    _backbone_of,
    build_geometry,
    fermat_points,
    slab_crossings,
    solve_backbone,
)


def _city():
    return generate_v2v_scenario(seed=0, building_segments=16, length_m=400)


def _cases():
    """(scene, reference time, query times) triples."""
    street = generate_v2v_scenario(seed=0)
    yield street, 1.0, np.linspace(1.0, 2.0, 41)
    yield street, 4.0, np.linspace(3.5, 4.5, 23)
    yield _city(), 0.0, np.linspace(0.0, 1.0, 21)
    for seed in range(12):
        scene = random_scene(seed)
        yield scene, 0.5, np.linspace(0.0, 1.5, 31)


CASES = list(_cases())
IDS = ["street-1", "street-4", "city"] + [f"random-{s}" for s in range(12)]


def _paths(scene, t0):
    paths = trace_snapshot(scene, t0).paths
    assert paths
    return paths


def _per_path_times(times, n_paths):
    """(P, T) times: each path's row shifted by its own offset."""
    return times[None, :] + 0.013 * np.arange(n_paths)[:, None]


@pytest.mark.parametrize("scene, t0, times", CASES, ids=IDS)
def test_scans_equal_single_path_scans(scene, t0, times):
    paths = _paths(scene, t0)
    batch = PathTrajectory(paths, scene)
    rows = _per_path_times(times, len(paths))
    include = np.arange(len(paths)) % 2 == 0
    for query in (times, rows):
        geo, full = batch.existence_scan(query)
        valid = batch.validity_scan(query, include)
        assert geo.shape == full.shape == (len(paths), times.size)
        for p, path in enumerate(paths):
            single = PathTrajectory(path, scene)
            own = query if query.ndim == 1 else query[p:p + 1]
            g1, f1 = single.existence_scan(own)
            assert np.array_equal(geo[p], g1[0])
            assert np.array_equal(full[p], f1[0])
            assert np.array_equal(valid[p], single.validity_scan(own, include[p])[0])


def test_cases_see_transitions():
    """The comparisons above cover paths that stop or start existing."""
    with_transitions = 0
    for scene, t0, times in CASES:
        _geo, full = PathTrajectory(_paths(scene, t0), scene).existence_scan(times)
        with_transitions += not full.all()
    assert with_transitions >= len(CASES) // 2


def test_validity_without_occlusion_is_geometric():
    """A path through a glass pane is blocked by an opaque wall for part of
    the window: its occlusion must not reach the geometric validity."""
    glass = Material(rel_permittivity=6.27, conductivity=0.0043, transparent=True)
    pane = Facet(id="p", material=glass, vertices=np.array(
        [[-100, 10, -100], [100, 10, -100], [100, 10, 100], [-100, 10, 100]], float))
    wall = Facet(id="w", vertices=np.array(
        [[2, 15, -5], [4, 15, -5], [4, 15, 5], [2, 15, 5]], float))
    scene = Scene(facets=(pane, wall), edges=(), tx_motion=Motion.stationary([0, 0, 0]),
                  rx_motion=Motion((MotionState(r0=[-5, 20, 0], v0=[10, 0, 0]),)),
                  frequency=6e9)
    [path] = _paths(scene, 0.0)
    assert [m for m, _gid in path.signature] == [Mechanism.PENETRATION]
    traj = PathTrajectory(path, scene)
    times = np.linspace(0.0, 1.0, 41)
    geo, full = traj.existence_scan(times)
    assert geo.all() and not full.all()
    assert np.array_equal(traj.validity_scan(times, False), geo)
    assert np.array_equal(traj.validity_scan(times, True), full)


@pytest.mark.parametrize("scene, t0, times", CASES, ids=IDS)
def test_geometry_equals_single_path_geometry(scene, t0, times):
    paths = _paths(scene, t0)
    batch = PathTrajectory(paths, scene)
    rows = _per_path_times(times, len(paths))
    for query in (times, rows):
        resolved = batch.geometry_at(query)
        assert sorted(np.concatenate([g.index for g in resolved])) == \
            list(range(len(paths)))
        for g in resolved:
            for p, k in enumerate(g.index):
                own = query if query.ndim == 1 else query[k:k + 1]
                [one] = PathTrajectory(paths[k], scene).geometry_at(own)
                for field in ("vertices", "pen_points", "pen_params", "seg_lengths",
                              "total_length", "failed"):
                    got = getattr(g, field)[p]
                    want = getattr(one, field)[0]
                    if field in ("pen_points", "pen_params"):
                        n_pen = np.count_nonzero(one.pen_segments[0] >= 0)
                        got, want = got[:, :n_pen], want[:, :n_pen]
                    assert np.array_equal(got, want, equal_nan=True), field


@pytest.mark.parametrize("scene, t0, times", CASES, ids=IDS)
def test_geometry_is_the_rt_construction(scene, t0, times):
    """Wherever solve_backbone constructs, geometry_at returns its geometry."""
    paths = _paths(scene, t0)
    batch = PathTrajectory(paths, scene)
    resolved = batch.geometry_at(times)
    compared = 0
    for i, t in enumerate(times.tolist()):
        geom = scene_at(scene, t)
        for g in resolved:
            for p, k in enumerate(g.index):
                sig = paths[k].signature
                try:
                    points = solve_backbone(geom, _backbone_of(sig))
                    want = build_geometry(geom, sig, points)
                except ConstructionError:
                    continue
                assert not g.failed[p, i]
                got = batch.path_geometry(g, p, i, geom)
                assert all(np.array_equal(a, b) for a, b in zip(got.vertices, want.vertices))
                assert np.array_equal(got.seg_lengths, want.seg_lengths)
                assert got.total_length == want.total_length
                assert got.diffraction_split == want.diffraction_split
                assert [(h.segment, h.facet.id, h.t) for h in got.penetrations] == \
                    [(h.segment, h.facet.id, h.t) for h in want.penetrations]
                assert all(np.array_equal(a.point, b.point)
                           for a, b in zip(got.penetrations, want.penetrations))
                compared += 1
    assert compared > times.size


def test_kernels_over_rows_equal_a_batch_of_one():
    """fermat_points and slab_crossings over (P, T) rows equal their calls
    on each row alone, degenerate, clipped and parallel rows included."""
    rng = np.random.default_rng(7)
    n_paths, n_times = 4, 5
    a = rng.uniform(-3.0, 3.0, (n_paths, 1, 3))
    d = rng.uniform(-2.0, 2.0, (n_paths, 1, 3))
    tx = rng.uniform(-6.0, 6.0, (n_paths, n_times, 3))
    rx = rng.uniform(-6.0, 6.0, (n_paths, n_times, 3))
    # Tx and Rx on the edge line: degenerate
    tx[0, 0], rx[0, 0] = a[0, 0] + 0.25 * d[0, 0], a[0, 0] + 2.0 * d[0, 0]
    # both beyond the far end, on opposite sides of the line: clipped, u >= 1
    side = np.cross(d[1, 0], [0.0, 0.0, 1.0])
    tx[1, 1], rx[1, 1] = a[1, 0] + 3.0 * d[1, 0] + side, a[1, 0] + 4.0 * d[1, 0] - side
    points, ok, inside = fermat_points(tx, rx, a, d)
    assert not ok[0, 0] and ok[1, 1] and not inside[1, 1] and inside.any()

    normal = rng.normal(size=(n_paths, 1, 3))
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    normal[3, 0] = (0.0, 0.0, 1.0)
    offset = rng.uniform(-1.0, 1.0, (n_paths, 1))
    seg = rx - tx
    # parallel to the plane, exactly and within rounding
    seg[3, 2] = (1.0, 2.0, 0.0)
    seg[2, 4] = np.cross(normal[2, 0], seg[2, 4])
    pen_points, par, parallel = slab_crossings(tx, seg, normal, offset)
    assert parallel[3, 2] and parallel[2, 4] and not parallel.all()

    for p in range(n_paths):
        for t in range(n_times):
            one = fermat_points(tx[p, t], rx[p, t], a[p, 0], d[p, 0])
            assert np.array_equal(points[p, t], one[0], equal_nan=True)
            assert (ok[p, t], inside[p, t]) == (one[1], one[2])
            one = slab_crossings(tx[p, t], seg[p, t], normal[p, 0], offset[p, 0])
            assert np.array_equal(pen_points[p, t], one[0], equal_nan=True)
            assert np.array_equal(par[p, t], one[1], equal_nan=True)
            assert parallel[p, t] == one[2]


def test_random_scenes_move_facets():
    moving = sum(not f.motion.is_static for scene, _t0, _times in CASES
                 for f in scene.facets)
    assert moving >= 12


class TestLifetimeWork:
    def test_sample_counts_are_pinned(self, edrt_default, tmp_path):
        """The batched scans do the per-path scans' work: the dt/20 grid in
        100-sample chunks with each path's early stop, then two 80-point
        bisection levels per bracket."""
        counters = edrt_default.counters
        assert counters["lifetime_scan_samples"] == 9100
        assert counters["lifetime_bisect_samples"] == 8000
        write_manifest_json(edrt_default, tmp_path / "manifest.json")
        written = json.loads((tmp_path / "manifest.json").read_text())["counters"]
        assert written["lifetime_scan_samples"] == 9100
        assert written["lifetime_bisect_samples"] == 8000


class TestCoincidentTransceivers:
    def test_shared_trajectory_rejected(self, default_scene):
        with pytest.raises(SceneError, match="same trajectory"):
            Scene(facets=default_scene.facets, edges=default_scene.edges,
                  tx_motion=default_scene.tx_motion, rx_motion=default_scene.tx_motion,
                  frequency=default_scene.frequency)

    def test_shared_trajectory_exits_one(self, default_scene, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(default_scene, path)
        doc = json.loads(path.read_text())
        doc["rx"] = doc["tx"]
        path.write_text(json.dumps(doc))
        assert main(["run", "--scene", str(path), "--mode", "rt", "--tc", "1.0",
                     "--dt", "0.5", "--duration", "1.0",
                     "--out", str(tmp_path / "out")]) == 1

    def test_trace_at_a_meeting_raises(self, default_scene):
        # Rx drives into Tx and meets it at t = 1 s, a traced instant
        tx = default_scene.tx_motion
        meet = tx.position(1.0)
        rx = Motion((MotionState(r0=meet - np.array([5.0, 0.0, 0.0]),
                                 v0=np.array([5.0, 0.0, 0.0]), t_ref=0.0),))
        scene = Scene(facets=default_scene.facets, edges=default_scene.edges,
                      tx_motion=Motion.stationary(meet), rx_motion=rx,
                      frequency=default_scene.frequency)
        assert np.linalg.norm(scene.rx_motion.position(1.0) - meet) < SIDE_EPS
        trace_snapshot(scene, 0.5)
        with pytest.raises(SceneError, match="coincide"):
            trace_snapshot(scene, 1.0)
