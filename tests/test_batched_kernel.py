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
from raychan import rt
from raychan.cli import execute_run, main
from raychan.io import write_manifest_json
from raychan.rt import (
    SIDE_EPS,
    ConstructionError,
    box_overlap,
    build_geometry,
    fermat_points,
    slab_crossings,
    slots_of,
    solve_backbone,
)

from scalar_forms import broadcast_motion_law


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
        assert geo.shape == full.shape == valid.shape == (len(paths), times.size)
        for p, path in enumerate(paths):
            single = PathTrajectory(path, scene)
            own = query if query.ndim == 1 else query[p:p + 1]
            g1, f1 = single.existence_scan(own)
            assert np.array_equal(geo[p], g1[0])
            assert np.array_equal(full[p], f1[0])
            assert np.array_equal(valid[p] >= 0.0,
                                  single.validity_scan(own, include[p])[0] >= 0.0)


@pytest.mark.parametrize("scene, t0, times", CASES, ids=IDS)
def test_margin_signs_are_the_masks(scene, t0, times):
    """Every margin is >= 0 exactly where its mask holds, at every sample,
    also when the scan leaves paths out of the crossing call."""
    paths = _paths(scene, t0)
    batch = PathTrajectory(paths, scene)
    include = np.arange(len(paths)) % 2 == 0
    plain = ~(batch.pen_seg >= 0).any(axis=1)
    crossing = ~plain | (np.arange(len(paths)) % 3 == 0)
    for query in (times, _per_path_times(times, len(paths))):
        geo, full = batch.existence_scan(query)
        geo_m, full_m = batch.existence_scan(query, margins=True)
        assert geo_m.dtype == full_m.dtype == float
        assert not np.isnan(geo_m).any() and not np.isnan(full_m).any()
        assert np.array_equal(geo_m >= 0.0, geo)
        assert np.array_equal(full_m >= 0.0, full)
        assert np.array_equal(batch.validity_scan(query, include) >= 0.0,
                              np.where(include[:, None], full, geo))
        # the scan's narrower crossing call changes no tested row
        geo_c, full_c = batch.existence_scan(query, crossing)
        assert np.array_equal(geo_c, geo)
        assert np.array_equal(full_c[crossing], full[crossing])
        assert np.array_equal(full_c[~crossing], geo[~crossing])


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
    assert np.array_equal(traj.validity_scan(times, False) >= 0.0, geo)
    assert np.array_equal(traj.validity_scan(times, True) >= 0.0, full)


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
                    points = solve_backbone(geom, slots_of(sig).backbone)
                    want = build_geometry(geom, sig, points)
                except ConstructionError:
                    continue
                assert not g.failed[p, i]
                got = batch.path_geometry(g, p, i)
                assert got.signature == want.signature
                for name in ("vertices", "pen_points", "pen_params", "seg_lengths"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name
                assert got.total_length == want.total_length
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
    # symmetric about the plane normal to the edge at one end: u = 0 or 1
    # exactly, outside the open segment
    a[2, 0], d[2, 0] = (0.0, 0.0, 0.0), (0.0, 0.0, 2.0)
    tx[2, 3], rx[2, 3] = (1.0, 0.0, -1.0), (-1.0, 0.0, 1.0)
    tx[2, 2], rx[2, 2] = (1.0, 0.0, 1.0), (-1.0, 0.0, 3.0)
    points, ok, inside = fermat_points(tx, rx, a, d)
    assert not ok[0, 0] and ok[1, 1] and not inside[1, 1] and inside.any()
    _points, _ok, margin = fermat_points(tx, rx, a, d, margins=True)
    assert np.array_equal(margin >= 0.0, inside)
    assert points[2, 3].tolist() == [0.0, 0.0, 0.0]
    assert points[2, 2].tolist() == [0.0, 0.0, 2.0]

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


def _same_bits(got, want) -> bool:
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("n_tracks", [0, 1, 40])
@pytest.mark.parametrize("per_track", [False, True], ids=["static", "per-track"])
def test_box_overlap_is_the_broadcast_mask(n_tracks, per_track):
    """rt.box_overlap, built one axis at a time, is the np.all(..., axis=2)
    mask of the broadcast comparisons, bit for bit, against (F, 3) and
    per-track (G, F, 3) facet boxes: on an integer grid, where many boxes
    touch exactly on a face, with +-inf entries, and with zero tracks."""
    rng = np.random.default_rng(100 + n_tracks + per_track)
    n_facets = 30
    lo = rng.integers(-4, 4, (n_tracks, 3)).astype(float)
    hi = lo + rng.integers(0, 3, lo.shape)
    shape = (n_tracks, n_facets, 3) if per_track else (n_facets, 3)
    f_lo = rng.integers(-4, 4, shape).astype(float)
    f_hi = f_lo + rng.integers(0, 3, shape)
    for box in (lo, hi, f_lo, f_hi):
        flat = box.reshape(-1)
        some = rng.random(flat.size) < 0.05
        flat[some] = rng.choice([-np.inf, np.inf], np.count_nonzero(some))
    if n_tracks:
        own_lo, own_hi = (f_lo[0], f_hi[0]) if per_track else (f_lo, f_hi)
        lo[0], hi[0] = (0.0, 0.0, 0.0), (1.0, 2.0, 1.0)
        # facet 0 touches track 0's box on its +x face, facet 1 on its -z face
        own_lo[0], own_hi[0] = (1.0, 0.0, 0.0), (2.0, 2.0, 1.0)
        own_lo[1], own_hi[1] = (-1.0, -1.0, -np.inf), (2.0, 3.0, 0.0)
    got = box_overlap(lo, hi, f_lo, f_hi)
    want = np.all((lo[:, None, :] <= f_hi) & (hi[:, None, :] >= f_lo), axis=2)
    assert _same_bits(got, want) and got.shape == (n_tracks, n_facets)
    if n_tracks:
        assert got[0, :2].all()
    if n_tracks > 1:
        assert 0 < np.count_nonzero(got) < got.size


def _crossing_calls(scene, monkeypatch):
    """Every facet_crossings call of one E-DRT window (t_c 1 s, dt 0.1 s):
    the two RT passes, the lifetime scan's margins and the predictions'
    profiles, the last two with disp where facets move."""
    kernel, calls = rt.facet_crossings, []

    def spy(facets, a, d, track, exclude=None, disp=None, margins=False):
        calls.append((facets, a, d, track, exclude, disp, margins))
        return kernel(facets, a, d, track, exclude, disp, margins)

    monkeypatch.setattr(rt, "facet_crossings", spy)
    execute_run(scene, "edrt", 1.0, 0.1, 1.0)
    return kernel, calls


@pytest.mark.parametrize("case", ["street", "city", 0, 3, 9, 25])
def test_crossings_are_the_exact_test_on_every_pair(case, monkeypatch):
    """facet_crossings returns what rt._exact_crossings returns on every
    (row, facet) pair that the exclusions allow: the box test drops no
    crossing and changes no bit.  In margins mode every pair with a margin
    >= 0 comes back, and every pair that comes back has the exact test's
    margin.  Rows of the larger calls are sampled, 600 at most per call."""
    scene = {"street": generate_v2v_scenario(seed=0), "city": _city()}.get(case)
    scene = scene or random_scene(case)
    kernel, calls = _crossing_calls(scene, monkeypatch)
    rng = np.random.default_rng(3)
    crossed = dropped = 0
    for facets, a, d, track, exclude, disp, margins in calls:
        got = kernel(facets, a, d, track, exclude, disp, margins)
        rows = np.arange(a.shape[0])
        if rows.size > 600:
            rows = np.sort(rng.choice(rows, 600, replace=False))
        n_f = facets.lo.shape[0]
        si, fi = np.repeat(rows, n_f), np.tile(np.arange(n_f), rows.size)
        if exclude is not None:
            allowed = ~exclude[track[si], fi]
            si, fi = si[allowed], fi[allowed]
        want = rt._exact_crossings(facets, a, d, si, fi, disp, margins)
        got = [part[np.isin(got[0], rows)] for part in got]
        if not margins:
            assert all(_same_bits(x, y) for x, y in zip(got, want))
            crossed += got[0].size
            continue
        keys, got_keys = want[0] * n_f + want[1], got[0] * n_f + got[1]
        at = np.searchsorted(keys, got_keys)
        assert np.array_equal(keys[at], got_keys)
        assert _same_bits(got[2], want[2][at])
        assert np.isin(keys[want[2] >= 0.0], got_keys).all()
        dropped += keys.size - got_keys.size
    assert crossed > 0
    if isinstance(case, str):  # the box test drops most pairs of the larger scenes
        assert dropped > 0
    moving = any(not f.motion.is_static for f in scene.facets)
    assert any(c[5] is not None for c in calls) == moving


def _random_motion(rng, n_segments):
    starts = np.cumsum(rng.uniform(0.2, 2.0, n_segments)) - 1.0
    return Motion(tuple(MotionState(rng.normal(0.0, 20.0, 3), rng.normal(0.0, 8.0, 3),
                                    rng.normal(0.0, 3.0, 3), t_ref)
                        for t_ref in starts.tolist()))


@pytest.mark.parametrize("n_segments", [1, 2, 3])
@pytest.mark.parametrize("shape", [(), (7,), (40, 150), (3, 0)], ids=str)
def test_position_law_per_coordinate(n_segments, shape):
    """Motion.position, velocity and displacement on an array of times are
    the broadcast form of the law (scalar_forms.broadcast_motion_law) and
    the scalar evaluation at each entry, bit for bit: times before, inside
    and after the segments, the segment starts among them."""
    rng = np.random.default_rng(20 + n_segments)
    motion = _random_motion(rng, n_segments)
    starts = [m.t_ref for m in motion.segments]
    t = rng.uniform(starts[0] - 3.0, starts[-1] + 3.0, shape)
    t.reshape(-1)[:n_segments] = starts[:t.size]
    position, velocity = broadcast_motion_law(motion, t)
    origin = broadcast_motion_law(motion, 0.0)[0]
    got = motion.position(t), motion.velocity(t), motion.displacement(t)
    for x, y in zip(got, (position, velocity, position - origin)):
        assert _same_bits(x, y)
    for index in np.ndindex(*shape):
        at = float(t[index])
        assert _same_bits(got[0][index], motion.position(at))
        assert _same_bits(got[1][index], motion.velocity(at))
        assert _same_bits(got[2][index], motion.displacement(at))


def test_random_scenes_move_facets():
    moving = sum(not f.motion.is_static for scene, _t0, _times in CASES
                 for f in scene.facets)
    assert moving >= 12


class TestLifetimeWork:
    def test_sample_counts_are_pinned(self, edrt_default, tmp_path):
        """The batched scans do the per-path scans' work: the dt/20 grid in
        100-sample chunks with each path's early stop.  The root finder
        then takes two calls of three samples per bracket: the street's
        margins are close to linear over a scan step."""
        counters = edrt_default.counters
        assert counters["lifetime_scan_samples"] == 9100
        assert counters["lifetime_bisect_samples"] == 300
        write_manifest_json(edrt_default, tmp_path / "manifest.json")
        written = json.loads((tmp_path / "manifest.json").read_text())["counters"]
        assert written["lifetime_scan_samples"] == 9100
        assert written["lifetime_bisect_samples"] == 300


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
