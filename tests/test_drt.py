import numpy as np
import pytest

from raychan import (
    Facet,
    Motion,
    MotionState,
    PathTrajectory,
    PredictionConfig,
    Scene,
    StageTimer,
    drt_run,
    random_scene,
    scene_at,
    trace_snapshot,
)
import raychan.drt as drt
import raychan.rt as rt
from raychan.cli import execute_run
from raychan.drt import shape_of
from raychan.rt import (
    ON_GEOMETRY_TOL,
    ConstructionError,
    Mechanism,
    PathRows,
    field_of_path,
    make_path,
    slots_of,
)
from raychan.runs import time_key

from scalar_forms import (
    field_on_floats,
    on_geometry,
    point_in_facet,
    predict_snapshot_drt,
    snapshot_at,
)
from test_edrt import _snapshot_bytes


def _paper_reflection_scene(y_lo=-100.0, y_hi=100.0, v_y=2.0):
    """Fixed Tx on the z axis, Rx moving along y at the same height, a large
    horizontal plane below: the reflection point moves at half the receiver
    velocity."""
    plane = Facet(id="pi", vertices=np.array(
        [[-50, y_lo, 0], [50, y_lo, 0], [50, y_hi, 0], [-50, y_hi, 0]], float))
    return Scene(
        facets=(plane,), edges=(),
        tx_motion=Motion.stationary([0, 0, 5.0]),
        rx_motion=Motion((MotionState(r0=[0, 6.0, 5.0], v0=[0, v_y, 0]),)),
        frequency=6e9)


def _corridor_scene():
    """Two parallel walls with the receiver driving between them: the
    double-reflection zig-zag paths move with the vehicles."""
    left = Facet(id="L", vertices=np.array(
        [[-4, -80, 0], [-4, 80, 0], [-4, 80, 6], [-4, -80, 6]], float))
    right = Facet(id="R", vertices=np.array(
        [[4, 80, 0], [4, -80, 0], [4, -80, 6], [4, 80, 6]], float))
    return Scene(
        facets=(left, right), edges=(),
        tx_motion=Motion((MotionState(r0=[-1, 0, 1.5], v0=[0, 10, 0]),)),
        rx_motion=Motion((MotionState(r0=[1.5, 14, 1.5], v0=[0, 10, 0]),)),
        frequency=6e9)


class TestInteractionTrajectory:
    def test_stationary_scene_constant(self):
        scene = _paper_reflection_scene(v_y=0.0)
        snap = trace_snapshot(scene, 0.0)
        path = snap.by_signature()[((Mechanism.REFLECTION, "pi"),)]
        traj = PathTrajectory(path, scene)
        p0 = traj.geometry_at(0.0).interactions()[0].point
        for t in (0.5, 3.0, 9.0):
            assert np.allclose(traj.geometry_at(t).interactions()[0].point, p0,
                               atol=1e-12)

    def test_reflection_point_moves_at_half_receiver_velocity(self):
        scene = _paper_reflection_scene(v_y=2.0)
        snap = trace_snapshot(scene, 0.0)
        path = snap.by_signature()[((Mechanism.REFLECTION, "pi"),)]
        traj = PathTrajectory(path, scene)
        h = 1e-4
        p_minus = traj.geometry_at(1.0 - h).interactions()[0].point
        p_plus = traj.geometry_at(1.0 + h).interactions()[0].point
        velocity = (p_plus - p_minus) / (2 * h)
        assert np.allclose(velocity, [0, 1.0, 0], atol=1e-6)

    def test_corridor_double_reflection_matches_fine_rt(self):
        scene = _corridor_scene()
        snap = trace_snapshot(scene, 0.0)
        doubles = [p for p in snap.paths
                   if sum(m is Mechanism.REFLECTION for m, _ in p.signature) == 2]
        assert doubles, "corridor should produce zig-zag paths"
        path = doubles[0]
        traj = PathTrajectory(path, scene)
        for t in np.arange(0.0, 1.0, 0.01):
            ref = trace_snapshot(scene, float(t)).by_signature().get(path.signature)
            assert ref is not None
            pts_traj = [i.point for i in traj.geometry_at(float(t)).interactions()]
            pts_rt = [i.point for i in ref.interactions]
            for a, b in zip(pts_traj, pts_rt):
                assert np.linalg.norm(a - b) < 1e-6

    def test_construction_failure_signaled(self):
        scene = _paper_reflection_scene()
        snap = trace_snapshot(scene, 0.0)
        path = snap.by_signature()[((Mechanism.REFLECTION, "pi"),)]
        # move the receiver below the plane: the same-side requirement breaks
        bad = Scene(facets=scene.facets, edges=(),
                    tx_motion=scene.tx_motion,
                    rx_motion=Motion((MotionState(r0=[0, 6, 5.0], v0=[0, 0, -2]),)),
                    frequency=6e9)
        traj = PathTrajectory(path, bad)
        from raychan import ConstructionError
        with pytest.raises(ConstructionError):
            traj.geometry_at(4.0)


class TestPredictSnapshotDrt:
    def test_zero_step_identity(self, default_scene):
        ref = trace_snapshot(default_scene, 1.0)
        pred = predict_snapshot_drt(ref, default_scene, 1.0)
        assert [p.signature for p in pred.paths] == [p.signature for p in ref.paths]
        for a, b in zip(pred.paths, ref.paths):
            assert abs(a.magnitude - b.magnitude) <= 1e-12 * max(b.magnitude, 1e-30)
            assert abs(a.delay - b.delay) <= 1e-12

    def test_structure_frozen_past_boundary(self):
        """The documented error mode: the specular point slides off the wall
        but the path is still reported."""
        wall = Facet(id="w", vertices=np.array(
            [[4, -10, 0], [4, 2, 0], [4, 2, 5], [4, -10, 5]][::-1], float))
        scene = Scene(facets=(wall,), edges=(),
                      tx_motion=Motion.stationary([0, -4, 1.5]),
                      rx_motion=Motion((MotionState(r0=[0, 0, 1.5], v0=[0, 10, 0]),)),
                      frequency=6e9)
        ref = trace_snapshot(scene, 0.0)
        sig = ((Mechanism.REFLECTION, "w"),)
        assert sig in ref.signature_set()
        # by t=0.9 the specular point (y = (rx_y - 4)/2 style) passed y=2
        pred = predict_snapshot_drt(ref, scene, 0.9)
        assert sig in pred.signature_set()
        pt = pred.by_signature()[sig].interactions[0].point
        geom = scene_at(scene, 0.9)
        assert not point_in_facet(pt, geom, "w")[0]  # outside the facet
        # while full RT has dropped it
        assert sig not in trace_snapshot(scene, 0.9).signature_set()

    def test_common_paths_match_full_rt_midwindow(self, default_scene):
        t0, t = 1.0, 1.5
        ref = trace_snapshot(default_scene, t0)
        pred = predict_snapshot_drt(ref, default_scene, t)
        rt = trace_snapshot(default_scene, t)
        pred_by = pred.by_signature()
        compared = 0
        for sig, truth in rt.by_signature().items():
            if sig not in ref.signature_set() or sig not in pred_by:
                continue
            p = pred_by[sig]
            assert abs(p.magnitude - truth.magnitude) / truth.magnitude < 0.01
            assert abs(p.delay - truth.delay) < 1e-12
            compared += 1
        assert compared >= 3


class TestDrtRun:
    def test_cadence_one_round(self, default_scene):
        run = drt_run(default_scene, PredictionConfig(t_c=1.0, dt=0.1, rounds=1))
        assert len(run.snapshots) == 11  # 2 traced + 9 predicted: closed grid
        assert run.rt_times == [0.0, 1.0]
        assert [round(s.time, 6) for s in run.snapshots] == \
            [round(0.1 * i, 6) for i in range(11)]

    def test_stationary_scene_all_identical(self):
        scene = _paper_reflection_scene(v_y=0.0)
        run = drt_run(scene, PredictionConfig(t_c=1.0, dt=0.25, rounds=2))
        base = run.snapshots[0]
        for snap in run.snapshots[1:]:
            assert snap.signature_set() == base.signature_set()
            for p, q in zip(snap.paths, base.paths):
                assert abs(p.magnitude - q.magnitude) <= 1e-12 * q.magnitude

    def test_structure_freeze_subset(self, drt_default, default_scene):
        ref_sets = {}
        for t in drt_default.rt_times:
            key = round(t, 6)
            ref_sets[key] = snapshot_at(drt_default, t).signature_set()
        for snap in drt_default.snapshots:
            t0 = np.floor(snap.time + 1e-9)
            if round(snap.time, 6) in ref_sets and snap.time == t0:
                continue
            if round(float(t0), 6) not in ref_sets:
                continue
            assert snap.signature_set() <= ref_sets[round(float(t0), 6)]


def _assert_run_is_instant_by_instant(scene, run, cfg):
    """Every prediction of run equals predict_snapshot_drt from its window's
    start pass, byte for byte, and so does the dropped_paths counter.
    Returns the number of dropped path instances."""
    references = [snapshot_at(run, t) for t in run.rt_times]
    timer = StageTimer()
    snapshots = []
    for ref in references[:-1]:
        snapshots.append(ref)
        snapshots.extend(predict_snapshot_drt(ref, scene, ref.time + j * cfg.dt, timer)
                         for j in range(1, cfg.steps_per_round))
    snapshots.append(references[-1])
    assert [_snapshot_bytes(s) for s in run.snapshots] == [_snapshot_bytes(s) for s in snapshots]
    assert run.counters["dropped_paths"] == timer.counters["dropped_paths"]
    return timer.counters["dropped_paths"]


class TestRunLevel:
    """drt_run advances every window in one query; each instant alone must
    give the same bytes."""

    def test_default_run_equals_instant_by_instant(self, default_scene, drt_default):
        cfg = PredictionConfig(t_c=1.0, dt=0.1, rounds=6)
        _assert_run_is_instant_by_instant(default_scene, drt_default, cfg)
        assert len(drt_default.snapshots) == 61

    def test_random_runs_equal_instant_by_instant(self):
        cfg = PredictionConfig(t_c=1.0, dt=0.1, rounds=3)
        dropped = {seed: _assert_run_is_instant_by_instant(scene, drt_run(scene, cfg), cfg)
                   for seed, scene in ((seed, random_scene(seed)) for seed in range(12))}
        # seeds 3 and 9 drop path instances whose construction fails
        assert dropped[3] > 0 and dropped[9] > 0


class TestArrayDiffractionCoefficients:
    """The field stage runs as one batch (rt.make_path) per RT pass and per
    DRT run, DRT's UTD pairs in one array call (rt.diffraction_coefficients)
    for every diffraction (row, instant) of the run; the rest of each field
    is the float chain's."""

    # the runs' dropped_paths, all of them constructions that fail outright
    DROPPED = {"street": 0, 0: 0, 3: 2, 9: 2, 20: 4, 24: 7}

    @pytest.mark.parametrize("case", ["street", 0, 3, 9, 20, 24])
    def test_fields_agree_with_the_float_chain(self, case, default_scene, monkeypatch):
        scene, duration = ((default_scene, 6.0) if case == "street"
                           else (random_scene(case), 3.0))
        run = execute_run(scene, "drt", 1.0, 0.1, duration)
        rt_keys = {time_key(t) for t in run.rt_times}
        diffracted = traced = 0
        for snap in run.snapshots:
            geom = scene_at(scene, snap.time)
            for p in snap.paths:
                if time_key(snap.time) in rt_keys:
                    # a pass's batch gives each path its batch of one and
                    # its float form, bit for bit
                    for want, power in (field_of_path(scene, geom, p.geometry),
                                        field_on_floats(scene, geom, p.geometry)):
                        assert p.field.tobytes() == want.tobytes() and p.power_dbm == power
                    traced += 1
                    continue
                want, _power = field_of_path(scene, geom,
                                             PathTrajectory(p, scene).geometry_at(snap.time))
                assert np.max(np.abs(p.field - want)) <= 1e-12 * np.linalg.norm(want)
                diffracted += Mechanism.DIFFRACTION in shape_of(p.signature)
        assert diffracted >= 10 and traced >= 10
        assert run.counters["dropped_paths"] == self.DROPPED[case]
        # with the pair left to the float chain, the same rows are dropped
        monkeypatch.setattr(drt, "diffraction_coefficients", lambda scene, edge, *_: (
            (np.zeros(edge.size), np.zeros(edge.size)), np.ones(edge.size, dtype=bool)))
        floats = execute_run(scene, "drt", 1.0, 0.1, duration)
        assert floats.counters["dropped_paths"] == run.counters["dropped_paths"]
        assert [s.signature_set() for s in floats.snapshots] == \
            [s.signature_set() for s in run.snapshots]
        if case == 24:
            assert run.counters["dropped_paths"] > 0


class TestBatchedDrops:
    """make_path drops the rows whose points leave their geometry, as the
    float check of each path alone does (scalar_forms.on_geometry), and the
    rows whose chain walk raises; the other rows keep their fields."""

    @pytest.mark.parametrize("case, t", [("street", 2.35), (3, 1.3)])
    def test_on_geometry_check_drops_the_rows_of_the_float_check(self, case, t,
                                                                  default_scene):
        scene = default_scene if case == "street" else random_scene(case)
        geom = scene_at(scene, t)
        paths = [p for p in trace_snapshot(scene, t).paths
                 if slots_of(p.signature).backbone]
        rng = np.random.default_rng(3)
        geometries = []
        for p in paths * 4:
            g = p.geometry
            vertices = g.vertices.copy()
            # a backbone point pushed off its plane or line, by 0.2 to 2 tolerances
            j = rng.integers(1, vertices.shape[0] - 1)
            step = rng.normal(size=3)
            vertices[j] += step / np.linalg.norm(step) * ON_GEOMETRY_TOL * rng.uniform(0.2, 2.0)
            geometries.append(g._replace(vertices=vertices))
        want = [on_geometry(scene, geom, g) for g in geometries]
        assert 0 < sum(want) < len(want)
        got = make_path(scene, PathRows.of(geometries, np.full(len(geometries), t)))
        assert [p is not None for p in got] == want
        for p, g in zip(got, geometries):
            if p is not None:
                field, power = field_on_floats(scene, geom, g)
                assert p.field.tobytes() == field.tobytes() and p.power_dbm == power
        if case == 3:
            # some rows lie on moving facets and edges
            statics = scene.statics()
            owners = {(m, int(statics.edge_facets[scene.edge_index[gid], 0])
                       if m is Mechanism.DIFFRACTION else scene.facet_index[gid])
                      for p in paths for m, gid in slots_of(p.signature).backbone}
            assert all(any(m is kind and f in statics.moving for m, f in owners)
                       for kind in (Mechanism.REFLECTION, Mechanism.DIFFRACTION))

    def test_walk_errors_drop_their_rows(self, default_scene, monkeypatch):
        t = 2.35
        paths = trace_snapshot(default_scene, t).paths
        rows = PathRows.of([p.geometry for p in paths], np.full(len(paths), t))
        calls = iter(range(len(paths)))
        walk = rt.polarization_chain

        def failing(*args):
            if next(calls) % 3 == 1:
                raise ConstructionError("grazing")
            return walk(*args)
        monkeypatch.setattr(rt, "polarization_chain", failing)
        got = make_path(default_scene, rows)
        assert [p is None for p in got] == [r % 3 == 1 for r in range(len(paths))]
        assert all(q.field.tobytes() == p.field.tobytes()
                   for p, q in zip(paths, got) if q is not None)
