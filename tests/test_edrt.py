import math

import numpy as np
import pytest

import raychan.edrt as edrt
from raychan import (
    Facet,
    MatchedPaths,
    Material,
    Motion,
    MotionState,
    PathTrajectory,
    PredictionConfig,
    Scene,
    StageTimer,
    edrt_run,
    error_report,
    field_of_path,
    match_paths,
    random_scene,
    scene_at,
    solve_lifetimes,
    trace_snapshot,
)
from raychan.cli import execute_run
from raychan.edrt import EdrtRound
from raychan.rt import Mechanism, Path, Snapshot
from raychan.runs import time_key

from scalar_forms import (
    birth_time,
    death_time,
    extrapolate_field,
    point_in_facet,
    predict_snapshot_edrt,
    reference_path,
    snapshot_at,
)


def _fake_path(sig):
    return Path(signature=sig, interactions=[], delay=1e-7,
                field=np.array([1.0, 0.0], complex), power_dbm=-60.0)


class TestMatchPaths:
    def test_identical_snapshots_all_common(self):
        sigs = [((Mechanism.REFLECTION, "a"),), ((Mechanism.DIFFRACTION, "e"),), ()]
        a = Snapshot(0.0, [_fake_path(s) for s in sigs])
        b = Snapshot(1.0, [_fake_path(s) for s in sigs])
        m = match_paths(a, b)
        assert len(m.common) == 3 and not m.dying and not m.born

    def test_birth_death_partition(self):
        f = lambda name: ((Mechanism.REFLECTION, name),)
        a = Snapshot(0.0, [_fake_path(f("F1")), _fake_path(f("F2")),
                           _fake_path(f("F3"))])
        b = Snapshot(1.0, [_fake_path(f("F1")), _fake_path(f("F2")),
                           _fake_path(f("F4"))])
        m = match_paths(a, b)
        assert {p.signature for p, _ in m.common} == {f("F1"), f("F2")}
        assert [p.signature for p in m.dying] == [f("F3")]
        assert [p.signature for p in m.born] == [f("F4")]
        # partition property
        assert len(m.common) + len(m.dying) == len(a.paths)
        assert len(m.common) + len(m.born) == len(b.paths)

    def test_disjoint_snapshots(self):
        a = Snapshot(0.0, [_fake_path(((Mechanism.REFLECTION, "x"),))])
        b = Snapshot(1.0, [_fake_path(((Mechanism.REFLECTION, "y"),))])
        m = match_paths(a, b)
        assert not m.common and len(m.dying) == 1 and len(m.born) == 1


def _analytic_birth_scene(v_y=2.0, start_y=6.0):
    """Horizontal plane bounded at y=4; fixed Tx above the origin; Rx moving
    along +y at the same height: the closed-form birth solve applies."""
    plane = Facet(id="pi", vertices=np.array(
        [[-20, 4, 0], [20, 4, 0], [20, 30, 0], [-20, 30, 0]], float))
    return Scene(facets=(plane,), edges=(),
                 tx_motion=Motion.stationary([0, 0, 5.0]),
                 rx_motion=Motion((MotionState(r0=[0, start_y, 5.0],
                                               v0=[0, v_y, 0]),)),
                 frequency=6e9)


class TestLifetimes:
    def test_birth_matches_closed_form_solution(self):
        # boundary y_d = 4, receiver at y=10 at the window end, V_y = 2:
        # (10 + dt*2)/2 = 4 gives dt = -1, so the path is born at t_end - 1
        scene = _analytic_birth_scene(v_y=2.0)
        sig = ((Mechanism.REFLECTION, "pi"),)
        assert sig not in trace_snapshot(scene, 0.0).signature_set()
        snap_b = trace_snapshot(scene, 2.0)
        assert sig in snap_b.signature_set()
        path = snap_b.by_signature()[sig]
        birth = birth_time(path, scene, 0.0, 2.0, dt=0.1)
        assert abs(birth - 1.0) <= 1e-10

    @pytest.mark.parametrize("dt", [0.1, 0.2])
    def test_occlusion_onset_and_clearing_match_closed_form(self, dt):
        # an opaque wall at x = 5, |y| <= 1, 0 <= z <= 4 between Tx at rest
        # at (0, 0, 1.5) and Rx passing from (10, -6.05, 1.5) at 4 m/s along
        # +y: the line of sight meets the wall's plane at y = y_rx / 2, so it
        # is blocked while |y_rx| <= 2, from 1.0125 s to 2.0125 s.  At dt
        # 0.2 s neither time is the centre of a scan step or of its thirds.
        wall = Facet(id="wall", vertices=np.array(
            [[5, -1, 0], [5, 1, 0], [5, 1, 4], [5, -1, 4]], float))
        scene = Scene(facets=(wall,), edges=(), tx_motion=Motion.stationary([0, 0, 1.5]),
                      rx_motion=Motion((MotionState(r0=[10, -6.05, 1.5], v0=[0, 4, 0]),)),
                      frequency=6e9)
        run = edrt_run(scene, PredictionConfig(t_c=1.0, dt=dt, rounds=3))
        [common, dying, born] = run.lifetimes
        assert [r.classification for r in run.lifetimes] == ["common", "dying", "born"]
        assert common.signature == dying.signature == born.signature == "LOS"
        assert dying.birth_s == 1.0 and abs(dying.death_s - 1.0125) <= 1e-10
        assert abs(born.birth_s - 2.0125) <= 1e-10 and born.death_s == 3.0
        assert run.counters["lifetime_fallbacks"] == 0

    @pytest.mark.parametrize("seed", [None, 0, 9])
    def test_event_times_are_the_roots_of_the_margins(self, seed, default_scene,
                                                       monkeypatch):
        """Every refined event time lies within 1e-10 s of the sign change
        that plain bisection on the validity margin finds in the scan's
        bracket, to 1e-12 s; random_scene(9) has an event whose margin
        jumps to -inf (a hard predicate), refined without interpolation."""
        import raychan.edrt
        refine = raychan.edrt._refine_transitions
        brackets = []

        def spy(traj, t_valid, t_invalid, include, timer):
            out = refine(traj, t_valid, t_invalid, include, timer)
            brackets.append((traj, t_valid, t_invalid, include, out))
            return out

        monkeypatch.setattr(raychan.edrt, "_refine_transitions", spy)
        scene = default_scene if seed is None else random_scene(seed)
        edrt_run(scene, PredictionConfig(t_c=1.0, dt=0.1, rounds=6 if seed is None else 3))
        [(traj, lo, hi, include, out)] = brackets
        lo, hi = lo.copy(), hi.copy()
        while np.any(np.abs(hi - lo) > 2e-12):
            mid = 0.5 * (lo + hi)
            valid = traj.validity_scan(mid[:, None], include)[:, 0] >= 0.0
            lo, hi = np.where(valid, mid, lo), np.where(valid, hi, mid)
        assert np.abs(out - 0.5 * (lo + hi)).max() <= 1e-10
        assert out.size >= (40 if seed is None else 3)

    def test_death_near_window_end(self):
        # mirrored setup: the specular point leaves the plane just before the
        # window end
        plane = Facet(id="pi", vertices=np.array(
            [[-20, -30, 0], [20, -30, 0], [20, 4, 0], [-20, 4, 0]], float))
        delta = 1e-4
        # specular y = y_rx/2 reaches the y=4 boundary at y_rx = 8; start so
        # that happens delta before the window end at t=4
        scene = Scene(facets=(plane,), edges=(),
                      tx_motion=Motion.stationary([0, 0, 5.0]),
                      rx_motion=Motion((MotionState(
                          r0=[0, 4.0 + 2.0 * delta, 5.0],
                          v0=[0, 2.0, 0], t_ref=2.0),)),
                      frequency=6e9)
        sig = ((Mechanism.REFLECTION, "pi"),)
        snap_a = trace_snapshot(scene, 2.0)
        assert sig in snap_a.signature_set()
        assert sig not in trace_snapshot(scene, 4.0).signature_set()
        path = snap_a.by_signature()[sig]
        death = death_time(path, scene, 2.0, 4.0, dt=0.1)
        assert death <= 4.0
        assert abs(death - (4.0 - delta)) <= 1e-6

    def test_birth_is_latest_point_entry(self):
        """Double reflection whose two specular points enter their facets at
        different instants: the path is born when the later one enters."""
        left = Facet(id="L", vertices=np.array(
            [[-4, 6, 0], [-4, 80, 0], [-4, 80, 6], [-4, 6, 6]][::-1], float))
        right = Facet(id="R", vertices=np.array(
            [[4, 14.5, 0], [4, 80, 0], [4, 80, 6], [4, 14.5, 6]], float))
        scene = Scene(
            facets=(left, right), edges=(),
            tx_motion=Motion((MotionState(r0=[-1, 0, 1.5], v0=[0, 10, 0]),)),
            rx_motion=Motion((MotionState(r0=[1.5, 10, 1.5], v0=[0, 10, 0]),)),
            frequency=6e9)
        sig = ((Mechanism.REFLECTION, "L"), (Mechanism.REFLECTION, "R"))
        assert sig not in trace_snapshot(scene, 0.0).signature_set()
        snap_b = trace_snapshot(scene, 1.0)
        assert sig in snap_b.signature_set()
        path = snap_b.by_signature()[sig]
        birth = birth_time(path, scene, 0.0, 1.0, dt=0.1)
        # per-point entry instants from the trajectory's polygon containment
        traj = PathTrajectory(path, scene)
        entries = []
        for idx in (0, 1):
            entered = None
            for t in np.arange(1.0, 0.0, -0.001):
                g = traj.geometry_at(float(t))
                geom = scene_at(scene, float(t))
                inter = g.interactions()[idx]
                if not point_in_facet(inter.point, geom, inter.geometry_id)[0]:
                    entered = float(t) + 0.001
                    break
            entries.append(entered if entered is not None else 0.0)
        assert abs(birth - max(entries)) < 2e-3
        assert abs(max(entries) - min(entries)) > 0.05  # genuinely staggered

    def test_unresolved_death_is_a_counted_fallback(self, caplog):
        # stationary scene: a path declared dying stays valid all window
        scene = _analytic_birth_scene(v_y=0.0, start_y=10.0)
        sig = ((Mechanism.REFLECTION, "pi"),)
        path = trace_snapshot(scene, 0.0).by_signature()[sig]
        m = MatchedPaths(common=[], dying=[path], born=[], t_start=0.0, t_end=1.0)
        with caplog.at_level("WARNING", logger="raychan.edrt"):
            lifetimes = solve_lifetimes([m], scene, 0.1)[0]
        assert sum(lt.fallback for lt in lifetimes.values()) == 1
        assert lifetimes[sig].death_time == pytest.approx(0.9)
        assert [r.getMessage()[:24] for r in caplog.records] == \
            ["edrt: no geometric death"]

    def test_run_counts_lifetime_fallbacks(self, monkeypatch):
        scene = _analytic_birth_scene(v_y=2.0)
        cfg = PredictionConfig(t_c=2.0, dt=0.5, rounds=1)
        assert edrt_run(scene, cfg).counters["lifetime_fallbacks"] == 0
        import raychan.edrt
        monkeypatch.setattr(raychan.edrt, "_transitions",
                            lambda traj, *args: np.full(len(traj.paths), np.nan))
        run = edrt_run(scene, cfg)
        assert [rec.classification for rec in run.lifetimes] == ["common", "born"]
        assert run.counters["lifetime_fallbacks"] == 1

    def test_lifetimes_vs_oracle_first_last(self, default_scene, oracle_default,
                                             edrt_default):
        from raychan.runs import time_key
        by_key = {time_key(s.time): s for s in oracle_default.snapshots}
        fine = 0.01
        checked = 0
        for rec in edrt_default.lifetimes:
            if rec.classification == "common":
                continue
            from raychan.rt import parse_signature
            sig = parse_signature(rec.signature)
            t0 = math.floor(min(rec.birth_s, rec.death_s) + 1e-9)
            times = [t0 + i * fine for i in range(0, 101)]
            present = [sig in by_key[time_key(t)].signature_set() for t in times]
            if rec.classification == "dying":
                if not present[0]:
                    continue  # transient at the bracket itself
                last = times[max(i for i, v in enumerate(present) if v)]
                assert rec.death_s <= times[-1] + 1e-9
                assert abs(rec.death_s - (last + fine)) <= fine + 1e-6 or \
                    abs(rec.death_s - last) <= fine + 1e-6
            else:
                if not present[-1]:
                    continue
                first = times[min(i for i, v in enumerate(present) if v)]
                assert abs(rec.birth_s - first) <= fine + 1e-6 or \
                    abs(rec.birth_s - (first - fine)) <= fine + 1e-6
            checked += 1
        assert checked >= 5


class TestPredictSnapshotEdrt:
    def test_window_start_identity(self, default_scene):
        a = trace_snapshot(default_scene, 1.0)
        b = trace_snapshot(default_scene, 2.0)
        m = match_paths(a, b)
        lifetimes = solve_lifetimes([m], default_scene, 0.1)[0]
        pred = predict_snapshot_edrt(m, lifetimes, default_scene, 1.0)
        assert pred.signature_set() == a.signature_set()
        a_by = a.by_signature()
        for p in pred.paths:
            q = a_by[p.signature]
            assert abs(p.magnitude - q.magnitude) <= 1e-12 * q.magnitude

    def test_presence_logic_for_birth(self):
        scene = _analytic_birth_scene(v_y=2.0)
        a = trace_snapshot(scene, 0.0)
        b = trace_snapshot(scene, 2.0)
        m = match_paths(a, b)
        lifetimes = solve_lifetimes([m], scene, 0.1)[0]
        sig = ((Mechanism.REFLECTION, "pi"),)
        assert sig in {p.signature for p in m.born}
        before = predict_snapshot_edrt(m, lifetimes, scene, 0.5)
        after = predict_snapshot_edrt(m, lifetimes, scene, 1.5)
        assert sig not in before.signature_set()
        assert sig in after.signature_set()

    def test_presence_logic_for_death(self):
        # receiver backs up: the path dies mid-window
        scene = _analytic_birth_scene(v_y=-2.0, start_y=10.0)
        sig = ((Mechanism.REFLECTION, "pi"),)
        a = trace_snapshot(scene, 0.0)
        b = trace_snapshot(scene, 2.0)
        assert sig in a.signature_set() and sig not in b.signature_set()
        m = match_paths(a, b)
        lifetimes = solve_lifetimes([m], scene, 0.1)[0]
        death = lifetimes[sig].death_time
        early = predict_snapshot_edrt(m, lifetimes, scene, death - 0.05)
        late = predict_snapshot_edrt(m, lifetimes, scene, death + 0.05)
        assert sig in early.signature_set()
        assert sig not in late.signature_set()


def _geometry_of(scene, t, sig):
    geom = scene_at(scene, t)
    snap = trace_snapshot(scene, t)
    path = snap.by_signature()[sig]
    traj = PathTrajectory(path, scene)
    return geom, traj.geometry_at(t, geom), path


def _extrapolated_magnitude(scene, geom_ref, g_ref, g_cur):
    """|E| extrapolated from the reference geometry to g_cur."""
    ref = reference_path(scene, geom_ref, g_ref)
    field2, _ = extrapolate_field(ref, g_cur, scene)
    return float(np.linalg.norm(field2))


class TestFieldExtrapolationOps:
    def test_reflection_identity(self):
        scene = _analytic_birth_scene(v_y=0.0, start_y=10.0)
        sig = ((Mechanism.REFLECTION, "pi"),)
        geom, g, path = _geometry_of(scene, 0.0, sig)
        out = _extrapolated_magnitude(scene, geom, g, g)
        assert out == pytest.approx(path.magnitude, rel=1e-12)

    def test_reflection_spreading_only_halves(self):
        # same incidence angles, doubled unfolded length: |E| halves
        plane = Facet(id="pi", vertices=np.array(
            [[-100, -100, 0], [100, -100, 0], [100, 100, 0], [-100, 100, 0]], float))
        def scene_for(scale):
            return Scene(facets=(plane,), edges=(),
                         tx_motion=Motion.stationary([0, 0, 2.0 * scale]),
                         rx_motion=Motion.stationary([0, 8.0 * scale, 2.0 * scale]),
                         frequency=6e9)
        sig = ((Mechanism.REFLECTION, "pi"),)
        geom1, g1, p1 = _geometry_of(scene_for(1.0), 0.0, sig)
        _geom2, g2, _p2 = _geometry_of(scene_for(2.0), 0.0, sig)
        out = _extrapolated_magnitude(scene_for(1.0), geom1, g1, g2)
        assert out == pytest.approx(p1.magnitude / 2.0, rel=1e-12)

    def test_diffraction_identity_and_far_limit(self):
        screen = Facet(id="w", vertices=np.array(
            [[-3000, 0, 0], [2, 0, 0], [2, 0, 8], [-3000, 0, 8]], float))
        from raychan import Edge
        edge = Edge(id="e", endpoints=np.array([[2, 0, 0], [2, 0, 8]], float),
                    adjacent_facets=("w", "w"), exterior_wedge_angle=2 * math.pi)
        def scene_for(d_p):
            # receiver retreats along the fixed diffracted ray direction;
            # the source side stays short so d_l << d_p
            direction = np.array([-3.0, 10.0, 0.0])
            direction /= np.linalg.norm(direction)
            rx = np.array([2.0, 0.0, 1.5]) + d_p * direction
            return Scene(facets=(screen,), edges=(edge,),
                         tx_motion=Motion.stationary([-1, -10, 1.5]),
                         rx_motion=Motion.stationary(rx), frequency=6e9)
        sig = ((Mechanism.DIFFRACTION, "e"),)
        geom1, g1, p1 = _geometry_of(scene_for(1000.0), 0.0, sig)
        out_same = _extrapolated_magnitude(scene_for(1000.0), geom1, g1, g1)
        assert out_same == pytest.approx(p1.magnitude, rel=1e-12)
        _g, g2, _p = _geometry_of(scene_for(2000.0), 0.0, sig)
        out = _extrapolated_magnitude(scene_for(1000.0), geom1, g1, g2)
        assert out == pytest.approx(p1.magnitude / 2.0, rel=6e-3)

    def test_mixed_pure_absorption(self):
        # vacuum slab with bulk loss: coefficients are exactly 1, so only
        # exp(-alpha d_T) changes when the crossing lengthens by 1/alpha
        alpha, thickness = 2.0, 0.5
        lossy_vacuum = Material(rel_permittivity=1.0, conductivity=0.0,
                                attenuation_alpha=alpha, transparent=True)
        pane = Facet(id="p", material=lossy_vacuum, thickness=thickness,
                     vertices=np.array([[-100, 10, -100], [100, 10, -100],
                                        [100, 10, 100], [-100, 10, 100]], float))
        span = 40.0
        def scene_for(cos_inc):
            # keep |tx-rx| fixed while changing the crossing angle
            dy = span * cos_inc
            dx = span * math.sqrt(1.0 - cos_inc * cos_inc)
            return Scene(facets=(pane,), edges=(),
                         tx_motion=Motion.stationary([0, 0, 0]),
                         rx_motion=Motion.stationary([dx, dy, 0]),
                         frequency=6e9)
        sig = ((Mechanism.PENETRATION, "p"),)
        # d_T grows from thickness to thickness + 1/alpha
        cos2 = thickness / (thickness + 1.0 / alpha)
        geom1, g1, p1 = _geometry_of(scene_for(1.0), 0.0, sig)
        _g, g2, _p = _geometry_of(scene_for(cos2), 0.0, sig)
        out = _extrapolated_magnitude(scene_for(1.0), geom1, g1, g2)
        assert out == pytest.approx(p1.magnitude / math.e, rel=1e-12)

    def test_random_paths_match_direct_computation(self, default_scene):
        rng = np.random.default_rng(5)
        t_ref = 1.0
        geom_ref = scene_at(default_scene, t_ref)
        snap = trace_snapshot(default_scene, t_ref)
        count = 0
        for path in snap.paths:
            traj = PathTrajectory(path, default_scene)
            for t in t_ref + rng.uniform(0.01, 0.99, size=3):
                geom = scene_at(default_scene, float(t))
                try:
                    g = traj.geometry_at(float(t), geom)
                    direct_field, _ = field_of_path(default_scene, geom, g)
                except Exception:
                    continue
                ref = reference_path(default_scene, geom_ref,
                                     traj.geometry_at(t_ref, geom_ref))
                result = extrapolate_field(ref, g, default_scene)
                if result is None:
                    continue
                field2, _ = result
                direct_mag = float(np.linalg.norm(direct_field))
                assert abs(float(np.linalg.norm(field2)) - direct_mag) \
                    <= 1e-9 * direct_mag
                count += 1
        assert count > 20

    def test_brewster_null_fallback(self):
        # lossless dielectric at the Brewster angle: the parallel reflection
        # coefficient is exactly zero, so extrapolation must signal fallback
        eps_r = 4.0
        brewster = math.atan(math.sqrt(eps_r))
        h = 3.0
        half = h * math.tan(brewster)
        ground = Facet(id="g", material=Material(rel_permittivity=eps_r,
                                                 conductivity=0.0),
                       vertices=np.array([[-50, -50, 0], [50, -50, 0],
                                          [50, 50, 0], [-50, 50, 0]], float))
        scene = Scene(facets=(ground,), edges=(),
                      tx_motion=Motion.stationary([0, -half, h]),
                      rx_motion=Motion.stationary([0, +half, h]),
                      frequency=6e9)
        sig = ((Mechanism.REFLECTION, "g"),)
        geom, g, _path = _geometry_of(scene, 0.0, sig)
        # ground bounce of a vertical launch is parallel-polarized: null
        ref = reference_path(scene, geom, g)
        assert extrapolate_field(ref, g, scene) is None


class TestEdrtRun:
    def test_rt_pass_count_is_rounds_plus_one(self, edrt_default):
        rounds = round(6.0 / 1.0)
        assert len(edrt_default.rt_times) == rounds + 1
        assert edrt_default.rt_times == [float(n) for n in range(rounds + 1)]

    def test_closed_grid(self, edrt_default):
        times = [round(s.time, 6) for s in edrt_default.snapshots]
        assert times == [round(0.1 * i, 6) for i in range(61)]

    def test_stationary_scene_equals_rt(self):
        scene = _analytic_birth_scene(v_y=0.0, start_y=10.0)
        cfg = PredictionConfig(t_c=1.0, dt=0.5, rounds=2)
        run = edrt_run(scene, cfg)
        base = trace_snapshot(scene, 0.0)
        for snap in run.snapshots:
            assert snap.signature_set() == base.signature_set()
            for p, q in zip(snap.paths, base.paths):
                assert abs(p.magnitude - q.magnitude) <= 1e-12 * q.magnitude
                assert abs(p.delay - q.delay) <= 1e-12 * q.delay

    def test_partition_property_every_round(self, default_scene):
        for n in range(3):
            a = trace_snapshot(default_scene, float(n))
            b = trace_snapshot(default_scene, float(n + 1))
            m = match_paths(a, b)
            assert len(m.common) + len(m.dying) == len(a.paths)
            assert len(m.common) + len(m.born) == len(b.paths)

    def test_bidirectional_consistency_at_window_end(self, default_scene):
        a = trace_snapshot(default_scene, 2.0)
        b = trace_snapshot(default_scene, 3.0)
        m = match_paths(a, b)
        lifetimes = solve_lifetimes([m], default_scene, 0.1)[0]
        t_last = 3.0 - 0.05
        pred = predict_snapshot_edrt(m, lifetimes, default_scene, t_last)
        for p in m.born:
            if lifetimes[p.signature].birth_time <= t_last:
                assert p.signature in pred.signature_set()
        for p in m.dying:
            if lifetimes[p.signature].death_time <= t_last:
                assert p.signature not in pred.signature_set()


def _snapshot_bytes(snap):
    """Everything a snapshot holds, with its floats as bytes."""
    return (np.float64(snap.time).tobytes(),
            [(p.signature, np.float64(p.delay).tobytes(), np.float64(p.power_dbm).tobytes(),
              np.asarray(p.field).tobytes(),
              [(i.mechanism, i.geometry_id, np.asarray(i.point).tobytes())
               for i in p.interactions]) for p in snap.paths])


def _records(records):
    return [(r.signature, np.float64(r.birth_s).tobytes(), np.float64(r.death_s).tobytes(),
             r.classification) for r in records]


COUNTERS = ("lifetime_scan_samples", "lifetime_bisect_samples", "lifetime_fallbacks",
            "dropped_paths", "direct_fallbacks")


def _window_by_window(scene, run, cfg):
    """The run's predictions, lifetime records and counters solved one
    window at a time from the run's own reference snapshots."""
    references = [snapshot_at(run, t) for t in run.rt_times]
    snapshots, records = [], []
    counters = dict.fromkeys(COUNTERS, 0)
    for a, b in zip(references, references[1:]):
        timer = StageTimer()
        rnd = EdrtRound.from_snapshots(scene, [a, b], cfg.dt, timer)
        snapshots.append(a)
        snapshots.extend(rnd.predict_batch(
            [a.time + j * cfg.dt for j in range(1, cfg.steps_per_round)]))
        records.extend(rnd.lifetime_records())
        for name, n in timer.counters.items():
            counters[name] += n
        counters["lifetime_fallbacks"] += sum(lt.fallback for lt in rnd.lifetimes[0].values())
        counters["dropped_paths"] += rnd.dropped
        counters["direct_fallbacks"] += rnd.fallbacks
    snapshots.append(references[-1])
    return snapshots, records, counters


def _assert_run_is_window_by_window(scene, run, cfg):
    snapshots, records, counters = _window_by_window(scene, run, cfg)
    assert [_snapshot_bytes(s) for s in run.snapshots] == [_snapshot_bytes(s) for s in snapshots]
    assert _records(run.lifetimes) == _records(records)
    assert {name: run.counters.get(name, 0) for name in COUNTERS} == counters
    return records


class TestRunLevel:
    """edrt_run solves every window at once; each window alone must give
    the same bytes."""

    def test_default_run_equals_window_by_window(self, default_scene, edrt_default):
        cfg = PredictionConfig(t_c=1.0, dt=0.1, rounds=6)
        records = _assert_run_is_window_by_window(default_scene, edrt_default, cfg)
        assert sum(r.classification != "common" for r in records) >= 20
        assert edrt_default.counters["lifetime_scan_samples"] > 0

    def test_random_runs_equal_window_by_window(self):
        cfg = PredictionConfig(t_c=1.0, dt=0.1, rounds=3)
        changing = 0
        for seed in range(12):
            scene = random_scene(seed)
            records = _assert_run_is_window_by_window(scene, edrt_run(scene, cfg), cfg)
            changing += sum(r.classification != "common" for r in records)
        assert changing >= 10

    def test_path_born_in_one_window_and_dying_in_the_next(self):
        # the specular point of a reflection on the strip 4 <= y <= 6 enters
        # it at t = 0.75 (window [0, 2]) and leaves it at t = 2.75 (window
        # [2, 4]);
        # the reference pass at t = 2 holds the one Path of both windows
        strip = Facet(id="pi", vertices=np.array(
            [[-20, 4, 0], [20, 4, 0], [20, 6, 0], [-20, 6, 0]], float))
        scene = Scene(facets=(strip,), edges=(),
                      tx_motion=Motion.stationary([0, 0, 5.0]),
                      rx_motion=Motion((MotionState(r0=[0, 6.5, 5.0], v0=[0, 2.0, 0]),)),
                      frequency=6e9)
        cfg = PredictionConfig(t_c=2.0, dt=0.5, rounds=2)
        run = edrt_run(scene, cfg)
        [born, dying] = [r for r in run.lifetimes if r.classification != "common"]
        assert (born.classification, dying.classification) == ("born", "dying")
        assert born.signature == dying.signature
        assert abs(born.birth_s - 0.75) <= 1e-6 and born.death_s == 2.0
        assert dying.birth_s == 2.0 and abs(dying.death_s - 2.75) <= 1e-6
        sig = ((Mechanism.REFLECTION, "pi"),)
        present = [sig in snap.signature_set() for snap in run.snapshots]
        assert present == [False, False, True, True, True, True, False, False, False]
        assert run.counters["lifetime_fallbacks"] == 0
        _assert_run_is_window_by_window(scene, run, cfg)


class TestDirectFields:
    """E-DRT's geometry with direct fields: the accuracy that the paper
    credits to the bidirectional geometry, measured without the field
    extrapolation that it credits with the efficiency."""

    def test_geometry_alone_gives_the_accuracy(self, default_scene, edrt_default,
                                              oracle_default, monkeypatch):
        monkeypatch.setattr(edrt, "extrapolate_fields",
                            lambda refs, _batches, _references: [None] * len(refs))
        run = execute_run(default_scene, "edrt", 1.0, 0.1, 6.0)
        assert [s.signature_set() for s in run.snapshots] == \
            [s.signature_set() for s in edrt_default.snapshots]
        eps_g = error_report(oracle_default, run).epsilon_g
        assert eps_g == error_report(oracle_default, edrt_default).epsilon_g
        assert eps_g == pytest.approx(0.0111, abs=5e-5)
        rt_keys = {time_key(t) for t in run.rt_times}
        predicted = 0
        for snap in run.snapshots:
            if time_key(snap.time) in rt_keys:
                continue
            geom = scene_at(default_scene, snap.time)
            for p in snap.paths:
                want, _power = field_of_path(default_scene, geom, PathTrajectory(
                    p, default_scene).geometry_at(snap.time))
                assert np.max(np.abs(p.field - want)) <= 1e-12 * np.linalg.norm(want)
                predicted += 1
        assert predicted > 300
        # every row of the run took the direct fallback, and none was dropped
        assert run.counters["direct_fallbacks"] == predicted
        assert run.counters["dropped_paths"] == edrt_default.counters["dropped_paths"] == 0
