"""Acceptance criteria for the prediction engine, one test per criterion.

Each test prints a single PASS line when its assertions hold (visible with
pytest -s; the test name itself reports the criterion under -v).  Thresholds
are fixed here, not tuned at runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from raychan import (
    PathTrajectory,
    field_error,
    field_of_path,
    geometry_error,
    scene_at,
    similarity_index,
    trace_snapshot,
)
from raychan.cli import execute_run
from raychan.io import write_timing_json
from raychan.rt import Mechanism, parse_signature
from raychan.runs import time_key

from conftest import DT, DURATION, T_C

EXACTNESS_REL = 1e-9
FIELD_ERROR_MAX = 0.01
EDRT_GEOMETRY_ERROR_MAX = 0.05
GEOMETRY_ERROR_RATIO_MIN = 2.0
TIMING_TOL = 0.01  # one oracle step, s
CLOSED_FORM_TOL = 1e-6  # s
SI_EDRT_MIN = 0.90
SPEEDUP_MIN = 5.0
FIELD_STAGE_RATIO_MAX = 0.5
STATIONARY_REL = 1e-12


def _passed(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


class TestAcceptance:
    def test_c1_field_extrapolation_exactness(self, default_scene):
        """Every predicted path's extrapolated magnitude matches the direct
        field computation to 1e-9 relative, within a one-minute budget."""
        t_start = time.perf_counter()
        run = execute_run(default_scene, "edrt", T_C, DT, DURATION)
        rt_keys = {time_key(t) for t in run.rt_times}
        worst = 0.0
        n_checked = 0
        for snap in run.snapshots:
            if time_key(snap.time) in rt_keys:
                continue
            geom = scene_at(default_scene, snap.time)
            for p in snap.paths:
                traj = PathTrajectory(p, default_scene)
                g = traj.geometry_at(snap.time, geom)
                field2, _ = field_of_path(default_scene, geom, g)
                direct = float(np.linalg.norm(field2))
                rel = abs(p.magnitude - direct) / direct
                worst = max(worst, rel)
                assert rel <= EXACTNESS_REL, (snap.time, p.signature, rel)
                n_checked += 1
        elapsed = time.perf_counter() - t_start
        assert n_checked > 300
        assert elapsed < 60.0
        _passed("C1", f"{n_checked} paths, worst rel err {worst:.2e}, "
                      f"{elapsed:.1f}s")

    def test_c2_field_error_vs_oracle(self, oracle_default, drt_default,
                                      edrt_default):
        eps_drt = field_error(oracle_default, drt_default)
        eps_edrt = field_error(oracle_default, edrt_default)
        assert eps_drt < FIELD_ERROR_MAX
        assert eps_edrt < FIELD_ERROR_MAX
        _passed("C2", f"eps_E drt {eps_drt:.2e}, edrt {eps_edrt:.2e}")

    def test_c3_geometry_error_ordering(self, default_scene, oracle_default,
                                        drt_default, edrt_default):
        sigs = set()
        for s in oracle_default.snapshots:
            sigs |= s.signature_set()
        events = 0
        for sig in sigs:
            present = [sig in s.signature_set() for s in oracle_default.snapshots]
            events += sum(1 for a, b in zip(present, present[1:]) if a != b)
        assert events >= 5
        eps_drt = geometry_error(oracle_default, drt_default)
        eps_edrt = geometry_error(oracle_default, edrt_default)
        assert eps_edrt <= EDRT_GEOMETRY_ERROR_MAX
        assert eps_drt >= GEOMETRY_ERROR_RATIO_MIN * eps_edrt
        _passed("C3", f"{events} events, eps_G drt {eps_drt:.3f} "
                      f"edrt {eps_edrt:.3f}")

    def test_c4_birth_death_timing(self, default_scene, oracle_default,
                                   edrt_default):
        by_key = {time_key(s.time): s for s in oracle_default.snapshots}
        fine = DT / 10.0
        checked = 0
        for rec in edrt_default.lifetimes:
            if rec.classification == "common":
                continue
            sig = parse_signature(rec.signature)
            if rec.classification == "born":
                t1w = rec.death_s
                t0w = t1w - T_C
            else:
                t0w = rec.birth_s
                t1w = t0w + T_C
            times = np.round(np.arange(t0w, t1w + 1e-9, fine), 9)
            present = [sig in by_key[time_key(t)].signature_set() for t in times]
            assert any(present), rec
            if rec.classification == "born":
                first = times[min(i for i, v in enumerate(present) if v)]
                assert abs(rec.birth_s - first) <= fine + 1e-6, rec
            else:
                last = times[max(i for i, v in enumerate(present) if v)]
                assert abs(rec.death_s - last) <= fine + 1e-6, rec
            checked += 1
        assert checked >= 5

        # closed-form boundary-crossing case: birth exactly one second
        # before the window end
        from test_edrt import _analytic_birth_scene
        from raychan import birth_time
        scene = _analytic_birth_scene(v_y=2.0)
        sig = ((Mechanism.REFLECTION, "pi"),)
        path = trace_snapshot(scene, 2.0).by_signature()[sig]
        birth = birth_time(path, scene, 0.0, 2.0, dt=DT)
        assert abs(birth - 1.0) <= CLOSED_FORM_TOL
        _passed("C4", f"{checked} lifetimes within {fine}s of the oracle; "
                      f"closed-form |err| {abs(birth - 1.0):.1e}s")

    def test_c5_similarity_ordering(self, oracle_default, drt_default,
                                    edrt_default):
        si_drt = similarity_index(oracle_default, drt_default)
        si_edrt = similarity_index(oracle_default, edrt_default)
        assert si_edrt > si_drt
        assert si_edrt >= SI_EDRT_MIN
        _passed("C5", f"SI drt {si_drt:.3f} < edrt {si_edrt:.3f}")

    def test_c6_compute_gain(self, default_scene, tmp_path):
        """Best-of-three wall-clock comparison, read back from timing JSON.

        The modes run round-robin, so a drift in host speed reaches every
        mode's best run alike instead of one mode's three runs.
        """
        assert round(T_C / DT) == 10
        modes = ("rt", "drt", "edrt")
        timings = {mode: [] for mode in modes}
        for i in range(3):
            for mode in modes:
                run = execute_run(default_scene, mode, T_C, DT, DURATION)
                p = tmp_path / f"{mode}_{i}.json"
                write_timing_json(run, p)
                timings[mode].append(json.loads(p.read_text()))
        best = {mode: {"total_s": min(t["total_s"] for t in runs),
                       "field_s": min(t["field_s"] for t in runs)}
                for mode, runs in timings.items()}
        rt_total = best["rt"]["total_s"]
        ratios = (f"rt/drt {rt_total / best['drt']['total_s']:.2f}x, "
                  f"rt/edrt {rt_total / best['edrt']['total_s']:.2f}x, "
                  f"field ratio "
                  f"{best['edrt']['field_s'] / best['drt']['field_s']:.3f}")
        assert best["drt"]["total_s"] <= rt_total / SPEEDUP_MIN, \
            f"rt/drt under {SPEEDUP_MIN}x: {ratios}"
        assert best["edrt"]["total_s"] <= rt_total / SPEEDUP_MIN, \
            f"rt/edrt under {SPEEDUP_MIN}x: {ratios}"
        assert best["edrt"]["field_s"] <= \
            FIELD_STAGE_RATIO_MAX * best["drt"]["field_s"], \
            f"field ratio over {FIELD_STAGE_RATIO_MAX}: {ratios}"
        _passed("C6", ratios)

    def test_c7_degenerate_equivalence_stationary(self):
        from test_edrt import _analytic_birth_scene
        scene = _analytic_birth_scene(v_y=0.0, start_y=10.0)
        rt = execute_run(scene, "rt", 1.0, 0.25, 2.0)
        drt = execute_run(scene, "drt", 1.0, 0.25, 2.0)
        edrt = execute_run(scene, "edrt", 1.0, 0.25, 2.0)
        for run in (drt, edrt):
            assert [time_key(s.time) for s in run.snapshots] == \
                [time_key(s.time) for s in rt.snapshots]
            for snap, truth in zip(run.snapshots, rt.snapshots):
                assert snap.signature_set() == truth.signature_set()
                t_by = truth.by_signature()
                for p in snap.paths:
                    q = t_by[p.signature]
                    assert abs(p.magnitude - q.magnitude) <= \
                        STATIONARY_REL * q.magnitude + 1e-15
                    assert abs(p.delay - q.delay) <= \
                        STATIONARY_REL * q.delay + 1e-15
        _passed("C7", "rt == drt == edrt on a stationary scene")

    def test_c8_property_suites_standalone(self):
        """The five property families run standalone within five minutes."""
        import subprocess
        import sys
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q"],
            capture_output=True, text=True)
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "5 passed" in proc.stdout
        assert elapsed < 300.0
        _passed("C8", f"5 property suites on 100 scenes in {elapsed:.0f}s")
