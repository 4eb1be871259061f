import numpy as np
import pytest

from raychan import (
    error_report,
    pdp_extract,
    similarity_index,
)
from raychan.metrics import FIELD_FLOOR
from raychan.rt import Mechanism, Path, Snapshot
from raychan.runs import RunResult, StageTimer


def _path(name, delay_ns=100.0, power_dbm=-60.0, magnitude=None):
    sig = ((Mechanism.REFLECTION, name),) if name else ()
    mag = magnitude if magnitude is not None else 1.0
    return Path(signature=sig, interactions=[], delay=delay_ns * 1e-9,
                field=np.array([mag, 0.0], complex), power_dbm=power_dbm)


def _run(snapshots, rt_times=(), mode="edrt"):
    return RunResult(mode=mode, snapshots=snapshots, rt_times=list(rt_times),
                     timing=StageTimer())


class TestGeometryError:
    def test_identical_runs_zero(self):
        snaps = [Snapshot(0.1 * i, [_path("a"), _path("b")]) for i in range(4)]
        ref = _run(snaps)
        pred = _run(snaps)
        assert error_report(ref, pred).epsilon_g == 0.0

    def test_direct_fraction(self):
        names = [f"f{i}" for i in range(10)]
        ref = _run([Snapshot(0.1, [_path(n) for n in names])])
        pred = _run([Snapshot(0.1, [_path(n) for n in names[:9]])])
        assert error_report(ref, pred).epsilon_g == pytest.approx(0.1)

    def test_zero_iff_every_signature_matched(self):
        ref = _run([Snapshot(0.1, [_path("a"), _path("b")]),
                    Snapshot(0.2, [_path("c")])])
        pred_full = _run([Snapshot(0.1, [_path("b"), _path("a"), _path("extra")]),
                          Snapshot(0.2, [_path("c")])])
        assert error_report(ref, pred_full).epsilon_g == 0.0
        pred_miss = _run([Snapshot(0.1, [_path("a"), _path("b")]),
                          Snapshot(0.2, [_path("zz")])])
        assert error_report(ref, pred_miss).epsilon_g > 0.0

    def test_rt_positions_excluded(self):
        snaps = [Snapshot(0.0, [_path("a")]), Snapshot(0.1, [_path("a")])]
        ref = _run(snaps)
        pred = _run([Snapshot(0.0, []), Snapshot(0.1, [_path("a")])],
                    rt_times=[0.0])
        # the miss at t=0 sits on a reference-pass position: not counted
        assert error_report(ref, pred).epsilon_g == 0.0

    def test_empty_reference_positions_skipped(self):
        ref = _run([Snapshot(0.1, []), Snapshot(0.2, [_path("a")])])
        pred = _run([Snapshot(0.1, []), Snapshot(0.2, [_path("a")])])
        assert error_report(ref, pred).epsilon_g == 0.0
        rep = error_report(ref, pred)
        assert rep.skipped_positions == 1


class TestFieldError:
    def test_identical_zero(self):
        snaps = [Snapshot(0.1, [_path("a", magnitude=2.0)])]
        assert error_report(_run(snaps), _run(snaps)).epsilon_e == 0.0

    def test_relative_error(self):
        ref = _run([Snapshot(0.1, [_path("a", magnitude=1.0)])])
        pred = _run([Snapshot(0.1, [_path("a", magnitude=0.99)])])
        assert error_report(ref, pred).epsilon_e == pytest.approx(0.01, abs=1e-12)

    def test_near_zero_reference_skipped(self):
        ref = _run([Snapshot(0.1, [_path("a", magnitude=FIELD_FLOOR / 10)])])
        pred = _run([Snapshot(0.1, [_path("a", magnitude=1.0)])])
        assert error_report(ref, pred).epsilon_e == 0.0
        assert error_report(ref, pred).skipped_paths == 1

    def test_only_matched_paths_compared(self):
        ref = _run([Snapshot(0.1, [_path("a", magnitude=1.0),
                                   _path("b", magnitude=5.0)])])
        pred = _run([Snapshot(0.1, [_path("a", magnitude=1.1)])])
        assert error_report(ref, pred).epsilon_e == pytest.approx(0.1, abs=1e-12)


class TestSimilarityIndex:
    def test_identical_is_one(self):
        snaps = [Snapshot(0.1, [_path("a", 100, -60), _path("b", 220, -70)])]
        assert similarity_index(_run(snaps), _run(snaps)) == pytest.approx(1.0)

    def test_disjoint_supports_zero(self):
        a = _run([Snapshot(0.1, [_path("a", 100, -60)])])
        b = _run([Snapshot(0.1, [_path("a", 500, -60)])])
        assert similarity_index(a, b) == pytest.approx(0.0)

    def test_half_mass_splits_to_half(self):
        # target: unit mass at tau1; prediction: half at tau1, half at tau2
        tgt = _run([Snapshot(0.1, [_path("a", 100, -60.0)])])
        half = -60.0 - 10 * np.log10(2.0)
        pred = _run([Snapshot(0.1, [_path("a", 100, half),
                                    _path("b", 300, half)])])
        assert similarity_index(tgt, pred) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_and_scale_invariant(self):
        a = _run([Snapshot(0.1, [_path("a", 100, -60), _path("b", 150, -72)]),
                  Snapshot(0.2, [_path("a", 104, -61)])])
        b = _run([Snapshot(0.1, [_path("a", 100, -63), _path("c", 180, -70)]),
                  Snapshot(0.2, [_path("a", 104, -59)])])
        s_ab = similarity_index(a, b)
        assert similarity_index(b, a) == pytest.approx(s_ab, abs=1e-12)
        scaled = _run([Snapshot(s.time, [
            Path(p.signature, [], p.delay, p.field, p.power_dbm + 13.0)
            for p in s.paths]) for s in b.snapshots])
        assert similarity_index(a, scaled) == pytest.approx(s_ab, abs=1e-12)

    def test_permutation_invariance(self):
        a = _run([Snapshot(0.1, [_path("a", 100, -60), _path("b", 150, -72)])])
        b = _run([Snapshot(0.1, [_path("b", 150, -72), _path("a", 100, -60)])])
        assert similarity_index(a, b) == pytest.approx(1.0)
        assert error_report(a, b).epsilon_g == 0.0

    def test_zero_power_rejected(self):
        a = _run([Snapshot(0.1, [])])
        with pytest.raises(ValueError):
            similarity_index(a, a)


class TestPdpExtract:
    def test_counts(self):
        few = _run([Snapshot(0.1, [_path(f"f{i}") for i in range(3)])])
        assert len(pdp_extract(few).entries) == 3
        many = _run([Snapshot(0.1, [
            _path(f"f{i}", 100 + i, -60.0 - i) for i in range(15)])])
        pdp = pdp_extract(many)
        assert len(pdp.entries) == 10
        # strongest ten, sorted by power
        powers = [e.power_dbm for e in pdp.entries]
        assert powers == sorted(powers, reverse=True)
        assert min(powers) == -69.0

    def test_los_track_appears_and_disappears(self, oracle_default):
        pdp = pdp_extract(oracle_default)
        los_positions = set()
        for snap_idx, snap in enumerate(oracle_default.snapshots):
            if any(p.signature == () for p in snap.paths):
                los_positions.add(snap_idx)
        assert los_positions and len(los_positions) < len(oracle_default.snapshots)
        # the extracted profile contains entries exactly at LOS-present moments
        idx_with_entries = {e.position_index for e in pdp.entries}
        assert los_positions <= idx_with_entries

    def test_distance_axis_monotone(self, oracle_default, default_scene):
        pdp = pdp_extract(oracle_default, rx_motion=default_scene.rx_motion)
        dist_by_idx = {}
        for e in pdp.entries:
            dist_by_idx[e.position_index] = e.distance_m
        ds = [dist_by_idx[i] for i in sorted(dist_by_idx)]
        assert all(b >= a for a, b in zip(ds, ds[1:]))
