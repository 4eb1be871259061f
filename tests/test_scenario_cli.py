import hashlib
import json
import math

import numpy as np
import pytest

from raychan import (
    generate_v2v_scenario,
    load_scene,
    save_scene,
    signature_str,
    trace_snapshot,
)
from raychan.cli import MODES, ValidationError, execute_run, main
from raychan.io import read_snapshots_csv
from raychan.runs import time_key


class TestGenerator:
    def test_default_scene_is_transition_rich(self, default_scene, oracle_default):
        sigs = set()
        for s in oracle_default.snapshots:
            sigs |= s.signature_set()
        events = 0
        for sig in sigs:
            present = [sig in s.signature_set() for s in oracle_default.snapshots]
            events += sum(1 for a, b in zip(present, present[1:]) if a != b)
        assert events >= 5

    def test_zero_segments_free_space_los_only(self):
        scene = generate_v2v_scenario(building_segments=0, seed=3)
        assert len(scene.facets) == 0
        snap = trace_snapshot(scene, 0.0)
        assert [signature_str(p.signature) for p in snap.paths] == ["LOS"]

    def test_route_position_arithmetic(self):
        # a 285 m route at 36 km/h covered in 0.1 s steps: duration 28.5 s
        # and duration/dt + 1 positions
        length, speed, dt = 285.0, 10.0, 0.1
        duration = length / speed
        positions = round(duration / dt) + 1
        assert positions == 286

    def test_deterministic_for_seed(self, tmp_path):
        a = generate_v2v_scenario(seed=5)
        b = generate_v2v_scenario(seed=5)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_scene(a, pa)
        save_scene(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        c = generate_v2v_scenario(seed=6)
        pc = tmp_path / "c.json"
        save_scene(c, pc)
        assert pa.read_bytes() != pc.read_bytes()

    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            generate_v2v_scenario(length_m=-1.0)
        with pytest.raises(ValueError):
            generate_v2v_scenario(street_width_m=0.0)
        with pytest.raises(ValueError):
            generate_v2v_scenario(building_segments=-2)

    def test_speeds_applied(self):
        scene = generate_v2v_scenario(speeds=(7.0, 13.0), seed=1)
        assert np.allclose(scene.tx_motion.velocity(0.0), [0, 7, 0])
        assert np.allclose(scene.rx_motion.velocity(0.0), [0, 13, 0])


@pytest.fixture(scope="module")
def tiny_scene_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.json"
    scene = generate_v2v_scenario(length_m=30.0, building_segments=1, seed=2)
    save_scene(scene, path)
    return path


class TestCli:
    def test_generate_writes_scene(self, tmp_path):
        out = tmp_path / "scene.json"
        rc = main(["generate", "--out", str(out), "--length", "40",
                   "--segments", "2", "--seed", "9"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["frequency_hz"] == 6e9
        assert doc["tx_power_dbm"] == 30.0

    @pytest.mark.parametrize("mode", ["rt", "drt", "edrt", "oracle"])
    def test_run_modes_emit_artifacts(self, mode, tiny_scene_file, tmp_path):
        out = tmp_path / mode
        rc = main(["run", "--scene", str(tiny_scene_file), "--mode", mode,
                   "--tc", "1.0", "--dt", "0.5", "--duration", "1.0",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "snapshots.csv").exists()
        assert (out / "timing.json").exists()
        assert (out / "manifest.json").exists()
        assert (out / "pdp.csv").exists()
        if mode == "edrt":
            assert (out / "lifetimes.csv").exists()
        timing = json.loads((out / "timing.json").read_text())
        assert timing["geometry_s"] >= 0.0 and timing["field_s"] >= 0.0
        assert timing["geometry_s"] + timing["field_s"] <= timing["total_s"] + 1e-6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == mode

    def test_edrt_cadence_example(self, tiny_scene_file, tmp_path):
        out = tmp_path / "cadence"
        rc = main(["run", "--scene", str(tiny_scene_file), "--mode", "edrt",
                   "--tc", "1.0", "--dt", "0.1", "--duration", "2.0",
                   "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rt_times"] == [0.0, 1.0, 2.0]
        snaps = read_snapshots_csv(out / "snapshots.csv",
                                   load_scene(tiny_scene_file).wavelength)
        assert len(snaps) == 21  # 3 traced + 18 predicted

    def test_byte_identical_reruns(self, tiny_scene_file, tmp_path):
        outs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            rc = main(["run", "--scene", str(tiny_scene_file), "--mode", "edrt",
                       "--tc", "1.0", "--dt", "0.25", "--duration", "1.0",
                       "--out", str(out), "--seed", "4"])
            assert rc == 0
            outs.append(out)
        for name in ("snapshots.csv", "pdp.csv", "lifetimes.csv", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_reference_enables_error_report(self, tiny_scene_file, tmp_path):
        ref_out = tmp_path / "oracle"
        assert main(["run", "--scene", str(tiny_scene_file), "--mode", "oracle",
                     "--tc", "1.0", "--dt", "0.5", "--duration", "1.0",
                     "--out", str(ref_out)]) == 0
        pred_out = tmp_path / "pred"
        assert main(["run", "--scene", str(tiny_scene_file), "--mode", "drt",
                     "--tc", "1.0", "--dt", "0.5", "--duration", "1.0",
                     "--out", str(pred_out), "--reference", str(ref_out)]) == 0
        report = json.loads((pred_out / "errors.json").read_text())
        assert set(report) >= {"epsilon_g", "epsilon_e", "si", "per_position"}
        assert 0.0 <= report["epsilon_g"] <= 1.0
        assert 0.0 <= report["si"] <= 1.0

    def test_validation_errors_exit_one(self, tmp_path, tiny_scene_file):
        assert main(["run", "--scene", str(tmp_path / "missing.json"),
                     "--mode", "rt", "--duration", "1.0",
                     "--out", str(tmp_path / "x")]) == 1
        # duration not a multiple of tc
        assert main(["run", "--scene", str(tiny_scene_file), "--mode", "drt",
                     "--tc", "1.0", "--dt", "0.1", "--duration", "1.5",
                     "--out", str(tmp_path / "y")]) == 1
        # dt does not divide tc
        assert main(["run", "--scene", str(tiny_scene_file), "--mode", "drt",
                     "--tc", "1.0", "--dt", "0.3", "--duration", "1.0",
                     "--out", str(tmp_path / "z")]) == 1
        # dt == tc passes execute_run's step checks and fails PredictionConfig
        assert main(["run", "--scene", str(tiny_scene_file), "--mode", "drt",
                     "--tc", "1.0", "--dt", "1.0", "--duration", "1.0",
                     "--out", str(tmp_path / "w")]) == 1
        # a 2-vector position fails inside MotionState
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "frequency_hz": 6e9, "facets": [], "edges": [],
            "tx": {"motion_segments": [{"r0": [0, 0]}]},
            "rx": {"motion_segments": [{"r0": [1, 0, 0]}]}}))
        assert main(["run", "--scene", str(bad), "--mode", "rt",
                     "--duration", "1.0", "--out", str(tmp_path / "v")]) == 1
        assert main(["generate", "--out", str(tmp_path / "g.json"),
                     "--length", "-1"]) == 1

    # (tc, dt, duration) that no mode accepts
    BAD_STEPS = [(1.0, -0.1, 6.0), (1.0, 0.0, 1.0), (0.0, 0.1, 1.0), (1.0, 0.1, -1.0),
                 (1.0, 0.1, 0.0), (1.0, 0.3, 1.0), (1.0, 0.1, 1.5), (1.0, 2.0, 2.0),
                 (1.0, float("nan"), 1.0), (float("inf"), 0.1, 1.0),
                 (1.0, 0.1, float("inf"))]

    @pytest.mark.parametrize("mode", MODES)
    def test_invalid_steps_rejected_in_every_mode(self, mode, tiny_scene_file, tmp_path):
        scene = load_scene(tiny_scene_file)
        for i, (t_c, dt, duration) in enumerate(self.BAD_STEPS):
            with pytest.raises(ValidationError):
                execute_run(scene, mode, t_c, dt, duration)
            assert main(["run", "--scene", str(tiny_scene_file), "--mode", mode,
                         "--tc", str(t_c), "--dt", str(dt), "--duration", str(duration),
                         "--out", str(tmp_path / str(i))]) == 1
            assert not (tmp_path / str(i)).exists()

    def test_non_finite_frequency_exits_one(self, tiny_scene_file, tmp_path):
        doc = json.loads(tiny_scene_file.read_text())
        doc["frequency_hz"] = float("inf")
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(doc))
        assert main(["run", "--scene", str(bad), "--mode", "rt",
                     "--tc", "1.0", "--dt", "0.5", "--duration", "1.0",
                     "--out", str(tmp_path / "u")]) == 1

    def test_edge_on_differently_moving_facets_exits_one(self, tmp_path, capsys):
        wall = [[0, 0, 0], [0, 0, 3], [4, 0, 3], [4, 0, 0]]
        side = [[0, 0, 0], [0, 4, 0], [0, 4, 3], [0, 0, 3]]
        bad = tmp_path / "corner.json"
        bad.write_text(json.dumps({
            "frequency_hz": 6e9,
            "facets": [{"id": "a", "vertices": wall},
                       {"id": "b", "vertices": side, "motion_segments": [
                           {"r0": [0, 0, 0], "v0": [1, 0, 0]}]}],
            "edges": [{"id": "corner", "endpoints": [[0, 0, 0], [0, 0, 3]],
                       "adjacent_facets": ["a", "b"],
                       "exterior_wedge_angle": 1.5 * math.pi}],
            "tx": {"motion_segments": [{"r0": [3, 3, 1.5]}]},
            "rx": {"motion_segments": [{"r0": [5, 5, 1.5]}]}}))
        assert main(["run", "--scene", str(bad), "--mode", "rt",
                     "--tc", "1.0", "--dt", "0.5", "--duration", "1.0",
                     "--out", str(tmp_path / "c")]) == 1
        assert "move differently" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["rt", "drt", "edrt"])
    def test_contradictory_edge_exits_one(self, tmp_path, capsys, mode):
        save_scene(generate_v2v_scenario(seed=0), tmp_path / "scene.json")
        doc = json.loads((tmp_path / "scene.json").read_text())
        doc["edges"][0]["exterior_wedge_angle"] = 1.25 * math.pi
        (tmp_path / "scene.json").write_text(json.dumps(doc))
        assert main(["run", "--scene", str(tmp_path / "scene.json"), "--mode", mode,
                     "--duration", "1", "--out", str(tmp_path / mode)]) == 1
        err = capsys.readouterr().err
        assert f"edge {doc['edges'][0]['id']!r}" in err
        assert "exterior angle inconsistent" in err

    def test_runtime_value_error_exits_two(self, tiny_scene_file, tmp_path,
                                           monkeypatch):
        import raychan.cli

        def fail(*args, **kwargs):
            raise ValueError("numeric fault inside a run")
        monkeypatch.setattr(raychan.cli, "rt_run", fail)
        assert main(["run", "--scene", str(tiny_scene_file), "--mode", "rt",
                     "--tc", "1.0", "--dt", "0.5", "--duration", "1.0",
                     "--out", str(tmp_path / "v")]) == 2

    def test_snapshots_csv_round_trip(self, tiny_scene_file, tmp_path):
        out = tmp_path / "rt"
        main(["run", "--scene", str(tiny_scene_file), "--mode", "rt",
              "--tc", "1.0", "--dt", "0.5", "--duration", "1.0",
              "--out", str(out)])
        snaps = read_snapshots_csv(out / "snapshots.csv",
                                   load_scene(tiny_scene_file).wavelength)
        assert [time_key(s.time) for s in snaps] == [0, 500000, 1000000]
        text = (out / "snapshots.csv").read_text().splitlines()
        assert text[0] == "time_s,path_index,signature,delay_ns,power_dbm,n_interactions"


def _wall_scene_file(path, half_width: float):
    """One opaque wall, 2 * half_width wide, between Tx at rest and an Rx
    passing behind it, with no edge to diffract: at dt 0.1 s over 3 s a
    1 m half-width hides Rx at t = 1.1-2.0 s, a 100 m one throughout."""
    h = half_width
    path.write_text(json.dumps({
        "frequency_hz": 6e9,
        "facets": [{"id": "wall", "vertices": [[5, -h, 0], [5, h, 0], [5, h, 4], [5, -h, 4]]}],
        "tx": {"motion_segments": [{"r0": [0, 0, 1.5]}]},
        "rx": {"motion_segments": [{"r0": [10, -6.05, 1.5], "v0": [0, 4, 0]}]}}))
    return path


class TestBlockedReceiver:
    def test_no_path_anywhere_gives_empty_snapshots_in_every_mode(self, tmp_path):
        scene = load_scene(_wall_scene_file(tmp_path / "wall.json", 100.0))
        runs = [execute_run(scene, mode, 1.0, 0.1, 3.0) for mode in ("rt", "drt", "edrt")]
        for run in runs:
            assert [time_key(s.time) for s in run.snapshots] == \
                [time_key(0.1 * i) for i in range(31)]
            assert not any(s.paths for s in run.snapshots)

    def test_reference_instants_without_paths(self, tmp_path):
        scene = _wall_scene_file(tmp_path / "wall.json", 1.0)
        run = ["run", "--scene", str(scene), "--duration", "3"]
        assert main([*run, "--mode", "rt", "--out", str(tmp_path / "rt")]) == 0
        # snapshots.csv has no row for the ten instants without a path
        wavelength = load_scene(scene).wavelength
        assert len(read_snapshots_csv(tmp_path / "rt" / "snapshots.csv", wavelength)) == 21
        drt = [*run, "--mode", "drt", "--out", str(tmp_path / "drt"),
               "--reference", str(tmp_path / "rt")]
        assert main(drt) == 0
        report = json.loads((tmp_path / "drt" / "errors.json").read_text())
        # the predicted instants 1.1-1.9 s have no reference path
        assert report["skipped_positions"] == 9
        assert len(report["per_position"]) == 27 - 9
        # without its manifest the reference's grid is unknown
        (tmp_path / "rt" / "manifest.json").unlink()
        assert main(drt) == 1

    def test_field_error_against_a_reference_run(self, tmp_path):
        """drt's line-of-sight path at t = 0.1 s is RT's own, so its field
        error against an rt reference run is rounding only: the reference's
        magnitudes are rebuilt at the scene's wavelength."""
        scene = _wall_scene_file(tmp_path / "wall.json", 1.0)
        run = ["run", "--scene", str(scene), "--duration", "1"]
        assert main([*run, "--mode", "rt", "--out", str(tmp_path / "rt")]) == 0
        assert main([*run, "--mode", "drt", "--out", str(tmp_path / "drt"),
                     "--reference", str(tmp_path / "rt")]) == 0
        report = json.loads((tmp_path / "drt" / "errors.json").read_text())
        [row] = [r for r in report["per_position"] if time_key(r["time_s"]) == time_key(0.1)]
        assert row["n_rt"] == row["n_s"] >= 1
        assert row["mean_field_error"] <= 1e-9

    @pytest.mark.parametrize("case", ["another-frequency", "another-scene", "no-provenance"])
    def test_reference_of_another_scene_exits_one(self, tmp_path, case):
        """A reference run of another scene file or frequency is refused, as
        is one whose manifest does not say which: an rt reference at 6 GHz
        once gave a drt run at 3 GHz an epsilon_e of 1.0 without a word."""
        scene = _wall_scene_file(tmp_path / "wall.json", 1.0)
        other = tmp_path / "other.json"
        doc = json.loads(scene.read_text())
        if case == "another-frequency":
            doc["frequency_hz"] = 3e9
        elif case == "another-scene":
            doc["facets"][0]["id"] = "wall-2"   # the same wall under another name
        other.write_text(json.dumps(doc))
        run = ["run", "--duration", "1"]
        assert main([*run, "--scene", str(scene), "--mode", "rt",
                     "--out", str(tmp_path / "rt")]) == 0
        manifest = json.loads((tmp_path / "rt" / "manifest.json").read_text())
        assert manifest["frequency_hz"] == 6e9
        assert manifest["scene_sha256"] == hashlib.sha256(scene.read_bytes()).hexdigest()
        if case == "no-provenance":
            del manifest["scene_sha256"], manifest["frequency_hz"]
            (tmp_path / "rt" / "manifest.json").write_text(json.dumps(manifest))
        drt = [*run, "--scene", str(other if case != "no-provenance" else scene),
               "--mode", "drt", "--out", str(tmp_path / "drt"),
               "--reference", str(tmp_path / "rt")]
        assert main(drt) == 1
        assert not (tmp_path / "drt" / "errors.json").exists()

    @pytest.mark.parametrize("case", ["another-grid", "no-power"])
    def test_reference_that_cannot_be_compared_exits_one(self, tmp_path, case):
        # an rt reference at dt 0.5 s lacks the drt run's 0.1 s instants; behind
        # the 100 m wall neither run has a path
        scene = _wall_scene_file(tmp_path / "wall.json", 1.0 if case == "another-grid" else 100.0)
        run = ["run", "--scene", str(scene), "--duration", "1"]
        dt = "0.5" if case == "another-grid" else "0.1"
        assert main([*run, "--mode", "rt", "--dt", dt, "--tc", "0.5",
                     "--out", str(tmp_path / "rt")]) == 0
        assert main([*run, "--mode", "drt", "--out", str(tmp_path / "drt"),
                     "--reference", str(tmp_path / "rt")]) == 1
        assert not (tmp_path / "drt" / "errors.json").exists()
