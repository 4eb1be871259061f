"""Metamorphic relations of whole runs: time reversal, reciprocity and
rigid motion.

E-DRT predicts surviving paths forward from each window's start and born
ones backward from its end, so a scene played backwards about the run's
horizon T must give the mirrored run: the same paths at T - t as at t, and
each lifetime (b, d) as (T - d, T - b), a dying path of one run being a born
path of the other.  Exchanging Tx and Rx must give every path traversed
backwards with the same vertical-to-vertical field and the same lifetimes,
and, where no bounce turns the vertical launch polarization (every scene
but the tilted reflector's), the same power; turning the scene about the
vertical and moving it far away must change no signature nor lifetime, and
no delay or field component beyond the rounding of the coordinates.  The
transformed scenes are built from the saved scene document alone
(oracles).
"""

import json

import numpy as np
import pytest

from raychan import (
    PredictionConfig,
    edrt_run,
    load_scene,
    random_scene,
    save_scene,
    signature_str,
)
from raychan.cli import execute_run
from raychan.runs import time_key
from raychan.scene import C_LIGHT

from conftest import DT, DURATION, T_C
from oracles import (
    reversed_signature,
    rigidly_moved_scene,
    swapped_transceivers,
    time_reversed_scene,
)

LIFETIME_TOL = 1e-10  # s
DELAY_REL = 1e-12
SEEDS = (0, 3, 6, 9)  # random scenes whose runs have dying and born paths


def _transformed(scene, transform, tmp_path):
    """scene through its saved document, transform(doc) loaded back."""
    save_scene(scene, tmp_path / "scene.json")
    doc = json.loads((tmp_path / "scene.json").read_text())
    (tmp_path / "transformed.json").write_text(json.dumps(transform(doc)))
    return load_scene(tmp_path / "transformed.json")


def _reversed(scene, horizon, tmp_path):
    return _transformed(scene, lambda doc: time_reversed_scene(doc, horizon), tmp_path)


def _keyed(run, t_c):
    """Each lifetime record by (signature, classification, window)."""
    out = {}
    for rec in run.lifetimes:
        start = rec.death_s - t_c if rec.classification == "born" else rec.birth_s
        out[(rec.signature, rec.classification, round(start / t_c))] = rec
    return out


def _assert_mirrored(run, mirror, horizon, t_c):
    assert len(run.snapshots) == len(mirror.snapshots)
    for snap, twin in zip(run.snapshots, reversed(mirror.snapshots)):
        assert time_key(snap.time) == time_key(horizon - twin.time)
        assert snap.signature_set() == twin.signature_set(), snap.time
        delays = twin.by_signature()
        for p in snap.paths:
            q = delays[p.signature]
            assert abs(p.delay - q.delay) <= DELAY_REL * q.delay, (snap.time, p.signature)
    swap = {"common": "common", "dying": "born", "born": "dying"}
    n_windows = round(horizon / t_c)
    mirrored = {(sig, swap[kind], n_windows - 1 - w): rec
                for (sig, kind, w), rec in _keyed(mirror, t_c).items()}
    records = _keyed(run, t_c)
    assert records.keys() == mirrored.keys()
    for key, rec in records.items():
        twin = mirrored[key]
        assert abs(rec.birth_s - (horizon - twin.death_s)) <= LIFETIME_TOL, key
        assert abs(rec.death_s - (horizon - twin.birth_s)) <= LIFETIME_TOL, key
    return sum(kind != "common" for _sig, kind, _w in records)


def test_default_run_reversed_in_time(default_scene, edrt_default, tmp_path):
    mirror = edrt_run(_reversed(default_scene, DURATION, tmp_path),
                      PredictionConfig(t_c=T_C, dt=DT, rounds=round(DURATION / T_C)))
    assert _assert_mirrored(edrt_default, mirror, DURATION, T_C) >= 20


@pytest.mark.parametrize("seed", SEEDS)
def test_random_run_reversed_in_time(seed, tmp_path):
    scene = random_scene(seed)
    cfg = PredictionConfig(t_c=1.0, dt=0.1, rounds=3)
    horizon = cfg.t_c * cfg.rounds
    run = edrt_run(scene, cfg)
    mirror = edrt_run(_reversed(scene, horizon, tmp_path), cfg)
    assert _assert_mirrored(run, mirror, horizon, cfg.t_c) >= 1


def test_reversed_scene_is_the_scene_at_mirrored_times(tmp_path):
    """The reversed document moves Tx, Rx, facets and edges as the scene
    does at the mirrored time."""
    from raychan import scene_at
    scene = random_scene(SEEDS[0])
    mirror = _reversed(scene, 3.0, tmp_path)
    for t in (0.0, 0.7, 1.5, 3.0):
        a, b = scene_at(scene, 3.0 - t), scene_at(mirror, t)
        for x, y in ((a.tx, b.tx), (a.rx, b.rx), (a.facets.origins, b.facets.origins),
                     (a.edges, b.edges)):
            assert np.allclose(x, y, rtol=0.0, atol=1e-12)


# reciprocity and rigid motion: drt and edrt runs of the default scene and of
# random scenes with moving facets and edges (t_c 1 s, dt 0.1 s)
SCENES = ("default", 0, 3, 9, 25)
POWER_DB = 1e-9
FIELD_REL = 1e-9
RECIPROCAL_LIFETIME = 1e-12   # s
ROUNDING = 64 * np.finfo(float).eps  # relative to the coordinates' magnitude


# one facet leaning away from Tx (at rest) and Rx (passing it): the bounce
# turns part of the vertical launch polarization into h, and its path is
# born at 0.57 s, when its point enters the facet
TILTED = {"frequency_hz": 6e9, "tx_power_dbm": 30.0, "edges": [],
          "facets": [{"id": "tilt", "vertices": [[3, -4, -8], [8, -4, 12], [8, 20, 12],
                                                 [3, 20, -8]]}],
          "tx": {"motion_segments": [{"r0": [0.0, 0.0, 1.5]}]},
          "rx": {"motion_segments": [{"r0": [1.0, -12.0, 2.5], "v0": [0.0, 8.0, 0.0]}]}}


def _scene_run(case, default_scene, tmp_path):
    """(scene, duration) of a case."""
    if case == "default":
        return default_scene, DURATION
    if case == "tilted":
        (tmp_path / "tilted.json").write_text(json.dumps(TILTED))
        return load_scene(tmp_path / "tilted.json"), 3.0
    return random_scene(case), 3.0


def _by_signature(run, rename=lambda sig: sig):
    """Per snapshot, each path by its (renamed) signature string."""
    return [{rename(signature_str(p.signature)): p for p in snap.paths}
            for snap in run.snapshots]


def _lifetimes(run, rename=lambda sig: sig):
    """Each lifetime record's (birth, death) by (signature, classification,
    window)."""
    return {(rename(rec.signature), rec.classification,
             round((rec.death_s - T_C if rec.classification == "born" else rec.birth_s) / T_C)):
            (rec.birth_s, rec.death_s) for rec in run.lifetimes}


def _assert_lifetimes_equal(run, twin, tol, rename=lambda sig: sig):
    ours, theirs = _lifetimes(run), _lifetimes(twin, rename)
    assert ours.keys() == theirs.keys()
    for key, (birth, death) in ours.items():
        assert abs(birth - theirs[key][0]) <= tol and abs(death - theirs[key][1]) <= tol, key
    return sum(kind != "common" for _sig, kind, _w in ours)


@pytest.mark.parametrize("mode", ["drt", "edrt"])
@pytest.mark.parametrize("case", SCENES)
def test_runs_are_reciprocal(case, mode, default_scene, tmp_path):
    """Tx and Rx exchanged: every path reversed, with its power, its
    vertical-to-vertical field and its lifetime."""
    scene, duration = _scene_run(case, default_scene, tmp_path)
    run = execute_run(scene, mode, T_C, DT, duration)
    twin = execute_run(_transformed(scene, swapped_transceivers, tmp_path), mode, T_C, DT,
                       duration)
    paths = 0
    for ours, theirs in zip(_by_signature(run), _by_signature(twin, reversed_signature),
                            strict=True):
        assert ours.keys() == theirs.keys()
        for sig, p in ours.items():
            q = theirs[sig]
            assert abs(p.power_dbm - q.power_dbm) <= POWER_DB, sig
            assert abs(p.field[0] - q.field[0]) <= FIELD_REL * np.linalg.norm(p.field), sig
            paths += 1
    assert paths > 50
    events = _assert_lifetimes_equal(run, twin, RECIPROCAL_LIFETIME, reversed_signature)
    assert events >= (mode == "edrt")


@pytest.mark.parametrize("mode", ["rt", "drt", "edrt"])
def test_depolarizing_bounce_is_reciprocal(mode, tmp_path):
    """Tx and Rx exchanged at the tilted reflector: every path reversed,
    with its vertical-to-vertical field and its lifetime, although the
    bounce turns part of the field into h.  Its power is not reciprocal:
    the h component's reverse is the h-to-v coupling, which a vertical
    launch does not excite."""
    scene, duration = _scene_run("tilted", None, tmp_path)
    run = execute_run(scene, mode, T_C, DT, duration)
    twin = execute_run(_transformed(scene, swapped_transceivers, tmp_path), mode, T_C, DT,
                       duration)
    h_share = 0.0
    for ours, theirs in zip(_by_signature(run), _by_signature(twin, reversed_signature),
                            strict=True):
        assert ours.keys() == theirs.keys()
        for sig, p in ours.items():
            magnitude = np.linalg.norm(p.field)
            assert abs(p.field[0] - theirs[sig].field[0]) <= FIELD_REL * magnitude, sig
            h_share = max(h_share, abs(p.field[1]) / magnitude)
    assert h_share > 0.1
    events = _assert_lifetimes_equal(run, twin, RECIPROCAL_LIFETIME, reversed_signature)
    assert events == (mode == "edrt")


@pytest.mark.parametrize("offset, angle", [((1e5, -6e4, 25.0), -0.7), ((3.0, -2.0, 0.5), 2.1)],
                         ids=["far", "near"])
@pytest.mark.parametrize("mode", ["drt", "edrt"])
@pytest.mark.parametrize("case", SCENES + ("tilted",))
def test_runs_are_invariant_under_rigid_motion(case, mode, offset, angle, default_scene,
                                               tmp_path):
    """The scene turned about the vertical and translated, motions
    included: the same signatures and lifetimes, and delays and the (v, h)
    field components, which turn with the rays, within the rounding of the
    coordinates."""
    scene, duration = _scene_run(case, default_scene, tmp_path)
    run = execute_run(scene, mode, T_C, DT, duration)
    twin = execute_run(_transformed(scene, lambda doc: rigidly_moved_scene(doc, offset, angle),
                                    tmp_path), mode, T_C, DT, duration)
    # coordinates up to the offset plus the scene's own extent; a length
    # known to their rounding gives a delay and a phase known to it
    scale = float(np.max(np.abs(offset))) + 100.0
    delay_tol = ROUNDING * scale / C_LIGHT
    phase_tol = ROUNDING * scale * scene.wavenumber
    for ours, theirs in zip(_by_signature(run), _by_signature(twin), strict=True):
        assert ours.keys() == theirs.keys()
        for sig, p in ours.items():
            q = theirs[sig]
            assert abs(p.delay - q.delay) <= delay_tol, sig
            assert np.max(np.abs(p.field - q.field)) <= phase_tol * np.linalg.norm(p.field), sig
    # an event time moves where its margin, of the coordinates' rounding,
    # crosses zero at the speed of the motion (at least 1 m/s here)
    events = _assert_lifetimes_equal(run, twin, ROUNDING * scale)
    assert events >= (mode == "edrt")
