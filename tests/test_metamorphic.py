"""Metamorphic relations of whole runs: time reversal.

E-DRT predicts surviving paths forward from each window's start and born
ones backward from its end, so a scene played backwards about the run's
horizon T must give the mirrored run: the same paths at T - t as at t, and
each lifetime (b, d) as (T - d, T - b), a dying path of one run being a born
path of the other.  The reversed scene is built from the saved scene
document alone (oracles.time_reversed_scene).
"""

import json

import numpy as np
import pytest

from raychan import PredictionConfig, edrt_run, load_scene, random_scene, save_scene
from raychan.runs import time_key

from conftest import DT, DURATION, T_C
from oracles import time_reversed_scene

LIFETIME_TOL = 1e-10  # s
DELAY_REL = 1e-12
SEEDS = (0, 3, 6, 9)  # random scenes whose runs have dying and born paths


def _reversed(scene, horizon, tmp_path):
    save_scene(scene, tmp_path / "scene.json")
    doc = json.loads((tmp_path / "scene.json").read_text())
    (tmp_path / "reversed.json").write_text(json.dumps(time_reversed_scene(doc, horizon)))
    return load_scene(tmp_path / "reversed.json")


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
