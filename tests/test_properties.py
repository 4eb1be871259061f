"""Property suites over randomized small scenes (runnable standalone).

Five families checked on 100 seeded scenes: transceiver reciprocity,
image-method angle equality, coefficient passivity (energy monotonicity),
similarity-index scaling invariance, and the matching partition property.
"""

import math

import numpy as np
import pytest

from raychan import (
    Scene,
    match_paths,
    random_scene,
    similarity_index,
    trace_snapshot,
)
from raychan.coefficients import complex_permittivity, fresnel_from_cos, transmission_from_cos
from raychan.rt import Mechanism, Path, Snapshot
from raychan.runs import RunResult, StageTimer

N_SCENES = 100
SEEDS = list(range(N_SCENES))


@pytest.fixture(scope="module")
def traced_scenes():
    """(scene, snapshot at t0, snapshot at t1) for every seed."""
    out = []
    for seed in SEEDS:
        scene = random_scene(seed)
        out.append((scene, trace_snapshot(scene, 0.3), trace_snapshot(scene, 0.9)))
    return out


def test_reciprocity_on_random_scenes(traced_scenes):
    checked_paths = 0
    for scene, snap, _ in traced_scenes:
        swapped = Scene(facets=scene.facets, edges=scene.edges,
                        tx_motion=scene.rx_motion, rx_motion=scene.tx_motion,
                        frequency=scene.frequency,
                        tx_power_dbm=scene.tx_power_dbm)
        rev = trace_snapshot(swapped, 0.3)
        fwd_by = {p.signature: p for p in snap.paths}
        rev_by = {tuple(reversed(p.signature)): p for p in rev.paths}
        assert set(fwd_by) == set(rev_by)
        for sig, p in fwd_by.items():
            assert abs(p.power_dbm - rev_by[sig].power_dbm) < 1e-9
            checked_paths += 1
    assert checked_paths > N_SCENES  # scenes are not degenerate on average


def test_image_angle_equality_on_random_scenes(traced_scenes):
    checked = 0
    for scene, snap, _ in traced_scenes:
        from raychan import scene_at
        geom = scene_at(scene, snap.time)
        for p in snap.paths:
            refl = [i for i in p.interactions
                    if i.mechanism is Mechanism.REFLECTION]
            if not refl:
                continue
            chain = [geom.tx] + [i.point for i in refl] + [geom.rx]
            for k, inter in enumerate(refl):
                n = geom.facets.normals[scene.facet_index[inter.geometry_id]]
                s_in = chain[k + 1] - chain[k]
                s_out = chain[k + 2] - chain[k + 1]
                s_in = s_in / np.linalg.norm(s_in)
                s_out = s_out / np.linalg.norm(s_out)
                assert abs(abs(np.dot(s_in, n)) - abs(np.dot(s_out, n))) < 1e-9
                checked += 1
    assert checked > 20


def test_energy_monotonicity_of_materials(traced_scenes):
    """Passivity: no interaction coefficient can amplify the field."""
    angles = np.linspace(0.0, math.pi / 2 - 1e-6, 25)
    seen = set()
    for scene, _, _ in traced_scenes:
        for f in scene.facets:
            key = (f.material.rel_permittivity, f.material.conductivity,
                   f.material.transparent, f.thickness)
            if key in seen:
                continue
            seen.add(key)
            for ang in angles:
                eps = complex_permittivity(f.material, scene.frequency)
                r_perp, r_par = fresnel_from_cos(math.cos(ang), eps)
                assert abs(r_perp) <= 1.0 + 1e-12
                assert abs(r_par) <= 1.0 + 1e-12
                if f.material.transparent:
                    tr = transmission_from_cos(math.cos(ang), eps, f.thickness)
                    loss = tr.loss_factor(f.material.attenuation_alpha)
                    assert abs(tr.t_perp) * loss <= 1.0 + 1e-9
                    assert abs(tr.t_par) * loss <= 1.0 + 1e-9
    assert len(seen) > 10


def _as_run(snapshots):
    return RunResult(mode="rt", snapshots=snapshots, rt_times=[],
                     timing=StageTimer())


def test_si_scaling_invariance_on_random_scenes(traced_scenes):
    rng = np.random.default_rng(123)
    compared = 0
    for scene, a, b in traced_scenes:
        if not a.paths or not b.paths:
            continue
        run_a = _as_run([a])
        run_b = _as_run([Snapshot(a.time, b.paths)])
        si = similarity_index(run_a, run_b)
        assert similarity_index(run_b, run_a) == pytest.approx(si, abs=1e-12)
        shift = float(rng.uniform(-20, 20))
        scaled = _as_run([Snapshot(a.time, [
            Path(p.signature, p.interactions, p.delay, p.field,
                 p.power_dbm + shift) for p in b.paths])])
        assert similarity_index(run_a, scaled) == pytest.approx(si, abs=1e-9)
        compared += 1
    assert compared > 60


def test_partition_property_on_random_scenes(traced_scenes):
    for _scene, a, b in traced_scenes:
        b_shifted = Snapshot(a.time + 1.0, b.paths)
        m = match_paths(a, b_shifted)
        assert len(m.common) + len(m.dying) == len(a.paths)
        assert len(m.common) + len(m.born) == len(b_shifted.paths)
        common_sigs = {p.signature for p, _ in m.common}
        assert common_sigs.isdisjoint({p.signature for p in m.dying})
        assert common_sigs.isdisjoint({p.signature for p in m.born})
