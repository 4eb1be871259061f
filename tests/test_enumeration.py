"""The RT pass's shortcuts are exact.

Plane-side culling skips reflection candidates before solve_backbone, and
the crossing kernel's box test skips (segment, facet) pairs before the exact
crossing test.  Both must leave every result unchanged: the culled
enumeration is compared with one that tries every candidate, and the kernel
with a run whose broad phase lets every pair through.
"""

import itertools
import json
import math

import numpy as np
import pytest

import raychan.rt as rt
from raychan import Facet, Motion, Scene, generate_v2v_scenario, random_scene, scene_at
from raychan.cli import execute_run
from raychan.io import write_manifest_json
from raychan.rt import (
    ConstructionError,
    Mechanism,
    _owner_ids_for,
    _signature_with_penetrations,
    build_geometry,
    facet_crossings,
    occlusion_profile,
    signature_sort_key,
    solve_backbone,
    trace_geometry,
)


def _every_backbone(geom):
    refl, diff = Mechanism.REFLECTION, Mechanism.DIFFRACTION
    fids = [f.id for f in geom.facets]
    yield ()
    for fid in fids:
        yield ((refl, fid),)
    for f1, f2 in itertools.permutations(fids, 2):
        yield ((refl, f1), (refl, f2))
    for e in geom.edges:
        yield ((diff, e.id),)


def _unculled_geometry(scene, t):
    """trace_geometry with every candidate tried through solve_backbone."""
    geom = scene_at(scene, t)
    out = []
    for backbone in _every_backbone(geom):
        try:
            points = solve_backbone(geom, backbone)
        except ConstructionError:
            continue
        blocked, pens = occlusion_profile(geom, [geom.tx] + points + [geom.rx],
                                          _owner_ids_for(scene, backbone))
        if blocked or len(pens) > 1:
            continue
        try:
            out.append(build_geometry(
                geom, _signature_with_penetrations(backbone, pens), points))
        except ConstructionError:
            continue
    out.sort(key=lambda g: signature_sort_key(g.signature))
    return out


def _assert_same_geometries(scene, t):
    _geom, culled = trace_geometry(scene, t)
    full = _unculled_geometry(scene, t)
    assert [g.signature for g in culled] == [g.signature for g in full]
    for a, b in zip(culled, full):
        assert all(np.array_equal(p, q) for p, q in zip(a.vertices, b.vertices))
        assert [h.facet.id for h in a.penetrations] == \
            [h.facet.id for h in b.penetrations]
    return len(full)


class TestCulling:
    @pytest.mark.parametrize("t", [0.0, 0.7, 2.35, 4.1, 6.0])
    def test_default_scene(self, default_scene, t):
        assert _assert_same_geometries(default_scene, t) > 5

    def test_city_scene(self):
        scene = generate_v2v_scenario(seed=0, building_segments=16, length_m=400)
        assert len(scene.facets) == 219
        assert _assert_same_geometries(scene, 0.0) > 5

    def test_random_scenes(self):
        found = 0
        for seed in range(100):
            scene = random_scene(seed)
            for t in (0.3, 0.9):
                found += _assert_same_geometries(scene, t)
        assert found > 200

    def test_counts_reach_the_manifest(self, default_scene, tmp_path):
        n_f, n_e = len(default_scene.facets), len(default_scene.edges)
        per_pass = 1 + n_f * n_f + n_e
        for mode in ("rt", "drt", "edrt"):
            run = execute_run(default_scene, mode, 1.0, 0.1, 1.0)
            tried, culled = run.counters["rt_candidates"], run.counters["rt_culled"]
            assert tried + culled == per_pass * len(run.rt_times)
            assert 0 < culled < tried
            write_manifest_json(run, tmp_path / "manifest.json")
            counters = json.loads((tmp_path / "manifest.json").read_text())["counters"]
            assert counters["rt_candidates"] == tried
            assert counters["rt_culled"] == culled


def _random_facets(rng, n):
    """n random convex quads (a mix of orientations) as FacetArrays."""
    facets = []
    for i in range(n):
        c = rng.uniform(-10, 10, 3)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        v = np.cross(u, rng.normal(size=3))
        v /= np.linalg.norm(v)
        a, b = rng.uniform(0.5, 5.0, 2)
        verts = np.array([c - a * u - b * v, c + a * u - b * v,
                          c + a * u + b * v, c - a * u + b * v])
        facets.append(Facet(id=f"f{i}", vertices=verts))
    scene = Scene(facets=tuple(facets), edges=(), tx_motion=Motion.stationary([0, 0, 0]),
                  rx_motion=Motion.stationary([1, 0, 0]), frequency=6e9)
    return scene.statics().epoch


def _segments(rng, facets, n):
    """Random segments; a third end on a facet, a few lie in a facet plane."""
    a = rng.uniform(-15, 15, (n, 3))
    b = rng.uniform(-15, 15, (n, 3))
    n_f = facets.normals.shape[0]
    for k in range(0, n, 3):
        f = rng.integers(n_f)
        w = rng.dirichlet(np.ones(4))
        b[k] = w @ facets.origins[f]        # ends on facet f
    for k in range(1, n, 10):
        f = rng.integers(n_f)
        a[k] = rng.dirichlet(np.ones(4)) @ facets.origins[f]
        b[k] = rng.dirichlet(np.ones(4)) @ facets.origins[f]  # in its plane
    return a, b - a


class TestCrossingKernel:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
    def test_broad_phase_drops_no_crossing(self, seed, moving, monkeypatch):
        rng = np.random.default_rng(seed)
        facets = _random_facets(rng, 12)
        a, d = _segments(rng, facets, 300)
        exclude = rng.random((300, 12)) < 0.1
        disp = rng.uniform(-3, 3, (300, 12, 3)) if moving else None
        got = facet_crossings(facets, a, d, exclude=exclude, disp=disp)
        monkeypatch.setattr(rt, "BOX_PAD", math.inf)  # every pair passes
        want = facet_crossings(facets, a, d, exclude=exclude, disp=disp)
        assert got[0].size > 20
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    def test_against_scalar_crossings(self):
        rng = np.random.default_rng(7)
        facets = _random_facets(rng, 8)
        a, d = _segments(rng, facets, 400)
        seg, fac, u, _points = facet_crossings(facets, a, d)
        got = set(zip(seg.tolist(), fac.tolist()))
        want = set()
        for s, f in itertools.product(range(len(a)), range(8)):
            n = facets.normals[f]
            denom = float(n @ d[s])
            if abs(denom) < 1e-9:
                continue
            t = (facets.offsets[f] - float(n @ a[s])) / denom
            if not 1e-6 < t < 1.0 - 1e-6:
                continue
            p = a[s] + t * d[s]
            edge_d = np.einsum("vc,vc->v", p - facets.origins[f], facets.inward[f])
            if edge_d.min() > 1e-9:
                want.add((s, f))
        # well-conditioned crossings agree; the ones skipped above are the
        # near-degenerate cases only the exact kernel decides
        assert want <= got
        assert len(want) > 30
        assert np.all((u > 0.0) & (u < 1.0))
