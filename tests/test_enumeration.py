"""The RT pass's shortcuts are exact.

Plane-side culling, beam culling of ordered pairs and the batched
construction filter skip reflection candidates before solve_backbone, and
the crossing kernel's box test skips (segment, facet) pairs before the exact
crossing test.  All must leave every result unchanged: the culled and
filtered enumeration is compared with one that tries every candidate, also
on scenes whose bounces sit on the boundaries of the predicates (where the
beam's rounding is amplified most), the filter with solve_backbone on such
scenes, and the kernel with a run whose broad phase lets every pair through.
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
from raychan.runs import StageTimer
from raychan.rt import (
    ConstructionError,
    Mechanism,
    build_geometry,
    facet_crossings,
    occlusion_profile,
    signature_sort_key,
    solve_backbone,
    trace_geometry,
    trace_snapshot,
)


def _every_backbone(geom):
    refl, diff = Mechanism.REFLECTION, Mechanism.DIFFRACTION
    fids = [f.id for f in geom.scene.facets]
    yield ()
    for fid in fids:
        yield ((refl, fid),)
    for f1, f2 in itertools.permutations(fids, 2):
        yield ((refl, f1), (refl, f2))
    for e in geom.scene.edges:
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
        [sig] = occlusion_profile(geom, [(backbone, points)])
        if sig is None:
            continue
        try:
            out.append(build_geometry(geom, sig, points))
        except ConstructionError:
            continue
    out.sort(key=lambda g: signature_sort_key(g.signature))
    return out


def _assert_same_geometries(scene, t, timer=None):
    _geom, culled = trace_geometry(scene, t, timer=timer)
    full = _unculled_geometry(scene, t)
    assert [g.signature for g in culled] == [g.signature for g in full]
    for a, b in zip(culled, full):
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.pen_points, b.pen_points)
    return full


class TestCulling:
    @pytest.mark.parametrize("t", [0.0, 0.7, 2.35, 4.1, 6.0])
    def test_default_scene(self, default_scene, t):
        assert len(_assert_same_geometries(default_scene, t)) > 5

    def test_city_scene(self):
        scene = generate_v2v_scenario(seed=0, building_segments=16, length_m=400)
        assert len(scene.facets) == 219
        assert len(_assert_same_geometries(scene, 0.0)) > 5

    def test_random_scenes(self):
        found = 0
        for seed in range(100):
            scene = random_scene(seed)
            for t in (0.3, 0.9):
                found += len(_assert_same_geometries(scene, t))
        assert found > 200

    def test_counts_reach_the_manifest(self, default_scene, tmp_path):
        n_f, n_e = len(default_scene.facets), len(default_scene.edges)
        per_pass = 1 + n_f * n_f + n_e
        for mode in ("rt", "drt", "edrt"):
            run = execute_run(default_scene, mode, 1.0, 0.1, 1.0)
            tried, culled = run.counters["rt_candidates"], run.counters["rt_culled"]
            assert tried + culled == per_pass * len(run.rt_times)
            assert 0 < culled < tried
            prefiltered = run.counters["rt_prefiltered"]
            assert 0 < prefiltered < tried
            beam_culled = run.counters["rt_beam_culled"]
            assert 0 < beam_culled < tried - prefiltered
            occluded = run.counters["rt_occluded"]
            assert 0 < occluded < tried - prefiltered - beam_culled
            write_manifest_json(run, tmp_path / "manifest.json")
            counters = json.loads((tmp_path / "manifest.json").read_text())["counters"]
            assert counters["rt_candidates"] == tried
            assert counters["rt_culled"] == culled
            assert counters["rt_prefiltered"] == prefiltered
            assert counters["rt_beam_culled"] == beam_culled
            assert counters["rt_occluded"] == occluded
            assert counters["rt_unconstructed"] == run.counters["rt_unconstructed"]
        # the yield on the default scene at t = 0: of the 1,677 candidates
        # left by the plane-side culling, 1,438 fail the beam test and 179
        # the batched construction, so neither reaches solve_backbone; every
        # one of the 60 that do constructs, and the one crossing call of the
        # pass drops 47 of them
        timer = StageTimer()
        snapshot = trace_snapshot(default_scene, 0.0, timer)
        assert timer.counters["rt_candidates"] == 1677
        assert timer.counters["rt_beam_culled"] == 1438
        assert timer.counters["rt_prefiltered"] == 179
        assert timer.counters["rt_unconstructed"] == 0
        assert timer.counters["rt_occluded"] == 47
        assert len(snapshot.paths) == 1677 - 1438 - 179 - 47


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
        got = facet_crossings(facets, a, d, track=np.arange(300), exclude=exclude, disp=disp)
        monkeypatch.setattr(rt, "BOX_PAD", math.inf)  # every pair passes
        want = facet_crossings(facets, a, d, track=np.arange(300), exclude=exclude, disp=disp)
        assert got[0].size > 20
        for x, y in zip(got, want):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
    def test_margins_are_signed_by_the_crossings(self, seed, moving):
        """With margins the kernel returns every pair that the exact test
        meets; its margin is >= 0 exactly at the crossings, also for
        segments lying in a facet's plane or ending on a facet, and for a
        crossing on a polygon edge."""
        rng = np.random.default_rng(seed)
        facets = _random_facets(rng, 12)
        a, d = _segments(rng, facets, 300)
        mid = 0.5 * (facets.origins[0, 0] + facets.origins[0, 1])  # on an edge of facet 0
        a[0], d[0] = mid + facets.normals[0], -2.0 * facets.normals[0]
        exclude = rng.random((300, 12)) < 0.1
        exclude[0] = False
        disp = rng.uniform(-3, 3, (300, 12, 3)) if moving else None
        seg, fac, _u, _points = facet_crossings(facets, a, d, np.arange(300), exclude, disp)
        m_seg, m_fac, margin = facet_crossings(facets, a, d, np.arange(300), exclude, disp,
                                               margins=True)
        crossed = margin >= 0.0
        assert np.array_equal(m_seg[crossed], seg) and np.array_equal(m_fac[crossed], fac)
        assert seg.size > 20 and m_seg.size > seg.size and not np.isnan(margin).any()
        if not moving:  # the edge crossing is a margin within rounding of 0
            assert abs(margin[(m_seg == 0) & (m_fac == 0)][0]) < 1e-12

    def test_against_scalar_crossings(self):
        rng = np.random.default_rng(7)
        facets = _random_facets(rng, 8)
        a, d = _segments(rng, facets, 400)
        seg, fac, u, _points = facet_crossings(facets, a, d, track=np.arange(400))
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


def _walls_scene(tx, rx, walls):
    """Static facets given by their vertex lists, Tx and Rx at rest."""
    return Scene(facets=tuple(Facet(id=f"w{i}", vertices=np.asarray(v, float))
                              for i, v in enumerate(walls)),
                 edges=(), tx_motion=Motion.stationary(tx),
                 rx_motion=Motion.stationary(rx), frequency=6e9)


def _wall_y(y, x0, x1, z0=0.0, z1=2.0):
    """A rectangle in the plane at y, over [x0, x1] x [z0, z1]."""
    return [(x0, y, z0), (x1, y, z0), (x1, y, z1), (x0, y, z1)]


def _ulps(x, k=3):
    """x and its k nearest floats on either side."""
    out = [x]
    for direction in (math.inf, -math.inf):
        v = x
        for _ in range(k):
            v = math.nextafter(v, direction)
            out.append(v)
    return sorted(out)


def _filter_keeps_accepted(scene):
    """Run every single and ordered-pair reflection candidate through the
    filter and through solve_backbone: the filter must keep each candidate
    that solve_backbone accepts.  Returns (accepted, rejected)."""
    geom = scene_at(scene, 0.0)
    n = len(scene.facets)
    accepted = rejected = 0
    for chains in ([(i,) for i in range(n)],
                   list(itertools.permutations(range(n), 2))):
        if not chains:
            continue
        keep = rt._constructible(geom, [np.array(c) for c in zip(*chains)])
        for chain, kept in zip(chains, keep.tolist()):
            backbone = tuple((Mechanism.REFLECTION, scene.facets[i].id) for i in chain)
            try:
                solve_backbone(geom, backbone)
            except ConstructionError:
                rejected += 1
                continue
            accepted += 1
            assert kept, f"filter dropped the constructible {backbone}"
    return accepted, rejected


def _corridor(tx, rx, first=(-4.0, 4.0)):
    """Walls w0 (y = 5, x over first) and w1 (y = -5) for the pair
    Tx -> w0 -> w1 -> Rx, and w2 in the plane of w1 at x in [20, 24]: the
    plane-side rule keeps (w0, w2), but w0 lies outside the beam that Rx's
    image casts through w2."""
    return _walls_scene(tx, rx, [_wall_y(5.0, *first), _wall_y(-5.0, -4.0, 4.0),
                                 _wall_y(-5.0, 20.0, 24.0)])


def _rectangle(corner, u, v):
    return [corner, corner + u, corner + u + v, corner + v]


def _needle_scene(end, h, shift):
    """A pair Tx -> w0 -> w1 -> Rx whose beam test is tight where rounding
    is amplified most.

    The transceiver named by end is h from the plane y = 5, the other one
    far from it.  The bounces are solved on wide walls first.  The wall at
    y = 5 is then cut along the leg between the bounces, through its bounce
    and moved out by shift; the wall at y = -5 becomes a needle (1e-5 m
    wide, 2 m long) that starts 1e-9 m inside the beam at its bounce and
    points straight out of it, so that its bounding sphere reaches into the
    beam by little more than that.  The beam's apex, the transceiver's image,
    is 2 h behind the plane, so the far bounce sits (10 + h) / h times as
    far from it as the near one and inherits the near bounce's rounding
    about 1e10 times.
    """
    near, far = np.array([-3.0, 5.0 - h, 1.3]), np.array([3.0, 0.0, 0.7])
    tx, rx = (near, far) if end == "tx" else (far, near)
    walls = [_wall_y(5.0, -50.0, 50.0, -50.0, 50.0), _wall_y(-5.0, -50.0, 50.0, -50.0, 50.0)]
    if end == "rx":
        walls.reverse()
    geom = scene_at(_walls_scene(tx, rx, walls), 0.0)
    points = solve_backbone(geom, tuple((Mechanism.REFLECTION, f"w{i}") for i in range(2)))
    p_near, p_far = points if end == "tx" else points[::-1]
    leg = p_far - p_near
    along = np.array([leg[0], 0.0, leg[2]]) / math.hypot(leg[0], leg[2])
    out = np.array([-along[2], 0.0, along[0]])  # in both planes, across the leg
    corner = p_near + shift * out - 4.0 * along
    corner[1] = 5.0
    cut = _rectangle(corner, 8.0 * along, 4.0 * out)
    corner = p_far + 1e-9 * out - 0.5e-5 * along
    corner[1] = -5.0
    needle = _rectangle(corner, -2.0 * out, 1e-5 * along)
    return _walls_scene(tx, rx, [cut, needle] if end == "tx" else [needle, cut])


class TestConstructionFilter:
    """The batched construction filter keeps every candidate that
    solve_backbone accepts, also where the scalar decision sits on a
    boundary of its predicates: each scene family sweeps one coordinate
    over a few ulps across that boundary.  The pair sweeps trace such
    scenes end to end, so that they check the beam culling too."""

    @staticmethod
    def _sweep(scenes):
        accepted = rejected = 0
        for scene in scenes:
            a, r = _filter_keeps_accepted(scene)
            accepted += a
            rejected += r
        assert accepted > 0 and rejected > 0
        return accepted

    def test_bounce_on_a_polygon_edge(self):
        # the bounce of Tx -> wall -> Rx lands at x = 0.5, z = 1
        self._sweep(_walls_scene((-1.5, 0.0, 1.0), (2.5, 0.0, 1.0),
                                 [_wall_y(5.0, x0, 4.0)]) for x0 in _ulps(0.5))

    def test_bounce_on_a_polygon_vertex(self):
        self._sweep(_walls_scene((-1.5, 0.0, 1.0), (2.5, 0.0, 1.0),
                                 [_wall_y(5.0, x0, 4.0, z0, 3.0)])
                    for x0 in _ulps(0.5, 1) for z0 in _ulps(1.0, 1))

    def test_second_bounce_on_a_polygon_edge(self):
        # a corridor: Tx -> y = 5 at x = -1.5 -> y = -5 at x = 1.5 -> Rx
        self._sweep(_walls_scene((-3.0, 0.0, 1.0), (3.0, 0.0, 1.0),
                                 [_wall_y(5.0, -4.0, 4.0), _wall_y(-5.0, -4.0, x1)])
                    for x1 in _ulps(1.5))

    @pytest.mark.parametrize("end", ["tx", "rx"])
    def test_transceiver_within_side_eps_of_the_plane(self, end):
        # the image-line parameter goes to 0 (Tx) or 1 (Rx) with the gap
        near = [(2.0, y, 1.0) for y in _ulps(5.0 - rt.SIDE_EPS, 4)
                + _ulps(5.0 - 0.5 * rt.SIDE_EPS, 1) + _ulps(5.0 - 2.0 * rt.SIDE_EPS, 1)]
        far = (-2.0, 0.0, 1.0)
        self._sweep(_walls_scene(*((p, far) if end == "tx" else (far, p)),
                                 [_wall_y(5.0, -4.0, 4.0)]) for p in near)

    def test_bounce_near_grazing(self):
        # |s_in . n| = h / sqrt(L^2 + h^2), swept across GRAZING_COS
        length = 1000.0
        heights = _ulps(length * rt.GRAZING_COS, 6) + [0.5 * length * rt.GRAZING_COS]
        self._sweep(_walls_scene((-length, h, 1.0), (length, h, 1.0),
                                 [_wall_y(0.0, -1.0, 1.0)]) for h in heights)

    PAIR = ((Mechanism.REFLECTION, "w0"), (Mechanism.REFLECTION, "w1"))

    def _pair_sweep(self, scenes):
        """Trace every scene against the enumeration that tries every
        candidate.  The sweep must straddle its boundary (the pair w0 -> w1
        found in some scenes, not in others), and the beam rule must cull
        some pair."""
        found = missed = beam_culled = 0
        for scene in scenes:
            timer = StageTimer()
            sigs = {g.signature for g in _assert_same_geometries(scene, 0.0, timer)}
            found += self.PAIR in sigs
            missed += self.PAIR not in sigs
            beam_culled += timer.counters["rt_beam_culled"]
        assert found > 0 and missed > 0
        assert beam_culled > 0

    def test_pair_first_bounce_on_a_polygon_edge(self):
        # the first bounce lands at x = -1.5 on w0's edge
        self._pair_sweep(_corridor((-3.0, 0.0, 1.0), (3.0, 0.0, 1.0), first=(x0, 4.0))
                         for x0 in _ulps(-1.5))

    @pytest.mark.parametrize("end", ["tx", "rx"])
    def test_pair_transceiver_within_side_eps_of_the_plane(self, end):
        # the near bounce on the cut wall's edge, within ulps
        self._pair_sweep(_needle_scene(end, h, k * 1e-15)
                         for h in np.linspace(1.5, 5.0, 8) * rt.SIDE_EPS for k in range(-2, 3))
