"""The penetration rule on small explicit scenes.

An RT pass derives a path's penetrations from its crossing profile: a
candidate is blocked by any opaque crossing, dropped when it crosses more
than one transparent slab, and otherwise carries the one slab it crosses,
on the segment where it crosses it.  A prediction checks the slabs that its
signature declares instead: a path whose declared slab is no longer
crossed is left out of that instant.
"""

import numpy as np

from raychan import Facet, Material, Motion, MotionState, Scene, signature_str, trace_snapshot
from raychan.cli import execute_run

GLASS = Material(rel_permittivity=6.27, conductivity=0.0043, transparent=True)
TX, RX = (0.0, 0.0, 1.5), (10.0, 0.0, 1.5)


def _pane(fid, x, y_lo, y_hi, material=GLASS, motion=None):
    """A vertical facet in the plane x, spanning y_lo..y_hi and z 0..3."""
    facet = Facet(id=fid, vertices=np.array(
        [[x, y_lo, 0], [x, y_hi, 0], [x, y_hi, 3], [x, y_lo, 3]], float), material=material)
    if motion is not None:
        facet = Facet(id=fid, vertices=facet.vertices, material=material, motion=motion)
    return facet


def _scene(*facets):
    return Scene(facets=facets, edges=(), tx_motion=Motion.stationary(TX),
                 rx_motion=Motion.stationary(RX), frequency=6e9)


def _signatures(scene, t=0.0):
    return {signature_str(p.signature): p for p in trace_snapshot(scene, t).paths}


def test_one_pane_on_the_line_of_sight_is_penetrated():
    assert set(_signatures(_scene(_pane("a", 3.0, -1.0, 1.0)))) == {"P:a"}


def test_two_panes_in_series_give_no_path():
    scene = _scene(_pane("a", 3.0, -1.0, 1.0), _pane("b", 6.0, -1.0, 1.0))
    assert _signatures(scene) == {}


def test_a_pane_and_an_opaque_wall_give_no_path():
    for wall_x, pane_x in ((6.0, 3.0), (3.0, 6.0)):
        scene = _scene(_pane("pane", pane_x, -1.0, 1.0),
                       _pane("wall", wall_x, -1.0, 1.0, material=Material()))
        assert _signatures(scene) == {}


def test_reflection_with_a_pane_on_its_second_leg():
    # the wall at y = 5 reflects at (5, 5, 1.5); the leg on to Rx crosses
    # the plane x = 8 at y = 2, inside the pane, which neither the first leg
    # nor the line of sight reaches
    wall = Facet(id="wall", vertices=np.array(
        [[-5, 5, 0], [15, 5, 0], [15, 5, 3], [-5, 5, 3]], float))
    paths = _signatures(_scene(wall, _pane("pane", 8.0, 1.0, 4.0)))
    assert set(paths) == {"LOS", "R:wall|P:pane"}
    refl, pen = paths["R:wall|P:pane"].interactions
    assert np.allclose(refl.point, [5.0, 5.0, 1.5], atol=1e-9)
    assert np.allclose(pen.point, [8.0, 2.0, 1.5], atol=1e-9)
    leg = np.asarray(RX) - refl.point
    u = np.dot(pen.point - refl.point, leg) / np.dot(leg, leg)
    assert 0.0 < u < 1.0
    assert np.allclose(refl.point + u * leg, pen.point, atol=1e-12)


def test_predicted_path_leaves_only_the_instants_its_pane_misses():
    # the pane slides along y by 10 t - 10 t^2: 2.5 m at t = 0.5 s, past its
    # 2.45 m half-width, and at most 2.4 m at every other instant of the grid
    motion = Motion((MotionState([0, 0, 0], [0, 10, 0], [0, -20, 0]),))
    scene = _scene(_pane("pane", 5.0, -2.45, 2.45, motion=motion))
    run = execute_run(scene, "edrt", 1.0, 0.1, 1.0)
    rt = execute_run(scene, "rt", 1.0, 0.1, 1.0)
    missing = []
    for predicted, traced in zip(run.snapshots, rt.snapshots):
        sigs = {signature_str(p.signature) for p in predicted.paths}
        assert sigs <= {"P:pane"}
        assert ("P:pane" in sigs) == ("P:pane" in _signatures(scene, traced.time))
        if not sigs:
            missing.append(round(predicted.time, 9))
    assert missing == [0.5]
    # a common path of its window: its lifetime is untouched
    [record] = run.lifetimes
    assert (record.signature, record.classification) == ("P:pane", "common")
    assert (record.birth_s, record.death_s) == (0.0, 1.0)
