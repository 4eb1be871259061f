"""The benchmark's per-layer spans still find what they wrap.

perfbench/tracing.py patches package functions by name from outside.  A
span whose function was renamed or is no longer called would otherwise show
only in the benchmark's traced self-test.  One short street run per mode,
traced, must fire every span and give the snapshots of the untraced run.
"""

import importlib.util
import sys
from pathlib import Path

import raychan
import raychan.rt
import raychan.scene
from raychan import generate_v2v_scenario, signature_str
from raychan.cli import execute_run

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
RUNS = (("rt", 0.1, 0.2), ("drt", 1.0, 6.0), ("edrt", 1.0, 6.0))  # (mode, t_c, duration)


def _load_tracing():
    """perfbench/tracing.py as a module, leaving no bytecode beside it."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _rows(run):
    return [(s.time, signature_str(p.signature), p.delay, p.power_dbm, p.field.tobytes(),
             len(p.interactions)) for s in run.snapshots for p in s.paths]


def test_every_span_fires_and_tracing_changes_no_output():
    tracing = _load_tracing()
    scene = generate_v2v_scenario(seed=0)
    untraced = [_rows(execute_run(scene, mode, t_c, 0.1, duration))
                for mode, t_c, duration in RUNS]
    original = raychan.rt.occlusion_profile
    # the package looks these up in their home modules, which the tracer
    # patches; after uninstall it must give the originals again
    homes = {"scene_at": raychan.scene, "trace_snapshot": raychan.rt, "make_path": raychan.rt}
    originals = {name: getattr(home, name) for name, home in homes.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [_rows(execute_run(scene, mode, t_c, 0.1, duration))
                  for mode, t_c, duration in RUNS]
    finally:
        tracer.uninstall()
    assert raychan.rt.occlusion_profile is original
    assert all(getattr(raychan, name) is originals[name] for name in homes)
    assert traced == untraced
    assert all(rows for rows in traced)
    silent = [name for name in tracing.SPAN_NAMES if tracer.spans[name][0] == 0]
    assert not silent
