"""raychan: site-specific ray-traced multipath channel prediction.

Three engines over one scene model:

* rt    - exhaustive deterministic ray tracing at a single time instant
* drt   - geometry extrapolation between reference passes, structure frozen
* edrt  - bidirectional geometry extrapolation with multipath birth/death
          prediction and ratio-based field extrapolation

Importing the package loads none of its modules.  Each public name is
looked up in its home module (`_HOMES`) when it is first read (PEP 562), so
`load_scene` and `scene_at` load only `scene`, `geometry` and `motion`, and
the coefficient, engine, run, metric and scenario modules load when one of
their names is read (or imported directly, as `raychan.cli` does).  The
package keeps no copy of a name: every lookup goes to the home module, so
what a module's namespace holds, the package gives.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "coefficients": ("Transmission", "WedgeGeometry", "transition_function",
                     "utd_coefficient"),
    "drt": ("PathTrajectory",),
    "edrt": ("Lifetime", "MatchedPaths", "drt_run", "edrt_run", "match_paths",
             "solve_lifetimes"),
    "geometry": ("ConstructionError",),
    "metrics": ("PDP", "ErrorReport", "error_report", "pdp_extract", "similarity_index"),
    "motion": ("Motion", "MotionState", "position_at", "velocity_at"),
    "rt": ("Interaction", "Mechanism", "Path", "PathGeometry", "Snapshot",
           "field_of_path", "make_path", "parse_signature", "signature_str",
           "trace_snapshot"),
    "runs": ("PredictionConfig", "RunResult", "StageTimer", "oracle_run", "rt_run",
             "time_grid"),
    "scene": ("Edge", "Facet", "Material", "Scene", "SceneAtTime", "SceneError",
              "load_scene", "save_scene", "scene_at"),
    "scenario": ("generate_v2v_scenario", "random_scene"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
