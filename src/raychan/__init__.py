"""raychan: site-specific ray-traced multipath channel prediction.

Three engines over one scene model:

* rt    - exhaustive deterministic ray tracing at a single time instant
* drt   - geometry extrapolation between reference passes, structure frozen
* edrt  - bidirectional geometry extrapolation with multipath birth/death
          prediction and ratio-based field extrapolation
"""

from .coefficients import (
    Transmission,
    WedgeGeometry,
    fresnel_coefficients,
    transition_function,
    transmission_coefficient,
    utd_coefficient,
)
from .drt import PathTrajectory, drt_run, predict_snapshot_drt
from .edrt import (
    Lifetime,
    MatchedPaths,
    birth_time,
    death_time,
    edrt_run,
    extrapolate_field,
    match_paths,
    predict_snapshot_edrt,
    solve_lifetimes,
)
from .metrics import (
    PDP,
    ErrorReport,
    error_report,
    field_error,
    geometry_error,
    pdp_extract,
    similarity_index,
)
from .motion import Motion, MotionState, position_at, velocity_at
from .rt import (
    ConstructionError,
    Interaction,
    Mechanism,
    Path,
    PathGeometry,
    Snapshot,
    field_of_path,
    make_path,
    parse_signature,
    signature_str,
    trace_snapshot,
)
from .runs import PredictionConfig, RunResult, StageTimer, oracle_run, rt_run, time_grid
from .scene import (
    Edge,
    Facet,
    Material,
    Scene,
    SceneAtTime,
    SceneError,
    load_scene,
    point_in_facet,
    save_scene,
    scene_at,
)
from .scenario import generate_v2v_scenario, random_scene

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
