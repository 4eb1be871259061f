import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # local oracle helpers

from raychan import generate_v2v_scenario
from raychan.cli import execute_run
from raychan.runs import oracle_run

DT = 0.1
T_C = 1.0
DURATION = 6.0
ROUNDS = round(DURATION / T_C)


@pytest.fixture(scope="session")
def default_scene():
    """The documented default street scenario (seed 0)."""
    return generate_v2v_scenario(seed=0)


@pytest.fixture(scope="session")
def oracle_default(default_scene):
    """Fine-step (dt/10) full ray-tracing reference over the default run."""
    return oracle_run(default_scene, DT, DURATION)


@pytest.fixture(scope="session")
def drt_default(default_scene):
    return execute_run(default_scene, "drt", T_C, DT, DURATION)


@pytest.fixture(scope="session")
def edrt_default(default_scene):
    return execute_run(default_scene, "edrt", T_C, DT, DURATION)


@pytest.fixture(scope="session")
def rt_default(default_scene):
    return execute_run(default_scene, "rt", T_C, DT, DURATION)
