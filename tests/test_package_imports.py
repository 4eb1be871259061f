"""What `import raychan` loads, and what its public names resolve to.

The package loads its modules on first use (PEP 562).  Setting up a scene,
as the benchmark's set-up probe does without bytecode, must load only the
scene model; every public name must still be its home module's object.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import raychan
from raychan import generate_v2v_scenario, save_scene

SETUP_MODULES = ["raychan", "raychan.geometry", "raychan.motion", "raychan.scene"]

CHILD = """
import json, sys, types
import raychan
raychan.scene_at(raychan.load_scene(sys.argv[1]), 0.0)
report = {"setup": sorted(m for m in sys.modules if m.split(".")[0] == "raychan")}
objects = {name: getattr(raychan, name) for name in raychan.__all__}
report["not_home"] = [name for name, obj in objects.items()
                      if not obj.__module__.startswith("raychan.")
                      or getattr(sys.modules[obj.__module__], name) is not obj]
report["not_in_dir"] = sorted(set(raychan.__all__) - set(dir(raychan)))
try:
    raychan.no_such_name
    report["unknown"] = "no error"
except AttributeError as exc:
    report["unknown"] = str(exc)
star = {}
exec("from raychan import *", star)
star.pop("__builtins__")
report["star_modules"] = sorted(k for k, v in star.items() if isinstance(v, types.ModuleType))
report["star_names"] = sorted(star) == sorted(raychan.__all__)
print(json.dumps(report))
"""


def test_scene_setup_loads_only_the_scene_model(tmp_path):
    scene_path = tmp_path / "scene.json"
    save_scene(generate_v2v_scenario(seed=0), scene_path)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(Path(raychan.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(scene_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["setup"] == SETUP_MODULES
    assert report["not_home"] == []
    assert report["not_in_dir"] == []
    assert report["unknown"] == "module 'raychan' has no attribute 'no_such_name'"
    assert report["star_modules"] == []
    assert report["star_names"]
