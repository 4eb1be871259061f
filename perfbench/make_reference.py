"""Rebuild the stored RT references from raychan's `rt` mode.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  Writes `perfbench/reference/<scene>.json`
for each scene of `workloads.json`, covering every instant the workloads on
that scene check.  Rebuild only from a commit whose `rt` mode is trusted:
the benchmark grades every later commit against these files.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    raychan = run.load_program()
    out_dir = run.HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    for name in sorted(run.config()["scenes"]):
        scene = raychan.load_scene(run.write_scene(raychan, name, seed=0))
        reference = run.build_reference(raychan, name, scene)
        path = out_dir / f"{name}.json"
        reference.save(path)
        print(f"wrote {path.relative_to(run.ROOT)}: "
              f"{len(reference.snapshots)} instants, git {run.git_sha()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
