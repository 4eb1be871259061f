"""Command-line harness.

    raychan generate --out scene.json [--length 60 --width 10 --segments 8
                                       --tx-speed 10 --rx-speed 10 --seed 0]
    raychan run --scene scene.json --mode {rt,drt,edrt,oracle}
                --tc 1.0 --dt 0.1 --duration 6.0 --out OUTDIR [--seed 0]
                [--reference OTHER_RUN_DIR]

`run` writes snapshots.csv, manifest.json, timing.json, pdp.csv, and (for
mode edrt) lifetimes.csv into the output directory; when --reference points
at a directory holding another run's snapshots.csv and manifest.json,
errors.json is written as well, if that run is of the same scene file and
frequency.  Exit codes: 0 success; 1 invalid input (ValidationError,
SceneError, a missing file, a reference run that cannot be compared); 2
any other failure at run time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path as FilePath

from . import io as artifact_io
from .edrt import drt_run, edrt_run
from .metrics import error_report, pdp_extract
from .rt import Snapshot
from .runs import PredictionConfig, RunResult, oracle_run, rt_run, time_grid, time_key
from .scene import Scene, SceneError, load_scene, save_scene
from .scenario import generate_v2v_scenario

MODES = ("rt", "drt", "edrt", "oracle")


class ValidationError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="raychan")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic V2V scene file")
    gen.add_argument("--out", required=True, help="scene JSON output path")
    gen.add_argument("--length", type=float, default=60.0, help="route span, m")
    gen.add_argument("--width", type=float, default=10.0, help="street width, m")
    gen.add_argument("--segments", type=int, default=8,
                     help="middle-row building count")
    gen.add_argument("--tx-speed", type=float, default=10.0)
    gen.add_argument("--rx-speed", type=float, default=10.0)
    gen.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="execute a prediction run")
    run.add_argument("--scene", required=True)
    run.add_argument("--mode", required=True, choices=MODES)
    run.add_argument("--tc", type=float, default=1.0,
                     help="extrapolation window, s")
    run.add_argument("--dt", type=float, default=0.1, help="prediction step, s")
    run.add_argument("--duration", type=float, required=True,
                     help="total simulated span, s (multiple of tc)")
    run.add_argument("--out", required=True, help="artifact directory")
    run.add_argument("--seed", type=int, default=0,
                     help="recorded in the manifest for provenance")
    run.add_argument("--reference", default=None,
                     help="directory of a reference run (enables errors.json)")
    return parser


def execute_run(scene: Scene, mode: str, t_c: float, dt: float,
                duration: float) -> RunResult:
    """Run one mode over the closed grid [0, duration].

    In every mode t_c, dt and duration must be positive and finite, t_c a
    multiple of dt and duration a multiple of t_c; ValidationError otherwise.
    """
    if not all(0.0 < x < math.inf for x in (t_c, dt, duration)):
        raise ValidationError("tc, dt and duration must be positive and finite")
    steps = t_c / dt
    if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
        raise ValidationError("tc must be an integer multiple of dt")
    rounds = round(duration / t_c)
    if abs(rounds * t_c - duration) > 1e-9 or rounds < 1:
        raise ValidationError("duration must be a positive multiple of tc")
    if mode == "rt":
        return rt_run(scene, dt, duration)
    if mode == "oracle":
        return oracle_run(scene, dt, duration)
    try:
        config = PredictionConfig(t_c=t_c, dt=dt, rounds=rounds)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    if mode == "edrt":
        return edrt_run(scene, config)
    return drt_run(scene, config)


def _cmd_generate(args) -> int:
    try:
        scene = generate_v2v_scenario(
            length_m=args.length, street_width_m=args.width,
            building_segments=args.segments,
            speeds=(args.tx_speed, args.rx_speed), seed=args.seed)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    save_scene(scene, args.out)
    print(f"wrote {args.out}: {len(scene.facets)} facets, {len(scene.edges)} edges")
    return 0


def _read_reference(directory: FilePath, scene: Scene, provenance: dict) -> list[Snapshot]:
    """The snapshots of the run in directory, on its whole grid, with field
    magnitudes at the scene's wavelength (io.read_snapshots_csv).

    snapshots.csv has no row for an instant without paths, so the grid comes
    from the run's manifest.json (dt, duration), and the instants absent
    from the CSV are empty snapshots.  A missing manifest, or one without
    provenance's scene_sha256 and frequency_hz, is a ValidationError.
    """
    manifest = directory / "manifest.json"
    if not manifest.is_file():
        raise ValidationError(f"reference run has no manifest: {manifest}")
    doc = json.loads(manifest.read_text())
    if {key: doc.get(key) for key in provenance} != provenance:
        raise ValidationError(f"reference run is of another scene file or frequency: {manifest}")
    by_key = {time_key(s.time): s for s in artifact_io.read_snapshots_csv(
        directory / "snapshots.csv", scene.wavelength)}
    return [by_key.get(time_key(t), Snapshot(time=t, paths=[]))
            for t in time_grid(doc["duration"], doc["dt"])]


def _compare(reference: list[Snapshot], run: RunResult):
    """The error report of run against reference.  ValidationError when the
    two cannot be compared: the reference has no snapshot at some instant of
    the run (it is on another grid), or one of the two runs has no path with
    power at the run's instants."""
    listed = {time_key(s.time) for s in reference}
    missing = [s.time for s in run.snapshots if time_key(s.time) not in listed]
    if missing:
        raise ValidationError(f"reference run has no snapshot at t={missing[0]:g} s: "
                              "it is on another time grid")
    keys = {time_key(s.time) for s in run.snapshots}
    for name, snapshots in (("reference", reference), (run.mode, run.snapshots)):
        if not any(math.isfinite(p.power_dbm) for s in snapshots
                   if time_key(s.time) in keys for p in s.paths):
            raise ValidationError(f"cannot compare with the reference: the {name} run "
                                  "has no path with power")
    return error_report(reference, run)


def _cmd_run(args) -> int:
    scene = load_scene(args.scene)
    run = execute_run(scene, args.mode, args.tc, args.dt, args.duration)
    outdir = FilePath(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    artifact_io.write_snapshots_csv(run, outdir / "snapshots.csv")
    artifact_io.write_timing_json(run, outdir / "timing.json")
    provenance = {"scene_sha256": hashlib.sha256(FilePath(args.scene).read_bytes()).hexdigest(),
                  "frequency_hz": scene.frequency}
    artifact_io.write_manifest_json(run, outdir / "manifest.json",
                                    extra={"scene": str(args.scene), "seed": args.seed,
                                           **provenance})
    artifact_io.write_pdp_csv(pdp_extract(run, rx_motion=scene.rx_motion),
                              outdir / "pdp.csv")
    if run.mode == "edrt":
        artifact_io.write_lifetimes_csv(run, outdir / "lifetimes.csv")
    if args.reference:
        report = _compare(_read_reference(FilePath(args.reference), scene, provenance), run)
        artifact_io.write_error_json(report, outdir / "errors.json")
    n_pred = len(run.predicted_times())
    print(f"{run.mode}: {len(run.snapshots)} snapshots "
          f"({len(run.rt_times)} traced, {n_pred} predicted) -> {outdir}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_run(args)
    except (ValidationError, SceneError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - any other failure, ValueError included
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
