"""Benchmark of raychan's three prediction modes.

    python3 perfbench/run.py --workload street-paper [--seed 0] [--seconds 30]
                             [--trace 0|1]

Run from the root of a source checkout: the program is imported from
`src/raychan` there.  Each run of a mode calls `raychan.cli.execute_run` on
a freshly loaded scene, as one `raychan run` invocation would, one run at a
time in this one process.  The workloads and the generator call of each
scene are in `workloads.json`; `README.md` defines every metric.

--seed 0 benchmarks the generated scene as is.  Any other seed translates
the whole scene rigidly by an offset drawn from the seed: the inputs differ,
while every path's delay, power and lifetime stay those of the stored
reference.

--trace 0 times each mode untraced, checks every output against the stored
RT reference and prints the end-to-end metrics.  --trace 1 wraps the
package's public functions (see `tracing.py`), reruns the modes traced and
prints the per-layer metrics, after a self-test of the tracing.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A full report is written to
`.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path as FilePath

import numpy as np

import check
import tracing

HERE = FilePath(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 7          # set-up is measured in this many fresh processes
MIN_TRACED_REPS = 2        # counts must repeat across traced repetitions
TRANSLATION_M = 100.0      # seed offsets are drawn from [-this, this] per axis
LIFETIME_FALLBACK_PREFIX = "edrt: no geometric"

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import raychan
scene = raychan.load_scene(sys.argv[2])
raychan.scene_at(scene, 0.0)
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run the workload as defined."""


@functools.cache
def config() -> dict:
    """The scenes and workloads of `workloads.json`."""
    return json.loads((HERE / "workloads.json").read_text())


# ---------------------------------------------------------------------------
# Program, scene and reference
# ---------------------------------------------------------------------------

def load_program():
    if not (SRC / "raychan" / "__init__.py").is_file():
        raise BenchError(f"no raychan package under {SRC}")
    sys.path.insert(0, str(SRC))
    import raychan
    import raychan.cli
    import raychan.io
    if FilePath(raychan.__file__).resolve().parent != SRC / "raychan":
        raise BenchError(f"raychan was imported from {raychan.__file__}, not {SRC}")
    return raychan


def seed_offset(seed: int) -> np.ndarray:
    if seed == 0:
        return np.zeros(3)
    return np.random.default_rng(seed).uniform(-TRANSLATION_M, TRANSLATION_M, 3)


def write_scene(raychan, name: str, seed: int) -> FilePath:
    """Generate the workload's scene, pin its size, translate it, save it."""
    spec = config()["scenes"][name]
    scene = getattr(raychan, spec["generator"])(**spec["kwargs"])
    sizes = (len(scene.facets), len(scene.edges))
    if sizes != (spec["facets"], spec["edges"]):
        raise BenchError(f"scene {name}: {spec['generator']}(**{spec['kwargs']}) "
                         f"gave {sizes[0]} facets and {sizes[1]} edges, expected "
                         f"{spec['facets']} and {spec['edges']}")
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{name}-seed{seed}.json"
    raychan.save_scene(scene, path)
    offset = seed_offset(seed)
    if seed != 0:
        doc = json.loads(path.read_text())
        for facet in doc["facets"]:
            facet["vertices"] = (np.asarray(facet["vertices"]) + offset).tolist()
        for edge in doc["edges"]:
            edge["endpoints"] = (np.asarray(edge["endpoints"]) + offset).tolist()
        for end in ("tx", "rx"):
            for seg in doc[end]["motion_segments"]:
                seg["r0"] = (np.asarray(seg["r0"]) + offset).tolist()
        path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


def reference_grids(scene_name: str) -> list[tuple[float, float, float]]:
    """rt-mode runs (t_c, dt, duration) that cover every instant the
    workloads on this scene check: the 0.1 s accuracy grid over the longest
    span, and the grid of each rt run."""
    runs = [r for w in config()["workloads"].values() if w["scene"] == scene_name
            for r in w["runs"]]
    span = max(r["duration"] for r in runs)
    grids = [(span, check.ACCURACY_STEP, span)]
    covered = {check.time_key(t) for t in check.grid(check.ACCURACY_STEP, span)}
    for r in runs:
        if r["mode"] != "rt":
            continue
        keys = {check.time_key(t) for t in check.grid(r["dt"], r["duration"])}
        if not keys <= covered:
            grids.append((r["t_c"], r["dt"], r["duration"]))
            covered |= keys
    return grids


def build_reference(raychan, scene_name: str, scene) -> check.Reference:
    runs = [raychan.cli.execute_run(scene, "rt", t_c, dt, duration)
            for t_c, dt, duration in reference_grids(scene_name)]
    return check.Reference.from_runs(scene_name, config()["scenes"][scene_name],
                                     runs)


def load_reference(raychan, scene_name: str, scene_path: FilePath):
    path = HERE / "reference" / f"{scene_name}.json"
    if path.is_file():
        reference = check.Reference.load(path)
        if reference.generator == config()["scenes"][scene_name]:
            return reference, (f"stored {path.relative_to(ROOT)}; a rigid "
                               "translation leaves it valid for every seed")
    reference = build_reference(raychan, scene_name,
                                raychan.load_scene(scene_path))
    return reference, ("no stored reference for this scene: computed now by "
                       "an untimed rt run")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(scene_path: FilePath) -> list[float]:
    """import raychan + load_scene + first scene_at, each in a new process."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(scene_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def timed_run(raychan, scene_path: FilePath, spec: dict):
    """(seconds, RunResult or the exception raised, scene) of one mode run."""
    scene = raychan.load_scene(scene_path)   # fresh per-scene caches
    t0 = time.perf_counter()
    try:
        result = raychan.cli.execute_run(scene, spec["mode"], spec["t_c"],
                                         spec["dt"], spec["duration"])
    except Exception as exc:  # noqa: BLE001 - a raised run counts as failed
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        return elapsed, exc, scene
    return time.perf_counter() - t0, result, scene


def fingerprint(run) -> str:
    if isinstance(run, BaseException):
        return f"raised {run!r}"
    h = hashlib.sha256(repr([check.time_key(t) for t in run.rt_times]).encode())
    for snap in run.snapshots:
        h.update(repr(snap.time).encode())
        for p in snap.paths:
            h.update(check.sig_key(p.signature).encode())
            h.update(np.array([p.delay, p.power_dbm]).tobytes())
            h.update(np.asarray(p.field, complex).tobytes())
    return h.hexdigest()


class OutputCheck:
    """Counts attempted and failed snapshots over every run made.

    A run whose outputs are bit-identical to an already checked run of the
    same mode shares its verdict; any other run is checked in full by
    `flush`, which must be called with no tracer installed.
    """

    def __init__(self, raychan, reference: check.Reference):
        self.raychan = raychan
        self.reference = reference
        self.verdicts: dict = {}
        self.pending: list = []
        self.attempted = 0
        self.failed = 0
        self.faults: list[str] = []

    def add(self, spec: dict, run, scene) -> None:
        self.pending.append((spec, run, scene, fingerprint(run)))

    def flush(self) -> None:
        for spec, run, scene, digest in self.pending:
            key = (spec["mode"], digest)
            if key not in self.verdicts:
                self.verdicts[key] = check.check_run(run, spec, self.reference,
                                                     self.raychan, scene)
                self.faults.extend(f"{spec['mode']}: {f}"
                                   for f in self.verdicts[key][2][:5])
            attempted, failed, _faults = self.verdicts[key]
            self.attempted += attempted
            self.failed += failed
        self.pending = []


class FallbackCounter(logging.Handler):
    """Counts E-DRT lifetimes that fell back to the window edge."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith(LIFETIME_FALLBACK_PREFIX):
            self.count += 1


@contextmanager
def counting_fallbacks():
    counter = FallbackCounter()
    logger = logging.getLogger("raychan.edrt")
    logger.addHandler(counter)
    try:
        yield counter
    finally:
        logger.removeHandler(counter)


def degraded_counts(results: dict, fallbacks: int) -> dict:
    """Degraded-case counters of one repetition, read from its results."""
    drt, edrt = (results.get(mode) for mode in ("drt", "edrt"))
    drt = None if isinstance(drt, BaseException) else drt
    edrt = None if isinstance(edrt, BaseException) else edrt
    out = {
        "edrt.lifetime.fallbacks": fallbacks,
        "drt.dropped_paths": drt.counters.get("dropped_paths", 0) if drt else 0,
        "edrt.dropped_paths": edrt.counters.get("dropped_paths", 0) if edrt else 0,
        "edrt.direct_fallbacks": edrt.counters.get("direct_fallbacks", 0) if edrt else 0,
    }
    for kind in ("common", "born", "dying"):
        out[f"edrt.lifetimes.{kind}"] = sum(
            rec.classification == kind for rec in edrt.lifetimes) if edrt else 0
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref} unresolved)"


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(raychan, workload: dict, scene_path, checker, seconds, report):
    runs = workload["runs"]
    times = {spec["mode"]: [] for spec in runs}
    field_s = {spec["mode"]: [] for spec in runs}
    first: dict = {}

    def run_once(spec):
        elapsed, result, scene = timed_run(raychan, scene_path, spec)
        times[spec["mode"]].append(elapsed)
        if not isinstance(result, BaseException):
            field_s[spec["mode"]].append(result.timing.field_s)
        first.setdefault(spec["mode"], result)
        checker.add(spec, result, scene)
        checker.flush()

    deadline = time.perf_counter() + seconds
    with counting_fallbacks() as counter:
        for spec in runs:
            run_once(spec)
        report["degraded"] = degraded_counts(first, counter.count)
    # then always the mode with the least time so far, so that each mode
    # is timed for about a third of the run: the host's speed drifts, and a
    # mode timed for a few seconds only follows the drift more closely
    while True:
        now = time.perf_counter()
        fitting = [spec for spec in runs
                   if now + max(times[spec["mode"]]) <= deadline]
        if not fitting:
            break
        run_once(min(fitting, key=lambda spec: sum(times[spec["mode"]])))

    metrics = {}
    for spec in runs:
        mode = spec["mode"]
        q1, med, q3 = quartiles(times[mode])
        metrics[f"{mode}_run_s"] = (med, "s")
        report["runs"][mode] = {"spec": spec, "samples_s": times[mode],
                                "median_s": med, "q1_s": q1, "q3_s": q3}
        print(f"{mode}: {len(times[mode])} runs, median {med:.4f} s "
              f"(quartiles {q1:.4f} to {q3:.4f})")
        run = first[mode]
        if mode == "rt" or isinstance(run, BaseException):
            continue
        acc = check.accuracy(run, spec["duration"], checker.reference)
        report["runs"][mode]["accuracy"] = acc
        metrics[f"{mode}_path_recall"] = (acc["recall"], "share")
        metrics[f"{mode}_si"] = (acc["si"], "share")
        print(f"{mode}: eps_G {acc['eps_g']:.6g}, path recall {acc['recall']:.6g}, "
              f"SI {acc['si']:.6g}")
    for name, value in report["degraded"].items():
        print(f"{name}: {value}")
    # C6 compares the modes over one grid, which only street-paper runs
    grids = {(spec["t_c"], spec["dt"], spec["duration"]) for spec in runs}
    if len(grids) == 1 and all(field_s[m] for m in ("drt", "edrt")):
        med = {m: statistics.median(times[m]) for m in ("rt", "drt", "edrt")}
        c6 = {"c6.rt_over_drt": med["rt"] / med["drt"],
              "c6.rt_over_edrt": med["rt"] / med["edrt"],
              "c6.field_ratio": (statistics.median(field_s["edrt"])
                                 / statistics.median(field_s["drt"]))}
        report["c6"] = c6
        for name, value in c6.items():
            print(f"{name}: {value:.4g} (diagnostic, not gated)")
    return metrics, []


def write_csv(raychan, run, path: FilePath) -> bytes:
    if isinstance(run, BaseException):
        return repr(run).encode()
    raychan.io.write_snapshots_csv(run, path)
    return path.read_bytes()


def per_layer(raychan, workload: dict, scene_path, checker, seconds, report, tag):
    runs = workload["runs"]
    problems = []
    untraced_s = 0.0
    baseline_csv = {}
    with counting_fallbacks() as counter:
        for spec in runs:
            elapsed, result, scene = timed_run(raychan, scene_path, spec)
            untraced_s += elapsed
            checker.add(spec, result, scene)
            baseline_csv[spec["mode"]] = write_csv(
                raychan, result, WORK / f"{tag}-{spec['mode']}-untraced.csv")
        checker.flush()

        tracer = tracing.Tracer()
        reps = []
        deadline = time.perf_counter() + seconds
        tracer.install()
        try:
            rep_s = 0.0
            while True:
                rep_start = time.perf_counter()
                tracer.reset()
                counter.count = 0
                results = {}
                traced_s = 0.0
                for spec in runs:
                    elapsed, result, scene = timed_run(raychan, scene_path, spec)
                    traced_s += elapsed
                    results[spec["mode"]] = result
                    checker.add(spec, result, scene)
                    csv = write_csv(raychan, result,
                                    WORK / f"{tag}-{spec['mode']}-traced.csv")
                    if csv != baseline_csv[spec["mode"]]:
                        problems.append(f"{spec['mode']}: a traced snapshots.csv "
                                        "differs from the untraced one")
                reps.append({"spans": {k: list(v) for k, v in tracer.spans.items()},
                             "counters": dict(tracer.counters),
                             "degraded": degraded_counts(results, counter.count),
                             "overhead": traced_s / untraced_s - 1.0})
                rep_s = max(rep_s, time.perf_counter() - rep_start)
                if (len(reps) >= MIN_TRACED_REPS
                        and time.perf_counter() + rep_s > deadline):
                    break
        finally:
            tracer.uninstall()
        checker.flush()

    def counts(rep):
        return ({k: v[0] for k, v in rep["spans"].items()}, rep["counters"],
                rep["degraded"])
    if any(counts(rep) != counts(reps[0]) for rep in reps[1:]):
        problems.append("span or counter counts differ between traced runs")
    spans = reps[0]["spans"]
    silent = [name for name in tracing.SPAN_NAMES if spans[name][0] == 0]
    if silent:
        problems.append(f"spans that never fired: {', '.join(silent)}")

    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (spans[name][0], "count")
        metrics[f"{name}.s"] = (statistics.median(r["spans"][name][1] for r in reps), "s")
        metrics[f"{name}.self_s"] = (
            statistics.median(r["spans"][name][2] for r in reps), "s")
    c = reps[0]["counters"]

    def share(num, den):
        return num / den if den else 0.0
    passes = spans["rt.pass"][0]
    enumerated = spans["rt.enumerate"][0]
    metrics["rt.enumerate.per_pass"] = (share(enumerated, passes), "count")
    metrics["rt.enumerate.yield"] = (
        share(c.get("rt.enumerate.constructed", 0), enumerated), "share")
    metrics["rt.paths"] = (share(c.get("rt.paths", 0), passes), "paths/pass")
    metrics["edrt.lifetime.scan.samples"] = (
        c.get("edrt.lifetime.scan.samples", 0), "count")
    metrics["edrt.lifetime.bisect.samples"] = (
        c.get("edrt.lifetime.bisect.samples", 0), "count")
    metrics["edrt.extrapolate.pairs"] = (c.get("edrt.extrapolate.pairs", 0), "count")
    metrics["edrt.extrapolate.direct_share"] = (
        share(c.get("edrt.extrapolate.direct", 0), c.get("edrt.extrapolate.pairs", 0)),
        "share")
    for name, value in reps[0]["degraded"].items():
        metrics[name] = (value, "count")
    overhead = statistics.median(r["overhead"] for r in reps)
    metrics["trace.overhead"] = (overhead, "share")
    report["traced_reps"] = reps
    print(f"traced {len(reps)} times; tracing overhead {overhead:.1%} of "
          f"{untraced_s:.3f} s untraced")
    for name in tracing.SPAN_NAMES:
        print(f"{name}: {spans[name][0]} calls, {spans[name][1]:.4f} s, "
              f"self {spans[name][2]:.4f} s")
    return metrics, problems


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(config()["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    raychan = load_program()
    workload = config()["workloads"][args.workload]
    scene_name = workload["scene"]
    scene_spec = config()["scenes"][scene_name]
    scene_path = write_scene(raychan, scene_name, args.seed)
    reference, reference_note = load_reference(raychan, scene_name, scene_path)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "scene": {"name": scene_name, **scene_spec,
                  "translation_m": seed_offset(args.seed).tolist()},
        "reference": reference_note,
        "git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "runs": {},
    }
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{scene_spec['generator']}(**{scene_spec['kwargs']}): "
          f"{scene_spec['facets']} facets, {scene_spec['edges']} edges, "
          f"translated by {report['scene']['translation_m']} m")
    print(f"git {report['git_sha']}, nproc {report['nproc']}, "
          f"python {report['python']}, numpy {report['numpy']}")
    print(f"reference: {reference_note}")

    checker = OutputCheck(raychan, reference)
    if args.trace:
        metrics, problems = per_layer(raychan, workload, scene_path, checker,
                                      args.seconds, report, tag)
    else:
        setup = measure_setup(scene_path)
        report["setup_s"] = setup
        print(f"setup: median {statistics.median(setup):.4f} s of {setup}")
        metrics, problems = end_to_end(raychan, workload, scene_path, checker,
                                       args.seconds, report)
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    for fault in checker.faults[:20]:
        print(f"check failed: {fault}")
    problems = list(dict.fromkeys(problems))
    for problem in problems:
        print(f"self-test failed: {problem}")
    report["faults"] = checker.faults
    report["self_test_problems"] = problems
    result = {
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report["result"] = result
    (WORK / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
