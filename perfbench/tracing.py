"""Per-layer spans recorded from outside the program.

The tracer wraps public functions of the `raychan` package in place: every
wrapper records a span (call count, inclusive time, self time) and, where a
layer has them, counters.  Nothing in `src/raychan` is edited; `install`
patches the package's module namespaces and classes, and `uninstall` puts the
original objects back.

A function imported by name (`from .rt import make_path`) is looked up in the
namespace of the importing module, so a span patches every `raychan` module
that holds the function, unless its spec restricts the modules.  That is how
`make_path` yields two spans: `rt.field` in `raychan.rt` (the RT pass) and
`drt.field` in `raychan.drt` (DRT predictions).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class SpanSpec:
    name: str
    home: str                  # module that defines the function or class
    attr: str                  # "function" or "Class.method"
    modules: tuple = ()        # patch only these namespaces; () means all
    passthrough_under: str = ""  # calls made directly inside this span are not recorded


SPANS = (
    SpanSpec("rt.pass", "raychan.rt", "trace_snapshot"),
    # raychan.rt only: enumeration of the RT pass, not DRT re-solving
    SpanSpec("rt.enumerate", "raychan.rt", "solve_backbone", ("raychan.rt",)),
    SpanSpec("rt.occlusion", "raychan.rt", "occlusion_profile"),
    SpanSpec("rt.build", "raychan.rt", "build_geometry"),
    SpanSpec("rt.field", "raychan.rt", "make_path", ("raychan.rt",)),
    SpanSpec("drt.advance", "raychan.drt", "PathTrajectory.geometry_at"),
    SpanSpec("drt.field", "raychan.rt", "make_path", ("raychan.drt",)),
    SpanSpec("edrt.match", "raychan.edrt", "match_paths"),
    SpanSpec("edrt.lifetime", "raychan.edrt", "solve_lifetimes"),
    # existence scans made by validity_scan are bisection work
    SpanSpec("edrt.lifetime.scan", "raychan.drt", "PathTrajectory.existence_scan",
             passthrough_under="edrt.lifetime.bisect"),
    SpanSpec("edrt.lifetime.bisect", "raychan.drt", "PathTrajectory.validity_scan"),
    SpanSpec("edrt.predict", "raychan.edrt", "EdrtRound.predict_batch"),
    SpanSpec("edrt.occlusion", "raychan.rt", "occlusion_profiles_batch"),
    SpanSpec("edrt.extrapolate", "raychan.edrt", "extrapolate_fields"),
    SpanSpec("scene.at", "raychan.scene", "scene_at"),
)
SPAN_NAMES = tuple(s.name for s in SPANS)


def _after_rt_pass(tracer, args, result):
    tracer.count("rt.paths", len(result.paths))


def _after_enumerate(tracer, args, result):
    tracer.count("rt.enumerate.constructed")


def _after_scan(tracer, args, result):
    tracer.count("edrt.lifetime.scan.samples", len(args[1]))


def _after_bisect(tracer, args, result):
    tracer.count("edrt.lifetime.bisect.samples", len(args[1]))


def _after_extrapolate(tracer, args, result):
    tracer.count("edrt.extrapolate.pairs", len(args[0]))
    tracer.count("edrt.extrapolate.direct", sum(r is None for r in result))


AFTER = {
    "rt.pass": _after_rt_pass,
    "rt.enumerate": _after_enumerate,
    "edrt.lifetime.scan": _after_scan,
    "edrt.lifetime.bisect": _after_bisect,
    "edrt.extrapolate": _after_extrapolate,
}


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self):
        self.spans: dict[str, list] = {}    # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []       # open spans: [name, child_s]
        self._patches: list[tuple] = []    # (owner, attr, original)

    def reset(self) -> None:
        self.spans = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        self.counters = {}

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _wrap(self, spec: SpanSpec, fn):
        after = AFTER.get(spec.name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == spec.passthrough_under:
                return fn(*args, **kwargs)
            frame = [spec.name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                stats = self.spans[spec.name]
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every span's function in the loaded raychan modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.reset()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("raychan.") and m is not None]
        # find every site before patching any, so that two specs may share
        # one function
        plan = []
        for spec in SPANS:
            home = importlib.import_module(spec.home)
            if "." in spec.attr:
                cls_name, meth = spec.attr.split(".")
                cls = getattr(home, cls_name)
                plan.append((spec, getattr(cls, meth), [(cls, meth)]))
                continue
            original = getattr(home, spec.attr)
            sites = [(m, spec.attr) for m in modules
                     if getattr(m, spec.attr, None) is original
                     and (not spec.modules or m.__name__ in spec.modules)]
            if not sites:
                raise RuntimeError(f"span {spec.name}: no module looks up "
                                   f"{spec.home}.{spec.attr}")
            plan.append((spec, original, sites))
        for spec, original, sites in plan:
            wrapper = self._wrap(spec, original)
            for owner, attr in sites:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
