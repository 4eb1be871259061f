"""Kinematics of moving scene entities.

Every mobile entity (transceiver or facet) carries a piecewise sequence of
constant-acceleration states.  Positions are evaluated by direct polynomial
evaluation of the active segment, so there is no numerical drift between
queries: asking for t then t' gives exactly the same answer as asking for t'
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"expected finite values, got {a.tolist()}")
    return a


@dataclass(frozen=True)
class MotionState:
    """Position/velocity/acceleration of an entity at a reference time.

    Position at time t is r0 + v0*(t-t_ref) + 0.5*a0*(t-t_ref)^2; higher-order
    terms are dropped.
    """

    r0: np.ndarray
    v0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    a0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    t_ref: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r0", _vec3(self.r0))
        object.__setattr__(self, "v0", _vec3(self.v0))
        object.__setattr__(self, "a0", _vec3(self.a0))
        object.__setattr__(self, "t_ref", float(self.t_ref))
        if not np.isfinite(self.t_ref):
            raise ValueError("t_ref must be finite")


def position_at(m: MotionState, t) -> np.ndarray:
    """Evaluate the constant-acceleration position law at time t.

    t may be a scalar (returns shape (3,)) or an array (returns shape
    t.shape + (3,)).  An array is evaluated one coordinate at a time, so that
    numpy loops over the times, with the scalar form's operations in its order.
    """
    dt = np.asarray(t, dtype=float) - m.t_ref
    if not dt.ndim:
        return m.r0 + m.v0 * dt + 0.5 * m.a0 * dt * dt
    out = np.empty(dt.shape + (3,))
    for c in range(3):
        out[..., c] = m.r0[c] + m.v0[c] * dt + 0.5 * m.a0[c] * dt * dt
    return out


def velocity_at(m: MotionState, t) -> np.ndarray:
    dt = np.asarray(t, dtype=float) - m.t_ref
    if not dt.ndim:
        return m.v0 + m.a0 * dt
    out = np.empty(dt.shape + (3,))
    for c in range(3):
        out[..., c] = m.v0[c] + m.a0[c] * dt
    return out


@dataclass(frozen=True)
class Motion:
    """Piecewise constant-acceleration motion: a sorted tuple of segments.

    Segment i is active for t in [t_ref_i, t_ref_{i+1}); the first segment
    also covers t < t_ref_0 and the last extends to +inf.
    """

    segments: tuple[MotionState, ...]
    is_static: bool = field(init=False, repr=False)

    def __post_init__(self):
        if not self.segments:
            raise ValueError("Motion needs at least one segment")
        ts = [s.t_ref for s in self.segments]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("motion segments must have strictly increasing t_ref")
        static = (all(not s.v0.any() and not s.a0.any() for s in self.segments)
                  and all(np.array_equal(s.r0, self.segments[0].r0)
                          for s in self.segments))
        object.__setattr__(self, "is_static", static)

    @classmethod
    def stationary(cls, r0) -> "Motion":
        return cls((MotionState(_vec3(r0)),))

    def _piecewise(self, law, t) -> np.ndarray:
        """law(segment, t) of the active segment at every time of t: shape
        (3,) for a scalar t, t.shape + (3,) for an array."""
        t_arr = np.asarray(t, dtype=float)
        if len(self.segments) == 1:
            return law(self.segments[0], t_arr)
        starts = [s.t_ref for s in self.segments]
        idx = np.searchsorted(starts, t_arr, side="right") - 1
        if t_arr.ndim == 0:
            return law(self.segments[max(int(idx), 0)], t_arr)
        out = np.empty(t_arr.shape + (3,))
        # segment 0 also covers the times before its t_ref
        for i, seg in enumerate(self.segments):
            sel = idx <= 0 if i == 0 else idx == i
            if sel.any():
                out[sel] = law(seg, t_arr[sel])
        return out

    def position(self, t) -> np.ndarray:
        return self._piecewise(position_at, t)

    def velocity(self, t) -> np.ndarray:
        return self._piecewise(velocity_at, t)

    def moves_with(self, other: "Motion") -> bool:
        """Whether both motions displace their entities alike (within 1e-9 m)
        at every time.

        Between consecutive breakpoints of either motion both displacements
        are single quadratics, so three times inside each piece decide.
        """
        if self.is_static and other.is_static:
            return True
        cuts = sorted({s.t_ref for s in self.segments + other.segments})
        bounds = [cuts[0] - 1.0] + cuts + [cuts[-1] + 1.0]
        times = [lo + (hi - lo) * f for lo, hi in zip(bounds, bounds[1:])
                 for f in (0.25, 0.5, 0.75)]
        return bool(np.allclose(self.displacement(times), other.displacement(times),
                                rtol=0.0, atol=1e-9))

    def displacement(self, t) -> np.ndarray:
        """Offset relative to the scene epoch t=0 (exactly zero at t=0)."""
        if self.is_static:
            return np.zeros(np.shape(t) + (3,))
        return self.position(t) - self.position(0.0)
