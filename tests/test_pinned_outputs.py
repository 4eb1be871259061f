"""Default-scene DRT and E-DRT outputs pinned against stored artifacts.

The files under tests/data were written by `raychan run` on
generate_v2v_scenario(seed=0) with dt 0.1 s, t_c 1 s over 6 s.  A refactor
of any layer must reproduce them: the same ordered signatures and
interaction counts per snapshot, delay and power within 1e-9 relative, and
the same lifetime classifications and times.
"""

import csv
import math
from pathlib import Path as FilePath

import pytest

from raychan.rt import signature_str

DATA = FilePath(__file__).parent / "data"
REL = 1e-9


def _read(name):
    with open(DATA / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= REL * max(abs(a), abs(b))


def _snapshot_rows(run):
    return [(snap.time, i, signature_str(p.signature), p.delay * 1e9,
             p.power_dbm, len(p.interactions))
            for snap in run.snapshots for i, p in enumerate(snap.paths)]


@pytest.mark.parametrize("fixture, name", [
    ("drt_default", "default_drt_snapshots.csv"),
    ("edrt_default", "default_edrt_snapshots.csv"),
])
def test_snapshots_match_pinned(fixture, name, request):
    run = request.getfixturevalue(fixture)
    got = _snapshot_rows(run)
    want = _read(name)
    assert [(round(t * 1e6), i, sig, n) for t, i, sig, _d, _p, n in got] == \
        [(round(float(r["time_s"]) * 1e6), int(r["path_index"]), r["signature"],
          int(r["n_interactions"])) for r in want]
    for (t, _i, sig, delay, power, _n), r in zip(got, want):
        assert _close(delay, float(r["delay_ns"])), (t, sig)
        assert _close(power, float(r["power_dbm"])), (t, sig)


def test_lifetimes_match_pinned(edrt_default):
    want = _read("default_edrt_lifetimes.csv")
    got = edrt_default.lifetimes
    assert [(rec.signature, rec.classification) for rec in got] == \
        [(r["signature"], r["classification"]) for r in want]
    for rec, r in zip(got, want):
        assert rec.birth_s == pytest.approx(float(r["birth_s"]), abs=1e-9)
        assert rec.death_s == pytest.approx(float(r["death_s"]), abs=1e-9)
