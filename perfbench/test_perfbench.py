"""Self-test of the benchmark: metric names and units, and the gate.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tetrametric as tm  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    cmd = [sys.executable] + SPEC["command"][1:] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    out = _run(workload, trace)
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] is True
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    section = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == want
    assert all(math.isfinite(m["value"]) for m in out["metrics"].values())


def test_layer_map_names_declared_metrics():
    meta = json.loads((HERE / "meta.json").read_text())
    layer = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for name, moves in meta["layer_to_end_to_end"].items():
        assert name in layer
        assert set(moves["metrics"]) <= e2e


@pytest.fixture(scope="module")
def regular():
    return tm.compute_report(tm.normalize(tm.make_regular(1.0)))


def test_gate_passes_true_values(regular):
    assert workloads.regular_problems(regular) == []
    assert workloads.report_problems(regular) == []


def test_gate_rejects_corrupted_report(regular):
    assert workloads.report_problems(
        dataclasses.replace(regular, Rad=regular.Diam * 1.01))
    assert workloads.regular_problems(
        dataclasses.replace(regular, rad=regular.rad + 1e-3))


def test_gate_rejects_corrupted_bundle():
    T = tm.normalize(tm.make_isosceles(5.0, 6.0, 7.0))
    p, q = tm.vertex_point(0), tm.face_point(2, (0.2, 0.3, 0.5))
    d, _ = tm.geodesic_distance(T, p, q)
    segs = tm.all_geodesic_segments(T, p, q)
    at = tm.intrinsic_radius_at(T, p)
    assert workloads.bundle_problems(T, p, q, d, segs, at) == []
    chord = math.dist(T.xyz(p), T.xyz(q))
    assert workloads.bundle_problems(T, p, q, 0.5 * chord, segs, at)
    assert workloads.bundle_problems(T, p, q, d, segs,
                                     dataclasses.replace(at, value=0.9 * d))


def test_gate_rejects_corrupted_campaign():
    serial = tm.campaign(workloads.RANDOM, workloads.CAMPAIGN_N, 5, threads=1)
    assert workloads.campaign_problems(serial, serial) == []
    row = dict(serial.rows[0], Rad=serial.rows[0]["Rad"] * 1.5)
    assert workloads.campaign_problems(
        serial, dataclasses.replace(serial, rows=(row,) + serial.rows[1:]))
    assert workloads.campaign_problems(
        dataclasses.replace(serial, failures=((1, "x"), (1, "x"))), None)


def test_self_time_adds_up_to_the_operation():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        T = tm.normalize(tm.make_isosceles(5.0, 6.0, 7.0))
        tracer.op(0, tm.intrinsic_radius_at, T, tm.vertex_point(1))
    finally:
        tracer.uninstall()
    assert not hasattr(tm.intrinsic_radius_at, "__wrapped_layer__")
    assert not hasattr(tm.intrinsic.cut_locus, "__wrapped_layer__")
    layers, _ = tracing.layer_totals(tracer.spans, lambda op: op == 0)
    assert layers["intrinsic.cut_locus"]["calls"] == 1
    assert layers["geodesics.search"]["calls"] >= 3  # one per other vertex
    total = sum(t["self_ns"] for t in layers.values())
    assert total == layers["op"]["incl_ns"]
