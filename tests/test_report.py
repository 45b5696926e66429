"""Reports, ratio bounds, campaign plumbing, and deterministic output."""

import dataclasses
import json
import math

import pytest

from tetrametric import (BOUNDS, CSV_COLUMNS, DEFAULT_CFG, GeneratorSpec,
                         RATIO_KEYS, ToleranceConfig, campaign,
                         canonical_json, check_inequalities, compute_report,
                         face_point, generate, geodesic_distance,
                         instance_stream, normalize, refine_min_ratio,
                         report_margins)
from tetrametric.geometry import DEDUP_TOL, GEOM_TOL

SQ23 = math.sqrt(2.0 / 3.0)
DIAM_REG = 2.0 / math.sqrt(3.0)


@pytest.fixture(scope="module")
def regular_report(regular):
    return compute_report(regular)


# ---------------------------------------------------------------------------
# single-instance reports

def test_regular_values(regular_report):
    r = regular_report
    assert r.Diam == pytest.approx(DIAM_REG, abs=1e-6)
    assert r.diam == pytest.approx(1.0, abs=1e-12)
    assert r.Rad == pytest.approx(1.0, abs=1e-6)
    assert r.rad == pytest.approx(SQ23, abs=1e-6)


def test_ratios_consistent(regular_report):
    r = regular_report
    rt = r.ratios()
    assert tuple(rt) == RATIO_KEYS
    assert rt["Diam_over_diam"] == r.Diam / r.diam
    assert rt["Diam_over_Rad"] == r.Diam / r.Rad
    assert rt["diam_over_rad"] == r.diam / r.rad
    assert rt["Rad_over_rad"] == r.Rad / r.rad
    assert rt["rad_over_Diam"] == r.rad / r.Diam
    assert rt["Rad_over_diam"] == r.Rad / r.diam


def test_regular_margins_tight(regular_report):
    m = report_margins(regular_report)
    # the regular shape attains the geodesic/chord diameter cap ...
    assert m["m_Diam_diam_hi"] == pytest.approx(0.0, abs=1e-6)
    # ... and the geodesic-radius-equals-chord-diameter extreme
    assert m["m_Rad_diam_hi"] == pytest.approx(0.0, abs=1e-6)
    # every bound holds
    for key, val in m.items():
        assert val >= -1e-6, key


def test_regular_no_violations(regular_report):
    assert check_inequalities(regular_report, tol=1e-6) == []


def test_thin_ratios(normal_thick):
    r = compute_report(normal_thick)
    rt = r.ratios()
    assert rt["Diam_over_Rad"] >= 1.98
    assert rt["diam_over_rad"] >= 1.98
    assert rt["Rad_over_rad"] <= 1.02
    assert check_inequalities(r) == []


def test_checks_accept_parsed_json(regular_report):
    payload = json.loads(json.dumps(regular_report.to_json()))
    # a stored schema-1 report still carries max_faces; it reads the same
    old = json.loads(json.dumps(payload))
    old["schema"] = "tetrametric-report/1"
    old["config"]["max_faces"] = 16
    m1 = report_margins(regular_report)
    for p in (payload, old):
        assert check_inequalities(p) == []
        m2 = report_margins(p)
        for k in m1:
            assert m2[k] == pytest.approx(m1[k], abs=1e-12)


def test_config_block_lists_every_setting(regular_report):
    # the two settings a caller can set sit between the two fixed
    # tolerances, in the key order of schema 2
    config = regular_report.to_json()["config"]
    assert list(config) == ["geom_tol", "opt_tol", "quality_floor",
                            "dedup_tol", "seed"]
    assert config["geom_tol"] == GEOM_TOL
    assert config["dedup_tol"] == DEDUP_TOL
    for f in dataclasses.fields(ToleranceConfig):
        assert config[f.name] == getattr(regular_report.cfg, f.name)


def test_injected_violation_is_flagged(regular_report):
    payload = regular_report.to_json()
    payload["ratios"] = dict(payload["ratios"])
    payload["ratios"]["Rad_over_diam"] = 1.1
    recs = check_inequalities(payload, tol=1e-6)
    assert len(recs) == 1
    rec = recs[0]
    assert rec.inequality == "m_Rad_diam_hi"
    assert rec.value == pytest.approx(1.1)
    assert rec.bound == pytest.approx(1.0)
    assert rec.margin == pytest.approx(-0.1)
    assert len(rec.edges) == 6


def test_bounds_table_wellformed():
    keys = [k for k, _, _, _ in BOUNDS]
    assert len(keys) == len(set(keys)) == 12
    for _, rkey, side, bound in BOUNDS:
        assert rkey in RATIO_KEYS
        assert side in ("lower", "upper")
        assert bound > 0.0


# ---------------------------------------------------------------------------
# deterministic serialization

def test_canonical_json_shapes():
    s = canonical_json({"a": 1.5, "b": [True, None], "c": "x\"y"})
    assert s == '{"a": 1.5, "b": [true, null], "c": "x\\"y"}\n'
    assert canonical_json({"x": 1.0 / 3.0}) == '{"x": 0.333333333333}\n'


def test_report_text_deterministic(regular):
    a = compute_report(regular).to_text()
    b = compute_report(regular).to_text()
    assert a == b
    assert a.startswith('{"schema": "tetrametric-report/2"')


# ---------------------------------------------------------------------------
# campaigns

def test_campaign_rejects_empty():
    with pytest.raises(ValueError):
        campaign(GeneratorSpec(kind="random"), 0, 42)


def test_campaign_small_run():
    spec = GeneratorSpec(kind="random")
    res = campaign(spec, 6, seed=42)
    assert len(res.rows) == 6
    assert res.failures == ()
    assert res.violations == ()
    assert [r["seed"] for r in res.rows] == list(range(6))
    for row in res.rows:
        assert set(row) == set(CSV_COLUMNS)
    for key in RATIO_KEYS:
        ex = res.extremal[key]
        assert ex["min"]["value"] <= ex["max"]["value"]
    csv = res.to_csv()
    assert csv.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(csv.splitlines()) == 7


def test_campaign_where_every_instance_fails():
    # no eps-thick shape this wide in a ball of radius 0.03 reaches the
    # floor, so generate fails on every instance; the campaign returns the
    # failures, not a ValueError
    spec = GeneratorSpec(kind="eps-thick", eps=0.03, quality_floor=3e-3)
    res = campaign(spec, 3, 3, threads=1)
    assert res.rows == ()
    assert [i for i, _ in res.failures] == [0, 1, 2]
    assert res.extremal == {}
    assert res.to_json()["instances"] == 0
    assert res.to_csv() == ",".join(CSV_COLUMNS) + "\n"


def test_campaign_honors_a_low_quality_floor():
    # the spec's floor admits these shapes, and normalizing them must not
    # hold them to the default floor again: volume / diam^3 is unchanged
    spec = GeneratorSpec(kind="eps-thick", eps=0.001, quality_floor=1e-9)
    res = campaign(spec, 3, 3, threads=1)
    assert res.failures == ()
    assert [row["seed"] for row in res.rows] == [0, 1, 2]
    T = generate(spec, seed=instance_stream(3, 0))
    assert T.volume < 1e-6 * T.diam ** 3
    assert check_inequalities(compute_report(T)) == []


def test_campaign_deterministic_and_thread_invariant():
    spec = GeneratorSpec(kind="random")
    a = campaign(spec, 4, seed=7).to_csv()
    b = campaign(spec, 4, seed=7).to_csv()
    c = campaign(spec, 4, seed=7, threads=2).to_csv()
    assert a == b
    assert a == c


def test_campaign_pool_oserror_counts_each_failure_once(monkeypatch):
    # the pool dies after handing back instances 0-2; the serial fallback
    # must finish the rest without recording instance 1's failure again
    import concurrent.futures

    from tetrametric import report
    from tetrametric.errors import AmbiguousCut

    def fake_row(spec, base_seed, index, tol):
        if index % 2:
            raise AmbiguousCut("instance %d fails" % index)
        return dict({c: 1.0 for c in CSV_COLUMNS}, seed=index), []

    class DeadFuture:
        def __init__(self, value=None, exc=None):
            self.value, self.exc = value, exc

        def result(self):
            if self.exc is not None:
                raise self.exc
            return self.value

    class DyingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            if args[2] >= 3:
                return DeadFuture(exc=OSError("worker lost"))
            try:
                return DeadFuture(value=fn(*args))
            except AmbiguousCut as exc:
                return DeadFuture(exc=exc)

    monkeypatch.setattr(report, "_campaign_row", fake_row)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", DyingPool)
    seen = []
    res = campaign(GeneratorSpec(kind="random"), 6, seed=1, threads=2,
                   progress=seen.append)
    assert [i for i, _ in res.failures] == [1, 3, 5]
    assert [r["seed"] for r in res.rows] == [0, 2, 4]
    assert seen == list(range(6))


@pytest.mark.parametrize("threads", [1, 2])
def test_campaign_records_a_non_tetra_error(monkeypatch, threads):
    # an instance raising something other than a TetraError is one failure
    # with its class name, not the end of the campaign; serial and pool
    # runs list the same failures
    import concurrent.futures

    from tetrametric import report
    from tetrametric.errors import AmbiguousCut

    def fake_row(spec, base_seed, index, tol):
        if index == 2:
            raise ZeroDivisionError("float division by zero")
        if index == 4:
            raise AmbiguousCut("instance 4 fails")
        return dict({c: 1.0 for c in CSV_COLUMNS}, seed=index), []

    class Future:
        def __init__(self, fn, args):
            self.fn, self.args = fn, args

        def result(self):
            return self.fn(*self.args)

    class Pool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            return Future(fn, args)

    monkeypatch.setattr(report, "_campaign_row", fake_row)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    seen = []
    res = campaign(GeneratorSpec(kind="random"), 6, seed=1, threads=threads,
                   progress=seen.append)
    assert res.failures == ((2, "ZeroDivisionError: float division by zero"),
                            (4, "instance 4 fails"))
    assert [r["seed"] for r in res.rows] == [0, 1, 3, 5]
    assert seen == list(range(6))


def test_campaign_row_matches_direct_report():
    # a campaign row must equal an independently computed report for the
    # same stream seed
    spec = GeneratorSpec(kind="random")
    res = campaign(spec, 3, seed=42)
    T = normalize(generate(spec, seed=instance_stream(42, 2)))
    rep = compute_report(T, seed=2)
    row = res.rows[2]
    assert row["Diam"] == pytest.approx(rep.Diam, abs=1e-12)
    assert row["Rad"] == pytest.approx(rep.Rad, abs=1e-12)
    assert row["e01"] == pytest.approx(T.edge_lengths[0], abs=1e-15)


def test_missed_route_regression():
    # the campaign instance whose shortest route once hid behind an
    # overtight search bound; its report must stay violation-free
    T = normalize(generate(GeneratorSpec(kind="random"),
                           seed=instance_stream(42, 440)))
    rep = compute_report(T, seed=440)
    assert check_inequalities(rep) == []
    # the lowest minimum the search finds lies inside face 3; a descent in
    # face 2 stops at a local minimum 2.6e-4 * diam higher (0.50057831824)
    assert rep.Rad == pytest.approx(0.5003136321818586, abs=1e-9)
    # Rad is the farthest distance from its center: a geodesic scan over a
    # barycentric grid of every face (vertices included) reaches it
    n = 12
    far = max(geodesic_distance(T, rep.Rad_center,
                                face_point(f, (i / n, j / n, (n - i - j) / n)))[0]
              for f in range(4) for i in range(n + 1) for j in range(n + 1 - i))
    assert abs(far - rep.Rad) <= DEFAULT_CFG.opt_tol * T.diam


def test_report_does_not_import_scipy_optimize():
    # the radius search needs no optimizer package; importing one would add
    # to every process's start-up time and memory
    import os
    import subprocess
    import sys

    import tetrametric

    src = os.path.dirname(os.path.dirname(tetrametric.__file__))
    code = ("import sys\n"
            "from tetrametric import (GeneratorSpec, compute_report, generate,\n"
            "                         instance_stream, normalize)\n"
            "T = normalize(generate(GeneratorSpec(kind='random'),\n"
            "                       seed=instance_stream(42, 0)))\n"
            "compute_report(T)\n"
            "print('scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# refinement

def test_refinement_smoke(regular):
    res = refine_min_ratio(regular, iterations=1)
    assert res.label == "evidence"
    assert res.value <= res.start_value + 1e-12
    assert res.start_value == pytest.approx(DIAM_REG, abs=1e-5)
    assert res.evaluations >= 1
    assert res.distance_to_regular >= 0.0
