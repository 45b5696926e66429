"""Reports, ratio bounds, campaign plumbing, and deterministic output."""

import dataclasses
import hashlib
import json
import math
import pathlib
import struct
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from tetrametric import (BOUNDS, CSV_COLUMNS, DEFAULT_CFG, GeneratorSpec,
                         RATIO_KEYS, ToleranceConfig, campaign,
                         canonical_json, check_inequalities, compute_report,
                         face_point, generate, geodesic_distance,
                         instance_stream, make_eps_thick, make_isosceles,
                         make_normal_eps_thick, make_regular, normalize,
                         refine_min_ratio,
                         report_margins)
from tetrametric.errors import DegenerateInput, TetraError
from tetrametric.geometry import DEDUP_TOL, GEOM_TOL

from fuzzing import ENGINE_FUZZ

SQ23 = math.sqrt(2.0 / 3.0)
DIAM_REG = 2.0 / math.sqrt(3.0)
DIGEST = (pathlib.Path(__file__).resolve().parent / "data"
          / "report_digest.json")


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


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
def test_checks_refuse_a_bad_tolerance(regular_report, tol):
    # every margin of the regular shape is at least 0, yet a negative tol
    # flagged all 12 bounds, and NaN would pass any margin
    assert min(report_margins(regular_report).values()) >= 0.0
    with pytest.raises(ValueError, match="tolerance"):
        check_inequalities(regular_report, tol)
    assert check_inequalities(regular_report, 0.0) == []


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


def test_checks_accept_parsed_json_below_the_default_floor():
    # a report's JSON does not record the floor its shape was admitted
    # under, so checking it needs only well-formed, non-flat vertices
    spec = GeneratorSpec(kind="eps-thick", eps=0.001, quality_floor=1e-9)
    T = generate(spec, seed=instance_stream(3, 0))
    assert T.volume < 1e-6 * T.diam ** 3
    rep = compute_report(T)
    parsed = json.loads(rep.to_text())
    assert check_inequalities(parsed) == check_inequalities(rep) == []
    assert report_margins(parsed) == pytest.approx(report_margins(rep),
                                                   abs=1e-11)
    flat = json.loads(rep.to_text())
    flat["tetrahedron"]["vertices"] = [[0, 0, 0], [1, 0, 0], [0, 1, 0],
                                       [1, 1, 0]]
    with pytest.raises(DegenerateInput):
        check_inequalities(flat)
    for bad in ([[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, float("nan")]],
                [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1]]):
        flat["tetrahedron"]["vertices"] = bad
        with pytest.raises(ValueError):
            check_inequalities(flat)


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


def test_checks_normalize_a_report_only_for_a_record(regular_report,
                                                     monkeypatch):
    from tetrametric import report as report_mod
    real, calls = report_mod.normalize, []

    def counting(T):
        calls.append(T)
        return real(T)

    monkeypatch.setattr(report_mod, "normalize", counting)
    assert check_inequalities(regular_report) == []
    report_margins(regular_report)
    assert calls == []
    # a violating report normalizes its shape once, for its records' edges
    bad = dataclasses.replace(regular_report, Rad=1.1 * regular_report.diam)
    recs = check_inequalities(bad)
    assert recs and len(calls) == 1
    want = real(regular_report.tetrahedron).edge_lengths
    assert all(rec.edges == want for rec in recs)


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


def test_canonical_json_escapes_strings_and_keys():
    # control characters, quotes, backslashes and non-ASCII text, in
    # strings and in keys (a campaign's failures carry exception text),
    # read back through json.loads as written
    obj = {"note": "a\nb", "tab\tkey": ["q\"uote", "back\\slash"],
           "line\nkey \u00e9": "caf\u00e9 \x01 \u2264", "\"": {"\\": "\r"}}
    s = canonical_json(obj)
    assert json.loads(s) == obj
    assert "\u00e9" in s and "\u2264" in s  # non-ASCII text kept as is


def test_report_text_deterministic(regular):
    a = compute_report(regular).to_text()
    b = compute_report(regular).to_text()
    assert a == b
    assert a.startswith('{"schema": "tetrametric-report/2"')


def _digest_shapes():
    """(name, shape) of the byte-identity pin: instances 0-59 of
    instance_stream(42, .), 16 thin shapes of instance_stream(5, .),
    eps-thick and normal-eps-thick alternating, and three shapes with tied
    shortest paths: instance 3 of seed 15 and instance 36 of seed 66, whose
    Diam loci have a vertex with tied paths, and the regular shape."""
    spec = GeneratorSpec(kind="random")
    for i in range(60):
        yield "random/42/%d" % i, normalize(
            generate(spec, seed=instance_stream(42, i)))
    for i in range(16):
        rng = instance_stream(5, i)
        if i % 2 == 0:
            yield "eps-thick/5/%d" % i, make_eps_thick(
                float(rng.uniform(0.003, 0.03)), rng)
        else:
            yield "normal-eps-thick/5/%d" % i, make_normal_eps_thick(
                float(rng.uniform(0.01, 0.03)))
    for stream, i in ((15, 3), (66, 36)):
        yield "random/%d/%d" % (stream, i), normalize(
            generate(spec, seed=instance_stream(stream, i)))
    yield "regular", normalize(make_regular(1.0))


def _report_digest():
    """Per shape: the SHA-256 of the report's to_text(), float.hex of
    Diam, diam, Rad and rad, and each center as its face and float.hex of
    its weights.  The JSON prints 12 digits, so only the hex digits show a
    change in the last bit."""
    out = {}
    for name, T in _digest_shapes():
        rep = compute_report(T)
        row = {"text": hashlib.sha256(rep.to_text().encode()).hexdigest()}
        for field in ("Diam", "diam", "Rad", "rad"):
            row[field] = getattr(rep, field).hex()
        for field in ("Rad_center", "rad_center"):
            c = getattr(rep, field)
            row[field] = [c.face] + [w.hex() for w in c.bary]
        out[name] = row
    return out


def _ulps(a, b):
    """Signed distance from float a to float b in units in the last place."""
    def ordered(x):
        i = struct.unpack("<q", struct.pack("<d", x))[0]
        return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)
    return ordered(b) - ordered(a)


def _row_moves(old, new):
    """The fields of a digest row that moved from old to new, each with
    how far: ulps for a value or a center's weights, or the center's old
    and new face."""
    moves = []
    for field, value in new.items():
        was = old.get(field)
        if was == value:
            continue
        if was is None:
            moves.append("%s new" % field)
        elif field == "text":
            moves.append("to_text")
        elif isinstance(value, str):
            moves.append("%s %+d ulps" % (field, _ulps(float.fromhex(was),
                                                        float.fromhex(value))))
        elif was[0] != value[0]:
            moves.append("%s face %d -> %d" % (field, was[0], value[0]))
        else:
            moves.append("%s bary [%s] ulps" % (field, ", ".join(
                "%+d" % _ulps(float.fromhex(a), float.fromhex(b))
                for a, b in zip(was[1:], value[1:]))))
    return moves


def test_report_bytes_are_pinned():
    # tests/data/report_digest.json holds _report_digest() as an earlier
    # tree computed it; a change that moves any byte or bit of these
    # reports re-pins the file (python tests/test_report.py, which prints
    # each moved shape with its moved fields) and lists them in CHANGES.md;
    # python tests/test_report.py --check prints them without a re-pin
    pinned = json.loads(DIGEST.read_text())["reports"]
    got = _report_digest()
    assert len(got) == 79
    assert [name for name in got if got[name] != pinned.get(name)] == []


def test_row_moves_names_each_moved_field():
    # what `python tests/test_report.py` prints for a re-pinned shape
    old = {"text": "a", "rad": (0.5).hex(), "rad_center": [0, "0x0.0p+0",
                                                          (0.5).hex(),
                                                          (0.5).hex()]}
    new = dict(old, text="b", rad=math.nextafter(0.5, 0.0).hex(), diam="x")
    assert _row_moves(old, new) == ["to_text", "rad -1 ulps", "diam new"]
    new = dict(old, rad_center=[0, math.ulp(0.0).hex(), (0.5).hex(),
                                math.nextafter(0.5, 0.0).hex()])
    assert _row_moves(old, new) == ["rad_center bary [+1, +0, -1] ulps"]
    new = dict(old, rad_center=[1] + old["rad_center"][1:])
    assert _row_moves(old, new) == ["rad_center face 0 -> 1"]
    assert _ulps(-0.0, 0.0) == 0 and _ulps(-math.ulp(0.0), math.ulp(0.0)) == 2


def _fuzz_shape(kind, cfg, u, sides, seed):
    """A regular shape of edge 0.1 to 10, an isosceles one of the given
    sides, or an eps-thick or normal eps-thick one, eps log-uniform from
    the thinnest its quality floor lets the sampler reach up to 0.03."""
    if kind == "regular":
        return make_regular(0.1 * 100.0 ** u, cfg)
    if kind == "isosceles":
        return make_isosceles(*sides, cfg=cfg)
    lo = 3e-3 if cfg.quality_floor >= 1e-6 else 1e-4
    eps = lo * (0.03 / lo) ** u
    if kind == "eps":
        return make_eps_thick(eps, seed=seed, cfg=cfg)
    return make_normal_eps_thick(eps, cfg=cfg)


@given(kind=st.sampled_from(["regular", "isosceles", "eps", "normal"]),
       floor=st.sampled_from([1e-6, 1e-9]),
       u=st.floats(0.0, 1.0),
       sides=st.tuples(*[st.floats(0.5, 1.0)] * 3),
       seed=st.integers(0, 10_000))
@settings(ENGINE_FUZZ, max_examples=300)
def test_compute_report_contract_fuzz(kind, floor, u, sides, seed):
    # a report either raises TetraError or passes the paper's inequalities
    # with diam/2 <= Rad <= Diam, to opt_tol * diam, and diam <= Diam
    p, q, r = sides
    assume(kind != "isosceles" or (p * p + q * q > r * r
                                   and p * p + r * r > q * q
                                   and q * q + r * r > p * p))
    cfg = ToleranceConfig(quality_floor=floor)
    try:
        rep = compute_report(_fuzz_shape(kind, cfg, u, sides, seed), cfg)
    except TetraError:
        return
    tol = cfg.opt_tol * rep.diam
    assert check_inequalities(rep) == []
    assert rep.diam / 2.0 - tol <= rep.Rad <= rep.Diam + tol
    assert rep.Diam >= rep.diam


# ---------------------------------------------------------------------------
# campaigns

def test_campaign_rejects_empty():
    with pytest.raises(ValueError):
        campaign(GeneratorSpec(kind="random"), 0, 42)


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_campaign_refuses_a_bad_tolerance(tol):
    # checked before any instance runs, not recorded as each one's failure
    with pytest.raises(ValueError, match="tolerance"):
        campaign(GeneratorSpec(kind="random"), 2, 42, tol=tol, threads=1)


@pytest.mark.parametrize("field", ["opt_tol", "quality_floor"])
def test_a_non_finite_tolerance_is_refused(field):
    # an infinite opt_tol passed the config, and a report on it came out
    # with both continuum flags set, failing only when written as text; an
    # infinite floor made generate spend all its attempts
    with pytest.raises(ValueError, match="finite"):
        ToleranceConfig(**{field: math.inf})
    if field == "quality_floor":
        with pytest.raises(ValueError, match="finite"):
            GeneratorSpec(kind="random", quality_floor=math.inf)


@pytest.mark.parametrize("threads", [2, 3, 64])
def test_campaign_pool_gets_no_more_workers_than_instances(monkeypatch,
                                                          threads):
    # a pool forks all max_workers processes at its first submit, so 64
    # threads for 3 instances forked 64 workers; the stub starts none and
    # runs each instance in this process
    import concurrent.futures

    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    spec = GeneratorSpec(kind="random")
    serial = campaign(spec, 3, seed=7, threads=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    pooled = campaign(spec, 3, seed=7, threads=threads)
    assert asked == [min(threads, 3)]
    assert pooled.rows == serial.rows
    assert pooled.to_csv() == serial.to_csv()


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
    # the fake futures settle in the order they were submitted
    monkeypatch.setattr(concurrent.futures, "as_completed", list)
    seen = []
    res = campaign(GeneratorSpec(kind="random"), 6, seed=1, threads=2,
                   progress=seen.append)
    assert [i for i, _ in res.failures] == [1, 3, 5]
    assert [r["seed"] for r in res.rows] == [0, 2, 4]
    assert seen == list(range(6))


def test_campaign_progress_follows_completion_order(monkeypatch):
    # the pool settles instances 2 and 1, in that order, and then dies:
    # progress fires in that order, the serial fallback runs 0, 3, 4 and 5
    # only, and rows and failures still come back by index, each once
    import concurrent.futures

    from tetrametric import report
    from tetrametric.errors import AmbiguousCut

    runs = []

    def fake_row(spec, base_seed, index, tol):
        runs.append(index)
        if index % 2:
            raise AmbiguousCut("instance %d fails" % index)
        return dict({c: 1.0 for c in CSV_COLUMNS}, seed=index), []

    class Pool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            if args[2] in (1, 2):
                try:
                    fut.set_result(fn(*args))
                except AmbiguousCut as exc:
                    fut.set_exception(exc)
            else:
                fut.set_exception(OSError("worker lost"))
            return fut

    def completion_order(futures):
        order = {2: 0, 1: 1}
        return sorted(futures, key=lambda f: order.get(futures[f], 2))

    monkeypatch.setattr(report, "_campaign_row", fake_row)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(concurrent.futures, "as_completed", completion_order)
    seen = []
    res = campaign(GeneratorSpec(kind="random"), 6, seed=1, threads=2,
                   progress=seen.append)
    assert seen == [2, 1, 0, 3, 4, 5]
    assert runs == [1, 2, 0, 3, 4, 5]
    assert res.failures == ((1, "instance 1 fails"), (3, "instance 3 fails"),
                            (5, "instance 5 fails"))
    assert [r["seed"] for r in res.rows] == [0, 2, 4]


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
    # the fake futures settle in the order they were submitted
    monkeypatch.setattr(concurrent.futures, "as_completed", list)
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


def _repin(argv):
    """python tests/test_report.py [--check]: print each shape whose
    digest row moved, with what moved and by how much, then re-pin
    tests/data/report_digest.json, one report per line so the file diffs
    by shape.  With --check the file is left as it is, and the exit code
    is 1 where a row moved or went missing and 0 where none did, so a
    change meant to move no bit can be checked without a re-pin."""
    if argv not in ([], ["--check"]):
        print("usage: python tests/test_report.py [--check]")
        return 2
    pinned = json.loads(DIGEST.read_text())["reports"]
    digest = _report_digest()
    moved = 0
    for name, row in digest.items():
        moves = _row_moves(pinned.get(name, {}), row)
        if moves:
            moved += 1
            print("%s: %s" % (name, "; ".join(moves)))
    for name in pinned:
        if name not in digest:
            moved += 1
            print("%s: gone" % name)
    if argv:
        return 1 if moved else 0
    rows = ["  %s: %s" % (json.dumps(name), json.dumps(row))
            for name, row in digest.items()]
    DIGEST.write_text(
        '{"note": "compute_report digests of tests/test_report.py '
        '_digest_shapes(): the sha256 of to_text(), float.hex of Diam, '
        'diam, Rad and rad, and each center as [face, float.hex of its '
        'weights]",\n "reports": {\n'
        + ",\n".join(rows) + "\n}}\n")
    return 0


def test_check_prints_the_moved_rows_and_keeps_the_pin(monkeypatch,
                                                       tmp_path, capsys):
    # `python tests/test_report.py --check` exits 1 on a moved or missing
    # row, printing each as a re-pin would, and 0 on none, and writes
    # nothing; without the flag the rows are re-pinned
    rows = {"a": {"text": "x", "rad": (0.5).hex()},
            "b": {"text": "y", "rad": (0.25).hex()}}
    pin = tmp_path / "report_digest.json"
    pin.write_text(json.dumps({"note": "", "reports": rows}))
    monkeypatch.setitem(globals(), "DIGEST", pin)
    monkeypatch.setitem(globals(), "_report_digest", lambda: dict(rows))
    assert _repin(["--check"]) == 0
    assert capsys.readouterr().out == ""
    kept = pin.read_text()
    moved = {"b": dict(rows["b"], rad=math.nextafter(0.25, 1.0).hex())}
    monkeypatch.setitem(globals(), "_report_digest", lambda: dict(moved))
    assert _repin(["--check"]) == 1
    assert capsys.readouterr().out == "b: rad +1 ulps\na: gone\n"
    assert pin.read_text() == kept
    assert _repin(["--bogus"]) == 2 and pin.read_text() == kept
    capsys.readouterr()
    assert _repin([]) == 0
    assert json.loads(pin.read_text())["reports"] == moved


if __name__ == "__main__":
    sys.exit(_repin(sys.argv[1:]))
