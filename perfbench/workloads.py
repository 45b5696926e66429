"""Workload inputs, operations and the correctness gate.

Every workload draws its inputs from the ``--seed`` it is given and hands the
library only the generated shapes and points.  Inputs are generated in
set-up; an operation rebuilds its ``Tetrahedron`` from the stored vertices so
no lazily cached table carries over between operations.  When a run outlasts
the input pool, the pool is reused from the start.

Every load is a closed loop with one client: the next operation starts when
the previous one has returned.  Only ``campaign_pool`` starts worker
processes, via the library's own process pool with two workers.
"""

from __future__ import annotations

import math
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import tetrametric as tm
from reference import reference_ms

REPORT_POOL = 128       # reports per input pool
SHAPE_POOL = 1500       # shapes behind the surface-query bundles
BUNDLE_POOL = 6000      # (shape, p, q) bundles per input pool
CAMPAIGN_N = 16         # instances per campaign, serial and on the pool
CAMPAIGN_THREADS = 2
RANDOM = tm.GeneratorSpec(kind="random")


@dataclass
class Outcome:
    """What one operation did, as the benchmark measures it from outside.

    Every latency sample is one unit of work (a report, a query bundle or a
    serial campaign instance), so throughput is samples over summed latency.
    """

    units: int                      # reports, bundles or campaign instances
    latencies_ms: list              # one entry per unit timed on its own
    failed: int = 0
    classes: Counter = field(default_factory=Counter)  # first failure class
    problems: list = field(default_factory=list)       # gate failures
    measures: list = field(default_factory=list)       # (Diam, diam, Rad, rad)
    latency_refs: list = field(default_factory=list)   # ref ms per sample
    pool: tuple = (0, 0.0)          # campaign only: (instances, seconds)


_reported = set()


def _failure(exc):
    """Class name of a raised exception; prints the first of each unknown."""
    name = type(exc).__name__
    if not isinstance(exc, tm.TetraError) and name not in _reported:
        _reported.add(name)
        print("non-TetraError %s:\n%s" % (name, traceback.format_exc()),
              flush=True)
    return name


# ---------------------------------------------------------------------------
# the correctness gate

def _tol(cfg, diam):
    return cfg.opt_tol * diam


def report_problems(rep):
    """Gate failures of one report; an empty list means it passes."""
    tol = _tol(rep.cfg, rep.diam)
    out = ["inequality %s" % v.inequality for v in tm.check_inequalities(rep)]
    if not rep.diam / 2.0 - tol <= rep.Rad <= rep.Diam + tol:
        out.append("diam/2 <= Rad <= Diam fails: Rad=%r" % rep.Rad)
    return out


def regular_problems(rep):
    """Gate failures of the regular shape with unit edge."""
    tol = _tol(rep.cfg, rep.diam)
    want = {"Diam": 2.0 / math.sqrt(3.0), "Rad": 1.0,
            "rad": math.sqrt(2.0 / 3.0), "diam": 1.0}
    return ["regular %s=%r, want %r" % (k, getattr(rep, k), v)
            for k, v in want.items() if abs(getattr(rep, k) - v) > tol]


def bundle_problems(T, p, q, d, segments, radius_at, cfg=tm.DEFAULT_CFG):
    """Gate failures of one query bundle; None marks a call that raised."""
    tol = _tol(cfg, T.diam)
    out = []
    if d is not None and d < math.dist(T.xyz(p), T.xyz(q)) - tol:
        out.append("d(p,q)=%r below the chord" % d)
    if d is not None and segments is not None and \
            abs(segments[0].length - d) > tol:
        out.append("first segment %r != d(p,q) %r" % (segments[0].length, d))
    if d is not None and radius_at is not None and radius_at.value < d - tol:
        out.append("radius_at(p)=%r below d(p,q)" % radius_at.value)
    return out


def campaign_problems(serial, pool):
    """Gate failures of a campaign round run serially and on the pool."""
    out = []
    for label, res in (("serial", serial), ("pool", pool)):
        if res is None:
            continue
        ids = [i for i, _ in res.failures]
        if len(set(ids)) != len(ids) or \
                len(res.rows) + len(ids) != CAMPAIGN_N:
            out.append("%s campaign lists failures more than once" % label)
        out.extend("%s violation %s" % (label, v.inequality)
                   for v in res.violations)
        for row in res.rows:
            tol = tm.DEFAULT_CFG.opt_tol * row["diam"]
            if not row["diam"] / 2.0 - tol <= row["Rad"] <= row["Diam"] + tol:
                out.append("%s row %d: diam/2 <= Rad <= Diam fails"
                           % (label, row["seed"]))
    if pool is not None:
        if pool.to_csv() != serial.to_csv():
            out.append("CSV with %d threads differs from serial"
                       % CAMPAIGN_THREADS)
        if sorted(pool.failures) != sorted(serial.failures):
            out.append("failure lists differ between thread counts")
    return out


def warm_up():
    """One report on the regular shape: pays lazy imports, checks constants."""
    rep = tm.compute_report(tm.normalize(tm.make_regular(1.0)))
    return regular_problems(rep)


# ---------------------------------------------------------------------------
# workloads

def _timed_report(vertices):
    T = tm.Tetrahedron(vertices)
    t0 = time.perf_counter()
    try:
        rep = tm.compute_report(T)
        problems = report_problems(rep)
    except Exception as exc:  # any failure is counted, never fatal
        dt = time.perf_counter() - t0
        return Outcome(1, [dt * 1e3], failed=1,
                       classes=Counter([_failure(exc)]))
    dt = time.perf_counter() - t0
    return Outcome(1, [dt * 1e3], failed=int(bool(problems)),
                   classes=Counter(["check"] * bool(problems)),
                   problems=problems,
                   measures=[(rep.Diam, rep.diam, rep.Rad, rep.rad)])


class _Reports:
    """compute_report on each shape of self.pool in turn."""

    PER_SECOND = 4.0    # nominal reports per second; see run.op_count

    def run(self, j, traced):
        return _timed_report(self.pool[j % len(self.pool)])


class ReportRandom(_Reports):
    """compute_report on normalized random instances (campaign traffic)."""

    def __init__(self, seed):
        self.pool = [
            tm.normalize(tm.generate(RANDOM, seed=tm.instance_stream(seed, i)))
            .vertices for i in range(REPORT_POOL)]


class ReportThin(_Reports):
    """compute_report on the two thin families, alternating."""

    def __init__(self, seed):
        self.pool = []
        for i in range(REPORT_POOL):
            rng = tm.instance_stream(seed, i)
            if i % 2 == 0:
                T = tm.make_eps_thick(float(rng.uniform(0.003, 0.03)), rng)
            else:
                T = tm.make_normal_eps_thick(float(rng.uniform(0.01, 0.03)))
            self.pool.append(T.vertices)


def _surface_point(rng):
    face = int(rng.integers(4))
    a, b = rng.random(2)
    if a + b > 1.0:
        a, b = 1.0 - a, 1.0 - b
    return tm.face_point(face, (1.0 - a - b, float(a), float(b)))


def _isosceles(rng):
    while True:
        p, q, r = (float(x) for x in rng.uniform(0.5, 1.0, 3))
        if p * p + q * q > r * r and p * p + r * r > q * q and \
                q * q + r * r > p * p:
            return tm.normalize(tm.make_isosceles(p, q, r))


class SurfaceQueries:
    """Building-block calls on a point pair: random, thin, isosceles shapes."""

    PER_SECOND = 200.0  # nominal bundles per second

    def __init__(self, seed):
        shapes = []
        for i in range(SHAPE_POOL):
            rng = tm.instance_stream(seed, i)
            if i % 3 == 0:
                T = tm.normalize(tm.generate(RANDOM, seed=rng))
            elif i % 3 == 1:
                T = tm.make_eps_thick(float(rng.uniform(0.003, 0.03)), rng)
            else:
                T = _isosceles(rng)
            shapes.append(T.vertices)
        self.shapes = shapes
        rng = tm.instance_stream(seed, SHAPE_POOL)
        self.pool = [(k % SHAPE_POOL, _surface_point(rng), _surface_point(rng))
                     for k in range(BUNDLE_POOL)]

    def run(self, j, traced):
        shape, p, q = self.pool[j % len(self.pool)]
        T = tm.Tetrahedron(self.shapes[shape])
        calls = (
            ("d", lambda: tm.geodesic_distance(T, p, q)[0]),
            ("segments", lambda: tm.all_geodesic_segments(T, p, q)),
            ("star", lambda: tm.star_unfold(T, p)),
            ("cut", lambda: tm.cut_locus(T, p)),
            ("radius_at", lambda: tm.intrinsic_radius_at(T, p)),
            ("chord", lambda: tm.extrinsic_radius_at(T, p)),
        )
        got, first = {}, None
        t0 = time.perf_counter()
        for key, call in calls:
            # every call runs even after one fails, so the work per bundle
            # does not shrink when more calls fail
            try:
                got[key] = call()
            except Exception as exc:  # counted by class, never fatal
                got[key] = None
                first = first or _failure(exc)
        problems = bundle_problems(T, p, q, got["d"], got["segments"],
                                   got["radius_at"])
        dt = time.perf_counter() - t0
        if problems and first is None:
            first = "check"
        return Outcome(1, [dt * 1e3], failed=int(first is not None),
                       classes=Counter([first] if first else []),
                       problems=problems)


class CampaignPool:
    """campaign() serially and on the process pool, on the same seed."""

    PER_SECOND = 0.3    # nominal rounds per second (a serial round is ~3 s)

    def __init__(self, seed):
        self.seed = seed

    def run(self, j, traced):
        # every fourth round repeats its seed on the pool, so most of the
        # run makes serial latency samples; a traced run
        # traces the serial campaign only, since spans recorded in pool
        # workers would not come back to this process
        round_seed = (self.seed << 16) + j
        refs, marks = [reference_ms()], []

        def progress(i):
            # time each serial instance against the reference loop run
            # right before and after it; the loop's own time is excluded
            done = time.perf_counter()
            refs.append(reference_ms())
            marks.append((done, time.perf_counter()))

        n = CAMPAIGN_N
        t0 = time.perf_counter()
        try:
            serial = tm.campaign(RANDOM, n, round_seed, threads=1,
                                 progress=progress)
        except Exception as exc:  # a worker's non-TetraError aborts a campaign
            return Outcome(n, [], failed=n,
                           classes=Counter({_failure(exc): n}))
        starts = [t0] + [resumed for _, resumed in marks[:-1]]
        lat = [(done - start) * 1e3 for (done, _), start in zip(marks, starts)]
        failed = len(serial.failures)
        classes = Counter({"TetraError": failed})
        pool, pool_n, pool_s = None, 0, 0.0
        if not traced and j % 4 == 0:
            pool_n = n
            t1 = time.perf_counter()
            try:
                pool = tm.campaign(RANDOM, pool_n, round_seed,
                                   threads=CAMPAIGN_THREADS)
                failed += len(pool.failures)
                classes["TetraError"] += len(pool.failures)
            except Exception as exc:
                failed += pool_n
                classes[_failure(exc)] += pool_n
            pool_s = time.perf_counter() - t1
        problems = campaign_problems(serial, pool)
        if problems:
            classes["check"] += 1
            failed = max(failed, 1)
        return Outcome(n + pool_n, lat, failed=min(failed, n + pool_n),
                       classes=+classes,
                       problems=problems,
                       measures=[(r["Diam"], r["diam"], r["Rad"], r["rad"])
                                 for r in serial.rows],
                       latency_refs=[0.5 * (a + b)
                                     for a, b in zip(refs, refs[1:])],
                       pool=(pool_n, pool_s))


WORKLOADS = {
    "report_random": ReportRandom,
    "report_thin": ReportThin,
    "surface_queries": SurfaceQueries,
    "campaign_pool": CampaignPool,
}
