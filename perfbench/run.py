"""The tetrametric benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload report_random --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and from nowhere else.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

A run does a fixed number of operations: ``--seconds`` times the workload's
nominal rate on a 2-core Xeon host, so it lasts about ``--seconds`` there and
less once the library is faster.  The seed and the length alone pick the
operations, so every run on a seed attempts the same ones and fails on the
same ones (see the known defects in ``meta.json``).

With ``--trace 0`` the metrics are the
end-to-end metrics, measured untraced.  With ``--trace 1`` they are the
per-layer metrics: the run first measures a third of the operations
untraced, then traces the same operations from the start for the rest
(two thirds of the count), and reports
per-operation counts and self times from the traced part; ``trace.overhead``
compares the two parts over the operations both completed.  Spans are
written to ``.bench_out/`` in the checkout.

Set-up is importing the library, one warm-up report on the regular shape
(which pays the lazy scipy import) and input generation.  It is timed in
this process and in two more set-up-only processes; each time is scaled by
the reference loop below, timed just before and after it, to the time the
set-up would take on a core where one pass takes 1 ms, and ``setup_s`` is
the median of the three.  Unscaled, set-up time follows the host's speed
and drifted by 30% between two sets of ten runs; the wall-clock samples are
printed alongside.

Latency and throughput are reported in reference units.  On a host shared
with other jobs the speed of a core drifts by 10-40% within seconds, which
moves every wall-clock figure of a 20-second run.  So the run times a fixed
pure-Python loop (one pass is one ``ref``, about 1 ms on a 2-core Xeon host)
around the work, and divides each latency sample by the mean pass time
measured just before and after it: around each serial campaign instance, and
around slices of at least 0.15 s of operations otherwise.  ``op_ref.p50`` is
the median latency in passes of that loop and ``ops_per_kref`` the latency
samples completed per 1000 passes.  A sample is one report, one query bundle,
or one instance of a serial campaign.  The pool campaign's throughput cannot
be normalised by a loop on one core, so it is reported, in wall-clock terms,
only by traced runs, as ``campaign.pool_ops_per_s`` and
``campaign.scaling_eff``; the other wall-clock figures are printed alongside
and reported by traced runs as ``raw.*``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from reference import reference_ms

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TRACED_SHARE = 2.0 / 3.0
SLICE_S = 0.15
MAX_MEASURE_S = 120

END_TO_END = {
    "setup_s": "s",
    "op_ref.p50": "ref",
    "op_ref.p90": "ref",
    "ops_per_kref": "1/kref",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; counts and times are per operation unit (a
# report, a query bundle or a campaign instance)
PER_LAYER = {
    "op.ms": "ms/op",
    "op.bench_self_ms": "ms/op",
    "intrinsic.radius.incl_ms": "ms/op",
    "intrinsic.radius.self_ms": "ms/op",
    "intrinsic.radius.probes": "count/op",
    "intrinsic.radius.ms_per_probe": "ms",
    "intrinsic.star_unfold.calls": "count/op",
    "intrinsic.star_unfold.self_ms": "ms/op",
    "intrinsic.star_unfold.fail": "count/op",
    "geodesics.search.calls": "count/op",
    "geodesics.search.self_ms": "ms/op",
    "geodesics.search.fail": "count/op",
    "geodesics.search.fail.SearchExhausted": "count/op",
    "intrinsic.cut_locus.calls": "count/op",
    "intrinsic.cut_locus.self_ms": "ms/op",
    "intrinsic.cut_locus.fail": "count/op",
    "intrinsic.radius_at.calls": "count/op",
    "intrinsic.radius_at.self_ms": "ms/op",
    "intrinsic.diameter.self_ms": "ms/op",
    "extrinsic.radius.self_ms": "ms/op",
    "extrinsic.diameter.self_ms": "ms/op",
    "extrinsic.radius_at.self_ms": "ms/op",
    "generators.self_ms": "ms/op",
    "report.compute.self_ms": "ms/op",
    "report.checks.self_ms": "ms/op",
    "setup.generators_ms": "ms",
    "fail.SearchExhausted": "share",
    "fail.AmbiguousCut": "share",
    "fail.other": "share",
    "workload.shortcut_share": "share",
    "workload.diam_rad_2_share": "share",
    "campaign.pool_ops_per_s": "1/s",
    "campaign.scaling_eff": "share",
    "trace.overhead": "share",
    "raw.op_ms.p50": "ms",
    "raw.op_ms.p90": "ms",
    "raw.ops_per_s": "1/s",
    "raw.ref_ms": "ms",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up, print it as JSON and exit")
    return ap.parse_args(argv)


def import_library():
    """Put the checkout's src/ first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "tetrametric" / "__init__.py").is_file():
        sys.exit("no src/tetrametric under %s: run from a source checkout"
                 % ROOT)
    sys.path.insert(0, str(src))
    import tetrametric
    if Path(tetrametric.__file__).resolve().parent != \
            (src / "tetrametric").resolve():
        sys.exit("imported tetrametric from %s, not from this checkout"
                 % tetrametric.__file__)


def setup(name, seed, tracer_factory=None):
    """Import, warm up and generate inputs.

    Returns the workload, the warm-up's gate failures and the tracer.
    """
    import_library()
    import workloads
    if name not in workloads.WORKLOADS:
        sys.exit("unknown workload %r; choose from %s"
                 % (name, ", ".join(workloads.WORKLOADS)))
    problems = workloads.warm_up()
    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory()
        tracer.install()
        tracer.op_id = "setup"
    wl = workloads.WORKLOADS[name](seed)
    if tracer is not None:
        tracer.uninstall()
        tracer.op_id = None
    return wl, problems, tracer


def op_count(wl, seconds):
    """Operations in a run: the workload's nominal rate times the seconds."""
    return max(1, round(seconds * wl.PER_SECOND))


def measure(wl, count, tracer=None):
    """Closed loop: run operations 0, 1, ..., count - 1.

    The count is fixed by the workload and the run length, not by the clock,
    so two runs on the same seed attempt the same operations and fail on the
    same ones.  Operations run in slices of at least SLICE_S seconds with a
    reference sample before and after each slice; every outcome of a slice
    records the mean of the two as the reference of whatever timing the
    operation did not bracket with reference samples itself.  A run that
    takes longer than MAX_MEASURE_S stops early, so it still exits in time.
    """
    outcomes = []
    before = reference_ms()
    give_up = time.perf_counter() + MAX_MEASURE_S
    j = 0
    while j < count:
        batch = []
        slice_end = time.perf_counter() + SLICE_S
        while j < count:
            if tracer is None:
                batch.append(wl.run(j, False))
            else:
                batch.append(tracer.op(j, wl.run, j, True))
            j += 1
            if time.perf_counter() >= slice_end:
                break
        after = reference_ms()
        for o in batch:
            if not o.latency_refs:
                o.latency_refs = [0.5 * (before + after)] * len(o.latencies_ms)
        outcomes.extend(batch)
        before = after
        if j < count and time.perf_counter() >= give_up:
            print("stopped after %d of %d operations: over %d s"
                  % (j, count, MAX_MEASURE_S))
            break
    return outcomes


def setup_in_subprocess(args):
    """(wall seconds, reference-scaled seconds) of one set-up elsewhere."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def _shares(outcomes):
    """Shares of reports with Rad = diam/2 and with diam = 2 rad."""
    measures = [m for o in outcomes for m in o.measures]
    if not measures:
        return 0.0, 0.0
    tol = 1e-6  # the library's default opt_tol, relative to diam
    shortcut = sum(abs(Rad - diam / 2.0) <= tol * diam
                   for Diam, diam, Rad, rad in measures)
    two = sum(abs(diam - 2.0 * rad) <= tol * diam
              for Diam, diam, Rad, rad in measures)
    return shortcut / len(measures), two / len(measures)


def _p90(xs):
    """90th percentile; the one sample of a run too short for more."""
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def totals(outcomes):
    attempted = sum(o.units for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    classes = Counter()
    for o in outcomes:
        classes.update(o.classes)
    return attempted, failed, classes


def wall_clock(outcomes):
    """Latency percentiles, throughput and reference time, in ms and 1/s."""
    lat = [x for o in outcomes for x in o.latencies_ms]
    return {
        "op_ms.p50": statistics.median(lat),
        "op_ms.p90": _p90(lat),
        "ops_per_s": 1e3 * len(lat) / sum(lat),
        "ref_ms": statistics.median(r for o in outcomes
                                    for r in o.latency_refs),
    }


def _ref_costs(outcomes):
    """Every latency sample of the outcomes in reference passes."""
    return [x / r for o in outcomes
            for x, r in zip(o.latencies_ms, o.latency_refs)]


def end_to_end(outcomes, setup_s):
    attempted, failed, _ = totals(outcomes)
    lat = _ref_costs(outcomes)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "op_ref.p50": statistics.median(lat),
        "op_ref.p90": _p90(lat),
        "ops_per_kref": 1e3 * len(lat) / sum(lat),
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }, len(lat)


def per_layer(untraced, traced, tracer):
    from tracing import layer_totals
    layers, origins = layer_totals(tracer.spans,
                                   lambda op: isinstance(op, int))
    setup_layers, _ = layer_totals(tracer.spans, lambda op: op == "setup")
    units = sum(o.units for o in traced)
    ms = 1e-6 / units

    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    out = {}
    out["op.ms"] = get("op", "incl_ns") * ms
    out["op.bench_self_ms"] = get("op", "self_ns") * ms
    out["intrinsic.radius.incl_ms"] = get("intrinsic.radius", "incl_ns") * ms
    out["intrinsic.radius.self_ms"] = get("intrinsic.radius", "self_ns") * ms
    probes = get("intrinsic.radius", "attr")
    out["intrinsic.radius.probes"] = probes / units
    out["intrinsic.radius.ms_per_probe"] = (
        get("intrinsic.radius", "incl_ns") * 1e-6 / probes if probes else 0.0)
    for layer in ("intrinsic.star_unfold", "geodesics.search",
                  "intrinsic.cut_locus"):
        out[layer + ".calls"] = get(layer, "calls") / units
        out[layer + ".self_ms"] = get(layer, "self_ns") * ms
        out[layer + ".fail"] = get(layer, "fail") / units
    out["geodesics.search.fail.SearchExhausted"] = \
        origins[("geodesics.search", "SearchExhausted")] / units
    out["intrinsic.radius_at.calls"] = \
        get("intrinsic.radius_at", "calls") / units
    for layer in ("intrinsic.radius_at", "intrinsic.diameter",
                  "extrinsic.radius", "extrinsic.diameter",
                  "extrinsic.radius_at", "generators", "report.compute",
                  "report.checks"):
        out[layer + ".self_ms"] = get(layer, "self_ns") * ms
    out["setup.generators_ms"] = \
        setup_layers.get("generators", {}).get("incl_ns", 0) * 1e-6
    attempted, failed, classes = totals(traced)
    for name in ("SearchExhausted", "AmbiguousCut"):
        out["fail." + name] = classes.pop(name, 0) / attempted
    out["fail.other"] = sum(classes.values()) / attempted
    out["workload.shortcut_share"], out["workload.diam_rad_2_share"] = \
        _shares(traced)
    raw = wall_clock(untraced)
    pool_n = sum(o.pool[0] for o in untraced)
    pool_rate = pool_n / sum(o.pool[1] for o in untraced) if pool_n else 0.0
    out["campaign.pool_ops_per_s"] = pool_rate
    out["campaign.scaling_eff"] = pool_rate / (2.0 * raw["ops_per_s"])
    k = min(len(untraced), len(traced))
    out["trace.overhead"] = \
        sum(_ref_costs(traced[:k])) / sum(_ref_costs(untraced[:k])) - 1.0
    for key, value in raw.items():
        out["raw." + key] = value
    return out, layers, origins


def write_trace(tracer, name, layers, origins):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / ("spans-%s.tsv.gz" % name))
    table = {"layers": layers,
             "failure_origins": ["%s\t%s\t%d" % (l, c, n)
                                 for (l, c), n in sorted(origins.items())]}
    (out_dir / ("layers-%s.json" % name)).write_text(
        json.dumps(table, indent=1, sort_keys=True))


def print_layers(layers, origins, units):
    op_ns = layers.get("op", {}).get("incl_ns", 0) or 1
    print("layer                      calls/op  self ms/op  self%  "
          "incl ms/op  incl%  fail")
    for name, t in sorted(layers.items(), key=lambda kv: -kv[1]["self_ns"]):
        print("%-26s %8.1f %11.3f %5.1f%% %11.3f %5.1f%% %5d" % (
            name, t["calls"] / units, t["self_ns"] * 1e-6 / units,
            100.0 * t["self_ns"] / op_ns, t["incl_ns"] * 1e-6 / units,
            100.0 * t["incl_ns"] / op_ns, t["fail"]))
    for (layer, cls), n in sorted(origins.items()):
        print("failure origin: %-22s %-18s %d" % (layer, cls, n))


def main(argv=None):
    args = parse_args(argv)
    ref_before = reference_ms()
    t0 = time.perf_counter()
    if args.trace:
        from tracing import Tracer
        wl, problems, tracer = setup(args.workload, args.seed, Tracer)
    else:
        wl, problems, tracer = setup(args.workload, args.seed)
    wall_s = time.perf_counter() - t0
    setup_s = (wall_s, wall_s / (0.5 * (ref_before + reference_ms())))
    if args.setup_only:
        print(json.dumps(setup_s))
        return 0

    count = op_count(wl, args.seconds)
    if args.trace:
        traced_count = max(1, round(count * TRACED_SHARE))
        untraced = measure(wl, max(1, count - traced_count))
        tracer.install()
        try:
            outcomes = measure(wl, traced_count, tracer)
        finally:
            tracer.uninstall()
        metrics, layers, origins = per_layer(untraced, outcomes, tracer)
        units = sum(o.units for o in outcomes)
        print_layers(layers, origins, units)
        write_trace(tracer, args.workload, layers, origins)
        declared = PER_LAYER
    else:
        outcomes = measure(wl, count)
        samples = [setup_s] + [setup_in_subprocess(args)
                               for _ in range(SETUP_REPEATS - 1)]
        metrics, n_lat = end_to_end(
            outcomes, statistics.median(s for _, s in samples))
        print("latency samples: %d; set-up samples, wall s / scaled s: %s"
              % (n_lat, " ".join("%.3f/%.3f" % s for s in samples)))
        print("wall clock: %s" % ", ".join(
            "%s %.4g" % kv for kv in wall_clock(outcomes).items()))
        pool_n = sum(o.pool[0] for o in outcomes)
        if pool_n:
            print("pool campaign: %.4g instances/s"
                  % (pool_n / sum(o.pool[1] for o in outcomes)))
        declared = END_TO_END

    attempted, failed, classes = totals(outcomes)
    for o in outcomes:
        problems.extend(o.problems)
    for p in problems[:20]:
        print("correctness: %s" % p)
    print("operations: %d attempted, %d failed %s"
          % (attempted, failed, dict(sorted(classes.items()))))
    for name, unit in declared.items():
        print("%-40s %14.6g %s" % (name, metrics[name], unit))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
